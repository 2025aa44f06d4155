//! A small Rust lexer, sufficient for discipline lints.
//!
//! The old shell gates matched raw text, so a string literal containing
//! `Instant::now` or a commented-out `bq_faults::configure` tripped (or
//! worse, satisfied) them. This lexer produces a real token stream:
//! line and block comments (nested), plain/raw/byte strings, char
//! literals vs lifetimes, raw identifiers, and numbers are each
//! recognised, so lints match identifiers — never text inside literals
//! or comments. Comments are kept as tokens because the escape-hatch
//! and justification-comment rules need them.

/// Classification of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`loop`, `ctx`, `unwrap`, …).
    Ident,
    /// A single punctuation character (`{`, `:`, `!`, …).
    Punct,
    /// Any string/char/byte literal flavour. Plain and raw *string*
    /// literals retain their inner text (the workspace passes match
    /// failpoint site names and metric names against them); char and
    /// byte flavours keep `text` empty.
    Literal,
    /// Numeric literal.
    Number,
    /// Line (`//`) or block (`/* */`) comment, text retained.
    Comment,
    /// Lifetime or loop label (`'a`, `'pull`).
    Lifetime,
}

/// One token with its 1-based source line (the line it starts on).
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: Kind,
    pub text: String,
    pub line: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenise `src`. Unterminated literals/comments end at EOF rather
/// than erroring: lints prefer a best-effort stream over refusing the
/// file.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    // Count newlines in chars[from..to].
    let newlines = |from: usize, to: usize| -> u32 {
        chars[from..to].iter().filter(|&&c| c == '\n').count() as u32
    };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n {
            if chars[i + 1] == '/' {
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                toks.push(Tok {
                    kind: Kind::Comment,
                    text: chars[start..i].iter().collect(),
                    line,
                });
                continue;
            }
            if chars[i + 1] == '*' {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: Kind::Comment,
                    text: chars[start..i].iter().collect(),
                    line: start_line,
                });
                continue;
            }
        }
        // Raw strings r"…" / r#"…"#, raw identifiers r#ident, and byte
        // flavours b"…", b'…', br#"…"#.
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            if c == 'b' && j < n && chars[j] == 'r' {
                j += 1;
            }
            let mut hashes = 0usize;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            let is_raw_capable = c == 'r' || (i + 1 < n && chars[i + 1] == 'r');
            if is_raw_capable && j < n && chars[j] == '"' {
                // Raw string: scan for `"` + `hashes` hashes.
                let start_line = line;
                let mut k = j + 1;
                let mut content_end = n;
                'scan: while k < n {
                    if chars[k] == '"' {
                        let mut h = 0;
                        while k + 1 + h < n && h < hashes && chars[k + 1 + h] == '#' {
                            h += 1;
                        }
                        if h == hashes {
                            content_end = k;
                            k += 1 + hashes;
                            break 'scan;
                        }
                    }
                    if chars[k] == '\n' {
                        line += 1;
                    }
                    k += 1;
                }
                // Byte strings keep their text empty; plain raw strings
                // retain it for the workspace passes.
                let text = if c == 'r' {
                    chars[j + 1..content_end].iter().collect()
                } else {
                    String::new()
                };
                i = k;
                toks.push(Tok {
                    kind: Kind::Literal,
                    text,
                    line: start_line,
                });
                continue;
            }
            if c == 'r' && hashes == 1 && j < n && is_ident_start(chars[j]) {
                // Raw identifier r#type.
                let start = j;
                let mut k = j;
                while k < n && is_ident_continue(chars[k]) {
                    k += 1;
                }
                toks.push(Tok {
                    kind: Kind::Ident,
                    text: chars[start..k].iter().collect(),
                    line,
                });
                i = k;
                continue;
            }
            if c == 'b' && i + 1 < n && (chars[i + 1] == '"' || chars[i + 1] == '\'') {
                // Byte string / byte char: delegate to the quoted scan
                // below by skipping the prefix.
                let quote = chars[i + 1];
                let start_line = line;
                let mut k = i + 2;
                while k < n {
                    if chars[k] == '\\' {
                        k += 2;
                        continue;
                    }
                    if chars[k] == quote {
                        k += 1;
                        break;
                    }
                    if chars[k] == '\n' {
                        line += 1;
                    }
                    k += 1;
                }
                toks.push(Tok {
                    kind: Kind::Literal,
                    text: String::new(),
                    line: start_line,
                });
                i = k;
                continue;
            }
            // Fall through: ordinary identifier starting with r/b.
        }
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: Kind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        if c == '"' {
            let start_line = line;
            let mut k = i + 1;
            let mut content_end = n;
            while k < n {
                if chars[k] == '\\' {
                    line += newlines(k, (k + 2).min(n));
                    k += 2;
                    continue;
                }
                if chars[k] == '"' {
                    content_end = k;
                    k += 1;
                    break;
                }
                if chars[k] == '\n' {
                    line += 1;
                }
                k += 1;
            }
            toks.push(Tok {
                kind: Kind::Literal,
                text: chars[i + 1..content_end.min(n)].iter().collect(),
                line: start_line,
            });
            i = k;
            continue;
        }
        if c == '\'' {
            // Char literal vs lifetime/label.
            if i + 1 < n && chars[i + 1] == '\\' {
                // Escaped char literal: past the escaped char (which may
                // itself be `\` or `'`), scan to the closing quote.
                let mut k = i + 3;
                while k < n && chars[k] != '\'' {
                    k += 1;
                }
                toks.push(Tok {
                    kind: Kind::Literal,
                    text: String::new(),
                    line,
                });
                i = (k + 1).min(n);
                continue;
            }
            if i + 2 < n && chars[i + 2] == '\'' {
                // One-char literal: 'a', '0', '{', …
                toks.push(Tok {
                    kind: Kind::Literal,
                    text: String::new(),
                    line,
                });
                i += 3;
                continue;
            }
            if i + 1 < n && is_ident_start(chars[i + 1]) {
                let start = i;
                let mut k = i + 1;
                while k < n && is_ident_continue(chars[k]) {
                    k += 1;
                }
                toks.push(Tok {
                    kind: Kind::Lifetime,
                    text: chars[start..k].iter().collect(),
                    line,
                });
                i = k;
                continue;
            }
            // Lone quote; treat as punctuation and move on.
            toks.push(Tok {
                kind: Kind::Punct,
                text: "'".to_string(),
                line,
            });
            i += 1;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (is_ident_continue(chars[i])
                    || (chars[i] == '.'
                        && i + 1 < n
                        && chars[i + 1].is_ascii_digit()
                        && !(i > start && chars[i - 1] == '.')))
            {
                i += 1;
            }
            toks.push(Tok {
                kind: Kind::Number,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        toks.push(Tok {
            kind: Kind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            let a = "Instant::now inside a string";
            // Instant::now inside a comment
            /* block Instant::now /* nested */ still comment */
            let b = r#"raw Instant::now"#;
            let c = b"byte Instant::now";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()), "{ids:?}");
        assert!(ids.contains(&"real_ident".to_string()));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let toks = lex("'a' 'x: loop {} &'static str '\\n' '{' '\\\\' '\\'' \"s\"");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'x", "'static"]);
        let lits = toks.iter().filter(|t| t.kind == Kind::Literal).count();
        // `'\\'` and `'\''` end at their own closing quote: the string
        // after them is still a string.
        assert_eq!(lits, 6, "{toks:?}");
        assert_eq!(toks.last().unwrap().text, "s");
    }

    #[test]
    fn lines_are_tracked_through_multiline_tokens() {
        let src = "a\n\"two\nline string\"\nb /* c\nd */ e";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("e"), 5);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let ids = idents("r#type r#loop normal");
        assert_eq!(ids, vec!["type", "loop", "normal"]);
    }

    #[test]
    fn plain_and_raw_strings_retain_text() {
        let toks = lex("f(\"wal.append.torn\"); g(r#\"raw body\"#); h(b\"bytes\"); '\\n';");
        let lits: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == Kind::Literal)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lits, vec!["wal.append.torn", "raw body", "", ""]);
    }

    #[test]
    fn comments_keep_their_text() {
        let toks = lex("x // lint: allow(panic) reason here\ny");
        let c = toks.iter().find(|t| t.kind == Kind::Comment).unwrap();
        assert!(c.text.contains("allow(panic)"));
        assert_eq!(c.line, 1);
    }
}
