//! Wire conformance: every protocol enum variant encoded and decoded
//! exactly once, every decoded length capped before allocation.
//!
//! The codecs' contract is *totality*: any byte sequence either parses
//! or returns a typed error. Two ways that contract silently rots: a new
//! enum variant gets an encoder but no decoder (or is decoded twice
//! under different opcodes), and a length or count read off the input
//! reaches `Vec::with_capacity` / `vec![0u8; len]` without a cap — a
//! one-frame denial of service. This pass checks the first over the wire
//! codec files, and the second there and in every decoder built on the
//! shared `ByteReader`.

use crate::index::{Workspace, WorkspaceLint, WsFile};
use crate::lexer::Kind;
use crate::source::Report;

pub struct WireConformance;

/// How far (in code tokens) before an uncapped allocation the pass
/// scans for a cap comparison on the same identifier.
const CAP_SCAN_TOKENS: usize = 96;

/// The shared decoder type; a file that names it decodes untrusted bytes.
const READER: &str = "ByteReader";

impl WorkspaceLint for WireConformance {
    fn name(&self) -> &'static str {
        "wire-conformance"
    }

    fn summary(&self) -> &'static str {
        "wire enums encode/decode every variant; wire lengths capped before alloc"
    }

    fn explain(&self) -> &'static str {
        "The binary decoders must stay total and allocation-safe as formats \
         grow. For every enum defined in a wire codec file (`*/wire.rs`), \
         each variant must appear exactly once across the file's `decode` \
         fns (a missing arm silently drops an opcode; a duplicate means two \
         opcodes alias one variant) and at least once across its `encode` \
         fns; an enum carried as a raw byte (the `from_u8` pattern) must map \
         every variant. Separately, in wire codec files and in every fn \
         that decodes with the shared `ByteReader`, any \
         `Vec::with_capacity(..)` or `vec![0u8; ..]` whose size involves an \
         identifier — i.e. a length that came off the input — must be \
         capped: the size is the reader's bounded `count(..)` (directly or \
         through a `let` binding), or the expression carries `.min(..)` or \
         a `MAX_*` constant, or the enclosing fn compares that identifier \
         against a `MAX_*` constant first. An uncapped length is a \
         one-frame denial of service: a 16-byte frame claiming a 4 GiB \
         body allocates before the first payload byte is read. Suppress a \
         provably-bounded site with \
         `// lint: allow(wire-conformance) <why the length is bounded>`."
    }

    fn check(&self, ws: &Workspace, rep: &mut Report) {
        for f in &ws.files {
            if is_wire_file(&f.src.path) {
                check_enums(self.name(), f, rep);
                check_caps(self.name(), f, rep, false);
            } else if names_reader(f, 0, f.src.len()) {
                check_caps(self.name(), f, rep, true);
            }
        }
    }
}

fn is_wire_file(path: &str) -> bool {
    path.ends_with("/wire.rs") || path == "wire.rs"
}

/// Does production code in tokens `lo..hi` name the shared reader?
fn names_reader(f: &WsFile, lo: usize, hi: usize) -> bool {
    (lo..hi).any(|i| f.src.is_ident(i, READER) && !f.src.in_test(i))
}

/// `count(` with an argument at `k`: the reader's bounded count, not
/// `Iterator::count()`.
fn is_bounded_count(s: &crate::source::SourceFile, k: usize) -> bool {
    s.is_ident(k, "count") && s.is_punct(k + 1, "(") && !s.is_punct(k + 2, ")")
}

/// Rule 1: enum/codec agreement.
fn check_enums(lint: &'static str, f: &WsFile, rep: &mut Report) {
    for en in &f.idx.enums {
        let decode = count_in_fns(f, &en.name, &en.variants, "decode");
        let encode = count_in_fns(f, &en.name, &en.variants, "encode");
        let from_u8 = count_in_fns(f, &en.name, &en.variants, "from_u8");

        // Only enums that participate in a codec are checked; plain
        // data enums in the file have all-zero counts.
        if decode.iter().any(|&c| c > 0) {
            for (i, (v, line)) in en.variants.iter().enumerate() {
                match decode[i] {
                    0 => f.src.emit(
                        rep,
                        lint,
                        *line,
                        format!(
                            "variant {}::{v} is never constructed in a `decode` fn; \
                             frames carrying it cannot be parsed",
                            en.name
                        ),
                    ),
                    1 => {}
                    n => f.src.emit(
                        rep,
                        lint,
                        *line,
                        format!(
                            "variant {}::{v} is constructed {n} times across `decode` \
                             fns; two opcodes alias one variant",
                            en.name
                        ),
                    ),
                }
                if encode[i] == 0 {
                    f.src.emit(
                        rep,
                        lint,
                        *line,
                        format!(
                            "variant {}::{v} is never handled in an `encode` fn; it \
                             cannot be put on the wire",
                            en.name
                        ),
                    );
                }
            }
        }
        if from_u8.iter().any(|&c| c > 0) {
            for (i, (v, line)) in en.variants.iter().enumerate() {
                if from_u8[i] == 0 {
                    f.src.emit(
                        rep,
                        lint,
                        *line,
                        format!(
                            "variant {}::{v} is never produced by `from_u8`; its wire \
                             byte does not round-trip",
                            en.name
                        ),
                    );
                }
            }
        }
    }
}

/// Count `Enum::Variant` occurrences per variant across every fn named
/// `fn_name` in the file (production code only).
fn count_in_fns(
    f: &WsFile,
    enum_name: &str,
    variants: &[(String, u32)],
    fn_name: &str,
) -> Vec<usize> {
    let mut counts = vec![0usize; variants.len()];
    for fun in f.idx.fns.iter().filter(|x| x.name == fn_name && !x.in_test) {
        for i in fun.body_start..=fun.body_end.min(f.src.len().saturating_sub(1)) {
            if f.src.is_ident(i, enum_name)
                && f.src.is_path_sep(i + 1)
                && i + 3 < f.src.len()
                && f.src.tok(i + 3).kind == Kind::Ident
            {
                let v = &f.src.tok(i + 3).text;
                if let Some(j) = variants.iter().position(|(name, _)| name == v) {
                    counts[j] += 1;
                }
            }
        }
    }
    counts
}

/// Rule 2: decoded lengths are capped before allocation. With
/// `reader_fns_only`, only allocations inside fns that name the shared
/// reader are checked.
fn check_caps(lint: &'static str, f: &WsFile, rep: &mut Report, reader_fns_only: bool) {
    let s = &f.src;
    let n = s.len();
    for i in 0..n {
        if s.in_test(i) {
            continue;
        }
        // `with_capacity( EXPR )`
        let expr = if s.is_ident(i, "with_capacity") && s.is_punct(i + 1, "(") {
            Some((i + 2, match_close(s, i + 1, "(", ")")))
        // `vec![0u8; EXPR]`
        } else if s.is_ident(i, "vec") && s.is_punct(i + 1, "!") && s.is_punct(i + 2, "[") {
            let close = match_close(s, i + 2, "[", "]");
            (i + 3..close)
                .find(|&j| s.is_punct(j, ";"))
                .map(|semi| (semi + 1, close))
        } else {
            None
        };
        let Some((lo, hi)) = expr else { continue };
        // The size identifier: the first plain ident in the expression.
        // An all-literal size (`with_capacity(32)`) is not wire-derived.
        let Some(ident_at) = (lo..hi).find(|&j| s.tok(j).kind == Kind::Ident) else {
            continue;
        };
        let ident = s.tok(ident_at).text.clone();
        // Evidence inside the expression itself: the bounded count,
        // `.min(..)` or a MAX_* constant.
        let capped_inline = (lo..hi).any(|j| {
            is_bounded_count(s, j)
                || (s.is_ident(j, "min") && s.is_punct(j + 1, "("))
                || (s.tok(j).kind == Kind::Ident && s.tok(j).text.contains("MAX"))
        });
        if capped_inline {
            continue;
        }
        let enclosing = f
            .idx
            .fns
            .iter()
            .filter(|fun| fun.body_start <= i && i <= fun.body_end)
            .max_by_key(|fun| fun.body_start);
        if reader_fns_only {
            // Only fns whose signature or body name the reader decode;
            // the signature starts at the `fn` keyword.
            let Some(fun) = enclosing else { continue };
            let header = (0..fun.body_start).rev().find(|&j| s.is_ident(j, "fn"));
            if !names_reader(f, header.unwrap_or(fun.body_start), fun.body_end) {
                continue;
            }
        }
        let fn_start = enclosing.map_or(0, |fun| fun.body_start);
        // Evidence earlier in the fn: `ident … MAX_*` within a few
        // tokens (a `if len > MAX_FRAME { return … }` guard),
        // `ident.min(`, or `ident = r.count(..)`.
        let scan_from = fn_start.max(i.saturating_sub(CAP_SCAN_TOKENS));
        let capped_before = (scan_from..i).any(|j| {
            if !s.is_ident(j, &ident) {
                return false;
            }
            let bound_from_count =
                s.is_punct(j + 1, "=") && (j + 2..(j + 7).min(n)).any(|k| is_bounded_count(s, k));
            bound_from_count
                || (j + 1..(j + 7).min(n)).any(|k| {
                    (s.tok(k).kind == Kind::Ident && s.tok(k).text.contains("MAX"))
                        || (s.is_punct(k, ".") && s.is_ident(k + 1, "min"))
                })
        });
        if !capped_before {
            s.emit(
                rep,
                lint,
                s.tok(i).line,
                format!(
                    "wire-derived length `{ident}` reaches an allocation without a \
                     cap; read it with the reader's bounded `count(..)` (or compare \
                     it against a MAX_* constant) before allocating"
                ),
            );
        }
    }
}

/// Index of the closing delimiter matching the opener at `open`.
fn match_close(s: &crate::source::SourceFile, open: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0i32;
    for i in open..s.len() {
        if s.is_punct(i, op) {
            depth += 1;
        } else if s.is_punct(i, cl) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    s.len().saturating_sub(1)
}
