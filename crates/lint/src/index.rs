//! Phase 1 of the workspace analyzer: the item index.
//!
//! The per-file passes in [`crate::lints`] see one token stream at a
//! time; they cannot see a deadlock cycle that spans two crates, an
//! fsync performed three calls below an engine write lock, or a wire
//! opcode with no decoder. This module builds a brace-tree **item
//! index** over every scanned file — fn items (with the guards each one
//! acquires directly), enum definitions with their variants, guard
//! acquisition sites with the guard stack live in their enclosing
//! scope, every call site and every identifier reference with the fn
//! that encloses it (the call graph), macro invocation sites
//! (`fail_point!` / `counter!` / `gauge!` / `histogram!` /
//! `bq_faults::hit`), and every string literal — and bundles the files
//! into a [`Workspace`] that the phase-2 passes
//! ([`crate::lints::lock_graph`], [`crate::lints::blocking`],
//! [`crate::lints::wire_conformance`], [`crate::lints::site_registry`])
//! and the [`crate::census`] query cross-file.

use crate::lexer::Kind;
use crate::source::SourceFile;

/// Zero-argument acquisition methods on `Mutex` / `RwLock`. `read` and
/// `write` with arguments are ordinary I/O methods and never match.
pub const ACQUIRE_FNS: &[&str] = &["lock", "read", "write"];

/// A fn item (free fn or method; the index does not distinguish).
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The fn's name as written.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Code-token index of the body `{`.
    pub body_start: usize,
    /// Code-token index of the matching `}`.
    pub body_end: usize,
    /// Was the `fn` keyword inside a `#[cfg(test)]` item?
    pub in_test: bool,
    /// Declared plain `pub` (not `pub(crate)` and the like)?
    pub is_pub: bool,
    /// A method of an `impl Trait for T` block: callable through the
    /// trait without its name appearing (`fmt`, `drop`, `next`).
    pub trait_impl: bool,
}

/// A guard that was live in scope when a site was recorded.
#[derive(Debug, Clone)]
pub struct HeldGuard {
    /// Receiver the guard was taken from (`inner` for `x.inner.lock()`).
    pub recv: String,
    /// The `let` binding holding the guard (`g` for `let g = x.lock()`).
    pub binding: Option<String>,
    /// Line of the acquisition.
    pub line: u32,
}

/// One `recv.lock()` / `.read()` / `.write()` acquisition site.
#[derive(Debug, Clone)]
pub struct GuardSite {
    /// Receiver name, lowercased (`SERIAL.lock()` declares `serial`).
    pub recv: String,
    /// Line of the acquisition.
    pub line: u32,
    /// Guards already live in scope at this acquisition, outermost
    /// first.
    pub held: Vec<HeldGuard>,
    /// Index into [`FileIndex::fns`] of the enclosing fn, if any.
    pub fn_idx: Option<usize>,
    /// Inside a `#[cfg(test)]` item?
    pub in_test: bool,
}

/// One call site, with the guards live at it.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (`sync` for `self.wal.sync()`).
    pub callee: String,
    /// Path segments qualifying the callee (`["bq_storage", "Wal"]`
    /// for `bq_storage::Wal::sync(..)`), empty for bare calls.
    pub path: Vec<String>,
    /// Was the call written as a method (`recv.callee(..)`)?
    pub method: bool,
    /// Immediate receiver ident for a method call (`self` for
    /// `self.helper()`, `wal` for `self.wal.sync()`), `None` for free
    /// fns and computed receivers.
    pub recv: Option<String>,
    /// Did the call take zero arguments (`h.join()`)?
    pub zero_arg: bool,
    /// First argument when it is a bare identifier (`g` for
    /// `cv.wait(g)`): a guard passed this way moves into the callee.
    pub arg0: Option<String>,
    /// Line of the call.
    pub line: u32,
    /// Guards live at the call, outermost first (empty when none is).
    pub held: Vec<HeldGuard>,
    /// Index into [`FileIndex::fns`] of the enclosing fn, if any.
    pub fn_idx: Option<usize>,
    /// Inside a `#[cfg(test)]` item?
    pub in_test: bool,
}

/// An identifier that may name a fn: any identifier but those of `use`
/// items and the name after `fn`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ref {
    /// Index into [`FileIndex::fns`] of the enclosing fn; `None` outside
    /// fn bodies (a `const`, a `static`, a `macro_rules!` body).
    pub fn_idx: Option<usize>,
    /// Inside a `#[cfg(test)]` item?
    pub in_test: bool,
    /// The identifier.
    pub name: String,
}

/// A registered macro invocation (`fail_point!`, `counter!`, `gauge!`,
/// `histogram!`) or a `bq_faults::hit("site")` probe.
#[derive(Debug, Clone)]
pub struct MacroSite {
    /// Macro (or probe fn) name, without the `!`.
    pub name: String,
    /// First string-literal argument (site or metric name), if the
    /// argument was a literal.
    pub arg0: Option<String>,
    /// Second string-literal argument (the metric help text), if any.
    pub arg1: Option<String>,
    /// Line of the invocation.
    pub line: u32,
    /// Inside a `#[cfg(test)]` item?
    pub in_test: bool,
}

/// An enum definition with its variants.
#[derive(Debug, Clone)]
pub struct EnumInfo {
    /// The enum's name.
    pub name: String,
    /// Line of the `enum` keyword.
    pub line: u32,
    /// `(variant, line)` in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// Phase-1 output for one file.
#[derive(Debug, Default)]
pub struct FileIndex {
    /// Owning crate: `server` for `crates/server/...`, `bqsh` for
    /// `src/...`, `examples` / `tests` for the root dirs.
    pub crate_name: String,
    /// Is the whole file test code (under a `tests/` directory)?
    pub test_file: bool,
    /// Every fn item, in source order.
    pub fns: Vec<FnInfo>,
    /// Every guard acquisition site.
    pub guards: Vec<GuardSite>,
    /// Every call site.
    pub calls: Vec<CallSite>,
    /// Every distinct identifier reference, sorted.
    pub refs: Vec<Ref>,
    /// Every registered macro / failpoint-probe invocation.
    pub macros: Vec<MacroSite>,
    /// Every enum definition.
    pub enums: Vec<EnumInfo>,
    /// Every non-empty string literal: `(text, line, in_test)`.
    pub strings: Vec<(String, u32, bool)>,
}

/// One indexed file: the parsed source plus its phase-1 index.
pub struct WsFile {
    /// The lexed file (diagnostics are emitted through it so escape
    /// hatches keep working for workspace passes).
    pub src: SourceFile,
    /// The item index.
    pub idx: FileIndex,
}

/// The whole scanned workspace, input to every phase-2 pass.
#[derive(Default)]
pub struct Workspace {
    /// Every scanned file, in deterministic (sorted-path) order.
    pub files: Vec<WsFile>,
}

impl Workspace {
    /// Build the index over already-parsed files.
    pub fn build(files: Vec<SourceFile>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|src| {
                    let idx = index_file(&src);
                    WsFile { src, idx }
                })
                .collect(),
        }
    }

    /// Guards a fn acquires directly in production code, as
    /// `(crate, recv)` pairs. Used to resolve call edges in the lock
    /// graph.
    pub fn fn_acquires(&self, file: &WsFile, fn_idx: usize) -> Vec<(String, String)> {
        file.idx
            .guards
            .iter()
            .filter(|g| g.fn_idx == Some(fn_idx) && !g.in_test && !file.idx.test_file)
            .map(|g| (file.idx.crate_name.clone(), g.recv.clone()))
            .collect()
    }
}

/// A phase-2 pass: one cross-file discipline check over the whole
/// [`Workspace`]. The per-file counterpart is [`crate::source::Lint`];
/// both share the name/summary/explain surface so `bqlint list` and
/// `--explain` render one unified registry.
pub trait WorkspaceLint {
    /// Stable kebab-case name, used in diagnostics and `--explain`.
    fn name(&self) -> &'static str;
    /// One-line description for `bqlint list`.
    fn summary(&self) -> &'static str;
    /// Long-form rationale for `bqlint --explain <name>`.
    fn explain(&self) -> &'static str;
    /// Run over the indexed workspace, appending findings to `rep`.
    /// Diagnostics are emitted through the owning [`SourceFile`] so
    /// escape hatches keep working.
    fn check(&self, ws: &Workspace, rep: &mut crate::source::Report);
}

/// Crate name for a repo-relative path.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else if path.starts_with("src/") {
        "bqsh".to_string()
    } else if path.starts_with("examples/") {
        "examples".to_string()
    } else if path.starts_with("tests/") {
        "tests".to_string()
    } else {
        "root".to_string()
    }
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "move", "else",
    "unsafe", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod", "struct", "enum", "trait",
    "type", "const", "static", "break", "continue",
];

/// Macros (and the `hit` probe) whose first string argument names a
/// registered site.
const REGISTERED_MACROS: &[&str] = &["fail_point", "counter", "gauge", "histogram"];

/// A guard live on the walker's stack.
struct LiveGuard {
    recv: String,
    binding: Option<String>,
    depth: i32,
    line: u32,
}

fn held_of(stack: &[LiveGuard]) -> Vec<HeldGuard> {
    stack
        .iter()
        .map(|g| HeldGuard {
            recv: g.recv.clone(),
            binding: g.binding.clone(),
            line: g.line,
        })
        .collect()
}

/// Walk one file's code tokens and produce its index.
pub fn index_file(file: &SourceFile) -> FileIndex {
    let mut out = FileIndex {
        crate_name: crate_of(&file.path),
        test_file: file.path.starts_with("tests/") || file.path.contains("/tests/"),
        ..FileIndex::default()
    };
    let n = file.len();

    // --- fn items, trait impls and enum definitions (structure pass) -
    // Body spans `{`..`}` of the `impl Trait for T` blocks seen so far.
    let mut trait_impls: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < n {
        if file.is_ident(i, "impl") {
            if let Some(open) = (i + 1..n).find(|&j| file.is_punct(j, "{") || file.is_punct(j, ";"))
            {
                let is_trait =
                    (i + 1..open).any(|j| file.is_ident(j, "for") && !file.is_punct(j + 1, "<"));
                if is_trait && file.is_punct(open, "{") {
                    trait_impls.push((open, file.match_brace(open)));
                }
            }
        }
        if file.is_ident(i, "fn") && i + 1 < n && file.tok(i + 1).kind == Kind::Ident {
            // Find the body `{`; a `;` first means a trait method
            // declaration with no body.
            let mut j = i + 2;
            let mut body = None;
            while j < n {
                if file.is_punct(j, "{") {
                    body = Some(j);
                    break;
                }
                if file.is_punct(j, ";") {
                    break;
                }
                j += 1;
            }
            if let Some(body_start) = body {
                out.fns.push(FnInfo {
                    name: file.tok(i + 1).text.clone(),
                    line: file.tok(i).line,
                    body_start,
                    body_end: file.match_brace(body_start),
                    in_test: file.in_test(i),
                    // `pub [const] [unsafe] fn`; `pub(crate) fn` is not.
                    is_pub: (i.saturating_sub(3)..i).any(|j| file.is_ident(j, "pub")),
                    trait_impl: trait_impls.iter().any(|&(o, c)| o < i && i < c),
                });
            }
            i += 2;
            continue;
        }
        if file.is_ident(i, "enum") && i + 1 < n && file.tok(i + 1).kind == Kind::Ident {
            if let Some(open) = (i + 2..n.min(i + 16)).find(|&j| file.is_punct(j, "{")) {
                let close = file.match_brace(open);
                out.enums.push(EnumInfo {
                    name: file.tok(i + 1).text.clone(),
                    line: file.tok(i).line,
                    variants: enum_variants(file, open, close),
                });
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }

    // --- sites (scope-tracking pass) --------------------------------
    let mut depth = 0i32;
    let mut guards: Vec<LiveGuard> = Vec::new();
    // `let`-statement tracking: the pending binding name for the
    // current statement, reset at `;` and braces.
    let mut stmt_binding: Option<String> = None;
    let mut stmt_is_let = false;
    // The fns whose bodies enclose token `i`, innermost last; `fns` is in
    // source order, so their bodies open in index order.
    let mut fn_stack: Vec<usize> = Vec::new();
    let mut next_fn = 0;
    let mut in_use = false;
    let mut refs = std::collections::BTreeSet::new();

    for i in 0..n {
        while fn_stack.last().is_some_and(|&f| out.fns[f].body_end < i) {
            fn_stack.pop();
        }
        while next_fn < out.fns.len() && out.fns[next_fn].body_start <= i {
            fn_stack.push(next_fn);
            next_fn += 1;
        }
        let fn_idx = fn_stack.last().copied();
        if file.tok(i).kind == Kind::Ident {
            in_use |= file.is_ident(i, "use");
            // A name right after `fn`, `let` or `let mut` is defined
            // here, not referred to.
            let after = |back: usize, word: &str| i >= back && file.is_ident(i - back, word);
            let defines = after(1, "fn") || after(1, "let") || (after(1, "mut") && after(2, "let"));
            if !in_use && !defines {
                refs.insert(Ref {
                    fn_idx,
                    in_test: file.in_test(i),
                    name: file.tok(i).text.clone(),
                });
            }
        }
        if file.is_punct(i, "{") {
            depth += 1;
            stmt_is_let = false;
            stmt_binding = None;
            continue;
        }
        if file.is_punct(i, "}") {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
            stmt_is_let = false;
            stmt_binding = None;
            continue;
        }
        if file.is_punct(i, ";") {
            stmt_is_let = false;
            stmt_binding = None;
            in_use = false;
            continue;
        }
        if file.is_ident(i, "let") {
            stmt_is_let = true;
            // Binding name: first ident after `let`, skipping `mut` and
            // `Ok(` / `Some(` destructuring.
            let mut j = i + 1;
            while j < n
                && (file.is_ident(j, "mut")
                    || file.is_ident(j, "Ok")
                    || file.is_ident(j, "Some")
                    || file.is_punct(j, "("))
            {
                j += 1;
            }
            stmt_binding =
                (j < n && file.tok(j).kind == Kind::Ident).then(|| file.tok(j).text.clone());
            continue;
        }
        // `drop(g)` releases the guard bound to `g`.
        if file.is_ident(i, "drop")
            && file.is_punct(i + 1, "(")
            && i + 2 < n
            && file.tok(i + 2).kind == Kind::Ident
            && file.is_punct(i + 3, ")")
        {
            let name = &file.tok(i + 2).text;
            guards.retain(|g| g.binding.as_deref() != Some(name.as_str()));
            continue;
        }

        // Registered macro invocations and `hit("site")` probes.
        if file.tok(i).kind == Kind::Ident && file.is_punct(i + 1, "!") && file.is_punct(i + 2, "(")
        {
            let name = file.tok(i).text.as_str();
            if REGISTERED_MACROS.contains(&name) {
                let close = match_paren(file, i + 2);
                let (arg0, arg1) = literal_args(file, i + 2, close);
                out.macros.push(MacroSite {
                    name: name.to_string(),
                    arg0,
                    arg1,
                    line: file.tok(i).line,
                    in_test: file.in_test(i),
                });
            }
        }
        if file.is_ident(i, "hit") && file.is_punct(i + 1, "(") && i >= 2 && file.is_path_sep(i - 2)
        {
            let close = match_paren(file, i + 1);
            let (arg0, arg1) = literal_args(file, i + 1, close);
            out.macros.push(MacroSite {
                name: "hit".to_string(),
                arg0,
                arg1,
                line: file.tok(i).line,
                in_test: file.in_test(i),
            });
        }

        // Guard acquisition: `recv.lock()` / `.read()` / `.write()`
        // with zero arguments.
        let is_acquire = i > 0
            && file.is_punct(i - 1, ".")
            && ACQUIRE_FNS.iter().any(|f| file.is_ident(i, f))
            && file.is_punct(i + 1, "(")
            && file.is_punct(i + 2, ")");
        if is_acquire {
            let recv = if i >= 2 && file.tok(i - 2).kind == Kind::Ident {
                file.tok(i - 2).text.to_lowercase()
            } else {
                continue; // computed receiver: not a named lock
            };
            let line = file.tok(i).line;
            out.guards.push(GuardSite {
                recv: recv.clone(),
                line,
                held: held_of(&guards),
                fn_idx,
                in_test: file.in_test(i),
            });
            if stmt_is_let {
                guards.push(LiveGuard {
                    recv,
                    binding: stmt_binding.clone(),
                    depth,
                    line,
                });
            }
            continue;
        }

        // Call sites.
        if file.tok(i).kind == Kind::Ident
            && file.is_punct(i + 1, "(")
            && !NON_CALL_KEYWORDS.contains(&file.tok(i).text.as_str())
        {
            let method = i > 0 && file.is_punct(i - 1, ".");
            let recv = (method && i >= 2 && file.tok(i - 2).kind == Kind::Ident)
                .then(|| file.tok(i - 2).text.clone());
            // Collect `a::b::callee` path segments, innermost last.
            let mut path = Vec::new();
            let mut j = i;
            while j >= 2 && file.is_path_sep(j - 2) && file.tok(j - 3).kind == Kind::Ident {
                path.insert(0, file.tok(j - 3).text.clone());
                j -= 3;
            }
            out.calls.push(CallSite {
                callee: file.tok(i).text.clone(),
                path,
                method,
                recv,
                zero_arg: file.is_punct(i + 2, ")"),
                arg0: (i + 3 < n
                    && file.tok(i + 2).kind == Kind::Ident
                    && (file.is_punct(i + 3, ",") || file.is_punct(i + 3, ")")))
                .then(|| file.tok(i + 2).text.clone()),
                line: file.tok(i).line,
                held: held_of(&guards),
                fn_idx,
                in_test: file.in_test(i),
            });
        }
    }

    out.refs = refs.into_iter().collect();
    out.strings = collect_strings(file);
    out
}

/// Variants of the enum body between code tokens `open`/`close`
/// (exclusive): idents at nesting depth 1 in variant-head position,
/// skipping attributes and payloads.
fn enum_variants(file: &SourceFile, open: usize, close: usize) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Skip attributes on the variant.
        if file.is_punct(i, "#") && file.is_punct(i + 1, "[") {
            let mut d = 0i32;
            let mut j = i + 1;
            while j < close {
                if file.is_punct(j, "[") {
                    d += 1;
                } else if file.is_punct(j, "]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if file.tok(i).kind == Kind::Ident {
            variants.push((file.tok(i).text.clone(), file.tok(i).line));
            // Skip to the `,` separating variants, tracking nesting
            // through tuple/struct payloads and discriminants.
            let mut d = 0i32;
            while i < close {
                if file.is_punct(i, "(") || file.is_punct(i, "{") || file.is_punct(i, "[") {
                    d += 1;
                } else if file.is_punct(i, ")") || file.is_punct(i, "}") || file.is_punct(i, "]") {
                    d -= 1;
                } else if file.is_punct(i, ",") && d == 0 {
                    break;
                }
                i += 1;
            }
        }
        i += 1;
    }
    variants
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(file: &SourceFile, open: usize) -> usize {
    let mut depth = 0i32;
    for i in open..file.len() {
        if file.is_punct(i, "(") {
            depth += 1;
        } else if file.is_punct(i, ")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    file.len().saturating_sub(1)
}

/// First and second non-empty string-literal arguments between
/// `open`/`close`.
fn literal_args(file: &SourceFile, open: usize, close: usize) -> (Option<String>, Option<String>) {
    let mut lits = (open + 1..close)
        .filter(|&i| file.tok(i).kind == Kind::Literal && !file.tok(i).text.is_empty())
        .map(|i| file.tok(i).text.clone());
    (lits.next(), lits.next())
}

/// Every non-empty string literal in the file.
fn collect_strings(file: &SourceFile) -> Vec<(String, u32, bool)> {
    (0..file.len())
        .filter(|&i| file.tok(i).kind == Kind::Literal && !file.tok(i).text.is_empty())
        .map(|i| (file.tok(i).text.clone(), file.tok(i).line, file.in_test(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(path: &str, src: &str) -> FileIndex {
        index_file(&SourceFile::parse(path, src))
    }

    #[test]
    fn fns_enums_and_guards_are_indexed() {
        let src = r#"
pub enum Op { A, B(u32), C { x: u8 }, D = 4 }
fn outer(&self) {
    let g = self.state.lock().unwrap();
    self.helper();
    let h = self.db.write().unwrap();
}
fn helper(&self) { let k = self.inner.lock().unwrap(); }
"#;
        let idx = index("crates/server/src/x.rs", src);
        assert_eq!(idx.crate_name, "server");
        assert_eq!(
            idx.enums[0]
                .variants
                .iter()
                .map(|(v, _)| v.as_str())
                .collect::<Vec<_>>(),
            vec!["A", "B", "C", "D"]
        );
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.fns[0].name, "outer");
        // Three acquisitions; `db` is taken while `state` is held.
        assert_eq!(idx.guards.len(), 3);
        let db = idx.guards.iter().find(|g| g.recv == "db").unwrap();
        assert_eq!(db.held.len(), 1);
        assert_eq!(db.held[0].recv, "state");
        // `helper()` and the unwrap/helper calls happened under `state`.
        assert!(idx.calls.iter().any(|c| c.callee == "helper" && c.method));
        // `inner` in helper() holds nothing (fresh scope — the walker
        // popped outer's guards at the brace).
        let inner = idx.guards.iter().find(|g| g.recv == "inner").unwrap();
        assert!(inner.held.is_empty());
        assert_eq!(inner.fn_idx, Some(1));
    }

    #[test]
    fn drop_releases_a_bound_guard() {
        let src = r#"
fn f(&self) {
    let g = self.state.lock().unwrap();
    drop(g);
    self.db.write();
}
"#;
        let idx = index("crates/server/src/x.rs", src);
        let db = idx.guards.iter().find(|g| g.recv == "db").unwrap();
        assert!(db.held.is_empty(), "drop(g) released `state`");
    }

    #[test]
    fn macro_sites_and_hit_probes_capture_literal_args() {
        let src = r#"
fn f() {
    bq_faults::fail_point!("wal.append.torn");
    if bq_faults::hit("wal.sync.skip").is_some() {}
    bq_obs::counter!("bq_x_total", "help text").inc();
}
#[cfg(test)]
mod t { fn g() { bq_faults::fail_point!("t.site"); } }
"#;
        let idx = index("crates/storage/src/x.rs", src);
        let names: Vec<(&str, Option<&str>, bool)> = idx
            .macros
            .iter()
            .map(|m| (m.name.as_str(), m.arg0.as_deref(), m.in_test))
            .collect();
        assert!(names.contains(&("fail_point", Some("wal.append.torn"), false)));
        assert!(names.contains(&("hit", Some("wal.sync.skip"), false)));
        assert!(names.contains(&("fail_point", Some("t.site"), true)));
        let counter = idx.macros.iter().find(|m| m.name == "counter").unwrap();
        assert_eq!(counter.arg1.as_deref(), Some("help text"));
    }

    #[test]
    fn every_call_and_reference_is_indexed_with_its_fn() {
        let src = r#"
use crate::codec::encode;
const TABLE: &[fn()] = &[helper];
pub fn outer(&self, xs: &[u8]) { xs.iter().map(encode); self.wal.sync(); }
impl Drop for X { fn drop(&mut self) {} }
fn helper() -> impl Iterator<Item = u8> { std::iter::empty() }
"#;
        let idx = index("crates/core/src/x.rs", src);
        let shape: Vec<(&str, bool, bool)> = idx
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.trait_impl))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("outer", true, false),
                ("drop", false, true),
                ("helper", false, false)
            ]
        );
        let refs: Vec<(Option<usize>, &str)> = idx
            .refs
            .iter()
            .map(|r| (r.fn_idx, r.name.as_str()))
            .collect();
        assert!(refs.contains(&(None, "helper")), "a const names it");
        assert!(refs.contains(&(Some(0), "encode")), "passed as a value");
        assert!(!refs.contains(&(None, "encode")), "a `use` is no reference");
        assert!(!refs.iter().any(|(_, n)| *n == "outer"), "nor a definition");
        // Calls are recorded with no guard held.
        let sync = idx.calls.iter().find(|c| c.callee == "sync").unwrap();
        assert!(sync.held.is_empty());
        assert_eq!(sync.fn_idx, Some(0));
    }

    #[test]
    fn crate_names_resolve_from_paths() {
        assert_eq!(crate_of("crates/storage/src/wal.rs"), "storage");
        assert_eq!(crate_of("src/bin/bqsh.rs"), "bqsh");
        assert_eq!(crate_of("tests/crash_torture.rs"), "tests");
        assert_eq!(crate_of("examples/serve.rs"), "examples");
    }
}
