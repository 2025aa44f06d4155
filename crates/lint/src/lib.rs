//! bq-lint: static analysis for the workspace's own sources.
//!
//! The engine enforces invariants on itself — timing goes through
//! bq-obs, hot loops consult the governor, failpoints are never armed
//! in release paths, engine crates don't panic, locks follow a declared
//! order, relaxed atomics carry a justification. These used to be
//! grep/awk gates in `scripts/verify.sh`, which could not see strings,
//! comments, `#[cfg(test)]` scope, or nesting. bq-lint replaces them
//! with a real lexer ([`lexer`]) and a per-file pass framework
//! ([`source::Lint`]); `scripts/verify.sh` now runs
//! `cargo run -p bq-lint --release -- check` and fails on any
//! diagnostic.
//!
//! `check` runs in two phases. Phase 1 parses every file in parallel
//! (scoped threads, deterministic merge), runs the per-file passes,
//! and builds an item index ([`index::FileIndex`]) — fn spans, enum
//! variants, guard-acquisition sites, the call graph, macro
//! registration sites. Phase 2 hands the assembled
//! [`index::Workspace`] to the cross-file passes
//! ([`index::WorkspaceLint`]): the inferred lock graph, blocking-
//! while-locked, wire conformance, and the failpoint/metric site
//! registry. `bqlint census` walks the same index's call graph
//! ([`census`]).
//!
//! The analyzer is std-only and dependency-free, like the rest of the
//! workspace.

pub mod census;
pub mod index;
pub mod lexer;
pub mod lints;
pub mod source;

use index::Workspace;
use source::{Report, SourceFile};
use std::path::{Path, PathBuf};

/// Directories scanned by `bqlint check`, relative to the repo root.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "examples", "tests"];

/// Collect every `.rs` file under the scan roots, skipping build
/// output and lint fixtures (which contain deliberate violations).
/// Paths come back repo-relative, sorted for deterministic output.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run both phases over every scanned file under `root`: per-file
/// passes plus index construction in parallel, then the workspace
/// passes over the assembled index.
pub fn check(root: &Path) -> std::io::Result<Report> {
    let paths = collect_files(root)?;
    let shards = parse_and_lint(root, &paths)?;

    let mut rep = Report::default();
    let mut files = Vec::with_capacity(shards.len());
    for (file_rep, ws_file) in shards {
        rep.files += 1;
        rep.diags.extend(file_rep.diags);
        rep.allows.extend(file_rep.allows);
        files.push(ws_file);
    }

    let ws = Workspace { files };
    for lint in lints::workspace() {
        lint.check(&ws, &mut rep);
    }

    rep.diags.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    rep.allows
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(rep)
}

/// One phase-1 result slot: the per-file report plus the indexed file.
type Shard = (Report, index::WsFile);

/// Phase 1, parallel: lex + parse + per-file lints + item index for
/// each path. Scoped threads strip the walk across the files; results
/// come back in `paths` order regardless of which worker ran them, so
/// output stays deterministic.
fn parse_and_lint(root: &Path, paths: &[PathBuf]) -> std::io::Result<Vec<Shard>> {
    // Worker count: one per hardware thread, overridable with
    // BQLINT_THREADS (used by the timing runs in EXPERIMENTS.md §lint).
    let workers = std::env::var("BQLINT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .min(paths.len().max(1));

    let slots: Vec<std::sync::Mutex<Option<std::io::Result<Shard>>>> = (0..paths.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let lints = lints::all();
                loop {
                    // relaxed: fetch_add hands out each index exactly
                    // once regardless of ordering; the slot Mutex
                    // publishes the result it guards.
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= paths.len() {
                        break;
                    }
                    let result = process_one(root, &paths[i], &lints);
                    *slots[i].lock().unwrap() = Some(result);
                }
            });
        }
    });

    let mut out = Vec::with_capacity(paths.len());
    for slot in slots {
        out.push(
            slot.into_inner()
                .unwrap()
                .expect("worker filled every slot")?,
        );
    }
    Ok(out)
}

fn process_one(
    root: &Path,
    path: &Path,
    lints: &[Box<dyn source::Lint>],
) -> std::io::Result<Shard> {
    let src = std::fs::read_to_string(path)?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let file = SourceFile::parse(&rel, &src);
    let mut rep = Report::default();
    for lint in lints {
        lint.check(&file, &mut rep);
    }
    let idx = index::index_file(&file);
    Ok((rep, index::WsFile { src: file, idx }))
}

/// Build just the phase-1 index over the tree (no lint reports) —
/// `bqlint graph` renders the inferred lock graph from it.
pub fn build_workspace(root: &Path) -> std::io::Result<Workspace> {
    let paths = collect_files(root)?;
    let shards = parse_and_lint(root, &paths)?;
    Ok(Workspace {
        files: shards.into_iter().map(|(_, f)| f).collect(),
    })
}

/// `bqlint census`: the index over the tree plus `benchspine/src`
/// (product roots only, never linted), rendered by [`census::render`].
pub fn census(root: &Path) -> std::io::Result<String> {
    let mut ws = build_workspace(root)?;
    let mut paths = Vec::new();
    let benchmark = root.join(census::BENCH_ROOT);
    if benchmark.is_dir() {
        walk(&benchmark, &mut paths)?;
    }
    paths.sort();
    for path in paths {
        ws.files.push(process_one(root, &path, &[])?.1);
    }
    Ok(census::render(&ws))
}

/// The census of a set of in-memory `(virtual_path, source)` files —
/// the fixture tests' entry point.
pub fn census_files(files: &[(&str, &str)]) -> String {
    census::render(&Workspace::build(
        files
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src))
            .collect(),
    ))
}

/// Run a single workspace lint over a set of in-memory files — the
/// fixture tests' entry point for the cross-file passes. Each entry is
/// `(virtual_path, source)`.
pub fn check_workspace(lint: &dyn index::WorkspaceLint, files: &[(&str, &str)]) -> Report {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(path, src)| SourceFile::parse(path, src))
        .collect();
    let ws = Workspace::build(parsed);
    let mut rep = Report {
        files: files.len(),
        ..Report::default()
    };
    lint.check(&ws, &mut rep);
    rep.diags.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    rep
}

/// Run a single lint (by registry instance) over an in-memory file —
/// the fixture tests' entry point.
pub fn check_source(lint: &dyn source::Lint, virtual_path: &str, src: &str) -> Report {
    let file = SourceFile::parse(virtual_path, src);
    let mut rep = Report {
        files: 1,
        ..Report::default()
    };
    lint.check(&file, &mut rep);
    rep
}

/// Render `bqlint list`: every registered lint with its one-line
/// summary, either aligned text or a JSON array. Driven directly off
/// the registry so the listing can never drift from the pass set (the
/// self-test in `tests/cli_registry.rs` pins this).
pub fn render_list(json: bool) -> String {
    let cat = lints::catalog();
    if json {
        let rows: Vec<String> = cat
            .iter()
            .map(|(name, summary, _)| {
                format!(
                    "{{\"name\":\"{}\",\"summary\":\"{}\"}}",
                    json_escape(name),
                    json_escape(summary)
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    } else {
        let width = cat.iter().map(|(name, _, _)| name.len()).max().unwrap_or(0);
        cat.iter()
            .map(|(name, summary, _)| format!("{name:width$}  {summary}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Render a check [`Report`] as JSON (for `bqlint check --json`).
pub fn render_report_json(rep: &Report) -> String {
    let diags: Vec<String> = rep
        .diags
        .iter()
        .map(|d| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&d.file),
                d.line,
                json_escape(d.lint),
                json_escape(&d.message)
            )
        })
        .collect();
    let allows: Vec<String> = rep
        .allows
        .iter()
        .map(|a| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"reason\":\"{}\"}}",
                json_escape(&a.file),
                a.line,
                json_escape(a.lint),
                json_escape(&a.reason)
            )
        })
        .collect();
    format!(
        "{{\"files\":{},\"diagnostics\":[{}],\"allows\":[{}]}}",
        rep.files,
        diags.join(","),
        allows.join(",")
    )
}

/// Minimal JSON string escaping (the workspace is dependency-free).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_kebab() {
        let cat = lints::catalog();
        let mut names: Vec<_> = cat.iter().map(|(n, _, _)| *n).collect();
        names.sort();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup, "duplicate lint names");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{n} is not kebab-case"
            );
        }
    }

    #[test]
    fn catalog_covers_both_registries() {
        let cat = lints::catalog();
        assert_eq!(
            cat.len(),
            lints::all().len() + lints::workspace().len(),
            "catalog must chain the per-file and workspace registries"
        );
        for ws in lints::workspace() {
            assert!(
                cat.iter().any(|(n, _, _)| *n == ws.name()),
                "workspace pass {} missing from catalog",
                ws.name()
            );
        }
    }

    #[test]
    fn every_lint_has_summary_and_explain() {
        for (name, summary, explain) in lints::catalog() {
            assert!(!summary.is_empty(), "{name} has no summary");
            assert!(
                explain.len() > summary.len(),
                "{name}'s explain should be longer than its summary"
            );
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
