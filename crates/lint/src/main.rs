//! bqlint: the workspace's own static analyzer.
//!
//! ```text
//! bqlint check [--json] [ROOT]   # run every lint; nonzero exit on findings
//! bqlint list [--json]           # registered lints with one-line summaries
//! bqlint --explain <lint>        # long-form rationale for one lint
//! bqlint graph [ROOT]            # render the inferred workspace lock graph
//! bqlint census [ROOT]           # fn lines the product runs vs only tests run
//! ```

use bq_lint::lints;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    match strs.as_slice() {
        ["check", rest @ ..] => cmd_check(rest),
        ["list"] => cmd_list(false),
        ["list", "--json"] => cmd_list(true),
        ["--explain", name] | ["explain", name] => cmd_explain(name),
        ["graph", rest @ ..] => with_root("graph", rest, |root| {
            let ws = bq_lint::build_workspace(root)?;
            Ok(format!("{}\n", bq_lint::lints::lock_graph::render(&ws)))
        }),
        ["census", rest @ ..] => with_root("census", rest, bq_lint::census),
        _ => {
            eprintln!(
                "usage: bqlint check [--json] [ROOT]\n       \
                 bqlint list [--json]\n       \
                 bqlint --explain <lint>\n       \
                 bqlint graph [ROOT]\n       \
                 bqlint census [ROOT]"
            );
            ExitCode::from(2)
        }
    }
}

fn cmd_check(rest: &[&str]) -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for a in rest {
        match *a {
            "--json" => json = true,
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("bqlint check: unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let rep = match bq_lint::check(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bqlint: io error walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", bq_lint::render_report_json(&rep));
    } else {
        for d in &rep.diags {
            println!("{d}");
        }
        let mut per_lint: Vec<(&str, usize)> = Vec::new();
        for a in &rep.allows {
            match per_lint.iter_mut().find(|(n, _)| *n == a.lint) {
                Some((_, c)) => *c += 1,
                None => per_lint.push((a.lint, 1)),
            }
        }
        let hatches = if rep.allows.is_empty() {
            "no escape hatches in use".to_string()
        } else {
            format!(
                "{} escape hatch(es) in use ({})",
                rep.allows.len(),
                per_lint
                    .iter()
                    .map(|(n, c)| format!("{n}: {c}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        if rep.diags.is_empty() {
            println!("bqlint: clean — {} files, {hatches}", rep.files);
        } else {
            println!(
                "bqlint: {} diagnostic(s) across {} files, {hatches}",
                rep.diags.len(),
                rep.files
            );
        }
    }
    if rep.diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `graph` or `census` on the optional `[ROOT]` and print its report.
fn with_root(cmd: &str, rest: &[&str], run: impl Fn(&Path) -> std::io::Result<String>) -> ExitCode {
    let root = match rest {
        [] => PathBuf::from("."),
        [r] if !r.starts_with('-') => PathBuf::from(r),
        _ => {
            eprintln!("usage: bqlint {cmd} [ROOT]");
            return ExitCode::from(2);
        }
    };
    match run(&root) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bqlint: io error walking {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn cmd_list(json: bool) -> ExitCode {
    println!("{}", bq_lint::render_list(json));
    ExitCode::SUCCESS
}

fn cmd_explain(name: &str) -> ExitCode {
    let cat = lints::catalog();
    match cat.iter().find(|(n, _, _)| *n == name) {
        Some((n, summary, explain)) => {
            println!("{n} — {summary}\n\n{explain}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "bqlint: no lint named `{name}`; known lints: {}",
                cat.iter()
                    .map(|(n, _, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            ExitCode::from(2)
        }
    }
}
