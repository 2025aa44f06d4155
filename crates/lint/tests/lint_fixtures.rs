//! Fixture-driven lint tests: each lint runs over paired `bad_*.rs` /
//! `ok_*.rs` snippets under `tests/fixtures/` (excluded from `bqlint
//! check` itself) and must produce exactly the expected diagnostics.
//! The `bad_*` fixtures seed deliberate violations — including the
//! cases the old grep/awk gates got wrong (strings, comments, code
//! after a `#[cfg(test)]` module, raw strings).

use bq_lint::source::Report;

fn run(lint_name: &str, virtual_path: &str, src: &str) -> Report {
    let lints = bq_lint::lints::all();
    let lint = lints
        .iter()
        .find(|l| l.name() == lint_name)
        .unwrap_or_else(|| panic!("no registered lint named {lint_name}"));
    bq_lint::check_source(lint.as_ref(), virtual_path, src)
}

fn diag_lines(rep: &Report) -> Vec<u32> {
    rep.diags.iter().map(|d| d.line).collect()
}

// ---------------------------------------------------------------- timing

#[test]
fn timing_flags_real_uses() {
    let rep = run(
        "timing",
        "crates/txn/src/bad_timing.rs",
        include_str!("fixtures/bad_timing.rs"),
    );
    assert_eq!(rep.diags.len(), 2, "{:#?}", rep.diags);
    assert!(rep.diags.iter().all(|d| d.lint == "timing"));
    assert_eq!(diag_lines(&rep), vec![6, 11]);
}

#[test]
fn timing_ignores_strings_comments_tests_and_honours_hatch() {
    let rep = run(
        "timing",
        "crates/txn/src/ok_timing.rs",
        include_str!("fixtures/ok_timing.rs"),
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
    assert_eq!(
        rep.allows.len(),
        1,
        "the hatched use is counted as an allow"
    );
    assert_eq!(rep.allows[0].lint, "timing");
}

#[test]
fn timing_allowlist_exempts_clock_owning_crates() {
    let src = include_str!("fixtures/bad_timing.rs");
    for path in [
        "crates/obs/src/bad_timing.rs",
        "crates/exec/src/bad_timing.rs",
        "crates/bench/src/bad_timing.rs",
        "crates/governor/src/bad_timing.rs",
        "tests/bad_timing.rs",
    ] {
        let rep = run("timing", path, src);
        assert_eq!(rep.diags.len(), 0, "{path} should be allowlisted");
    }
}

// ---------------------------------------------------------- cancellation

#[test]
fn cancellation_flags_ungoverned_loops_even_with_ctx_in_comments() {
    let rep = run(
        "cancellation",
        "crates/exec/src/engine.rs",
        include_str!("fixtures/bad_cancellation.rs"),
    );
    assert_eq!(rep.diags.len(), 3, "{:#?}", rep.diags);
    // Line 17's loop mentions ctx only in a comment; the old awk gate
    // accepted it, the token-level pass must not.
    assert_eq!(diag_lines(&rep), vec![7, 13, 17]);
}

#[test]
fn cancellation_accepts_governed_bounded_and_test_loops() {
    let rep = run(
        "cancellation",
        "crates/exec/src/engine.rs",
        include_str!("fixtures/ok_cancellation.rs"),
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
    assert_eq!(rep.allows.len(), 1, "the bounded probe is hatched");
}

#[test]
fn cancellation_only_applies_to_hot_files() {
    let rep = run(
        "cancellation",
        "crates/exec/src/other.rs",
        include_str!("fixtures/bad_cancellation.rs"),
    );
    assert_eq!(rep.diags.len(), 0, "non-hot files are out of scope");
}

// ------------------------------------------------------------ failpoints

#[test]
fn failpoints_flags_release_arming_including_after_test_module() {
    let rep = run(
        "failpoints",
        "crates/storage/src/bad_failpoints.rs",
        include_str!("fixtures/bad_failpoints.rs"),
    );
    assert_eq!(rep.diags.len(), 3, "{:#?}", rep.diags);
    // Line 23 sits after the #[cfg(test)] module closed; the old
    // line-oriented gate treated it as test code.
    assert_eq!(diag_lines(&rep), vec![7, 11, 23]);
}

#[test]
fn failpoints_ignores_comments_strings_and_nested_test_modules() {
    let rep = run(
        "failpoints",
        "crates/storage/src/ok_failpoints.rs",
        include_str!("fixtures/ok_failpoints.rs"),
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
}

#[test]
fn failpoints_allows_faults_crate_and_bqsh() {
    let src = include_str!("fixtures/bad_failpoints.rs");
    for path in ["crates/faults/src/policy.rs", "src/bin/bqsh.rs"] {
        let rep = run("failpoints", path, src);
        assert_eq!(rep.diags.len(), 0, "{path} may arm failpoints");
    }
}

// ----------------------------------------------------------------- panic

#[test]
fn panic_flags_all_forms_and_reasonless_hatches() {
    let rep = run(
        "panic",
        "crates/storage/src/bad_panic.rs",
        include_str!("fixtures/bad_panic.rs"),
    );
    assert_eq!(rep.diags.len(), 5, "{:#?}", rep.diags);
    assert!(
        rep.diags
            .iter()
            .any(|d| d.message.contains("needs a reason")),
        "a reason-less hatch is itself a diagnostic"
    );
}

#[test]
fn panic_spares_idioms_and_counts_reasoned_hatches() {
    let rep = run(
        "panic",
        "crates/storage/src/ok_panic.rs",
        include_str!("fixtures/ok_panic.rs"),
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
    assert_eq!(rep.allows.len(), 1);
    assert!(rep.allows[0].reason.contains("by construction"));
}

#[test]
fn panic_scope_is_engine_crates_outside_integration_tests() {
    let src = include_str!("fixtures/bad_panic.rs");
    let rep = run("panic", "crates/obs/src/bad_panic.rs", src);
    assert_eq!(rep.diags.len(), 0, "obs is not a hot-path crate");
    let rep = run("panic", "crates/storage/tests/torture.rs", src);
    assert_eq!(rep.diags.len(), 0, "crate integration tests are test code");
}

// ------------------------------------------------------------ lock-order
//
// The per-file `lock-order` pass is gone; its fixtures now run under the
// workspace `lock-graph` pass, which makes every finding it made and
// some it could not.

fn lock_graph(virtual_path: &str, src: &str) -> Report {
    let lint = bq_lint::lints::lock_graph::LockGraph;
    bq_lint::check_workspace(&lint, &[(virtual_path, src)])
}

#[test]
fn lock_order_flags_inversions_and_reentry() {
    let rep = lock_graph(
        "crates/governor/src/bad_lock_order.rs",
        include_str!("fixtures/bad_lock_order.rs"),
    );
    // The inversion on line 7; on line 13 the re-entry is both a
    // self-edge cycle and an inversion of `inner` against itself.
    assert_eq!(diag_lines(&rep), vec![7, 13, 13], "{:#?}", rep.diags);
    assert!(rep.diags[0]
        .message
        .contains("acquiring `state` (rank 0) nested under `inner`"));
    assert!(rep.diags[0]
        .message
        .contains("inverts crate `governor`'s declared order"));
    assert!(rep
        .diags
        .iter()
        .any(|d| d.line == 13 && d.message.contains("potential deadlock cycle")));
}

#[test]
fn lock_order_accepts_declared_order_and_scoped_drops() {
    let rep = lock_graph(
        "crates/governor/src/ok_lock_order.rs",
        include_str!("fixtures/ok_lock_order.rs"),
    );
    // Stricter than `lock-order`: `cache`, taken under `inner` on line
    // 25, is in no declared order, so the nesting is undeclared.
    assert_eq!(diag_lines(&rep), vec![25], "{:#?}", rep.diags);
    assert!(rep.diags[0].message.contains("undeclared nesting"));
}

#[test]
fn lock_order_fixture_in_a_crate_without_a_declared_order() {
    let rep = lock_graph(
        "crates/bench/src/bad_lock_order.rs",
        include_str!("fixtures/bad_lock_order.rs"),
    );
    // Stricter than `lock-order`, which ignored order-less crates: two
    // guards and no order is a finding, and the re-entry still a cycle.
    assert_eq!(diag_lines(&rep), vec![6, 13], "{:#?}", rep.diags);
    assert!(rep.diags[0].message.contains("declares no lock order"));
    assert!(rep.diags[1].message.contains("potential deadlock cycle"));
}

// ---------------------------------------------------------- atomic-order

#[test]
fn atomics_flags_unjustified_and_out_of_range_uses() {
    let rep = run(
        "atomic-order",
        "crates/txn/src/bad_atomics.rs",
        include_str!("fixtures/bad_atomics.rs"),
    );
    assert_eq!(rep.diags.len(), 2, "{:#?}", rep.diags);
}

#[test]
fn atomics_accepts_adjacent_comments_hatches_and_tests() {
    let rep = run(
        "atomic-order",
        "crates/txn/src/ok_atomics.rs",
        include_str!("fixtures/ok_atomics.rs"),
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
    assert_eq!(rep.allows.len(), 1);
}

#[test]
fn atomics_exempts_obs() {
    let rep = run(
        "atomic-order",
        "crates/obs/src/bad_atomics.rs",
        include_str!("fixtures/bad_atomics.rs"),
    );
    assert_eq!(rep.diags.len(), 0, "obs owns the relaxed-counter substrate");
}

// ------------------------------------------------------- operator_stats

#[test]
fn operator_stats_flags_silent_executor_arms() {
    let rep = run(
        "operator-stats",
        "crates/exec/src/engine.rs",
        include_str!("fixtures/bad_operator_stats.rs"),
    );
    assert_eq!(rep.diags.len(), 2, "{:#?}", rep.diags);
    assert!(rep.diags.iter().all(|d| d.lint == "operator-stats"));
    // The braced arm that builds no stats and the bare expression arm;
    // the stats_for-carrying arm between them stays clean.
    assert_eq!(diag_lines(&rep), vec![8, 12]);
    assert!(rep.diags[0].message.contains("PhysPlan::SeqScan"));
    assert!(rep.diags[1].message.contains("PhysPlan::Filter"));
}

#[test]
fn operator_stats_exempts_constructors_tests_and_hatches() {
    let rep = run(
        "operator-stats",
        "crates/exec/src/engine.rs",
        include_str!("fixtures/ok_operator_stats.rs"),
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
    assert_eq!(rep.allows.len(), 1, "the hatched delegation is an allow");
    assert_eq!(rep.allows[0].lint, "operator-stats");
}

#[test]
fn operator_stats_scopes_to_the_executor_dispatch() {
    let src = include_str!("fixtures/bad_operator_stats.rs");
    for path in [
        "crates/exec/src/plan.rs",
        "crates/exec/src/stats.rs",
        "crates/core/src/db.rs",
    ] {
        let rep = run("operator-stats", path, src);
        assert_eq!(rep.diags.len(), 0, "{path} is not the dispatch file");
    }
}

// --------------------------------------------- seeded end-to-end failure

/// `bqlint check` must exit nonzero on a seeded violation: build a
/// throwaway tree with `Instant::now()` in crates/txn and check that
/// the full scan (the same call `main` maps to the exit code) reports
/// it — and goes quiet once the seed is removed.
#[test]
fn seeded_violation_fails_full_check() {
    let root = std::env::temp_dir().join(format!("bqlint-seed-{}", std::process::id()));
    let src_dir = root.join("crates/txn/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn t() { let _ = std::time::Instant::now(); }\n",
    )
    .unwrap();

    let rep = bq_lint::check(&root).unwrap();
    assert_eq!(rep.files, 1);
    assert_eq!(rep.diags.len(), 1, "{:#?}", rep.diags);
    assert_eq!(rep.diags[0].lint, "timing");
    assert_eq!(rep.diags[0].file, "crates/txn/src/lib.rs");

    std::fs::write(src_dir.join("lib.rs"), "pub fn t() {}\n").unwrap();
    let rep = bq_lint::check(&root).unwrap();
    assert_eq!(rep.diags.len(), 0, "clean tree, clean report");

    std::fs::remove_dir_all(&root).unwrap();
}
