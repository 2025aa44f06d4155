//! Fixture-driven tests for the phase-2 workspace passes: each pass
//! runs over a set of in-memory files (virtual paths place them in
//! specific crates) via `bq_lint::check_workspace`, and must produce
//! exactly the expected diagnostics — counts, lines, and messages.
//!
//! The `ws_bad_graph_{alpha,beta}.rs` pair seeds a genuine two-crate
//! deadlock cycle (alpha/alock -> beta/block -> alpha/alock through
//! call edges); the wire fixture plants an uncapped
//! `with_capacity(frame_len)`, and the reader fixture a count read off
//! the input that bypasses the reader's bounded `count(..)`.

use bq_lint::source::Report;

fn run(lint_name: &str, files: &[(&str, &str)]) -> Report {
    let lints = bq_lint::lints::workspace();
    let lint = lints
        .iter()
        .find(|l| l.name() == lint_name)
        .unwrap_or_else(|| panic!("no registered workspace lint named {lint_name}"));
    bq_lint::check_workspace(lint.as_ref(), files)
}

fn lines_of(rep: &Report) -> Vec<(String, u32)> {
    rep.diags.iter().map(|d| (d.file.clone(), d.line)).collect()
}

// ------------------------------------------------------------ lock-graph

#[test]
fn lock_graph_finds_planted_cross_crate_cycle() {
    let rep = run(
        "lock-graph",
        &[
            (
                "crates/alpha/src/lib.rs",
                include_str!("fixtures/ws_bad_graph_alpha.rs"),
            ),
            (
                "crates/beta/src/lib.rs",
                include_str!("fixtures/ws_bad_graph_beta.rs"),
            ),
        ],
    );
    assert_eq!(rep.diags.len(), 1, "{:#?}", rep.diags);
    let d = &rep.diags[0];
    assert_eq!((d.file.as_str(), d.line), ("crates/alpha/src/lib.rs", 11));
    assert!(d.message.contains("potential deadlock cycle"), "{d}");
    assert!(d.message.contains("alpha/alock -> beta/block"), "{d}");
    assert!(d.message.contains("beta/block -> alpha/alock"), "{d}");
}

#[test]
fn lock_graph_flags_undeclared_orders_nestings_and_call_inversions() {
    let rep = run(
        "lock-graph",
        &[
            (
                "crates/gamma/src/lib.rs",
                include_str!("fixtures/ws_bad_graph_gamma.rs"),
            ),
            (
                "crates/server/src/ws.rs",
                include_str!("fixtures/ws_bad_graph_server.rs"),
            ),
            (
                "crates/repl/src/ws.rs",
                include_str!("fixtures/ws_bad_graph_repl.rs"),
            ),
        ],
    );
    assert_eq!(rep.diags.len(), 3, "{:#?}", rep.diags);
    assert_eq!(
        lines_of(&rep),
        vec![
            ("crates/gamma/src/lib.rs".to_string(), 6),
            ("crates/repl/src/ws.rs".to_string(), 12),
            ("crates/server/src/ws.rs".to_string(), 7),
        ]
    );
    let msg = |file: &str| {
        rep.diags
            .iter()
            .find(|d| d.file == file)
            .map(|d| d.message.as_str())
            .unwrap()
    };
    assert!(msg("crates/gamma/src/lib.rs").contains("declares no lock order"));
    assert!(msg("crates/repl/src/ws.rs").contains("inverts crate `repl`'s declared order"));
    assert!(msg("crates/server/src/ws.rs").contains("undeclared nesting"));
}

#[test]
fn lock_graph_accepts_ordered_call_edges_and_ignores_non_self_receivers() {
    let rep = run(
        "lock-graph",
        &[(
            "crates/repl/src/ws.rs",
            include_str!("fixtures/ws_ok_graph_repl.rs"),
        )],
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
}

// ------------------------------------------- blocking-while-locked

#[test]
fn blocking_flags_fsync_sleep_recv_join_and_condvar_waits_under_guard() {
    let rep = run(
        "blocking-while-locked",
        &[(
            "crates/storage/src/ws.rs",
            include_str!("fixtures/ws_bad_blocking.rs"),
        )],
    );
    assert_eq!(rep.diags.len(), 6, "{:#?}", rep.diags);
    assert_eq!(
        rep.diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![9, 10, 16, 23, 29, 37]
    );
    for (d, (kind, guard)) in rep.diags.iter().zip([
        ("fsync", "`inner`"),
        ("sleep", "`inner`"),
        ("channel wait", "`inner`"),
        ("thread join", "`inner`"),
        ("condvar wait", "`db`"),
        ("condvar wait", "`db`"),
    ]) {
        assert!(d.message.starts_with(kind), "{d} should start with {kind}");
        assert!(d.message.contains(guard), "{d} should name the guard");
    }
    // The wait releases the `queue` guard it is handed; only the engine
    // guard held across it is the finding.
    assert!(
        !rep.diags[5].message.contains("`queue`"),
        "{}",
        rep.diags[5]
    );
}

#[test]
fn blocking_accepts_narrowed_guards_hatches_and_test_code() {
    let rep = run(
        "blocking-while-locked",
        &[(
            "crates/storage/src/ws.rs",
            include_str!("fixtures/ws_ok_blocking.rs"),
        )],
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
    assert_eq!(rep.allows.len(), 1, "the group-commit hold is an allow");
    assert_eq!(rep.allows[0].lint, "blocking-while-locked");
    assert!(rep.allows[0].reason.contains("group commit"));
}

// ------------------------------------------------- wire-conformance

#[test]
fn wire_conformance_flags_codec_drift_and_uncapped_lengths() {
    let rep = run(
        "wire-conformance",
        &[(
            "crates/demo/src/wire.rs",
            include_str!("fixtures/ws_bad_wire.rs"),
        )],
    );
    assert_eq!(rep.diags.len(), 4, "{:#?}", rep.diags);
    assert_eq!(
        rep.diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![6, 8, 8, 29]
    );
    assert!(
        rep.diags[0].message.contains("constructed 2 times"),
        "{}",
        rep.diags[0]
    );
    assert!(
        rep.diags[1]
            .message
            .contains("never constructed in a `decode`"),
        "{}",
        rep.diags[1]
    );
    assert!(
        rep.diags[2]
            .message
            .contains("never handled in an `encode`"),
        "{}",
        rep.diags[2]
    );
    assert!(
        rep.diags[3]
            .message
            .contains("wire-derived length `frame_len`"),
        "{}",
        rep.diags[3]
    );
}

#[test]
fn wire_conformance_accepts_total_codecs_and_capped_lengths() {
    let rep = run(
        "wire-conformance",
        &[(
            "crates/demo/src/wire.rs",
            include_str!("fixtures/ws_ok_wire.rs"),
        )],
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
}

#[test]
fn wire_conformance_only_looks_at_wire_files() {
    // The same drifted codec in a file that is neither a wire codec nor
    // a `ByteReader` decoder is out of scope.
    let rep = run(
        "wire-conformance",
        &[(
            "crates/demo/src/codec.rs",
            include_str!("fixtures/ws_bad_wire.rs"),
        )],
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
}

#[test]
fn wire_conformance_flags_uncapped_counts_in_reader_decoders() {
    let rep = run(
        "wire-conformance",
        &[(
            "crates/demo/src/snapshot.rs",
            include_str!("fixtures/ws_bad_reader.rs"),
        )],
    );
    assert_eq!(rep.diags.len(), 2, "{:#?}", rep.diags);
    assert_eq!(
        rep.diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![8, 18]
    );
    assert!(rep.diags[0].message.contains("`r`"), "{}", rep.diags[0]);
    assert!(rep.diags[1].message.contains("`n`"), "{}", rep.diags[1]);
    assert!(
        rep.diags[1].message.contains("bounded `count(..)`"),
        "{}",
        rep.diags[1]
    );
}

#[test]
fn wire_conformance_accepts_bounded_counts_in_reader_decoders() {
    let rep = run(
        "wire-conformance",
        &[(
            "crates/demo/src/snapshot.rs",
            include_str!("fixtures/ws_ok_reader.rs"),
        )],
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
}

// --------------------------------------------------- site-registry

fn site_files() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "crates/faults/src/lib.rs",
            include_str!("fixtures/ws_bad_sites_faults.rs"),
        ),
        (
            "crates/demo/src/lib.rs",
            include_str!("fixtures/ws_bad_sites_app.rs"),
        ),
        (
            "crates/governor/src/lib.rs",
            include_str!("fixtures/ws_bad_sites_obs.rs"),
        ),
        ("tests/ws.rs", include_str!("fixtures/ws_bad_sites_test.rs")),
    ]
}

#[test]
fn site_registry_flags_rogue_stale_and_conflicting_sites() {
    let rep = run("site-registry", &site_files());
    assert_eq!(rep.diags.len(), 5, "{:#?}", rep.diags);
    assert_eq!(
        lines_of(&rep),
        vec![
            ("crates/demo/src/lib.rs".to_string(), 6),
            ("crates/demo/src/lib.rs".to_string(), 6),
            ("crates/faults/src/lib.rs".to_string(), 6),
            ("crates/governor/src/lib.rs".to_string(), 6),
            ("crates/governor/src/lib.rs".to_string(), 7),
        ]
    );
    assert!(rep.diags[0].message.contains("not exercised by any test"));
    assert!(rep.diags[1].message.contains("not in the faults CATALOG"));
    assert!(rep.diags[2].message.contains("names no failpoint site"));
    assert!(rep.diags[3].message.contains("one name, one kind"));
    assert!(rep.diags[4].message.contains("help text"));
}

#[test]
fn site_registry_accepts_catalogued_tested_and_consistent_sites() {
    let rep = run(
        "site-registry",
        &[
            (
                "crates/faults/src/lib.rs",
                include_str!("fixtures/ws_ok_sites_faults.rs"),
            ),
            (
                "crates/demo/src/lib.rs",
                include_str!("fixtures/ws_ok_sites_app.rs"),
            ),
            ("tests/ws.rs", include_str!("fixtures/ws_ok_sites_test.rs")),
        ],
    );
    assert_eq!(rep.diags.len(), 0, "{:#?}", rep.diags);
}
