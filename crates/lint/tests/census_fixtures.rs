//! Fixture tests for `bqlint census`: the census of a small virtual
//! workspace (a library crate, a product binary, an example and the
//! benchmark) must match, byte for byte, the expected report.

fn census() -> String {
    bq_lint::census_files(&[
        (
            "crates/demo/src/lib.rs",
            include_str!("fixtures/census_lib.rs"),
        ),
        ("src/bin/bqd.rs", include_str!("fixtures/census_bin.rs")),
        (
            "examples/tour.rs",
            include_str!("fixtures/census_example.rs"),
        ),
        (
            "benchspine/src/main.rs",
            "fn main() {\n    demo::bench_only();\n}\n",
        ),
    ])
}

/// `planted` is reported test-only; `orphan` and `never_called` are
/// unreached, though the binary binds locals of those names. Not reported: `flush_all` (a method call on a non-`self`
/// receiver), `encode` (only passed as a value), `fmt` and `drop` (never
/// named at all), `shown_text` (reached through `fmt`), `example_only`
/// and `bench_only` (reached from an example and the benchmark only).
const EXPECTED: &str = "\
crate        live  test-only  unreached
bqsh            8          0          0
demo           17          3          4
examples        4          0          0
total          29          3          4

test-only pub fns (1):
  crates/demo/src/lib.rs:44 planted

unreached pub fns (1):
  crates/demo/src/lib.rs:48 orphan
";

#[test]
fn census_reports_test_only_and_unreached_fns_and_nothing_live() {
    assert_eq!(census(), EXPECTED);
}

#[test]
fn census_is_deterministic() {
    assert_eq!(census(), census());
    // The tree itself: parsed in parallel, rendered the same every run.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let first = bq_lint::census(&root).unwrap();
    assert!(first.starts_with("crate "), "{first}");
    assert_eq!(first, bq_lint::census(&root).unwrap());
}
