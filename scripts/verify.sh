#!/usr/bin/env sh
# Tier-1 verification, fully offline: build, test, format, lint.
# Usage: scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q -p bq-obs (observability smoke)"
cargo test -q -p bq-obs

echo "==> crash-recovery torture (pinned seed)"
BQ_TORTURE_SEED=20260805 cargo test -q --test crash_torture

echo "==> executor differential: plans vs the recursive oracle (pinned seed)"
BQ_EXEC_SEED=20260810 cargo test -q --test exec_equivalence

echo "==> governor admission stress (pinned seed)"
BQ_GOV_SEED=20260806 cargo test -q --test governor_integration

echo "==> server integration: wire protocol, KILL, shedding, drain (pinned seed)"
BQ_SERVER_SEED=20260808 cargo test -q --test server_integration

echo "==> replication torture: WAL shipping chaos, failover, promotion (pinned seed)"
BQ_REPL_SEED=20260807 cargo test -q --test repl_torture

echo "==> backup torture: PITR oracle, crash atomicity, chain healing, ENOSPC (pinned seed)"
BQ_BACKUP_SEED=20260809 cargo test -q --test backup_torture

# bq-spine is its own workspace (BENCHMARK.json builds and runs it from
# source), so `cargo test` above never compiles it: an engine API change
# that breaks its build or its smoke oracles must fail here, not in the
# benchmark pipeline.
echo "==> bq-spine: benchmark builds against this engine, smoke oracles agree"
cargo test -q --manifest-path benchspine/Cargo.toml

echo "==> reproduction: one question in SQL-ish, algebra, calculus and Datalog (quickstart)"
cargo run -q --release --example quickstart

echo "==> server smoke (ephemeral port, remote driver roundtrip, clean shutdown)"
cargo run -q --release --example serve

echo "==> introspection smoke (bq.metrics over the wire, EXPLAIN ANALYZE, slow-log join)"
cargo run -q --release --example introspect

echo "==> failover smoke (replica bootstrap, primary kill, promotion, dedup)"
cargo run -q --release --example failover

echo "==> backup smoke (full + incremental chain, PITR, restore-latest, scrub)"
BQ_BACKUP_SEED=20260809 cargo run -q --release --example backup

# Workspace invariants: timing discipline, cancellation discipline,
# failpoint hygiene, panic discipline, lock ordering, and the
# atomic-ordering audit — all enforced at the token level by bq-lint
# (crates/lint), which replaced the old grep/awk gates that could not
# see strings, comments, or #[cfg(test)] scope. Phase 2 adds the
# cross-file passes: the inferred lock graph (SCC deadlock detection +
# declared-order conformance), blocking-while-locked, wire codec
# conformance, and the failpoint/metric site registry. `bqlint list`
# shows the passes; `bqlint --explain <lint>` shows each invariant's
# rationale. A `// lint: allow(...)` hatch without a reason is itself
# a diagnostic, so this gate also fails on reason-less escape hatches.
echo "==> bqlint check (per-file + workspace invariants)"
cargo run -q -p bq-lint --release -- check

# The four workspace passes must stay registered — a registry
# regression would silently turn the gate above back into a per-file
# scanner.
echo "==> bqlint workspace passes registered"
LINT_LIST="$(cargo run -q -p bq-lint --release -- list)"
for pass in lock-graph blocking-while-locked wire-conformance site-registry; do
    echo "$LINT_LIST" | grep -q "^$pass " || {
        echo "verify: workspace pass '$pass' missing from bqlint list" >&2
        exit 1
    }
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: OK"
