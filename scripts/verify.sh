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

echo "==> governance through every door: SQL, calculus, Datalog refused in bounded time (pinned seed)"
BQ_GOV_SEED=20260806 cargo test -q --test governance

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

# E13 asserts that the naive, the optimized and the engine's results are
# equal and that optimizing cuts the intermediate tuples.
echo "==> E13: the optimizer keeps answers and cuts intermediates"
cargo run -q --release -p bq-bench --bin report e13

echo "==> server smoke (ephemeral port, remote driver roundtrip, clean shutdown)"
cargo run -q --release --example serve

echo "==> introspection smoke (bq.metrics over the wire, EXPLAIN ANALYZE, slow-log join)"
cargo run -q --release --example introspect

echo "==> failover smoke (replica bootstrap, primary kill, promotion, dedup)"
cargo run -q --release --example failover

echo "==> backup smoke (full + incremental chain, PITR, restore-latest, scrub)"
BQ_BACKUP_SEED=20260809 cargo run -q --release --example backup

# Workspace invariants: timing discipline, cancellation discipline,
# failpoint hygiene, panic discipline, and the atomic-ordering audit —
# all enforced at the token level by bq-lint (crates/lint), which
# replaced the old grep/awk gates that could not see strings, comments,
# or #[cfg(test)] scope. Phase 2 adds the cross-file passes: the
# inferred lock graph (SCC deadlock detection + declared-order
# conformance, lock ordering included), blocking-while-locked, wire codec
# conformance, and the failpoint/metric site registry. `bqlint list`
# shows the passes; `bqlint --explain <lint>` shows each invariant's
# rationale. A `// lint: allow(...)` hatch without a reason is itself
# a diagnostic, so this gate also fails on reason-less escape hatches.
echo "==> bqlint check (per-file + workspace invariants)"
cargo run -q -p bq-lint --release -- check

# The reachability census: non-test fn lines the product runs vs those
# only tests run vs those nothing runs, per crate. A gate on the last
# column: edges resolve by name, so live code is never reported
# unreached, and a fn nothing runs (a helper orphaned by a deletion)
# fails the step until it is deleted too.
echo "==> bqlint census (per-crate totals; full list: bqlint census)"
CENSUS="$(cargo run -q -p bq-lint --release -- census)"
echo "$CENSUS" | sed -n '1,/^total /p'
UNREACHED_LINES="$(echo "$CENSUS" | awk '$1 == "total" { print $4 }')"
UNREACHED_FNS="$(echo "$CENSUS" | sed -n 's/^unreached pub fns (\([0-9]*\)):$/\1/p')"
if [ "${UNREACHED_LINES:-x}" != 0 ] || [ "${UNREACHED_FNS:-x}" != 0 ]; then
    echo "$CENSUS" | sed -n '/^unreached pub fns/,$p' >&2
    echo "verify: census reports ${UNREACHED_LINES:-?} unreached lines and ${UNREACHED_FNS:-?} unreached pub fns; want 0" >&2
    exit 1
fi

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
