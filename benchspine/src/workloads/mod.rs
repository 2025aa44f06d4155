//! The six workloads. Each module has one `run`, which sets the workload
//! up, drives it closed-loop through the public entry points a user or
//! operator calls, checks every result against an oracle, and reports
//! either the end-to-end metrics (tracing off) or the per-layer ones.

use crate::harness::{Metrics, Outcome, Pacer, Params, Tally};
use crate::layers::{counter, governor_probe, Run};
use crate::trace::Recorder;
use std::time::Instant;

mod analytic_join;
mod mixed_rw;
mod ops_recovery;
mod point_read;
mod reads;
mod repl_semisync;
mod write_heavy;
mod writes;

/// Run one workload by name.
pub fn run(name: &str, p: &Params) -> Outcome {
    let started = Instant::now();
    let shed = || counter("bq_governor_shed_total") + counter("bq_server_conns_shed_total");
    let shed_before = shed();
    let mut run = Run {
        tally: Tally::default(),
        metrics: Metrics::default(),
        rec: Recorder::new(started),
        pacer: Pacer::new(),
    };
    match name {
        "point-read" => point_read::run(p, &mut run),
        "analytic-join" => analytic_join::run(p, &mut run),
        "write-heavy" => write_heavy::run(p, &mut run),
        "mixed-rw" => mixed_rw::run(p, &mut run),
        "repl-semisync" => repl_semisync::run(p, &mut run),
        "ops-recovery" => ops_recovery::run(p, &mut run),
        other => panic!("unknown workload `{other}` (see `bench list`)"),
    }
    let Run {
        mut tally,
        mut metrics,
        rec,
        pacer,
    } = run;
    let (oracle_ms, oracle_evals, noisy) = pacer.finish();
    let shed_now = shed() - shed_before;
    if shed_now > 0 {
        tally.fail(
            shed_now as u64,
            format!("{shed_now} statements or connections were shed"),
        );
    }
    if p.trace {
        metrics.set("calib.oracle_ms", oracle_ms, oracle_evals);
        metrics.set("governor.shed_total", shed_now as f64, tally.attempted);
        governor_probe(&mut metrics);
        metrics.set(
            "failed_ops_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            tally.attempted,
        );
    }
    Outcome {
        tally,
        metrics,
        noisy,
        wall_s: started.elapsed().as_secs_f64(),
        trace: p.trace.then_some(rec),
    }
}
