//! Turning outcomes into output: the `name value unit samples` lines, the
//! one-line JSON object the driver reads, the result file, and `agree`,
//! which holds two result files against the benchmark's own bounds.

use crate::harness::Outcome;
use crate::json::Json;
use crate::spec::{self, Better, MetricSpec, END_TO_END, PER_LAYER};
use std::process::Command;

/// The metric set a run must emit: every end-to-end metric with tracing
/// off, every per-layer metric with it on.
pub fn metric_set(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `(spec, value, samples)` for every metric of the run's set. A per-layer
/// metric the workload does not exercise reads 0; an end-to-end metric
/// must have been measured.
fn rows(outcome: &Outcome, trace: bool) -> Vec<(&'static MetricSpec, f64, u64)> {
    metric_set(trace)
        .iter()
        .map(|m| match outcome.metrics.get(m.name) {
            Some((value, samples)) => (m, value, samples),
            None if trace => (m, 0.0, 0),
            None => panic!("end-to-end metric `{}` was not measured", m.name),
        })
        .collect()
}

/// Human-readable block: one `name value unit samples` line per metric.
pub fn lines(workload: &str, outcome: &Outcome, trace: bool) -> String {
    use std::fmt::Write as _;
    let t = &outcome.tally;
    let mut out = format!(
        "# {workload}: attempted {} failed {} noisy {} wall {:.2} s\n",
        t.attempted, t.failed, outcome.noisy, outcome.wall_s
    );
    for note in &t.notes {
        let _ = writeln!(out, "# failure: {note}");
    }
    let rows = rows(outcome, trace);
    for (m, value, samples) in rows.iter().filter(|(_, _, samples)| *samples > 0) {
        let _ = writeln!(
            out,
            "{:<34} {:>16.4} {:<8} {}",
            m.name, value, m.unit, samples
        );
    }
    let idle = rows.iter().filter(|(_, _, samples)| *samples == 0).count();
    if idle > 0 {
        let _ = writeln!(
            out,
            "# {idle} metrics this workload does not exercise read 0"
        );
    }
    out
}

/// The object the driver reads off the last line of standard output.
pub fn contract_line(outcome: &Outcome, trace: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.tally.failed == 0)),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        (
            "metrics",
            Json::obj(rows(outcome, trace).into_iter().map(|(m, value, _)| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One workload's entry in the result file.
pub fn workload_entry(name: &str, outcome: &Outcome, trace: bool) -> Json {
    let t = &outcome.tally;
    Json::obj([
        ("name", Json::str(name)),
        ("correct", Json::Bool(t.failed == 0)),
        ("noisy", Json::Bool(outcome.noisy)),
        ("attempted", Json::Num(t.attempted as f64)),
        ("failed", Json::Num(t.failed as f64)),
        (
            "failed_ops_share",
            Json::Num(t.failed as f64 / t.attempted.max(1) as f64),
        ),
        ("wall_s", Json::Num(outcome.wall_s)),
        (
            "metrics",
            Json::obj(rows(outcome, trace).into_iter().map(|(m, value, samples)| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::str(m.unit)),
                        ("samples", Json::Num(samples as f64)),
                    ]),
                )
            })),
        ),
    ])
}

/// The result file: where and how the run was taken, then its workloads.
pub fn result_file(
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    parallelism: usize,
    pinned_cpu: Option<usize>,
    workloads: Vec<Json>,
) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("smoke", Json::Bool(smoke)),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "nproc",
            command_line("nproc", &[])
                .parse::<f64>()
                .map_or(Json::Num(parallelism as f64), Json::Num),
        ),
        ("available_parallelism", Json::Num(parallelism as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
        ),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn metric_value(workload: &Json, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare two result files of the same code: neither side's end-to-end
/// metric may be worse than the other's by more than the metric's bound,
/// every workload must be correct on both sides, and the counts marked
/// exact must be identical on the fixed-count workloads. Returns the
/// violations, empty when the files agree.
pub fn agree(a: &Json, b: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    let find = |doc: &'_ Json, name: &str| {
        doc.get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };
    let mut compared = 0;
    for w in spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (find(a, w.name), find(b, w.name)) else {
            continue;
        };
        compared += 1;
        for (side, doc) in [("first", &wa), ("second", &wb)] {
            if doc.get("correct").and_then(Json::as_bool) != Some(true) {
                violations.push(format!("{}: {side} file is not correct", w.name));
            }
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(va), Some(vb)) = (metric_value(&wa, m.name), metric_value(&wb, m.name))
            else {
                continue;
            };
            if let Some(bound) = m.bound {
                let worst = worsening(m, va, vb).max(worsening(m, vb, va));
                if worst > bound {
                    violations.push(format!(
                        "{}: {} differs by {:.1}% (bound {:.0}%): {va} vs {vb}",
                        w.name,
                        m.name,
                        worst * 100.0,
                        bound * 100.0
                    ));
                }
            }
            // mixed-rw runs for a fixed time, so its counts vary.
            if m.exact && w.name != "mixed-rw" && va != vb {
                violations.push(format!(
                    "{}: {} is marked exact but reads {va} vs {vb}",
                    w.name, m.name
                ));
            }
        }
    }
    if compared == 0 {
        violations.push("the two files share no workload".to_string());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(throughput: f64, ratio: f64, correct: bool) -> Json {
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("point-read")),
                ("correct", Json::Bool(correct)),
                (
                    "metrics",
                    Json::obj([
                        (
                            "throughput_ops_s",
                            Json::obj([("value", Json::Num(throughput))]),
                        ),
                        (
                            "stored_bytes_per_user_byte",
                            Json::obj([("value", Json::Num(ratio))]),
                        ),
                    ]),
                ),
            ])]),
        )])
    }

    #[test]
    fn agree_applies_bounds_in_both_directions_and_exactness() {
        assert!(agree(&file(1000.0, 3.5, true), &file(1050.0, 3.5, true)).is_empty());
        assert_eq!(
            agree(&file(1000.0, 3.5, true), &file(750.0, 3.5, true)).len(),
            1
        );
        assert_eq!(
            agree(&file(750.0, 3.5, true), &file(1000.0, 3.5, true)).len(),
            1
        );
        let inexact = agree(&file(1000.0, 3.5, true), &file(1000.0, 3.5001, true));
        assert!(inexact[0].contains("marked exact"), "{inexact:?}");
        assert!(!agree(&file(1000.0, 3.5, true), &file(1000.0, 3.5, false)).is_empty());
        assert!(!agree(
            &Json::obj([("workloads", Json::Arr(vec![]))]),
            &file(1.0, 1.0, true)
        )
        .is_empty());
    }
}
