//! Pins the benchmark's contract: `BENCHMARK.json` says what the catalogue
//! says, a run emits exactly the metrics it names and nothing else, and
//! the result file carries what a later reader needs to trust it.
//! Runs the real binary at `--smoke` sizes.

use bq_spine::json::Json;
use bq_spine::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue_and_the_contract() {
    let doc = benchmark_json();
    assert_eq!(
        doc,
        spec::benchmark_json(),
        "regenerate with `bench list --json`"
    );
    let keys: Vec<&str> = doc.members().into_keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!(names(doc.get("workloads").unwrap()).len() <= 8);
    assert!(names(doc.get("end_to_end").unwrap()).len() <= 16);
    assert!(names(doc.get("per_layer").unwrap()).len() <= 128);
    for name in ["workloads", "end_to_end", "per_layer"] {
        for n in names(doc.get(name).unwrap()) {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name `{n}`"
            );
        }
    }
    let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    // The command names no file of the repository outside `paths`.
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_arr()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    for arg in doc
        .get("command")
        .unwrap()
        .as_arr()
        .iter()
        .filter_map(Json::as_str)
    {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        if arg.contains('/') {
            assert!(
                paths.iter().any(|p| arg.starts_with(p)),
                "`{arg}` is outside paths"
            );
        }
    }
    let setup = doc
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

/// Run `bench run --smoke --trace <trace> --out <file>` over all
/// workloads; return the contract objects it printed and the result file.
fn smoke(trace: &str) -> (Vec<Json>, Json) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{trace}.json"));
    let run = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["run", "--smoke", "--seed", "42", "--trace", trace, "--out"])
        .arg(&out)
        .output()
        .expect("run the bench binary");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "smoke run failed:\n{stdout}");
    let objects = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("contract line parses"))
        .collect();
    let file = Json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("parses");
    (objects, file)
}

#[test]
fn a_run_emits_exactly_the_named_metrics() {
    for (trace, set) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let (objects, file) = smoke(trace);
        assert_eq!(objects.len(), WORKLOADS.len());
        let expected: BTreeSet<&str> = set.iter().map(|m| m.name).collect();
        for (object, workload) in objects.iter().zip(WORKLOADS) {
            let keys: Vec<&str> = object.members().into_keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(object.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(object.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(object.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = object.get("metrics").unwrap().members();
            let emitted: BTreeSet<&str> = metrics.keys().copied().collect();
            assert_eq!(emitted, expected, "{} --trace {trace}", workload.name);
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    spec::metric(name).map(|s| s.unit)
                );
                if trace == "0" {
                    assert!(value > 0.0, "{}: {name} must never be 0", workload.name);
                }
            }
        }

        for key in [
            "seed",
            "commit",
            "nproc",
            "available_parallelism",
            "rustc",
            "seconds",
        ] {
            assert!(file.get(key).is_some(), "result file lacks `{key}`");
        }
        assert_eq!(file.get("seed").and_then(Json::as_f64), Some(42.0));
        let entries = file.get("workloads").unwrap().as_arr();
        assert_eq!(names(file.get("workloads").unwrap()).len(), WORKLOADS.len());
        for entry in entries {
            assert!(entry.get("noisy").and_then(Json::as_bool).is_some());
            assert_eq!(
                entry.get("failed_ops_share").and_then(Json::as_f64),
                Some(0.0)
            );
            for (name, m) in entry.get("metrics").unwrap().members() {
                assert!(
                    m.get("samples").and_then(Json::as_f64).is_some(),
                    "{name} lacks samples"
                );
            }
        }
    }
}

#[test]
fn list_names_every_workload_and_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("list")
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
    {
        assert!(text.contains(name), "`bench list` omits {name}");
    }
    // A bad invocation fails without printing a result.
    let bad = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["run", "--workload", "nope"])
        .output()
        .unwrap();
    assert!(!bad.status.success() && bad.stdout.is_empty());
}
