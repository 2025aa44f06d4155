//! `bench`: the one command of the measurement spine.
//!
//! ```text
//! bench run [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH]
//! bench list [--json]
//! bench agree A.json B.json
//! ```
//!
//! `run` prints every metric as `name value unit samples`, then one JSON
//! object per workload (the last line of output is the last workload's),
//! and exits nonzero if any operation failed or any oracle disagreed.

use bq_spine::harness::{Params, Scale};
use bq_spine::json::Json;
use bq_spine::{pin, report, spec, workloads};
use std::process::ExitCode;

const USAGE: &str = "usage:
  bench run [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH]
  bench list [--json]
  bench agree A.json B.json";

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload `{name}` (see `bench list`)"));
                }
                parsed.workloads.push(name);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    }
    Ok(parsed)
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full(args.seconds)
    };
    let params = Params {
        seed: args.seed,
        scale: if args.trace { scale.traced() } else { scale },
        trace: args.trace,
    };
    // Read before pinning: afterwards it says 1.
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = pin::pin_to_one_cpu();
    pin::keep_freed_memory();
    println!(
        "# bq-spine seed {} seconds {} trace {} smoke {} pinned to cpu {:?} of {parallelism}",
        args.seed, args.seconds, args.trace, args.smoke, pinned
    );
    let mut entries = Vec::new();
    let mut all_correct = true;
    for name in &args.workloads {
        let outcome = workloads::run(name, &params);
        all_correct &= outcome.tally.failed == 0;
        print!("{}", report::lines(name, &outcome, args.trace));
        if let Some(rec) = &outcome.trace {
            let path = format!("{}/results/trace-{name}.json", env!("CARGO_MANIFEST_DIR"));
            // The trace dump is a by-product; a read-only tree must not
            // fail the run.
            if let Err(e) = std::fs::write(&path, rec.to_json(name).render()) {
                println!("# could not write {path}: {e}");
            }
        }
        entries.push(report::workload_entry(name, &outcome, args.trace));
        println!("{}", report::contract_line(&outcome, args.trace).render());
    }
    if let Some(path) = &args.out {
        let doc = report::result_file(
            args.seed,
            args.seconds,
            args.trace,
            args.smoke,
            parallelism,
            pinned,
            entries,
        );
        std::fs::write(path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(all_correct)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        Some("list") if args.get(1).is_some_and(|a| a == "--json") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some("list") => {
            print!("{}", spec::listing());
            Ok(true)
        }
        Some("agree") if args.len() == 3 => load(&args[1]).and_then(|a| {
            let violations = report::agree(&a, &load(&args[2])?);
            for v in &violations {
                println!("{v}");
            }
            if violations.is_empty() {
                println!("the two result files agree within the benchmark's bounds");
            }
            Ok(violations.is_empty())
        }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
