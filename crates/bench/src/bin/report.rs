//! Regenerate every experiment table/series for EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run -p bq-bench --bin report            # all experiments
//! cargo run -p bq-bench --bin report -- e9      # one experiment
//! ```

use bq_bench::{chain_edb, emp_db, star_db, star_join_plan};
use bq_datalog::interp::{query, Naive, SemiNaive};
use bq_datalog::magic::magic_rewrite;
use bq_datalog::parser::{parse_atom, parse_program};
use bq_design::attrs::AttrSet;
use bq_design::chase::chase_decomposition;
use bq_design::decompose::bcnf_decompose;
use bq_design::fd::{Fd, FdSet};
use bq_design::nf::{classify, NormalForm};
use bq_design::synthesize::synthesize_3nf;
use bq_design::Universe;
use bq_logic::dpll::solve_with_stats;
use bq_logic::eso::{check_eso, three_colorability_sentence};
use bq_logic::reductions::{color_graph_backtracking, coloring_to_sat, Graph};
use bq_logic::structure::Structure;
use bq_meta::graph::ResearchGraph;
use bq_meta::harmonic::fit_pc_model;
use bq_meta::kitcher::{equilibrium, KitcherModel};
use bq_meta::kuhn::KuhnModel;
use bq_meta::pods::{Area, PodsDataset};
use bq_meta::volterra::research_succession;
use bq_relational::algebra::eval::{eval, eval_with_stats};
use bq_relational::algebra::optimize::optimize;
use bq_relational::calculus::eval_query;
use bq_relational::codd::{calculus_to_algebra, QueryGen};
use bq_txn::occ::Optimistic;
use bq_txn::sim::{run_sim, Scheduler, SimConfig};
use bq_txn::tree::TreeLocking;
use bq_txn::tso::TimestampOrdering;
use bq_txn::twopl::TwoPhaseLocking;
use bq_txn::workload::{generate, Workload, WorkloadConfig};
use bq_txn::woundwait::WoundWait;
use std::time::Instant;

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default().to_lowercase();
    let run = |id: &str| filter.is_empty() || filter == id;
    let obs_before = bq_obs::global().snapshot();

    if run("e1") {
        e1_kuhn();
    }
    if run("e2") {
        e2_research_graph();
    }
    if run("e3") {
        e3_figure3();
    }
    if run("e4") {
        e4_harmonic();
    }
    if run("e5") {
        e5_volterra();
    }
    if run("e6") {
        e6_kitcher();
    }
    if run("e7") {
        e7_codd();
    }
    if run("e8") {
        e8_datalog();
    }
    if run("e9") {
        e9_concurrency();
    }
    if run("e10") {
        e10_normalization();
    }
    if run("e11") {
        e11_cook_fagin();
    }
    if run("e12") {
        e12_nulls();
    }
    if run("e13") {
        e13_optimizer();
    }
    if run("e14") {
        e14_exec();
    }

    // Differential accounting for the whole report run: every counter the
    // experiments above bumped, as before/after deltas from the global
    // registry. A metric that vanishes from this list means some layer's
    // instrumentation was unplugged.
    header("OBS", "Registry counter deltas across this report run");
    registry_deltas(&obs_before);
}

/// Print nonzero metric deltas since `before`, one per line.
fn registry_deltas(before: &bq_obs::Snapshot) {
    let after = bq_obs::global().snapshot();
    let deltas = before.delta(&after);
    if deltas.is_empty() {
        println!("(no metric changed)");
        return;
    }
    for (name, d) in &deltas {
        println!("{name:<44} {d:>14}");
    }
}

fn header(id: &str, title: &str) {
    println!("\n==================================================================");
    println!("{id} — {title}");
    println!("==================================================================");
}

fn e1_kuhn() {
    header(
        "E1",
        "Figure 1: Kuhn stage occupancy vs anomaly-rate acceleration",
    );
    println!(
        "{:>6} {:>10} {:>9} {:>9} {:>11} {:>9}",
        "accel", "immature", "normal", "crisis", "revolution", "shifts"
    );
    for factor in [1.0, 2.0, 4.0, 8.0] {
        let mut m = KuhnModel::accelerated(1995, factor);
        let occ = m.occupancy(50_000);
        println!(
            "{factor:>6} {:>10} {:>9} {:>9} {:>11} {:>9}",
            occ[0], occ[1], occ[2], occ[3], m.paradigm_count
        );
    }
}

fn e2_research_graph() {
    header(
        "E2",
        "Figure 2: healthy vs crisis research graphs (equal avg degree)",
    );
    println!(
        "{:>8} {:>9} {:>7} {:>8} {:>12} {:>14}",
        "config", "degree", "giant%", "diam", "t→p hops", "stranded th.%"
    );
    for n in [200usize, 600, 1200] {
        let h = ResearchGraph::healthy(n, 4.0, 1995).health();
        let c = ResearchGraph::crisis(n, 4.0, n / 20, 35, 1995).health();
        for (name, g) in [("healthy", h), ("crisis", c)] {
            println!(
                "{name:>8} {:>9.2} {:>7.0} {:>8} {:>12} {:>14.0}",
                g.avg_degree,
                g.giant_fraction * 100.0,
                g.giant_diameter,
                g.mean_theory_practice_hops
                    .map_or("∞".to_string(), |h| format!("{h:.1}")),
                g.disconnected_theory_fraction * 100.0
            );
        }
        println!("  (n = {n})");
    }
}

fn e3_figure3() {
    header(
        "E3",
        "Figure 3: PODS papers per area, two-year averages 1983-1995",
    );
    let data = PodsDataset::embedded();
    print!("{:>6}", "year");
    for a in Area::ALL {
        print!(" {:>12}", a.name().split(' ').next().expect("word"));
    }
    println!();
    let series: Vec<Vec<(u32, f64)>> = Area::ALL.iter().map(|&a| data.figure3(a)).collect();
    for i in 0..series[0].len() {
        print!("{:>6}", series[0][i].0);
        for s in &series {
            print!(" {:>12.1}", s[i].1);
        }
        println!();
    }
    println!(
        "peak years: relational {}, transactions {}, logic {}, objects {}",
        data.peak_year(Area::RelationalTheory),
        data.peak_year(Area::TransactionProcessing),
        data.peak_year(Area::LogicDatabases),
        data.peak_year(Area::ComplexObjects),
    );
}

fn e4_harmonic() {
    header(
        "E4",
        "Footnote 10: the two-year harmonic and the PC-correction model",
    );
    let raw = PodsDataset::embedded().footnote10();
    let model = fit_pc_model(&raw);
    println!("raw Logic-DB series 1986-92: {raw:?}");
    println!(
        "lag-1 autocorrelation: {:.3}   dominant period: {:.1} years",
        model.lag1_autocorr, model.dominant_period
    );
    println!(
        "fitted PC overcorrection γ = {:.3} on trend {:.2} + {:.2}·t",
        model.gamma, model.trend.0, model.trend.1
    );
    let sim = model.simulate(7, raw[0] - model.trend.0);
    println!(
        "model-simulated series:      {:?}",
        sim.iter()
            .map(|x| (x * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
}

fn e5_volterra() {
    header("E5", "§6: Volterra succession of research traditions");
    let sys = research_succession();
    let peaks = sys.first_peak_times(0.01, 4000);
    let traj = sys.integrate(0.01, 4000);
    println!(
        "{:>20} {:>12} {:>12}",
        "species", "first peak t", "peak level"
    );
    for (i, s) in sys.species.iter().enumerate() {
        println!(
            "{:>20} {:>12} {:>12.2}",
            s.name, peaks[i], traj[peaks[i]][i]
        );
    }
}

fn e6_kitcher() {
    header(
        "E6",
        "Footnote 11: Kitcher diversity under replicator dynamics",
    );
    println!(
        "{:>10} {:>10} {:>14} {:>14}",
        "promise A", "promise B", "equilibrium A", "planner opt A"
    );
    for (a, b) in [(0.5, 0.5), (0.6, 0.4), (0.8, 0.3), (0.9, 0.1)] {
        let m = KitcherModel {
            value_a: a,
            value_b: b,
        };
        println!(
            "{a:>10} {b:>10} {:>14.2} {:>14.2}",
            equilibrium(&m, 0.5),
            m.optimal_allocation()
        );
    }
}

fn e7_codd() {
    header("E7", "Codd's Theorem: calculus ≡ algebra on random queries");
    println!(
        "{:>8} {:>9} {:>10} {:>13} {:>13}",
        "db size", "queries", "agreement", "calculus ms", "algebra ms"
    );
    for size in [20i64, 60, 150] {
        let db = emp_db(size);
        let mut gen = QueryGen::new(2026);
        let n_queries = 40;
        let mut agree = 0;
        let mut t_calc = 0.0;
        let mut t_alg = 0.0;
        for _ in 0..n_queries {
            let q = gen.gen_query(&db).expect("generator");
            let t0 = Instant::now();
            let direct = eval_query(&q, &db).expect("direct eval");
            t_calc += t0.elapsed().as_secs_f64() * 1000.0;
            let expr = calculus_to_algebra(&q, &db).expect("translation");
            let opt = optimize(&expr, &db).expect("optimize");
            let t1 = Instant::now();
            let via = eval(&opt, &db).expect("algebra eval");
            t_alg += t1.elapsed().as_secs_f64() * 1000.0;
            if direct.tuples() == via.tuples() {
                agree += 1;
            }
        }
        println!(
            "{size:>8} {n_queries:>9} {:>9}% {t_calc:>13.1} {t_alg:>13.1}",
            agree * 100 / n_queries
        );
    }
}

fn e8_datalog() {
    header("E8", "Recursive queries: naive vs semi-naive vs magic sets");
    println!(
        "{:>7} {:>11} {:>9} {:>12} {:>12} {:>13} {:>12}",
        "chain n", "strategy", "iters", "firings", "facts", "time ms", "answers"
    );
    for n in [30i64, 60, 120] {
        let edb = chain_edb(n);
        let program = parse_program(
            "ancestor(X, Y) :- parent(X, Y).\n\
             ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
        )
        .expect("program");
        let q = parse_atom(&format!("ancestor({}, X)", n - 5)).expect("atom");

        let t0 = Instant::now();
        let (store_n, st_n) = Naive::run(&program, &edb).expect("naive");
        let ms_n = t0.elapsed().as_secs_f64() * 1000.0;
        let t0 = Instant::now();
        let (store_s, st_s) = SemiNaive::run(&program, &edb).expect("semi");
        let ms_s = t0.elapsed().as_secs_f64() * 1000.0;
        let (magic_prog, ans) = magic_rewrite(&program, &q).expect("magic");
        let t0 = Instant::now();
        let (store_m, st_m) = SemiNaive::run(&magic_prog, &edb).expect("magic eval");
        let ms_m = t0.elapsed().as_secs_f64() * 1000.0;

        let full_answers = query(&store_s, &q).len();
        assert_eq!(store_n, store_s);
        assert_eq!(query(&store_m, &ans).len(), full_answers);
        for (name, st, ms, answers) in [
            ("naive", st_n, ms_n, full_answers),
            ("semi-naive", st_s, ms_s, full_answers),
            ("magic+semi", st_m, ms_m, full_answers),
        ] {
            println!(
                "{n:>7} {name:>11} {:>9} {:>12} {:>12} {ms:>13.1} {answers:>12}",
                st.iterations, st.rule_firings, st.facts_derived
            );
        }
    }
}

fn e9_concurrency() {
    header(
        "E9",
        "Concurrency control: 2PL / TSO / OCC / tree locking sweep",
    );
    println!(
        "{:>6} {:>5} {:>13} {:>8} {:>8} {:>9} {:>10}",
        "write%", "hot%", "scheduler", "commits", "aborts", "ticks", "tput/1k"
    );
    for write_pct in [20u32, 50, 80] {
        for hot in [0u32, 50, 90] {
            let c = WorkloadConfig {
                n_txns: 30,
                n_items: 40,
                txn_len: 4,
                write_pct,
                hot_access_pct: hot,
                hot_item_pct: 10,
                shape: Workload::Plain,
                seed: 99,
            };
            let specs = generate(&c);
            let mut engines: Vec<Box<dyn Scheduler>> = vec![
                Box::new(TwoPhaseLocking::new()),
                Box::new(WoundWait::new()),
                Box::new(TimestampOrdering::new()),
                Box::new(Optimistic::new()),
            ];
            for e in &mut engines {
                let m = run_sim(&specs, e.as_mut(), SimConfig::default());
                println!(
                    "{write_pct:>6} {hot:>5} {:>13} {:>8} {:>8} {:>9} {:>10.2}",
                    m.scheduler,
                    m.committed,
                    m.aborts,
                    m.ticks,
                    m.throughput()
                );
            }
        }
    }
    // Tree locking on its native path workload.
    let c = WorkloadConfig {
        n_txns: 30,
        n_items: 63,
        txn_len: 4,
        write_pct: 100,
        hot_access_pct: 0,
        hot_item_pct: 10,
        shape: Workload::TreePath,
        seed: 99,
    };
    let specs = generate(&c);
    let mut tree = TreeLocking::new();
    let m = run_sim(&specs, &mut tree, SimConfig::default());
    println!(
        "{:>6} {:>5} {:>13} {:>8} {:>8} {:>9} {:>10.2}   (path workload)",
        "-",
        "-",
        m.scheduler,
        m.committed,
        m.aborts,
        m.ticks,
        m.throughput()
    );

    // Distributed commit: the canonical 2PC scenarios.
    use bq_txn::twopc::{run_2pc, Crash, Decision as PcDecision, TwoPcConfig};
    println!("\n2PC scenarios (3 participants):");
    println!(
        "{:>34} {:>10} {:>26} {:>9}",
        "scenario", "decision", "states", "messages"
    );
    let scenarios: Vec<(&str, TwoPcConfig)> = vec![
        (
            "all yes",
            TwoPcConfig {
                votes: vec![true; 3],
                crashes: vec![Crash::None; 3],
                coordinator_crashes: false,
                decision_logged: true,
            },
        ),
        (
            "one no vote",
            TwoPcConfig {
                votes: vec![true, false, true],
                crashes: vec![Crash::None; 3],
                coordinator_crashes: false,
                decision_logged: true,
            },
        ),
        (
            "participant crash before vote",
            TwoPcConfig {
                votes: vec![true; 3],
                crashes: vec![Crash::None, Crash::BeforeVote, Crash::None],
                coordinator_crashes: false,
                decision_logged: true,
            },
        ),
        (
            "coordinator crash, unlogged",
            TwoPcConfig {
                votes: vec![true; 3],
                crashes: vec![Crash::None; 3],
                coordinator_crashes: true,
                decision_logged: false,
            },
        ),
    ];
    for (name, cfg) in scenarios {
        let out = run_2pc(&cfg);
        println!(
            "{name:>34} {:>10} {:>26} {:>9}",
            match out.decision {
                PcDecision::Commit => "COMMIT",
                PcDecision::Abort => "ABORT",
                PcDecision::None => "(crashed)",
            },
            format!("{:?}", out.states),
            out.messages
        );
    }
}

fn e10_normalization() {
    header(
        "E10",
        "Normalization: random schemas through the design tool",
    );
    println!(
        "{:>6} {:>8} {:>7} {:>7} {:>7} {:>9} {:>10} {:>10}",
        "attrs", "schemas", "BCNF%", "3NF%", "2NF%", "synth sz", "bcnf sz", "lossless%"
    );
    let mut state = 2026u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for n in [4usize, 6, 8] {
        let trials = 60;
        let (mut bcnf, mut tnf, mut snf) = (0, 0, 0);
        let mut synth_sz = 0usize;
        let mut bcnf_sz = 0usize;
        let mut lossless = 0;
        for _ in 0..trials {
            let names: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut fds = FdSet::new(Universe::new(&refs));
            for _ in 0..(2 + next() % 3) {
                let lhs = AttrSet((next() % (1 << n)).max(1));
                let rhs = AttrSet((next() % (1 << n)).max(1));
                fds.push(Fd::new(lhs, rhs));
            }
            match classify(&fds) {
                NormalForm::BoyceCodd => {
                    bcnf += 1;
                    tnf += 1;
                    snf += 1;
                }
                NormalForm::Third => {
                    tnf += 1;
                    snf += 1;
                }
                NormalForm::Second => snf += 1,
                NormalForm::First => {}
            }
            let synth = synthesize_3nf(&fds);
            let bd = bcnf_decompose(&fds);
            synth_sz += synth.len();
            bcnf_sz += bd.len();
            if chase_decomposition(&synth, &fds) && chase_decomposition(&bd, &fds) {
                lossless += 1;
            }
        }
        println!(
            "{n:>6} {trials:>8} {:>7} {:>7} {:>7} {:>9.1} {:>10.1} {:>10}",
            bcnf * 100 / trials,
            tnf * 100 / trials,
            snf * 100 / trials,
            synth_sz as f64 / trials as f64,
            bcnf_sz as f64 / trials as f64,
            lossless * 100 / trials
        );
    }
}

fn e11_cook_fagin() {
    header("E11", "Cook vs Fagin vs direct: 3-colorability three ways");
    println!(
        "{:>4} {:>6} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "n", "edge%", "colorable", "SAT ms", "direct ms", "ESO ms", "decisions"
    );
    for (n, p) in [(5usize, 50u64), (8, 40), (12, 35), (16, 30)] {
        let g = Graph::random(n, p, 7);
        let cnf = coloring_to_sat(&g, 3);
        let t0 = Instant::now();
        let (sat, stats) = solve_with_stats(&cnf);
        let ms_sat = t0.elapsed().as_secs_f64() * 1000.0;
        let t0 = Instant::now();
        let direct = color_graph_backtracking(&g, 3);
        let ms_direct = t0.elapsed().as_secs_f64() * 1000.0;
        let (eso, ms_eso) = if n <= 8 {
            let s = Structure::of_graph(&g);
            let t0 = Instant::now();
            let r = check_eso(&s, &three_colorability_sentence()).is_some();
            (Some(r), t0.elapsed().as_secs_f64() * 1000.0)
        } else {
            (None, f64::NAN)
        };
        assert_eq!(sat.is_some(), direct.is_some());
        if let Some(e) = eso {
            assert_eq!(e, sat.is_some());
        }
        println!(
            "{n:>4} {p:>6} {:>10} {ms_sat:>12.2} {ms_direct:>12.3} {:>12} {:>10}",
            sat.is_some(),
            if ms_eso.is_nan() {
                "-".to_string()
            } else {
                format!("{ms_eso:.1}")
            },
            stats.decisions
        );
    }
}

fn e12_nulls() {
    header(
        "E12",
        "Incomplete information: certain answers on naive tables",
    );
    use bq_relational::algebra::expr::Expr;
    use bq_relational::nulls::{certain_answers, certain_answers_brute_force, null_labels};
    use bq_relational::{Database, Relation, Type, Value};

    println!(
        "{:>7} {:>7} {:>14} {:>14} {:>9}",
        "rows", "nulls", "naive answers", "certain", "agree"
    );
    let mut state = 7u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for rows in [4usize, 8, 12] {
        let mut db = Database::new();
        let mut r = Relation::with_schema(&[("a", Type::Str), ("b", Type::Str)]).expect("schema");
        let mut s = Relation::with_schema(&[("b", Type::Str), ("c", Type::Str)]).expect("schema");
        let mk = |x: u64| {
            if x % 7 < 4 {
                Value::str(format!("c{}", x % 4))
            } else {
                Value::Null((x % 3) as u32)
            }
        };
        for _ in 0..rows {
            r.insert(vec![mk(next()), mk(next())].into()).expect("row");
            s.insert(vec![mk(next()), mk(next())].into()).expect("row");
        }
        db.add("r", r);
        db.add("s", s);
        let q = Expr::rel("r")
            .natural_join(Expr::rel("s"))
            .project(&["a", "c"]);
        let naive = bq_relational::algebra::eval::eval(&q, &db).expect("eval");
        let certain = certain_answers(&q, &db).expect("certain");
        let domain: Vec<Value> = (0..4).map(|i| Value::str(format!("c{i}"))).collect();
        let brute = certain_answers_brute_force(&q, &db, &domain).expect("brute");
        println!(
            "{rows:>7} {:>7} {:>14} {:>14} {:>9}",
            null_labels(&db).len(),
            naive.len(),
            certain.len(),
            certain.tuples() == brute.tuples()
        );
    }
}

fn e14_exec() {
    use bq_exec::{lower, ExecMode, Executor};
    use bq_governor::QueryContext;
    header(
        "E14",
        "Morsel-driven execution: bq-exec vs the recursive oracle",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("available parallelism: {cores} (speedup > 1 needs more than one core)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>9} {:>7}",
        "rows", "oracle ms", "seq ms", "par(4) ms", "speedup", "agree"
    );
    let expr = star_join_plan();
    let time = |f: &mut dyn FnMut()| {
        f(); // warmup
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1000.0
    };
    for n in [10_000u64, 100_000] {
        let db = star_db(n);
        let seq = Executor::new(ExecMode::Sequential);
        let par = Executor::new(ExecMode::Parallel(4));
        let want = eval(&expr, &db).expect("oracle");
        let agree = seq.execute(&expr, &db).expect("seq") == want
            && par.execute(&expr, &db).expect("par") == want;
        let ms_oracle = time(&mut || {
            eval(&expr, &db).expect("oracle");
        });
        let ms_seq = time(&mut || {
            seq.execute(&expr, &db).expect("seq");
        });
        let ms_par = time(&mut || {
            par.execute(&expr, &db).expect("par");
        });
        println!(
            "{n:>8} {ms_oracle:>12.1} {ms_seq:>12.1} {ms_par:>12.1} {:>8.2}x {agree:>7}",
            ms_seq / ms_par
        );
    }
    // The EXPLAIN view: per-operator rows, batches, and wall time.
    let db = star_db(10_000);
    let ex = Executor::new(ExecMode::Parallel(4));
    let before = bq_obs::global().snapshot();
    let plan = lower(&expr, &db).expect("lower");
    let (_, stats) = ex
        .execute_plan_with_stats_ctx(&plan, &db, &QueryContext::unlimited())
        .expect("stats");
    println!("\nphysical plan at 10k rows, parallel(4):\n{stats}");
    println!("registry deltas for that single run:");
    registry_deltas(&before);
}

fn e13_optimizer() {
    header(
        "E13",
        "Query optimization: pushdown vs unoptimized intermediates",
    );
    println!(
        "{:>8} {:>16} {:>16} {:>9} {:>14}",
        "emps", "naive intermed.", "optimized", "ratio", "bq-exec rows"
    );
    use bq_exec::{lower, ExecMode, Executor};
    use bq_governor::QueryContext;
    use bq_relational::algebra::expr::{Expr, Predicate};
    for n in [100i64, 400, 1000] {
        let db = emp_db(n);
        let q = Expr::rel("emp")
            .qualify("e")
            .product(Expr::rel("dept").qualify("d"))
            .select(
                Predicate::eq_attrs("e.dept", "d.dept").and(Predicate::eq_const("d.bldg", 3i64)),
            )
            .project(&["e.name"]);
        let (r1, naive) = eval_with_stats(&q, &db).expect("naive eval");
        let opt = optimize(&q, &db).expect("optimize");
        let (r2, optimized) = eval_with_stats(&opt, &db).expect("optimized eval");
        assert_eq!(r1, r2);
        assert!(
            optimized.intermediate_tuples < naive.intermediate_tuples,
            "optimizing must cut intermediates: {} vs {}",
            optimized.intermediate_tuples,
            naive.intermediate_tuples
        );
        // The same optimized expression through the physical engine: rows
        // its operators produce below the root.
        let plan = lower(&opt, &db).expect("lower");
        let (r3, stats) = Executor::new(ExecMode::Sequential)
            .execute_plan_with_stats_ctx(&plan, &db, &QueryContext::unlimited())
            .expect("bq-exec");
        assert_eq!(r1, r3);
        println!(
            "{n:>8} {:>16} {:>16} {:>9.1} {:>14}",
            naive.intermediate_tuples,
            optimized.intermediate_tuples,
            naive.intermediate_tuples as f64 / optimized.intermediate_tuples as f64,
            stats.total_rows() - stats.rows_out_root()
        );
    }
}
