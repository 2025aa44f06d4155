//! Bottom-up evaluation: naive and semi-naive fixpoints.
//!
//! Both evaluators are stratified: strata are computed first, then each
//! stratum is saturated in order, so negated atoms always consult completed
//! lower strata. [`EvalStats`] records the counters experiment **E8**
//! reports (iterations, rule firings, facts derived) — the numbers that
//! made semi-naive evaluation the default in every deductive prototype.

use crate::ast::{Atom, DlTerm, Literal, Program, Rule};
use crate::facts::FactStore;
use crate::graph::stratify;
use crate::safety::check_program;
use crate::Result;
use bq_governor::{Charger, QueryContext};
use bq_relational::value::Value;
use std::collections::HashMap;

/// Counters describing an evaluation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint iterations across all strata.
    pub iterations: usize,
    /// Rule bodies successfully matched (one per derived head tuple,
    /// including rederivations).
    pub rule_firings: usize,
    /// Facts newly added to the store.
    pub facts_derived: usize,
}

type Env = HashMap<String, Value>;

/// Try to extend `env` in place so `atom` matches `tuple`; newly bound
/// variable names are pushed onto `trail` so the caller can unwind.
/// On mismatch the partial bindings are unwound here and `false` returned.
fn unify_in_place(atom: &Atom, tuple: &[Value], env: &mut Env, trail: &mut Vec<String>) -> bool {
    if atom.args.len() != tuple.len() {
        return false;
    }
    let mark = trail.len();
    for (t, v) in atom.args.iter().zip(tuple.iter()) {
        let ok = match t {
            DlTerm::Const(c) => c == v,
            DlTerm::Var(name) => match env.get(name) {
                Some(bound) => bound == v,
                None => {
                    env.insert(name.clone(), v.clone());
                    trail.push(name.clone());
                    true
                }
            },
        };
        if !ok {
            unwind(env, trail, mark);
            return false;
        }
    }
    true
}

fn unwind(env: &mut Env, trail: &mut Vec<String>, mark: usize) {
    for name in trail.drain(mark..) {
        env.remove(&name);
    }
}

/// One-shot matching used by [`query`].
fn matches(atom: &Atom, tuple: &[Value]) -> bool {
    let mut env = Env::new();
    let mut trail = Vec::new();
    unify_in_place(atom, tuple, &mut env, &mut trail)
}

fn resolve(term: &DlTerm, env: &Env) -> Option<Value> {
    match term {
        DlTerm::Const(c) => Some(c.clone()),
        DlTerm::Var(v) => env.get(v).cloned(),
    }
}

/// Ground an atom under a (complete) environment.
fn ground(atom: &Atom, env: &Env) -> Option<Vec<Value>> {
    atom.args.iter().map(|t| resolve(t, env)).collect()
}

/// Rule firings between two governance checks inside a round: a round of
/// one rule can emit a number of heads polynomial in the store, so the
/// per-round check alone does not bound the work.
const CHECK_EVERY: usize = 1024;

/// Count one rule firing, checking `ctx` every [`CHECK_EVERY`] of them.
fn fired(stats: &mut EvalStats, ctx: &QueryContext) -> Result<()> {
    stats.rule_firings += 1;
    if stats.rule_firings.is_multiple_of(CHECK_EVERY) {
        ctx.check()?;
    }
    Ok(())
}

/// Evaluate one rule against `store`, optionally forcing body position
/// `delta_pos` to match `delta` instead (semi-naive). Calls `emit` for
/// every derived head tuple; its first error stops the firing.
fn fire_rule(
    rule: &Rule,
    store: &FactStore,
    delta: Option<(&FactStore, usize)>,
    emit: &mut impl FnMut(Vec<Value>) -> Result<()>,
) -> Result<()> {
    fn rec(
        rule: &Rule,
        store: &FactStore,
        delta: Option<(&FactStore, usize)>,
        idx: usize,
        env: &mut Env,
        trail: &mut Vec<String>,
        emit: &mut impl FnMut(Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        if idx == rule.body.len() {
            if let Some(head) = ground(&rule.head, env) {
                emit(head)?;
            }
            return Ok(());
        }
        match &rule.body[idx] {
            Literal::Pos(atom) => {
                let source = match delta {
                    Some((d, pos)) if pos == idx => d,
                    _ => store,
                };
                for tuple in source.tuples(&atom.pred) {
                    let mark = trail.len();
                    if unify_in_place(atom, tuple, env, trail) {
                        rec(rule, store, delta, idx + 1, env, trail, emit)?;
                        unwind(env, trail, mark);
                    }
                }
                Ok(())
            }
            Literal::Neg(atom) => {
                // Safety guarantees the atom is ground here.
                match ground(atom, env) {
                    Some(tuple) if !store.contains(&atom.pred, &tuple) => {
                        rec(rule, store, delta, idx + 1, env, trail, emit)
                    }
                    _ => Ok(()),
                }
            }
            Literal::Cmp { l, op, r } => match (resolve(l, env), resolve(r, env)) {
                (Some(lv), Some(rv)) if op.apply(&lv, &rv) => {
                    rec(rule, store, delta, idx + 1, env, trail, emit)
                }
                _ => Ok(()),
            },
        }
    }
    let mut env = Env::new();
    let mut trail = Vec::new();
    rec(rule, store, delta, 0, &mut env, &mut trail, emit)
}

/// Estimated bytes of one stored fact, for budget charging: the row's
/// `Vec` header plus each value (see `Value::approx_bytes`).
fn fact_bytes(tuple: &[Value]) -> u64 {
    std::mem::size_of::<Vec<Value>>() as u64 + tuple.iter().map(Value::approx_bytes).sum::<u64>()
}

/// Load the program's inline facts into a copy of the EDB, charging the
/// copy against the context's memory budget.
fn seed_store(program: &Program, edb: &FactStore, ctx: &QueryContext) -> Result<FactStore> {
    let mut charger = Charger::new(ctx);
    if charger.is_enabled() {
        for pred in edb.preds() {
            for tuple in edb.tuples(pred) {
                charger.charge(fact_bytes(tuple))?;
            }
        }
    }
    let mut store = edb.clone();
    for fact in program.facts() {
        let tuple: Vec<Value> = fact
            .head
            .args
            .iter()
            .map(|t| match t {
                DlTerm::Const(c) => c.clone(),
                // lint: allow(panic) check_program rejects non-ground facts first
                DlTerm::Var(_) => unreachable!("facts are ground"),
            })
            .collect();
        if charger.is_enabled() {
            charger.charge(fact_bytes(&tuple))?;
        }
        store.insert(&fact.head.pred, tuple);
    }
    charger.flush()?;
    Ok(store)
}

/// The naive evaluator: every iteration re-fires every rule of the stratum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl Naive {
    /// Run to fixpoint. Returns the saturated store and statistics.
    pub fn run(program: &Program, edb: &FactStore) -> Result<(FactStore, EvalStats)> {
        Naive::run_with_ctx(program, edb, &QueryContext::unlimited())
    }

    /// Run to fixpoint under a governor context: validation (safety,
    /// stratification) happens before any fact-store work, every
    /// iteration re-checks the deadline/cancel/iteration-cap state, and
    /// fact-store growth is charged against the memory budget.
    pub fn run_with_ctx(
        program: &Program,
        edb: &FactStore,
        ctx: &QueryContext,
    ) -> Result<(FactStore, EvalStats)> {
        check_program(program)?;
        let strata = stratify(program)?;
        let mut store = seed_store(program, edb, ctx)?;
        let mut stats = EvalStats::default();

        for stratum in &strata {
            loop {
                stats.iterations += 1;
                ctx.check_iteration(stats.iterations as u64)?;
                let mut new_facts: Vec<(String, Vec<Value>)> = Vec::new();
                for rule in program.proper_rules() {
                    if !stratum.contains(&rule.head.pred) {
                        continue;
                    }
                    fire_rule(rule, &store, None, &mut |head| {
                        fired(&mut stats, ctx)?;
                        new_facts.push((rule.head.pred.clone(), head));
                        Ok(())
                    })?;
                }
                let mut charger = Charger::new(ctx);
                let mut added = 0;
                for (pred, tuple) in new_facts {
                    // Charge only facts that actually enter the store:
                    // naive evaluation rederives everything every round.
                    let bytes = if charger.is_enabled() {
                        fact_bytes(&tuple)
                    } else {
                        0
                    };
                    if store.insert(&pred, tuple) {
                        added += 1;
                        charger.charge(bytes)?;
                    }
                }
                charger.flush()?;
                stats.facts_derived += added;
                if added == 0 {
                    break;
                }
            }
        }
        record_eval_stats(&stats);
        Ok((store, stats))
    }
}

/// The semi-naive evaluator: recursive rules only join against the facts
/// new in the previous iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiNaive;

impl SemiNaive {
    /// Run to fixpoint. Returns the saturated store and statistics.
    pub fn run(program: &Program, edb: &FactStore) -> Result<(FactStore, EvalStats)> {
        SemiNaive::run_with_ctx(program, edb, &QueryContext::unlimited())
    }

    /// Run to fixpoint under a governor context: validation (safety,
    /// stratification) happens before any fact-store work, every delta
    /// round re-checks the deadline/cancel/iteration-cap state, and the
    /// growing fact store is charged against the memory budget.
    pub fn run_with_ctx(
        program: &Program,
        edb: &FactStore,
        ctx: &QueryContext,
    ) -> Result<(FactStore, EvalStats)> {
        check_program(program)?;
        let strata = stratify(program)?;
        let mut store = seed_store(program, edb, ctx)?;
        let mut stats = EvalStats::default();

        for (stratum_no, stratum) in strata.iter().enumerate() {
            let _span = bq_obs::span!("datalog.stratum", stratum = stratum_no);
            // Initial round: fire stratum rules once against everything.
            stats.iterations += 1;
            ctx.check_iteration(stats.iterations as u64)?;
            let mut delta = FactStore::new();
            let mut charger = Charger::new(ctx);
            for rule in program.proper_rules() {
                if !stratum.contains(&rule.head.pred) {
                    continue;
                }
                fire_rule(rule, &store, None, &mut |head| {
                    fired(&mut stats, ctx)?;
                    if !store.contains(&rule.head.pred, &head) {
                        enter_delta(&mut delta, &rule.head.pred, head, &mut charger)?;
                    }
                    Ok(())
                })?;
            }
            charger.flush()?;
            stats.facts_derived += store.merge(&delta);

            // Delta rounds: recursive rules only, one body occurrence of a
            // stratum predicate bound to the delta.
            while delta.total() > 0 {
                stats.iterations += 1;
                ctx.check_iteration(stats.iterations as u64)?;
                bq_obs::histogram!(
                    "bq_datalog_delta_size",
                    "facts in each semi-naive delta round",
                    bq_obs::SIZE_BUCKETS
                )
                .observe(delta.total() as u64);
                let mut next_delta = FactStore::new();
                let mut charger = Charger::new(ctx);
                for rule in program.proper_rules() {
                    if !stratum.contains(&rule.head.pred) {
                        continue;
                    }
                    for (idx, lit) in rule.body.iter().enumerate() {
                        let Literal::Pos(atom) = lit else { continue };
                        if !stratum.contains(&atom.pred) {
                            continue; // not recursive through this atom
                        }
                        fire_rule(rule, &store, Some((&delta, idx)), &mut |head| {
                            fired(&mut stats, ctx)?;
                            if !store.contains(&rule.head.pred, &head) {
                                enter_delta(&mut next_delta, &rule.head.pred, head, &mut charger)?;
                            }
                            Ok(())
                        })?;
                    }
                }
                charger.flush()?;
                stats.facts_derived += store.merge(&next_delta);
                delta = next_delta;
            }
        }
        record_eval_stats(&stats);
        Ok((store, stats))
    }
}

/// Add a derived fact to a delta round, charging it against the budget
/// when it is new there.
fn enter_delta(
    delta: &mut FactStore,
    pred: &str,
    head: Vec<Value>,
    charger: &mut Charger<'_>,
) -> Result<()> {
    let bytes = if charger.is_enabled() {
        fact_bytes(&head)
    } else {
        0
    };
    if delta.insert(pred, head) {
        charger.charge(bytes)?;
    }
    Ok(())
}

/// Mirror an evaluation's [`EvalStats`] into the global registry.
fn record_eval_stats(stats: &EvalStats) {
    bq_obs::counter!("bq_datalog_iterations_total", "datalog fixpoint iterations")
        .add(stats.iterations as u64);
    bq_obs::counter!(
        "bq_datalog_rule_firings_total",
        "datalog rule bodies matched"
    )
    .add(stats.rule_firings as u64);
    bq_obs::counter!(
        "bq_datalog_facts_derived_total",
        "datalog facts newly derived"
    )
    .add(stats.facts_derived as u64);
}

/// Answer a query atom against a saturated store: all matching tuples.
pub fn query(store: &FactStore, atom: &Atom) -> Vec<Vec<Value>> {
    store
        .tuples(&atom.pred)
        .filter(|t| matches(atom, t))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_atom, parse_program};

    fn chain_edb(n: i64) -> FactStore {
        let mut edb = FactStore::new();
        for i in 0..n {
            edb.insert("parent", vec![Value::Int(i), Value::Int(i + 1)]);
        }
        edb
    }

    const TC: &str = "ancestor(X, Y) :- parent(X, Y).\n\
                      ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).";

    #[test]
    fn naive_computes_transitive_closure() {
        let p = parse_program(TC).unwrap();
        let (store, stats) = Naive::run(&p, &chain_edb(10)).unwrap();
        // Chain of 11 nodes: 10+9+…+1 = 55 ancestor facts.
        assert_eq!(store.count("ancestor"), 55);
        assert!(stats.iterations > 1);
    }

    #[test]
    fn seminaive_agrees_with_naive() {
        let p = parse_program(TC).unwrap();
        let edb = chain_edb(15);
        let (s1, st1) = Naive::run(&p, &edb).unwrap();
        let (s2, st2) = SemiNaive::run(&p, &edb).unwrap();
        assert_eq!(s1, s2);
        assert!(
            st2.rule_firings < st1.rule_firings,
            "semi-naive fires fewer rules: {} vs {}",
            st2.rule_firings,
            st1.rule_firings
        );
    }

    #[test]
    fn query_filters_by_constants() {
        let p = parse_program(TC).unwrap();
        let (store, _) = SemiNaive::run(&p, &chain_edb(5)).unwrap();
        let q = parse_atom("ancestor(0, X)").unwrap();
        assert_eq!(query(&store, &q).len(), 5);
        let q2 = parse_atom("ancestor(0, 3)").unwrap();
        assert_eq!(query(&store, &q2).len(), 1);
        let q3 = parse_atom("ancestor(3, 0)").unwrap();
        assert!(query(&store, &q3).is_empty());
    }

    #[test]
    fn inline_facts_are_loaded() {
        let p = parse_program(
            "parent(a, b).\nparent(b, c).\n\
             ancestor(X, Y) :- parent(X, Y).\n\
             ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
        )
        .unwrap();
        let (store, _) = SemiNaive::run(&p, &FactStore::new()).unwrap();
        assert_eq!(store.count("ancestor"), 3);
        assert!(store.contains("ancestor", &[Value::str("a"), Value::str("c")]));
    }

    #[test]
    fn stratified_negation_evaluates() {
        let p = parse_program(
            "node(a). node(b). node(c).\n\
             edge(a, b).\n\
             reach(X, Y) :- edge(X, Y).\n\
             reach(X, Z) :- reach(X, Y), edge(Y, Z).\n\
             unreach(X, Y) :- node(X), node(Y), !reach(X, Y).",
        )
        .unwrap();
        let (store, _) = SemiNaive::run(&p, &FactStore::new()).unwrap();
        // 9 pairs, 1 reachable -> 8 unreachable.
        assert_eq!(store.count("unreach"), 8);
        assert!(!store.contains("unreach", &[Value::str("a"), Value::str("b")]));
    }

    #[test]
    fn comparisons_restrict_derivation() {
        let p = parse_program(
            "age(ann, 30). age(bob, 20).\n\
             senior(X) :- age(X, A), A >= 25.",
        )
        .unwrap();
        let (store, _) = SemiNaive::run(&p, &FactStore::new()).unwrap();
        assert_eq!(store.count("senior"), 1);
        assert!(store.contains("senior", &[Value::str("ann")]));
    }

    #[test]
    fn same_generation_program() {
        // The canonical non-linear recursive example.
        let p = parse_program(
            "sg(X, Y) :- flat(X, Y).\n\
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
        )
        .unwrap();
        let mut edb = FactStore::new();
        // A small tree: 1,2 are children of 0; flat(0,0).
        edb.insert("up", vec![Value::Int(1), Value::Int(0)]);
        edb.insert("up", vec![Value::Int(2), Value::Int(0)]);
        edb.insert("down", vec![Value::Int(0), Value::Int(1)]);
        edb.insert("down", vec![Value::Int(0), Value::Int(2)]);
        edb.insert("flat", vec![Value::Int(0), Value::Int(0)]);
        let (n, _) = Naive::run(&p, &edb).unwrap();
        let (s, _) = SemiNaive::run(&p, &edb).unwrap();
        assert_eq!(n, s);
        // sg(1,1), sg(1,2), sg(2,1), sg(2,2), sg(0,0).
        assert_eq!(s.count("sg"), 5);
    }

    #[test]
    fn unsafe_program_rejected() {
        let p = parse_program("p(X, Y) :- q(X).").unwrap();
        assert!(Naive::run(&p, &FactStore::new()).is_err());
        assert!(SemiNaive::run(&p, &FactStore::new()).is_err());
    }

    #[test]
    fn empty_edb_yields_empty_idb() {
        let p = parse_program(TC).unwrap();
        let (store, stats) = SemiNaive::run(&p, &FactStore::new()).unwrap();
        assert_eq!(store.count("ancestor"), 0);
        assert_eq!(stats.facts_derived, 0);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let p = parse_program(TC).unwrap();
        let mut edb = FactStore::new();
        for i in 0..5i64 {
            edb.insert("parent", vec![Value::Int(i), Value::Int((i + 1) % 5)]);
        }
        let (store, _) = SemiNaive::run(&p, &edb).unwrap();
        assert_eq!(store.count("ancestor"), 25, "complete closure on a 5-cycle");
    }
}
