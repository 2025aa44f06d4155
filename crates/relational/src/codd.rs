//! **Codd's Theorem**, constructively, in both directions.
//!
//! The paper singles this result out as "solidly positive because of its
//! double implication that the calculus is implementable and the algebra
//! expressive" (§3). Accordingly:
//!
//! * [`calculus_to_algebra`] — compiles any safe (range-coupled) calculus
//!   query to a relational-algebra expression. This is the "calculus is
//!   implementable" direction, the one the Berkeley–IBM experiment turned
//!   into System R and Ingres.
//! * [`algebra_to_calculus`] — produces, for any algebra expression, an
//!   equivalent calculus query. This is the "algebra is expressive"
//!   direction; intermediate results are named by quantified tuple
//!   variables over the active domain.
//! * [`QueryGen`] — a deterministic random generator of safe calculus
//!   queries, used by experiment **E7** to check empirically that both
//!   pipelines agree on every query and database.

use crate::algebra::expr::{Expr, Operand, Predicate};
use crate::calculus::ast::{Formula, HeadItem, Query, Range, Term};
use crate::catalog::Database;
use crate::error::RelError;
use crate::schema::Schema;
use crate::value::{CmpOp, Value};
use crate::Result;
use bq_util::{Rng, SplitMix64};
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// Calculus → algebra (the "implementable" direction)
// ---------------------------------------------------------------------------

/// Translate a safe calculus query to an equivalent algebra expression.
///
/// Supported fragment: all ranges are named relations ([`Range::Rel`]);
/// negation appears only as a conjunct (`… ∧ ¬ψ`); `∀` is rewritten to
/// `¬∃¬`. These are precisely the classical syntactic safety conditions.
pub fn calculus_to_algebra(query: &Query, db: &Database) -> Result<Expr> {
    if query.free.is_empty() {
        return Err(RelError::UnsafeQuery("query has no free variables".into()));
    }
    let mut ctx: HashMap<String, String> = HashMap::new();
    for (v, r) in &query.free {
        match r {
            Range::Rel(name) => {
                ctx.insert(v.clone(), name.clone());
            }
            Range::Domain(_) => {
                return Err(RelError::UnsafeQuery(format!(
                    "free variable `{v}` ranges over the domain"
                )))
            }
        }
    }
    let formula = simplify(query.formula.clone().eliminate_foralls());
    let required: Vec<(String, String)> = query
        .free
        .iter()
        .map(|(v, _)| (v.clone(), ctx[v].clone()))
        .collect();
    let body = translate_conjunction(formula.conjuncts(), &required, &ctx, db)?;

    // Head: project var.attr columns, then rename to output names. A column
    // requested twice is duplicated with the classical construction
    // σ[c = c'](E × ρ[c→c'](π[c](E))).
    let mut expr = body.clone();
    let mut cols: Vec<String> = Vec::with_capacity(query.head.len());
    for h in &query.head {
        let col = format!("{}.{}", h.var, h.attr);
        if cols.contains(&col) {
            let fresh = format!("{col}#{}", cols.len());
            let copy = body.clone().project(&[col.as_str()]).rename(&col, &fresh);
            expr = expr.product(copy).select(Predicate::eq_attrs(&col, &fresh));
            cols.push(fresh);
        } else {
            cols.push(col);
        }
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut expr = expr.project(&col_refs);
    // Two-phase rename so a target name colliding with a not-yet-renamed
    // column cannot conflict.
    let temps: Vec<String> = (0..cols.len()).map(|i| format!("__out{i}")).collect();
    for (col, temp) in cols.iter().zip(temps.iter()) {
        expr = expr.rename(col, temp);
    }
    for (temp, h) in temps.iter().zip(query.head.iter()) {
        expr = expr.rename(temp, &h.name);
    }
    Ok(expr)
}

/// Constant-fold `True`/`False` through the connectives.
fn simplify(f: Formula) -> Formula {
    match f {
        Formula::And(a, b) => match (simplify(*a), simplify(*b)) {
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::True, x) | (x, Formula::True) => x,
            (x, y) => Formula::And(Box::new(x), Box::new(y)),
        },
        Formula::Or(a, b) => match (simplify(*a), simplify(*b)) {
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::False, x) | (x, Formula::False) => x,
            (x, y) => Formula::Or(Box::new(x), Box::new(y)),
        },
        Formula::Not(x) => match simplify(*x) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            y => Formula::Not(Box::new(y)),
        },
        Formula::Cmp { l, op, r } => {
            // Fold constant-constant comparisons.
            if let (Term::Const(a), Term::Const(b)) = (&l, &r) {
                if op.apply(a, b) {
                    Formula::True
                } else {
                    Formula::False
                }
            } else {
                Formula::Cmp { l, op, r }
            }
        }
        Formula::Exists { var, range, body } => {
            let body = simplify(*body);
            if matches!(body, Formula::False) {
                Formula::False
            } else {
                Formula::Exists {
                    var,
                    range,
                    body: Box::new(body),
                }
            }
        }
        Formula::ForAll { var, range, body } => Formula::ForAll {
            var,
            range,
            body: Box::new(simplify(*body)),
        },
        other => other,
    }
}

/// Translate a conjunction. `required` lists ranges that must be present in
/// the output even if no positive conjunct mentions them.
fn translate_conjunction(
    conjuncts: Vec<Formula>,
    required: &[(String, String)],
    ctx: &HashMap<String, String>,
    db: &Database,
) -> Result<Expr> {
    let mut positives: Vec<Formula> = Vec::new();
    let mut negatives: Vec<Formula> = Vec::new();
    let mut const_false = false;
    for c in conjuncts {
        match c {
            Formula::Not(g) => negatives.push(*g),
            Formula::False => const_false = true,
            Formula::True => {}
            other => positives.push(other),
        }
    }

    // Vars that must be covered by the positive join.
    let mut needed: BTreeSet<String> = required.iter().map(|(v, _)| v.clone()).collect();
    for n in &negatives {
        needed.extend(n.free_vars());
    }

    let mut parts: Vec<Expr> = Vec::new();
    let mut covered: BTreeSet<String> = BTreeSet::new();
    for p in positives {
        covered.extend(p.free_vars());
        parts.push(translate_positive(p, ctx, db)?);
    }
    for v in needed {
        if !covered.contains(&v) {
            let rel = ctx
                .get(&v)
                .ok_or_else(|| RelError::UnknownVariable(v.clone()))?;
            parts.push(Expr::rel(rel.clone()).qualify(&v));
            covered.insert(v);
        }
    }
    let mut expr = parts
        .into_iter()
        .reduce(|a, b| a.natural_join(b))
        .ok_or_else(|| RelError::UnsafeQuery("empty conjunction with no ranges".into()))?;

    if const_false {
        expr = expr.select(Predicate::False);
    }

    // Apply each negation as an anti-join: E := E − (E ⋈ T(g)).
    for g in negatives {
        let neg = translate_positive(g, ctx, db)?;
        // Sanity: neg's attrs must be a subset of expr's.
        let e_attrs: BTreeSet<String> = expr
            .schema(db)?
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let n_attrs: BTreeSet<String> = neg
            .schema(db)?
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        if !n_attrs.is_subset(&e_attrs) {
            return Err(RelError::UnsafeQuery(format!(
                "negated subformula mentions unranged attributes {:?}",
                n_attrs.difference(&e_attrs).collect::<Vec<_>>()
            )));
        }
        let joined = expr.clone().natural_join(neg);
        expr = expr.difference(joined);
    }
    Ok(expr)
}

/// Translate a positive (non-negated) formula to an expression whose schema
/// is exactly the qualified attributes of its free variables.
fn translate_positive(
    formula: Formula,
    ctx: &HashMap<String, String>,
    db: &Database,
) -> Result<Expr> {
    match formula {
        Formula::True | Formula::False => Err(RelError::UnsafeQuery(
            "boolean constant cannot stand alone in this position".into(),
        )),
        Formula::Cmp { l, op, r } => {
            let mut vars: BTreeSet<String> = BTreeSet::new();
            for t in [&l, &r] {
                if let Some(v) = t.var() {
                    vars.insert(v.to_string());
                }
            }
            if vars.is_empty() {
                return Err(RelError::UnsafeQuery(
                    "constant comparison should have been folded".into(),
                ));
            }
            let mut parts: Vec<Expr> = Vec::new();
            for v in &vars {
                let rel = ctx
                    .get(v)
                    .ok_or_else(|| RelError::UnknownVariable(v.clone()))?;
                parts.push(Expr::rel(rel.clone()).qualify(v));
            }
            let base = parts
                .into_iter()
                .reduce(|a, b| a.natural_join(b))
                .ok_or_else(|| {
                    RelError::UnsafeQuery("comparison binds no ranged variables".into())
                })?;
            let to_operand = |t: Term| match t {
                Term::Attr { var, attr } => Operand::Attr(format!("{var}.{attr}")),
                Term::Const(v) => Operand::Const(v),
            };
            Ok(base.select(Predicate::Cmp {
                l: to_operand(l),
                op,
                r: to_operand(r),
            }))
        }
        Formula::Rel { var, rel } => {
            // Membership of `var` (ranging over ctx[var]) in `rel`: rename
            // rel's columns to the var's range-schema names, then qualify.
            let range_rel = ctx
                .get(&var)
                .ok_or_else(|| RelError::UnknownVariable(var.clone()))?;
            let range_schema = db.get(range_rel)?.schema().clone();
            let member_schema = db.get(&rel)?.schema().clone();
            if !range_schema.union_compatible(&member_schema) {
                return Err(RelError::SchemaMismatch(format!(
                    "{rel}({var}) with range {range_rel}"
                )));
            }
            let mut e = Expr::rel(rel);
            for (from, to) in member_schema
                .names()
                .iter()
                .zip(range_schema.names().iter())
            {
                if from != to {
                    e = e.rename(from, to);
                }
            }
            Ok(e.qualify(&var))
        }
        f @ Formula::And(_, _) => translate_conjunction(f.conjuncts(), &[], ctx, db),
        Formula::Or(a, b) => {
            let fa = simplify(*a);
            let fb = simplify(*b);
            let va = fa.free_vars();
            let vb = fb.free_vars();
            let all: BTreeSet<String> = va.union(&vb).cloned().collect();
            let pad = |f: Formula, have: &BTreeSet<String>| -> Result<Expr> {
                let mut conj = f.conjuncts();
                if conj.is_empty() {
                    conj.push(Formula::True);
                }
                // Required ranges for the union's full variable set.
                let req: Vec<(String, String)> = all
                    .iter()
                    .map(|v| {
                        ctx.get(v)
                            .map(|r| (v.clone(), r.clone()))
                            .ok_or_else(|| RelError::UnknownVariable(v.clone()))
                    })
                    .collect::<Result<_>>()?;
                let _ = have;
                translate_conjunction(conj, &req, ctx, db)
            };
            let ea = pad(fa, &va)?;
            let eb = pad(fb, &vb)?;
            // Align eb's column order with ea's before union.
            let order = ea.schema(db)?;
            let names: Vec<String> = order.names().iter().map(|s| s.to_string()).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let eb = eb.project(&name_refs);
            Ok(ea.union(eb))
        }
        Formula::Not(_) => Err(RelError::UnsafeQuery(
            "negation must appear as a conjunct (… ∧ ¬ψ)".into(),
        )),
        Formula::Exists { var, range, body } => {
            let rel = match range {
                Range::Rel(r) => r,
                Range::Domain(_) => {
                    return Err(RelError::UnsafeQuery(format!(
                        "quantifier over the domain for `{var}`"
                    )))
                }
            };
            if ctx.contains_key(&var) {
                return Err(RelError::Duplicate(format!("variable `{var}` shadowed")));
            }
            let mut ctx2 = ctx.clone();
            ctx2.insert(var.clone(), rel.clone());
            let body = simplify(body.eliminate_foralls());
            let inner = translate_conjunction(body.conjuncts(), &[(var.clone(), rel)], &ctx2, db)?;
            // Project away the quantified variable's columns.
            let schema = inner.schema(db)?;
            let prefix = format!("{var}.");
            let keep: Vec<String> = schema
                .names()
                .iter()
                .filter(|n| !n.starts_with(&prefix))
                .map(|n| n.to_string())
                .collect();
            let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
            Ok(inner.project(&keep_refs))
        }
        // lint: allow(panic) eliminate_foralls runs before translation
        Formula::ForAll { .. } => unreachable!("foralls eliminated before translation"),
    }
}

// ---------------------------------------------------------------------------
// Algebra → calculus (the "expressive" direction)
// ---------------------------------------------------------------------------

/// Translate an algebra expression to an equivalent calculus query.
///
/// The result's single free variable ranges over the active domain and is
/// restricted by the generated formula, following the textbook construction.
/// Evaluation cost is exponential in intermediate arities, so this direction
/// is exercised on small databases (as in any constructive proof).
pub fn algebra_to_calculus(expr: &Expr, db: &Database) -> Result<Query> {
    let mut gen = VarGen::default();
    let (var, schema, range, formula) = trans(expr, db, &mut gen)?;
    let head = schema
        .names()
        .iter()
        .map(|n| HeadItem {
            var: var.clone(),
            attr: n.to_string(),
            name: n.to_string(),
        })
        .collect();
    Ok(Query {
        free: vec![(var, range)],
        head,
        formula,
    })
}

#[derive(Default)]
struct VarGen(usize);

impl VarGen {
    fn fresh(&mut self) -> String {
        let v = format!("t{}", self.0);
        self.0 += 1;
        v
    }
}

/// Positional field equality `t ≈ u` between two schemas of equal arity.
fn fields_eq(t: &str, ts: &Schema, u: &str, us: &Schema) -> Formula {
    let mut f = Formula::True;
    for (a, b) in ts.names().iter().zip(us.names().iter()) {
        f = f.and(Formula::cmp(Term::attr(t, a), CmpOp::Eq, Term::attr(u, b)));
    }
    f
}

type Trans = (String, Schema, Range, Formula);

fn trans(expr: &Expr, db: &Database, gen: &mut VarGen) -> Result<Trans> {
    match expr {
        Expr::Rel(name) => {
            let v = gen.fresh();
            let schema = db.get(name)?.schema().clone();
            Ok((v, schema, Range::Rel(name.clone()), Formula::True))
        }
        Expr::Select { pred, input } => {
            let (v, schema, range, psi) = trans(input, db, gen)?;
            let extra = predicate_to_formula(pred, &v);
            Ok((v, schema, range, psi.and(extra)))
        }
        Expr::Project { cols, input } => {
            let (u, su, ru, psi_u) = trans(input, db, gen)?;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            let sp = su.project(&names)?;
            let t = gen.fresh();
            let mut link = Formula::True;
            for c in cols {
                link = link.and(Formula::cmp(
                    Term::attr(&t, c),
                    CmpOp::Eq,
                    Term::attr(&u, c),
                ));
            }
            let formula = Formula::Exists {
                var: u,
                range: ru,
                body: Box::new(psi_u.and(link)),
            };
            Ok((t, sp.clone(), Range::Domain(sp), formula))
        }
        Expr::Rename { from, to, input } => {
            let (u, su, ru, psi_u) = trans(input, db, gen)?;
            let sr = su.rename(from, to)?;
            let t = gen.fresh();
            let link = fields_eq(&t, &sr, &u, &su);
            let formula = Formula::Exists {
                var: u,
                range: ru,
                body: Box::new(psi_u.and(link)),
            };
            Ok((t, sr.clone(), Range::Domain(sr), formula))
        }
        Expr::Qualify { var, input } => {
            let (u, su, ru, psi_u) = trans(input, db, gen)?;
            let sq = su.qualify(var);
            let t = gen.fresh();
            let link = fields_eq(&t, &sq, &u, &su);
            let formula = Formula::Exists {
                var: u,
                range: ru,
                body: Box::new(psi_u.and(link)),
            };
            Ok((t, sq.clone(), Range::Domain(sq), formula))
        }
        Expr::Product(l, r) => {
            let (u, su, ru, psi_l) = trans(l, db, gen)?;
            let (v, sv, rv, psi_r) = trans(r, db, gen)?;
            let sp = su.product(&sv)?;
            let t = gen.fresh();
            let mut link = Formula::True;
            for a in su.names() {
                link = link.and(Formula::cmp(
                    Term::attr(&t, a),
                    CmpOp::Eq,
                    Term::attr(&u, a),
                ));
            }
            for b in sv.names() {
                link = link.and(Formula::cmp(
                    Term::attr(&t, b),
                    CmpOp::Eq,
                    Term::attr(&v, b),
                ));
            }
            let inner = Formula::Exists {
                var: v,
                range: rv,
                body: Box::new(psi_r.and(link)),
            };
            let formula = Formula::Exists {
                var: u,
                range: ru,
                body: Box::new(psi_l.and(inner)),
            };
            Ok((t, sp.clone(), Range::Domain(sp), formula))
        }
        Expr::NaturalJoin(l, r) => {
            let (u, su, ru, psi_l) = trans(l, db, gen)?;
            let (v, sv, rv, psi_r) = trans(r, db, gen)?;
            let mut sj = su.clone();
            for a in sv.attrs() {
                if su.index_of(&a.name).is_none() {
                    sj.push(&a.name, a.ty)?;
                }
            }
            let t = gen.fresh();
            let mut link = Formula::True;
            for a in su.names() {
                link = link.and(Formula::cmp(
                    Term::attr(&t, a),
                    CmpOp::Eq,
                    Term::attr(&u, a),
                ));
            }
            for b in sv.names() {
                link = link.and(Formula::cmp(
                    Term::attr(&t, b),
                    CmpOp::Eq,
                    Term::attr(&v, b),
                ));
            }
            let inner = Formula::Exists {
                var: v,
                range: rv,
                body: Box::new(psi_r.and(link)),
            };
            let formula = Formula::Exists {
                var: u,
                range: ru,
                body: Box::new(psi_l.and(inner)),
            };
            Ok((t, sj.clone(), Range::Domain(sj), formula))
        }
        Expr::Union(l, r) => {
            let (u, su, ru, psi_l) = trans(l, db, gen)?;
            let (v, sv, rv, psi_r) = trans(r, db, gen)?;
            let t = gen.fresh();
            let left = Formula::Exists {
                var: u.clone(),
                range: ru,
                body: Box::new(psi_l.and(fields_eq(&t, &su, &u, &su))),
            };
            let right = Formula::Exists {
                var: v.clone(),
                range: rv,
                body: Box::new(psi_r.and(fields_eq(&t, &su, &v, &sv))),
            };
            Ok((t, su.clone(), Range::Domain(su), left.or(right)))
        }
        Expr::Difference(l, r) => {
            let (u, su, ru, psi_l) = trans(l, db, gen)?;
            let (v, sv, rv, psi_r) = trans(r, db, gen)?;
            let t = gen.fresh();
            let left = Formula::Exists {
                var: u.clone(),
                range: ru,
                body: Box::new(psi_l.and(fields_eq(&t, &su, &u, &su))),
            };
            let right = Formula::Exists {
                var: v.clone(),
                range: rv,
                body: Box::new(psi_r.and(fields_eq(&t, &su, &v, &sv))),
            };
            Ok((t, su.clone(), Range::Domain(su), left.and(right.not())))
        }
        Expr::Intersection(l, r) => {
            let (u, su, ru, psi_l) = trans(l, db, gen)?;
            let (v, sv, rv, psi_r) = trans(r, db, gen)?;
            let t = gen.fresh();
            let left = Formula::Exists {
                var: u.clone(),
                range: ru,
                body: Box::new(psi_l.and(fields_eq(&t, &su, &u, &su))),
            };
            let right = Formula::Exists {
                var: v.clone(),
                range: rv,
                body: Box::new(psi_r.and(fields_eq(&t, &su, &v, &sv))),
            };
            Ok((t, su.clone(), Range::Domain(su), left.and(right)))
        }
        Expr::Division(l, r) => {
            // Desugar into the defining identity
            // L ÷ R = π_D(L) − π_D((π_D(L) × R) − π_{D∪R}(L))
            // and translate the primitive form.
            let ls = l.schema(db)?;
            let rs = r.schema(db)?;
            let d: Vec<String> = ls
                .names()
                .iter()
                .filter(|n| rs.index_of(n).is_none())
                .map(|n| n.to_string())
                .collect();
            let d_refs: Vec<&str> = d.iter().map(String::as_str).collect();
            let mut dr = d.clone();
            dr.extend(rs.names().iter().map(|n| n.to_string()));
            let dr_refs: Vec<&str> = dr.iter().map(String::as_str).collect();

            let pi_d = (**l).clone().project(&d_refs);
            let big = pi_d.clone().product((**r).clone());
            let l_reordered = (**l).clone().project(&dr_refs);
            let bad = big.difference(l_reordered).project(&d_refs);
            let desugared = pi_d.difference(bad);
            trans(&desugared, db, gen)
        }
    }
}

/// Rewrite an algebra predicate as a calculus formula over variable `var`.
fn predicate_to_formula(pred: &Predicate, var: &str) -> Formula {
    let to_term = |o: &Operand| match o {
        Operand::Attr(a) => Term::attr(var, a),
        Operand::Const(v) => Term::Const(v.clone()),
    };
    match pred {
        Predicate::True => Formula::True,
        Predicate::False => Formula::False,
        Predicate::Cmp { l, op, r } => Formula::Cmp {
            l: to_term(l),
            op: *op,
            r: to_term(r),
        },
        Predicate::And(a, b) => predicate_to_formula(a, var).and(predicate_to_formula(b, var)),
        Predicate::Or(a, b) => predicate_to_formula(a, var).or(predicate_to_formula(b, var)),
        Predicate::Not(p) => predicate_to_formula(p, var).not(),
    }
}

// ---------------------------------------------------------------------------
// Random safe-query generation (experiment E7)
// ---------------------------------------------------------------------------

/// Deterministic generator of random safe calculus queries over a database's
/// schema, used to test the Codd equivalence at scale.
#[derive(Debug)]
pub struct QueryGen {
    rng: SplitMix64,
}

impl QueryGen {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> QueryGen {
        // One discarded step keeps the streams E7 was recorded with.
        let mut rng = SplitMix64::seed_from_u64(seed);
        rng.next_u64();
        QueryGen { rng }
    }

    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.rng.next_u64() % 100 < percent
    }

    /// Generate a random safe query against `db`. Constants are drawn from
    /// the database's active domain so selections are non-trivially
    /// satisfiable.
    pub fn gen_query(&mut self, db: &Database) -> Result<Query> {
        let rels: Vec<String> = db.names().iter().map(|s| s.to_string()).collect();
        if rels.is_empty() {
            return Err(RelError::UnknownRelation("<empty database>".into()));
        }
        let consts: Vec<Value> = db.active_domain().into_iter().collect();

        let n_free = 1 + self.below(2);
        let mut free: Vec<(String, String)> = Vec::new();
        for i in 0..n_free {
            let rel = rels[self.below(rels.len())].clone();
            free.push((format!("v{i}"), rel));
        }

        // Head: 1-2 attributes drawn from the free variables.
        let mut head: Vec<(String, String, String)> = Vec::new();
        let n_head = 1 + self.below(2);
        for i in 0..n_head {
            let (var, rel) = &free[self.below(free.len())];
            let schema = db.get(rel)?.schema();
            let attr = schema.names()[self.below(schema.arity())].to_string();
            head.push((var.clone(), attr, format!("out{i}")));
        }

        // Formula: conjunction of 0-3 atoms; maybe an exists; maybe a
        // negated exists.
        let mut formula = Formula::True;
        let n_atoms = self.below(3);
        for _ in 0..n_atoms {
            formula = formula.and(self.gen_comparison(db, &free, &consts)?);
        }
        if self.chance(50) {
            let rel = rels[self.below(rels.len())].clone();
            let qvar = "q0".to_string();
            let mut scope = free.clone();
            scope.push((qvar.clone(), rel.clone()));
            let body = self.gen_comparison(db, &scope, &consts)?;
            let ex = Formula::Exists {
                var: qvar,
                range: Range::Rel(rel),
                body: Box::new(body),
            };
            formula = if self.chance(40) {
                formula.and(ex.not())
            } else {
                formula.and(ex)
            };
        }

        let free_refs: Vec<(&str, &str)> =
            free.iter().map(|(v, r)| (v.as_str(), r.as_str())).collect();
        let head_refs: Vec<(&str, &str, &str)> = head
            .iter()
            .map(|(v, a, n)| (v.as_str(), a.as_str(), n.as_str()))
            .collect();
        Ok(Query::new(&free_refs, &head_refs, formula))
    }

    /// A random comparison between attributes of in-scope variables and/or
    /// constants, type-correct by construction.
    fn gen_comparison(
        &mut self,
        db: &Database,
        scope: &[(String, String)],
        consts: &[Value],
    ) -> Result<Formula> {
        let (var, rel) = &scope[self.below(scope.len())];
        let schema = db.get(rel)?.schema();
        let attr = schema.names()[self.below(schema.arity())].to_string();
        let ty = schema.type_of(&attr)?;
        let left = Term::attr(var, &attr);
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let op = ops[self.below(ops.len())];

        // 50/50: compare to another attribute of the same type, or to a
        // constant of the same type.
        if self.chance(50) {
            for _ in 0..8 {
                let (var2, rel2) = &scope[self.below(scope.len())];
                let schema2 = db.get(rel2)?.schema();
                let attr2 = schema2.names()[self.below(schema2.arity())].to_string();
                if schema2.type_of(&attr2)? == ty {
                    return Ok(Formula::cmp(left, op, Term::attr(var2, &attr2)));
                }
            }
        }
        let typed: Vec<&Value> = consts
            .iter()
            .filter(|v| v.value_type() == Some(ty))
            .collect();
        let c = if typed.is_empty() {
            match ty {
                crate::value::Type::Int => Value::Int(0),
                crate::value::Type::Str => Value::str(""),
                crate::value::Type::Bool => Value::Bool(false),
            }
        } else {
            (*typed[self.below(typed.len())]).clone()
        };
        Ok(Formula::cmp(left, op, Term::Const(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::eval::eval;
    use crate::calculus::eval::eval_query;
    use crate::relation::Relation;
    use crate::tup;
    use crate::value::Type;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(
            "emp",
            Relation::from_rows(
                &[("name", Type::Str), ("dept", Type::Str), ("sal", Type::Int)],
                vec![
                    vec![Value::str("ann"), Value::str("cs"), Value::Int(90)],
                    vec![Value::str("bob"), Value::str("cs"), Value::Int(70)],
                    vec![Value::str("eve"), Value::str("ee"), Value::Int(80)],
                ],
            )
            .unwrap(),
        );
        db.add(
            "dept",
            Relation::from_rows(
                &[("dept", Type::Str), ("bldg", Type::Int)],
                vec![
                    vec![Value::str("cs"), Value::Int(1)],
                    vec![Value::str("ee"), Value::Int(2)],
                ],
            )
            .unwrap(),
        );
        db
    }

    /// Evaluate a calculus query both directly and via algebra translation;
    /// the outputs must agree tuple-for-tuple.
    fn assert_codd_equiv(q: &Query, db: &Database) {
        let direct = eval_query(q, db).unwrap();
        let alg = calculus_to_algebra(q, db).unwrap();
        let via_algebra = eval(&alg, db).unwrap();
        assert_eq!(
            direct.tuples(),
            via_algebra.tuples(),
            "query {q} translated to {alg}"
        );
    }

    #[test]
    fn selection_translates() {
        let q = Query::new(
            &[("e", "emp")],
            &[("e", "name", "n")],
            Formula::cmp(
                Term::attr("e", "sal"),
                CmpOp::Gt,
                Term::Const(Value::Int(75)),
            ),
        );
        assert_codd_equiv(&q, &db());
    }

    #[test]
    fn join_translates() {
        let q = Query::new(
            &[("e", "emp"), ("d", "dept")],
            &[("e", "name", "n"), ("d", "bldg", "b")],
            Formula::cmp(Term::attr("e", "dept"), CmpOp::Eq, Term::attr("d", "dept")),
        );
        assert_codd_equiv(&q, &db());
    }

    #[test]
    fn exists_translates() {
        let body = Formula::cmp(Term::attr("x", "dept"), CmpOp::Eq, Term::attr("d", "dept")).and(
            Formula::cmp(
                Term::attr("x", "sal"),
                CmpOp::Gt,
                Term::Const(Value::Int(85)),
            ),
        );
        let q = Query::new(
            &[("d", "dept")],
            &[("d", "dept", "dept")],
            Formula::exists("x", "emp", body),
        );
        assert_codd_equiv(&q, &db());
        let out = eval_query(&q, &db()).unwrap();
        assert_eq!(out.tuples(), vec![tup!["cs"]]);
    }

    #[test]
    fn negated_exists_translates() {
        // Departments with no employee above 85.
        let body = Formula::cmp(Term::attr("x", "dept"), CmpOp::Eq, Term::attr("d", "dept")).and(
            Formula::cmp(
                Term::attr("x", "sal"),
                CmpOp::Gt,
                Term::Const(Value::Int(85)),
            ),
        );
        let q = Query::new(
            &[("d", "dept")],
            &[("d", "dept", "dept")],
            Formula::exists("x", "emp", body).not(),
        );
        assert_codd_equiv(&q, &db());
        assert_eq!(eval_query(&q, &db()).unwrap().tuples(), vec![tup!["ee"]]);
    }

    #[test]
    fn forall_translates_via_elimination() {
        // Departments where every employee (of that dept) earns >= 75.
        let body = Formula::cmp(Term::attr("x", "dept"), CmpOp::Ne, Term::attr("d", "dept")).or(
            Formula::cmp(
                Term::attr("x", "sal"),
                CmpOp::Ge,
                Term::Const(Value::Int(75)),
            ),
        );
        let q = Query::new(
            &[("d", "dept")],
            &[("d", "dept", "dept")],
            Formula::forall("x", "emp", body),
        );
        assert_codd_equiv(&q, &db());
        assert_eq!(eval_query(&q, &db()).unwrap().tuples(), vec![tup!["ee"]]);
    }

    #[test]
    fn disjunction_translates() {
        let f = Formula::cmp(
            Term::attr("e", "sal"),
            CmpOp::Lt,
            Term::Const(Value::Int(75)),
        )
        .or(Formula::cmp(
            Term::attr("e", "dept"),
            CmpOp::Eq,
            Term::Const(Value::str("ee")),
        ));
        let q = Query::new(&[("e", "emp")], &[("e", "name", "n")], f);
        assert_codd_equiv(&q, &db());
        assert_eq!(eval_query(&q, &db()).unwrap().len(), 2);
    }

    #[test]
    fn true_formula_translates() {
        let q = Query::new(&[("e", "emp")], &[("e", "dept", "d")], Formula::True);
        assert_codd_equiv(&q, &db());
    }

    #[test]
    fn negation_inside_disjunction_translates() {
        // ¬(e.sal > 75) ∨ e.dept = 'ee' — the negated comparison becomes an
        // anti-join against e's own range, so even this translates.
        let f = Formula::cmp(
            Term::attr("e", "sal"),
            CmpOp::Gt,
            Term::Const(Value::Int(75)),
        )
        .not()
        .or(Formula::cmp(
            Term::attr("e", "dept"),
            CmpOp::Eq,
            Term::Const(Value::str("ee")),
        ));
        let q = Query::new(&[("e", "emp")], &[("e", "name", "n")], f);
        assert_codd_equiv(&q, &db());
    }

    #[test]
    fn domain_ranged_free_variable_rejected() {
        // A free variable over the raw domain is not range-restricted.
        let schema = Schema::new(&[("a", crate::value::Type::Int)]).unwrap();
        let q = Query {
            free: vec![("t".to_string(), Range::Domain(schema))],
            head: vec![HeadItem {
                var: "t".into(),
                attr: "a".into(),
                name: "a".into(),
            }],
            formula: Formula::True,
        };
        assert!(matches!(
            calculus_to_algebra(&q, &db()),
            Err(RelError::UnsafeQuery(_))
        ));
    }

    #[test]
    fn duplicate_head_column_is_duplicated() {
        let q = Query::new(
            &[("e", "emp")],
            &[("e", "dept", "d1"), ("e", "dept", "d2")],
            Formula::True,
        );
        assert_codd_equiv(&q, &db());
        let out = eval_query(&q, &db()).unwrap();
        assert_eq!(out.schema().names(), vec!["d1", "d2"]);
        for t in out.iter() {
            assert_eq!(t.get(0), t.get(1));
        }
    }

    #[test]
    fn random_queries_agree_both_ways() {
        let db = db();
        let mut gen = QueryGen::new(42);
        let mut translated = 0;
        for _ in 0..60 {
            let q = gen.gen_query(&db).unwrap();
            let direct = eval_query(&q, &db).unwrap();
            match calculus_to_algebra(&q, &db) {
                Ok(alg) => {
                    translated += 1;
                    let via = eval(&alg, &db).unwrap();
                    assert_eq!(direct.tuples(), via.tuples(), "query {q}");
                }
                Err(e) => panic!("generator must emit translatable queries: {e} for {q}"),
            }
        }
        assert_eq!(translated, 60);
    }

    // --- algebra → calculus ---

    fn tiny_db() -> Database {
        let mut db = Database::new();
        db.add(
            "r",
            Relation::from_rows(
                &[("a", Type::Int), ("b", Type::Int)],
                vec![
                    vec![Value::Int(1), Value::Int(2)],
                    vec![Value::Int(2), Value::Int(3)],
                ],
            )
            .unwrap(),
        );
        db.add(
            "s",
            Relation::from_rows(
                &[("b", Type::Int), ("c", Type::Int)],
                vec![
                    vec![Value::Int(2), Value::Int(9)],
                    vec![Value::Int(4), Value::Int(9)],
                ],
            )
            .unwrap(),
        );
        db
    }

    fn assert_reverse_equiv(e: &Expr, db: &Database) {
        let via_algebra = eval(e, db).unwrap();
        let q = algebra_to_calculus(e, db).unwrap();
        let via_calculus = eval_query(&q, db).unwrap();
        assert_eq!(
            via_algebra.tuples(),
            via_calculus.tuples(),
            "algebra {e} vs calculus {q}"
        );
    }

    #[test]
    fn reverse_base_relation() {
        assert_reverse_equiv(&Expr::rel("r"), &tiny_db());
    }

    #[test]
    fn reverse_selection() {
        let e = Expr::rel("r").select(Predicate::eq_const("a", 1i64));
        assert_reverse_equiv(&e, &tiny_db());
    }

    #[test]
    fn reverse_projection() {
        let e = Expr::rel("r").project(&["b"]);
        assert_reverse_equiv(&e, &tiny_db());
    }

    #[test]
    fn reverse_natural_join() {
        let e = Expr::rel("r").natural_join(Expr::rel("s"));
        assert_reverse_equiv(&e, &tiny_db());
    }

    #[test]
    fn reverse_union_and_difference() {
        let e = Expr::rel("r")
            .project(&["b"])
            .union(Expr::rel("s").project(&["b"]));
        assert_reverse_equiv(&e, &tiny_db());
        let d = Expr::rel("r")
            .project(&["b"])
            .difference(Expr::rel("s").project(&["b"]));
        assert_reverse_equiv(&d, &tiny_db());
    }

    #[test]
    fn reverse_rename() {
        let e = Expr::rel("r").rename("a", "x");
        assert_reverse_equiv(&e, &tiny_db());
    }

    #[test]
    fn reverse_division() {
        // Division desugars to the primitive operators before translation.
        let mut db = Database::new();
        db.add(
            "t",
            Relation::from_rows(
                &[("s", Type::Int), ("c", Type::Int)],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(1), Value::Int(11)],
                    vec![Value::Int(2), Value::Int(10)],
                ],
            )
            .unwrap(),
        );
        db.add(
            "req",
            Relation::from_rows(
                &[("c", Type::Int)],
                vec![vec![Value::Int(10)], vec![Value::Int(11)]],
            )
            .unwrap(),
        );
        let e = Expr::rel("t").division(Expr::rel("req"));
        let direct = eval(&e, &db).unwrap();
        assert_eq!(direct.tuples(), vec![crate::tup![1i64]]);
        assert_reverse_equiv(&e, &db);
    }

    #[test]
    fn reverse_composed_query() {
        let e = Expr::rel("r")
            .natural_join(Expr::rel("s"))
            .select(Predicate::eq_const("c", 9i64))
            .project(&["a", "c"]);
        assert_reverse_equiv(&e, &tiny_db());
    }
}
