//! **Codd's Theorem**, constructively, in both directions.
//!
//! The paper singles this result out as "solidly positive because of its
//! double implication that the calculus is implementable and the algebra
//! expressive" (§3). Accordingly:
//!
//! * [`calculus_to_algebra`] — compiles a calculus query to a
//!   relational-algebra expression, total under active-domain semantics: a
//!   variable ranging over the domain ranges over an algebra `adom`
//!   relation built from the catalog's columns. This is the "calculus is
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
use crate::value::{CmpOp, Type, Value};
use crate::Result;
use bq_util::{Rng, SplitMix64};
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// Calculus → algebra (the "implementable" direction)
// ---------------------------------------------------------------------------

/// The ranges of the variables in scope.
type Scope = HashMap<String, Range>;

/// Translate a calculus query to an equivalent algebra expression, total
/// under the active-domain semantics of
/// [`eval_query`](crate::calculus::eval::eval_query): a [`Range::Domain`]
/// variable ranges over × `adom(type)` ([`range_expr`]), `∀` becomes `¬∃¬`,
/// `¬ψ` an anti-join, and a closed query a projection onto no columns.
/// [`RelError::UnsafeQuery`] is left for what the algebra has no leaf for:
/// a domain attribute of a type no column has, and a formula no range
/// witnesses (a closed constant or bare negation, a domain of arity 0).
pub fn calculus_to_algebra(query: &Query, db: &Database) -> Result<Expr> {
    let scope: Scope = query.free.iter().cloned().collect();
    let formula = simplify(query.formula.clone().eliminate_foralls());
    let required: Vec<String> = query.free.iter().map(|(v, _)| v.clone()).collect();
    let body = translate_conjunction(formula.conjuncts(), &required, &scope, db)?;

    // Head: project var.attr columns, then rename them to the output
    // names, all at once. A column requested twice is duplicated with the
    // classical construction σ[c = c'](E × ρ[c→c'](π[c](E))), every copy
    // an input of one join.
    let mut inputs = vec![body];
    let mut links = Predicate::True;
    let mut cols: Vec<String> = Vec::with_capacity(query.head.len());
    for h in &query.head {
        let col = format!("{}.{}", h.var, h.attr);
        if cols.contains(&col) {
            let fresh = format!("{col}#{}", cols.len());
            let copy = inputs[0].clone().project(&[col.as_str()]);
            inputs.push(copy.rename(&col, &fresh));
            links = links.and(Predicate::eq_attrs(&col, &fresh));
            cols.push(fresh);
        } else {
            cols.push(col);
        }
    }
    let expr = match inputs.len() {
        1 => inputs.remove(0),
        _ => Expr::Join {
            inputs,
            pred: links,
        },
    };
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let projected = expr.project(&col_refs);
    let pairs = cols.iter().zip(&query.head);
    Ok(projected.renames(
        pairs
            .map(|(col, h)| (col.clone(), h.name.clone()))
            .collect(),
    ))
}

/// Constant-fold `True`/`False` through the connectives and drop double
/// negations.
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
            Formula::Not(y) => *y,
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

/// `adom(ty)` in one column `name`: ⋃ ρ[c→name](π[c](σ[c < ⊥0](R))) over
/// every column `c` of type `ty` in the catalog — the values of that type
/// the interpreter quantifies over. Under [`Value::total_cmp`] every typed
/// value sorts below every labelled null, so `c < ⊥0` drops the nulls.
fn adom(ty: Type, name: &str, db: &Database) -> Result<Expr> {
    let mut columns: Vec<Expr> = Vec::new();
    for rel in db.names() {
        for a in db.get(rel)?.schema().attrs().iter().filter(|a| a.ty == ty) {
            let null = Operand::Const(Value::Null(0));
            let col = Expr::rel(rel)
                .select(Predicate::cmp(Operand::attr(&a.name), CmpOp::Lt, null))
                .project(&[a.name.as_str()]);
            columns.push(if a.name == name {
                col
            } else {
                col.rename(&a.name, name)
            });
        }
    }
    columns.into_iter().reduce(Expr::union).ok_or_else(|| {
        RelError::UnsafeQuery(format!(
            "no {ty} column to draw the domain of `{name}` from"
        ))
    })
}

/// What variable `var` ranges over, as an expression over its qualified
/// columns: its relation, or × over its attributes of `adom(type)`.
fn range_expr(var: &str, scope: &Scope, db: &Database) -> Result<Expr> {
    let expr = match scope_range(var, scope)? {
        Range::Rel(rel) => Expr::rel(rel.clone()),
        Range::Domain(schema) => schema
            .attrs()
            .iter()
            .map(|a| adom(a.ty, &a.name, db))
            .reduce(|l, r| Ok(l?.product(r?)))
            .ok_or_else(|| {
                RelError::UnsafeQuery(format!("`{var}` ranges over a domain of no attributes"))
            })??,
    };
    Ok(expr.qualify(var))
}

fn scope_range<'a>(var: &str, scope: &'a Scope) -> Result<&'a Range> {
    scope
        .get(var)
        .ok_or_else(|| RelError::UnknownVariable(var.to_string()))
}

/// Translate a conjunction. `required` lists variables whose ranges must be
/// present in the output even if no positive conjunct mentions them.
fn translate_conjunction(
    conjuncts: Vec<Formula>,
    required: &[String],
    scope: &Scope,
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
    let mut needed: BTreeSet<String> = required.iter().cloned().collect();
    for n in &negatives {
        needed.extend(n.free_vars());
    }

    let mut parts: Vec<Expr> = Vec::new();
    let mut covered: BTreeSet<String> = BTreeSet::new();
    for p in positives {
        covered.extend(p.free_vars());
        parts.push(translate_positive(p, scope, db)?);
    }
    for v in needed {
        if !covered.contains(&v) {
            parts.push(range_expr(&v, scope, db)?);
            covered.insert(v);
        }
    }
    let mut expr = parts
        .into_iter()
        .reduce(|a, b| a.natural_join(b))
        .ok_or_else(|| {
            RelError::UnsafeQuery("closed formula with no range to build it from".into())
        })?;

    if const_false {
        expr = expr.select(Predicate::False);
    }

    // Apply each negation as an anti-join: E := E − (E ⋈ T(g)). Every free
    // variable of g is covered above, so T(g)'s columns are E's.
    for g in negatives {
        let neg = translate_positive(g, scope, db)?;
        let joined = expr.clone().natural_join(neg);
        expr = expr.difference(joined);
    }
    Ok(expr)
}

/// Translate a positive (non-negated) formula to an expression whose schema
/// is exactly the qualified attributes of its free variables.
fn translate_positive(formula: Formula, scope: &Scope, db: &Database) -> Result<Expr> {
    match formula {
        Formula::Cmp { l, op, r } => {
            let mut vars: BTreeSet<String> = BTreeSet::new();
            for t in [&l, &r] {
                if let Some(v) = t.var() {
                    vars.insert(v.to_string());
                }
            }
            let mut ranges: Vec<Expr> = vars
                .iter()
                .map(|v| range_expr(v, scope, db))
                .collect::<Result<_>>()?;
            let to_operand = |t: Term| match t {
                Term::Attr { var, attr } => Operand::Attr(format!("{var}.{attr}")),
                Term::Const(v) => Operand::Const(v),
            };
            let pred = Predicate::Cmp {
                l: to_operand(l),
                op,
                r: to_operand(r),
            };
            // One range is filtered; two are one join on the comparison.
            match ranges.len() {
                0 => Err(RelError::UnsafeQuery(
                    "constant comparison should have been folded".into(),
                )),
                1 => Ok(ranges.remove(0).select(pred)),
                _ => Ok(Expr::Join {
                    inputs: ranges,
                    pred,
                }),
            }
        }
        Formula::Rel { var, rel } => {
            // Membership of `var` in `rel`: rename rel's columns to the
            // var's range-schema names, qualify, and meet the var's range
            // unless that is `rel` itself.
            let range = scope_range(&var, scope)?;
            let range_schema = match range {
                Range::Rel(r) => db.get(r)?.schema().clone(),
                Range::Domain(schema) => schema.clone(),
            };
            let member_schema = db.get(&rel)?.schema().clone();
            if !range_schema.union_compatible(&member_schema) {
                return Err(RelError::SchemaMismatch(format!(
                    "{rel}({var}) with range {range}"
                )));
            }
            let pairs: Vec<(String, String)> = member_schema
                .names()
                .into_iter()
                .zip(range_schema.names())
                .filter(|(from, to)| from != to)
                .map(|(from, to)| (from.to_string(), to.to_string()))
                .collect();
            let mut e = Expr::rel(rel.clone());
            if !pairs.is_empty() {
                e = e.renames(pairs);
            }
            let e = e.qualify(&var);
            Ok(match range {
                Range::Rel(r) if *r == rel => e,
                _ => e.natural_join(range_expr(&var, scope, db)?),
            })
        }
        f @ Formula::And(_, _) => translate_conjunction(f.conjuncts(), &[], scope, db),
        Formula::Or(a, b) => {
            // Each side is padded with the ranges of the union's full
            // variable set.
            let all: Vec<String> = a.free_vars().union(&b.free_vars()).cloned().collect();
            let ea = translate_conjunction(a.conjuncts(), &all, scope, db)?;
            let eb = translate_conjunction(b.conjuncts(), &all, scope, db)?;
            // Align eb's column order with ea's before union.
            let order = ea.schema(db)?;
            let names: Vec<String> = order.names().iter().map(|s| s.to_string()).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let eb = eb.project(&name_refs);
            Ok(ea.union(eb))
        }
        Formula::Exists { var, range, body } => {
            if scope.contains_key(&var) {
                return Err(RelError::Duplicate(format!("variable `{var}` shadowed")));
            }
            let prefix = format!("{var}.");
            let mut inner_scope = scope.clone();
            inner_scope.insert(var.clone(), range);
            let inner = translate_conjunction(body.conjuncts(), &[var], &inner_scope, db)?;
            // Project away the quantified variable's columns.
            let schema = inner.schema(db)?;
            let keep: Vec<String> = schema
                .names()
                .iter()
                .filter(|n| !n.starts_with(&prefix))
                .map(|n| n.to_string())
                .collect();
            let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
            Ok(inner.project(&keep_refs))
        }
        // After eliminate_foralls and simplify, constants and negations
        // are only ever conjuncts: simplify folds the one and drops ¬¬ from
        // the other, and conjuncts() lifts both out of ∧, ∨ and ∃ bodies.
        Formula::True | Formula::False | Formula::Not(_) | Formula::ForAll { .. } => {
            // lint: allow(panic) every caller translates a simplified, ∀-free formula
            unreachable!("constants and negations are conjuncts after simplify")
        }
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
        Expr::Rename { pairs, input } => {
            let (u, su, ru, psi_u) = trans(input, db, gen)?;
            let sr = su.rename(pairs)?;
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
        Expr::Join { inputs, pred } => {
            let parts = inputs
                .iter()
                .map(|e| trans(e, db, gen))
                .collect::<Result<Vec<Trans>>>()?;
            let sp = parts
                .iter()
                .try_fold(Schema::default(), |s, (_, su, _, _)| s.product(su))?;
            let t = gen.fresh();
            let formula = agrees_with_each(&t, parts).and(predicate_to_formula(pred, &t));
            Ok((t, sp.clone(), Range::Domain(sp), formula))
        }
        Expr::NaturalJoin(l, r) => {
            let parts = vec![trans(l, db, gen)?, trans(r, db, gen)?];
            let (su, sv) = (&parts[0].1, &parts[1].1);
            let mut sj = su.clone();
            for a in sv.attrs() {
                if su.index_of(&a.name).is_none() {
                    sj.push(&a.name, a.ty)?;
                }
            }
            let t = gen.fresh();
            let formula = agrees_with_each(&t, parts);
            Ok((t, sj.clone(), Range::Domain(sj), formula))
        }
        Expr::Union(l, r) | Expr::Difference(l, r) | Expr::Intersection(l, r) => {
            let (u, su, ru, psi_l) = trans(l, db, gen)?;
            let (v, sv, rv, psi_r) = trans(r, db, gen)?;
            let t = gen.fresh();
            // ∃x ∈ range (ψ ∧ t ≈ x), positionally, under the left names.
            let member = |x: String, sx: &Schema, range, psi: Formula| Formula::Exists {
                body: Box::new(psi.and(fields_eq(&t, &su, &x, sx))),
                var: x,
                range,
            };
            let (left, right) = (member(u, &su, ru, psi_l), member(v, &sv, rv, psi_r));
            let formula = match expr {
                Expr::Union(..) => left.or(right),
                Expr::Difference(..) => left.and(right.not()),
                _ => left.and(right),
            };
            Ok((t, su.clone(), Range::Domain(su), formula))
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

/// `∃u1 (ψ1 ∧ t ≈ u1 ∧ ∃u2 (ψ2 ∧ t ≈ u2 ∧ …))`: `t` agrees with a tuple
/// of every part on that part's columns, by name.
fn agrees_with_each(t: &str, parts: Vec<Trans>) -> Formula {
    parts
        .into_iter()
        .rev()
        .fold(Formula::True, |body, (u, su, ru, psi)| Formula::Exists {
            body: Box::new(psi.and(fields_eq(t, &su, &u, &su)).and(body)),
            var: u,
            range: ru,
        })
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
    fn double_negation_translates() {
        // ¬¬(e.sal > 75), and ∀x∈emp.¬ψ, which ∀-elimination turns into
        // ¬∃x∈emp.¬¬ψ: the translation folds both double negations away.
        let rich = Formula::cmp(
            Term::attr("e", "sal"),
            CmpOp::Gt,
            Term::Const(Value::Int(75)),
        );
        let q = Query::new(&[("e", "emp")], &[("e", "name", "n")], rich.not().not());
        assert_codd_equiv(&q, &db());
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
            Formula::forall("x", "emp", body.not()),
        );
        assert_codd_equiv(&q, &db());
        assert_eq!(eval_query(&q, &db()).unwrap().tuples(), vec![tup!["ee"]]);
    }

    #[test]
    fn domain_ranged_free_variable_translates() {
        // A free variable over the raw domain ranges over adom(int): every
        // salary and every building number.
        let schema = Schema::new(&[("a", Type::Int)]).unwrap();
        let q = Query {
            free: vec![("t".to_string(), Range::Domain(schema))],
            head: vec![HeadItem {
                var: "t".into(),
                attr: "a".into(),
                name: "a".into(),
            }],
            formula: Formula::True,
        };
        assert_codd_equiv(&q, &db());
        assert_eq!(eval_query(&q, &db()).unwrap().len(), 5);
    }

    #[test]
    fn closed_queries_translate_and_leafless_ones_are_refused() {
        // A closed query is a projection onto no columns: one empty row
        // when it holds, none when it does not.
        for (bound, rows) in [(85, 1), (95, 0)] {
            let q = Query {
                free: vec![],
                head: vec![],
                formula: Formula::exists(
                    "x",
                    "emp",
                    Formula::cmp(
                        Term::attr("x", "sal"),
                        CmpOp::Gt,
                        Term::Const(Value::Int(bound)),
                    ),
                ),
            };
            assert_codd_equiv(&q, &db());
            assert_eq!(eval_query(&q, &db()).unwrap().len(), rows);
        }
        // No bool column to draw a domain from, and a closed formula that
        // folds to a constant: the algebra has no leaf for either.
        let bools = Query {
            free: vec![(
                "t".to_string(),
                Range::Domain(Schema::new(&[("b", Type::Bool)]).unwrap()),
            )],
            head: vec![],
            formula: Formula::True,
        };
        let constant = Query {
            free: vec![],
            head: vec![],
            formula: Formula::True,
        };
        for q in [bools, constant] {
            assert!(matches!(
                calculus_to_algebra(&q, &db()),
                Err(RelError::UnsafeQuery(_))
            ));
        }
    }

    #[test]
    fn membership_atom_meets_its_range() {
        // { e.name | e ∈ emp : senior(e) }: emp ∩ senior, not all of senior.
        let mut db = db();
        let emp = db.get("emp").unwrap().schema().clone();
        let mut senior = Relation::new(emp.clone());
        senior.insert(tup!["ann", "cs", 90i64]).unwrap();
        senior.insert(tup!["zed", "ee", 99i64]).unwrap();
        db.add("senior", senior);
        let atom = Formula::Rel {
            var: "e".into(),
            rel: "senior".into(),
        };
        let q = Query::new(&[("e", "emp")], &[("e", "name", "n")], atom.clone());
        assert_codd_equiv(&q, &db);
        assert_eq!(eval_query(&q, &db).unwrap().tuples(), vec![tup!["ann"]]);
        // Over the domain a member holding a labelled null is no tuple of
        // the range.
        db.get_mut("senior")
            .unwrap()
            .insert(tup!["kim", "ee", Value::Null(0)])
            .unwrap();
        let q = Query {
            free: vec![("e".to_string(), Range::Domain(emp))],
            ..q
        };
        assert_codd_equiv(&q, &db);
        assert_eq!(eval_query(&q, &db).unwrap().len(), 2);
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
