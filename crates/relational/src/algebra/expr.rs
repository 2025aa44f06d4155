//! The relational-algebra AST and selection predicates.

use crate::catalog::Database;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{CmpOp, Value};
use crate::Result;
use std::collections::BTreeSet;
use std::fmt;

/// One side of a comparison: an attribute reference or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// Reference to an attribute by name.
    Attr(String),
    /// A constant value.
    Const(Value),
}

impl Operand {
    /// Shorthand attribute constructor.
    pub fn attr(name: impl Into<String>) -> Operand {
        Operand::Attr(name.into())
    }

    fn resolve<'a>(&'a self, schema: &Schema, tuple: &'a Tuple) -> Result<&'a Value> {
        match self {
            Operand::Attr(name) => Ok(tuple.get(schema.require(name)?)),
            Operand::Const(v) => Ok(v),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Attr(a) => write!(f, "{a}"),
            Operand::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A boolean selection predicate over a tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// A comparison between two operands.
    Cmp {
        /// Left operand.
        l: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        r: Operand,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Build a comparison predicate.
    pub fn cmp(l: Operand, op: CmpOp, r: Operand) -> Predicate {
        Predicate::Cmp { l, op, r }
    }

    /// `attr = const` shorthand.
    pub fn eq_const(attr: &str, v: impl Into<Value>) -> Predicate {
        Predicate::cmp(Operand::attr(attr), CmpOp::Eq, Operand::Const(v.into()))
    }

    /// `attr1 = attr2` shorthand.
    pub fn eq_attrs(a: &str, b: &str) -> Predicate {
        Predicate::cmp(Operand::attr(a), CmpOp::Eq, Operand::attr(b))
    }

    /// Conjoin two predicates, simplifying `True` away.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// Evaluate against a tuple under a schema.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::False => Ok(false),
            Predicate::Cmp { l, op, r } => {
                Ok(op.apply(l.resolve(schema, tuple)?, r.resolve(schema, tuple)?))
            }
            Predicate::And(a, b) => Ok(a.eval(schema, tuple)? && b.eval(schema, tuple)?),
            Predicate::Or(a, b) => Ok(a.eval(schema, tuple)? || b.eval(schema, tuple)?),
            Predicate::Not(p) => Ok(!p.eval(schema, tuple)?),
        }
    }

    /// Attribute names referenced anywhere in the predicate.
    pub fn attrs(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs(&self, out: &mut BTreeSet<String>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Cmp { l, r, .. } => {
                if let Operand::Attr(a) = l {
                    out.insert(a.clone());
                }
                if let Operand::Attr(a) = r {
                    out.insert(a.clone());
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            Predicate::Not(p) => p.collect_attrs(out),
        }
    }

    /// Split a conjunction into its conjuncts (flattening nested `And`s).
    pub fn conjuncts(self) -> Vec<Predicate> {
        match self {
            Predicate::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            Predicate::True => vec![],
            p => vec![p],
        }
    }

    /// Rebuild a conjunction from conjuncts.
    pub fn from_conjuncts(preds: Vec<Predicate>) -> Predicate {
        preds.into_iter().fold(Predicate::True, Predicate::and)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Cmp { l, op, r } => write!(f, "{l} {op} {r}"),
            Predicate::And(a, b) => write!(f, "({a} ∧ {b})"),
            Predicate::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Predicate::Not(p) => write!(f, "¬({p})"),
        }
    }
}

/// A relational-algebra expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A named base relation.
    Rel(String),
    /// σ — selection.
    Select {
        /// Filter predicate.
        pred: Predicate,
        /// Input expression.
        input: Box<Expr>,
    },
    /// π — projection onto named columns (duplicates eliminated).
    Project {
        /// Output columns, in order.
        cols: Vec<String>,
        /// Input expression.
        input: Box<Expr>,
    },
    /// ρ — rename attributes, all `(from, to)` pairs at once: `ρ[a→b,
    /// b→a]` swaps two names.
    Rename {
        /// `(existing name, new name)` pairs.
        pairs: Vec<(String, String)>,
        /// Input expression.
        input: Box<Expr>,
    },
    /// Prefix every attribute with `var.` (binding to a tuple variable).
    Qualify {
        /// Variable name used as prefix.
        var: String,
        /// Input expression.
        input: Box<Expr>,
    },
    /// ⋈θ — the product of two or more inputs (attribute names must be
    /// disjoint), filtered by `pred`; a product is the case `pred = True`.
    Join {
        /// The inputs, in column order; at least two.
        inputs: Vec<Expr>,
        /// Join predicate over the concatenated schema.
        pred: Predicate,
    },
    /// ⋈ — natural join on shared attribute names.
    NaturalJoin(Box<Expr>, Box<Expr>),
    /// ∪ — union of union-compatible inputs.
    Union(Box<Expr>, Box<Expr>),
    /// − — set difference of union-compatible inputs.
    Difference(Box<Expr>, Box<Expr>),
    /// ∩ — intersection of union-compatible inputs.
    Intersection(Box<Expr>, Box<Expr>),
    /// ÷ — division: tuples over the left schema minus the right's
    /// attributes that pair with *every* right tuple. The right schema's
    /// attributes must be a proper, nonempty subset of the left's. This is
    /// the algebra's "for all" operator, definable from the others as
    /// `π_D(L) − π_D((π_D(L) × R) − L)` — which is exactly how the
    /// evaluator computes it.
    Division(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Base-relation reference.
    pub fn rel(name: impl Into<String>) -> Expr {
        Expr::Rel(name.into())
    }

    /// σ builder.
    pub fn select(self, pred: Predicate) -> Expr {
        Expr::Select {
            pred,
            input: Box::new(self),
        }
    }

    /// π builder.
    pub fn project(self, cols: &[&str]) -> Expr {
        Expr::Project {
            cols: cols.iter().map(|s| s.to_string()).collect(),
            input: Box::new(self),
        }
    }

    /// ρ builder for one attribute.
    pub fn rename(self, from: &str, to: &str) -> Expr {
        self.renames(vec![(from.to_string(), to.to_string())])
    }

    /// ρ builder for simultaneous `(from, to)` pairs.
    pub fn renames(self, pairs: Vec<(String, String)>) -> Expr {
        Expr::Rename {
            pairs,
            input: Box::new(self),
        }
    }

    /// Qualify builder.
    pub fn qualify(self, var: &str) -> Expr {
        Expr::Qualify {
            var: var.to_string(),
            input: Box::new(self),
        }
    }

    /// × builder: a product of products is one flat [`Expr::Join`].
    pub fn product(self, other: Expr) -> Expr {
        let factors = |e: Expr| match e {
            Expr::Join {
                inputs,
                pred: Predicate::True,
            } => inputs,
            e => vec![e],
        };
        let mut inputs = factors(self);
        inputs.extend(factors(other));
        Expr::Join {
            inputs,
            pred: Predicate::True,
        }
    }

    /// ⋈ builder.
    pub fn natural_join(self, other: Expr) -> Expr {
        Expr::NaturalJoin(Box::new(self), Box::new(other))
    }

    /// ∪ builder.
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(other))
    }

    /// − builder.
    pub fn difference(self, other: Expr) -> Expr {
        Expr::Difference(Box::new(self), Box::new(other))
    }

    /// ∩ builder.
    pub fn intersection(self, other: Expr) -> Expr {
        Expr::Intersection(Box::new(self), Box::new(other))
    }

    /// ÷ builder.
    pub fn division(self, other: Expr) -> Expr {
        Expr::Division(Box::new(self), Box::new(other))
    }

    /// Infer the output schema against a database (without evaluating).
    pub fn schema(&self, db: &Database) -> Result<Schema> {
        match self {
            Expr::Rel(name) => Ok(db.get(name)?.schema().clone()),
            Expr::Select { input, .. } => input.schema(db),
            Expr::Project { cols, input } => {
                let s = input.schema(db)?;
                let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                s.project(&names)
            }
            Expr::Rename { pairs, input } => input.schema(db)?.rename(pairs),
            Expr::Qualify { var, input } => Ok(input.schema(db)?.qualify(var)),
            Expr::Join { inputs, .. } => inputs
                .iter()
                .try_fold(Schema::default(), |s, e| s.product(&e.schema(db)?)),
            Expr::NaturalJoin(l, r) => {
                let ls = l.schema(db)?;
                let rs = r.schema(db)?;
                let mut out = ls.clone();
                for a in rs.attrs() {
                    if ls.index_of(&a.name).is_none() {
                        out.push(&a.name, a.ty)?;
                    }
                }
                Ok(out)
            }
            Expr::Union(l, _) | Expr::Difference(l, _) | Expr::Intersection(l, _) => l.schema(db),
            Expr::Division(l, r) => {
                let ls = l.schema(db)?;
                let rs = r.schema(db)?;
                let mut out = Schema::default();
                for a in ls.attrs() {
                    if rs.index_of(&a.name).is_none() {
                        out.push(&a.name, a.ty)?;
                    }
                }
                if out.arity() == ls.arity() || out.is_empty() {
                    return Err(crate::error::RelError::SchemaMismatch(format!(
                        "division needs ∅ ⊂ divisor attrs ⊂ dividend attrs: {ls} ÷ {rs}"
                    )));
                }
                Ok(out)
            }
        }
    }

    /// Number of operator nodes (for optimizer and generator tests).
    pub fn size(&self) -> usize {
        match self {
            Expr::Rel(_) => 1,
            Expr::Select { input, .. }
            | Expr::Project { input, .. }
            | Expr::Rename { input, .. }
            | Expr::Qualify { input, .. } => 1 + input.size(),
            Expr::Join { inputs, .. } => 1 + inputs.iter().map(Expr::size).sum::<usize>(),
            Expr::NaturalJoin(l, r)
            | Expr::Union(l, r)
            | Expr::Difference(l, r)
            | Expr::Intersection(l, r)
            | Expr::Division(l, r) => 1 + l.size() + r.size(),
        }
    }

    /// Names of every base relation the expression reads, deduplicated.
    pub fn relations(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_relations(&mut out);
        out
    }

    fn collect_relations(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Expr::Rel(name) => {
                out.insert(name.clone());
            }
            Expr::Select { input, .. }
            | Expr::Project { input, .. }
            | Expr::Rename { input, .. }
            | Expr::Qualify { input, .. } => input.collect_relations(out),
            Expr::Join { inputs, .. } => inputs.iter().for_each(|e| e.collect_relations(out)),
            Expr::NaturalJoin(l, r)
            | Expr::Union(l, r)
            | Expr::Difference(l, r)
            | Expr::Intersection(l, r)
            | Expr::Division(l, r) => {
                l.collect_relations(out);
                r.collect_relations(out);
            }
        }
    }
}

/// Where a join of inputs with `schemas`, folded left-deep in order,
/// applies `pred`: per input, the conjuncts that filter that input alone
/// and those applied where it joins the inputs before it. Each conjunct
/// applies at the first input whose prefix binds all its names.
///
/// When some conjunct names an attribute no input has, evaluating the
/// predicate can fail, and the tuples it fails on must all be formed: the
/// whole predicate then applies, as written, where the last input joins,
/// or to the one input of a join of one. The first input's join slot is
/// always `True`: it joins nothing.
pub fn join_steps(schemas: &[&Schema], pred: &Predicate) -> Vec<(Predicate, Predicate)> {
    if schemas.is_empty() {
        return Vec::new();
    }
    let mut steps = vec![(Vec::new(), Vec::new()); schemas.len()];
    for conjunct in pred.clone().conjuncts() {
        let owners: Option<Vec<usize>> = conjunct
            .attrs()
            .iter()
            .map(|a| schemas.iter().position(|s| s.index_of(a).is_some()))
            .collect();
        let Some(owners) = owners else {
            let mut whole = vec![(Predicate::True, Predicate::True); schemas.len()];
            let last = schemas.len() - 1;
            if last == 0 {
                whole[0].0 = pred.clone();
            } else {
                whole[last].1 = pred.clone();
            }
            return whole;
        };
        let at = owners.iter().copied().max().unwrap_or(0);
        if owners.iter().all(|&i| i == at) {
            steps[at].0.push(conjunct);
        } else {
            steps[at].1.push(conjunct);
        }
    }
    let fold = Predicate::from_conjuncts;
    steps
        .into_iter()
        .map(|(own, on)| (fold(own), fold(on)))
        .collect()
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Rel(n) => write!(f, "{n}"),
            Expr::Select { pred, input } => write!(f, "σ[{pred}]({input})"),
            Expr::Project { cols, input } => write!(f, "π[{}]({input})", cols.join(", ")),
            Expr::Rename { pairs, input } => {
                let pairs: Vec<String> = pairs.iter().map(|(a, b)| format!("{a}→{b}")).collect();
                write!(f, "ρ[{}]({input})", pairs.join(", "))
            }
            Expr::Qualify { var, input } => write!(f, "ρ[{var}.*]({input})"),
            Expr::Join { inputs, pred } => {
                let inputs: Vec<String> = inputs.iter().map(Expr::to_string).collect();
                match pred {
                    Predicate::True => write!(f, "({})", inputs.join(" × ")),
                    pred => write!(f, "⋈[{pred}]({})", inputs.join(", ")),
                }
            }
            Expr::NaturalJoin(l, r) => write!(f, "({l} ⋈ {r})"),
            Expr::Union(l, r) => write!(f, "({l} ∪ {r})"),
            Expr::Difference(l, r) => write!(f, "({l} − {r})"),
            Expr::Intersection(l, r) => write!(f, "({l} ∩ {r})"),
            Expr::Division(l, r) => write!(f, "({l} ÷ {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::tup;
    use crate::value::Type;

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::with_schema(&[("a", Type::Int), ("b", Type::Str)]).unwrap();
        r.insert(tup![1i64, "x"]).unwrap();
        db.add("r", r);
        let s = Relation::with_schema(&[("b", Type::Str), ("c", Type::Int)]).unwrap();
        db.add("s", s);
        db
    }

    #[test]
    fn predicate_eval_on_tuple() {
        let schema = Schema::new(&[("a", Type::Int), ("b", Type::Str)]).unwrap();
        let t = tup![3i64, "x"];
        let p = Predicate::eq_const("a", 3i64).and(Predicate::eq_const("b", "x"));
        assert!(p.eval(&schema, &t).unwrap());
        let q = Predicate::Not(Box::new(Predicate::eq_const("a", 3i64)));
        assert!(!q.eval(&schema, &t).unwrap());
        let bad = Predicate::eq_const("zzz", 0i64);
        assert!(bad.eval(&schema, &t).is_err());
    }

    #[test]
    fn predicate_attrs_collected() {
        let p = Predicate::eq_attrs("a", "b").and(Predicate::eq_const("c", 1i64));
        let attrs = p.attrs();
        assert_eq!(attrs.len(), 3);
        assert!(attrs.contains("a") && attrs.contains("b") && attrs.contains("c"));
    }

    #[test]
    fn conjunct_roundtrip() {
        let p = Predicate::eq_const("a", 1i64)
            .and(Predicate::eq_const("b", 2i64))
            .and(Predicate::eq_const("c", 3i64));
        let cs = p.clone().conjuncts();
        assert_eq!(cs.len(), 3);
        // Round trip preserves semantics (evaluate on a sample).
        let schema = Schema::new(&[("a", Type::Int), ("b", Type::Int), ("c", Type::Int)]).unwrap();
        let t = tup![1i64, 2i64, 3i64];
        let rebuilt = Predicate::from_conjuncts(cs);
        assert_eq!(
            p.eval(&schema, &t).unwrap(),
            rebuilt.eval(&schema, &t).unwrap()
        );
    }

    #[test]
    fn schema_inference() {
        let db = db();
        let e = Expr::rel("r").natural_join(Expr::rel("s"));
        assert_eq!(e.schema(&db).unwrap().names(), vec!["a", "b", "c"]);
        let p = Expr::rel("r").project(&["b"]);
        assert_eq!(p.schema(&db).unwrap().names(), vec!["b"]);
        let q = Expr::rel("r").qualify("t");
        assert_eq!(q.schema(&db).unwrap().names(), vec!["t.a", "t.b"]);
    }

    #[test]
    fn product_with_name_clash_errors() {
        let db = db();
        let e = Expr::rel("r").product(Expr::rel("r"));
        assert!(e.schema(&db).is_err());
        let ok = Expr::rel("r")
            .qualify("t")
            .product(Expr::rel("r").qualify("u"));
        assert_eq!(ok.schema(&db).unwrap().arity(), 4);
    }

    #[test]
    fn products_stay_flat() {
        let q = |v: &str| Expr::rel("r").qualify(v);
        let chain = q("t").product(q("u")).product(q("v").product(q("w")));
        assert!(
            matches!(&chain, Expr::Join { inputs, pred: Predicate::True } if inputs.len() == 4)
        );
        assert_eq!(chain.schema(&db()).unwrap().arity(), 8);
        // A filtered join is one input of the next product.
        let on = Predicate::eq_attrs("t.a", "u.a");
        let joined = Expr::Join {
            inputs: vec![q("t"), q("u")],
            pred: on.clone(),
        };
        let e = joined.product(q("v"));
        assert!(
            matches!(&e, Expr::Join { inputs, .. } if inputs.len() == 2),
            "{e}"
        );
        assert_eq!(
            e.to_string(),
            "(⋈[t.a = u.a](ρ[t.*](r), ρ[u.*](r)) × ρ[v.*](r))"
        );
    }

    #[test]
    fn join_steps_place_each_conjunct_at_its_first_binding_prefix() {
        let s = |names: &[&str]| {
            Schema::new(&names.iter().map(|n| (*n, Type::Int)).collect::<Vec<_>>()).unwrap()
        };
        let (x, y, z) = (s(&["a", "b"]), s(&["c"]), s(&["d"]));
        let schemas = [&x, &y, &z];
        let (ac, bd, a1, d1) = (
            Predicate::eq_attrs("a", "c"),
            Predicate::eq_attrs("b", "d"),
            Predicate::eq_const("a", 1i64),
            Predicate::eq_const("d", 1i64),
        );
        let pred = bd.clone().and(a1.clone()).and(ac.clone()).and(d1.clone());
        let t = Predicate::True;
        assert_eq!(
            join_steps(&schemas, &pred),
            vec![
                (a1.clone(), t.clone()),
                (t.clone(), ac.clone()),
                (d1.clone(), bd.clone())
            ]
        );
        // A name no input has: the whole predicate, as written, at the end.
        let ghost = pred.clone().and(Predicate::eq_const("zz", 0i64));
        let whole = join_steps(&schemas, &ghost);
        assert_eq!(whole[2], (t.clone(), ghost.clone()));
        assert_eq!(whole[..2], [(t.clone(), t.clone()), (t.clone(), t.clone())]);
        // A join of one input: the whole predicate filters that input.
        assert_eq!(join_steps(&[&x], &ghost), vec![(ghost, t)]);
    }

    #[test]
    fn display_is_algebraic() {
        let e = Expr::rel("r")
            .select(Predicate::eq_const("a", 1i64))
            .project(&["b"]);
        assert_eq!(e.to_string(), "π[b](σ[a = 1](r))");
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::rel("r").natural_join(Expr::rel("s")).project(&["a"]);
        assert_eq!(e.size(), 4);
    }
}
