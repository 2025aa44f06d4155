//! Selection predicates bound to column positions.
//!
//! [`Predicate::eval`] finds every attribute by comparing names, once per
//! operand per tuple. Lowering binds the names once instead; the scan and
//! the stand-alone filter then evaluate a [`BoundPred`] against borrowed
//! tuples with no lookups left.

use bq_relational::algebra::expr::{Operand, Predicate};
use bq_relational::error::RelError;
use bq_relational::value::CmpOp;
use bq_relational::{Result, Schema, Tuple, Value};
use std::fmt;

/// One side of a bound comparison.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Col(usize),
    Const(Value),
    /// A name the schema does not have. The oracle raises
    /// `UnknownAttribute` only when a tuple actually reaches the operand
    /// (an empty input or a short-circuit never does), so the error is
    /// kept for evaluation time instead of failing the lowering.
    Unknown(String),
}

impl Slot {
    fn bind(operand: &Operand, schema: &Schema) -> Slot {
        match operand {
            Operand::Const(v) => Slot::Const(v.clone()),
            Operand::Attr(name) => match schema.index_of(name) {
                Some(i) => Slot::Col(i),
                None => Slot::Unknown(name.clone()),
            },
        }
    }

    fn get<'a>(&'a self, tuple: &'a Tuple) -> Result<&'a Value> {
        match self {
            Slot::Col(i) => Ok(tuple.get(*i)),
            Slot::Const(v) => Ok(v),
            Slot::Unknown(name) => Err(RelError::UnknownAttribute(name.clone())),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Const(bool),
    Cmp { l: Slot, op: CmpOp, r: Slot },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
}

impl Node {
    fn bind(pred: &Predicate, schema: &Schema) -> Node {
        let bind = |p: &Predicate| Box::new(Node::bind(p, schema));
        match pred {
            Predicate::True => Node::Const(true),
            Predicate::False => Node::Const(false),
            Predicate::Cmp { l, op, r } => Node::Cmp {
                l: Slot::bind(l, schema),
                op: *op,
                r: Slot::bind(r, schema),
            },
            Predicate::And(a, b) => Node::And(bind(a), bind(b)),
            Predicate::Or(a, b) => Node::Or(bind(a), bind(b)),
            Predicate::Not(p) => Node::Not(bind(p)),
        }
    }

    fn eval(&self, tuple: &Tuple) -> Result<bool> {
        Ok(match self {
            Node::Const(b) => *b,
            Node::Cmp { l, op, r } => op.apply(l.get(tuple)?, r.get(tuple)?),
            Node::And(a, b) => a.eval(tuple)? && b.eval(tuple)?,
            Node::Or(a, b) => a.eval(tuple)? || b.eval(tuple)?,
            Node::Not(p) => !p.eval(tuple)?,
        })
    }

    /// Collect the top-level conjuncts of the form `column op constant`
    /// (either way round). Returns `false` when some operand anywhere in
    /// the predicate is unbound, i.e. evaluation can fail.
    fn bounds<'a>(&'a self, top: bool, out: &mut Vec<(usize, CmpOp, &'a Value)>) -> bool {
        match self {
            Node::Const(_) => true,
            Node::Cmp { l, op, r } => {
                match (l, r) {
                    (Slot::Col(i), Slot::Const(v)) if top => out.push((*i, *op, v)),
                    (Slot::Const(v), Slot::Col(i)) if top => out.push((*i, op.flip(), v)),
                    _ => {}
                }
                !matches!(l, Slot::Unknown(_)) && !matches!(r, Slot::Unknown(_))
            }
            Node::And(a, b) => a.bounds(top, out) & b.bounds(top, out),
            Node::Or(a, b) => a.bounds(false, out) & b.bounds(false, out),
            Node::Not(p) => p.bounds(false, out),
        }
    }
}

/// Hash-join keys as `(left position, right position)` pairs.
pub(crate) type JoinKeys = Vec<(usize, usize)>;

/// A selection predicate with its attribute names resolved to column
/// positions of one schema. Keeps the source predicate for display.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPred {
    source: Predicate,
    node: Node,
}

impl BoundPred {
    /// Bind `pred`'s attribute names against `schema`.
    pub fn bind(pred: &Predicate, schema: &Schema) -> BoundPred {
        BoundPred {
            source: pred.clone(),
            node: Node::bind(pred, schema),
        }
    }

    /// Evaluate against a tuple laid out like the schema bound against.
    pub fn eval(&self, tuple: &Tuple) -> Result<bool> {
        self.node.eval(tuple)
    }

    /// `self ∧ outer`, evaluated in that order — the order a filter over a
    /// filter evaluates them, which matters once one side can fail.
    pub fn and(self, outer: BoundPred) -> BoundPred {
        BoundPred {
            source: self.source.and(outer.source),
            node: Node::And(Box::new(self.node), Box::new(outer.node)),
        }
    }

    /// Split a predicate over `schema` — the concatenation of two inputs,
    /// the first `split` columns being the left input's — into hash-join
    /// keys and a residue: every top-level conjunct `column = column` that
    /// takes a column from each side becomes a key pair, and the other
    /// conjuncts come back as the predicate still to run on the joined
    /// tuples (`None` when the keys were all of it).
    ///
    /// `None` when no conjunct qualifies or when evaluating the predicate
    /// can fail: a join never forms the pairs whose keys differ, so it
    /// would skip the error the oracle reports for them. Infallible
    /// conjuncts commute, which is what lets the keys be taken out of the
    /// middle.
    pub(crate) fn split_equi_keys(
        &self,
        schema: &Schema,
        split: usize,
    ) -> Option<(JoinKeys, Option<BoundPred>)> {
        self.column_bounds()?;
        let (mut keys, mut rest) = (JoinKeys::new(), Vec::new());
        for conjunct in self.source.clone().conjuncts() {
            match Node::bind(&conjunct, schema) {
                Node::Cmp {
                    l: Slot::Col(i),
                    op: CmpOp::Eq,
                    r: Slot::Col(j),
                } if (i < split) != (j < split) => keys.push((i.min(j), i.max(j) - split)),
                _ => rest.push(conjunct),
            }
        }
        if keys.is_empty() {
            return None;
        }
        let rest = Predicate::from_conjuncts(rest);
        let rest = (rest != Predicate::True).then(|| BoundPred::bind(&rest, schema));
        Some((keys, rest))
    }

    /// The `(column, op, constant)` comparisons every accepted tuple
    /// satisfies (the top-level conjuncts of that shape), or `None` when
    /// evaluating the predicate can fail: skipping tuples would then skip
    /// the error the oracle reports for them.
    pub fn column_bounds(&self) -> Option<Vec<(usize, CmpOp, &Value)>> {
        let mut out = Vec::new();
        self.node.bounds(true, &mut out).then_some(out)
    }
}

impl fmt::Display for BoundPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_relational::tup;
    use bq_relational::value::Type;

    fn schema() -> Schema {
        Schema::new(&[("a", Type::Int), ("b", Type::Str)]).unwrap()
    }

    fn cmp(l: Operand, op: CmpOp, r: Operand) -> Predicate {
        Predicate::cmp(l, op, r)
    }

    #[test]
    fn bound_eval_agrees_with_name_based_eval() {
        let s = schema();
        let a_lt = |v: i64| cmp(Operand::attr("a"), CmpOp::Lt, Operand::Const(v.into()));
        let preds = [
            Predicate::True,
            Predicate::False,
            Predicate::eq_const("a", 3i64).and(Predicate::eq_const("b", "x")),
            Predicate::Or(Box::new(a_lt(2)), Box::new(Predicate::eq_const("b", "y"))),
            Predicate::Not(Box::new(a_lt(3))),
            cmp(Operand::Const(2i64.into()), CmpOp::Le, Operand::attr("a")),
            Predicate::eq_attrs("a", "b"),
        ];
        for p in &preds {
            let bound = BoundPred::bind(p, &s);
            for t in [tup![1i64, "x"], tup![3i64, "x"], tup![3i64, "y"]] {
                assert_eq!(bound.eval(&t).unwrap(), p.eval(&s, &t).unwrap(), "{p}");
            }
            assert_eq!(bound.to_string(), p.to_string());
        }
    }

    #[test]
    fn unknown_names_fail_only_when_reached() {
        let s = schema();
        let p = Predicate::eq_const("a", 1i64).and(Predicate::eq_const("zzz", 0i64));
        let bound = BoundPred::bind(&p, &s);
        assert!(!bound.eval(&tup![2i64, "x"]).unwrap(), "short-circuited");
        assert!(matches!(
            bound.eval(&tup![1i64, "x"]),
            Err(RelError::UnknownAttribute(name)) if name == "zzz"
        ));
        assert_eq!(
            bound.column_bounds(),
            None,
            "a fallible predicate pins nothing"
        );
    }

    #[test]
    fn column_bounds_are_the_top_level_conjuncts() {
        let s = schema();
        let p = Predicate::eq_const("a", 1i64)
            .and(cmp(
                Operand::Const("m".into()),
                CmpOp::Gt,
                Operand::attr("b"),
            ))
            .and(Predicate::Not(Box::new(Predicate::eq_const("a", 9i64))))
            .and(Predicate::eq_attrs("a", "b"));
        let (one, m) = (Value::Int(1), Value::str("m"));
        assert_eq!(
            BoundPred::bind(&p, &s).column_bounds().unwrap(),
            vec![(0, CmpOp::Eq, &one), (1, CmpOp::Lt, &m)],
            "the flipped comparison reads column-first; ¬ and attr=attr pin nothing"
        );
        let or = Predicate::Or(
            Box::new(Predicate::eq_const("a", 1i64)),
            Box::new(Predicate::eq_const("a", 2i64)),
        );
        assert_eq!(BoundPred::bind(&or, &s).column_bounds().unwrap(), vec![]);
    }
}
