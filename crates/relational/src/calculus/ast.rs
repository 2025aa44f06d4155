//! AST for the tuple relational calculus.

use crate::schema::Schema;
use crate::value::{CmpOp, Value};
use std::collections::BTreeSet;
use std::fmt;

/// What a tuple variable ranges over.
#[derive(Debug, Clone, PartialEq)]
pub enum Range {
    /// A named base relation: `t ∈ R`.
    Rel(String),
    /// All tuples of the given schema whose values are drawn from the
    /// database's active domain (labelled nulls excluded). The
    /// algebra→calculus translation (the "expressive" direction of Codd's
    /// Theorem) produces these; the calculus→algebra one builds them as
    /// products of `adom` relations.
    Domain(Schema),
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Range::Rel(r) => write!(f, "{r}"),
            Range::Domain(s) => write!(f, "dom{s}"),
        }
    }
}

/// A term: a field of a tuple variable, or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// `var.attr`.
    Attr {
        /// Tuple variable.
        var: String,
        /// Attribute of the variable's range schema.
        attr: String,
    },
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Shorthand for `var.attr`.
    pub fn attr(var: &str, attr: &str) -> Term {
        Term::Attr {
            var: var.to_string(),
            attr: attr.to_string(),
        }
    }

    /// The variable referenced, if any.
    pub fn var(&self) -> Option<&str> {
        match self {
            Term::Attr { var, .. } => Some(var),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Attr { var, attr } => write!(f, "{var}.{attr}"),
            Term::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A calculus formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// Membership atom: the tuple bound to `var` is a member of relation
    /// `rel` (arity/type compatible). Used by the algebra→calculus
    /// translation; range-coupled queries rarely need it.
    Rel {
        /// Tuple variable.
        var: String,
        /// Base relation name.
        rel: String,
    },
    /// Comparison atom.
    Cmp {
        /// Left term.
        l: Term,
        /// Operator.
        op: CmpOp,
        /// Right term.
        r: Term,
    },
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Range-coupled existential: `∃ var ∈ range . body`.
    Exists {
        /// Bound variable.
        var: String,
        /// Its range.
        range: Range,
        /// Body formula.
        body: Box<Formula>,
    },
    /// Range-coupled universal: `∀ var ∈ range . body`.
    ForAll {
        /// Bound variable.
        var: String,
        /// Its range.
        range: Range,
        /// Body formula.
        body: Box<Formula>,
    },
}

impl Formula {
    /// Comparison-atom builder.
    pub fn cmp(l: Term, op: CmpOp, r: Term) -> Formula {
        Formula::Cmp { l, op, r }
    }

    /// Conjunction builder, absorbing `True`.
    pub fn and(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::True, f) | (f, Formula::True) => f,
            (a, b) => Formula::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction builder.
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// Negation builder.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Existential builder over a named relation.
    pub fn exists(var: &str, rel: &str, body: Formula) -> Formula {
        Formula::Exists {
            var: var.to_string(),
            range: Range::Rel(rel.to_string()),
            body: Box::new(body),
        }
    }

    /// Universal builder over a named relation.
    pub fn forall(var: &str, rel: &str, body: Formula) -> Formula {
        Formula::ForAll {
            var: var.to_string(),
            range: Range::Rel(rel.to_string()),
            body: Box::new(body),
        }
    }

    /// Free tuple variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut BTreeSet::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut BTreeSet<String>, out: &mut BTreeSet<String>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Rel { var, .. } => {
                if !bound.contains(var) {
                    out.insert(var.clone());
                }
            }
            Formula::Cmp { l, r, .. } => {
                for t in [l, r] {
                    if let Some(v) = t.var() {
                        if !bound.contains(v) {
                            out.insert(v.to_string());
                        }
                    }
                }
            }
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_free(bound, out);
                b.collect_free(bound, out);
            }
            Formula::Not(f) => f.collect_free(bound, out),
            Formula::Exists { var, body, .. } | Formula::ForAll { var, body, .. } => {
                let fresh = bound.insert(var.clone());
                body.collect_free(bound, out);
                if fresh {
                    bound.remove(var);
                }
            }
        }
    }

    /// Add every relation the formula names, in a range or a membership
    /// atom, to `out`.
    fn collect_relations(&self, out: &mut BTreeSet<String>) {
        match self {
            Formula::True | Formula::False | Formula::Cmp { .. } => {}
            Formula::Rel { rel, .. } => {
                out.insert(rel.clone());
            }
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_relations(out);
                b.collect_relations(out);
            }
            Formula::Not(f) => f.collect_relations(out),
            Formula::Exists { range, body, .. } | Formula::ForAll { range, body, .. } => {
                if let Range::Rel(r) = range {
                    out.insert(r.clone());
                }
                body.collect_relations(out);
            }
        }
    }

    /// Flatten a conjunction into conjuncts (`True` vanishes).
    pub fn conjuncts(self) -> Vec<Formula> {
        match self {
            Formula::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            Formula::True => vec![],
            f => vec![f],
        }
    }

    /// Rewrite every `ForAll` as `¬∃¬` (used before translation to algebra).
    pub fn eliminate_foralls(self) -> Formula {
        match self {
            Formula::ForAll { var, range, body } => Formula::Not(Box::new(Formula::Exists {
                var,
                range,
                body: Box::new(Formula::Not(Box::new(body.eliminate_foralls()))),
            })),
            Formula::And(a, b) => Formula::And(
                Box::new(a.eliminate_foralls()),
                Box::new(b.eliminate_foralls()),
            ),
            Formula::Or(a, b) => Formula::Or(
                Box::new(a.eliminate_foralls()),
                Box::new(b.eliminate_foralls()),
            ),
            Formula::Not(f) => Formula::Not(Box::new(f.eliminate_foralls())),
            Formula::Exists { var, range, body } => Formula::Exists {
                var,
                range,
                body: Box::new(body.eliminate_foralls()),
            },
            f => f,
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Rel { var, rel } => write!(f, "{rel}({var})"),
            Formula::Cmp { l, op, r } => write!(f, "{l} {op} {r}"),
            Formula::And(a, b) => write!(f, "({a} ∧ {b})"),
            Formula::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Formula::Not(x) => write!(f, "¬({x})"),
            Formula::Exists { var, range, body } => write!(f, "∃{var}∈{range}.({body})"),
            Formula::ForAll { var, range, body } => write!(f, "∀{var}∈{range}.({body})"),
        }
    }
}

/// One output column: `var.attr AS name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadItem {
    /// Tuple variable.
    pub var: String,
    /// Attribute of the variable.
    pub attr: String,
    /// Output column name.
    pub name: String,
}

/// A calculus query: free range-coupled variables, a head, and a formula.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Free tuple variables with their ranges.
    pub free: Vec<(String, Range)>,
    /// Output columns.
    pub head: Vec<HeadItem>,
    /// The qualifying formula.
    pub formula: Formula,
}

impl Query {
    /// Build a query over named relations: `free` is `(var, relation)`,
    /// `head` is `(var, attr, output_name)`.
    pub fn new(free: &[(&str, &str)], head: &[(&str, &str, &str)], formula: Formula) -> Query {
        Query {
            free: free
                .iter()
                .map(|(v, r)| (v.to_string(), Range::Rel(r.to_string())))
                .collect(),
            head: head
                .iter()
                .map(|(v, a, n)| HeadItem {
                    var: v.to_string(),
                    attr: a.to_string(),
                    name: n.to_string(),
                })
                .collect(),
            formula,
        }
    }

    /// Every relation the query names, in a range or a membership atom.
    pub fn relations(&self) -> BTreeSet<String> {
        let mut out: BTreeSet<String> = self
            .free
            .iter()
            .filter_map(|(_, range)| match range {
                Range::Rel(r) => Some(r.clone()),
                Range::Domain(_) => None,
            })
            .collect();
        self.formula.collect_relations(&mut out);
        out
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ")?;
        for (i, h) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}.{} AS {}", h.var, h.attr, h.name)?;
        }
        write!(f, " | ")?;
        for (i, (v, r)) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} ∈ {r}")?;
        }
        write!(f, " : {} }}", self.formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn free_vars_respect_binding() {
        // ∃u∈S.(t.a = u.b) has free var t only.
        let f = Formula::exists(
            "u",
            "S",
            Formula::cmp(Term::attr("t", "a"), CmpOp::Eq, Term::attr("u", "b")),
        );
        assert_eq!(f.free_vars().into_iter().collect::<Vec<_>>(), vec!["t"]);
    }

    #[test]
    fn shadowed_variable_stays_bound() {
        // ∃t.(∃t. t.a=1) — all occurrences bound.
        let inner = Formula::exists(
            "t",
            "R",
            Formula::cmp(Term::attr("t", "a"), CmpOp::Eq, Term::Const(Value::Int(1))),
        );
        let f = Formula::exists("t", "R", inner);
        assert!(f.free_vars().is_empty());
    }

    #[test]
    fn conjunct_flattening() {
        let f = Formula::True
            .and(Formula::cmp(
                Term::attr("t", "a"),
                CmpOp::Eq,
                Term::Const(Value::Int(1)),
            ))
            .and(Formula::cmp(
                Term::attr("t", "b"),
                CmpOp::Eq,
                Term::Const(Value::Int(2)),
            ));
        assert_eq!(f.conjuncts().len(), 2);
        assert!(Formula::True.conjuncts().is_empty());
    }

    #[test]
    fn forall_elimination() {
        let f = Formula::forall(
            "u",
            "S",
            Formula::cmp(Term::attr("u", "a"), CmpOp::Gt, Term::Const(Value::Int(0))),
        );
        let g = f.eliminate_foralls();
        match g {
            Formula::Not(inner) => match *inner {
                Formula::Exists { body, .. } => assert!(matches!(*body, Formula::Not(_))),
                other => panic!("expected Exists, got {other}"),
            },
            other => panic!("expected Not, got {other}"),
        }
    }

    #[test]
    fn display_is_readable() {
        let q = Query::new(
            &[("t", "R")],
            &[("t", "a", "x")],
            Formula::cmp(Term::attr("t", "a"), CmpOp::Gt, Term::Const(Value::Int(5))),
        );
        assert_eq!(q.to_string(), "{ t.a AS x | t ∈ R : t.a > 5 }");
    }
}
