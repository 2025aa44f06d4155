//! Relational algebra: the procedural half of Codd's Theorem.
//!
//! * [`expr`] — the operator AST ([`Expr`]) and selection predicates
//!   ([`Predicate`]).
//! * [`eval`] — a recursive evaluator with hash-based natural join, an
//!   n-ary join folded the way the physical engine folds it, and
//!   intermediate-result accounting.
//! * [`optimize`] — the classical rule-based rewrites (selection cascade,
//!   selection pushdown into join inputs, join ordering), in one
//!   traversal, whose difficulty "came as a surprise" to the theory
//!   community, per §2(c) of the paper.

pub mod eval;
pub mod expr;
pub mod optimize;

pub use eval::{eval, eval_with_stats, EvalStats};
pub use expr::{Expr, Operand, Predicate};
pub use optimize::optimize;
