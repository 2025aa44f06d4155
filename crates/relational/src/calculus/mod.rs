//! Tuple relational calculus: the declarative half of Codd's Theorem.
//!
//! Queries are of the form
//!
//! ```text
//! { t.a AS x, u.b AS y  |  t ∈ R, u ∈ S, φ(t, u) }
//! ```
//!
//! Tuple variables are *range-coupled*: each free variable and each
//! quantifier declares the relation (or, for the algebra→calculus direction
//! of Codd's Theorem, the typed active domain) its variable ranges over.
//! This is the classical *safe* fragment — range-restricted by construction,
//! hence domain-independent.
//!
//! * [`ast`] — terms, formulas, ranges, queries.
//! * [`safety`] — scope/arity checking and the safety (range-restriction)
//!   judgment.
//! * [`eval`] — a direct evaluator: the reference semantics that the Codd
//!   translation in [`crate::codd`] is tested against. The engine never
//!   calls it; it runs the translation.

pub mod ast;
pub mod eval;
pub mod safety;

pub use ast::{Formula, Query, Range, Term};
pub use eval::eval_query;
pub use safety::check_query;
