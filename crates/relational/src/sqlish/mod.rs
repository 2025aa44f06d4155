//! A small SQL-ish surface syntax that compiles to relational algebra.
//!
//! The dialect covers exactly what the relational systems of the paper's era
//! demonstrated was enough to be useful: select/project/join/union/
//! except/intersect with boolean predicates, plus the statements that
//! create, fill and bracket the tables a select reads (`create table`,
//! `insert into`, `begin`/`commit`/`rollback`) and `explain analyze`.
//! It is the engine's one grammar: every door reads text through it.
//!
//! ```text
//! SELECT e.name, d.bldg AS building
//! FROM emp e, dept d
//! WHERE e.dept = d.dept AND e.sal > 75
//! ```
//!
//! * [`lexer`] — hand-written tokenizer.
//! * [`parser`] — recursive-descent parser: [`statement`] reads every
//!   statement a client sends, [`parse`] turns a select into
//!   [`crate::algebra::Expr`].

pub mod lexer;
pub mod parser;

pub use parser::{parse, statement, Statement};
