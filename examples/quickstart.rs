//! Quickstart: the `big-queries` facade in five minutes.
//!
//! Creates a small employee database, then runs the same question through
//! every query surface the relational model offers — SQL-ish text,
//! relational algebra, tuple calculus (translated to algebra by Codd's
//! Theorem), and Datalog — and finishes with a transaction that aborts and
//! a crash that recovers.
//!
//! Run with: `cargo run --example quickstart`

use big_queries::prelude::*;
use bq_relational::algebra::expr::{Expr, Predicate};
use bq_relational::calculus::ast::{Formula, Query, Term};
use bq_relational::codd::calculus_to_algebra;
use bq_relational::value::CmpOp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Db::new();

    // ---- DDL + data ------------------------------------------------
    db.create_table(
        "emp",
        &[("name", Type::Str), ("dept", Type::Str), ("sal", Type::Int)],
    )?;
    db.create_table("dept", &[("dept", Type::Str), ("bldg", Type::Int)])?;
    for (n, d, s) in [
        ("ann", "cs", 90),
        ("bob", "cs", 70),
        ("eve", "ee", 80),
        ("joe", "ee", 95),
    ] {
        db.insert("emp", vec![Value::str(n), Value::str(d), Value::Int(s)])?;
    }
    for (d, b) in [("cs", 1), ("ee", 2)] {
        db.insert("dept", vec![Value::str(d), Value::Int(b)])?;
    }

    // ---- 1. SQL-ish ------------------------------------------------
    let sql = db.sql(
        "select e.name, d.bldg from emp e, dept d \
         where e.dept = d.dept and e.sal > 75",
    )?;
    println!("SQL-ish answer:\n{sql}");

    // ---- 2. Relational algebra -------------------------------------
    let algebra = Expr::rel("emp")
        .natural_join(Expr::rel("dept"))
        .select(Predicate::cmp(
            bq_relational::algebra::expr::Operand::attr("sal"),
            CmpOp::Gt,
            bq_relational::algebra::expr::Operand::Const(Value::Int(75)),
        ))
        .project(&["name", "bldg"]);
    let alg_out = db.algebra(&algebra)?;
    println!("Algebra {algebra}\nanswers:\n{alg_out}");

    // ---- 3. Tuple calculus, via Codd's Theorem ---------------------
    let calculus = Query::new(
        &[("e", "emp"), ("d", "dept")],
        &[("e", "name", "name"), ("d", "bldg", "bldg")],
        Formula::cmp(Term::attr("e", "dept"), CmpOp::Eq, Term::attr("d", "dept")).and(
            Formula::cmp(
                Term::attr("e", "sal"),
                CmpOp::Gt,
                Term::Const(Value::Int(75)),
            ),
        ),
    );
    let via_engine = db.calculus(&calculus)?;
    let translated = calculus_to_algebra(&calculus, db.catalog())?;
    let via_algebra = db.algebra(&translated)?;
    println!("Calculus {calculus}");
    println!(
        "  the engine's optimized plan and the bare Codd translation agree: {}",
        via_engine == via_algebra
    );
    assert_eq!(via_engine.tuples(), sql.tuples());

    // ---- 4. Datalog -------------------------------------------------
    let colleagues = db.datalog(
        "colleague(X, Y) :- emp(X, D, S1), emp(Y, D, S2), X != Y.",
        "colleague(ann, X)",
    )?;
    println!("ann's colleagues: {colleagues:?}");

    // ---- 5. Transactions + crash recovery ---------------------------
    let t = db.begin()?;
    db.insert_in(
        t,
        "emp",
        vec![Value::str("zoe"), Value::str("cs"), Value::Int(60)],
    )?;
    db.abort(t)?; // changed our mind
    assert_eq!(db.row_count("emp")?, 4);

    let t2 = db.begin()?;
    db.insert_in(
        t2,
        "emp",
        vec![Value::str("sam"), Value::str("ee"), Value::Int(85)],
    )?;
    // Crash before commit: recovery rolls `sam` back.
    let losers = db.simulate_crash_and_recover()?;
    println!("recovery rolled back transactions {losers:?}");
    assert_eq!(db.row_count("emp")?, 4);

    // ---- 6. Observability -------------------------------------------
    // Everything above left footprints in the global metrics registry;
    // the same text is available in the shell via `.stats`.
    println!("-- metrics after this session --");
    println!("{}", db.metrics_text());

    println!("quickstart OK");
    Ok(())
}
