//! Asking the big queries about itself: dial a `bqd`-style server and
//! read the engine's own state back as ordinary relations.
//!
//! ```text
//! cargo run --example introspect
//! ```
//!
//! This is also the CI smoke test for queryable introspection over the
//! wire: `bq.metrics` answers a plain select (and shows a point select's
//! reply costing exactly one socket write), `EXPLAIN ANALYZE` renders
//! per-operator runtime stats (rooted at the set build where a
//! projection's duplicates leave), and the query id from the client's last
//! `Done` frame joins `bq.slow_log` — one SQL query from a remote
//! client to the server-side operator timings.

use big_queries::prelude::*;
use std::sync::{Arc, RwLock};
use std::time::Duration;

fn main() {
    let db = Arc::new(RwLock::new(Db::new()));
    let server = serve(Arc::clone(&db), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    println!("serving on {addr}");

    let mut conn = connect(addr.to_string()).expect("connect");
    println!("connected: session {}", conn.session());

    conn.execute("create table emp (name str, dept str, sal int)")
        .expect("create");
    for stmt in [
        "insert into emp values ('ann', 'cs', 90)",
        "insert into emp values ('bob', 'ee', 70)",
        "insert into emp values ('cat', 'cs', 80)",
    ] {
        conn.execute(stmt).expect("insert");
    }

    // The system catalog answers through the normal SQL path, over the
    // wire: server-side metrics as a relation.
    match conn.execute("select m.name, m.value from bq.metrics m where m.kind = 'counter'") {
        Ok(Outcome::Rows(rel)) => {
            println!("bq.metrics over the wire: {} counters", rel.len());
            assert!(!rel.is_empty(), "a served engine has live counters");
        }
        other => panic!("expected rows from bq.metrics, got {other:?}"),
    }

    // The server counts the writes it hands its sockets, so writes per
    // reply is one query away. Each reply is one write, the reply that
    // carries the first reading included: between two readings the
    // counter moves by one for that reply and one for the point select.
    let socket_writes = |conn: &mut Connection| -> i64 {
        let sql = "select m.value from bq.metrics m where m.name = 'bq_server_socket_writes_total'";
        match conn.execute(sql) {
            Ok(Outcome::Rows(rel)) => match rel.iter().next().map(|t| t.get(0)) {
                Some(Value::Int(v)) => *v,
                other => panic!("expected the socket-write counter, got {other:?}"),
            },
            other => panic!("expected rows from bq.metrics, got {other:?}"),
        }
    };
    let before = socket_writes(&mut conn);
    conn.execute("select e.sal from emp e where e.name = 'bob'")
        .expect("point select");
    let point_select = socket_writes(&mut conn) - before - 1;
    println!("socket writes for one point select: {point_select}");
    assert_eq!(point_select, 1, "a point select's reply must be one write");

    // EXPLAIN ANALYZE runs the plan and annotates every operator with
    // rows, wall time, and memory charged against the governor budget.
    let analyzed = match conn.execute("explain analyze select e.name from emp e where e.sal > 75") {
        Ok(Outcome::Message(m)) => m,
        other => panic!("expected an analyzed plan, got {other:?}"),
    };
    println!("{analyzed}");
    assert!(analyzed.contains("SeqScan [emp]"), "{analyzed}");
    assert!(analyzed.contains("time="), "{analyzed}");
    assert!(analyzed.contains("mem="), "{analyzed}");

    // Set semantics are paid once: a projection's duplicates leave at the
    // set build that roots every plan, never at a distinct of their own.
    // emp's three rows hold two departments.
    let analyzed = match conn.execute("explain analyze select e.dept from emp e") {
        Ok(Outcome::Message(m)) => m,
        other => panic!("expected an analyzed plan, got {other:?}"),
    };
    println!("{analyzed}");
    let root = analyzed
        .lines()
        .find(|l| !l.starts_with(char::is_lowercase))
        .expect("a plan under the header");
    assert!(
        root.starts_with("SetBuild  (rows=2 in=3 "),
        "the root must be the set build, 3 rows in and 2 out:\n{analyzed}"
    );
    assert!(!analyzed.contains("HashDistinct"), "{analyzed}");

    // The `Done` frame carried the server's trace id for that statement;
    // join it back against the slow log with one more select.
    let qid = conn.last_query_id();
    let joined = match conn.execute(&format!(
        "select s.sql, s.elapsed_us from bq.slow_log s where s.query = {qid}"
    )) {
        Ok(Outcome::Rows(rel)) => rel,
        other => panic!("expected rows from bq.slow_log, got {other:?}"),
    };
    println!("bq.slow_log join on query {qid}: {} row", joined.len());
    assert_eq!(joined.len(), 1, "trace id did not join the slow log");

    // The catalog also sees this session itself.
    match conn.execute(&format!(
        "select s.peer, s.mode from bq.sessions s where s.session = {}",
        conn.session()
    )) {
        Ok(Outcome::Rows(rel)) => assert_eq!(rel.len(), 1, "session missing from bq.sessions"),
        other => panic!("expected rows from bq.sessions, got {other:?}"),
    }

    conn.close();
    server.shutdown(Duration::from_secs(2));
    println!("introspect: OK");
}
