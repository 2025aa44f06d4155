//! Golden-byte pins for every binary format the engine writes: the wire
//! protocol (one encoding per request and response opcode), the WAL (one
//! record per tag), the backup manifest, the tuple codec (every `Value`
//! kind) and a replica-bootstrap snapshot.
//!
//! The suites beside each codec only round-trip, and a round trip stays
//! green when encoder and decoder drift together. These compare against
//! bytes written down once, so a format change must show up here as an
//! edited literal. Every pin also decodes its literal back, so decoders
//! are held to the same bytes. The integrity values the formats carry or
//! depend on — page checksums, content fingerprints, plan fingerprints —
//! and the failpoint schedule a seeded torture run replays are pinned the
//! same way.
//!
//! A mismatch prints every failing pin with its actual bytes at once.

use big_queries::bq_backup::{BackupKind, Manifest};
use big_queries::bq_core::codec;
use big_queries::bq_core::slowlog::plan_fingerprint;
use big_queries::bq_exec::ExecStats;
use big_queries::bq_faults::{self as faults, Action, Policy, Trigger};
use big_queries::bq_relational::Tuple;
use big_queries::bq_server::wire::SUBSCRIBE_BOOTSTRAP;
use big_queries::bq_server::{ErrorCode, QueryInfo, Request, Response};
use big_queries::bq_storage::{LogRecord, Page, PageId, Wal};
use big_queries::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Compare every `(name, actual, expected)` and fail once, listing all
/// mismatches with their actual values.
fn check(pins: &[(&str, String, &str)]) {
    let bad: Vec<String> = pins
        .iter()
        .filter(|(_, actual, expected)| actual != expected)
        .map(|(name, actual, _)| format!("  {name}: {actual}"))
        .collect();
    assert!(bad.is_empty(), "pins moved:\n{}", bad.join("\n"));
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "Hello",
            Request::Hello {
                version: 1,
                client: "bqsh".into(),
            },
        ),
        (
            "Query",
            Request::Query {
                sql: "select 1".into(),
            },
        ),
        ("Prepare", Request::Prepare { sql: "p".into() }),
        ("Execute", Request::Execute { stmt: 7 }),
        ("Kill", Request::Kill { query: 9 }),
        (
            "SetLimits",
            Request::SetLimits {
                limits: SessionLimits {
                    memory_bytes: Some(1 << 20),
                    deadline_ms: None,
                    max_iterations: Some(3),
                },
            },
        ),
        (
            "SetMode",
            Request::SetMode {
                mode: ExecMode::Parallel(4),
            },
        ),
        ("ListQueries", Request::ListQueries),
        ("Close", Request::Close),
        (
            "QueryTagged",
            Request::QueryTagged {
                sql: "q".into(),
                request: 17,
            },
        ),
        (
            "Subscribe",
            Request::Subscribe {
                start: SUBSCRIBE_BOOTSTRAP,
            },
        ),
        ("ReplAck", Request::ReplAck { through: 4096 }),
    ]
}

const REQUESTS: &[&str] = &[
    // Hello
    "0142515750010000000400000062717368",
    // Query
    "020800000073656c6563742031",
    // Prepare
    "030100000070",
    // Execute
    "040700000000000000",
    // Kill
    "050900000000000000",
    // SetLimits
    "0601000010000000000000010300000000000000",
    // SetMode
    "070104000000",
    // ListQueries
    "08",
    // Close
    "09",
    // QueryTagged
    "0a01000000711100000000000000",
    // Subscribe
    "0bffffffffffffffff",
    // ReplAck
    "0c0010000000000000",
];

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        (
            "HelloOk",
            Response::HelloOk {
                version: 1,
                session: 42,
            },
        ),
        (
            "RowSchema",
            Response::RowSchema {
                cols: vec![
                    ("a".into(), Type::Int),
                    ("b".into(), Type::Str),
                    ("c".into(), Type::Bool),
                ],
            },
        ),
        (
            "Rows",
            Response::Rows {
                tuples: vec![
                    Tuple::new(vec![Value::Int(-1), Value::str("é")]),
                    Tuple::new(vec![Value::Null(2), Value::Bool(true)]),
                ],
            },
        ),
        (
            "Done",
            Response::Done {
                rows: 2,
                query: 9,
                message: "ok".into(),
            },
        ),
        ("Prepared", Response::Prepared { stmt: 3 }),
        ("Killed", Response::Killed { found: true }),
        (
            "Queries",
            Response::Queries {
                entries: vec![QueryInfo {
                    query: 1,
                    session: 2,
                    sql: "s".into(),
                }],
            },
        ),
        (
            "Ok",
            Response::Ok {
                message: "bye".into(),
            },
        ),
        (
            "Error",
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "shed".into(),
            },
        ),
        (
            "Snapshot",
            Response::Snapshot {
                bytes: vec![1, 2, 3],
            },
        ),
        (
            "WalSegment",
            Response::WalSegment {
                start: 8,
                bytes: vec![0xab, 0xcd],
            },
        ),
        (
            "GoingAway",
            Response::GoingAway {
                message: "drain".into(),
            },
        ),
    ]
}

const RESPONSES: &[&str] = &[
    // HelloOk
    "81010000002a00000000000000",
    // RowSchema
    "8203000000010000006100010000006201010000006302",
    // Rows
    "8302000000140000000200000001ffffffffffffffff0202000000c3a90b0000000200000004020000000301",
    // Done
    "8402000000000000000900000000000000020000006f6b",
    // Prepared
    "850300000000000000",
    // Killed
    "8601",
    // Queries
    "8701000000010000000000000002000000000000000100000073",
    // Ok
    "8803000000627965",
    // Error
    "890e0400000073686564",
    // Snapshot
    "8a03000000010203",
    // WalSegment
    "8b080000000000000002000000abcd",
    // GoingAway
    "8c05000000647261696e",
];

fn log_records() -> Vec<(&'static str, LogRecord)> {
    vec![
        ("Begin", LogRecord::Begin(1)),
        ("Commit", LogRecord::Commit(2)),
        ("Abort", LogRecord::Abort(3)),
        (
            "Update",
            LogRecord::Update {
                txn: 4,
                page: PageId(5),
                offset: 6,
                before: b"ab".to_vec(),
                after: b"cd".to_vec(),
            },
        ),
        ("Checkpoint", LogRecord::Checkpoint(vec![7, 8])),
        (
            "CreateTable",
            LogRecord::CreateTable {
                name: "t".into(),
                cols: vec![("a".into(), 0), ("b".into(), 1)],
            },
        ),
        (
            "RowInsert",
            LogRecord::RowInsert {
                txn: 9,
                page: PageId(1),
                slot: 2,
                table: "t".into(),
                bytes: vec![1, 2, 3],
            },
        ),
        (
            "TaggedCommit",
            LogRecord::TaggedCommit {
                txn: 10,
                client: "c".into(),
                request: 11,
            },
        ),
    ]
}

const LOG_RECORDS: &[&str] = &[
    // Begin
    "010100000000000000",
    // Commit
    "020200000000000000",
    // Abort
    "030300000000000000",
    // Update
    "0404000000000000000500000006000000020000000200000061626364",
    // Checkpoint
    "050200000007000000000000000800000000000000",
    // CreateTable
    "06010000007402000000010000006100010000006201",
    // RowInsert
    "0709000000000000000100000002000000010000007403000000010203",
    // TaggedCommit
    "080a0000000000000001000000630b00000000000000",
];

#[test]
fn every_request_opcode_encodes_to_its_pinned_bytes() {
    let reqs = requests();
    assert_eq!(reqs.len(), REQUESTS.len());
    let pins: Vec<_> = reqs
        .iter()
        .zip(REQUESTS)
        .map(|((name, req), expected)| (*name, hex(&req.encode()), *expected))
        .collect();
    check(&pins);
    for ((name, req), expected) in reqs.iter().zip(REQUESTS) {
        assert_eq!(&Request::decode(&unhex(expected)).unwrap(), req, "{name}");
    }
}

#[test]
fn every_response_opcode_encodes_to_its_pinned_bytes() {
    let resps = responses();
    assert_eq!(resps.len(), RESPONSES.len());
    let pins: Vec<_> = resps
        .iter()
        .zip(RESPONSES)
        .map(|((name, resp), expected)| (*name, hex(&resp.encode()), *expected))
        .collect();
    check(&pins);
    for ((name, resp), expected) in resps.iter().zip(RESPONSES) {
        assert_eq!(&Response::decode(&unhex(expected)).unwrap(), resp, "{name}");
    }
}

#[test]
fn every_log_record_tag_encodes_to_its_pinned_bytes() {
    let recs = log_records();
    assert_eq!(recs.len(), LOG_RECORDS.len());
    let pins: Vec<_> = recs
        .iter()
        .zip(LOG_RECORDS)
        .map(|((name, rec), expected)| (*name, hex(&rec.encode()), *expected))
        .collect();
    check(&pins);
    let stream: Vec<u8> = LOG_RECORDS.iter().flat_map(|h| unhex(h)).collect();
    let (back, consumed) = Wal::decode_stream(&stream).unwrap();
    assert_eq!(consumed, stream.len());
    assert_eq!(back, recs.into_iter().map(|(_, r)| r).collect::<Vec<_>>());
}

#[test]
fn a_manifest_encodes_to_its_pinned_bytes() {
    let m = Manifest {
        seq: 3,
        kind: BackupKind::Incremental,
        wal_start: 128,
        wal_end: 512,
        object: "00000003.seg".into(),
        object_len: 384,
        object_fnv: 0x1234_5678,
        fingerprint: 0xdead_beef_cafe_f00d,
    };
    let expected = concat!(
        "4251424b01030000000000000001800000000000000000020000000000000c00",
        "000030303030303030332e7365678001000000000000785634120df0fecaefbe",
        "adde641815e3",
    );
    check(&[("Manifest", hex(&m.encode()), expected)]);
    assert_eq!(Manifest::decode("m", &unhex(expected)).unwrap(), m);
}

#[test]
fn a_tuple_of_every_value_kind_encodes_to_its_pinned_bytes() {
    let t = Tuple::new(vec![
        Value::Int(-42),
        Value::str("héllo"),
        Value::Bool(true),
        Value::Bool(false),
        Value::Null(7),
        Value::str(""),
    ]);
    let expected = "0600000001d6ffffffffffffff020600000068c3a96c6c6f0301030004070000000200000000";
    check(&[("Tuple", hex(&codec::encode(&t)), expected)]);
    assert_eq!(codec::decode(&unhex(expected)).unwrap(), t);
}

/// Two tables, an index, a committed tagged write (a dedup entry) and a
/// transaction left open with a pending row.
fn snapshot_db() -> Db {
    let mut db = Db::new();
    db.create_table("emp", &[("name", Type::Str), ("sal", Type::Int)])
        .unwrap();
    db.create_table("dept", &[("name", Type::Str), ("open", Type::Bool)])
        .unwrap();
    db.insert("emp", vec![Value::str("ann"), Value::Int(90)])
        .unwrap();
    db.insert("emp", vec![Value::str("bob"), Value::Int(70)])
        .unwrap();
    db.insert("dept", vec![Value::str("cs"), Value::Bool(true)])
        .unwrap();
    db.create_index("emp", "sal").unwrap();
    let h = db.begin().unwrap();
    db.insert_in(h, "dept", vec![Value::str("ee"), Value::Bool(false)])
        .unwrap();
    db.commit_tagged(h, "client-a", 5).unwrap();
    let open = db.begin().unwrap();
    db.insert_in(open, "emp", vec![Value::str("eve"), Value::Int(80)])
        .unwrap();
    db
}

#[test]
fn a_snapshot_encodes_to_its_pinned_bytes() {
    let mut db = snapshot_db();
    let bytes = db.snapshot_bytes().unwrap();
    let expected = concat!(
        "01060000000000000002000000040000006465707402000000040000006e616d",
        "6501040000006f70656e02020000000d00000002000000020200000063730301",
        "0d0000000200000002020000006565030003000000656d700200000004000000",
        "6e616d65010300000073616c000200000015000000020000000203000000616e",
        "6e015a0000000000000015000000020000000203000000626f62014600000000",
        "0000000100000005000000000000000100000003000000656d70150000000200",
        "000002030000006576650150000000000000000100000003000000656d700300",
        "000073616c0100000008000000636c69656e742d610100000005000000000000",
        "008801000000000000",
    );
    check(&[
        ("Snapshot", hex(&bytes), expected),
        (
            "content_fingerprint",
            format!("{:016x}", db.content_fingerprint()),
            "dd158a83d30f1c3b",
        ),
    ]);
    let mut replica = Db::new();
    assert_eq!(
        replica.apply_snapshot(&unhex(expected)).unwrap(),
        db.wal_durable_len()
    );
    assert_eq!(replica.content_fingerprint(), db.content_fingerprint());
    assert!(replica.has_index("emp", "sal"));
    assert!(replica.seen_request("client-a", 5));
    // Re-exported, the image differs only in its trailing WAL horizon:
    // the replica's own log starts empty.
    let again = replica.snapshot_bytes().unwrap();
    assert_eq!(again[..again.len() - 8], bytes[..bytes.len() - 8]);
}

#[test]
fn page_checksums_and_plan_fingerprints_are_pinned() {
    let mut page = Page::new();
    page.payload_mut()[..3].copy_from_slice(b"abc");
    page.set_lsn(0x0102_0304);
    page.seal();
    let leaf = |op: &str| ExecStats {
        op: op.to_string(),
        ..ExecStats::default()
    };
    let plan = ExecStats {
        children: vec![leaf("SeqScan [emp]"), leaf("SeqScan [dept]")],
        ..leaf("PartitionedHashJoin [e.d = d.d]")
    };
    check(&[
        (
            "page checksum",
            format!("{:08x}", page.checksums().0),
            "a4a810b1",
        ),
        (
            "empty page checksum",
            format!("{:08x}", Page::new().checksums().1),
            "eb8c5b75",
        ),
        (
            "plan_fingerprint",
            format!("{:016x}", plan_fingerprint(&plan)),
            "db7736445ae1a46e",
        ),
    ]);
}

#[test]
fn a_seeded_failpoint_schedule_is_pinned() {
    let site = "wal.sync.skip";
    faults::set_seed(20260805);
    faults::configure(
        site,
        Policy::new(Action::Error, Trigger::Prob(50)).caller_thread(),
    );
    let fired = (0..64).fold(0u64, |acc, i| {
        acc | (u64::from(faults::hit(site).is_some()) << i)
    });
    faults::off(site);
    check(&[(
        "Prob(50) under seed 20260805",
        format!("{fired:016x}"),
        "4490f068b9b9b502",
    )]);
}
