//! Decoding is total for every binary format: the wire protocol, the WAL,
//! backup manifests, the tuple codec and replica snapshots (a header and
//! WAL records, applied through `Db::apply_record`). Any input
//! either decodes or returns a typed error — no panic, no abort — and no
//! decode allocates more than a small multiple of the bytes it was given.
//!
//! Two parts. First, four inputs that once aborted the process by asking
//! the allocator for tens of gigabytes on the strength of a forged count.
//! Then a fixed-seed sweep over valid encodings of all five formats: every
//! truncation, every single-bit flip, and every four-byte window raised
//! to `u32::MAX` (which covers every count and length field). A counting
//! allocator measures each decode's peak live bytes on its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use big_queries::bq_backup::{BackupError, BackupKind, Manifest};
use big_queries::bq_core::codec;
use big_queries::bq_relational::Tuple;
use big_queries::bq_server::wire::{self, MAX_FRAME, SUBSCRIBE_BOOTSTRAP};
use big_queries::bq_server::{ErrorCode, QueryInfo, Request, Response};
use big_queries::bq_storage::{LogRecord, PageId, Wal};
use big_queries::bq_util::{Rng, SplitMix64};
use big_queries::prelude::*;

// ------------------------------------------------------------------
// Peak-allocation accounting, per thread
// ------------------------------------------------------------------

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn grow(by: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + by;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(by: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(by)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f`, returning its result and the most bytes it held live at once
/// beyond what this thread held before.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// The allocation a decode of `len` input bytes may make: a fixed
/// multiple of the input, plus room for an applied snapshot's empty
/// pages and registries.
fn budget(len: usize) -> usize {
    64 * len + (1 << 20)
}

// ------------------------------------------------------------------
// The four inputs that aborted the process
// ------------------------------------------------------------------

#[test]
fn forged_counts_return_typed_errors_instead_of_aborting() {
    // A tuple claiming u32::MAX values.
    assert!(matches!(
        codec::decode(&[0xff; 4]),
        Err(big_queries::bq_core::CoreError::Codec(_))
    ));

    // The same four bytes as the one row of a `Rows` frame.
    let mut frame = vec![0x83, 1, 0, 0, 0, 4, 0, 0, 0];
    frame.extend_from_slice(&[0xff; 4]);
    assert_eq!(frame.len(), 13);
    let err = Response::decode(&frame).unwrap_err();
    assert!(err.0.contains("row codec"), "{err}");

    // A checkpoint record claiming u32::MAX transactions is a torn tail:
    // nothing decoded, nothing consumed.
    let (recs, consumed) = Wal::decode_stream(&[5, 0xff, 0xff, 0xff, 0xff]).unwrap();
    assert!(recs.is_empty());
    assert_eq!(consumed, 0);

    // A snapshot (version, `next_txn`, WAL horizon) whose one record, a
    // `CreateTable`, claims u32::MAX columns: a torn record, refused.
    let mut snap = vec![2];
    snap.extend_from_slice(&0u64.to_le_bytes());
    snap.extend_from_slice(&0u64.to_le_bytes());
    snap.push(6);
    snap.extend_from_slice(&1u32.to_le_bytes());
    snap.push(b't');
    snap.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(snap.len(), 27);
    let mut db = Db::new();
    assert!(matches!(
        db.apply_snapshot(&snap),
        Err(big_queries::bq_core::CoreError::Codec(_))
    ));
}

#[test]
fn a_frame_header_alone_does_not_size_the_body_buffer() {
    // A header claiming the largest legal body, then EOF: the reader
    // reports a short body without first asking for 16 MiB.
    let header = (MAX_FRAME as u32).to_le_bytes();
    let (err, peak) = peak_of(|| wire::read_frame(&mut &header[..]).unwrap_err());
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(
        peak <= budget(header.len()),
        "{peak} bytes for a 4-byte header"
    );

    // Every truncation of a real frame is refused the same way, in budget.
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &[0x42; 300]).unwrap();
    sweep("frame", &[frame], |b| {
        if let Ok(body) = wire::read_frame(&mut &b[..]) {
            assert!(body.len() < b.len());
        }
    });
}

// ------------------------------------------------------------------
// Seeded valid encodings
// ------------------------------------------------------------------

fn text(rng: &mut SplitMix64) -> String {
    let len = rng.gen_index(6);
    (0..len)
        .map(|_| *rng.choose(&['a', 'b', 'z', 'é', '∀', '_']))
        .collect()
}

fn value(rng: &mut SplitMix64) -> Value {
    match rng.gen_index(4) {
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::Str(text(rng)),
        2 => Value::Bool(rng.gen_bool()),
        _ => Value::Null(rng.gen_range(8) as u32),
    }
}

fn tuple(rng: &mut SplitMix64) -> Tuple {
    let arity = rng.gen_index(5);
    Tuple::new((0..arity).map(|_| value(rng)).collect())
}

fn request(rng: &mut SplitMix64, op: usize) -> Request {
    let opt = |rng: &mut SplitMix64| rng.gen_bool().then(|| rng.next_u64());
    match op {
        0 => Request::Hello {
            version: rng.gen_range(3) as u32,
            client: text(rng),
        },
        1 => Request::Query { sql: text(rng) },
        2 => Request::Prepare { sql: text(rng) },
        3 => Request::Execute {
            stmt: rng.next_u64(),
        },
        4 => Request::Kill {
            query: rng.next_u64(),
        },
        5 => Request::SetLimits {
            limits: SessionLimits {
                memory_bytes: opt(rng),
                deadline_ms: opt(rng),
                max_iterations: opt(rng),
            },
        },
        6 => Request::SetMode {
            mode: if rng.gen_bool() {
                ExecMode::Sequential
            } else {
                ExecMode::Parallel(1 + rng.gen_index(8))
            },
        },
        7 => Request::ListQueries,
        8 => Request::Close,
        9 => Request::QueryTagged {
            sql: text(rng),
            request: rng.next_u64(),
        },
        10 => Request::Subscribe {
            start: SUBSCRIBE_BOOTSTRAP,
        },
        _ => Request::ReplAck {
            through: rng.next_u64(),
        },
    }
}

fn response(rng: &mut SplitMix64, op: usize) -> Response {
    let blob = |rng: &mut SplitMix64| -> Vec<u8> {
        (0..rng.gen_index(12))
            .map(|_| rng.next_u64() as u8)
            .collect()
    };
    match op {
        0 => Response::HelloOk {
            version: 1,
            session: rng.next_u64(),
        },
        1 => Response::RowSchema {
            cols: (0..rng.gen_index(4))
                .map(|_| (text(rng), *rng.choose(&[Type::Int, Type::Str, Type::Bool])))
                .collect(),
        },
        2 => Response::Rows {
            tuples: (0..rng.gen_index(4)).map(|_| tuple(rng)).collect(),
        },
        3 => Response::Done {
            rows: rng.next_u64(),
            query: rng.next_u64(),
            message: text(rng),
        },
        4 => Response::Prepared {
            stmt: rng.next_u64(),
        },
        5 => Response::Killed {
            found: rng.gen_bool(),
        },
        6 => Response::Queries {
            entries: (0..rng.gen_index(3))
                .map(|_| QueryInfo {
                    query: rng.next_u64(),
                    session: rng.next_u64(),
                    sql: text(rng),
                })
                .collect(),
        },
        7 => Response::Ok { message: text(rng) },
        8 => Response::Error {
            code: ErrorCode::from_u8(rng.gen_range(23) as u8),
            message: text(rng),
        },
        9 => Response::Snapshot { bytes: blob(rng) },
        10 => Response::WalSegment {
            start: rng.next_u64(),
            bytes: blob(rng),
        },
        _ => Response::GoingAway { message: text(rng) },
    }
}

fn log_record(rng: &mut SplitMix64, tag: usize) -> LogRecord {
    let txn = rng.gen_range(100);
    match tag {
        0 => LogRecord::Begin(txn),
        1 => LogRecord::Commit(txn),
        2 => LogRecord::Abort(txn),
        3 => LogRecord::Checkpoint((0..rng.gen_index(4)).map(|_| rng.gen_range(50)).collect()),
        4 => LogRecord::CreateTable {
            name: text(rng),
            cols: (0..rng.gen_index(4))
                .map(|_| (text(rng), rng.gen_range(3) as u8))
                .collect(),
        },
        5 => LogRecord::RowInsert {
            txn,
            page: PageId(rng.gen_range(9) as u32),
            slot: rng.gen_range(40) as u16,
            table: text(rng),
            bytes: codec::encode(&tuple(rng)),
        },
        6 => LogRecord::TaggedCommit {
            txn,
            client: text(rng),
            request: rng.next_u64(),
        },
        _ => LogRecord::CreateIndex {
            table: text(rng),
            column: text(rng),
        },
    }
}

fn manifest(rng: &mut SplitMix64) -> Manifest {
    Manifest {
        seq: rng.gen_range(1000),
        kind: if rng.gen_bool() {
            BackupKind::Full
        } else {
            BackupKind::Incremental
        },
        wal_start: rng.gen_range(1 << 20),
        wal_end: rng.gen_range(1 << 20),
        object: format!("{:08}.seg", rng.gen_range(1000)),
        object_len: rng.next_u64(),
        object_fnv: rng.next_u64() as u32,
        fingerprint: rng.next_u64(),
    }
}

/// A small engine with two tables, an index, a tagged commit and, half
/// the time, a transaction left open.
fn snapshot(rng: &mut SplitMix64) -> Vec<u8> {
    let mut db = Db::new();
    db.create_table("t", &[("k", Type::Int), ("s", Type::Str)])
        .unwrap();
    db.create_table("u", &[("b", Type::Bool)]).unwrap();
    for _ in 0..1 + rng.gen_index(3) {
        let k = rng.gen_range(100) as i64;
        db.insert("t", vec![Value::Int(k), Value::Str(text(rng))])
            .unwrap();
    }
    db.insert("u", vec![Value::Bool(rng.gen_bool())]).unwrap();
    db.create_index("t", "k").unwrap();
    let h = db.begin().unwrap();
    db.insert_in(h, "t", vec![Value::Int(-1), Value::str("tag")])
        .unwrap();
    db.commit_tagged(h, "c", rng.gen_range(9)).unwrap();
    if rng.gen_bool() {
        let open = db.begin().unwrap();
        db.insert_in(open, "u", vec![Value::Bool(true)]).unwrap();
    }
    db.snapshot_bytes().unwrap()
}

// ------------------------------------------------------------------
// The sweep
// ------------------------------------------------------------------

/// Every truncation, every single-bit flip, and every four-byte window
/// set to `u32::MAX`, each with a label for failure messages.
fn mutations(valid: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for len in 0..valid.len() {
        out.push((format!("truncated to {len}"), valid[..len].to_vec()));
    }
    for i in 0..valid.len() {
        for bit in 0..8 {
            let mut m = valid.to_vec();
            m[i] ^= 1 << bit;
            out.push((format!("bit {bit} of byte {i} flipped"), m));
        }
    }
    for i in 0..valid.len().saturating_sub(3) {
        let mut m = valid.to_vec();
        m[i..i + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        if m != valid {
            out.push((format!("bytes {i}..{} set to u32::MAX", i + 4), m));
        }
    }
    out
}

/// Feed every mutation of every sample to `decode`, asserting it returns
/// (the caller's closure checks what it returned) within budget.
fn sweep(format: &str, samples: &[Vec<u8>], mut decode: impl FnMut(&[u8])) -> usize {
    let mut runs = 0;
    for valid in samples {
        for (what, input) in mutations(valid) {
            let ((), peak) = peak_of(|| decode(&input));
            assert!(
                peak <= budget(input.len()),
                "{format}: {what} of {} allocated {peak} bytes for {} input bytes",
                hex(valid),
                input.len()
            );
            runs += 1;
        }
    }
    runs
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const SEED: u64 = 20261015;

#[test]
fn wire_frames_decode_or_refuse_within_budget() {
    let mut rng = SplitMix64::seed_from_u64(SEED);
    let requests: Vec<Vec<u8>> = (0..24)
        .map(|i| request(&mut rng, i % 12).encode())
        .collect();
    let responses: Vec<Vec<u8>> = (0..24)
        .map(|i| response(&mut rng, i % 12).encode())
        .collect();
    let runs = sweep("request", &requests, |b| {
        let _ = Request::decode(b);
    }) + sweep("response", &responses, |b| {
        let _ = Response::decode(b);
    });
    assert!(runs > 5_000, "{runs}");
}

#[test]
fn wal_streams_decode_a_prefix_or_refuse_within_budget() {
    let mut rng = SplitMix64::seed_from_u64(SEED ^ 1);
    let streams: Vec<Vec<u8>> = (0..8)
        .map(|_| {
            (0..8)
                .flat_map(|tag| log_record(&mut rng, tag).encode())
                .collect()
        })
        .collect();
    let runs = sweep("wal", &streams, |b| {
        if let Ok((_, consumed)) = Wal::decode_stream(b) {
            assert!(consumed <= b.len());
        }
    });
    // A truncated stream is its whole-record prefix, never an error.
    for stream in &streams {
        let recs = Wal::decode_stream(stream).unwrap().0;
        for len in 0..stream.len() {
            let (prefix, consumed) = Wal::decode_stream(&stream[..len]).unwrap();
            assert!(consumed <= len);
            assert_eq!(prefix[..], recs[..prefix.len()]);
        }
    }
    assert!(runs > 5_000, "{runs}");
}

#[test]
fn manifests_refuse_every_mutation_typed_within_budget() {
    let mut rng = SplitMix64::seed_from_u64(SEED ^ 2);
    let samples: Vec<Vec<u8>> = (0..8).map(|_| manifest(&mut rng).encode()).collect();
    sweep("manifest", &samples, |b| {
        assert!(matches!(
            Manifest::decode("m", b),
            Err(BackupError::TornManifest { .. })
        ));
    });
}

#[test]
fn tuples_decode_or_refuse_within_budget() {
    let mut rng = SplitMix64::seed_from_u64(SEED ^ 3);
    let samples: Vec<Vec<u8>> = (0..32).map(|_| codec::encode(&tuple(&mut rng))).collect();
    sweep("tuple", &samples, |b| {
        let _ = codec::decode(b);
    });
}

#[test]
fn snapshots_apply_or_refuse_within_budget() {
    let mut rng = SplitMix64::seed_from_u64(SEED ^ 4);
    let samples: Vec<Vec<u8>> = (0..3).map(|_| snapshot(&mut rng)).collect();
    let mut replica = Db::new();
    sweep("snapshot", &samples, |b| {
        // A refused image leaves the engine as it was.
        let before = replica.content_fingerprint();
        if replica.apply_snapshot(b).is_err() {
            assert_eq!(replica.content_fingerprint(), before);
        }
    });
}
