//! The benchmark's own span recorder and a counting allocator.
//!
//! Spans are recorded from *outside* the engine: the traced run wraps its
//! calls into each layer's public functions in [`Recorder::span`]. Spans
//! stay in memory and are dumped when the workload ends. A layer's self
//! time is its span's duration minus what its child spans cover.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::Instant;

/// One recorded interval. Spans of one replayed operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub op: u64,
}

/// An in-memory span recorder. Each thread owns its own;
/// [`Recorder::merge`] folds a worker's spans into the main one.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`, so recorders of
    /// several threads share one time axis.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Start the next operation: spans recorded from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Run `f` inside a span named `name`, nested under the span that is
    /// currently open on this recorder.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's spans, keeping their parent links and
    /// giving their operations ids distinct from this recorder's.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        let op_base = self.op;
        self.op += other.op;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.op += op_base;
            s
        }));
    }

    /// Self time of every span: duration minus the part covered by its
    /// direct children, grouped by span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(covered) {
            out.entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns).saturating_sub(child_ns));
        }
        out
    }

    /// Total self time per layer (the span-name prefix before the first
    /// `.`), in nanoseconds.
    pub fn layer_rollup(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, times) in self.self_times() {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += times.iter().sum::<u64>();
        }
        out
    }

    /// The trace file: the per-layer roll-up and every span.
    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "layer_self_ns",
                Json::obj(
                    self.layer_rollup()
                        .into_iter()
                        .map(|(k, v)| (k, Json::Num(v as f64))),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("op", Json::Num(s.op as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A `#[global_allocator]` that counts live heap bytes while
/// [`CountingAlloc::window`] is open. Outside a window it adds one relaxed
/// load per call and touches no shared counter, so the timed phases — which
/// never run inside a window — do not contend on it.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);

impl CountingAlloc {
    /// Run `f` (single-threaded set-up code) and return its result with the
    /// net heap bytes it left allocated.
    pub fn window<T>(f: impl FnOnce() -> T) -> (T, u64) {
        LIVE.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        let out = f();
        COUNTING.store(false, Ordering::SeqCst);
        (out, LIVE.load(Ordering::SeqCst).max(0) as u64)
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics and never
// influence which pointer is returned or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_rolls_up_by_layer() {
        let mut rec = Recorder::new(Instant::now());
        rec.next_op();
        rec.span("op", |rec| {
            rec.span("wire.encode", |_| std::hint::black_box(1 + 1));
            rec.span("exec.run", |rec| {
                rec.span("exec.scan", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        let selfs = rec.self_times();
        let scan = selfs["exec.scan"][0];
        assert!(scan >= 2_000_000);
        // The parent's self time no longer contains the sleeping child.
        assert!(selfs["exec.run"][0] < 1_000_000, "{selfs:?}");
        assert!(selfs["op"][0] < 1_000_000, "{selfs:?}");
        let layers = rec.layer_rollup();
        assert!(layers["exec"] >= scan);
        assert!(layers.contains_key("wire") && layers.contains_key("op"));
        let dumped = rec.to_json("w");
        assert_eq!(dumped.get("spans").unwrap().as_arr().len(), 4);
    }

    #[test]
    fn merge_keeps_parent_links_and_separates_ops() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.next_op();
        a.span("a", |_| ());
        let mut b = Recorder::new(epoch);
        b.next_op();
        b.span("b", |rec| rec.span("b.child", |_| ()));
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].op, 2);
        assert_eq!(a.next_op(), 3);
    }
}
