//! Structured span tracer: a guard API over a thread-local span stack and a
//! bounded global ring buffer of finished spans.
//!
//! Tracing is **off by default** and gated by one atomic load; when disabled
//! the [`span!`](crate::span) macro neither formats fields nor allocates.
//! When enabled, dropping a [`SpanGuard`] records a [`FinishedSpan`] with
//! its parent id (innermost enclosing span on the same thread), so the ring
//! can be reassembled into a flame tree with [`flame_text`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default capacity of the finished-span ring buffer.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Monotonic epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Ring {
    spans: VecDeque<FinishedSpan>,
    capacity: usize,
    dropped: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            spans: VecDeque::new(),
            capacity: DEFAULT_RING_CAPACITY,
            dropped: 0,
        })
    })
}

/// A completed span, as stored in the ring buffer.
#[derive(Debug, Clone)]
pub struct FinishedSpan {
    /// Unique id (process-wide, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Static span name (e.g. `"exec.hash_join"`).
    pub name: &'static str,
    /// Formatted key/value fields attached at creation.
    pub fields: Vec<(&'static str, String)>,
    /// Start time in microseconds since the tracer epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Turn tracing on or off. Spans opened while disabled are no-ops even if
/// tracing is enabled before they drop.
pub fn set_enabled(on: bool) {
    epoch(); // pin the epoch before the first span can be recorded
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is tracing currently enabled?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the tracer epoch. The sanctioned wall-clock for
/// layers that may not read [`std::time::Instant`] directly (elapsed-time
/// tracking in the running-query registry and the slow-query log).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Smallest capacity [`set_ring_capacity`] will accept.
pub const MIN_RING_CAPACITY: usize = 64;
/// Largest capacity [`set_ring_capacity`] will accept.
pub const MAX_RING_CAPACITY: usize = 65_536;

/// Rebound the finished-span ring. The capacity is clamped to
/// [`MIN_RING_CAPACITY`]..=[`MAX_RING_CAPACITY`] so introspection can
/// never configure an unbounded (or useless) ring; spans beyond the new
/// bound are evicted oldest-first and counted as dropped. Returns the
/// capacity actually applied.
pub fn set_ring_capacity(capacity: usize) -> usize {
    let capacity = capacity.clamp(MIN_RING_CAPACITY, MAX_RING_CAPACITY);
    let mut ring = ring().lock().expect("span ring poisoned");
    ring.capacity = capacity;
    while ring.spans.len() > capacity {
        ring.spans.pop_front();
        ring.dropped += 1;
    }
    capacity
}

/// Open a span with no fields. Prefer the [`span!`](crate::span) macro,
/// which skips field formatting when tracing is off.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Open a span with pre-formatted fields.
pub fn span_with(name: &'static str, fields: Vec<(&'static str, String)>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            fields,
            start: Instant::now(),
        }),
    }
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    fields: Vec<(&'static str, String)>,
    start: Instant,
}

/// RAII guard: records the span into the ring buffer on drop.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Id of this span (0 if tracing was disabled at creation).
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards are scope-shaped in practice, but tolerate out-of-order
            // drops by removing this id wherever it sits.
            if let Some(pos) = s.iter().rposition(|&id| id == active.id) {
                s.remove(pos);
            }
        });
        let finished = FinishedSpan {
            id: active.id,
            parent: active.parent,
            name: active.name,
            fields: active.fields,
            start_us: active.start.duration_since(epoch()).as_micros() as u64,
            dur_us: active.start.elapsed().as_micros() as u64,
        };
        let mut ring = ring().lock().expect("span ring poisoned");
        if ring.spans.len() >= ring.capacity {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
        ring.spans.push_back(finished);
    }
}

/// Drain and return all finished spans, plus the count dropped to the
/// ring's capacity bound since the last drain.
pub fn drain() -> (Vec<FinishedSpan>, u64) {
    let mut ring = ring().lock().expect("span ring poisoned");
    let spans = ring.spans.drain(..).collect();
    let dropped = ring.dropped;
    ring.dropped = 0;
    (spans, dropped)
}

/// Number of finished spans currently buffered.
pub fn buffered() -> usize {
    ring().lock().expect("span ring poisoned").spans.len()
}

/// Render spans as an indented flame-style text tree (children nested under
/// parents, siblings in start order).
pub fn flame_text(spans: &[FinishedSpan]) -> String {
    let mut out = String::new();
    let mut by_start: Vec<&FinishedSpan> = spans.iter().collect();
    by_start.sort_by_key(|s| (s.start_us, s.id));
    let roots: Vec<&FinishedSpan> = by_start
        .iter()
        .copied()
        .filter(|s| s.parent == 0 || !spans.iter().any(|p| p.id == s.parent))
        .collect();
    fn emit(out: &mut String, span: &FinishedSpan, all: &[&FinishedSpan], depth: usize) {
        let _ = write!(out, "{}{} {}us", "  ".repeat(depth), span.name, span.dur_us);
        for (k, v) in &span.fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for child in all.iter().filter(|c| c.parent == span.id) {
            emit(out, child, all, depth + 1);
        }
    }
    for root in &roots {
        emit(&mut out, root, &by_start, 0);
    }
    out
}

/// Render spans as a JSON array of flat objects.
pub fn spans_json(spans: &[FinishedSpan]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"fields\":{{",
            s.id, s.parent, s.name, s.start_us, s.dur_us
        );
        for (j, (k, v)) in s.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{k}\":\"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        out.push_str("}}");
    }
    out.push(']');
    out
}

/// Open a span, optionally with `key = value` fields. Field values are
/// formatted with `Display` **only when tracing is enabled** — keep them
/// cheap but don't fear them on hot paths.
///
/// ```
/// let _g = bq_obs::span!("stage");
/// let _g = bq_obs::span!("scan", table = "emp", rows = 42);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::tracer::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::tracer::enabled() {
            $crate::tracer::span_with(
                $name,
                vec![$((stringify!($key), format!("{}", $value))),+],
            )
        } else {
            $crate::tracer::span($name)
        }
    };
}

/// The tracer flag and span ring are process-global, so every test in this
/// crate that toggles or drains them serialises on this lock and starts
/// from a drained ring.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _s = serial();
        set_enabled(false);
        drain();
        {
            let g = span("noop");
            assert_eq!(g.id(), 0);
        }
        assert_eq!(buffered(), 0);
    }

    #[test]
    fn nesting_sets_parent_ids() {
        let _s = serial();
        set_enabled(true);
        drain();
        {
            let outer = span("outer");
            let outer_id = outer.id();
            {
                let inner = span!("inner", k = 7);
                assert_ne!(inner.id(), 0);
            }
            drop(outer);
            let (spans, dropped) = drain();
            assert_eq!(dropped, 0);
            assert_eq!(spans.len(), 2);
            let inner = spans.iter().find(|s| s.name == "inner").unwrap();
            let outer = spans.iter().find(|s| s.name == "outer").unwrap();
            assert_eq!(inner.parent, outer_id);
            assert_eq!(outer.parent, 0);
            assert_eq!(inner.fields, vec![("k", "7".to_string())]);
        }
        set_enabled(false);
    }

    #[test]
    fn flame_text_indents_children() {
        let _s = serial();
        set_enabled(true);
        drain();
        {
            let _outer = span("root_phase");
            let _inner = span("child_phase");
        }
        let (spans, _) = drain();
        set_enabled(false);
        let flame = flame_text(&spans);
        let lines: Vec<&str> = flame.lines().collect();
        assert!(lines[0].starts_with("root_phase "), "{flame}");
        assert!(lines[1].starts_with("  child_phase "), "{flame}");
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let _s = serial();
        set_enabled(true);
        drain();
        for _ in 0..(DEFAULT_RING_CAPACITY + 10) {
            let _g = span("filler");
        }
        let (spans, dropped) = drain();
        set_enabled(false);
        assert_eq!(spans.len(), DEFAULT_RING_CAPACITY);
        assert_eq!(dropped, 10);
    }

    #[test]
    fn ring_capacity_is_clamped_and_evicts_down() {
        let _s = serial();
        set_enabled(true);
        drain();
        assert_eq!(set_ring_capacity(1), MIN_RING_CAPACITY);
        assert_eq!(set_ring_capacity(usize::MAX), MAX_RING_CAPACITY);
        assert_eq!(set_ring_capacity(128), 128);
        for _ in 0..200 {
            let _g = span("filler");
        }
        // Shrinking evicts oldest-first and counts the evictions dropped.
        set_ring_capacity(MIN_RING_CAPACITY);
        let (spans, dropped) = drain();
        set_enabled(false);
        assert_eq!(spans.len(), MIN_RING_CAPACITY);
        assert_eq!(dropped as usize, 200 - MIN_RING_CAPACITY);
        set_ring_capacity(DEFAULT_RING_CAPACITY);
    }

    #[test]
    fn json_escapes_quotes() {
        let spans = vec![FinishedSpan {
            id: 1,
            parent: 0,
            name: "q",
            fields: vec![("sql", "select \"x\"".to_string())],
            start_us: 0,
            dur_us: 5,
        }];
        let json = spans_json(&spans);
        assert!(json.contains("\\\"x\\\""), "{json}");
    }
}
