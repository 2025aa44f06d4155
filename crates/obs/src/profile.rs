//! Per-query profiles: one statement's wall time, plan, metric deltas, and
//! span flame, bundled into a renderable/serialisable value.
//!
//! The plan is stored pre-rendered (a `String`) so this crate stays below
//! `bq-exec` in the dependency order — the caller renders its `ExecStats`
//! tree and hands us the text.

use crate::registry::{delta_json, global, Snapshot};
use crate::tracer::{self, FinishedSpan};
use std::fmt::Write as _;
use std::time::Instant;

/// An in-flight profile capture: snapshot + span drain bracket around one
/// statement.
pub struct ProfileSession {
    statement: String,
    query: u64,
    before: Snapshot,
    was_tracing: bool,
    start: Instant,
}

impl ProfileSession {
    /// Begin profiling `statement`: snapshot the global registry, enable
    /// tracing, and clear any stale spans out of the ring.
    pub fn start(statement: impl Into<String>) -> ProfileSession {
        ProfileSession::start_with_query(statement, 0)
    }

    /// [`start`](ProfileSession::start), tagging the profile with the
    /// statement's trace/query id (0 means untagged).
    pub fn start_with_query(statement: impl Into<String>, query: u64) -> ProfileSession {
        let was_tracing = tracer::enabled();
        tracer::set_enabled(true);
        tracer::drain();
        ProfileSession {
            statement: statement.into(),
            query,
            before: global().snapshot(),
            was_tracing,
            start: Instant::now(),
        }
    }

    /// Finish: collect deltas and spans into a [`QueryProfile`]. Restores
    /// the tracing flag to its pre-session state. `plan` is the rendered
    /// `ExecStats` tree (or empty for non-query statements).
    pub fn finish(self, plan: String) -> QueryProfile {
        let wall_us = self.start.elapsed().as_micros() as u64;
        let (spans, dropped_spans) = tracer::drain();
        tracer::set_enabled(self.was_tracing);
        QueryProfile {
            statement: self.statement,
            query: self.query,
            wall_us,
            plan,
            deltas: self.before.delta(&global().snapshot()),
            spans,
            dropped_spans,
        }
    }
}

/// The complete observability record of one executed statement.
#[derive(Debug)]
pub struct QueryProfile {
    /// The statement text as submitted.
    pub statement: String,
    /// Trace/query id the statement ran under (0 if untagged).
    pub query: u64,
    /// End-to-end wall time in microseconds.
    pub wall_us: u64,
    /// Rendered physical-plan/stats tree (empty if not applicable).
    pub plan: String,
    /// Nonzero metric changes during execution, sorted by name.
    pub deltas: Vec<(String, i64)>,
    /// Spans recorded during execution.
    pub spans: Vec<FinishedSpan>,
    /// Spans lost to the ring-buffer bound during execution.
    pub dropped_spans: u64,
}

impl QueryProfile {
    /// Human-readable multi-section rendering for the shell.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "-- profile: {}", self.statement);
        if self.query != 0 {
            let _ = writeln!(out, "query: {}", self.query);
        }
        let _ = writeln!(out, "wall: {}us", self.wall_us);
        if !self.plan.is_empty() {
            let _ = writeln!(out, "plan:");
            for line in self.plan.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        if !self.deltas.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, d) in &self.deltas {
                let _ = writeln!(out, "  {name} {d:+}");
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "spans:");
            for line in tracer::flame_text(&self.spans).lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        if self.dropped_spans > 0 {
            let _ = writeln!(
                out,
                "(dropped {} spans at ring capacity)",
                self.dropped_spans
            );
        }
        out
    }

    /// JSON rendering (single object).
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"statement\":\"{}\",\"query\":{},\"wall_us\":{},\"plan\":\"{}\",\"deltas\":{},\"dropped_spans\":{},\"spans\":{}",
            escape(&self.statement),
            self.query,
            self.wall_us,
            escape(&self.plan),
            delta_json(&self.deltas),
            self.dropped_spans,
            tracer::spans_json(&self.spans),
        );
        out.push('}');
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_captures_deltas_and_spans() {
        let _s = tracer::serial();
        let session = ProfileSession::start("select 1");
        crate::counter!("bq_obs_profile_selftest_total", "profile self-test").add(5);
        {
            let _g = crate::span!("profiled_phase", step = 1);
        }
        let profile = session.finish("SeqScan t".to_string());
        assert_eq!(profile.statement, "select 1");
        assert!(profile
            .deltas
            .iter()
            .any(|(n, d)| n == "bq_obs_profile_selftest_total" && *d == 5));
        assert!(profile.spans.iter().any(|s| s.name == "profiled_phase"));

        let text = profile.render();
        assert!(text.contains("-- profile: select 1"), "{text}");
        assert!(text.contains("SeqScan t"), "{text}");
        assert!(text.contains("bq_obs_profile_selftest_total +5"), "{text}");
        assert!(text.contains("profiled_phase"), "{text}");

        let json = profile.json();
        assert!(json.contains("\"statement\":\"select 1\""), "{json}");
        assert!(json.contains("\"profiled_phase\""), "{json}");
    }

    #[test]
    fn finish_restores_tracing_state() {
        let _s = tracer::serial();
        tracer::set_enabled(false);
        let session = ProfileSession::start("x");
        assert!(tracer::enabled());
        session.finish(String::new());
        assert!(!tracer::enabled());
    }
}
