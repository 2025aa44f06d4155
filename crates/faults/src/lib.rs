//! `bq-faults`: deterministic fault injection for the bq workspace.
//!
//! A process-global registry of **failpoints**: named sites compiled into
//! the engine crates (`fail_point!("wal.append.torn")`) that are inert by
//! default and can be armed at runtime with a per-site [`Policy`] — fire
//! always, on the nth hit, or with a seeded probability, and when fired
//! either return an error, panic, or corrupt bytes (the site decides what
//! each [`Action`] means locally).
//!
//! Design goals, mirroring `bq-obs`:
//!
//! * **std-only** — no dependencies beyond `bq-obs` (itself std-only); the
//!   probability trigger uses an inlined SplitMix64 step.
//! * **Deterministic** — every probabilistic site draws from its own
//!   SplitMix64 stream derived from the global seed ([`set_seed`]) and the
//!   FNV-1a hash of the site name, so schedules replay exactly regardless
//!   of how other sites interleave.
//! * **Zero overhead when disarmed** — [`hit`] first checks one relaxed
//!   atomic; with no site armed it returns without locking, and results
//!   are byte-identical to an uninstrumented run (enforced by
//!   `tests/crash_torture.rs`).
//! * **Observable** — every fire bumps `bq_faults_fired_total` plus a
//!   per-site counter in the `bq-obs` registry, so `.stats` shows which
//!   faults a torture run actually exercised.
//!
//! Unit tests inside library crates arm sites with
//! [`Scope::CallerThread`] so concurrently running tests in the same
//! binary never see each other's faults; harnesses that drive worker
//! pools (and the `bqsh` `.faults` command) use [`Scope::Global`].

use bq_util::{fnv1a64, Rng, SplitMix64};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;

/// What a fired failpoint asks the site to do. The site interprets the
/// action locally: `Error` means "return your typed error", `Panic` means
/// "unwind" (the macro does this for you), `Corrupt` means "mangle the
/// bytes you were about to write and carry on".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with the site's typed error.
    Error,
    /// Unwind the current thread (see [`panic_at`]).
    Panic,
    /// Corrupt the data in flight and continue.
    Corrupt,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Error => write!(f, "error"),
            Action::Panic => write!(f, "panic"),
            Action::Corrupt => write!(f, "corrupt"),
        }
    }
}

/// When an armed site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire exactly once, on the nth matching hit (1-based).
    Nth(u64),
    /// Fire with `pct`% probability per hit, drawn from the site's own
    /// seeded SplitMix64 stream.
    Prob(u32),
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Always => write!(f, "always"),
            Trigger::Nth(n) => write!(f, "nth={n}"),
            Trigger::Prob(p) => write!(f, "prob={p}"),
        }
    }
}

/// Which threads an armed site applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every hit in the process matches (worker pools, `bqsh`).
    Global,
    /// Only hits from the thread that called [`configure`] match; lets
    /// unit tests arm global state without poisoning parallel tests.
    CallerThread,
}

/// A full per-site policy: what to do, when, and for whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// What the site should do when the trigger fires.
    pub action: Action,
    /// When the site fires.
    pub trigger: Trigger,
    /// Which threads the policy applies to.
    pub scope: Scope,
}

impl Policy {
    /// A globally scoped policy.
    pub fn new(action: Action, trigger: Trigger) -> Policy {
        Policy {
            action,
            trigger,
            scope: Scope::Global,
        }
    }

    /// The same policy scoped to the configuring thread.
    pub fn caller_thread(mut self) -> Policy {
        self.scope = Scope::CallerThread;
        self
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.action, self.trigger)
    }
}

/// Parse the textual policy grammar used by `bqsh`'s `.faults on`:
/// `<action>@<trigger>` with action ∈ `error|panic|corrupt` and trigger ∈
/// `always | nth=<N> | prob=<pct>`. Always globally scoped.
pub fn parse_policy(s: &str) -> Result<Policy, String> {
    let (action, trigger) = s
        .split_once('@')
        .ok_or_else(|| format!("bad policy `{s}`: expected `<action>@<trigger>`"))?;
    let action = match action {
        "error" => Action::Error,
        "panic" => Action::Panic,
        "corrupt" => Action::Corrupt,
        other => {
            return Err(format!(
                "bad action `{other}`: expected error|panic|corrupt"
            ))
        }
    };
    let trigger = if trigger == "always" {
        Trigger::Always
    } else if let Some(n) = trigger.strip_prefix("nth=") {
        Trigger::Nth(
            n.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad nth `{n}`: expected a positive integer"))?,
        )
    } else if let Some(p) = trigger.strip_prefix("prob=") {
        Trigger::Prob(
            p.parse::<u32>()
                .ok()
                .filter(|&p| p <= 100)
                .ok_or_else(|| format!("bad prob `{p}`: expected a percentage 0..=100"))?,
        )
    } else {
        return Err(format!(
            "bad trigger `{trigger}`: expected always | nth=<N> | prob=<pct>"
        ));
    };
    Ok(Policy::new(action, trigger))
}

/// The catalog of failpoint sites compiled into the workspace, with what
/// each one simulates. `.faults list` and DESIGN.md §8 render this table;
/// keep it in sync when adding a `fail_point!`.
pub const CATALOG: &[(&str, &str)] = &[
    (
        "wal.append.torn",
        "WAL append writes only a prefix of the record (crash mid-append)",
    ),
    (
        "wal.sync.skip",
        "WAL fsync silently skipped; the batch stays volatile",
    ),
    (
        "page.write.bitflip",
        "one bit flips after a page is sealed (caught by the FNV checksum on read)",
    ),
    (
        "pool.writeback.fail",
        "dirty-frame writeback from the buffer pool to the store fails",
    ),
    (
        "exec.morsel.panic",
        "an executor worker panics mid-morsel (engine falls back to sequential)",
    ),
    (
        "governor.reserve.fail",
        "a memory-budget reservation is refused (deterministic out-of-memory)",
    ),
    (
        "server.conn.drop",
        "the server drops a client connection before reading the next frame",
    ),
    (
        "server.read.partial",
        "a server-side frame read returns only a prefix (truncated request)",
    ),
    (
        "server.write.partial",
        "a server-side frame write flushes only a prefix (truncated response)",
    ),
    (
        "core.slowlog.overflow",
        "the slow-query log refuses an entry as if its byte cap were hit",
    ),
    (
        "repl.segment.drop",
        "a shipped WAL segment is lost in flight (the replica's ack rewinds the stream)",
    ),
    (
        "repl.segment.dup",
        "a WAL segment is delivered twice (the replica must apply it once)",
    ),
    (
        "repl.segment.reorder",
        "a WAL segment is split and delivered out of order (gap refused, then healed)",
    ),
    (
        "repl.link.stall",
        "the replication link stalls before an acknowledgement goes out",
    ),
    (
        "repl.apply.crash",
        "the replica crashes mid-apply; a fresh replica must re-bootstrap",
    ),
    (
        "wal.append.enospc",
        "the WAL device is full; appends and fsyncs fail typed (transaction aborts, reads stay up)",
    ),
    (
        "backup.manifest.torn",
        "a backup manifest write is truncated (crash between archiving data and the manifest)",
    ),
    (
        "backup.segment.bitflip",
        "one bit flips in an archived WAL segment (the manifest checksum must catch it)",
    ),
    (
        "backup.crash",
        "the backup process dies after archiving data but before writing the manifest",
    ),
    (
        "backup.archive.enospc",
        "the archive device fills mid-archive; the backup aborts with a typed error",
    ),
    (
        "backup.restore.crash",
        "the restore process dies mid-apply; the partial engine is discarded, the source untouched",
    ),
];

/// One row of [`list`]: a configured site and its live counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteInfo {
    /// Site name (dotted path).
    pub site: String,
    /// Rendered policy (`corrupt@nth=3`).
    pub policy: String,
    /// Matching-scope hits since the site was armed.
    pub hits: u64,
    /// Times the trigger fired.
    pub fires: u64,
}

struct SiteState {
    policy: Policy,
    /// Arming thread, checked when `policy.scope == CallerThread`.
    thread: ThreadId,
    /// Stream for the `Prob` trigger.
    rng: SplitMix64,
    hits: u64,
    fires: u64,
    fired_counter: Arc<bq_obs::registry::Counter>,
}

#[derive(Default)]
struct Inner {
    sites: HashMap<String, SiteState>,
    seed: u64,
}

/// Number of armed sites; the lock-free fast path for [`hit`].
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> MutexGuard<'static, Inner> {
    static REG: OnceLock<Mutex<Inner>> = OnceLock::new();
    REG.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn site_rng(seed: u64, site: &str) -> SplitMix64 {
    // Step once so `seed ^ hash` collisions between (seed, site) pairs
    // don't produce identical streams.
    let mut rng = SplitMix64::seed_from_u64(seed ^ fnv1a64(site.as_bytes()));
    rng.next_u64();
    rng
}

fn fired_counter(site: &str) -> Arc<bq_obs::registry::Counter> {
    // Leaked names are bounded by the (static) catalog of sites ever
    // configured; the registry itself requires `&'static str`.
    let name: &'static str = Box::leak(
        format!("bq_faults_fired_{}_total", site.replace(['.', '-'], "_")).into_boxed_str(),
    );
    bq_obs::global().counter(name, "fires of one failpoint site")
}

/// Set the global fault seed. Reseeds the probability stream of every
/// armed site and of every site configured afterwards, so a whole
/// schedule replays from one number.
pub fn set_seed(seed: u64) {
    let mut reg = registry();
    reg.seed = seed;
    for (site, state) in reg.sites.iter_mut() {
        state.rng = site_rng(seed, site);
    }
}

/// Arm `site` with `policy` (replacing any previous policy and zeroing
/// its counters).
pub fn configure(site: &str, policy: Policy) {
    let counter = fired_counter(site);
    let mut reg = registry();
    let rng = site_rng(reg.seed, site);
    let prev = reg.sites.insert(
        site.to_string(),
        SiteState {
            policy,
            thread: std::thread::current().id(),
            rng,
            hits: 0,
            fires: 0,
            fired_counter: counter,
        },
    );
    if prev.is_none() {
        // relaxed: ARMED is a hint — the registry mutex is the truth;
        // a stale fast-path read just takes the slow path once.
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarm `site`. No-op if it was not armed.
pub fn off(site: &str) {
    let mut reg = registry();
    if reg.sites.remove(site).is_some() {
        // relaxed: hint counter, see configure().
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Disarm every site. The global seed is kept.
pub fn reset() {
    let mut reg = registry();
    let n = reg.sites.len();
    reg.sites.clear();
    // relaxed: hint counter, see configure().
    ARMED.fetch_sub(n, Ordering::Relaxed);
}

/// True when at least one site is armed (the fast-path check [`hit`]
/// uses; exposed for tests of the zero-overhead claim).
pub fn armed() -> bool {
    // relaxed: fast-path hint; arming a site on another thread becomes
    // visible at the registry mutex, not here.
    ARMED.load(Ordering::Relaxed) > 0
}

/// Evaluate a failpoint site: count the hit and, if the site is armed,
/// in scope, and its trigger fires, return the action to take. This is
/// the function the [`fail_point!`] macro wraps; call it directly when
/// the site needs to corrupt bytes in place rather than return.
pub fn hit(site: &str) -> Option<Action> {
    // relaxed: fast-path hint, see armed().
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let mut reg = registry();
    let state = reg.sites.get_mut(site)?;
    if state.policy.scope == Scope::CallerThread && state.thread != std::thread::current().id() {
        return None;
    }
    state.hits += 1;
    let fired = match state.policy.trigger {
        Trigger::Always => true,
        Trigger::Nth(n) => state.hits == n,
        Trigger::Prob(pct) => state.rng.next_u64() % 100 < u64::from(pct),
    };
    if !fired {
        return None;
    }
    state.fires += 1;
    state.fired_counter.inc();
    let action = state.policy.action;
    drop(reg);
    bq_obs::counter!("bq_faults_fired_total", "failpoint fires across all sites").inc();
    Some(action)
}

/// Times `site` has fired since it was (re)armed. 0 when not armed.
pub fn fire_count(site: &str) -> u64 {
    registry().sites.get(site).map_or(0, |s| s.fires)
}

/// Matching-scope hits at `site` since it was (re)armed. 0 when not armed.
pub fn hit_count(site: &str) -> u64 {
    registry().sites.get(site).map_or(0, |s| s.hits)
}

/// Snapshot of every armed site, sorted by name.
pub fn list() -> Vec<SiteInfo> {
    let reg = registry();
    let mut out: Vec<SiteInfo> = reg
        .sites
        .iter()
        .map(|(site, s)| SiteInfo {
            site: site.clone(),
            policy: s.policy.to_string(),
            hits: s.hits,
            fires: s.fires,
        })
        .collect();
    out.sort_by(|a, b| a.site.cmp(&b.site));
    out
}

/// Unwind the current thread for a fired [`Action::Panic`].
///
/// Uses `resume_unwind` rather than `panic!` so the global panic hook
/// does not spam stderr for every one of the hundreds of injected panics
/// a torture run performs; catchers see a `String` payload.
pub fn panic_at(site: &str) -> ! {
    std::panic::resume_unwind(Box::new(format!(
        "failpoint `{site}` fired: injected panic"
    )))
}

/// Declare a failpoint site.
///
/// `fail_point!("site")` — when fired with [`Action::Panic`], unwinds;
/// other actions are ignored (a site that only makes sense as a panic).
///
/// `fail_point!("site", |action| expr)` — when fired with
/// [`Action::Panic`], unwinds; otherwise evaluates `expr` (usually an
/// `Err(...)`) and **returns it from the enclosing function**. Sites that
/// corrupt bytes in place call [`hit`] directly instead.
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        if let Some(__bq_action) = $crate::hit($site) {
            if __bq_action == $crate::Action::Panic {
                $crate::panic_at($site);
            }
        }
    };
    ($site:expr, $handler:expr) => {
        if let Some(__bq_action) = $crate::hit($site) {
            if __bq_action == $crate::Action::Panic {
                $crate::panic_at($site);
            }
            #[allow(clippy::redundant_closure_call)]
            return ($handler)(__bq_action);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global; every test serializes and leaves
    /// it clean.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        let g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        g
    }

    #[test]
    fn disarmed_sites_are_inert_and_lock_free() {
        let _g = serial();
        assert!(!armed());
        assert_eq!(hit("wal.append.torn"), None);
        assert_eq!(fire_count("wal.append.torn"), 0);
        reset();
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _g = serial();
        configure("t.nth", Policy::new(Action::Error, Trigger::Nth(3)));
        let fires: Vec<bool> = (0..6).map(|_| hit("t.nth").is_some()).collect();
        assert_eq!(fires, vec![false, false, true, false, false, false]);
        assert_eq!(fire_count("t.nth"), 1);
        assert_eq!(hit_count("t.nth"), 6);
        reset();
    }

    #[test]
    fn always_trigger_fires_every_time() {
        let _g = serial();
        configure("t.always", Policy::new(Action::Corrupt, Trigger::Always));
        assert!((0..5).all(|_| hit("t.always") == Some(Action::Corrupt)));
        assert_eq!(fire_count("t.always"), 5);
        reset();
    }

    #[test]
    fn prob_trigger_is_deterministic_under_a_seed() {
        let _g = serial();
        let run = || -> Vec<bool> {
            set_seed(99);
            configure("t.prob", Policy::new(Action::Error, Trigger::Prob(30)));
            (0..64).map(|_| hit("t.prob").is_some()).collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f), "~30%: {a:?}");

        set_seed(100);
        configure("t.prob", Policy::new(Action::Error, Trigger::Prob(30)));
        let c: Vec<bool> = (0..64).map(|_| hit("t.prob").is_some()).collect();
        assert_ne!(a, c, "different seed, different schedule");
        reset();
    }

    #[test]
    fn sites_draw_independent_streams() {
        let _g = serial();
        set_seed(7);
        configure("t.a", Policy::new(Action::Error, Trigger::Prob(50)));
        configure("t.b", Policy::new(Action::Error, Trigger::Prob(50)));
        let a: Vec<bool> = (0..64).map(|_| hit("t.a").is_some()).collect();
        let b: Vec<bool> = (0..64).map(|_| hit("t.b").is_some()).collect();
        assert_ne!(a, b, "per-site streams must differ");
        reset();
    }

    #[test]
    fn caller_thread_scope_ignores_other_threads() {
        let _g = serial();
        configure(
            "t.scoped",
            Policy::new(Action::Error, Trigger::Always).caller_thread(),
        );
        assert_eq!(hit("t.scoped"), Some(Action::Error));
        let other = std::thread::spawn(|| hit("t.scoped")).join().unwrap();
        assert_eq!(other, None, "other threads are out of scope");
        assert_eq!(hit_count("t.scoped"), 1, "foreign hits are not counted");
        reset();
    }

    #[test]
    fn policy_grammar_roundtrips() {
        let _g = serial();
        for s in ["error@always", "panic@nth=2", "corrupt@prob=25"] {
            assert_eq!(parse_policy(s).unwrap().to_string(), s);
        }
        assert!(parse_policy("explode@always").is_err());
        assert!(parse_policy("error@nth=0").is_err());
        assert!(parse_policy("error@prob=101").is_err());
        assert!(parse_policy("error").is_err());
        assert!(parse_policy("error@sometimes").is_err());
    }

    #[test]
    fn fail_point_macro_returns_through_the_handler() {
        let _g = serial();
        fn guarded() -> Result<u32, String> {
            fail_point!("t.macro", |_| Err("injected".to_string()));
            Ok(7)
        }
        assert_eq!(guarded(), Ok(7));
        configure("t.macro", Policy::new(Action::Error, Trigger::Always));
        assert_eq!(guarded(), Err("injected".to_string()));
        off("t.macro");
        assert_eq!(guarded(), Ok(7));
        reset();
    }

    #[test]
    fn panic_action_unwinds_and_is_catchable() {
        let _g = serial();
        configure("t.panic", Policy::new(Action::Panic, Trigger::Always));
        let caught = std::panic::catch_unwind(|| {
            fail_point!("t.panic");
        });
        let payload = caught.expect_err("must unwind");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("t.panic"), "{msg}");
        reset();
    }

    #[test]
    fn list_reports_armed_sites_and_counts() {
        let _g = serial();
        configure("t.x", Policy::new(Action::Error, Trigger::Nth(1)));
        hit("t.x");
        let rows = list();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].site, "t.x");
        assert_eq!(rows[0].policy, "error@nth=1");
        assert_eq!((rows[0].hits, rows[0].fires), (1, 1));
        reset();
        assert!(list().is_empty());
        assert!(!armed());
    }

    #[test]
    fn fires_land_in_the_obs_registry() {
        let _g = serial();
        let before = bq_obs::global().snapshot();
        configure("t.obs", Policy::new(Action::Error, Trigger::Always));
        hit("t.obs");
        hit("t.obs");
        let after = bq_obs::global().snapshot();
        assert!(after.get("bq_faults_fired_total") - before.get("bq_faults_fired_total") >= 2);
        assert!(
            after.get("bq_faults_fired_t_obs_total") - before.get("bq_faults_fired_t_obs_total")
                >= 2
        );
        reset();
    }

    #[test]
    fn catalog_names_every_wired_site() {
        // The catalog is the documentation surface; spot-check shape.
        assert!(CATALOG.len() >= 8);
        for (site, desc) in CATALOG {
            assert!(site.contains('.'), "{site}");
            assert!(!desc.is_empty());
        }
    }
}
