//! Two-phase commit — the "distributed concurrency control and systems
//! (including some almost purely PODC material)" strand of §6.
//!
//! A deterministic message-level simulation with failure injection:
//! the coordinator collects votes (phase 1), logs a decision, and
//! broadcasts it (phase 2). Crashed participants recover by asking the
//! coordinator's log. The simulation exhibits the protocol's two defining
//! theorems: **atomicity** (all-or-nothing among participants that reach
//! an outcome) and **blocking** (a participant prepared when the
//! coordinator dies stays in doubt).

/// A participant's terminal (or stuck) state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PState {
    /// Voted yes and never learned the outcome (coordinator died): the
    /// classic blocked state.
    InDoubt,
    /// Applied the commit decision.
    Committed,
    /// Applied the abort decision.
    Aborted,
}

/// Failure injection per participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crash {
    /// Healthy throughout.
    None,
    /// Crashes before voting (coordinator times out → abort).
    BeforeVote,
    /// Crashes after voting yes; recovers later and asks the coordinator.
    AfterVote,
}

/// The global decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Unanimous yes.
    Commit,
    /// Some no vote, timeout, or coordinator-side abort.
    Abort,
    /// Coordinator crashed before logging a decision.
    None,
}

/// Scenario configuration.
#[derive(Debug, Clone)]
pub struct TwoPcConfig {
    /// Each participant's vote (true = yes), consulted if it doesn't
    /// crash before voting.
    pub votes: Vec<bool>,
    /// Failure injection per participant (same length as `votes`).
    pub crashes: Vec<Crash>,
    /// Coordinator crashes after collecting votes but before broadcasting
    /// (and, if it had not logged, before logging) the decision.
    pub coordinator_crashes: bool,
    /// Did the coordinator manage to force-log the decision before
    /// crashing? (Only meaningful with `coordinator_crashes`.)
    pub decision_logged: bool,
}

/// Outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoPcOutcome {
    /// The coordinator's logged decision.
    pub decision: Decision,
    /// Final state of every participant (after recovery where possible).
    pub states: Vec<PState>,
    /// Messages exchanged (prepare + votes + decisions + recovery asks).
    pub messages: usize,
}

/// Run the protocol.
pub fn run_2pc(config: &TwoPcConfig) -> TwoPcOutcome {
    assert_eq!(config.votes.len(), config.crashes.len());
    let n = config.votes.len();
    let mut messages = 0;

    // Phase 1: PREPARE broadcast + vote collection.
    messages += n; // prepare messages
    let mut votes: Vec<Option<bool>> = Vec::with_capacity(n);
    for i in 0..n {
        match config.crashes[i] {
            Crash::BeforeVote => votes.push(None), // timeout
            _ => {
                messages += 1; // vote message
                votes.push(Some(config.votes[i]));
            }
        }
    }
    let unanimous_yes = votes.iter().all(|v| *v == Some(true));

    // Coordinator decision point.
    let decision = if config.coordinator_crashes && !config.decision_logged {
        Decision::None
    } else if unanimous_yes {
        Decision::Commit
    } else {
        Decision::Abort
    };

    // Phase 2: decision broadcast (skipped if the coordinator crashed).
    let broadcast = !config.coordinator_crashes;
    let mut states = Vec::with_capacity(n);
    for (&crash_mode, &vote) in config.crashes.iter().zip(votes.iter()).take(n) {
        let state = match (crash_mode, vote) {
            // Never voted: aborts unilaterally on recovery (it is not
            // prepared, so it is free to).
            (Crash::BeforeVote, _) => PState::Aborted,
            // Voted no: knows the outcome must be abort.
            (_, Some(false)) => PState::Aborted,
            // Voted yes: needs the decision.
            (crash, Some(true)) => {
                let learns = if broadcast {
                    messages += 1; // decision message
                    true
                } else if crash == Crash::AfterVote || decision != Decision::None {
                    // Recovery protocol: ask the coordinator's log. A
                    // logged decision answers; an unlogged one cannot.
                    messages += 1; // recovery enquiry
                    decision != Decision::None
                } else {
                    messages += 1;
                    false
                };
                if !learns {
                    PState::InDoubt
                } else if decision == Decision::Commit {
                    PState::Committed
                } else {
                    PState::Aborted
                }
            }
            // lint: allow(panic) the match above covers every vote-less crash point
            (_, None) => unreachable!("only BeforeVote yields no vote"),
        };
        states.push(state);
    }

    bq_obs::counter!("bq_txn_2pc_runs_total", "2PC protocol runs").inc();
    bq_obs::counter!("bq_txn_2pc_messages_total", "2PC messages exchanged").add(messages as u64);
    // Phase 1 (prepare + votes) always runs; phase 2 only when broadcast.
    bq_obs::counter!("bq_txn_2pc_rounds_total", "2PC phases executed").add(if broadcast {
        2
    } else {
        1
    });

    TwoPcOutcome {
        decision,
        states,
        messages,
    }
}

/// Atomicity check: no mix of committed and aborted outcomes.
pub fn is_atomic(outcome: &TwoPcOutcome) -> bool {
    let committed = outcome.states.contains(&PState::Committed);
    let aborted = outcome.states.contains(&PState::Aborted);
    !(committed && aborted)
}

/// Retry/backoff parameters for [`run_2pc_reliable`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Resends attempted per message beyond the first.
    pub max_retries: u32,
    /// Ticks waited before the first retry; doubles each retry
    /// (exponential backoff in simulated time).
    pub base_backoff_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_backoff_ticks: 1,
        }
    }
}

/// Delivery stats accumulated by a reliable run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Message resends forced by losses.
    pub retries: u64,
    /// Simulated ticks spent backing off between resends.
    pub backoff_ticks: u64,
    /// Messages dropped by the `twopc.msg.drop` failpoint.
    pub dropped: u64,
    /// Messages duplicated by the `twopc.msg.dup` failpoint.
    pub duplicated: u64,
    /// Recovery enquiries answered from the coordinator's decision log.
    pub enquiries: u64,
}

/// One message send over the faulty network.
///
/// Failpoints: `twopc.msg.drop` loses the message (caller must retry);
/// `twopc.msg.dup` delivers it twice (receivers must be idempotent).
/// Returns whether the message arrived at all.
fn send(messages: &mut usize, stats: &mut DeliveryStats) -> bool {
    *messages += 1;
    if bq_faults::hit("twopc.msg.drop").is_some() {
        stats.dropped += 1;
        bq_obs::counter!(
            "bq_txn_2pc_msgs_dropped_total",
            "2PC messages lost to faults"
        )
        .inc();
        return false;
    }
    if bq_faults::hit("twopc.msg.dup").is_some() {
        stats.duplicated += 1;
        *messages += 1;
        bq_obs::counter!(
            "bq_txn_2pc_msgs_duplicated_total",
            "2PC messages delivered twice"
        )
        .inc();
    }
    true
}

/// Phase 1: PREPARE each participant until a vote arrives or retries
/// exhaust. A participant down before voting never answers; the
/// coordinator's timeout then counts as a NO. Returns the collected votes
/// and, per participant, whether it crashed immediately after a YES
/// (prepared, in the dark — the `twopc.participant.crash` failpoint or
/// [`Crash::AfterVote`]).
fn collect_votes(
    config: &TwoPcConfig,
    policy: &RetryPolicy,
    messages: &mut usize,
    stats: &mut DeliveryStats,
) -> (Vec<Option<bool>>, Vec<bool>) {
    let n = config.votes.len();
    let mut votes: Vec<Option<bool>> = Vec::with_capacity(n);
    let mut crashed_after_vote: Vec<bool> = vec![false; n];
    for (i, crashed) in crashed_after_vote.iter_mut().enumerate() {
        let mut vote = None;
        for attempt in 0..=policy.max_retries {
            if attempt > 0 {
                back_off(attempt, policy, stats);
            }
            if !send(messages, stats) {
                continue; // prepare lost
            }
            if config.crashes[i] == Crash::BeforeVote {
                continue; // delivered to a dead participant: no reply
            }
            if !send(messages, stats) {
                continue; // vote reply lost
            }
            vote = Some(config.votes[i]);
            break;
        }
        if vote == Some(true)
            && (config.crashes[i] == Crash::AfterVote
                || bq_faults::hit("twopc.participant.crash").is_some())
        {
            *crashed = true;
        }
        votes.push(vote);
    }
    (votes, crashed_after_vote)
}

/// Account for one retry round: exponential backoff then a resend.
fn back_off(attempt: u32, policy: &RetryPolicy, stats: &mut DeliveryStats) {
    stats.retries += 1;
    let wait = policy.base_backoff_ticks << (attempt - 1).min(16);
    stats.backoff_ticks += wait;
    bq_obs::counter!("bq_txn_2pc_retries_total", "2PC message resends").inc();
    bq_obs::counter!(
        "bq_txn_2pc_backoff_ticks_total",
        "simulated ticks spent in 2PC backoff"
    )
    .add(wait);
}

/// Run 2PC with a *reliable* coordinator: every message is retried up to
/// [`RetryPolicy::max_retries`] times with exponential backoff, receivers
/// are idempotent (duplicates are harmless), and a prepared participant
/// that never hears the decision falls back to a recovery enquiry against
/// the coordinator's persistent decision log.
///
/// With those three mechanisms, message drops (`twopc.msg.drop`),
/// duplications (`twopc.msg.dup`), and participant crashes between
/// prepare and commit (`twopc.participant.crash`) can delay but never
/// split the outcome: every participant that reaches a terminal state
/// agrees with the logged decision. Only the classic blocking case — the
/// coordinator crashing before logging — leaves yes-voters in doubt.
/// [`run_2pc_durable`] closes that last gap by forcing the decision to a
/// [`CoordinatorLog`] before any broadcast.
pub fn run_2pc_reliable(
    config: &TwoPcConfig,
    policy: &RetryPolicy,
) -> (TwoPcOutcome, DeliveryStats) {
    assert_eq!(config.votes.len(), config.crashes.len());
    let n = config.votes.len();
    let mut messages = 0;
    let mut stats = DeliveryStats::default();

    let (votes, crashed_after_vote) = collect_votes(config, policy, &mut messages, &mut stats);
    let unanimous_yes = votes.iter().all(|v| *v == Some(true));

    let decision = if config.coordinator_crashes && !config.decision_logged {
        Decision::None
    } else if unanimous_yes {
        Decision::Commit
    } else {
        Decision::Abort
    };

    // Phase 2: broadcast with retries; fall back to recovery enquiry.
    let mut states = Vec::with_capacity(n);
    for i in 0..n {
        let state = match votes[i] {
            // Never prepared: free to abort unilaterally on recovery.
            None => PState::Aborted,
            Some(false) => PState::Aborted,
            Some(true) => {
                let mut learned = false;
                if !config.coordinator_crashes && !crashed_after_vote[i] {
                    for attempt in 0..=policy.max_retries {
                        if attempt > 0 {
                            back_off(attempt, policy, &mut stats);
                        }
                        if send(&mut messages, &mut stats) {
                            learned = true;
                            break;
                        }
                    }
                }
                if !learned && decision != Decision::None {
                    // Prepared and still in the dark (losses exhausted the
                    // retries, the participant was down for the broadcast,
                    // or the coordinator died after logging): the recovery
                    // protocol asks the coordinator's decision log.
                    messages += 1;
                    stats.enquiries += 1;
                    bq_obs::counter!(
                        "bq_txn_2pc_enquiries_total",
                        "2PC recovery enquiries answered from the decision log"
                    )
                    .inc();
                    learned = true;
                }
                if !learned {
                    PState::InDoubt
                } else if decision == Decision::Commit {
                    PState::Committed
                } else {
                    PState::Aborted
                }
            }
        };
        states.push(state);
    }

    bq_obs::counter!("bq_txn_2pc_runs_total", "2PC protocol runs").inc();
    bq_obs::counter!("bq_txn_2pc_messages_total", "2PC messages exchanged").add(messages as u64);

    (
        TwoPcOutcome {
            decision,
            states,
            messages,
        },
        stats,
    )
}

/// The coordinator's durable decision log.
///
/// A decision is only effective once [`CoordinatorLog::force`] returns:
/// the write-ahead discipline applied to 2PC. Recovery reads follow
/// **presumed abort** — a transaction with no record was never decided,
/// so it is safe to abort it (no participant can have committed, because
/// commit is only ever broadcast after the force).
#[derive(Debug, Default)]
pub struct CoordinatorLog {
    records: std::collections::HashMap<u64, Decision>,
}

impl CoordinatorLog {
    /// An empty log.
    pub fn new() -> CoordinatorLog {
        CoordinatorLog::default()
    }

    /// Force-write `decision` for transaction `txn`. Once this returns,
    /// the decision survives any coordinator crash.
    pub fn force(&mut self, txn: u64, decision: Decision) {
        self.records.insert(txn, decision);
        bq_obs::counter!(
            "bq_txn_2pc_decisions_forced_total",
            "2PC decisions force-logged before broadcast"
        )
        .inc();
    }

    /// Recovery read. A missing record means the coordinator crashed
    /// before deciding: presumed abort.
    pub fn read(&self, txn: u64) -> Decision {
        match self.records.get(&txn) {
            Some(d) => *d,
            None => Decision::Abort,
        }
    }

    /// Number of forced records (for tests and torture assertions).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Run 2PC with a coordinator that **force-logs the decision before
/// broadcasting** it. This closes the blocking window that
/// [`run_2pc_reliable`] documents: even when the coordinator crashes at
/// its worst moment (`coordinator_crashes`, which in this variant strikes
/// *after* the force — there is no protocol state in which a decision
/// exists but is not logged), every prepared participant can recover by
/// asking the log. A coordinator that dies *before* deciding leaves no
/// record, and recovery resolves the transaction by presumed abort.
/// `config.decision_logged` is ignored: the discipline makes it always
/// true. No participant ever ends [`PState::InDoubt`].
pub fn run_2pc_durable(
    config: &TwoPcConfig,
    policy: &RetryPolicy,
    log: &mut CoordinatorLog,
    txn: u64,
) -> (TwoPcOutcome, DeliveryStats) {
    assert_eq!(config.votes.len(), config.crashes.len());
    let n = config.votes.len();
    let mut messages = 0;
    let mut stats = DeliveryStats::default();

    let (votes, crashed_after_vote) = collect_votes(config, policy, &mut messages, &mut stats);
    let unanimous_yes = votes.iter().all(|v| *v == Some(true));

    // Decide, then FORCE the log before a single decision message leaves.
    let decision = if unanimous_yes {
        Decision::Commit
    } else {
        Decision::Abort
    };
    log.force(txn, decision);

    // Phase 2: broadcast with retries unless the coordinator is down; any
    // prepared participant still in the dark recovers from the log, which
    // now always answers.
    let mut states = Vec::with_capacity(n);
    for i in 0..n {
        let state = match votes[i] {
            None => PState::Aborted,
            Some(false) => PState::Aborted,
            Some(true) => {
                let mut learned = false;
                if !config.coordinator_crashes && !crashed_after_vote[i] {
                    for attempt in 0..=policy.max_retries {
                        if attempt > 0 {
                            back_off(attempt, policy, &mut stats);
                        }
                        if send(&mut messages, &mut stats) {
                            learned = true;
                            break;
                        }
                    }
                }
                let outcome = if learned {
                    decision
                } else {
                    // Recovery enquiry against the durable log.
                    messages += 1;
                    stats.enquiries += 1;
                    bq_obs::counter!(
                        "bq_txn_2pc_enquiries_total",
                        "2PC recovery enquiries answered from the decision log"
                    )
                    .inc();
                    log.read(txn)
                };
                if outcome == Decision::Commit {
                    PState::Committed
                } else {
                    PState::Aborted
                }
            }
        };
        states.push(state);
    }

    bq_obs::counter!("bq_txn_2pc_runs_total", "2PC protocol runs").inc();
    bq_obs::counter!("bq_txn_2pc_messages_total", "2PC messages exchanged").add(messages as u64);

    (
        TwoPcOutcome {
            decision,
            states,
            messages,
        },
        stats,
    )
}

/// Consistency check for reliable runs: every yes-voter that reached a
/// terminal state agrees with the logged decision.
pub fn agrees_with_decision(outcome: &TwoPcOutcome) -> bool {
    is_atomic(outcome)
        && outcome.states.iter().all(|s| match outcome.decision {
            Decision::Commit => *s != PState::Aborted,
            Decision::Abort | Decision::None => *s != PState::Committed,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(votes: &[bool]) -> TwoPcConfig {
        TwoPcConfig {
            votes: votes.to_vec(),
            crashes: vec![Crash::None; votes.len()],
            coordinator_crashes: false,
            decision_logged: true,
        }
    }

    #[test]
    fn unanimous_yes_commits_everywhere() {
        let out = run_2pc(&healthy(&[true, true, true]));
        assert_eq!(out.decision, Decision::Commit);
        assert!(out.states.iter().all(|s| *s == PState::Committed));
        assert!(is_atomic(&out));
        // 3 prepares + 3 votes + 3 decisions.
        assert_eq!(out.messages, 9);
    }

    #[test]
    fn single_no_vote_aborts_everyone() {
        let out = run_2pc(&healthy(&[true, false, true]));
        assert_eq!(out.decision, Decision::Abort);
        assert!(out.states.iter().all(|s| *s == PState::Aborted));
        assert!(is_atomic(&out));
    }

    #[test]
    fn crash_before_vote_counts_as_no() {
        let mut cfg = healthy(&[true, true]);
        cfg.crashes[1] = Crash::BeforeVote;
        let out = run_2pc(&cfg);
        assert_eq!(out.decision, Decision::Abort);
        assert!(is_atomic(&out));
    }

    #[test]
    fn participant_crash_after_vote_recovers_the_commit() {
        let mut cfg = healthy(&[true, true]);
        cfg.crashes[0] = Crash::AfterVote;
        let out = run_2pc(&cfg);
        assert_eq!(out.decision, Decision::Commit);
        assert_eq!(out.states, vec![PState::Committed, PState::Committed]);
    }

    #[test]
    fn coordinator_crash_with_logged_decision_is_recoverable() {
        let cfg = TwoPcConfig {
            votes: vec![true, true],
            crashes: vec![Crash::None, Crash::None],
            coordinator_crashes: true,
            decision_logged: true,
        };
        let out = run_2pc(&cfg);
        assert_eq!(out.decision, Decision::Commit);
        assert!(out.states.iter().all(|s| *s == PState::Committed));
    }

    #[test]
    fn coordinator_crash_before_logging_blocks_prepared_participants() {
        // The classic blocking theorem: yes-voters are stuck in doubt.
        let cfg = TwoPcConfig {
            votes: vec![true, true, false],
            crashes: vec![Crash::None, Crash::None, Crash::None],
            coordinator_crashes: true,
            decision_logged: false,
        };
        let out = run_2pc(&cfg);
        assert_eq!(out.decision, Decision::None);
        assert_eq!(out.states[0], PState::InDoubt);
        assert_eq!(out.states[1], PState::InDoubt);
        // The no-voter knows it is abort regardless.
        assert_eq!(out.states[2], PState::Aborted);
        assert!(is_atomic(&out), "in-doubt is not an outcome");
    }

    /// Serializes tests that configure the process-global failpoints (and
    /// their seed): one test's `off` or re-`configure` of a site must not
    /// land in the middle of another's run.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn prob(site: &str, pct: u32) {
        bq_faults::configure(
            site,
            bq_faults::Policy::new(bq_faults::Action::Error, bq_faults::Trigger::Prob(pct))
                .caller_thread(),
        );
    }

    #[test]
    fn reliable_run_without_faults_matches_the_basic_protocol() {
        let (out, stats) = run_2pc_reliable(&healthy(&[true, true, true]), &RetryPolicy::default());
        assert_eq!(out.decision, Decision::Commit);
        assert!(out.states.iter().all(|s| *s == PState::Committed));
        assert_eq!(stats, DeliveryStats::default());
        // prepare + vote per participant, then one decision each.
        assert_eq!(out.messages, 9);
    }

    #[test]
    fn lossy_network_still_reaches_unanimous_commit() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        bq_faults::set_seed(42);
        prob("twopc.msg.drop", 30);
        let (out, stats) = run_2pc_reliable(&healthy(&[true, true, true]), &RetryPolicy::default());
        bq_faults::off("twopc.msg.drop");
        assert_eq!(out.decision, Decision::Commit);
        assert!(out.states.iter().all(|s| *s == PState::Committed));
        assert!(agrees_with_decision(&out));
        assert_eq!(
            stats.dropped, stats.retries,
            "every loss in a commit run is recovered by a resend"
        );
    }

    #[test]
    fn duplicate_deliveries_are_idempotent() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        bq_faults::configure(
            "twopc.msg.dup",
            bq_faults::Policy::new(bq_faults::Action::Error, bq_faults::Trigger::Always)
                .caller_thread(),
        );
        let (out, stats) = run_2pc_reliable(&healthy(&[true, false]), &RetryPolicy::default());
        bq_faults::off("twopc.msg.dup");
        assert_eq!(out.decision, Decision::Abort);
        assert!(out.states.iter().all(|s| *s == PState::Aborted));
        assert!(stats.duplicated > 0, "the failpoint did fire");
    }

    #[test]
    fn total_message_loss_aborts_after_bounded_retries() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        bq_faults::configure(
            "twopc.msg.drop",
            bq_faults::Policy::new(bq_faults::Action::Error, bq_faults::Trigger::Always)
                .caller_thread(),
        );
        let policy = RetryPolicy::default();
        let (out, stats) = run_2pc_reliable(&healthy(&[true, true, true]), &policy);
        bq_faults::off("twopc.msg.drop");
        // No vote ever arrives: the coordinator times out and aborts; the
        // participants, never prepared, abort unilaterally. Termination is
        // bounded by the retry budget.
        assert_eq!(out.decision, Decision::Abort);
        assert!(out.states.iter().all(|s| *s == PState::Aborted));
        assert_eq!(stats.retries, 3 * u64::from(policy.max_retries));
        assert_eq!(stats.backoff_ticks, 3 * (1 + 2 + 4 + 8 + 16));
    }

    #[test]
    fn participant_crash_between_prepare_and_commit_recovers_via_enquiry() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        bq_faults::configure(
            "twopc.participant.crash",
            bq_faults::Policy::new(bq_faults::Action::Panic, bq_faults::Trigger::Nth(1))
                .caller_thread(),
        );
        let (out, stats) = run_2pc_reliable(&healthy(&[true, true]), &RetryPolicy::default());
        bq_faults::off("twopc.participant.crash");
        assert_eq!(out.decision, Decision::Commit);
        assert!(
            out.states.iter().all(|s| *s == PState::Committed),
            "the crashed participant learns the commit from the log: {out:?}"
        );
        assert!(stats.enquiries >= 1, "recovery consulted the decision log");
    }

    #[test]
    fn reliable_protocol_still_blocks_without_a_logged_decision() {
        let cfg = TwoPcConfig {
            votes: vec![true, true],
            crashes: vec![Crash::None, Crash::None],
            coordinator_crashes: true,
            decision_logged: false,
        };
        let (out, _) = run_2pc_reliable(&cfg, &RetryPolicy::default());
        assert_eq!(out.decision, Decision::None);
        assert!(out.states.iter().all(|s| *s == PState::InDoubt));
        assert!(agrees_with_decision(&out));
    }

    #[test]
    fn seeded_drop_and_dup_schedules_are_always_consistent() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let vote_sets: [&[bool]; 3] = [&[true, true, true], &[true, false, true], &[false, false]];
        for seed in 0..20u64 {
            bq_faults::set_seed(seed);
            prob("twopc.msg.drop", 25);
            prob("twopc.msg.dup", 25);
            for votes in vote_sets {
                let (out, _) = run_2pc_reliable(&healthy(votes), &RetryPolicy::default());
                assert!(
                    agrees_with_decision(&out),
                    "seed {seed}, votes {votes:?}: {out:?}"
                );
                if votes.iter().all(|v| *v) {
                    // A lossy network may abort a unanimous-yes round (votes
                    // lost past the retry budget) but must never split it.
                    assert!(is_atomic(&out));
                } else {
                    assert_eq!(out.decision, Decision::Abort, "seed {seed}");
                }
            }
            bq_faults::off("twopc.msg.drop");
            bq_faults::off("twopc.msg.dup");
        }
        bq_faults::set_seed(0);
    }

    #[test]
    fn durable_coordinator_crash_never_blocks() {
        // The exact scenario that blocks run_2pc_reliable: unanimous yes,
        // coordinator dies before broadcasting. With the force-before-
        // broadcast discipline the decision is on the log, so recovery
        // enquiries resolve every participant.
        let cfg = TwoPcConfig {
            votes: vec![true, true],
            crashes: vec![Crash::None, Crash::None],
            coordinator_crashes: true,
            decision_logged: false, // ignored by the durable variant
        };
        let mut log = CoordinatorLog::new();
        let (out, stats) = run_2pc_durable(&cfg, &RetryPolicy::default(), &mut log, 1);
        assert_eq!(out.decision, Decision::Commit);
        assert!(out.states.iter().all(|s| *s == PState::Committed));
        assert_eq!(stats.enquiries, 2, "both yes-voters asked the log");
        assert_eq!(log.read(1), Decision::Commit);
        assert!(agrees_with_decision(&out));
    }

    #[test]
    fn durable_log_presumes_abort_for_unknown_transactions() {
        let log = CoordinatorLog::new();
        assert!(log.is_empty());
        assert_eq!(log.read(99), Decision::Abort);
    }

    #[test]
    fn durable_sweep_has_no_in_doubt_states() {
        let crash_kinds = [Crash::None, Crash::BeforeVote, Crash::AfterVote];
        let mut log = CoordinatorLog::new();
        let mut txn = 0;
        for v0 in [true, false] {
            for v1 in [true, false] {
                for &c0 in &crash_kinds {
                    for &c1 in &crash_kinds {
                        for cc in [false, true] {
                            txn += 1;
                            let (out, _) = run_2pc_durable(
                                &TwoPcConfig {
                                    votes: vec![v0, v1],
                                    crashes: vec![c0, c1],
                                    coordinator_crashes: cc,
                                    decision_logged: false,
                                },
                                &RetryPolicy::default(),
                                &mut log,
                                txn,
                            );
                            assert!(is_atomic(&out), "violated by {out:?}");
                            assert!(
                                !out.states.contains(&PState::InDoubt),
                                "durable 2PC blocked: {out:?}"
                            );
                            assert_eq!(log.read(txn), out.decision);
                        }
                    }
                }
            }
        }
        assert_eq!(log.len(), txn as usize);
    }

    #[test]
    fn atomicity_over_a_scenario_sweep() {
        // Exhaustive small sweep: every combination of votes and crashes
        // for 2 participants, all coordinator variants.
        let crash_kinds = [Crash::None, Crash::BeforeVote, Crash::AfterVote];
        for v0 in [true, false] {
            for v1 in [true, false] {
                for &c0 in &crash_kinds {
                    for &c1 in &crash_kinds {
                        for (cc, logged) in [(false, true), (true, true), (true, false)] {
                            let out = run_2pc(&TwoPcConfig {
                                votes: vec![v0, v1],
                                crashes: vec![c0, c1],
                                coordinator_crashes: cc,
                                decision_logged: logged,
                            });
                            assert!(is_atomic(&out), "violated by {out:?}");
                            // Commit requires every vote to be yes.
                            if out.states.contains(&PState::Committed) {
                                assert!(v0 && v1);
                                assert!(c0 != Crash::BeforeVote && c1 != Crash::BeforeVote);
                                assert_eq!(out.decision, Decision::Commit);
                            }
                        }
                    }
                }
            }
        }
    }
}
