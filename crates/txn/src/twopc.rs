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
