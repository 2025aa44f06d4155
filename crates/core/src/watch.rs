//! The durable-WAL-horizon watch: how a primary's shipping loops learn
//! that a commit landed without polling the engine.
//!
//! [`crate::Db`] owns one [`WalWatch`] and publishes into it every time
//! the WAL's durable length moves (a sync, or a WAL reset on snapshot
//! apply). A shipping loop holds a clone and blocks in
//! [`WalWatch::wait_past`] while it is caught up. The signal is
//! level-triggered: the waiter compares the published horizon with its
//! own position under the watch mutex before it sleeps, so a commit that
//! lands between "the WAL had nothing new" and the wait is seen at once
//! rather than lost.
//!
//! Lock order: the watch mutex is a leaf. `Db` publishes while its
//! caller holds the engine write guard, and takes nothing else under
//! it; a waiter never holds an engine guard.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

#[derive(Debug, Default)]
struct Shared {
    horizon: Mutex<u64>,
    moved: Condvar,
}

/// Shared view of one engine's durable WAL length. Clones watch the
/// same engine.
#[derive(Debug, Clone, Default)]
pub struct WalWatch {
    shared: Arc<Shared>,
}

impl WalWatch {
    fn lock(&self) -> MutexGuard<'_, u64> {
        self.shared
            .horizon
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// The last published durable WAL length, in bytes.
    pub fn horizon(&self) -> u64 {
        *self.lock()
    }

    /// Publish a new durable length and wake every waiter. The horizon
    /// may move backwards (a snapshot apply starts a fresh WAL).
    pub(crate) fn publish(&self, horizon: u64) {
        let mut current = self.lock();
        if *current != horizon {
            *current = horizon;
            self.shared.moved.notify_all();
        }
    }

    /// Wake every waiter without moving the horizon, so a stopping
    /// server's shipping loops re-check their stop flag now.
    pub fn wake_all(&self) {
        let _horizon = self.lock();
        self.shared.moved.notify_all();
    }

    /// Block until the horizon is past `pos`, a wake-up arrives, or
    /// `timeout` passes. Returns at once when the horizon is already
    /// past `pos`. `false` means the whole timeout passed with nothing
    /// to ship; after `true` the caller re-reads the WAL (a wake-up
    /// does not promise new bytes).
    pub fn wait_past(&self, pos: u64, timeout: Duration) -> bool {
        let horizon = self.lock();
        if *horizon > pos {
            return true;
        }
        let (horizon, wait) = self
            .shared
            .moved
            .wait_timeout(horizon, timeout)
            .unwrap_or_else(|e| e.into_inner());
        *horizon > pos || !wait.timed_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    /// Long enough that a test passing on it means a wake-up was lost.
    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn an_already_advanced_horizon_returns_at_once() {
        // The commit landed between the shipper's "nothing new" check
        // and its wait: the level check under the mutex sees it.
        let watch = WalWatch::default();
        watch.publish(64);
        assert!(watch.wait_past(0, LONG));
        assert!(watch.wait_past(63, LONG));
        assert_eq!(watch.horizon(), 64);
    }

    #[test]
    fn a_timeout_returns_without_advancing() {
        let watch = WalWatch::default();
        watch.publish(64);
        assert!(!watch.wait_past(64, Duration::from_millis(10)));
        assert_eq!(watch.horizon(), 64);
    }

    #[test]
    fn a_publish_from_another_thread_wakes_the_waiter() {
        let watch = WalWatch::default();
        let (ready, go) = mpsc::channel();
        let waiter = {
            let watch = watch.clone();
            thread::spawn(move || {
                ready.send(()).unwrap();
                // Loop as the shipping loop does: a wake-up is a hint,
                // the horizon is the fact.
                while watch.horizon() <= 10 {
                    assert!(watch.wait_past(10, LONG), "wake-up lost");
                }
                watch.horizon()
            })
        };
        go.recv().unwrap();
        watch.publish(10); // not past the waiter's position yet
        watch.publish(11);
        assert_eq!(waiter.join().unwrap(), 11);
    }

    #[test]
    fn wake_all_releases_a_waiter_without_moving_the_horizon() {
        let watch = WalWatch::default();
        let (ready, go) = mpsc::channel();
        let waiter = {
            let watch = watch.clone();
            thread::spawn(move || {
                ready.send(()).unwrap();
                watch.wait_past(0, LONG)
            })
        };
        go.recv().unwrap();
        // Keep waking until the waiter is gone: the first wake may race
        // its way in before the waiter blocks.
        while !waiter.is_finished() {
            watch.wake_all();
            thread::yield_now();
        }
        assert!(waiter.join().unwrap(), "woken, not timed out");
        assert_eq!(watch.horizon(), 0);
    }
}
