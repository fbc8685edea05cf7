//! Virtual-time locks.
//!
//! Bug C5456 is a locking bug: the pending-range calculation holds a
//! coarse-grained lock on the ring table while the gossip stage blocks on
//! the same lock to apply heartbeats. [`LockTable`] models mutexes in
//! virtual time: acquisition is immediate when free, otherwise the holder
//! token is queued FIFO and the caller is told to park. The lock table is
//! pure data — on release it reports which waiter now holds the lock, and
//! the domain schedules that waiter's continuation itself. This keeps the
//! lock model engine-agnostic and directly testable.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Identifies a lock within a [`LockTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LockId(pub usize);

/// An opaque token naming a lock holder among the lock's contenders
/// (e.g. which of a node's stages, on that node's own lock).
pub type HolderToken = u64;

/// Outcome of an acquisition attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquire {
    /// The caller now holds the lock.
    Granted,
    /// The lock is held; the caller was enqueued and must park until its
    /// token is returned by [`LockTable::release`].
    Queued,
}

#[derive(Clone, Debug, Default)]
struct LockState {
    holder: Option<HolderToken>,
    waiters: VecDeque<(HolderToken, SimTime)>,
    acquired_at: SimTime,
}

/// A table of virtual-time FIFO mutexes.
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    locks: Vec<LockState>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LockTable { locks: Vec::new() }
    }

    /// Creates a new lock and returns its id.
    pub fn create(&mut self) -> LockId {
        self.locks.push(LockState::default());
        LockId(self.locks.len() - 1)
    }

    /// Attempts to acquire `lock` for `holder` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `holder` already holds the lock (virtual locks are not
    /// reentrant; a reentrant acquire in the modelled system would be a
    /// self-deadlock and we want to hear about it).
    pub fn acquire(&mut self, lock: LockId, holder: HolderToken, now: SimTime) -> Acquire {
        let st = &mut self.locks[lock.0];
        assert_ne!(
            st.holder,
            Some(holder),
            "holder {holder} re-acquired lock {lock:?} (self-deadlock)"
        );
        if st.holder.is_none() {
            st.holder = Some(holder);
            st.acquired_at = now;
            scalecheck_obs::metric(scalecheck_obs::Metric::LockWait, 0);
            Acquire::Granted
        } else {
            st.waiters.push_back((holder, now));
            Acquire::Queued
        }
    }

    /// Releases `lock`, which must be held by `holder`. If a waiter was
    /// queued, it becomes the holder and its token is returned so the
    /// caller can schedule its continuation.
    ///
    /// # Panics
    ///
    /// Panics if `holder` does not hold the lock.
    pub fn release(
        &mut self,
        lock: LockId,
        holder: HolderToken,
        now: SimTime,
    ) -> Option<HolderToken> {
        let st = &mut self.locks[lock.0];
        assert_eq!(
            st.holder,
            Some(holder),
            "release of lock {lock:?} by non-holder {holder}"
        );
        scalecheck_obs::metric(
            scalecheck_obs::Metric::LockHold,
            now.since(st.acquired_at).as_nanos(),
        );
        match st.waiters.pop_front() {
            Some((next, queued_at)) => {
                st.holder = Some(next);
                st.acquired_at = now;
                scalecheck_obs::metric(
                    scalecheck_obs::Metric::LockWait,
                    now.since(queued_at).as_nanos(),
                );
                Some(next)
            }
            None => {
                st.holder = None;
                None
            }
        }
    }

    /// Current holder, if any.
    pub fn holder(&self, lock: LockId) -> Option<HolderToken> {
        self.locks[lock.0].holder
    }

    /// Number of queued waiters.
    pub fn waiters(&self, lock: LockId) -> usize {
        self.locks[lock.0].waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn free_lock_grants_immediately() {
        let mut lt = LockTable::new();
        let l = lt.create();
        assert_eq!(lt.acquire(l, 1, SimTime::ZERO), Acquire::Granted);
        assert_eq!(lt.holder(l), Some(1));
    }

    #[test]
    fn contended_lock_queues_fifo() {
        let mut lt = LockTable::new();
        let l = lt.create();
        assert_eq!(lt.acquire(l, 1, SimTime::ZERO), Acquire::Granted);
        assert_eq!(lt.acquire(l, 2, at_ms(1)), Acquire::Queued);
        assert_eq!(lt.acquire(l, 3, at_ms(2)), Acquire::Queued);
        assert_eq!(lt.waiters(l), 2);
        // FIFO hand-off.
        assert_eq!(lt.release(l, 1, at_ms(10)), Some(2));
        assert_eq!(lt.holder(l), Some(2));
        assert_eq!(lt.release(l, 2, at_ms(20)), Some(3));
        assert_eq!(lt.release(l, 3, at_ms(30)), None);
        assert_eq!(lt.holder(l), None);
    }

    #[test]
    fn lock_wait_and_hold_reach_the_obs_metrics() {
        use scalecheck_obs::Metric;
        scalecheck_obs::install(scalecheck_obs::Tracer::new());
        let mut lt = LockTable::new();
        let l = lt.create();
        lt.acquire(l, 1, SimTime::ZERO);
        lt.acquire(l, 2, at_ms(5));
        lt.release(l, 1, at_ms(30));
        let trace = scalecheck_obs::take().expect("installed above").finish();
        // Holder 1 held 30ms; waiter 2 waited 25ms.
        assert_eq!(trace.metric(Metric::LockHold).max, 30_000_000);
        assert_eq!(trace.metric(Metric::LockWait).max, 25_000_000);
    }

    #[test]
    #[should_panic(expected = "self-deadlock")]
    fn reentrant_acquire_panics() {
        let mut lt = LockTable::new();
        let l = lt.create();
        lt.acquire(l, 1, SimTime::ZERO);
        lt.acquire(l, 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut lt = LockTable::new();
        let l = lt.create();
        lt.acquire(l, 1, SimTime::ZERO);
        lt.release(l, 2, SimTime::ZERO);
    }

    #[test]
    fn independent_locks_do_not_interfere() {
        let mut lt = LockTable::new();
        let a = lt.create();
        let b = lt.create();
        assert_eq!(lt.acquire(a, 1, SimTime::ZERO), Acquire::Granted);
        assert_eq!(lt.acquire(b, 1, SimTime::ZERO), Acquire::Granted);
        assert_eq!(lt.acquire(b, 2, SimTime::ZERO), Acquire::Queued);
        assert_eq!(lt.waiters(a), 0);
        assert_eq!(lt.waiters(b), 1);
    }
}
