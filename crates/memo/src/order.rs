//! Order determinism (§5).
//!
//! "Input/output pairs depend on the precise order of message arrivals,
//! which can be random. [...] to cap the state space, the
//! pre-memoization stage also records message ordering, which will be
//! deterministically enforced during PIL-infused replay."
//!
//! [`OrderRecorder`] captures, per node, the sequence of message keys
//! processed during the memoization run. [`OrderEnforcer`] replays that
//! sequence: the replayer asks whether an arriving message is the next
//! expected one; if not, the message is held until its turn. Keys the
//! log has never seen (replay divergence) are flagged so the replayer
//! can let them through without deadlocking.

use std::collections::BTreeMap;

/// Records per-node message-processing order during memoization.
#[derive(Clone, Debug, Default)]
pub struct OrderRecorder {
    logs: BTreeMap<u32, Vec<u64>>,
}

impl OrderRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        OrderRecorder::default()
    }

    /// Appends a processed-message key for `node`.
    pub fn record(&mut self, node: u32, key: u64) {
        self.logs.entry(node).or_default().push(key);
    }

    /// Total recorded events across all nodes.
    pub fn total(&self) -> usize {
        self.logs.values().map(Vec::len).sum()
    }

    /// An enforcer replaying this recording, which it borrows.
    pub fn enforcer(&self) -> OrderEnforcer<'_> {
        OrderEnforcer {
            logs: &self.logs,
            cursors: BTreeMap::new(),
            out_of_log: 0,
        }
    }
}

/// Decision for an arriving message during order-enforced replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderDecision {
    /// The message is the next expected one; process it now.
    ProcessNow,
    /// The message is expected later; hold it.
    HoldForLater,
    /// The log never saw this key (replay divergence); process it to
    /// avoid deadlock, counted in [`OrderEnforcer::out_of_log`].
    NotInLog,
}

/// Enforces a recorded per-node processing order during replay.
#[derive(Clone, Debug)]
pub struct OrderEnforcer<'a> {
    logs: &'a BTreeMap<u32, Vec<u64>>,
    cursors: BTreeMap<u32, usize>,
    out_of_log: u64,
}

impl OrderEnforcer<'_> {
    /// The key `node` should process next, if the log has more entries.
    pub fn expected(&self, node: u32) -> Option<u64> {
        let cursor = self.cursors.get(&node).copied().unwrap_or(0);
        self.logs.get(&node)?.get(cursor).copied()
    }

    /// Classifies an arriving message.
    pub fn classify(&mut self, node: u32, key: u64) -> OrderDecision {
        match self.expected(node) {
            Some(exp) if exp == key => OrderDecision::ProcessNow,
            Some(_) => {
                // Is the key anywhere later in the log?
                let cursor = self.cursors.get(&node).copied().unwrap_or(0);
                let in_future = self
                    .logs
                    .get(&node)
                    .map(|log| log[cursor..].contains(&key))
                    .unwrap_or(false);
                if in_future {
                    OrderDecision::HoldForLater
                } else {
                    self.out_of_log += 1;
                    OrderDecision::NotInLog
                }
            }
            None => {
                self.out_of_log += 1;
                OrderDecision::NotInLog
            }
        }
    }

    /// Marks the expected message as processed, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not the expected one (the replayer must only
    /// advance on `ProcessNow`).
    pub fn advance(&mut self, node: u32, key: u64) {
        let exp = self.expected(node);
        assert_eq!(
            exp,
            Some(key),
            "order enforcer advanced out of order (expected {exp:?}, got {key})"
        );
        *self.cursors.entry(node).or_insert(0) += 1;
    }

    /// Arrivals the log never saw (replay divergence indicator).
    pub fn out_of_log(&self) -> u64 {
        self.out_of_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_replay_in_order() {
        let mut rec = OrderRecorder::new();
        for k in [10u64, 20, 30] {
            rec.record(1, k);
        }
        assert_eq!(rec.total(), 3);
        let mut enf = rec.enforcer();
        for k in [10u64, 20, 30] {
            assert_eq!(enf.classify(1, k), OrderDecision::ProcessNow);
            enf.advance(1, k);
        }
        assert_eq!(enf.expected(1), None);
        assert_eq!(enf.out_of_log(), 0);
    }

    #[test]
    fn out_of_order_arrival_is_held() {
        let mut rec = OrderRecorder::new();
        rec.record(1, 10);
        rec.record(1, 20);
        let mut enf = rec.enforcer();
        assert_eq!(enf.classify(1, 20), OrderDecision::HoldForLater);
        assert_eq!(enf.classify(1, 10), OrderDecision::ProcessNow);
        enf.advance(1, 10);
        assert_eq!(enf.classify(1, 20), OrderDecision::ProcessNow);
    }

    #[test]
    fn unknown_key_flagged_not_deadlocked() {
        let mut rec = OrderRecorder::new();
        rec.record(1, 10);
        let mut enf = rec.enforcer();
        assert_eq!(enf.classify(1, 999), OrderDecision::NotInLog);
        assert_eq!(enf.out_of_log(), 1);
        // The expected message still processes normally.
        assert_eq!(enf.classify(1, 10), OrderDecision::ProcessNow);
    }

    #[test]
    fn nodes_are_independent() {
        let mut rec = OrderRecorder::new();
        rec.record(1, 10);
        rec.record(2, 20);
        let mut enf = rec.enforcer();
        assert_eq!(enf.expected(1), Some(10));
        assert_eq!(enf.expected(2), Some(20));
        enf.advance(2, 20);
        assert_eq!(enf.expected(1), Some(10));
        assert_eq!(enf.expected(2), None);
    }

    #[test]
    fn arrivals_after_log_exhaustion_are_not_in_log() {
        let mut rec = OrderRecorder::new();
        rec.record(1, 10);
        let mut enf = rec.enforcer();
        enf.advance(1, 10);
        assert_eq!(enf.classify(1, 10), OrderDecision::NotInLog);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn advance_out_of_order_panics() {
        let mut rec = OrderRecorder::new();
        rec.record(1, 10);
        rec.record(1, 20);
        let mut enf = rec.enforcer();
        enf.advance(1, 20);
    }

    #[test]
    fn duplicate_keys_replay_by_position() {
        let mut rec = OrderRecorder::new();
        for k in [5u64, 5, 7] {
            rec.record(1, k);
        }
        let mut enf = rec.enforcer();
        assert_eq!(enf.classify(1, 5), OrderDecision::ProcessNow);
        enf.advance(1, 5);
        assert_eq!(enf.classify(1, 7), OrderDecision::HoldForLater);
        assert_eq!(enf.classify(1, 5), OrderDecision::ProcessNow);
        enf.advance(1, 5);
        enf.advance(1, 7);
        assert_eq!(enf.expected(1), None);
    }
}
