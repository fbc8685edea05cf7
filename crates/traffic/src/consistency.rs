//! Consistency levels, request cost models, and degradation policy.
//!
//! The Cassandra-style trio: a request succeeds once `required(rf)`
//! replicas have answered, so the coordinator's *view* of replica
//! liveness — not ground truth — decides availability. That is the
//! bridge from the paper's flap storms to user-visible damage: a
//! convicted-but-alive replica stops counting toward the quorum.

use scalecheck_sim::SimDuration;
use serde::Serialize;

/// How many replica acknowledgements a request waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Consistency {
    /// One replica suffices.
    One,
    /// A majority of the replication factor: `rf/2 + 1`.
    Quorum,
    /// Every replica.
    All,
}

impl Consistency {
    /// Acknowledgements required at replication factor `rf`.
    pub fn required(self, rf: usize) -> usize {
        match self {
            Consistency::One => 1,
            Consistency::Quorum => rf / 2 + 1,
            Consistency::All => rf,
        }
        .min(rf.max(1))
    }

    /// Stable lowercase name (table rows, histogram labels).
    pub fn name(self) -> &'static str {
        match self {
            Consistency::One => "one",
            Consistency::Quorum => "quorum",
            Consistency::All => "all",
        }
    }
}

/// Read or write — distinct service-time models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum OpKind {
    /// A read: served from memtable/row cache, cheap at the replica.
    Read,
    /// A write: commit-log append plus memtable insert.
    Write,
}

impl OpKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
        }
    }
}

/// Replica-side service times added on top of network RTTs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Service time a replica adds to a read.
    pub read_service: SimDuration,
    /// Service time a replica adds to a write.
    pub write_service: SimDuration,
    /// Parse/route work the coordinator burns on its own CPU before
    /// anything reaches the wire. Only the coupled datapath bills it.
    pub coord_service: SimDuration,
    /// Latency booked for a request that ultimately fails: the client's
    /// request timeout (Cassandra defaults to 2 s reads / 2 s writes).
    pub timeout: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_service: SimDuration::from_micros(350),
            write_service: SimDuration::from_micros(150),
            coord_service: SimDuration::from_micros(50),
            timeout: SimDuration::from_secs(2),
        }
    }
}

impl CostModel {
    /// Service time for one op kind.
    pub fn service(&self, kind: OpKind) -> SimDuration {
        match kind {
            OpKind::Read => self.read_service,
            OpKind::Write => self.write_service,
        }
    }
}

/// What a coordinator does when its view offers fewer live replicas
/// than the consistency level requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// Fail the request immediately at the client timeout.
    FailFast,
    /// Hinted-handoff-style degradation: retry with exponentially
    /// growing, capped backoff on the virtual clock. Writes that still
    /// reach at least one live replica succeed *degraded* (the hint
    /// rides the backoff); reads burn the full backoff ladder and then
    /// fail. Fully deterministic — the ladder is arithmetic, not
    /// scheduling.
    HintedRetry {
        /// Retry rungs attempted before giving up.
        max_retries: u32,
        /// First-rung backoff; rung `k` waits `backoff × 2^k`.
        backoff: SimDuration,
    },
}

impl Degradation {
    /// Total virtual time a request spends on the backoff ladder when
    /// it climbs `rungs` rungs (saturating).
    pub fn backoff_total(&self, rungs: u32) -> SimDuration {
        match *self {
            Degradation::FailFast => SimDuration::ZERO,
            Degradation::HintedRetry {
                max_retries,
                backoff,
            } => {
                let rungs = rungs.min(max_retries).min(20);
                // backoff × (2^rungs − 1): the sum of the ladder.
                backoff.saturating_mul((1u64 << rungs) - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_matches_cassandra_semantics() {
        assert_eq!(Consistency::One.required(3), 1);
        assert_eq!(Consistency::Quorum.required(3), 2);
        assert_eq!(Consistency::All.required(3), 3);
        assert_eq!(Consistency::Quorum.required(5), 3);
        // Degenerate rings never require more than they have.
        assert_eq!(Consistency::All.required(1), 1);
        assert_eq!(Consistency::Quorum.required(1), 1);
        assert_eq!(Consistency::One.required(0), 1);
    }

    #[test]
    fn backoff_ladder_is_exponential_and_capped() {
        let d = Degradation::HintedRetry {
            max_retries: 3,
            backoff: SimDuration::from_millis(100),
        };
        assert_eq!(d.backoff_total(0), SimDuration::ZERO);
        assert_eq!(d.backoff_total(1), SimDuration::from_millis(100));
        assert_eq!(d.backoff_total(2), SimDuration::from_millis(300));
        assert_eq!(d.backoff_total(3), SimDuration::from_millis(700));
        // Rungs beyond max_retries are clamped.
        assert_eq!(d.backoff_total(9), SimDuration::from_millis(700));
        assert_eq!(Degradation::FailFast.backoff_total(5), SimDuration::ZERO);
    }

    #[test]
    fn cost_model_distinguishes_kinds() {
        let c = CostModel::default();
        assert!(c.service(OpKind::Read) > c.service(OpKind::Write));
        assert!(c.timeout > c.service(OpKind::Read));
    }
}
