//! The calculation engine: executes, records, or replays the
//! pending-range computation.
//!
//! This is where the paper's four runs ([`RunMode`]) meet:
//!
//! * **Real / Colo**: run the real algorithm, count ops, convert to
//!   virtual compute time via the calibration constant.
//! * **Memoize** (Figure 2 step d): execute *and* store
//!   `(input digest) → (output, duration)` plus the invocation order.
//! * **PilReplay** (Figure 2 steps e–f): look the input up and return the
//!   recorded output and duration without computing; fall back to the
//!   invocation index and finally to genuine execution, counting every
//!   fallback honestly.
//!
//! A host-side execution cache deduplicates identical inputs across
//! simulated nodes. It is a pure host optimization: the returned ops
//! (hence virtual durations) are identical to a cold execution because
//! the calculators are deterministic.

use std::collections::HashMap;

use scalecheck_memo::{CallSource, Digest128, FnId, Hasher128, MemoDb, RunMode};
use scalecheck_ring::{
    write_changes_canonical, FreshRingQuadratic, NodeId, OpCounter, PendingRangeCalculator,
    PendingRanges, Range, RingTable, TopologyChange, V1Cubic, V2Quadratic, V3VnodeAware,
};
use scalecheck_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::calibrate::ops_to_duration;
use crate::config::CalcVersion;

/// Wire form of [`PendingRanges`] (JSON-friendly: no map keys that are
/// structs).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingWire(pub Vec<(Range, Vec<NodeId>)>);

impl From<&PendingRanges> for PendingWire {
    fn from(p: &PendingRanges) -> Self {
        PendingWire(
            p.iter()
                .map(|(r, s)| (*r, s.iter().copied().collect()))
                .collect(),
        )
    }
}

impl From<&PendingWire> for PendingRanges {
    fn from(w: &PendingWire) -> Self {
        w.0.iter()
            .map(|(r, v)| (*r, v.iter().copied().collect()))
            .collect()
    }
}

/// Aggregate calculation statistics for a run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CalcStats {
    /// Total calculate() calls.
    pub invocations: u64,
    /// Genuine executions (cold).
    pub executed: u64,
    /// Host execution-cache hits.
    pub exec_cache_hits: u64,
    /// Replay digest hits.
    pub memo_hits: u64,
    /// Replay index fallbacks.
    pub memo_index_fallbacks: u64,
    /// Replay full misses (re-executed).
    pub memo_misses: u64,
    /// Sum of returned compute durations.
    pub total_compute: SimDuration,
    /// Largest single compute duration.
    pub max_compute: SimDuration,
}

/// The pending-range calculation engine for one run.
pub struct CalcEngine {
    version: CalcVersion,
    ns_per_op: u64,
    mode: RunMode,
    exec_cache: HashMap<u128, (PendingWire, u64)>,
    db: MemoDb<PendingWire>,
    stats: CalcStats,
}

impl CalcEngine {
    /// Creates an engine with an empty memo database.
    pub fn new(version: CalcVersion, ns_per_op: u64, mode: RunMode) -> Self {
        Self::with_db(version, ns_per_op, mode, MemoDb::new())
    }

    /// Creates a replay engine over a previously recorded database.
    pub fn with_db(
        version: CalcVersion,
        ns_per_op: u64,
        mode: RunMode,
        db: MemoDb<PendingWire>,
    ) -> Self {
        CalcEngine {
            version,
            ns_per_op,
            mode,
            exec_cache: HashMap::new(),
            db,
            stats: CalcStats::default(),
        }
    }

    /// The memo function id for a calculator version.
    pub fn fn_id(version: CalcVersion) -> FnId {
        FnId(match version {
            CalcVersion::V1Cubic => 1,
            CalcVersion::V2Quadratic => 2,
            CalcVersion::V3VnodeAware => 3,
            CalcVersion::FreshRing => 4,
        })
    }

    /// Digest of a calculation input.
    pub fn digest(ring: &RingTable, changes: &[TopologyChange]) -> Digest128 {
        let mut bytes = Vec::with_capacity(1024);
        ring.write_canonical(&mut bytes);
        write_changes_canonical(changes, &mut bytes);
        let mut h = Hasher128::new();
        h.update(&bytes);
        h.finish()
    }

    fn calculator(version: CalcVersion) -> Box<dyn PendingRangeCalculator> {
        match version {
            CalcVersion::V1Cubic => Box::new(V1Cubic),
            CalcVersion::V2Quadratic => Box::new(V2Quadratic),
            CalcVersion::V3VnodeAware => Box::new(V3VnodeAware),
            CalcVersion::FreshRing => Box::new(FreshRingQuadratic),
        }
    }

    /// Runs (or replays) the calculation for `node`'s
    /// `invocation_idx`-th call, returning the result, its virtual
    /// compute duration, and where it came from.
    pub fn calculate(
        &mut self,
        node: u32,
        invocation_idx: u64,
        ring: &RingTable,
        changes: &[TopologyChange],
    ) -> (PendingRanges, SimDuration, CallSource) {
        self.stats.invocations += 1;
        let digest = Self::digest(ring, changes);
        let (exec_cache, version, ns_per_op) = (&mut self.exec_cache, self.version, self.ns_per_op);
        let mut cached = false;
        let (wire, duration, source) = self.db.call(
            self.mode,
            node,
            Self::fn_id(version),
            digest,
            Some(invocation_idx as usize),
            || {
                let (wire, ops) = match exec_cache.get(&digest.0) {
                    Some(hit) => {
                        cached = true;
                        hit.clone()
                    }
                    None => {
                        let mut counter = OpCounter::new();
                        let out =
                            Self::calculator(version).calculate_traced(ring, changes, &mut counter);
                        let fresh = (PendingWire::from(&out), counter.ops());
                        exec_cache.insert(digest.0, fresh.clone());
                        fresh
                    }
                };
                (wire, ops_to_duration(ops, ns_per_op))
            },
        );
        match source {
            CallSource::Executed if cached => self.stats.exec_cache_hits += 1,
            CallSource::Executed => self.stats.executed += 1,
            CallSource::Hit => self.stats.memo_hits += 1,
            CallSource::IndexFallback => self.stats.memo_index_fallbacks += 1,
            CallSource::Miss => self.stats.memo_misses += 1,
        }
        self.stats.total_compute += duration;
        self.stats.max_compute = self.stats.max_compute.max(duration);
        ((&wire).into(), duration, source)
    }

    /// Run statistics.
    pub fn stats(&self) -> CalcStats {
        self.stats
    }

    /// The memo database (e.g. after a recording run).
    pub fn into_db(self) -> MemoDb<PendingWire> {
        self.db
    }

    /// Read access to the database.
    pub fn db(&self) -> &MemoDb<PendingWire> {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_ring::{spread_tokens, NodeStatus};

    const MEMOIZE: RunMode = RunMode::Memoize { cores: 4 };
    const REPLAY: RunMode = RunMode::PilReplay { cores: 4 };

    fn ring_of(n: u32) -> RingTable {
        let mut r = RingTable::new(3);
        for i in 0..n {
            r.add_node(NodeId(i), NodeStatus::Normal, spread_tokens(NodeId(i), 2))
                .unwrap();
        }
        r
    }

    fn leave(id: u32) -> Vec<TopologyChange> {
        vec![TopologyChange::Leave { node: NodeId(id) }]
    }

    #[test]
    fn execute_mode_runs_and_caches() {
        let mut e = CalcEngine::new(CalcVersion::V3VnodeAware, 100, RunMode::Real);
        let ring = ring_of(8);
        let (out1, d1, s1) = e.calculate(0, 0, &ring, &leave(1));
        let (out2, d2, s2) = e.calculate(1, 0, &ring, &leave(1));
        assert_eq!((s1, s2), (CallSource::Executed, CallSource::Executed));
        assert_eq!(out1, out2);
        assert_eq!(d1, d2, "cache must not change virtual cost");
        assert!(d1 > SimDuration::ZERO);
        assert_eq!(e.stats().executed, 1);
        assert_eq!(e.stats().exec_cache_hits, 1);
    }

    #[test]
    fn record_mode_populates_db() {
        let mut e = CalcEngine::new(CalcVersion::V1Cubic, 100, MEMOIZE);
        let ring = ring_of(8);
        e.calculate(0, 0, &ring, &leave(1));
        e.calculate(0, 1, &ring, &leave(2));
        let db = e.into_db();
        assert_eq!(db.len(), 2);
        assert_eq!(db.stats().recorded, 2);
    }

    #[test]
    fn replay_hits_recorded_inputs() {
        let ring = ring_of(8);
        let mut rec = CalcEngine::new(CalcVersion::V1Cubic, 100, MEMOIZE);
        let (out_rec, d_rec, _) = rec.calculate(0, 0, &ring, &leave(1));
        let db = rec.into_db();

        let mut rep = CalcEngine::with_db(CalcVersion::V1Cubic, 100, REPLAY, db);
        let (out_rep, d_rep, src) = rep.calculate(0, 0, &ring, &leave(1));
        assert_eq!(src, CallSource::Hit);
        assert_eq!(out_rep, out_rec);
        assert_eq!(d_rep, d_rec, "replay sleeps the recorded duration");
        assert_eq!(rep.stats().memo_hits, 1);
    }

    #[test]
    fn replay_index_fallback_when_digest_differs() {
        let ring = ring_of(8);
        let mut rec = CalcEngine::new(CalcVersion::V2Quadratic, 100, MEMOIZE);
        rec.calculate(5, 0, &ring, &leave(1));
        let db = rec.into_db();

        let mut rep = CalcEngine::with_db(CalcVersion::V2Quadratic, 100, REPLAY, db);
        // Different input (leave 2 instead of 1): digest misses, but node
        // 5's invocation 0 exists.
        let (_, _, src) = rep.calculate(5, 0, &ring, &leave(2));
        assert_eq!(src, CallSource::IndexFallback);
    }

    #[test]
    fn replay_full_miss_executes_for_real() {
        let ring = ring_of(8);
        let db = MemoDb::new();
        let mut rep = CalcEngine::with_db(CalcVersion::V3VnodeAware, 100, REPLAY, db);
        let (out, d, src) = rep.calculate(0, 0, &ring, &leave(1));
        assert_eq!(src, CallSource::Miss);
        assert!(!out.is_empty());
        assert!(d > SimDuration::ZERO);
        assert_eq!(rep.stats().memo_misses, 1);
        assert_eq!(rep.db().stats().misses, 1);
    }

    #[test]
    fn digest_distinguishes_ring_and_changes() {
        let r8 = ring_of(8);
        let r9 = ring_of(9);
        assert_ne!(
            CalcEngine::digest(&r8, &leave(1)),
            CalcEngine::digest(&r9, &leave(1))
        );
        assert_ne!(
            CalcEngine::digest(&r8, &leave(1)),
            CalcEngine::digest(&r8, &leave(2))
        );
        assert_eq!(
            CalcEngine::digest(&r8, &leave(1)),
            CalcEngine::digest(&ring_of(8), &leave(1))
        );
    }

    #[test]
    fn wire_round_trip() {
        let ring = ring_of(8);
        let mut e = CalcEngine::new(CalcVersion::V3VnodeAware, 100, RunMode::Real);
        let (out, _, _) = e.calculate(0, 0, &ring, &leave(1));
        let wire = PendingWire::from(&out);
        let back: PendingRanges = (&wire).into();
        assert_eq!(out, back);
    }

    #[test]
    fn stats_track_totals() {
        let ring = ring_of(8);
        let mut e = CalcEngine::new(CalcVersion::V1Cubic, 1000, RunMode::Real);
        e.calculate(0, 0, &ring, &leave(1));
        e.calculate(0, 1, &ring, &leave(2));
        let s = e.stats();
        assert_eq!(s.invocations, 2);
        assert!(s.total_compute >= s.max_compute);
        assert!(s.max_compute > SimDuration::ZERO);
    }
}
