//! The calculation engine: runs the pending-range computation as the
//! run's PIL handle ([`Pil`]) says — execute it, execute and record it
//! (the memoization run), or replay its recorded output and duration —
//! counting ops and converting them to virtual compute time via the
//! calibration constant. Where the run computes is not its business.
//!
//! On an unchanged ring an invocation costs the host O(change list): the
//! input digest resumes the hash of the ring's canonical bytes that the
//! ring caches ([`RingTable::canonical_hasher`]), and a host-side
//! execution cache deduplicates identical inputs across simulated nodes.
//! Neither changes a key, an op count or a virtual duration.

use std::collections::HashMap;

use scalecheck_memo::{Digest128, FnId, MemoStats, Pil};
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

/// Aggregate calculation statistics for a run.
#[derive(Clone, Copy, Debug, Default, Serialize)]
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
    exec_cache: HashMap<u128, (PendingWire, u64)>,
    stats: CalcStats,
}

impl CalcEngine {
    /// Creates an engine with a cold execution cache.
    pub fn new(version: CalcVersion, ns_per_op: u64) -> Self {
        CalcEngine {
            version,
            ns_per_op,
            exec_cache: HashMap::new(),
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

    /// Digest of a calculation input: FNV-1a-128 of the ring's
    /// canonical bytes followed by the change list's.
    pub fn digest(ring: &RingTable, changes: &[TopologyChange]) -> Digest128 {
        let mut bytes = Vec::new();
        write_changes_canonical(changes, &mut bytes);
        let mut h = ring.canonical_hasher();
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

    /// Runs (or records, or replays) the calculation for `node`'s
    /// `invocation_idx`-th call, returning the result in its wire form
    /// and its virtual compute duration.
    pub fn calculate(
        &mut self,
        pil: &mut Pil<'_, PendingWire>,
        node: u32,
        invocation_idx: u64,
        ring: &RingTable,
        changes: &[TopologyChange],
    ) -> (PendingWire, SimDuration) {
        self.stats.invocations += 1;
        let digest = Self::digest(ring, changes);
        let (exec_cache, version, ns_per_op) = (&mut self.exec_cache, self.version, self.ns_per_op);
        let mut cached = false;
        let (wire, duration) = pil.call(
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
        match pil {
            // The replay counts its lookups, executed misses included;
            // `stats` reads them back.
            Pil::Replay(_) => {}
            _ if cached => self.stats.exec_cache_hits += 1,
            _ => self.stats.executed += 1,
        }
        self.stats.total_compute += duration;
        self.stats.max_compute = self.stats.max_compute.max(duration);
        (wire, duration)
    }

    /// Run statistics; the replay counters are the run's `memo` ones.
    pub fn stats(&self, memo: MemoStats) -> CalcStats {
        CalcStats {
            memo_hits: memo.hits,
            memo_index_fallbacks: memo.index_fallbacks,
            memo_misses: memo.misses,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_memo::{MemoDb, OrderRecorder, Replay};
    use scalecheck_ring::{spread_tokens, NodeStatus};

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
    fn execute_mode_runs_caches_and_totals() {
        let mut e = CalcEngine::new(CalcVersion::V3VnodeAware, 100);
        let ring = ring_of(8);
        let (out1, d1) = e.calculate(&mut Pil::Execute, 0, 0, &ring, &leave(1));
        let (out2, d2) = e.calculate(&mut Pil::Execute, 1, 0, &ring, &leave(1));
        e.calculate(&mut Pil::Execute, 0, 1, &ring, &leave(2));
        assert_eq!(out1, out2);
        assert!(!out1.0.is_empty());
        assert_eq!(d1, d2, "cache must not change virtual cost");
        assert!(d1 > SimDuration::ZERO);
        let s = e.stats(MemoStats::default());
        assert_eq!((s.invocations, s.executed, s.exec_cache_hits), (3, 2, 1));
        assert!(s.total_compute > s.max_compute && s.max_compute >= d1);
    }

    #[test]
    fn record_then_replay_hits_falls_back_and_misses() {
        let ring = ring_of(8);
        let (mut db, mut order) = (MemoDb::new(), OrderRecorder::new());
        let mut rec = Pil::Record(&mut db, &mut order);
        let mut e = CalcEngine::new(CalcVersion::V2Quadratic, 100);
        let (out_rec, d_rec) = e.calculate(&mut rec, 5, 0, &ring, &leave(1));
        e.calculate(&mut rec, 5, 1, &ring, &leave(2));
        assert_eq!(e.stats(rec.stats()).executed, 2);
        assert_eq!((db.len(), db.stats().recorded), (2, 2));

        let mut pil = Pil::Replay(Replay::new(&db, None));
        let mut e = CalcEngine::new(CalcVersion::V2Quadratic, 100);
        let mut lookups = |e: &mut CalcEngine, node, idx, change| {
            let answer = e.calculate(&mut pil, node, idx, &ring, &leave(change));
            let s = e.stats(pil.stats());
            (answer, (s.memo_hits, s.memo_index_fallbacks, s.memo_misses))
        };
        let ((out_rep, d_rep), counts) = lookups(&mut e, 5, 0, 1);
        assert_eq!(counts, (1, 0, 0));
        assert_eq!(out_rep, out_rec);
        assert_eq!(d_rep, d_rec, "replay sleeps the recorded duration");
        // A digest the recording never saw: node 5's invocation 1 exists,
        // node 6 has none, so the real function executes.
        assert_eq!(lookups(&mut e, 5, 1, 3).1, (1, 1, 0));
        let ((out, d), counts) = lookups(&mut e, 6, 0, 3);
        assert_eq!(counts, (1, 1, 1));
        assert!(!out.0.is_empty() && d > SimDuration::ZERO);
        let s = e.stats(MemoStats::default());
        assert_eq!((s.invocations, s.executed, s.exec_cache_hits), (3, 0, 0));
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
}
