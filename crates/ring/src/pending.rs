//! Pending key-range calculation — the offending function family.
//!
//! When nodes join or leave, every node recomputes which ranges are
//! *pending*: ranges whose future replica set gains endpoints relative to
//! the current ring, so that writes can be forwarded to future owners.
//! This computation is the root cause of bugs C3831, C3881, C5456 and
//! C6127: it is scale-dependent, it runs on (or blocks) the gossip stage,
//! and its cost evolved across four implementations.
//!
//! All calculators in this module produce **bit-identical output** for the
//! same `(ring, changes)` input — they differ only in how much work they
//! do, which each one reports through [`OpCounter`]. This mirrors the
//! history: every fix preserved semantics while lowering complexity.
//!
//! | Version | Era | Complexity class (physical N, vnodes P, changes M) |
//! |---|---|---|
//! | [`V1Cubic`] | pre-C3831 | O(M · (NP)³) + sort factors |
//! | [`V2Quadratic`] | C3831 fix | O(M · (NP)² · log(NP)) |
//! | [`V3VnodeAware`] | C3881 fix | O(M · NP · log(NP)) |
//! | [`FreshRingQuadratic`] | C6127 path | O(M · (NP)²), only on bootstrap-from-scratch |

use std::collections::{BTreeMap, BTreeSet};

use crate::table::{RingTable, TopologyChange};
use crate::token::{NodeId, Range, Token};

/// Counts the basic operations a calculator executes.
///
/// One "op" is one inner-loop step (a comparison, a map probe, a scan
/// step). The cluster layer converts ops into virtual compute time with a
/// calibrated cost per op, realizing the paper's in-situ time recording.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounter {
    ops: u64,
}

impl OpCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        OpCounter::default()
    }

    /// Adds `n` operations.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.ops += n;
    }

    /// Adds one operation.
    #[inline]
    pub fn tick(&mut self) {
        self.ops += 1;
    }

    /// Total operations counted.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// The calculation result: future ranges that gain endpoints, with the
/// set of endpoints that must start receiving writes.
pub type PendingRanges = BTreeMap<Range, BTreeSet<NodeId>>;

/// A pending-range calculator version.
pub trait PendingRangeCalculator {
    /// Short version name (e.g. `"v1-cubic"`).
    fn name(&self) -> &'static str;

    /// The complexity class the version belongs to, as documented in the
    /// bug reports.
    fn complexity(&self) -> &'static str;

    /// Computes pending ranges for `changes` applied to `ring`, counting
    /// executed operations into `counter`.
    fn calculate(
        &self,
        ring: &RingTable,
        changes: &[TopologyChange],
        counter: &mut OpCounter,
    ) -> PendingRanges;

    /// Like [`PendingRangeCalculator::calculate`], but reports the ops
    /// this invocation consumed to the tracing layer (the per-calc op
    /// count behind `calc.recalculate` span args).
    fn calculate_traced(
        &self,
        ring: &RingTable,
        changes: &[TopologyChange],
        counter: &mut OpCounter,
    ) -> PendingRanges {
        let before = counter.ops();
        let out = self.calculate(ring, changes, counter);
        scalecheck_obs::metric(
            scalecheck_obs::Metric::CalcOps,
            counter.ops().saturating_sub(before),
        );
        out
    }
}

// ---------------------------------------------------------------------
// Shared primitives (each counts its own work).
// ---------------------------------------------------------------------

/// Distinct replica endpoints for the range ending at `map[idx]`,
/// walking clockwise with early exit once `rf` distinct nodes are found.
fn replicas_at_fast(
    map: &[(Token, NodeId)],
    idx: usize,
    rf: usize,
    counter: &mut OpCounter,
) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    let n = map.len();
    for step in 0..n {
        counter.tick();
        let (_, node) = map[(idx + step) % n];
        out.insert(node);
        if out.len() >= rf {
            break;
        }
    }
    out
}

/// Index of the token map entry owning point `t`: first token `>= t`,
/// wrapping to 0. Binary search (counts log steps).
fn point_index_bsearch(map: &[(Token, NodeId)], t: Token, counter: &mut OpCounter) -> usize {
    let mut lo = 0usize;
    let mut hi = map.len();
    while lo < hi {
        counter.tick();
        let mid = (lo + hi) / 2;
        if map[mid].0 < t {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo % map.len()
}

/// Same as [`point_index_bsearch`] but by exhaustive linear scan (counts
/// every step) — the wasteful variant used by older calculator versions.
fn point_index_linear(map: &[(Token, NodeId)], t: Token, counter: &mut OpCounter) -> usize {
    for (i, &(tok, _)) in map.iter().enumerate() {
        counter.tick();
        if tok >= t {
            return i;
        }
    }
    0
}

/// Counts the cost of producing a sorted future map (`k log k` for the
/// sort the implementation performs).
fn count_sort(k: usize, counter: &mut OpCounter) {
    let logk = (k.max(2) as f64).log2().ceil() as u64;
    counter.add(k as u64 * logk);
}

/// The canonical pending-range semantics, computed the cheap way.
/// All calculators reduce to this result.
fn pending_for(
    ring: &RingTable,
    changes: &[TopologyChange],
    counter: &mut OpCounter,
    current: &[(Token, NodeId)],
    future: &[(Token, NodeId)],
) -> PendingRanges {
    let rf = ring.rf();
    let mut out = PendingRanges::new();
    let n = future.len();
    if n == 0 {
        return out;
    }
    let _ = changes;
    for i in 0..n {
        let start = future[(i + n - 1) % n].0;
        let end = future[i].0;
        let range = Range::new(start, end);
        let fut_reps = replicas_at_fast(future, i, rf, counter);
        let cur_reps = if current.is_empty() {
            BTreeSet::new()
        } else {
            let idx = point_index_bsearch(current, end, counter);
            replicas_at_fast(current, idx, rf, counter)
        };
        let pend: BTreeSet<NodeId> = fut_reps.difference(&cur_reps).copied().collect();
        if !pend.is_empty() {
            out.insert(range, pend);
        }
    }
    out
}

// ---------------------------------------------------------------------
// V1: the pre-C3831 cubic implementation.
// ---------------------------------------------------------------------

/// The original `calculatePendingRanges`: for every prefix of the change
/// list it rebuilds the future ring and, for **every range**, tests
/// **every node** for replica-ship by walking the **whole ring** — the
/// triple nested loop over the `@scaledep` ring table that C3831 calls
/// out.
#[derive(Clone, Copy, Debug, Default)]
pub struct V1Cubic;

impl V1Cubic {
    /// Naive replica-ship test: walk the full circle from `idx`, never
    /// early-exiting, and report whether `node` appears among the first
    /// `rf` distinct endpoints.
    fn is_replica_naive(
        map: &[(Token, NodeId)],
        idx: usize,
        node: NodeId,
        rf: usize,
        counter: &mut OpCounter,
    ) -> bool {
        let n = map.len();
        let mut distinct: Vec<NodeId> = Vec::new();
        let mut hit = false;
        for step in 0..n {
            counter.tick();
            let (_, at) = map[(idx + step) % n];
            if !distinct.contains(&at) {
                distinct.push(at);
            }
            if at == node && distinct.iter().position(|&d| d == at).unwrap() < rf {
                hit = true;
            }
            // No early exit: the historical code walked on.
        }
        hit
    }
}

impl PendingRangeCalculator for V1Cubic {
    fn name(&self) -> &'static str {
        "v1-cubic"
    }

    fn complexity(&self) -> &'static str {
        "O(M*(NP)^3)"
    }

    fn calculate(
        &self,
        ring: &RingTable,
        changes: &[TopologyChange],
        counter: &mut OpCounter,
    ) -> PendingRanges {
        let rf = ring.rf();
        let current = ring.current_token_map();
        let mut out = PendingRanges::new();
        // The historical code recomputed the whole state per change entry,
        // keeping only the final answer.
        for m in 1..=changes.len().max(1) {
            let prefix = &changes[..m.min(changes.len())];
            let future = ring
                .future_token_map(prefix)
                .expect("duplicate token in change list");
            count_sort(future.len(), counter);
            out = PendingRanges::new();
            let n = future.len();
            if n == 0 {
                continue;
            }
            let mut node_ids: Vec<NodeId> = future.iter().map(|&(_, id)| id).collect();
            node_ids.sort_unstable();
            node_ids.dedup();
            for i in 0..n {
                let start = future[(i + n - 1) % n].0;
                let end = future[i].0;
                let range = Range::new(start, end);
                let mut fut_reps = BTreeSet::new();
                for &node in &node_ids {
                    // Triple loop: ranges x nodes x full-ring walk.
                    if Self::is_replica_naive(&future, i, node, rf, counter) {
                        fut_reps.insert(node);
                    }
                }
                let cur_reps = if current.is_empty() {
                    BTreeSet::new()
                } else {
                    let idx = point_index_linear(&current, end, counter);
                    replicas_at_fast(&current, idx, rf, counter)
                };
                let pend: BTreeSet<NodeId> = fut_reps.difference(&cur_reps).copied().collect();
                if !pend.is_empty() {
                    out.insert(range, pend);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// V2: the C3831 fix — quadratic.
// ---------------------------------------------------------------------

/// The C3831 fix: replica sets are computed with an early-exit clockwise
/// walk, but the current-ring lookup is still a linear scan and the whole
/// state is still recomputed per change entry. Adequate for physical
/// nodes; inadequate once vnodes multiply the map size (C3881).
#[derive(Clone, Copy, Debug, Default)]
pub struct V2Quadratic;

impl PendingRangeCalculator for V2Quadratic {
    fn name(&self) -> &'static str {
        "v2-quadratic"
    }

    fn complexity(&self) -> &'static str {
        "O(M*(NP)^2*log(NP))"
    }

    fn calculate(
        &self,
        ring: &RingTable,
        changes: &[TopologyChange],
        counter: &mut OpCounter,
    ) -> PendingRanges {
        let rf = ring.rf();
        let current = ring.current_token_map();
        let mut out = PendingRanges::new();
        for m in 1..=changes.len().max(1) {
            let prefix = &changes[..m.min(changes.len())];
            let future = ring
                .future_token_map(prefix)
                .expect("duplicate token in change list");
            count_sort(future.len(), counter);
            out = PendingRanges::new();
            let n = future.len();
            if n == 0 {
                continue;
            }
            for i in 0..n {
                let start = future[(i + n - 1) % n].0;
                let end = future[i].0;
                let range = Range::new(start, end);
                let fut_reps = replicas_at_fast(&future, i, rf, counter);
                let cur_reps = if current.is_empty() {
                    BTreeSet::new()
                } else {
                    // Linear point lookup: the remaining quadratic term.
                    let idx = point_index_linear(&current, end, counter);
                    replicas_at_fast(&current, idx, rf, counter)
                };
                let pend: BTreeSet<NodeId> = fut_reps.difference(&cur_reps).copied().collect();
                if !pend.is_empty() {
                    out.insert(range, pend);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// V3: the C3881 redesign — vnode-aware.
// ---------------------------------------------------------------------

/// The C3881 redesign: one pass per change entry, binary-search point
/// lookups, early-exit replica walks — `O(M · NP · log(NP))`.
#[derive(Clone, Copy, Debug, Default)]
pub struct V3VnodeAware;

impl PendingRangeCalculator for V3VnodeAware {
    fn name(&self) -> &'static str {
        "v3-vnode-aware"
    }

    fn complexity(&self) -> &'static str {
        "O(M*NP*log(NP))"
    }

    fn calculate(
        &self,
        ring: &RingTable,
        changes: &[TopologyChange],
        counter: &mut OpCounter,
    ) -> PendingRanges {
        let current = ring.current_token_map();
        let mut out = PendingRanges::new();
        for m in 1..=changes.len().max(1) {
            let prefix = &changes[..m.min(changes.len())];
            let future = ring
                .future_token_map(prefix)
                .expect("duplicate token in change list");
            count_sort(future.len(), counter);
            out = pending_for(ring, prefix, counter, &current, &future);
        }
        out
    }
}

// ---------------------------------------------------------------------
// C6127: the bootstrap-from-scratch path.
// ---------------------------------------------------------------------

/// The fresh-ring construction path of C6127: taken only when the current
/// ring is empty (a cluster bootstrapping from scratch), it constructs
/// ownership with a quadratic scan per change entry. On the incremental
/// path it delegates to [`V3VnodeAware`], exactly like the patched code
/// that still contained this second, rarely-exercised branch.
#[derive(Clone, Copy, Debug, Default)]
pub struct FreshRingQuadratic;

impl PendingRangeCalculator for FreshRingQuadratic {
    fn name(&self) -> &'static str {
        "fresh-ring-quadratic"
    }

    fn complexity(&self) -> &'static str {
        "O(M*(NP)^2) when bootstrapping from scratch, else O(M*NP*log(NP))"
    }

    fn calculate(
        &self,
        ring: &RingTable,
        changes: &[TopologyChange],
        counter: &mut OpCounter,
    ) -> PendingRanges {
        let current = ring.current_token_map();
        if !current.is_empty() {
            return V3VnodeAware.calculate(ring, changes, counter);
        }
        // Bootstrap-from-scratch: every range's replica set is computed
        // with linear point lookups against a per-change rebuilt map.
        let rf = ring.rf();
        let mut out = PendingRanges::new();
        for m in 1..=changes.len().max(1) {
            let prefix = &changes[..m.min(changes.len())];
            let future = ring
                .future_token_map(prefix)
                .expect("duplicate token in change list");
            count_sort(future.len(), counter);
            out = PendingRanges::new();
            let n = future.len();
            if n == 0 {
                continue;
            }
            for i in 0..n {
                let start = future[(i + n - 1) % n].0;
                let end = future[i].0;
                // Linear lookup of own index — the quadratic term.
                let idx = point_index_linear(&future, end, counter);
                let fut_reps = replicas_at_fast(&future, idx, rf, counter);
                // Fresh ring: nothing is currently owned, all is pending.
                out.insert(Range::new(start, end), fut_reps);
            }
        }
        out
    }
}

/// All calculator versions, for sweep experiments.
pub fn all_calculators() -> Vec<Box<dyn PendingRangeCalculator>> {
    vec![
        Box::new(V1Cubic),
        Box::new(V2Quadratic),
        Box::new(V3VnodeAware),
        Box::new(FreshRingQuadratic),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::NodeStatus;
    use crate::token::spread_tokens;

    fn ring_of(n: u32, p: usize) -> RingTable {
        let mut r = RingTable::new(3);
        for i in 0..n {
            r.add_node(NodeId(i), NodeStatus::Normal, spread_tokens(NodeId(i), p))
                .unwrap();
        }
        r
    }

    fn join_change(id: u32, p: usize) -> TopologyChange {
        TopologyChange::Join {
            node: NodeId(id),
            tokens: spread_tokens(NodeId(id), p),
        }
    }

    #[test]
    fn all_versions_agree_on_join() {
        let ring = ring_of(8, 4);
        let changes = vec![join_change(100, 4)];
        let mut results = Vec::new();
        for calc in all_calculators() {
            let mut c = OpCounter::new();
            results.push((calc.name(), calc.calculate(&ring, &changes, &mut c)));
        }
        for w in results.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{} != {}", w[0].0, w[1].0);
        }
        assert!(
            !results[0].1.is_empty(),
            "a join must create pending ranges"
        );
    }

    #[test]
    fn all_versions_agree_on_leave() {
        let ring = ring_of(8, 4);
        let changes = vec![TopologyChange::Leave { node: NodeId(3) }];
        let mut results = Vec::new();
        for calc in all_calculators() {
            let mut c = OpCounter::new();
            results.push(calc.calculate(&ring, &changes, &mut c));
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert!(!results[0].is_empty(), "a leave must create pending ranges");
    }

    #[test]
    fn all_versions_agree_on_mixed_batch() {
        let ring = ring_of(10, 2);
        let changes = vec![
            join_change(50, 2),
            TopologyChange::Leave { node: NodeId(1) },
            join_change(51, 2),
        ];
        let mut results = Vec::new();
        for calc in all_calculators() {
            let mut c = OpCounter::new();
            results.push(calc.calculate(&ring, &changes, &mut c));
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn no_changes_yields_no_pending() {
        let ring = ring_of(6, 4);
        for calc in all_calculators() {
            let mut c = OpCounter::new();
            let out = calc.calculate(&ring, &[], &mut c);
            assert!(out.is_empty(), "{}", calc.name());
        }
    }

    #[test]
    fn op_counts_are_strictly_ordered_v1_v2_v3() {
        let ring = ring_of(24, 4);
        let changes = vec![join_change(100, 4)];
        let mut c1 = OpCounter::new();
        let mut c2 = OpCounter::new();
        let mut c3 = OpCounter::new();
        V1Cubic.calculate(&ring, &changes, &mut c1);
        V2Quadratic.calculate(&ring, &changes, &mut c2);
        V3VnodeAware.calculate(&ring, &changes, &mut c3);
        assert!(
            c1.ops() > 10 * c2.ops(),
            "v1 ({}) should dwarf v2 ({})",
            c1.ops(),
            c2.ops()
        );
        assert!(
            c2.ops() > 2 * c3.ops(),
            "v2 ({}) should exceed v3 ({})",
            c2.ops(),
            c3.ops()
        );
    }

    #[test]
    fn v1_growth_is_cubic_class() {
        // Doubling the cluster should multiply v1 ops by ~8.
        let changes = vec![join_change(1000, 1)];
        let ops = |n: u32| {
            let ring = ring_of(n, 1);
            let mut c = OpCounter::new();
            V1Cubic.calculate(&ring, &changes, &mut c);
            c.ops() as f64
        };
        let r = ops(64) / ops(32);
        assert!(r > 5.5 && r < 11.0, "v1 doubling ratio {r}");
    }

    #[test]
    fn v2_growth_is_quadratic_class() {
        let changes = vec![join_change(1000, 1)];
        let ops = |n: u32| {
            let ring = ring_of(n, 1);
            let mut c = OpCounter::new();
            V2Quadratic.calculate(&ring, &changes, &mut c);
            c.ops() as f64
        };
        let r = ops(128) / ops(64);
        assert!(r > 3.0 && r < 5.5, "v2 doubling ratio {r}");
    }

    #[test]
    fn v3_growth_is_near_linear() {
        let changes = vec![join_change(1000, 1)];
        let ops = |n: u32| {
            let ring = ring_of(n, 1);
            let mut c = OpCounter::new();
            V3VnodeAware.calculate(&ring, &changes, &mut c);
            c.ops() as f64
        };
        let r = ops(256) / ops(128);
        assert!(r > 1.7 && r < 3.0, "v3 doubling ratio {r}");
    }

    #[test]
    fn vnodes_multiply_v2_cost() {
        // C3881: the v2 fix does not scale when N becomes N*P.
        let changes = vec![join_change(1000, 8)];
        let ring_p1 = ring_of(16, 1);
        let ring_p8 = ring_of(16, 8);
        let mut c1 = OpCounter::new();
        let mut c8 = OpCounter::new();
        V2Quadratic.calculate(&ring_p1, &[join_change(1000, 1)], &mut c1);
        V2Quadratic.calculate(&ring_p8, &changes, &mut c8);
        assert!(
            c8.ops() as f64 / c1.ops() as f64 > 30.0,
            "8x vnodes should blow up v2 quadratically: {} vs {}",
            c8.ops(),
            c1.ops()
        );
    }

    #[test]
    fn fresh_ring_path_taken_only_when_empty() {
        // Empty current ring: quadratic fresh construction, all pending.
        let empty = RingTable::new(3);
        let changes: Vec<TopologyChange> = (0..8).map(|i| join_change(i, 2)).collect();
        let mut c = OpCounter::new();
        let out = FreshRingQuadratic.calculate(&empty, &changes, &mut c);
        assert_eq!(out.len(), 16, "every range pending on fresh bootstrap");
        // Non-empty ring: delegates to v3 (same ops as v3).
        let ring = ring_of(8, 2);
        let ch = vec![join_change(100, 2)];
        let mut cf = OpCounter::new();
        let mut c3 = OpCounter::new();
        let of = FreshRingQuadratic.calculate(&ring, &ch, &mut cf);
        let o3 = V3VnodeAware.calculate(&ring, &ch, &mut c3);
        assert_eq!(of, o3);
        assert_eq!(cf.ops(), c3.ops());
    }

    #[test]
    fn pending_nodes_are_the_movers() {
        // A single join: pending endpoints must include the joiner.
        let ring = ring_of(8, 1);
        let joiner = NodeId(100);
        let changes = vec![TopologyChange::Join {
            node: joiner,
            tokens: spread_tokens(joiner, 1),
        }];
        let mut c = OpCounter::new();
        let out = V3VnodeAware.calculate(&ring, &changes, &mut c);
        assert!(
            out.values().any(|s| s.contains(&joiner)),
            "joiner must appear in pending sets: {out:?}"
        );
    }
}
