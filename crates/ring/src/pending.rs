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
//! | Version | Era | Billed op count (physical N, vnodes P, changes M) |
//! |---|---|---|
//! | [`V1Cubic`] | pre-C3831 | O(M · (NP)³) + sort factors |
//! | [`V2Quadratic`] | C3831 fix | O(M · (NP)² · log(NP)) |
//! | [`V3VnodeAware`] | C3881 fix | O(M · NP · log(NP)) |
//! | [`FreshRingQuadratic`] | C6127 path | O(M · (NP)²), only on bootstrap-from-scratch |
//!
//! The column is the count each version adds to [`OpCounter`], which the
//! cluster layer turns into virtual compute time. The host does not run
//! the historical loops to arrive at it: every version finds the same
//! replica sets with early-exit walks and binary searches and bills the
//! ops its loops would have executed, so the host cost of every version
//! is O(M · NP · rf) walk steps plus one future-map sort per prefix.

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
// Shared primitives.
// ---------------------------------------------------------------------

/// Distinct replica endpoints for the range ending at `map[idx]`: walks
/// clockwise, collecting distinct nodes into `out` (cleared first) until
/// it holds `rf` of them or the ring is exhausted. Returns the steps
/// taken, the ops the walk bills; on a non-empty map that is at least 1.
fn replicas_at_fast(map: &[(Token, NodeId)], idx: usize, rf: usize, out: &mut Vec<NodeId>) -> u64 {
    out.clear();
    let n = map.len();
    for step in 0..n {
        let (_, node) = map[(idx + step) % n];
        if !out.contains(&node) {
            out.push(node);
        }
        if out.len() >= rf {
            return step as u64 + 1;
        }
    }
    n as u64
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

/// Same index as [`point_index_bsearch`], billed as the exhaustive linear
/// scan the older versions ran: one op per entry up to and including the
/// owner, or the whole map when `t` lies past the last token and the scan
/// falls through to 0. Found by binary search.
fn point_index_linear(map: &[(Token, NodeId)], t: Token, counter: &mut OpCounter) -> usize {
    let p = map.partition_point(|&(tok, _)| tok < t);
    if p < map.len() {
        counter.add(p as u64 + 1);
        p
    } else {
        counter.add(map.len() as u64);
        0
    }
}

/// Counts the cost of producing a sorted future map (`k log k` for the
/// sort the implementation performs).
fn count_sort(k: usize, counter: &mut OpCounter) {
    let logk = (k.max(2) as f64).log2().ceil() as u64;
    counter.add(k as u64 * logk);
}

/// What a version executed to find one range's replica sets. Every
/// version finds the same sets; they differ only in the ops they bill.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Billing {
    /// V1: every node tested for replica-ship by a full-ring walk, then
    /// a linear lookup of the range in the current map.
    NaiveWalks,
    /// V2: an early-exit walk on the future map, then a linear lookup in
    /// the current map.
    LinearLookup,
    /// V3: an early-exit walk on the future map, then a binary-search
    /// lookup in the current map.
    BinaryLookup,
    /// C6127, empty current ring: a linear lookup of the range's own
    /// index in the future map before its early-exit walk.
    FreshRing,
}

/// The canonical pending-range semantics, billed as `billing`'s version
/// executed it. Every version recomputed the whole state for each prefix
/// of the change list and kept only the final answer, so each prefix
/// bills its ops but only the last builds the output. The replica sets
/// live in two buffers reused across ranges; a set is built only for a
/// range that enters the output.
fn pending_billed(
    ring: &RingTable,
    changes: &[TopologyChange],
    counter: &mut OpCounter,
    billing: Billing,
) -> PendingRanges {
    let rf = ring.rf();
    let current = ring.current_token_map();
    let mut out = PendingRanges::new();
    let (mut fut, mut cur) = (Vec::new(), Vec::new());
    let prefixes = changes.len().max(1);
    for m in 1..=prefixes {
        let last = m == prefixes;
        let future = ring
            .future_token_map(&changes[..m.min(changes.len())])
            .expect("duplicate token in change list");
        count_sort(future.len(), counter);
        let n = future.len();
        if n == 0 {
            continue;
        }
        if billing == Billing::NaiveWalks {
            // A full walk ticks n; one per (range, node). A node passes iff
            // it is among the first `rf` distinct owners from the range:
            // exactly the early-exit walk's set.
            let mut nodes: Vec<NodeId> = future.iter().map(|&(_, id)| id).collect();
            nodes.sort_unstable();
            nodes.dedup();
            counter.add(n as u64 * n as u64 * nodes.len() as u64);
        }
        for i in 0..n {
            let end = future[i].0;
            match billing {
                Billing::NaiveWalks if last => {
                    replicas_at_fast(&future, i, rf, &mut fut);
                }
                Billing::NaiveWalks => {}
                Billing::FreshRing => {
                    let idx = point_index_linear(&future, end, counter);
                    counter.add(replicas_at_fast(&future, idx, rf, &mut fut));
                }
                Billing::LinearLookup | Billing::BinaryLookup => {
                    counter.add(replicas_at_fast(&future, i, rf, &mut fut));
                }
            }
            cur.clear();
            if !current.is_empty() {
                let idx = if billing == Billing::BinaryLookup {
                    point_index_bsearch(&current, end, counter)
                } else {
                    point_index_linear(&current, end, counter)
                };
                counter.add(replicas_at_fast(&current, idx, rf, &mut cur));
            }
            if last {
                let pend: BTreeSet<NodeId> =
                    fut.iter().filter(|id| !cur.contains(id)).copied().collect();
                if !pend.is_empty() {
                    let start = future[(i + n - 1) % n].0;
                    out.insert(Range::new(start, end), pend);
                }
            }
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
        pending_billed(ring, changes, counter, Billing::NaiveWalks)
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
        pending_billed(ring, changes, counter, Billing::LinearLookup)
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
        pending_billed(ring, changes, counter, Billing::BinaryLookup)
    }
}

// ---------------------------------------------------------------------
// C6127: the bootstrap-from-scratch path.
// ---------------------------------------------------------------------

/// The fresh-ring construction path of C6127: taken only when the current
/// ring is empty (a cluster bootstrapping from scratch), it constructs
/// ownership with a quadratic scan per change entry — a linear lookup of
/// every range's own index, after which nothing is currently owned and
/// every range is pending. On the incremental path it delegates to
/// [`V3VnodeAware`], exactly like the patched code that still contained
/// this second, rarely-exercised branch.
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
        let billing = if ring.current_token_map().is_empty() {
            Billing::FreshRing
        } else {
            Billing::BinaryLookup
        };
        pending_billed(ring, changes, counter, billing)
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
