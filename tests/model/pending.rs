//! The four pending-range calculators as the ring crate shipped them
//! before it billed their ops instead of executing them: the literal
//! loops, including V1's N full-ring walks per range, each linear scan
//! and each per-range set. Oracles for
//! `calculators_match_their_literal_models`: the crate's versions must
//! return the same `PendingRanges` and add the same count to `OpCounter`.

use std::collections::BTreeSet;

use scalecheck_ring::{
    NodeId, OpCounter, PendingRangeCalculator, PendingRanges, Range, RingTable, Token,
    TopologyChange,
};

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
