//! DPOR-lite candidate generation: targeted swaps at commutativity
//! points.
//!
//! A full dynamic partial-order reduction tracks happens-before across
//! the run; we use the lightweight frontier the probe affords. Every
//! pair inside a tie batch is a potential swap, but most pairs provably
//! commute in this model, and the frontier skips them:
//!
//! * **Same node, known kinds** — race. These are the classic
//!   scheduler-undefined orders: a processing completion applying
//!   heartbeats vs the failure-detector sweep that convicts, a message
//!   delivery vs a timer, two timers.
//! * **Cross node, both send-capable** — race. Send-round and receive
//!   completions draw drop/latency randomness from the *shared* engine
//!   RNG when they emit messages, so their relative order redistributes
//!   those draws even though node state is disjoint.
//! * **Everything else** — skipped. Cross-node pairs that do not both
//!   touch the shared RNG act on disjoint node state (per-node gossip
//!   RNG streams), and internal continuations (stage bookkeeping, lock
//!   grants) are events whose intra-tick order the stage machinery
//!   already fixes.

use scalecheck_sim::tie::tag;
use scalecheck_sim::{ScheduleProbe, TieSwap};

/// The swap frontier derived from one schedule probe.
#[derive(Clone, Debug, Default)]
pub struct CandidateSet {
    /// Racing pairs, as targeted swaps against the stock order.
    pub swaps: Vec<TieSwap>,
    /// Tie pairs examined.
    pub considered: usize,
    /// Pairs skipped as provably commuting (cross-node without shared
    /// RNG draws, or internal continuations).
    pub skipped_commuting: usize,
}

/// Whether this event kind can emit a message when it fires (and so
/// consumes drop/latency draws from the shared engine RNG).
fn send_capable(kind: u64) -> bool {
    matches!(kind, tag::RECV_DONE | tag::SEND_DONE)
}

/// Whether two events, as `(kind, node)`, race (scheduler-undefined
/// order with an observable effect): any two known kinds on one node,
/// or two send-capable completions on different nodes (shared-RNG draw
/// order).
fn races((ka, na): (u64, u32), (kb, nb): (u64, u32)) -> bool {
    let known = |k| {
        matches!(
            k,
            tag::DELIVER | tag::GOSSIP_TIMER | tag::FD_TIMER | tag::RECV_DONE | tag::SEND_DONE
        )
    };
    if !known(ka) || !known(kb) {
        return false;
    }
    if na == nb {
        return true;
    }
    send_capable(ka) && send_capable(kb)
}

/// Pairs examined per tie batch (quadratic guard for giant batches).
const MAX_PAIRS_PER_GROUP: usize = 128;

/// Ranking of a racing pair: how likely its order is to matter.
/// Shared-RNG races redistribute drop/latency draws (always
/// observable when a draw differs); delivery-vs-timer races matter
/// near failure-detector margins; timer-timer pairs mostly commute in
/// effect and come last.
fn class_of(ka: u64, kb: u64) -> usize {
    if send_capable(ka) || send_capable(kb) {
        0
    } else if ka == tag::DELIVER || kb == tag::DELIVER {
        1
    } else {
        2
    }
}

/// Derives the targeted-swap frontier from `probe`, capped at `max`
/// swaps (the budget guard; excess candidates are counted but
/// dropped). All ordered pairs within a batch are considered, not just
/// adjacent ones: the swap that moves `a` past a later `b` encodes the
/// race directly, wherever the pair sits in the batch. The kept `max`
/// are chosen best-class-first ([`class_of`]); within a class, half
/// the room samples the first quarter of the timeline densely and the
/// rest strides evenly over the remainder. The front bias is
/// empirical: consequential races concentrate in the failure
/// detector's warm-up window, where few heartbeat samples make φ
/// volatile and an early conviction cascades through the rest of the
/// run.
pub fn targeted_swaps(probe: &ScheduleProbe, max: usize) -> CandidateSet {
    let mut out = CandidateSet::default();
    let mut classes: [Vec<TieSwap>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for group in probe.tie_groups() {
        let mut pairs = 0;
        'group: for ai in 0..group.len() {
            for bi in ai + 1..group.len() {
                if pairs >= MAX_PAIRS_PER_GROUP {
                    break 'group;
                }
                pairs += 1;
                out.considered += 1;
                let (a, b) = (group[ai], group[bi]);
                let (Some(ta), Some(tb)) = (probe.kind_of(&a), probe.kind_of(&b)) else {
                    out.skipped_commuting += 1;
                    continue;
                };
                if !races(ta, tb) {
                    out.skipped_commuting += 1;
                    continue;
                }
                // Identity order fires ascending seq, so the swap that
                // reverses the pair delays `a` past `b`.
                if b.seq > a.seq {
                    classes[class_of(ta.0, tb.0)].push(TieSwap {
                        seq: a.seq,
                        shift: b.seq - a.seq,
                    });
                }
            }
        }
    }
    for class in &classes {
        let room = max.saturating_sub(out.swaps.len());
        if room == 0 {
            break;
        }
        if class.len() <= room {
            out.swaps.extend_from_slice(class);
        } else {
            // Groups are time-ordered, so so are the gathered
            // candidates: index position is timeline position.
            let front_len = (class.len() / 4).max(1);
            let front_room = (room / 2).min(front_len);
            for k in 0..front_room {
                out.swaps.push(class[k * front_len / front_room]);
            }
            let tail = &class[front_len..];
            let tail_room = (room - front_room).min(tail.len());
            for k in 0..tail_room {
                out.swaps.push(tail[k * tail.len() / tail_room]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_sim::FireRec;

    /// A probe whose handler `k` has kind `k` (handler 0 is internal),
    /// over `(at, seq, kind, node)` fires.
    fn probe(fires: &[(u64, u64, u64, u32)]) -> ScheduleProbe {
        ScheduleProbe {
            fires: fires
                .iter()
                .map(|&(at, seq, kind, node)| FireRec {
                    at,
                    seq,
                    handler: kind as u32,
                    payload: node as u64 | 77 << 32,
                })
                .collect(),
            kinds: (0..=tag::SEND_DONE).collect(),
        }
    }

    #[test]
    fn same_node_races_are_candidates_cross_node_timers_are_skipped() {
        let p = probe(&[
            (10, 1, tag::DELIVER, 5),
            (10, 2, tag::FD_TIMER, 5),
            (10, 3, tag::DELIVER, 9),
            (20, 4, tag::INTERNAL, 0),
        ]);
        let c = targeted_swaps(&p, 100);
        assert_eq!(c.considered, 3, "all pairs in the batch");
        assert_eq!(c.swaps, vec![TieSwap { seq: 1, shift: 1 }]);
        assert_eq!(c.skipped_commuting, 2, "cross-node non-send pairs skip");
    }

    #[test]
    fn cross_node_send_completions_race_via_the_shared_rng() {
        let p = probe(&[(10, 1, tag::SEND_DONE, 3), (10, 2, tag::RECV_DONE, 7)]);
        let c = targeted_swaps(&p, 100);
        assert_eq!(c.swaps, vec![TieSwap { seq: 1, shift: 1 }]);
    }

    #[test]
    fn non_adjacent_same_node_pairs_are_candidates() {
        // fd timer ... deliver ... recv-done, all node 4: the fd-vs-
        // recv-done race needs shift 2, hopping past the deliver.
        let p = probe(&[
            (10, 1, tag::FD_TIMER, 4),
            (10, 2, tag::DELIVER, 4),
            (10, 3, tag::RECV_DONE, 4),
        ]);
        let c = targeted_swaps(&p, 100);
        assert!(c.swaps.contains(&TieSwap { seq: 1, shift: 2 }));
        assert_eq!(c.swaps.len(), 3);
    }

    #[test]
    fn internal_members_are_skipped() {
        let p = probe(&[(10, 1, tag::DELIVER, 0), (10, 2, tag::INTERNAL, 0)]);
        let c = targeted_swaps(&p, 100);
        assert!(c.swaps.is_empty());
        assert_eq!(c.skipped_commuting, 1);
    }

    #[test]
    fn cap_bounds_the_frontier_but_keeps_counting() {
        let fires: Vec<_> = (1..=10u64).map(|s| (10, s, tag::DELIVER, 1)).collect();
        let c = targeted_swaps(&probe(&fires), 3);
        assert_eq!(c.swaps.len(), 3);
        assert_eq!(c.considered, 45, "all 10-choose-2 pairs");
    }
}
