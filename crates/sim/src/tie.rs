//! Tie-order policies: deterministic perturbation of same-timestamp
//! event ordering.
//!
//! The engine fires events in `(at, seq)` order — ties at equal virtual
//! time resolve by scheduling sequence. That rule is *one* legal
//! interleaving of a distributed execution; any permutation of a tie
//! batch is equally legal (the events are concurrent by construction).
//! A [`SpecTieOrder`] policy chooses which one: every schedule call is
//! assigned a *tie key*, and ties fire in ascending `(key, seq)` order.
//!
//! The stock order is the monotone key `seq << 1`. Perturbations only
//! ever permute events that share a firing time — virtual time, event
//! counts, and causality (an event never fires before it is scheduled)
//! are untouched, which is what makes the search in `crates/explore`
//! sound: every explored ordering is a run the real system could have
//! produced.
//!
//! [`TieOrderSpec`] is the serializable description (a schedule witness
//! stores it, and replays the perturbation from its JSON).
//! [`ScheduleProbe`] is the engine's fire log plus the kind of each
//! registered handler, from which the explorer derives tie groups and
//! targeted swap candidates.

use serde::{Deserialize, Serialize};

use crate::rng::DetRng;

/// The stock tie key: monotone in `seq`, so ties fire in scheduling
/// order. Left-shifted so targeted swaps can land *between* stock keys
/// (see [`TieSwap`]).
#[inline]
pub fn identity_key(seq: u64) -> u64 {
    seq << 1
}

/// One targeted reordering: the event scheduled with sequence `seq`
/// fires *after* the event scheduled with sequence `seq + shift`,
/// provided the two tie (share a firing time). Its key becomes
/// `((seq + shift) << 1) | 1` — strictly between the stock keys of
/// `seq + shift` and `seq + shift + 1` — so a `shift` of 1 is an
/// adjacent swap and larger shifts hop further down the tie batch.
/// A `shift` of 0 encodes the identity permutation through the
/// perturbed code path (the differential suites exercise this).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TieSwap {
    /// Scheduling sequence of the event to delay.
    pub seq: u64,
    /// How many scheduling sequences to hop past.
    pub shift: u64,
}

impl TieSwap {
    /// The perturbed key this swap assigns.
    #[inline]
    pub fn key(&self) -> u64 {
        (self.seq.saturating_add(self.shift) << 1) | 1
    }
}

/// Serializable description of a tie-order policy.
///
/// `shuffle` assigns every schedule call a key drawn from a [`DetRng`]
/// seeded with the given value — a seeded full shuffle of every tie
/// batch. `swaps` apply targeted reorderings relative to the stock
/// order (they take precedence over the shuffle for their sequences;
/// combining both is allowed but swaps are only meaningful against the
/// stock order, so the explorer never mixes them).
#[derive(Clone, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TieOrderSpec {
    /// Seed for the full-shuffle key stream, if any.
    pub shuffle: Option<u64>,
    /// Targeted swaps, sorted by `seq` (enforced on construction).
    pub swaps: Vec<TieSwap>,
}

impl TieOrderSpec {
    /// The stock order: no shuffle, no swaps.
    pub fn identity() -> Self {
        Self::default()
    }

    /// A seeded full shuffle of every tie batch.
    pub fn shuffled(seed: u64) -> Self {
        TieOrderSpec {
            shuffle: Some(seed),
            swaps: Vec::new(),
        }
    }

    /// Targeted swaps against the stock order.
    pub fn with_swaps(mut swaps: Vec<TieSwap>) -> Self {
        swaps.sort_unstable_by_key(|s| s.seq);
        swaps.dedup_by_key(|s| s.seq);
        TieOrderSpec {
            shuffle: None,
            swaps,
        }
    }

    /// Whether this spec is structurally the stock order. Note that a
    /// non-empty spec can still *encode* the identity permutation
    /// (all-zero shifts); such specs run through the perturbed path.
    pub fn is_identity(&self) -> bool {
        self.shuffle.is_none() && self.swaps.is_empty()
    }

    /// Builds the runtime policy for this spec.
    pub fn policy(&self) -> SpecTieOrder {
        let mut swaps = self.swaps.clone();
        swaps.sort_unstable_by_key(|s| s.seq);
        swaps.dedup_by_key(|s| s.seq);
        SpecTieOrder {
            rng: self.shuffle.map(DetRng::new),
            swaps,
        }
    }
}

/// The runtime policy behind a [`TieOrderSpec`]: maps each schedule
/// call to a tie-break key. Events with equal firing time fire in
/// ascending `(key, seq)` order; the key has no effect across distinct
/// firing times.
pub struct SpecTieOrder {
    rng: Option<DetRng>,
    /// Sorted by `seq` for binary search.
    swaps: Vec<TieSwap>,
}

impl SpecTieOrder {
    /// The tie-break key of the event with scheduling sequence `seq`.
    pub fn tie_key(&mut self, seq: u64) -> u64 {
        // Swaps pin their sequences regardless of the shuffle; the
        // shuffle stream still advances once per schedule call so that
        // adding a swap does not shift every later shuffled key.
        let drawn = self.rng.as_mut().map(|r| r.next_u64());
        if let Ok(i) = self.swaps.binary_search_by_key(&seq, |s| s.seq) {
            return self.swaps[i].key();
        }
        drawn.unwrap_or_else(|| identity_key(seq))
    }
}

// ---------------------------------------------------------------------
// Schedule probing: the raw material for targeted perturbation.
// ---------------------------------------------------------------------

/// One fired event, in firing order: firing time (virtual
/// nanoseconds), scheduling sequence, and the handler (by registration
/// index) and payload it fired with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct FireRec {
    /// Firing time in virtual nanoseconds.
    pub at: u64,
    /// Scheduling sequence.
    pub seq: u64,
    /// Registration index of the handler the event dispatched to.
    pub handler: u32,
    /// The event's payload; the low 32 bits name the node it belongs to.
    pub payload: u64,
}

/// The event kinds the explorer reasons about. A handler of any other
/// kind ([`tag::INTERNAL`]) is an internal continuation (task
/// bookkeeping, lock grants, samplers) whose reordering it skips.
pub mod tag {
    /// Not a kind the explorer reorders.
    pub const INTERNAL: u64 = 0;
    /// A message delivery to a node's gossip stage.
    pub const DELIVER: u64 = 1;
    /// A periodic gossip-round timer.
    pub const GOSSIP_TIMER: u64 = 2;
    /// A periodic failure-detector timer.
    pub const FD_TIMER: u64 = 3;
    /// A gossip-message processing completion (heartbeats apply here,
    /// and replies are sent — which draws from the shared engine RNG).
    pub const RECV_DONE: u64 = 4;
    /// A gossip send-round completion (the outgoing Syn is sent here —
    /// which draws from the shared engine RNG).
    pub const SEND_DONE: u64 = 5;
}

/// The engine's fire log plus the [`tag`] kind of every registered
/// handler — enough to reconstruct every tie batch of a run and
/// classify its members.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ScheduleProbe {
    /// Every fired event, in firing order.
    pub fires: Vec<FireRec>,
    /// The kind of each handler, by registration index.
    pub kinds: Vec<u64>,
}

impl ScheduleProbe {
    /// What a fired event is: its kind and node, or `None` for an
    /// internal continuation.
    pub fn kind_of(&self, f: &FireRec) -> Option<(u64, u32)> {
        match self.kinds.get(f.handler as usize) {
            None | Some(&tag::INTERNAL) => None,
            Some(&kind) => Some((kind, f.payload as u32)),
        }
    }

    /// Groups consecutive fired events that share a firing time;
    /// returns only groups of two or more (the tie batches).
    pub fn tie_groups(&self) -> Vec<&[FireRec]> {
        let mut out = Vec::new();
        let mut start = 0;
        for i in 1..=self.fires.len() {
            if i == self.fires.len() || self.fires[i].at != self.fires[start].at {
                if i - start >= 2 {
                    out.push(&self.fires[start..i]);
                }
                start = i;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(spec: &TieOrderSpec, seq: u64) -> u64 {
        spec.policy().tie_key(seq)
    }

    #[test]
    fn identity_spec_reproduces_stock_keys() {
        let spec = TieOrderSpec::identity();
        assert!(spec.is_identity());
        for seq in [0, 1, 5, 1 << 40] {
            assert_eq!(key_of(&spec, seq), identity_key(seq));
        }
    }

    #[test]
    fn zero_shift_swaps_encode_identity_order() {
        // key = (seq << 1) | 1 sits strictly between seq and seq+1's
        // stock keys, so the permutation is unchanged.
        let spec = TieOrderSpec::with_swaps(vec![TieSwap { seq: 3, shift: 0 }]);
        assert!(!spec.is_identity());
        let k2 = key_of(&spec, 2);
        let k3 = key_of(&spec, 3);
        let k4 = key_of(&spec, 4);
        assert!(k2 < k3 && k3 < k4);
    }

    #[test]
    fn shift_one_is_an_adjacent_swap() {
        let spec = TieOrderSpec::with_swaps(vec![TieSwap { seq: 3, shift: 1 }]);
        let k3 = key_of(&spec, 3);
        let k4 = key_of(&spec, 4);
        let k5 = key_of(&spec, 5);
        assert!(k4 < k3, "seq 3 must fire after seq 4");
        assert!(k3 < k5, "but before seq 5");
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut p = TieOrderSpec::shuffled(7).policy();
            (0..16).map(|s| p.tie_key(s)).collect()
        };
        let b: Vec<u64> = {
            let mut p = TieOrderSpec::shuffled(7).policy();
            (0..16).map(|s| p.tie_key(s)).collect()
        };
        let c: Vec<u64> = {
            let mut p = TieOrderSpec::shuffled(8).policy();
            (0..16).map(|s| p.tie_key(s)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn swaps_are_sorted_and_deduped() {
        let spec = TieOrderSpec::with_swaps(vec![
            TieSwap { seq: 9, shift: 2 },
            TieSwap { seq: 3, shift: 1 },
            TieSwap { seq: 9, shift: 5 },
        ]);
        assert_eq!(spec.swaps.len(), 2);
        assert_eq!(spec.swaps[0].seq, 3);
        assert_eq!(spec.swaps[1].seq, 9);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = TieOrderSpec {
            shuffle: Some(42),
            swaps: vec![TieSwap { seq: 10, shift: 3 }],
        };
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: TieOrderSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, spec);
    }

    fn fire(at: u64, seq: u64, handler: u32, payload: u64) -> FireRec {
        FireRec {
            at,
            seq,
            handler,
            payload,
        }
    }

    #[test]
    fn tie_groups_finds_batches() {
        let probe = ScheduleProbe {
            fires: [
                (10, 1),
                (20, 2),
                (20, 3),
                (20, 4),
                (30, 5),
                (40, 6),
                (40, 7),
            ]
            .map(|(at, seq)| fire(at, seq, 0, 0))
            .to_vec(),
            kinds: vec![],
        };
        let groups = probe.tie_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 3);
        assert_eq!(groups[1].len(), 2);
    }

    #[test]
    fn kind_of_reads_the_handler_table_and_the_payload_low_word() {
        let probe = ScheduleProbe {
            fires: vec![],
            kinds: vec![tag::INTERNAL, tag::DELIVER],
        };
        let deliver = fire(10, 1, 1, (9 << 32) | 77);
        assert_eq!(probe.kind_of(&deliver), Some((tag::DELIVER, 77)));
        assert_eq!(probe.kind_of(&fire(10, 2, 0, 77)), None, "internal");
        assert_eq!(probe.kind_of(&fire(10, 3, 2, 77)), None, "unlisted");
    }
}
