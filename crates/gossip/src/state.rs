//! Gossip endpoint state: heartbeats, versions, and per-peer state maps.
//!
//! Mirrors Cassandra's model: each node owns a monotone *generation*
//! (bumped on restart) and a *version clock* shared by its heartbeat and
//! its application state. Peers compare `(generation, max_version)` pairs
//! to decide who has fresher information.

use std::sync::Arc;

/// Identifies a gossip participant.
///
/// # Dense-id contract
///
/// Ids are **dense node indexes** — the cluster numbers its nodes
/// `0..total_nodes` and `Peer(i)` is node `i`. Every per-peer structure
/// in this crate ([`EndpointMap`], [`crate::FailureDetector`]) is a table
/// indexed by `Peer.0` and costs O(highest id seen) slots, the same
/// contract `scalecheck_net`'s tiled link clocks state for `Addr`. A
/// sparse id (`Peer(5000)` in a three-peer view) is legal and costs
/// 5001 slots, not a panic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Peer(pub u32);

impl std::fmt::Display for Peer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The largest value a generation or version clock may hold: 2³¹ − 1.
///
/// Clocks are `u32` and keep their top bit free, so that a clock and a
/// one-bit mark can share a word. A clock advances with [`tick`], which
/// panics past this value; a scenario whose clocks could get there is
/// rejected before it runs.
pub const CLOCK_MAX: u32 = (1 << 31) - 1;

/// Advances a generation or version clock by one.
///
/// # Panics
///
/// If the clock would pass [`CLOCK_MAX`].
pub(crate) fn tick(clock: u32) -> u32 {
    match clock.checked_add(1) {
        Some(next) if next <= CLOCK_MAX => next,
        _ => panic!("a gossip clock passed {CLOCK_MAX}"),
    }
}

/// A node's liveness beacon.
///
/// # Width contract
///
/// Both clocks are `u32` and stay at or below [`CLOCK_MAX`] (2³¹ − 1):
/// the generation ticks once per restart, the version once per gossip
/// round and once per app-state update, and a restart resets the
/// version. A run that could tick a clock past that is rejected up
/// front (`ScenarioConfig::validate` in the cluster crate bounds
/// `max_duration / gossip_interval`), so there is one width and no wide
/// fallback.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HeartbeatState {
    /// Incarnation number (bumped when the node restarts).
    pub generation: u32,
    /// Monotone version within the generation.
    pub version: u32,
}

/// Everything one node knows about one peer.
///
/// The application payload is behind an [`Arc`]: endpoint states move
/// between views on every syn/ack exchange, and sharing the payload
/// makes those moves cheap regardless of its size (token lists grow
/// with the vnode count). Only the owning node ever changes its own
/// app state — via [`EndpointState::new`]-style replacement, never
/// in-place — so shared payloads are immutable by construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EndpointState<A> {
    /// Liveness beacon.
    pub heartbeat: HeartbeatState,
    /// Version at which `app` last changed (a clock of the heartbeat's
    /// width contract).
    pub app_version: u32,
    /// Application payload (ring status, tokens, ... — opaque to gossip).
    pub app: Arc<A>,
}

impl<A> EndpointState<A> {
    /// Creates an endpoint state, wrapping the payload for sharing.
    pub fn new(heartbeat: HeartbeatState, app_version: u32, app: A) -> Self {
        EndpointState {
            heartbeat,
            app_version,
            app: Arc::new(app),
        }
    }

    /// The freshness watermark peers compare: the larger of the heartbeat
    /// and application versions.
    pub fn max_version(&self) -> u32 {
        self.heartbeat.version.max(self.app_version)
    }

    /// Whether this state is strictly fresher than a `(generation,
    /// max_version)` watermark.
    pub fn newer_than(&self, generation: u32, max_version: u32) -> bool {
        self.watermark() > watermark(generation, max_version)
    }

    /// This state's `(generation, max_version)` watermark as one number
    /// (see [`watermark`]).
    pub(crate) fn watermark(&self) -> u64 {
        watermark(self.heartbeat.generation, self.max_version())
    }

    /// Whether a requester at the `(generation, max_version)` watermark
    /// already holds this state's app state, so that only the heartbeat
    /// need move (see [`Self::delta_against`]).
    pub(crate) fn app_covered_by(&self, generation: u32, max_version: u32) -> bool {
        self.heartbeat.generation == generation && self.app_version <= max_version
    }
}

impl<A: Clone> EndpointState<A> {
    /// The delta to answer a `(generation, max_version)` watermark the
    /// sender is fresher than. If the requester already holds this
    /// generation and an app watermark at least as new, only the
    /// heartbeat moved — send just that. Anything else (generation
    /// behind, or the app advanced past the watermark) ships the full
    /// state.
    ///
    /// The heartbeat-only case is exact, not approximate: states are
    /// snapshots of the owner's monotone history, so a requester whose
    /// watermark covers `app_version` already holds this very app state
    /// (see [`Delta`]).
    pub fn delta_against(&self, generation: u32, max_version: u32) -> Delta<A> {
        if self.app_covered_by(generation, max_version) {
            Delta::Heartbeat(self.heartbeat)
        } else {
            Delta::Full(self.clone())
        }
    }
}

/// A `(generation, max_version)` watermark as one number that orders as
/// the pair does, generation first: one compare tells which of two
/// claims is fresher.
pub(crate) fn watermark(generation: u32, max_version: u32) -> u64 {
    u64::from(generation) << 32 | u64::from(max_version)
}

/// One peer's update inside an ack: either the full endpoint state or —
/// the steady-state hot path — just the heartbeat.
///
/// Nearly all gossip traffic is heartbeat churn: the app state (ring
/// status + tokens) changes only around topology events. Shipping the
/// two-word heartbeat instead of a full state clone keeps the syn/ack
/// hot path allocation-light. Applying [`Delta::Heartbeat`] bumps the
/// stored heartbeat version in place when `(generation, version)` is
/// strictly fresher than the local watermark, and is a no-op otherwise
/// (exactly the cases where a full state would have been a no-op too).
#[derive(Clone, Debug, PartialEq)]
pub enum Delta<A> {
    /// Full endpoint state: generation moved, the app state advanced
    /// past the requester's watermark, or the peer is new to them.
    Full(EndpointState<A>),
    /// Heartbeat-only advance within a known generation.
    Heartbeat(HeartbeatState),
}

/// A claim about a peer's freshness: what a SYN says of each peer its
/// sender knows, and what an ACK asks for. A body keeps a claim as its
/// [`watermark`] word; this is its readable form.
///
/// Its clocks follow [`HeartbeatState`]'s width contract: `u32`, never
/// above [`CLOCK_MAX`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest {
    /// The peer the claim is about.
    pub peer: Peer,
    /// Claimed generation.
    pub generation: u32,
    /// Claimed max version.
    pub max_version: u32,
}

/// A node's full gossip view: one [`EndpointState`] per known peer, in
/// a table addressed by `Peer.0` (see the dense-id contract on
/// [`Peer`]).
///
/// Lookups are array indexing; the table grows to the highest id
/// inserted and never shrinks. Grown one insert at a time it doubles
/// its capacity, so a run that knows its node count reserves it once
/// ([`Self::reserve_slots`]) and holds exactly one slot per node;
/// [`Self::iter`] yields known peers in ascending id order — the order
/// SYN digests, the `handle_syn` merge pass and the gossip-target walk
/// all rely on.
#[derive(Clone, Debug)]
pub struct EndpointMap<A> {
    /// `slots[i]` is what this node knows about `Peer(i)`. A slot is 24
    /// bytes: `None` lives in the `Arc`'s null niche.
    slots: Vec<Option<EndpointState<A>>>,
    known: usize,
}

impl<A> Default for EndpointMap<A> {
    fn default() -> Self {
        EndpointMap {
            slots: Vec::new(),
            known: 0,
        }
    }
}

impl<A> EndpointMap<A> {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.known
    }

    /// Makes room for ids `0..slots` without reallocating later; a
    /// larger id still grows the table.
    pub fn reserve_slots(&mut self, slots: usize) {
        self.slots
            .reserve_exact(slots.saturating_sub(self.slots.len()));
    }

    /// One past the highest peer id the table has a slot for.
    pub(crate) fn ids(&self) -> usize {
        self.slots.len()
    }

    /// Whether no peer is known.
    pub fn is_empty(&self) -> bool {
        self.known == 0
    }

    /// Whether the known peers are exactly `Peer(0)..Peer(len)`: no gap
    /// in the id space, so the `k`-th known peer *is* `Peer(k)`.
    pub fn is_gapless(&self) -> bool {
        self.known == self.slots.len()
    }

    /// The state known for `peer`.
    pub fn get(&self, peer: Peer) -> Option<&EndpointState<A>> {
        self.slots.get(peer.0 as usize)?.as_ref()
    }

    /// Mutable access to the state known for `peer`.
    pub fn get_mut(&mut self, peer: Peer) -> Option<&mut EndpointState<A>> {
        self.slots.get_mut(peer.0 as usize)?.as_mut()
    }

    /// Sets the state for `peer`, returning what was known before.
    pub fn insert(&mut self, peer: Peer, state: EndpointState<A>) -> Option<EndpointState<A>> {
        let idx = peer.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(state);
        if old.is_none() {
            self.known += 1;
        }
        old
    }

    /// Known peers and their states, ascending by peer id.
    pub fn iter(&self) -> impl Iterator<Item = (Peer, &EndpointState<A>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| Some((Peer(idx as u32), slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(gen: u32, hb: u32, appv: u32) -> EndpointState<u8> {
        EndpointState::new(
            HeartbeatState {
                generation: gen,
                version: hb,
            },
            appv,
            0,
        )
    }

    #[test]
    fn sparse_id_costs_slots_not_a_panic() {
        let mut map = EndpointMap::new();
        for id in [1, 5000, 0] {
            assert!(map.insert(Peer(id), st(1, id, 0)).is_none());
        }
        assert_eq!(map.len(), 3);
        assert!(!map.is_gapless(), "ids 2..5000 are holes");
        assert_eq!(map.get(Peer(5000)).unwrap().heartbeat.version, 5000);
        assert!(map.get(Peer(4999)).is_none());
        assert!(map.get(Peer(5001)).is_none(), "past the table: unknown");
        assert!(map.get_mut(Peer(u32::MAX)).is_none());
        // Replacing keeps the count; the old state comes back.
        let old = map.insert(Peer(1), st(2, 0, 0)).unwrap();
        assert_eq!(old.heartbeat.generation, 1);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn iteration_stays_ascending_across_growth() {
        let mut map = EndpointMap::new();
        let mut want = Vec::new();
        // Out-of-order inserts, each batch forcing the table to grow.
        for id in [7u32, 2, 300, 299, 0, 4000, 1] {
            map.insert(Peer(id), st(1, 0, 0));
            want.push(Peer(id));
            want.sort_unstable();
            let got: Vec<Peer> = map.iter().map(|(p, _)| p).collect();
            assert_eq!(got, want);
        }
        let mut dense = EndpointMap::new();
        for id in 0..5 {
            dense.insert(Peer(id), st(1, 0, 0));
            assert!(dense.is_gapless());
        }
    }

    #[test]
    fn slots_stay_narrow() {
        assert_eq!(std::mem::size_of::<Digest>(), 12);
        assert_eq!(std::mem::size_of::<Option<EndpointState<u8>>>(), 24);
    }

    #[test]
    fn clocks_tick_up_to_their_bound_and_no_further() {
        assert_eq!(tick(0), 1);
        assert_eq!(tick(CLOCK_MAX - 1), CLOCK_MAX);
        for past in [CLOCK_MAX, u32::MAX] {
            assert!(std::panic::catch_unwind(|| tick(past)).is_err(), "{past}");
        }
    }

    #[test]
    fn max_version_takes_larger() {
        assert_eq!(st(1, 5, 3).max_version(), 5);
        assert_eq!(st(1, 2, 9).max_version(), 9);
    }

    #[test]
    fn newer_generation_wins() {
        let s = st(2, 1, 1);
        assert!(s.newer_than(1, 100));
        assert!(!s.newer_than(3, 0));
    }

    #[test]
    fn same_generation_compares_versions() {
        let s = st(1, 5, 7);
        assert!(s.newer_than(1, 6));
        assert!(!s.newer_than(1, 7));
        assert!(!s.newer_than(1, 8));
    }

    #[test]
    fn delta_against_sends_heartbeat_only_when_app_is_covered() {
        let s = st(1, 5, 3);
        assert!(matches!(s.delta_against(1, 3), Delta::Heartbeat(hb) if hb.version == 5));
        assert!(matches!(s.delta_against(1, 4), Delta::Heartbeat(_)));
        // The app advanced past the requester's watermark: full state.
        assert!(matches!(s.delta_against(1, 2), Delta::Full(_)));
        // Generation mismatch: full state.
        assert!(matches!(s.delta_against(0, 100), Delta::Full(_)));
        assert!(matches!(s.delta_against(2, 0), Delta::Full(_)));
    }
}
