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
/// Clocks are `u32`, and the top bit of a [`DeltaRecord`]'s app-version
/// word marks a full-state entry, so a clock must stay below 2³¹. A
/// clock advances with [`tick`], which panics past this value; a
/// scenario whose clocks could get there is rejected before it runs.
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
    fn app_covered_by(&self, generation: u32, max_version: u32) -> bool {
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

/// A compact claim about a peer's freshness, exchanged in gossip SYNs
/// and as an ACK's requests: 12 bytes.
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

/// The bit of [`DeltaRecord`]'s app-version word that marks a full-state
/// entry; clocks never reach it ([`CLOCK_MAX`]).
const FULL: u32 = 1 << 31;

/// One entry of an ACK or ACK2 body ([`Deltas`]): 16 bytes, four `u32`s.
///
/// A heartbeat-only entry is the record alone. A full-state entry is the
/// record, marked full, plus its payload, which sits in the body's side
/// list of payloads in entry order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeltaRecord {
    /// The peer the entry is about.
    pub peer: Peer,
    /// The peer's heartbeat as the sender knows it.
    pub heartbeat: HeartbeatState,
    /// A full entry's app version with [`FULL`] set; 0 for a
    /// heartbeat-only entry.
    app: u32,
}

impl DeltaRecord {
    /// Whether the entry is a full state (its payload is the next one in
    /// the body's side list).
    pub fn is_full(&self) -> bool {
        self.app & FULL != 0
    }

    /// A full entry's app version; `None` for a heartbeat-only entry.
    pub fn app_version(&self) -> Option<u32> {
        self.is_full().then_some(self.app & !FULL)
    }
}

/// The delta entries of an ACK or ACK2: one [`DeltaRecord`] per entry,
/// plus the payload of each full-state entry in a side list, in entry
/// order.
///
/// Both lists are allocated at exactly their length. Build one from
/// `(Peer, Delta)` pairs with `collect`; the gossiper writes its bodies
/// as records directly.
#[derive(Clone, Debug, PartialEq)]
pub struct Deltas<A> {
    records: Box<[DeltaRecord]>,
    payloads: Box<[Arc<A>]>,
}

impl<A> Default for Deltas<A> {
    fn default() -> Self {
        Deltas {
            records: Box::default(),
            payloads: Box::default(),
        }
    }
}

impl<A> Deltas<A> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the body carries no entry.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The entries, in order.
    pub fn records(&self) -> &[DeltaRecord] {
        &self.records
    }

    /// The payloads of the full-state entries, in entry order.
    pub fn payloads(&self) -> &[Arc<A>] {
        &self.payloads
    }
}

impl<A> FromIterator<(Peer, Delta<A>)> for Deltas<A> {
    fn from_iter<I: IntoIterator<Item = (Peer, Delta<A>)>>(entries: I) -> Self {
        let mut build = DeltaBuild::default();
        for (peer, delta) in entries {
            build.push(peer, delta);
        }
        build.emit()
    }
}

/// Where a [`Deltas`] body is written before it is emitted: vectors that
/// keep their capacity from one body to the next.
#[derive(Debug)]
pub(crate) struct DeltaBuild<A> {
    records: Vec<DeltaRecord>,
    payloads: Vec<Arc<A>>,
}

impl<A> Default for DeltaBuild<A> {
    fn default() -> Self {
        DeltaBuild {
            records: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

impl<A> DeltaBuild<A> {
    /// Entries written so far.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Appends one entry.
    pub(crate) fn push(&mut self, peer: Peer, delta: Delta<A>) {
        match delta {
            Delta::Heartbeat(heartbeat) => self.records.push(DeltaRecord {
                peer,
                heartbeat,
                app: 0,
            }),
            Delta::Full(st) => self.push_full(peer, &st),
        }
    }

    /// Appends the entry `st.delta_against(generation, max_version)` for
    /// `peer` if `keep`, written as its record without building the
    /// [`Delta`]: a heartbeat-only entry is the record alone, a full one
    /// shares `st`'s payload. A heartbeat-only record is written whether
    /// it is kept or not (see [`push_if`]).
    pub(crate) fn push_against_if(
        &mut self,
        peer: Peer,
        st: &EndpointState<A>,
        generation: u32,
        max_version: u32,
        keep: bool,
    ) {
        if keep & !st.app_covered_by(generation, max_version) {
            self.push_full(peer, st);
        } else {
            let record = DeltaRecord {
                peer,
                heartbeat: st.heartbeat,
                app: 0,
            };
            push_if(&mut self.records, record, keep);
        }
    }

    /// Appends a full-state entry for `peer` that shares `st`'s payload.
    pub(crate) fn push_full(&mut self, peer: Peer, st: &EndpointState<A>) {
        assert!(
            st.app_version <= CLOCK_MAX,
            "app version {} is past the clock range",
            st.app_version
        );
        self.payloads.push(Arc::clone(&st.app));
        self.records.push(DeltaRecord {
            peer,
            heartbeat: st.heartbeat,
            app: st.app_version | FULL,
        });
    }

    /// Moves what was written into a body of exactly its length, leaving
    /// the build empty with its capacity.
    pub(crate) fn emit(&mut self) -> Deltas<A> {
        Deltas {
            records: emit_exact(&mut self.records),
            payloads: emit_exact(&mut self.payloads),
        }
    }
}

/// Appends `entry` to `build` if `keep`. The entry is written either way
/// and then dropped again if not kept, so the call does not branch on
/// `keep`: where a loop's `keep` goes either way about equally often (a
/// SYN digest is older or newer than the receiver's view), a branch on
/// it mispredicts every other entry, and a write costs less.
pub(crate) fn push_if<T: Copy>(build: &mut Vec<T>, entry: T, keep: bool) {
    build.push(entry);
    build.truncate(build.len() - usize::from(!keep));
}

/// Moves what `build` holds into one allocation of exactly its length,
/// leaving `build` empty with its capacity for the next build. Handing
/// out `build` itself (`mem::take`) would ship its spare capacity too.
pub(crate) fn emit_exact<T>(build: &mut Vec<T>) -> Box<[T]> {
    let mut body = Vec::with_capacity(build.len());
    body.append(build);
    body.into_boxed_slice()
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
    fn wire_entries_are_narrow() {
        assert_eq!(std::mem::size_of::<Digest>(), 12);
        assert_eq!(std::mem::size_of::<DeltaRecord>(), 16);
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
    fn a_body_keeps_each_payload_with_its_full_entry() {
        let hb = |version| HeartbeatState {
            generation: 1,
            version,
        };
        let body: Deltas<u8> = [
            (
                Peer(4),
                Delta::Full(EndpointState::new(hb(2), CLOCK_MAX, 7)),
            ),
            (Peer(2), Delta::Heartbeat(hb(3))),
            (Peer(9), Delta::Full(EndpointState::new(hb(0), 0, 9))),
            (Peer(0), Delta::Heartbeat(hb(CLOCK_MAX))),
        ]
        .into_iter()
        .collect();
        assert_eq!(body.len(), 4);
        let got: Vec<(Peer, bool, Option<u32>)> = body
            .records()
            .iter()
            .map(|r| (r.peer, r.is_full(), r.app_version()))
            .collect();
        assert_eq!(
            got,
            [
                (Peer(4), true, Some(CLOCK_MAX)),
                (Peer(2), false, None),
                (Peer(9), true, Some(0)),
                (Peer(0), false, None),
            ]
        );
        let payloads: Vec<u8> = body.payloads().iter().map(|a| **a).collect();
        assert_eq!(payloads, [7, 9]);
        assert_eq!(body.records()[3].heartbeat.version, CLOCK_MAX);
        assert!(Deltas::<u8>::default().is_empty());
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
