//! The anti-entropy gossiper: Cassandra's three-way digest exchange.
//!
//! Every round a node sends a `Syn` (digests of everything it knows) to a
//! random live peer. The receiver answers with an `Ack` carrying deltas
//! for peers where the receiver is fresher plus requests for peers where
//! the sender is fresher; the original sender closes the loop with an
//! `Ack2` of the requested deltas. Applying a delta reports whether the
//! peer's heartbeat moved (feeds the failure detector) and whether its
//! application state moved (triggers the pending-range calculation — the
//! offending path of §2).
//!
//! # Bodies in words
//!
//! A body names its peers in bits rather than ids, and keeps each entry's
//! clocks as one word: a SYN is a bit per claimed peer plus its
//! watermark (8 bytes a digest), an ACK or ACK2 two bits per peer plus a
//! heartbeat per delta and a watermark per request (8 bytes an entry),
//! and each full delta's app version and payload beside (`Deltas`).
//! Queued bodies are most of the host memory of a colocated flap storm;
//! the entries a body carries, and their order, are those a list of
//! `(peer, entry)` pairs would carry.

use std::sync::Arc;

use crate::state::{
    tick, watermark, Delta, Digest, EndpointMap, EndpointState, HeartbeatState, Peer,
};

/// Gossip SYN: freshness claims for every peer the sender knows.
///
/// The body is a bit per peer id the sender knows, 64 a word, followed by
/// one word per known peer, ascending: its `(generation, max_version)`
/// watermark. It is allocated at exactly its length. How many entries a
/// message carries is simulated (it sets the receiver's CPU demand); the
/// bytes each entry takes on the host are not.
#[derive(Clone, Debug, PartialEq)]
pub struct Syn {
    words: Box<[u64]>,
    /// How many of `words` are the bitset of claimed peers.
    claims: u32,
}

/// Gossip ACK: deltas the receiver is fresher on, plus requests for
/// peers the SYN sender is fresher on.
///
/// Its deltas are a [`Deltas`]: those on claimed peers ascending, then
/// those volunteered for peers the SYN did not claim, ascending. Its
/// requests are a bit per peer (the `aux` plane of the deltas' codes on
/// peers without a delta) and a watermark word each, ascending (zero for
/// a peer the ACK's sender never heard of), kept after the deltas'
/// heartbeats. It carries the deltas and the requests as entries.
#[derive(Clone, Debug, PartialEq)]
pub struct Ack<A> {
    deltas: Deltas<A>,
    /// A bit per peer whose full delta is volunteered; empty if none is.
    volunteered: Box<[u64]>,
}

/// Gossip ACK2: the deltas answering an ACK's requests, ascending by
/// peer ([`Deltas`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Ack2<A> {
    deltas: Deltas<A>,
}

/// The deltas of an ACK or ACK2, and an ACK's requests.
///
/// `words` holds the codes, then the clocks, in one allocation of
/// exactly their length. The codes are two bit planes per 64 peers:
/// `delta` marks a peer with a delta, and `aux` marks a delta that is full
/// or, on a peer without a delta, a request — two bits a peer, so the
/// deltas and the requests are each walked as set bits without testing
/// every entry's kind. The clocks are one word per delta in the order
/// they apply (its heartbeat, generation in the high half), then one per
/// request (its watermark). `fulls` holds each full delta's app version
/// and payload, in the order they apply, allocated at exactly its length.
#[derive(Clone, Debug, PartialEq)]
struct Deltas<A> {
    words: Box<[u64]>,
    /// How many of `words` are codes.
    codes: u32,
    /// How many of the clocks are the deltas' heartbeats.
    deltas: u32,
    fulls: Box<[(u32, Arc<A>)]>,
}

/// Where [`Gossiper::handle_syn_in`] and [`Gossiper::handle_ack_in`]
/// gather a body's clocks and full states before moving each part into
/// one allocation of exactly its length: vectors that keep their
/// capacity from one body to the next. One space serves every gossiper
/// of a run.
#[derive(Debug)]
pub struct AckSpace<A> {
    codes: Vec<u64>,
    clocks: Vec<u64>,
    requests: Vec<u64>,
    fulls: Vec<(u32, Arc<A>)>,
}

impl<A> Default for AckSpace<A> {
    fn default() -> Self {
        AckSpace {
            codes: Vec::new(),
            clocks: Vec::new(),
            requests: Vec::new(),
            fulls: Vec::new(),
        }
    }
}

/// Calls `f` with each set bit of a bitset given word by word, ascending.
fn for_each_bit(words: impl IntoIterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (w, word) in words.into_iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// A heartbeat as one word, generation in the high half.
fn pack(heartbeat: HeartbeatState) -> u64 {
    watermark(heartbeat.generation, heartbeat.version)
}

/// The two clocks of a word, high half first.
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// A delta a body carries, read back.
enum Entry<'b, A> {
    Heartbeat(HeartbeatState),
    Full(HeartbeatState, u32, &'b Arc<A>),
}

/// Calls `f` with each peer `codes` gives a delta, in the order the
/// deltas apply — those not in `volunteered` (a bitset) ascending, then
/// those in it ascending — and whether its delta is full.
fn for_each_delta(codes: &[u64], volunteered: &[u64], mut f: impl FnMut(usize, bool)) {
    for (block, planes) in codes.chunks_exact(2).enumerate() {
        let mut rest = planes[0] & !volunteered.get(block).copied().unwrap_or(0);
        while rest != 0 {
            let at = rest.trailing_zeros();
            f(block * 64 + at as usize, planes[1] >> at & 1 == 1);
            rest &= rest - 1;
        }
    }
    for_each_bit(volunteered.iter().copied(), |p| f(p, true));
}

impl<A> Deltas<A> {
    /// The body gathered in `space`: the codes, the deltas' clocks (in
    /// the order the deltas apply), the requests' watermarks and the full
    /// states, moved into allocations of exactly their length; the space
    /// is left empty with its capacity.
    fn emit(space: &mut AckSpace<A>) -> Self {
        let AckSpace {
            codes,
            clocks,
            requests,
            fulls,
        } = space;
        let (n_codes, deltas) = (codes.len() as u32, clocks.len() as u32);
        let mut words = Vec::with_capacity(codes.len() + clocks.len() + requests.len());
        words.append(codes);
        words.append(clocks);
        words.append(requests);
        let mut full_states = Vec::with_capacity(fulls.len());
        full_states.append(fulls);
        Deltas {
            words: words.into_boxed_slice(),
            codes: n_codes,
            deltas,
            fulls: full_states.into_boxed_slice(),
        }
    }

    fn codes(&self) -> &[u64] {
        &self.words[..self.codes as usize]
    }

    fn clocks(&self) -> &[u64] {
        &self.words[self.codes as usize..]
    }

    /// Calls `f` with each delta, in the order they apply (see
    /// [`for_each_delta`]).
    fn for_each(&self, volunteered: &[u64], mut f: impl FnMut(usize, Entry<'_, A>)) {
        let (mut clocks, mut fulls) = (self.clocks().iter(), self.fulls.iter());
        for_each_delta(self.codes(), volunteered, |p, full| {
            let (generation, version) = unpack(*clocks.next().expect("a heartbeat per delta"));
            let heartbeat = HeartbeatState {
                generation,
                version,
            };
            let entry = if full {
                let (app_version, app) = fulls.next().expect("a payload per full delta");
                Entry::Full(heartbeat, *app_version, app)
            } else {
                Entry::Heartbeat(heartbeat)
            };
            f(p, entry);
        });
    }

    /// The requests, ascending by peer.
    fn requests(&self) -> impl Iterator<Item = Digest> + '_ {
        let mut watermarks = self.clocks()[self.deltas as usize..].iter();
        let (mut block, mut rest) = (0, self.request_bits(0));
        std::iter::from_fn(move || {
            while rest == 0 {
                block += 1;
                if 2 * block >= self.codes().len() {
                    return None;
                }
                rest = self.request_bits(block);
            }
            let p = block * 64 + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let (generation, max_version) =
                unpack(*watermarks.next().expect("a watermark per request"));
            Some(Digest {
                peer: Peer(p as u32),
                generation,
                max_version,
            })
        })
    }

    /// The request bits of block `block` (peers `64 * block ..`).
    fn request_bits(&self, block: usize) -> u64 {
        self.codes()
            .get(2 * block..2 * block + 2)
            .map_or(0, |planes| planes[1] & !planes[0])
    }

    /// Number of entries: deltas and requests.
    fn entries(&self) -> usize {
        self.clocks().len()
    }
}

impl<A: Clone> Entry<'_, A> {
    fn to_delta(&self) -> Delta<A> {
        match *self {
            Entry::Heartbeat(heartbeat) => Delta::Heartbeat(heartbeat),
            Entry::Full(heartbeat, app_version, app) => Delta::Full(EndpointState {
                heartbeat,
                app_version,
                app: Arc::clone(app),
            }),
        }
    }
}

impl Syn {
    /// Number of entries (digests) carried.
    pub fn entries(&self) -> usize {
        self.words.len() - self.claims as usize
    }

    /// The claimed peers, ascending, with their watermarks.
    fn claims(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (bits, watermarks) = self.words.split_at(self.claims as usize);
        let mut watermarks = watermarks.iter().copied();
        let (mut block, mut rest) = (0, bits.first().copied().unwrap_or(0));
        std::iter::from_fn(move || {
            while rest == 0 {
                block += 1;
                rest = *bits.get(block)?;
            }
            let p = block * 64 + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some((p, watermarks.next().expect("a watermark per claim")))
        })
    }

    /// The digests: one per peer the sender knew, ascending by id.
    pub fn digests(&self) -> Vec<Digest> {
        self.claims()
            .map(|(p, claim)| {
                let (generation, max_version) = unpack(claim);
                Digest {
                    peer: Peer(p as u32),
                    generation,
                    max_version,
                }
            })
            .collect()
    }
}

impl<A: Clone> Ack<A> {
    /// Number of entries (deltas and requests) carried.
    pub fn entries(&self) -> usize {
        self.deltas.entries()
    }

    /// The deltas, in the order they apply: those on claimed peers,
    /// ascending, then the volunteered ones, ascending.
    pub fn deltas(&self) -> Vec<(Peer, Delta<A>)> {
        let mut out = Vec::new();
        self.deltas.for_each(&self.volunteered, |p, entry| {
            out.push((Peer(p as u32), entry.to_delta()));
        });
        out
    }

    /// The requests, ascending by peer.
    pub fn requests(&self) -> Vec<Digest> {
        self.deltas.requests().collect()
    }
}

impl<A> Ack2<A> {
    /// Number of entries (deltas) carried.
    pub fn entries(&self) -> usize {
        self.deltas.entries()
    }

    /// Whether the body carries no entry.
    pub fn is_empty(&self) -> bool {
        self.entries() == 0
    }
}

impl<A: Clone> Ack2<A> {
    /// The deltas, ascending by peer.
    pub fn deltas(&self) -> Vec<(Peer, Delta<A>)> {
        let mut out = Vec::new();
        self.deltas
            .for_each(&[], |p, entry| out.push((Peer(p as u32), entry.to_delta())));
        out
    }
}

/// What changed when a delta batch was applied.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Peers whose heartbeat advanced (report to the failure detector).
    pub heartbeat_advanced: Vec<Peer>,
    /// Peers whose application state advanced (may carry topology
    /// changes; triggers scale-dependent processing).
    pub app_advanced: Vec<Peer>,
}

impl ApplyOutcome {
    fn clear(&mut self) {
        self.heartbeat_advanced.clear();
        self.app_advanced.clear();
    }
}

/// One node's gossip component.
#[derive(Clone, Debug)]
pub struct Gossiper<A> {
    me: Peer,
    version_clock: u32,
    map: EndpointMap<A>,
}

impl<A: Clone + PartialEq> Gossiper<A> {
    /// Creates a gossiper for `me`, with generation `generation` and
    /// initial application state `app`.
    pub fn new(me: Peer, generation: u32, app: A) -> Self {
        let mut map = EndpointMap::new();
        map.insert(
            me,
            EndpointState::new(
                HeartbeatState {
                    generation,
                    version: 0,
                },
                0,
                app,
            ),
        );
        Gossiper {
            me,
            version_clock: 0,
            map,
        }
    }

    /// This node's id.
    pub fn me(&self) -> Peer {
        self.me
    }

    /// The full local view.
    pub fn endpoints(&self) -> &EndpointMap<A> {
        &self.map
    }

    /// Makes room in the view for peer ids `0..slots` (see
    /// [`EndpointMap::reserve_slots`]).
    pub fn reserve_slots(&mut self, slots: usize) {
        self.map.reserve_slots(slots);
    }

    /// The state this node knows for `peer`, if any.
    pub fn endpoint(&self, peer: Peer) -> Option<&EndpointState<A>> {
        self.map.get(peer)
    }

    /// Seeds the view with a peer known out-of-band (e.g. the contact
    /// list at bootstrap). No-op if already known.
    pub fn seed_peer(&mut self, peer: Peer, state: EndpointState<A>) {
        if self.map.get(peer).is_none() {
            self.map.insert(peer, state);
        }
    }

    fn own(&self) -> &EndpointState<A> {
        self.map.get(self.me).expect("own state always present")
    }

    fn own_mut(&mut self) -> &mut EndpointState<A> {
        self.map.get_mut(self.me).expect("own state always present")
    }

    /// Bumps the local heartbeat version (called every gossip interval).
    pub fn beat(&mut self) {
        self.version_clock = tick(self.version_clock);
        self.own_mut().heartbeat.version = self.version_clock;
    }

    /// Updates the local application state (e.g. "I am leaving with
    /// tokens T"), bumping the shared version clock.
    pub fn update_app(&mut self, app: A) {
        self.version_clock = tick(self.version_clock);
        let version = self.version_clock;
        let st = self.own_mut();
        st.app = Arc::new(app);
        st.app_version = version;
    }

    /// The local application state.
    pub fn my_app(&self) -> &A {
        self.own().app.as_ref()
    }

    /// Restarts this node's process: the generation bumps and versions
    /// reset, exactly as a crashed-and-restarted Cassandra process comes
    /// back. Peers treat a higher generation as strictly fresher, so the
    /// restarted state supersedes anything they remember.
    pub fn restart(&mut self) {
        self.version_clock = 0;
        let st = self.own_mut();
        st.heartbeat.generation = tick(st.heartbeat.generation);
        st.heartbeat.version = 0;
        st.app_version = 0;
    }

    /// Builds a SYN covering everything this node knows.
    pub fn make_syn(&self) -> Syn {
        let claims = self.map.ids().div_ceil(64);
        let mut words = vec![0; claims + self.map.len()].into_boxed_slice();
        let (bits, watermarks) = words.split_at_mut(claims);
        for ((peer, st), slot) in self.map.iter().zip(watermarks) {
            let p = peer.0 as usize;
            bits[p / 64] |= 1 << (p % 64);
            *slot = st.watermark();
        }
        Syn {
            words,
            claims: claims as u32,
        }
    }

    /// Handles a SYN, producing the ACK to send back, in fresh build
    /// space (see [`Gossiper::handle_syn_in`]).
    pub fn handle_syn(&self, syn: &Syn) -> Ack<A> {
        self.handle_syn_in(syn, &mut AckSpace::default())
    }

    /// Handles a SYN, producing the ACK to send back: for each peer, a
    /// delta where this view is the fresher, a request where the SYN is,
    /// and a full delta volunteered for a peer only this view knows. The
    /// clocks are gathered in `space` as the codes are, and each part of
    /// the body is then allocated at exactly its length.
    pub fn handle_syn_in(&self, syn: &Syn, space: &mut AckSpace<A>) -> Ack<A> {
        let AckSpace {
            codes,
            clocks,
            requests,
            fulls,
        } = space;
        let (claims, watermarks) = syn.words.split_at(syn.claims as usize);
        let mut watermarks = watermarks.iter();
        let ids = self.map.ids().max(claims.len() * 64);
        codes.resize(2 * ids.div_ceil(64), 0);
        let mut volunteered = Vec::new();
        for (block, planes) in codes.chunks_exact_mut(2).enumerate() {
            let claimed = claims.get(block).copied().unwrap_or(0);
            let (mut delta, mut aux, mut volunteers) = (0u64, 0u64, 0u64);
            for bit in 0..64.min(ids - block * 64) {
                let local = self.map.get(Peer((block * 64 + bit) as u32));
                if claimed >> bit & 1 == 0 {
                    // Only we know this peer: volunteer it in full.
                    volunteers |= u64::from(local.is_some()) << bit;
                    continue;
                }
                let theirs = *watermarks.next().expect("a watermark per claim");
                let Some(local) = local else {
                    // Never heard of this peer: ask for everything.
                    aux |= 1 << bit;
                    continue;
                };
                // Either side may be the fresher, about equally often in
                // the steady state: the code is computed, not branched on.
                let ours = local.watermark();
                let (generation, max_version) = unpack(theirs);
                let fresher = u64::from(ours > theirs);
                let staler = u64::from(ours < theirs);
                let full = u64::from(!local.app_covered_by(generation, max_version));
                delta |= fresher << bit;
                aux |= (fresher & full | staler) << bit;
            }
            if volunteers != 0 {
                if volunteered.is_empty() {
                    volunteered = vec![0u64; ids.div_ceil(64)];
                }
                volunteered[block] = volunteers;
            }
            planes.copy_from_slice(&[delta | volunteers, aux | volunteers]);
        }
        // The clocks the codes send, from this view: the deltas'
        // heartbeats in the order they apply, then the requests'
        // watermarks (zero for a peer never heard of).
        for_each_delta(codes, &volunteered, |p, full| {
            let st = self
                .map
                .get(Peer(p as u32))
                .expect("a delta's peer is known");
            clocks.push(pack(st.heartbeat));
            if full {
                fulls.push((st.app_version, Arc::clone(&st.app)));
            }
        });
        let requested = codes.chunks_exact(2).map(|planes| planes[1] & !planes[0]);
        for_each_bit(requested, |p| {
            requests.push(
                self.map
                    .get(Peer(p as u32))
                    .map_or(0, EndpointState::watermark),
            );
        });
        let deltas = Deltas::emit(space);
        scalecheck_obs::metric(
            scalecheck_obs::Metric::GossipDeltas,
            deltas.entries() as u64,
        );
        Ack {
            deltas,
            volunteered: volunteered.into_boxed_slice(),
        }
    }

    /// Handles an ACK: applies its deltas and answers its requests with
    /// an ACK2 (see [`Gossiper::handle_ack_in`]).
    pub fn handle_ack(&mut self, ack: &Ack<A>) -> (ApplyOutcome, Ack2<A>) {
        let mut outcome = ApplyOutcome::default();
        let ack2 = self.handle_ack_in(ack, &mut AckSpace::default(), &mut outcome);
        (outcome, ack2)
    }

    /// Handles an ACK: applies its deltas and answers its requests with
    /// an ACK2 of this view after the apply, gathered in `space` and
    /// allocated at exactly the number of requests answered.
    ///
    /// `outcome` is cleared, then reports the peers whose heartbeat
    /// advanced and those whose app state did, in entry order; its
    /// vectors keep their capacity from one apply to the next, so a run
    /// that passes the same `outcome` to every apply allocates for none.
    pub fn handle_ack_in(
        &mut self,
        ack: &Ack<A>,
        space: &mut AckSpace<A>,
        outcome: &mut ApplyOutcome,
    ) -> Ack2<A> {
        outcome.clear();
        ack.deltas.for_each(&ack.volunteered, |p, entry| {
            self.apply_entry(p, entry, outcome)
        });
        // Answer each request this view holds fresher state for; the
        // codes are allocated at the first answer.
        let AckSpace {
            codes,
            clocks,
            fulls,
            ..
        } = space;
        for req in ack.deltas.requests() {
            let Some(local) = self.map.get(req.peer) else {
                continue;
            };
            if local.newer_than(req.generation, req.max_version) {
                if codes.is_empty() {
                    codes.resize(ack.deltas.codes().len(), 0);
                }
                let full = !local.app_covered_by(req.generation, req.max_version);
                let (p, bit) = (req.peer.0 as usize, 1 << (req.peer.0 % 64));
                codes[2 * (p / 64)] |= bit;
                codes[2 * (p / 64) + 1] |= bit * u64::from(full);
                clocks.push(pack(local.heartbeat));
                if full {
                    fulls.push((local.app_version, Arc::clone(&local.app)));
                }
            }
        }
        let deltas = Deltas::emit(space);
        scalecheck_obs::metric(
            scalecheck_obs::Metric::GossipDeltas,
            deltas.entries() as u64,
        );
        Ack2 { deltas }
    }

    /// Handles an ACK2: applies its deltas.
    pub fn handle_ack2(&mut self, ack2: &Ack2<A>) -> ApplyOutcome {
        let mut outcome = ApplyOutcome::default();
        self.handle_ack2_in(ack2, &mut outcome);
        outcome
    }

    /// Handles an ACK2: applies its deltas, reporting what advanced in
    /// `outcome` (see [`Gossiper::handle_ack_in`]).
    pub fn handle_ack2_in(&mut self, ack2: &Ack2<A>, outcome: &mut ApplyOutcome) {
        outcome.clear();
        ack2.deltas
            .for_each(&[], |p, entry| self.apply_entry(p, entry, outcome));
    }

    /// Applies deltas known out of band, in order, keeping only fresher
    /// information, exactly as a body's deltas apply.
    pub fn apply(&mut self, deltas: &[(Peer, Delta<A>)]) -> ApplyOutcome {
        let mut out = ApplyOutcome::default();
        for (peer, delta) in deltas {
            let entry = match delta {
                Delta::Heartbeat(heartbeat) => Entry::Heartbeat(*heartbeat),
                Delta::Full(st) => Entry::Full(st.heartbeat, st.app_version, &st.app),
            };
            self.apply_entry(peer.0 as usize, entry, &mut out);
        }
        out
    }

    /// Applies one delta about peer `p`, keeping only fresher
    /// information, and reports what advanced in `out`.
    fn apply_entry(&mut self, p: usize, entry: Entry<'_, A>, out: &mut ApplyOutcome) {
        let peer = Peer(p as u32);
        if peer == self.me {
            // Nobody overrides our own state.
            return;
        }
        match entry {
            Entry::Full(hb, app_version, app) => {
                let remote = || EndpointState {
                    heartbeat: hb,
                    app_version,
                    app: Arc::clone(app),
                };
                match self.map.get_mut(peer) {
                    Some(local) => {
                        let local_gen = local.heartbeat.generation;
                        let fresher = (hb.generation, hb.version.max(app_version));
                        if fresher > (local_gen, local.max_version()) {
                            if hb.generation > local_gen || hb.version > local.heartbeat.version {
                                out.heartbeat_advanced.push(peer);
                            }
                            if hb.generation > local_gen || app_version > local.app_version {
                                out.app_advanced.push(peer);
                            }
                            *local = remote();
                        }
                    }
                    None => {
                        out.heartbeat_advanced.push(peer);
                        out.app_advanced.push(peer);
                        self.map.insert(peer, remote());
                    }
                }
            }
            // Only meaningful against a known state in the same
            // generation; anything else would have been sent as a full
            // state (or is stale and must be ignored).
            Entry::Heartbeat(hb) => {
                if let Some(local) = self.map.get_mut(peer) {
                    if hb.generation == local.heartbeat.generation
                        && hb.version > local.max_version()
                    {
                        local.heartbeat.version = hb.version;
                        out.heartbeat_advanced.push(peer);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type G = Gossiper<u32>;

    fn two() -> (G, G) {
        let mut a = G::new(Peer(0), 1, 100);
        let mut b = G::new(Peer(1), 1, 200);
        a.beat();
        b.beat();
        (a, b)
    }

    /// One full SYN/ACK/ACK2 round from `a` to `b`.
    fn round(a: &mut G, b: &mut G) -> (ApplyOutcome, ApplyOutcome) {
        let syn = a.make_syn();
        let ack = b.handle_syn(&syn);
        let (out_a, ack2) = a.handle_ack(&ack);
        let out_b = b.handle_ack2(&ack2);
        (out_a, out_b)
    }

    #[test]
    fn full_round_converges_two_nodes() {
        let (mut a, mut b) = two();
        let (out_a, out_b) = round(&mut a, &mut b);
        // a learned about b and vice versa.
        assert_eq!(out_a.heartbeat_advanced, vec![Peer(1)]);
        assert_eq!(out_b.heartbeat_advanced, vec![Peer(0)]);
        assert_eq!(*a.endpoint(Peer(1)).unwrap().app, 200);
        assert_eq!(*b.endpoint(Peer(0)).unwrap().app, 100);
    }

    #[test]
    fn repeated_round_is_quiescent() {
        let (mut a, mut b) = two();
        round(&mut a, &mut b);
        let (out_a, out_b) = round(&mut a, &mut b);
        assert!(out_a.heartbeat_advanced.is_empty());
        assert!(out_a.app_advanced.is_empty());
        assert!(out_b.heartbeat_advanced.is_empty());
        assert!(out_b.app_advanced.is_empty());
    }

    #[test]
    fn newer_heartbeat_propagates() {
        let (mut a, mut b) = two();
        round(&mut a, &mut b);
        b.beat();
        b.beat();
        let hb_before = a.endpoint(Peer(1)).unwrap().heartbeat.version;
        let (out_a, _) = round(&mut a, &mut b);
        assert_eq!(out_a.heartbeat_advanced, vec![Peer(1)]);
        assert!(a.endpoint(Peer(1)).unwrap().heartbeat.version > hb_before);
        // Heartbeat-only advance must not be reported as app change.
        assert!(out_a.app_advanced.is_empty());
    }

    #[test]
    fn steady_state_rounds_ship_heartbeat_only_deltas() {
        let (mut a, mut b) = two();
        round(&mut a, &mut b);
        // Converged; only heartbeats move from here on.
        b.beat();
        let syn = a.make_syn();
        let ack = b.handle_syn(&syn);
        let deltas = ack.deltas();
        assert!(
            matches!(deltas[..], [(Peer(1), Delta::Heartbeat(_))]) && ack.requests().is_empty(),
            "converged peers exchange heartbeats, not full states: {deltas:?}"
        );
        let (out_a, _) = a.handle_ack(&ack);
        assert_eq!(out_a.heartbeat_advanced, vec![Peer(1)]);
        assert!(out_a.app_advanced.is_empty());
        assert_eq!(
            a.endpoint(Peer(1)).unwrap(),
            b.endpoint(Peer(1)).unwrap(),
            "heartbeat delta reconstructs the identical state"
        );
    }

    #[test]
    fn stale_heartbeat_delta_is_ignored() {
        let (mut a, mut b) = two();
        round(&mut a, &mut b);
        b.beat();
        round(&mut a, &mut b);
        // Replay an old heartbeat: must be a no-op.
        let out = a.apply(&[(
            Peer(1),
            Delta::Heartbeat(HeartbeatState {
                generation: 1,
                version: 1,
            }),
        )]);
        assert!(out.heartbeat_advanced.is_empty());
        // A heartbeat for an unknown peer is dropped, not fabricated.
        let out = a.apply(&[(
            Peer(9),
            Delta::Heartbeat(HeartbeatState {
                generation: 1,
                version: 5,
            }),
        )]);
        assert!(out.heartbeat_advanced.is_empty());
        assert!(a.endpoint(Peer(9)).is_none());
    }

    #[test]
    fn app_update_propagates_and_is_flagged() {
        let (mut a, mut b) = two();
        round(&mut a, &mut b);
        b.update_app(999);
        let (out_a, _) = round(&mut a, &mut b);
        assert_eq!(out_a.app_advanced, vec![Peer(1)]);
        assert_eq!(*a.endpoint(Peer(1)).unwrap().app, 999);
    }

    #[test]
    fn third_party_state_spreads_transitively() {
        let mut a = G::new(Peer(0), 1, 0);
        let mut b = G::new(Peer(1), 1, 1);
        let mut c = G::new(Peer(2), 1, 2);
        a.beat();
        b.beat();
        c.beat();
        round(&mut a, &mut b); // a <-> b
        round(&mut b, &mut c); // b <-> c, carries a's state to c
        assert!(c.endpoint(Peer(0)).is_some(), "c learned of a via b");
        assert_eq!(*c.endpoint(Peer(0)).unwrap().app, 0);
    }

    #[test]
    fn own_state_is_never_overridden() {
        let (mut a, b) = two();
        // b fabricates a bogus newer state for a.
        let bogus = EndpointState::new(
            HeartbeatState {
                generation: 99,
                version: 99,
            },
            99,
            12345,
        );
        let out = a.apply(&[(Peer(0), Delta::Full(bogus))]);
        assert!(out.heartbeat_advanced.is_empty());
        assert_eq!(*a.my_app(), 100);
        let _ = b;
    }

    #[test]
    fn higher_generation_replaces_state() {
        let (mut a, mut b) = two();
        round(&mut a, &mut b);
        // b restarts: new generation, fresh versions.
        let mut b2 = G::new(Peer(1), 2, 777);
        b2.beat();
        let (out_a, _) = round(&mut a, &mut b2);
        assert_eq!(out_a.heartbeat_advanced, vec![Peer(1)]);
        assert_eq!(out_a.app_advanced, vec![Peer(1)]);
        assert_eq!(a.endpoint(Peer(1)).unwrap().heartbeat.generation, 2);
        assert_eq!(*a.endpoint(Peer(1)).unwrap().app, 777);
    }

    #[test]
    fn restart_bumps_generation_and_supersedes_old_state() {
        let (mut a, mut b) = two();
        for _ in 0..3 {
            b.beat();
        }
        round(&mut a, &mut b);
        assert_eq!(a.endpoint(Peer(1)).unwrap().heartbeat.version, 4);
        // b's process restarts in place.
        b.restart();
        assert_eq!(b.endpoint(Peer(1)).unwrap().heartbeat.generation, 2);
        b.beat();
        b.update_app(999);
        // Despite lower versions, the higher generation wins at a.
        let (out_a, _) = round(&mut a, &mut b);
        assert_eq!(out_a.heartbeat_advanced, vec![Peer(1)]);
        assert_eq!(a.endpoint(Peer(1)).unwrap().heartbeat.generation, 2);
        assert_eq!(*a.endpoint(Peer(1)).unwrap().app, 999);
    }

    #[test]
    fn seed_peer_does_not_clobber() {
        let (mut a, b) = two();
        let seed_state = b.endpoint(Peer(1)).unwrap().clone();
        a.seed_peer(Peer(1), seed_state.clone());
        assert_eq!(a.endpoint(Peer(1)).unwrap(), &seed_state);
        // Seeding again with stale data is a no-op.
        let stale = EndpointState::new(
            HeartbeatState {
                generation: 0,
                version: 0,
            },
            0,
            0,
        );
        a.seed_peer(Peer(1), stale);
        assert_eq!(a.endpoint(Peer(1)).unwrap(), &seed_state);
    }
}
