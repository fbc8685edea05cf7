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

use std::sync::Arc;

use crate::state::{
    emit_exact, push_if, tick, watermark, DeltaBuild, Deltas, Digest, EndpointMap, EndpointState,
    HeartbeatState, Peer,
};

/// Gossip SYN: freshness claims for every peer the sender knows.
///
/// The body is one 12-byte [`Digest`] per known peer, allocated at
/// exactly its length. How many entries a message carries is simulated
/// (it sets the receiver's CPU demand); the bytes each entry takes on
/// the host are not.
#[derive(Clone, Debug, PartialEq)]
pub struct Syn {
    /// One digest per known peer, in ascending peer order when built by
    /// [`Gossiper::make_syn`] (the wire type does not promise it).
    pub digests: Box<[Digest]>,
}

/// Gossip ACK: deltas the receiver is fresher on, plus requests for
/// peers the SYN sender is fresher on.
///
/// Both bodies are allocated at exactly their length: the deltas as
/// 16-byte records with a side list of full-state payloads
/// ([`Deltas`]), the requests as 12-byte [`Digest`]s. It carries
/// `deltas.len() + requests.len()` entries.
#[derive(Clone, Debug, PartialEq)]
pub struct Ack<A> {
    /// Updates the ACK sender believes are fresher (heartbeat-only in
    /// the steady state, full states around topology changes).
    pub deltas: Deltas<A>,
    /// Watermarks the ACK sender wants newer data for.
    pub requests: Box<[Digest]>,
}

/// Gossip ACK2: the deltas answering an ACK's requests, as 16-byte
/// records with a side list of full-state payloads ([`Deltas`]),
/// allocated at exactly the number answered.
#[derive(Clone, Debug, PartialEq)]
pub struct Ack2<A> {
    /// Updates answering the requests.
    pub deltas: Deltas<A>,
}

/// Where [`Gossiper::handle_syn_in`] and [`Gossiper::handle_ack_in`]
/// build a body before emitting it.
///
/// How many deltas and requests a message yields is known only once
/// every digest has been compared, so the bodies are built here, in
/// vectors that keep their capacity from call to call, and each is then
/// emitted as one allocation of exactly its length. One space serves
/// every gossiper of a run: a build leaves it empty of entries.
#[derive(Debug)]
pub struct AckSpace<A> {
    deltas: DeltaBuild<A>,
    requests: Vec<Digest>,
    /// The peers an unsorted SYN claims, sorted for the probe.
    claimed: Vec<Peer>,
}

impl<A> Default for AckSpace<A> {
    fn default() -> Self {
        AckSpace {
            deltas: DeltaBuild::default(),
            requests: Vec::new(),
            claimed: Vec::new(),
        }
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
        // Filled in place: the view's iterator skips unknown slots, so
        // it cannot promise a length; `collect` would regrow, and
        // extending a vector sized up front still checks its capacity
        // and stores its length per digest. Overwriting a body of
        // exactly `len` blanks does neither.
        let blank = Digest {
            peer: Peer(0),
            generation: 0,
            max_version: 0,
        };
        let mut digests = vec![blank; self.map.len()].into_boxed_slice();
        for (digest, (peer, st)) in digests.iter_mut().zip(self.map.iter()) {
            *digest = Digest {
                peer,
                generation: st.heartbeat.generation,
                max_version: st.max_version(),
            };
        }
        Syn { digests }
    }

    /// Handles a SYN, producing the ACK to send back, in fresh build
    /// space (see [`Gossiper::handle_syn_in`]).
    pub fn handle_syn(&self, syn: &Syn) -> Ack<A> {
        self.handle_syn_in(syn, &mut AckSpace::default())
    }

    /// Handles a SYN, producing the ACK to send back; the bodies are
    /// written as records in `space` and each emitted at exactly its
    /// length.
    ///
    /// Not reserved from the SYN: a digest yields a delta, a request or
    /// neither, and an ACK reserved for one of each per digest holds
    /// twice what it carries for as long as it queues at a saturated
    /// receiver (at 4096 nodes the cell no longer fits the host). Nor
    /// grown in place: a body grown by doubling costs a reallocation per
    /// doubling and queues with up to twice its length in capacity.
    pub fn handle_syn_in(&self, syn: &Syn, space: &mut AckSpace<A>) -> Ack<A> {
        let AckSpace {
            deltas,
            requests,
            claimed,
        } = space;
        // Whether the digests arrive in peer order, and whether strictly
        // (no peer twice): `after` is one past the previous digest's peer.
        let (mut ascending, mut strict, mut after) = (true, true, 0u64);
        // Digests that name a peer we know.
        let mut named_known = 0;
        for d in &syn.digests {
            let id = u64::from(d.peer.0);
            ascending &= id + 1 >= after;
            strict &= id >= after;
            after = id + 1;
            let Some(local) = self.map.get(d.peer) else {
                // Never heard of this peer: ask for everything.
                requests.push(Digest {
                    peer: d.peer,
                    generation: 0,
                    max_version: 0,
                });
                continue;
            };
            named_known += 1;
            // Either side may be the fresher, about equally often in the
            // steady state: the entry is written as a delta and as a
            // request and kept as at most one of them, with no branch on
            // which (see `push_if`).
            let (ours, theirs) = (local.watermark(), watermark(d.generation, d.max_version));
            deltas.push_against_if(d.peer, local, d.generation, d.max_version, ours > theirs);
            let request = Digest {
                peer: d.peer,
                generation: local.heartbeat.generation,
                max_version: local.max_version(),
            };
            push_if(requests, request, ours < theirs);
        }
        // Peers only we know about: volunteer them in full.
        if strict && named_known == self.map.len() {
            // A strictly ascending SYN names no peer twice, so if as
            // many of its digests name a known peer as we know, every
            // one of them is claimed and there is nothing to volunteer:
            // the steady state, every round.
        } else if ascending {
            // SYNs built by `make_syn` list digests in peer order (the
            // view iterates ascending), so a single merge pass against
            // our own ordered view finds the gaps with no sort.
            let mut digests = syn.digests.iter().peekable();
            for (peer, st) in self.map.iter() {
                while digests.next_if(|d| d.peer < peer).is_some() {}
                if digests.peek().is_none_or(|d| d.peer != peer) {
                    deltas.push_full(peer, st);
                }
            }
        } else {
            // A SYN that arrives unsorted (the wire type allows it)
            // falls back to sort-and-probe with the identical result.
            claimed.clear();
            claimed.extend(syn.digests.iter().map(|d| d.peer));
            claimed.sort_unstable();
            for (peer, st) in self.map.iter() {
                if claimed.binary_search(&peer).is_err() {
                    deltas.push_full(peer, st);
                }
            }
        }
        scalecheck_obs::metric(
            scalecheck_obs::Metric::GossipDeltas,
            (deltas.len() + requests.len()) as u64,
        );
        Ack {
            deltas: deltas.emit(),
            requests: emit_exact(requests),
        }
    }

    /// Handles an ACK: applies its deltas and answers its requests with
    /// an ACK2, in fresh build space (see [`Gossiper::handle_ack_in`]).
    pub fn handle_ack(&mut self, ack: &Ack<A>) -> (ApplyOutcome, Ack2<A>) {
        let mut outcome = ApplyOutcome::default();
        let ack2 = self.handle_ack_in(ack, &mut AckSpace::default(), &mut outcome);
        (outcome, ack2)
    }

    /// Handles an ACK: applies its deltas, reporting what advanced in
    /// `outcome` (see [`Gossiper::apply_in`]), and answers its requests
    /// with an ACK2, written as records in `space` and emitted at exactly
    /// the number of requests answered.
    pub fn handle_ack_in(
        &mut self,
        ack: &Ack<A>,
        space: &mut AckSpace<A>,
        outcome: &mut ApplyOutcome,
    ) -> Ack2<A> {
        self.apply_in(&ack.deltas, outcome);
        let deltas = &mut space.deltas;
        for req in &ack.requests {
            if let Some(local) = self.map.get(req.peer) {
                let newer = local.newer_than(req.generation, req.max_version);
                deltas.push_against_if(req.peer, local, req.generation, req.max_version, newer);
            }
        }
        scalecheck_obs::metric(scalecheck_obs::Metric::GossipDeltas, deltas.len() as u64);
        Ack2 {
            deltas: deltas.emit(),
        }
    }

    /// Handles an ACK2: applies its deltas.
    pub fn handle_ack2(&mut self, ack2: &Ack2<A>) -> ApplyOutcome {
        self.apply(&ack2.deltas)
    }

    /// Handles an ACK2: applies its deltas, reporting what advanced in
    /// `outcome` (see [`Gossiper::apply_in`]).
    pub fn handle_ack2_in(&mut self, ack2: &Ack2<A>, outcome: &mut ApplyOutcome) {
        self.apply_in(&ack2.deltas, outcome);
    }

    /// Applies a batch of deltas, keeping only fresher information.
    pub fn apply(&mut self, deltas: &Deltas<A>) -> ApplyOutcome {
        let mut outcome = ApplyOutcome::default();
        self.apply_in(deltas, &mut outcome);
        outcome
    }

    /// Applies a batch of deltas, keeping only fresher information, and
    /// reports what advanced in `out`, which is cleared first: its
    /// vectors keep their capacity from one body to the next, so a run
    /// that passes the same `out` to every apply allocates for none.
    pub fn apply_in(&mut self, deltas: &Deltas<A>, out: &mut ApplyOutcome) {
        out.heartbeat_advanced.clear();
        out.app_advanced.clear();
        let mut payloads = deltas.payloads().iter();
        for rec in deltas.records() {
            let peer = rec.peer;
            let hb = rec.heartbeat;
            // A full entry's payload is the next in the side list; take
            // it even for an entry about us, so the rest stay aligned.
            let full = rec.app_version().map(|app_version| {
                let app = payloads.next().expect("a payload per full entry");
                (app_version, app)
            });
            if peer == self.me {
                // Nobody overrides our own state.
                continue;
            }
            match full {
                Some((app_version, app)) => {
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
                                if hb.generation > local_gen || hb.version > local.heartbeat.version
                                {
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
                None => {
                    // Only meaningful against a known state in the same
                    // generation; anything else would have been sent as a
                    // full state (or is stale and must be ignored).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Delta;

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
        assert_eq!(ack.deltas.len(), 1);
        let rec = ack.deltas.records()[0];
        assert!(
            rec.peer == Peer(1) && !rec.is_full() && ack.deltas.payloads().is_empty(),
            "converged peers exchange heartbeats, not full states: {rec:?}"
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
        let out = a.apply(&Deltas::from_iter([(
            Peer(1),
            Delta::Heartbeat(HeartbeatState {
                generation: 1,
                version: 1,
            }),
        )]));
        assert!(out.heartbeat_advanced.is_empty());
        // A heartbeat for an unknown peer is dropped, not fabricated.
        let out = a.apply(&Deltas::from_iter([(
            Peer(9),
            Delta::Heartbeat(HeartbeatState {
                generation: 1,
                version: 5,
            }),
        )]));
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
        let out = a.apply(&Deltas::from_iter([(Peer(0), Delta::Full(bogus))]));
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
