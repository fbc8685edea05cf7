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
//! # Bodies in bytes
//!
//! A body names its peers in bits rather than ids, and codes each entry's
//! clocks (a `(generation, version)` word) in one byte. It carries one
//! base word, the generation most of its entries have and the least
//! version among them, and each entry keeps its version's offset from the
//! base. An entry the byte cannot say — another generation (a restarted
//! peer, or a zero request for a peer never heard of), or a version below
//! the base or more than 254 past it — keeps the offset `0xFF` (an
//! escape), and its word comes next from the body's escape list, in
//! entry order ([`encode`], [`decode`]). A SYN is a bit per claimed peer
//! plus a byte a watermark, an ACK or ACK2 two bits per peer plus a byte
//! per heartbeat or watermark, and each full delta's app version and
//! payload beside (`Deltas`). Queued bodies are most of the host memory
//! of a colocated flap storm; the entries a body carries, and their
//! order, are those a list of `(peer, entry)` pairs would carry.

use std::sync::Arc;

use crate::state::{
    tick, watermark, Delta, Digest, EndpointMap, EndpointState, HeartbeatState, Peer,
};

/// Gossip SYN: freshness claims for every peer the sender knows.
///
/// The body is a bit per peer id the sender knows, 64 a word, followed by
/// the `(generation, max_version)` watermark of each known peer,
/// ascending, coded a byte each ([`encode`]). It is allocated at exactly
/// its length. How many entries a message carries is simulated (it sets
/// the receiver's CPU demand); the bytes each entry takes on the host are
/// not.
#[derive(Clone, Debug, PartialEq)]
pub struct Syn {
    words: Box<[u64]>,
    /// How many of `words` are the bitset of claimed peers.
    claims: u32,
    /// How many watermarks the rest of `words` codes.
    entries: u32,
}

/// Gossip ACK: deltas the receiver is fresher on, plus requests for
/// peers the SYN sender is fresher on.
///
/// Its deltas are a [`Deltas`]: those on claimed peers ascending, then
/// those volunteered for peers the SYN did not claim, ascending. Its
/// requests are a bit per peer (the `aux` plane of the deltas' codes on
/// peers without a delta) and a watermark each, ascending (zero for a
/// peer the ACK's sender never heard of), coded after the deltas'
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
/// every entry's kind. The clocks are each delta's heartbeat in the order
/// they apply, then each request's watermark, coded a byte each
/// ([`encode`]). `fulls` holds each full delta's app version and payload,
/// in the order they apply, allocated at exactly its length.
#[derive(Clone, Debug, PartialEq)]
struct Deltas<A> {
    words: Box<[u64]>,
    /// How many of `words` are codes.
    codes: u32,
    /// How many clocks the words code: deltas and requests.
    entries: u32,
    fulls: Box<[(u32, Arc<A>)]>,
}

/// Where a gossiper builds and reads bodies: [`Gossiper::make_syn_in`],
/// [`Gossiper::handle_syn_in`] and [`Gossiper::handle_ack_in`] gather a
/// body's codes, clocks and full states before moving each part into one
/// allocation of exactly its length, and the handlers decode the clocks
/// of the body they read. Its vectors keep their capacity from one body
/// to the next; one space serves every gossiper of a run.
#[derive(Debug)]
pub struct BodySpace<A> {
    codes: Vec<u64>,
    /// The clocks of the body being built, in order.
    clocks: Gathered,
    fulls: Vec<(u32, Arc<A>)>,
    /// The clocks of the body being read, decoded.
    read: Vec<u64>,
}

impl<A> Default for BodySpace<A> {
    fn default() -> Self {
        BodySpace {
            codes: Vec::new(),
            clocks: Gathered::default(),
            fulls: Vec::new(),
            read: Vec::new(),
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

/// The two clocks of a word, high half first.
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// The offset byte of an entry whose word is in the escape list.
const ESCAPE: u64 = 0xFF;

/// A body's clocks as they are gathered, in order, with the least and
/// the most of them so far.
#[derive(Debug)]
struct Gathered {
    words: Vec<u64>,
    least: u64,
    most: u64,
}

impl Default for Gathered {
    fn default() -> Self {
        Gathered {
            words: Vec::new(),
            least: u64::MAX,
            most: 0,
        }
    }
}

impl Gathered {
    fn push(&mut self, word: u64) {
        self.least = self.least.min(word);
        self.most = self.most.max(word);
        self.words.push(word);
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    /// The base word the clocks are coded against, and how many of them
    /// it escapes.
    ///
    /// Clocks that all lie within 254 of the least (every body of a run
    /// without restarts, in practice) are coded against that least word
    /// and escape none, which the gathering already knows. Any others
    /// take two passes: a majority vote over the generations, keeping the
    /// least word seen with the winner since the vote last took it up
    /// (when more than half the clocks share a generation the vote picks
    /// it), and a count of what that base escapes.
    fn choose(&self) -> (u64, usize) {
        if self.most.wrapping_sub(self.least) < ESCAPE {
            return (self.least, 0);
        }
        let (mut base, mut votes) = (0u64, 0u32);
        for &word in &self.words {
            if votes == 0 {
                (base, votes) = (word, 1);
            } else if word >> 32 == base >> 32 {
                (base, votes) = (base.min(word), votes + 1);
            } else {
                votes -= 1;
            }
        }
        let escapes = self
            .words
            .iter()
            .filter(|&&word| offset(word, base) >= ESCAPE)
            .count();
        (base, escapes)
    }

    /// Empties the clocks, keeping their capacity.
    fn clear(&mut self) {
        self.words.clear();
        (self.least, self.most) = (u64::MAX, 0);
    }
}

/// The offset `word` is coded at against `base`: [`ESCAPE`] or more when
/// its generation differs from the base's, or its version is below the
/// base's or more than 254 past it.
fn offset(word: u64, base: u64) -> u64 {
    word.wrapping_sub(base)
}

/// The words `entries` clocks take coded with `escapes` of them escaped:
/// the base word, the offsets eight a word and the escape list; none
/// without entries.
fn coded_len(entries: usize, escapes: usize) -> usize {
    if entries == 0 {
        0
    } else {
        1 + entries.div_ceil(8) + escapes
    }
}

/// Codes `clocks` against `base` into `out`, zeroed and [`coded_len`]
/// words long: `base`, then a byte per clock in order, its offset or
/// [`ESCAPE`], eight a word, then each escaped clock's word, in order.
fn encode(clocks: &[u64], base: u64, out: &mut [u64]) {
    let Some((head, rest)) = out.split_first_mut() else {
        return;
    };
    *head = base;
    let (offsets, escaped) = rest.split_at_mut(clocks.len().div_ceil(8));
    if escaped.is_empty() {
        let eights = clocks.chunks_exact(8);
        let last = eights.remainder();
        for (eight, slot) in eights.zip(offsets.iter_mut()) {
            for (k, &word) in eight.iter().enumerate() {
                *slot |= offset(word, base) << (8 * k);
            }
        }
        if let Some(slot) = offsets.last_mut().filter(|_| !last.is_empty()) {
            for (k, &word) in last.iter().enumerate() {
                *slot |= offset(word, base) << (8 * k);
            }
        }
        return;
    }
    let mut escaped = escaped.iter_mut();
    for (eight, slot) in clocks.chunks(8).zip(offsets) {
        for (k, &word) in eight.iter().enumerate() {
            let mut byte = offset(word, base);
            if byte >= ESCAPE {
                byte = ESCAPE;
                *escaped.next().expect("a slot per escaped clock") = word;
            }
            *slot |= byte << (8 * k);
        }
    }
}

/// Moves `head` and then `clocks`, coded against the base they choose
/// ([`Gathered::choose`], [`encode`]), into one allocation of exactly
/// their length; both are left empty with their capacity.
fn emit_words(head: &mut Vec<u64>, clocks: &mut Gathered) -> Box<[u64]> {
    let n_head = head.len();
    let (base, escapes) = clocks.choose();
    let len = n_head + coded_len(clocks.len(), escapes);
    let mut words = Vec::with_capacity(len);
    words.append(head);
    words.resize(len, 0);
    encode(&clocks.words, base, &mut words[n_head..]);
    clocks.clear();
    words.into_boxed_slice()
}

/// Whether any byte of `word` is [`ESCAPE`].
fn has_escape(word: u64) -> bool {
    const ONES: u64 = u64::MAX / 0xFF;
    let flipped = !word;
    flipped.wrapping_sub(ONES) & !flipped & ONES << 7 != 0
}

/// Decodes into `out`, cleared first, the `entries` clocks [`encode`]
/// wrote into `words`, in order: each offset byte added to the base word,
/// or on [`ESCAPE`] the next word of the escape list.
fn decode(words: &[u64], entries: usize, out: &mut Vec<u64>) {
    out.clear();
    let Some((&base, rest)) = words.split_first() else {
        return;
    };
    let (offsets, escaped) = rest.split_at(entries.div_ceil(8));
    let mut escaped = escaped.iter();
    out.reserve(8 * offsets.len());
    for &word in offsets {
        let bytes = word.to_le_bytes().map(u64::from);
        let eight = if has_escape(word) {
            bytes.map(|byte| {
                if byte == ESCAPE {
                    *escaped.next().expect("a word per escape")
                } else {
                    base + byte
                }
            })
        } else {
            bytes.map(|byte| base + byte)
        };
        out.extend_from_slice(&eight);
    }
    out.truncate(entries);
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
    /// The body gathered in `space`: the codes, then the clocks coded
    /// against the base they choose, and the full states, moved into
    /// allocations of exactly their length; the space is left empty with
    /// its capacity.
    fn emit(space: &mut BodySpace<A>) -> Self {
        let BodySpace {
            codes,
            clocks,
            fulls,
            ..
        } = space;
        let (n_codes, entries) = (codes.len() as u32, clocks.len() as u32);
        let words = emit_words(codes, clocks);
        let mut full_states = Vec::with_capacity(fulls.len());
        full_states.append(fulls);
        Deltas {
            words,
            codes: n_codes,
            entries,
            fulls: full_states.into_boxed_slice(),
        }
    }

    fn codes(&self) -> &[u64] {
        &self.words[..self.codes as usize]
    }

    /// Decodes the deltas' heartbeats, then the requests' watermarks,
    /// into `read`.
    fn clocks(&self, read: &mut Vec<u64>) {
        decode(&self.words[self.codes as usize..], self.entries(), read);
    }

    /// Calls `f` with each delta, in the order they apply (see
    /// [`for_each_delta`]), taking its heartbeat from `clocks` (see
    /// [`Self::clocks`]).
    fn for_each<'c>(
        &self,
        volunteered: &[u64],
        clocks: &mut impl Iterator<Item = &'c u64>,
        mut f: impl FnMut(usize, Entry<'_, A>),
    ) {
        let mut fulls = self.fulls.iter();
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

    /// The requests, ascending by peer, given their `watermarks` (the
    /// clocks [`Self::for_each`] leaves).
    fn requests<'b>(
        &'b self,
        mut watermarks: impl Iterator<Item = &'b u64> + 'b,
    ) -> impl Iterator<Item = Digest> + 'b {
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
        self.entries as usize
    }
}

impl<A: Clone> Deltas<A> {
    /// The deltas, in the order they apply, as a list.
    fn to_vec(&self, volunteered: &[u64]) -> Vec<(Peer, Delta<A>)> {
        let (mut out, mut read) = (Vec::new(), Vec::new());
        self.clocks(&mut read);
        self.for_each(volunteered, &mut read.iter(), |p, entry| {
            out.push((Peer(p as u32), entry.to_delta()));
        });
        out
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
        self.entries as usize
    }

    /// Decodes the claimed peers' watermarks, ascending by peer, into
    /// `read`.
    fn watermarks(&self, read: &mut Vec<u64>) {
        decode(&self.words[self.claims as usize..], self.entries(), read);
    }

    /// The claimed peers, ascending, with their watermarks.
    fn claims(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let bits = &self.words[..self.claims as usize];
        let mut read = Vec::new();
        self.watermarks(&mut read);
        let mut watermarks = read.into_iter();
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
        self.deltas.to_vec(&self.volunteered)
    }

    /// The requests, ascending by peer.
    pub fn requests(&self) -> Vec<Digest> {
        let mut read = Vec::new();
        self.deltas.clocks(&mut read);
        let mut clocks = read.iter();
        self.deltas
            .for_each(&self.volunteered, &mut clocks, |_, _| {});
        self.deltas.requests(clocks).collect()
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
        self.deltas.to_vec(&[])
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

    /// Builds a SYN covering everything this node knows, in fresh build
    /// space (see [`Gossiper::make_syn_in`]).
    pub fn make_syn(&self) -> Syn {
        self.make_syn_in(&mut BodySpace::default())
    }

    /// Builds a SYN covering everything this node knows: the view is
    /// walked once, gathering the claims and watermarks in `space`, and
    /// the body is then allocated at exactly its length.
    pub fn make_syn_in(&self, space: &mut BodySpace<A>) -> Syn {
        let BodySpace { codes, clocks, .. } = space;
        codes.resize(self.map.ids().div_ceil(64), 0);
        for (peer, st) in self.map.iter() {
            let p = peer.0 as usize;
            codes[p / 64] |= 1 << (p % 64);
            clocks.push(st.watermark());
        }
        let (claims, entries) = (codes.len() as u32, clocks.len() as u32);
        Syn {
            words: emit_words(codes, clocks),
            claims,
            entries,
        }
    }

    /// Handles a SYN, producing the ACK to send back, in fresh build
    /// space (see [`Gossiper::handle_syn_in`]).
    pub fn handle_syn(&self, syn: &Syn) -> Ack<A> {
        self.handle_syn_in(syn, &mut BodySpace::default())
    }

    /// Handles a SYN, producing the ACK to send back: for each peer, a
    /// delta where this view is the fresher, a request where the SYN is,
    /// and a full delta volunteered for a peer only this view knows. The
    /// clocks are gathered in `space` as the codes are, and each part of
    /// the body is then allocated at exactly its length.
    pub fn handle_syn_in(&self, syn: &Syn, space: &mut BodySpace<A>) -> Ack<A> {
        let BodySpace {
            codes,
            clocks,
            fulls,
            read,
        } = space;
        let claims = &syn.words[..syn.claims as usize];
        syn.watermarks(read);
        let mut watermarks = read.iter();
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
            clocks.push(watermark(st.heartbeat.generation, st.heartbeat.version));
            if full {
                fulls.push((st.app_version, Arc::clone(&st.app)));
            }
        });
        let requested = codes.chunks_exact(2).map(|planes| planes[1] & !planes[0]);
        for_each_bit(requested, |p| {
            clocks.push(
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
        let ack2 = self.handle_ack_in(ack, &mut BodySpace::default(), &mut outcome);
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
        space: &mut BodySpace<A>,
        outcome: &mut ApplyOutcome,
    ) -> Ack2<A> {
        outcome.clear();
        let BodySpace {
            codes,
            clocks,
            fulls,
            read,
        } = space;
        ack.deltas.clocks(read);
        let mut read = read.iter();
        ack.deltas
            .for_each(&ack.volunteered, &mut read, |p, entry| {
                self.apply_entry(p, entry, outcome)
            });
        // Answer each request this view holds fresher state for; the
        // codes are allocated at the first answer.
        for req in ack.deltas.requests(read) {
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
                clocks.push(watermark(
                    local.heartbeat.generation,
                    local.heartbeat.version,
                ));
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
        self.handle_ack2_in(ack2, &mut BodySpace::default(), &mut outcome);
        outcome
    }

    /// Handles an ACK2: applies its deltas, their clocks decoded in
    /// `space`, reporting what advanced in `outcome` (see
    /// [`Gossiper::handle_ack_in`]).
    pub fn handle_ack2_in(
        &mut self,
        ack2: &Ack2<A>,
        space: &mut BodySpace<A>,
        outcome: &mut ApplyOutcome,
    ) {
        outcome.clear();
        ack2.deltas.clocks(&mut space.read);
        ack2.deltas
            .for_each(&[], &mut space.read.iter(), |p, entry| {
                self.apply_entry(p, entry, outcome)
            });
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
    fn clocks_round_trip_through_a_byte_and_escapes() {
        let (g1, g2) = (1u64 << 32, 2u64 << 32);
        // (clocks, the base chosen, how many are escaped)
        let cases: [(&[u64], u64, usize); 5] = [
            (&[], u64::MAX, 0),
            // 254 past the least: one pass, nothing escaped.
            (&[g1 | 10, g1 | 264], g1 | 10, 0),
            // 255 past it: the vote keeps the least, which escapes the other.
            (&[g1 | 10, g1 | 265], g1 | 10, 1),
            // Generation 1 wins the vote from its third clock on, so the
            // base is 8 and the earlier 7 lies below it; generation 2 and
            // the zero watermark of a never-heard-of peer escape too.
            (&[g2 | 5, g1 | 7, g1 | 8, g1 | 9, 0], g1 | 8, 3),
            // Nine clocks: the escape is the first byte of the second word.
            (&[g1, g1, g1, g1, g1, g1, g1, g1 | 3, g2], g1, 1),
        ];
        for (clocks, base, escaped) in cases {
            let mut gathered = Gathered::default();
            clocks.iter().for_each(|&word| gathered.push(word));
            assert_eq!(gathered.choose(), (base, escaped), "{clocks:x?}");
            let mut coded = vec![0; coded_len(clocks.len(), escaped)];
            encode(clocks, base, &mut coded);
            let mut read = vec![42];
            decode(&coded, clocks.len(), &mut read);
            assert_eq!(read, clocks, "{coded:x?}");
        }
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
