//! One simulated cluster node: gossiper + failure detector + local ring
//! view + SEDA-like stages.
//!
//! The engine-agnostic protocol logic lives here (applying gossip
//! outcomes to the ring view, message keys for order determinism); the
//! event orchestration lives in [`crate::runner`].

use std::sync::Arc;

use scalecheck_gossip::{
    Ack, Ack2, ApplyOutcome, EndpointState, FailureDetector, Gossiper, Peer, Syn,
};
use scalecheck_memo::Hasher128;
use scalecheck_obs::{Metric, TID_CALC, TID_GOSSIP};
use scalecheck_ring::{NodeId, NodeStatus, RingTable};
use scalecheck_sim::{DetRng, SimDuration, SimTime, Stage, TimerId};

use crate::ringinfo::{node_of, peer_of, RingInfo};

/// A gossip message on the wire.
#[derive(Clone, Debug)]
pub enum GossipMessage {
    /// Digest offer.
    Syn(Syn),
    /// Deltas + requests.
    Ack(Ack<RingInfo>),
    /// Requested deltas.
    Ack2(Ack2<RingInfo>),
}

impl GossipMessage {
    /// Message kind tag (for order keys and demand sizing).
    pub fn kind(&self) -> u8 {
        match self {
            GossipMessage::Syn(_) => 0,
            GossipMessage::Ack(_) => 1,
            GossipMessage::Ack2(_) => 2,
        }
    }

    /// Number of endpoint entries carried (sizes the processing cost).
    pub fn entries(&self) -> usize {
        match self {
            GossipMessage::Syn(s) => s.entries(),
            GossipMessage::Ack(a) => a.entries(),
            GossipMessage::Ack2(a) => a.entries(),
        }
    }
}

/// A routed gossip message with its order-determinism key.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Stable key `(src, dst, kind, per-link seq)` for order recording
    /// and enforcement; 0 in a run that does neither
    /// ([`scalecheck_memo::Pil::orders_messages`]).
    pub key: u64,
    /// Payload.
    pub msg: GossipMessage,
}

/// Work items on a node's stages.
#[derive(Clone, Debug)]
pub enum Task {
    /// Periodic gossip round: beat + SYN to a random live peer.
    SendRound,
    /// Process an incoming gossip message.
    Receive(Envelope),
    /// Run the pending-range calculation.
    Recalculate,
}

/// One of a node's two serial stages. The discriminant is the stage's
/// index into [`Node::stages`] and [`Node::parked`], its obs track id,
/// and its slot in the runner's per-work-kind CPU accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u32)]
pub enum StageKind {
    /// The gossip stage.
    Gossip = TID_GOSSIP,
    /// The calculation stage (thread modes).
    Calc = TID_CALC,
}

impl StageKind {
    /// The node's other stage: the only one that can be waiting for the
    /// ring lock this one holds.
    pub(crate) fn other(self) -> Self {
        match self {
            StageKind::Gossip => StageKind::Calc,
            StageKind::Calc => StageKind::Gossip,
        }
    }
}

/// Where a node is in its life. Every way out of `Up` goes through
/// `Node::stop`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lifecycle {
    /// Not yet activated.
    Down,
    /// Participating: processing, sending and timing.
    Up,
    /// Fault-crashed at `since`; a restart brings it back.
    Crashed {
        /// When the node went down.
        since: SimTime,
    },
    /// Decommissioned or dead of OOM, for good. A node that departs
    /// while fault-crashed has its outage closed at its departure.
    Departed,
}

/// One simulated node.
pub struct Node {
    /// Node id (shared across ring / gossip / network id spaces).
    pub id: NodeId,
    /// Per-node deterministic RNG (gossip target selection).
    pub rng: DetRng,
    /// Gossip component.
    pub gossiper: Gossiper<RingInfo>,
    /// Failure detector (flap accounting lives here).
    pub fd: FailureDetector,
    /// Local ring view, copy-on-write: every write goes through
    /// `Arc::make_mut`, so the table is copied only while another node
    /// shares it. The runner hands a view that changed to the run's
    /// [`scalecheck_ring::ViewStore`], so nodes whose views agree share
    /// one table.
    pub ring: Arc<RingTable>,
    /// The serial stages, indexed by [`StageKind`] (the calculation
    /// stage is used by the C5456 thread modes).
    pub stages: [Stage<Task>; 2],
    /// A topology change arrived while a calculation was queued/running.
    pub calc_dirty: bool,
    /// A `Recalculate` task is queued or running.
    pub calc_queued: bool,
    /// Monotone calculation invocation counter (memo index fallback).
    pub calc_invocations: u64,
    /// Only an `Up` node processes, sends and times.
    pub lifecycle: Lifecycle,
    /// Per stage ([`StageKind`]): the task parked waiting for the ring
    /// lock, and since when (lock-wait spans).
    pub parked: [Option<(Task, SimTime)>; 2],
    /// The ring-table lock (C5456): the stage holding it and since when.
    /// Each stage runs one task at a time, so the only stage that can
    /// wait for it is the holder's [`StageKind::other`], in `parked`.
    ring_lock: Option<(StageKind, SimTime)>,
    /// Order-enforcement holding pen (replay only): messages waiting
    /// for their recorded turn, with a forced-release deadline.
    pub held: Vec<(SimTime, Envelope)>,
    /// The message the gossip stage is processing: a stage runs one task
    /// at a time, so at most one envelope waits on its receive
    /// completion.
    pub receiving: Option<Envelope>,
    /// Bytes currently allocated to rebalance partition services.
    pub rebalance_bytes: u64,
    /// Forward offset of this node's local clock (fault-injected clock
    /// skew); failure detection reads `now + clock_skew`.
    pub clock_skew: SimDuration,
    /// Pending periodic gossip-round timer, cancelled whenever the node
    /// stops: only an `Up` node has one.
    pub gossip_timer: Option<TimerId>,
    /// Pending periodic failure-detector timer, likewise.
    pub fd_timer: Option<TimerId>,
    /// Next per-link sequence number, `[syn, ack, ack2]` per
    /// destination id (node ids are dense indexes).
    link_seq: Vec<[u64; 3]>,
    /// Mirror of "`Peer(i)`'s status in the gossip view is `Left`", so
    /// neither heartbeat application nor the per-round target pick has
    /// to chase an `Arc<RingInfo>` per peer. Kept by
    /// [`Self::refresh_left`] wherever the view's app states change:
    /// [`Self::seed_peer`] and the top of [`Self::apply_outcome`].
    view_left: Vec<bool>,
    /// Number of `true`s in `view_left`.
    left_in_view: usize,
}

impl Node {
    /// Creates a node with an empty ring view of its own, judging its
    /// peers with `fd`. The caller seeds the gossiper and hands the node
    /// its view afterwards.
    pub fn new(id: NodeId, rng: DetRng, info: RingInfo, rf: usize, fd: FailureDetector) -> Self {
        Node {
            id,
            rng,
            gossiper: Gossiper::new(peer_of(id), 1, info),
            fd,
            ring: Arc::new(RingTable::new(rf)),
            stages: [Stage::new(), Stage::new()],
            calc_dirty: false,
            calc_queued: false,
            calc_invocations: 0,
            lifecycle: Lifecycle::Down,
            parked: [None, None],
            ring_lock: None,
            held: Vec::new(),
            receiving: None,
            rebalance_bytes: 0,
            clock_skew: SimDuration::ZERO,
            gossip_timer: None,
            fd_timer: None,
            link_seq: Vec::new(),
            view_left: Vec::new(),
            left_in_view: 0,
        }
    }

    /// Makes room in the per-peer tables (gossip view, failure
    /// detector) for node ids `0..slots`, so a run of that many nodes
    /// allocates each table once instead of doubling it. The ring view is
    /// sized by whoever builds the table it is handed
    /// ([`RingTable::reserve_slots`]), since nodes share it.
    pub fn reserve_slots(&mut self, slots: usize) {
        self.gossiper.reserve_slots(slots);
        self.fd.reserve_slots(slots);
    }

    /// Next order key for a message to `dst` of the given kind.
    pub fn next_key(&mut self, dst: NodeId, kind: u8) -> u64 {
        let d = dst.0 as usize;
        if d >= self.link_seq.len() {
            self.link_seq.resize(d + 1, [0; 3]);
        }
        let seq = &mut self.link_seq[d][kind as usize];
        let s = *seq;
        *seq += 1;
        let mut h = Hasher128::new();
        h.update_u64(self.id.0 as u64)
            .update_u64(dst.0 as u64)
            .update_u64(kind as u64)
            .update_u64(s);
        h.finish().0 as u64
    }

    /// Applies a gossip [`ApplyOutcome`] at time `now`: heartbeat
    /// advances feed the failure detector, application advances update
    /// the local ring view. Returns whether the ring view changed, which
    /// is also whether it requires recalculation.
    ///
    /// Peers that have `Left` are dropped from
    /// `outcome.heartbeat_advanced` (see below); the rest are reported to
    /// the failure detector as one batch.
    pub fn apply_outcome(&mut self, outcome: &mut ApplyOutcome, now: SimTime) -> bool {
        // Ordering hazard: "has this peer Left?" below must be answered
        // from the *post-apply* view — a `Left` full state carries a
        // heartbeat advance too, and reporting that last beat would
        // revive a convicted peer (`recoveries` drifts) just before
        // `sync_ring_entry` forgets it. So the mirror is brought up to
        // date here, for every peer whose app state moved, before any
        // heartbeat is looked at — not in `sync_ring_entry`, which runs
        // after the reports.
        for &peer in &outcome.app_advanced {
            self.refresh_left(peer);
        }
        // Nearly always nobody in the view has `Left`, and the mirror
        // need not be probed per peer.
        if self.left_in_view > 0 {
            outcome
                .heartbeat_advanced
                .retain(|&peer| !self.has_left(peer));
        }
        self.fd.report_all(&outcome.heartbeat_advanced, now);
        let mut topology_changed = false;
        for &peer in &outcome.app_advanced {
            topology_changed |= self.sync_ring_entry(peer);
        }
        topology_changed
    }

    /// Synchronizes one peer's ring entry from the gossip view. Returns
    /// whether topology-relevant state changed.
    fn sync_ring_entry(&mut self, peer: Peer) -> bool {
        let Some(state) = self.gossiper.endpoint(peer) else {
            return false;
        };
        let node = node_of(peer);
        let status = state.app.status;
        match status {
            NodeStatus::Left => {
                let was_present = self.ring.node(node).is_some();
                if was_present {
                    Arc::make_mut(&mut self.ring)
                        .remove_node(node)
                        .expect("presence checked");
                }
                self.fd.forget(peer);
                was_present
            }
            _ => match self.ring.node(node) {
                Some(st) => {
                    if st.status != status {
                        Arc::make_mut(&mut self.ring)
                            .set_status(node, status)
                            .expect("node present");
                        true
                    } else {
                        false
                    }
                }
                None => {
                    // Tokens are cloned only on this (rare) first-sight
                    // path; status-only updates above never touch them.
                    let tokens = self
                        .gossiper
                        .endpoint(peer)
                        .map(|st| st.app.tokens.clone())
                        .unwrap_or_default();
                    // Ignore token collisions from replayed stale state:
                    // first writer wins, matching Cassandra's ownership
                    // arbitration. (A refused add leaves an unshared copy
                    // of an unchanged view.)
                    Arc::make_mut(&mut self.ring)
                        .add_node(node, status, tokens)
                        .is_ok()
                }
            },
        }
    }

    /// Whether any join/leave is pending in this node's view (the
    /// window during which Cassandra recalculates on every applied
    /// gossip).
    pub fn pending_window_open(&self) -> bool {
        self.ring.has_pending_change()
    }

    /// Seeds the gossip view with a peer known out-of-band (the
    /// established members, the seed list). No-op if already known.
    pub fn seed_peer(&mut self, peer: Peer, state: EndpointState<RingInfo>) {
        self.gossiper.seed_peer(peer, state);
        self.refresh_left(peer);
    }

    /// Whether `peer`'s status in the gossip view is `Left` (by the
    /// mirror).
    fn has_left(&self, peer: Peer) -> bool {
        self.view_left.get(peer.0 as usize).is_some_and(|&l| l)
    }

    /// Re-reads `peer`'s status from the gossip view into the `Left`
    /// mirror. Own state is never mirrored: `me` is no gossip target
    /// whatever its status.
    fn refresh_left(&mut self, peer: Peer) {
        if peer == self.gossiper.me() {
            return;
        }
        let idx = peer.0 as usize;
        if idx >= self.view_left.len() {
            self.view_left.resize(idx + 1, false);
        }
        let left = self
            .gossiper
            .endpoint(peer)
            .is_some_and(|st| st.app.status == NodeStatus::Left);
        if left != self.view_left[idx] {
            self.view_left[idx] = left;
            if left {
                self.left_in_view += 1;
            } else {
                self.left_in_view -= 1;
            }
        }
    }

    /// Peers this node would gossip to: known, not Left in our view, in
    /// ascending id order.
    #[cfg(test)]
    fn gossip_candidates(&self) -> Vec<NodeId> {
        self.iter_gossip_candidates().collect()
    }

    /// How many gossip candidates there are. O(1): everyone known, less
    /// ourselves, less the peers that have `Left`.
    pub fn gossip_candidate_count(&self) -> usize {
        let count = self.gossiper.endpoints().len() - 1 - self.left_in_view;
        debug_assert_eq!(
            count,
            self.gossiper
                .endpoints()
                .iter()
                .filter(|&(p, st)| p != self.gossiper.me() && st.app.status != NodeStatus::Left)
                .count(),
            "Left mirror out of step with the gossip view"
        );
        count
    }

    /// The `idx`-th gossip candidate in ascending id order — the order
    /// (and so, fed by the same single RNG draw, the pick) a walk of the
    /// view gives. While nobody in the view has `Left` and the id space
    /// has no hole, the candidates are simply every id but ours and the
    /// answer is arithmetic; otherwise walk.
    pub fn nth_gossip_candidate(&self, idx: usize) -> Option<NodeId> {
        if self.left_in_view == 0 && self.gossiper.endpoints().is_gapless() {
            let me = self.id.0 as usize;
            return (idx < self.gossip_candidate_count())
                .then(|| NodeId((idx + usize::from(idx >= me)) as u32));
        }
        self.iter_gossip_candidates().nth(idx)
    }

    fn iter_gossip_candidates(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.gossiper.me();
        self.gossiper
            .endpoints()
            .iter()
            .map(|(p, _)| p)
            .filter(move |&p| p != me && !self.has_left(p))
            .map(node_of)
    }

    /// Takes the ring lock for `stage`'s `task` at `now` and hands the
    /// task back to run, or, if the other stage holds the lock, parks
    /// the task until that stage hands the lock over.
    ///
    /// # Panics
    ///
    /// Panics if `stage` already holds the lock: the lock is not
    /// reentrant, and re-taking it would deadlock the modelled stage.
    pub fn lock_ring(&mut self, stage: StageKind, task: Task, now: SimTime) -> Option<Task> {
        match self.ring_lock {
            Some((holder, _)) => {
                assert_ne!(
                    holder, stage,
                    "{stage:?} re-acquired the ring lock (self-deadlock)"
                );
                self.parked[stage as usize] = Some((task, now));
                None
            }
            None => {
                self.ring_lock = Some((stage, now));
                scalecheck_obs::metric(Metric::LockWait, 0);
                Some(task)
            }
        }
    }

    /// Whether `stage` holds the ring lock.
    pub fn holds_ring_lock(&self, stage: StageKind) -> bool {
        self.ring_lock.is_some_and(|(holder, _)| holder == stage)
    }

    /// Releases the ring lock `stage` holds at `now`. If the other stage
    /// is parked waiting for it, that stage now holds the lock and is
    /// returned, so the caller can run its parked task; a waiter a crash
    /// dropped from `parked` is granted nothing.
    ///
    /// # Panics
    ///
    /// Panics if `stage` does not hold the lock.
    pub fn unlock_ring(&mut self, stage: StageKind, now: SimTime) -> Option<StageKind> {
        let Some((holder, since)) = self.ring_lock.filter(|&(holder, _)| holder == stage) else {
            panic!("release of the ring lock by non-holder {stage:?}");
        };
        scalecheck_obs::metric(Metric::LockHold, now.since(since).as_nanos());
        let next = holder.other();
        self.ring_lock = self.parked[next as usize].as_ref().map(|&(_, queued)| {
            scalecheck_obs::metric(Metric::LockWait, now.since(queued).as_nanos());
            (next, now)
        });
        self.ring_lock.map(|(next, _)| next)
    }

    /// Stops the node's work and moves it to `to`: both stages' queues
    /// and any queued calculation are dropped, and so is each task parked
    /// for the ring lock, whose stage is finished (the task had begun on
    /// it, and no completion is in flight to finish it). The lock's holder
    /// is left alone: its completion is in flight and still releases the
    /// lock, to nobody. The caller cancels the node's timers.
    pub(crate) fn stop(&mut self, to: Lifecycle) {
        self.lifecycle = to;
        for (stage, parked) in self.stages.iter_mut().zip(&mut self.parked) {
            stage.clear();
            if parked.take().is_some() {
                stage.finish();
            }
        }
        self.calc_dirty = false;
        self.calc_queued = false;
    }

    /// Updates this node's own gossiped ring state (and its own ring
    /// view), e.g. when it starts leaving. Returns whether the ring view
    /// changed: announcing the status the view already holds for this
    /// node leaves it (and any sharing of it) alone.
    pub fn announce(&mut self, info: RingInfo) -> bool {
        let status = info.status;
        let tokens = info.tokens.clone();
        self.gossiper.update_app(info);
        let held = self.ring.node(self.id).map(|st| st.status);
        match (status, held) {
            (NodeStatus::Left, None) => false,
            (NodeStatus::Left, Some(_)) => {
                Arc::make_mut(&mut self.ring)
                    .remove_node(self.id)
                    .expect("self present");
                true
            }
            (_, Some(held)) if held == status => false,
            (_, Some(_)) => {
                Arc::make_mut(&mut self.ring)
                    .set_status(self.id, status)
                    .expect("self present");
                true
            }
            (_, None) => Arc::make_mut(&mut self.ring)
                .add_node(self.id, status, tokens)
                .is_ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_gossip::{Delta, HeartbeatState};
    use scalecheck_ring::spread_tokens;

    fn node(id: u32) -> Node {
        let mut n = Node::new(
            NodeId(id),
            DetRng::new(1).fork(id as u64),
            RingInfo::normal(spread_tokens(NodeId(id), 2)),
            3,
            FailureDetector::new(8.0, SimDuration::from_secs(1)),
        );
        n.announce(RingInfo::normal(spread_tokens(NodeId(id), 2)));
        n
    }

    fn apply_state(n: &mut Node, peer: Peer, st: EndpointState<RingInfo>) -> ApplyOutcome {
        n.gossiper.apply(&[(peer, Delta::Full(st))])
    }

    fn remote_state(id: u32, status: NodeStatus, hb: u32) -> (Peer, EndpointState<RingInfo>) {
        (
            Peer(id),
            EndpointState::new(
                HeartbeatState {
                    generation: 1,
                    version: hb,
                },
                1,
                RingInfo {
                    status,
                    tokens: spread_tokens(NodeId(id), 2),
                },
            ),
        )
    }

    #[test]
    fn apply_outcome_reports_heartbeats_and_updates_ring() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Normal, 5);
        let mut outcome = apply_state(&mut n, peer, st);
        assert!(
            n.apply_outcome(&mut outcome, SimTime::from_secs(1)),
            "new node entered the ring view"
        );
        assert!(n.ring.node(NodeId(1)).is_some());
        assert!(n.fd.liveness(Peer(1)).is_some());
    }

    #[test]
    fn joining_peer_opens_pending_window() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Joining, 5);
        let mut outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&mut outcome, SimTime::from_secs(1));
        assert!(n.pending_window_open());
    }

    #[test]
    fn left_peer_is_removed_and_forgotten() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Normal, 5);
        let mut outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&mut outcome, SimTime::from_secs(1));
        assert!(n.fd.liveness(Peer(1)).is_some());
        // Now the peer leaves.
        let (peer, mut st) = remote_state(1, NodeStatus::Left, 6);
        st.app_version = 7;
        st.heartbeat.version = 7;
        let mut outcome = apply_state(&mut n, peer, st);
        assert!(n.apply_outcome(&mut outcome, SimTime::from_secs(2)));
        assert!(n.ring.node(NodeId(1)).is_none());
        assert!(n.fd.liveness(Peer(1)).is_none(), "no flap for clean leave");
        assert_eq!((n.fd.flaps(), n.fd.monitored()), (0, 0));
        // Left nodes are not gossip candidates.
        assert!(!n.gossip_candidates().contains(&NodeId(1)));
    }

    /// The ordering hazard spelled out in `apply_outcome`: the `Left`
    /// state's own heartbeat advance must not be reported, or the
    /// convicted peer is revived for an instant and `recoveries` drifts.
    #[test]
    fn left_delta_for_a_convicted_peer_counts_no_recovery() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Normal, 5);
        let mut outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&mut outcome, SimTime::from_secs(1));
        assert_eq!(n.fd.interpret_all(SimTime::from_secs(60)), vec![peer]);
        assert_eq!(n.gossip_candidates(), vec![NodeId(1)]);
        let (peer, mut st) = remote_state(1, NodeStatus::Left, 9);
        st.app_version = 9;
        let mut outcome = apply_state(&mut n, peer, st);
        assert_eq!(outcome.heartbeat_advanced, vec![peer]);
        assert_eq!(outcome.app_advanced, vec![peer]);
        n.apply_outcome(&mut outcome, SimTime::from_secs(61));
        assert_eq!(n.fd.recoveries(), 0, "the farewell beat is not a recovery");
        assert_eq!(n.fd.liveness(peer), None, "monitor gone");
        assert_eq!((n.fd.flaps(), n.fd.monitored()), (1, 0));
        assert_eq!(n.gossip_candidate_count(), 0);
    }

    /// Count-then-index target selection agrees with the collected
    /// list on both sides of the fast path: gapless view with nobody
    /// gone (arithmetic), then a hole in the id space, then a `Left`.
    #[test]
    fn nth_candidate_matches_the_walk_on_and_off_the_fast_path() {
        fn check(n: &Node) {
            let want = n.gossip_candidates();
            assert_eq!(n.gossip_candidate_count(), want.len());
            let got: Vec<NodeId> = (0..want.len())
                .map(|k| n.nth_gossip_candidate(k).unwrap())
                .collect();
            assert_eq!(got, want);
            assert_eq!(n.nth_gossip_candidate(want.len()), None);
        }
        let mut n = node(2);
        check(&n); // Alone: no candidates.
        for id in [0, 1, 3, 4] {
            let (peer, st) = remote_state(id, NodeStatus::Normal, 1);
            n.seed_peer(peer, st);
        }
        assert_eq!(
            n.gossip_candidates(),
            [0, 1, 3, 4].map(NodeId),
            "arithmetic path skips self"
        );
        check(&n);
        let (peer, st) = remote_state(9, NodeStatus::Joining, 1);
        n.seed_peer(peer, st);
        check(&n); // Ids 5..9 are a hole.
        let (peer, mut st) = remote_state(3, NodeStatus::Left, 7);
        st.app_version = 7;
        let mut outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&mut outcome, SimTime::from_secs(1));
        assert_eq!(n.gossip_candidates(), [0, 1, 4, 9].map(NodeId));
        check(&n);
    }

    #[test]
    fn heartbeat_of_left_peer_not_reported() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Left, 5);
        let mut outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&mut outcome, SimTime::from_secs(1));
        assert!(n.fd.liveness(Peer(1)).is_none());
    }

    #[test]
    fn status_change_flags_topology_but_same_status_does_not() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Joining, 5);
        let mut outcome = apply_state(&mut n, peer, st);
        assert!(n.apply_outcome(&mut outcome, SimTime::from_secs(1)));
        // Same status, newer version: no topology change.
        let (peer, mut st) = remote_state(1, NodeStatus::Joining, 9);
        st.app_version = 9;
        let mut outcome = apply_state(&mut n, peer, st);
        assert!(!n.apply_outcome(&mut outcome, SimTime::from_secs(2)));
        // Joining -> Normal: topology change again.
        let (peer, mut st) = remote_state(1, NodeStatus::Normal, 12);
        st.app_version = 12;
        st.heartbeat.version = 12;
        let mut outcome = apply_state(&mut n, peer, st);
        assert!(n.apply_outcome(&mut outcome, SimTime::from_secs(3)));
        assert!(!n.pending_window_open());
    }

    #[test]
    fn announce_updates_self_everywhere() {
        let mut n = node(0);
        let tokens = n.ring.node(NodeId(0)).unwrap().tokens.to_vec();
        n.announce(RingInfo {
            status: NodeStatus::Leaving,
            tokens: tokens.clone(),
        });
        assert_eq!(n.gossiper.my_app().status, NodeStatus::Leaving);
        assert_eq!(n.ring.node(NodeId(0)).unwrap().status, NodeStatus::Leaving);
        assert!(n.pending_window_open());
        n.announce(RingInfo {
            status: NodeStatus::Left,
            tokens: vec![],
        });
        assert!(n.ring.node(NodeId(0)).is_none());
    }

    #[test]
    fn announce_writes_a_shared_view_only_when_it_changes() {
        let mut n = node(0);
        let tokens = spread_tokens(NodeId(0), 2);
        let shared = Arc::clone(&n.ring);
        assert!(!n.announce(RingInfo::normal(tokens.clone())));
        assert!(
            Arc::ptr_eq(&n.ring, &shared),
            "the held status copies nothing"
        );
        assert!(n.announce(RingInfo {
            status: NodeStatus::Leaving,
            tokens,
        }));
        assert!(!Arc::ptr_eq(&n.ring, &shared), "the write copied the view");
        assert_eq!(
            shared.node(NodeId(0)).unwrap().status,
            NodeStatus::Normal,
            "the other holder's view is untouched"
        );
        assert!(n.announce(RingInfo {
            status: NodeStatus::Left,
            tokens: vec![],
        }));
        assert!(!n.announce(RingInfo {
            status: NodeStatus::Left,
            tokens: vec![],
        }));
    }

    #[test]
    fn message_keys_are_unique_per_link_and_kind() {
        let mut n = node(0);
        let k1 = n.next_key(NodeId(1), 0);
        let k2 = n.next_key(NodeId(1), 0);
        let k3 = n.next_key(NodeId(2), 0);
        let k4 = n.next_key(NodeId(1), 1);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k1, k4);
        // Deterministic across nodes created the same way.
        let mut m = node(0);
        assert_eq!(m.next_key(NodeId(1), 0), k1);
    }

    #[test]
    fn message_entries_and_kind() {
        let n = node(0);
        let syn = GossipMessage::Syn(n.gossiper.make_syn());
        assert_eq!(syn.kind(), 0);
        assert_eq!(syn.entries(), 1); // knows only itself
    }

    fn at_ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn free_ring_lock_is_granted_at_once() {
        let mut n = node(0);
        let task = n.lock_ring(StageKind::Calc, Task::Recalculate, SimTime::ZERO);
        assert!(matches!(task, Some(Task::Recalculate)));
        assert!(n.holds_ring_lock(StageKind::Calc));
        assert!(!n.holds_ring_lock(StageKind::Gossip));
        assert!(n.parked.iter().all(Option::is_none));
    }

    #[test]
    fn ring_lock_passes_to_the_parked_stage_with_its_wait_and_hold() {
        use scalecheck_obs::Metric;
        scalecheck_obs::install(scalecheck_obs::Tracer::new());
        let mut n = node(0);
        n.lock_ring(StageKind::Calc, Task::Recalculate, SimTime::ZERO);
        assert!(n
            .lock_ring(StageKind::Gossip, Task::SendRound, at_ms(5))
            .is_none());
        assert!(n.parked[StageKind::Gossip as usize].is_some());
        assert_eq!(
            n.unlock_ring(StageKind::Calc, at_ms(30)),
            Some(StageKind::Gossip)
        );
        assert!(n.holds_ring_lock(StageKind::Gossip));
        // The parked task stays for the grant's continuation to run.
        assert!(n.parked[StageKind::Gossip as usize].take().is_some());
        assert_eq!(n.unlock_ring(StageKind::Gossip, at_ms(40)), None);
        let trace = scalecheck_obs::take().expect("installed above").finish();
        // Calc held 30ms, then gossip 10ms; gossip waited 25ms.
        let (hold, wait) = (
            trace.metric(Metric::LockHold),
            trace.metric(Metric::LockWait),
        );
        assert_eq!((hold.count, hold.max), (2, 30_000_000));
        assert_eq!((wait.count, wait.max), (2, 25_000_000));
    }

    #[test]
    fn release_without_a_waiter_frees_the_ring_lock() {
        let mut n = node(0);
        n.lock_ring(StageKind::Gossip, Task::SendRound, SimTime::ZERO);
        assert_eq!(n.unlock_ring(StageKind::Gossip, at_ms(1)), None);
        assert!(!n.holds_ring_lock(StageKind::Gossip));
        assert!(!n.holds_ring_lock(StageKind::Calc));
        assert!(n
            .lock_ring(StageKind::Calc, Task::Recalculate, at_ms(2))
            .is_some());
    }

    #[test]
    fn a_stop_frees_the_parked_stage_and_the_release_grants_nobody() {
        let mut n = node(0);
        let calc = &mut n.stages[StageKind::Calc as usize];
        calc.push(SimTime::ZERO, Task::Recalculate);
        let task = calc.try_begin(SimTime::ZERO).unwrap();
        assert!(n.lock_ring(StageKind::Calc, task, SimTime::ZERO).is_some());
        let gossip = &mut n.stages[StageKind::Gossip as usize];
        gossip.push(at_ms(1), Task::SendRound);
        let task = gossip.try_begin(at_ms(1)).unwrap();
        assert!(n.lock_ring(StageKind::Gossip, task, at_ms(1)).is_none());
        n.stages[StageKind::Gossip as usize].push(at_ms(1), Task::SendRound);
        n.calc_queued = true;
        n.stop(Lifecycle::Crashed { since: at_ms(2) });
        assert_eq!(n.lifecycle, Lifecycle::Crashed { since: at_ms(2) });
        assert!(n.parked.iter().all(Option::is_none));
        assert!(!n.calc_queued);
        let gossip = &n.stages[StageKind::Gossip as usize];
        assert_eq!(
            (gossip.is_busy(), gossip.depth()),
            (false, 0),
            "the waiter's stage is idle"
        );
        // The holder's completion is in flight: it keeps the lock and its
        // stage until then, and its release grants nobody.
        assert!(n.stages[StageKind::Calc as usize].is_busy());
        assert!(n.holds_ring_lock(StageKind::Calc));
        assert_eq!(n.unlock_ring(StageKind::Calc, at_ms(3)), None);
        assert!(!n.holds_ring_lock(StageKind::Gossip));
        assert!(!n.holds_ring_lock(StageKind::Calc));
    }

    #[test]
    #[should_panic(expected = "self-deadlock")]
    fn ring_lock_retaken_by_its_holder_panics() {
        let mut n = node(0);
        n.lock_ring(StageKind::Calc, Task::Recalculate, SimTime::ZERO);
        n.lock_ring(StageKind::Calc, Task::Recalculate, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn ring_lock_released_by_a_non_holder_panics() {
        let mut n = node(0);
        n.lock_ring(StageKind::Calc, Task::Recalculate, SimTime::ZERO);
        n.unlock_ring(StageKind::Gossip, SimTime::ZERO);
    }
}
