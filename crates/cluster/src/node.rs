//! One simulated cluster node: gossiper + failure detector + local ring
//! view + SEDA-like stages.
//!
//! The engine-agnostic protocol logic lives here (applying gossip
//! outcomes to the ring view, message keys for order determinism); the
//! event orchestration lives in [`crate::runner`].

use scalecheck_gossip::{
    Ack, Ack2, ApplyOutcome, EndpointState, FailureDetector, Gossiper, Peer, Syn,
};
use scalecheck_memo::Hasher128;
use scalecheck_obs::{TID_CALC, TID_GOSSIP};
use scalecheck_ring::{NodeId, NodeStatus, RingTable};
use scalecheck_sim::{cpu::MachineId, DetRng, SimDuration, SimTime, Stage, TimerId};

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
            GossipMessage::Syn(s) => s.digests.len(),
            GossipMessage::Ack(a) => a.deltas.len() + a.requests.len(),
            GossipMessage::Ack2(a) => a.deltas.len(),
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
/// its slot in the runner's per-work-kind CPU accounting, and its holder
/// token on the node's ring lock.
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

/// Where a node is in its life.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lifecycle {
    /// Not yet activated, or fault-crashed (a restart brings it back).
    Down,
    /// Participating: processing, sending and timing.
    Up,
    /// Decommissioned or dead of OOM, for good.
    Departed,
}

/// One simulated node.
pub struct Node {
    /// Node id (shared across ring / gossip / network id spaces).
    pub id: NodeId,
    /// Machine this node's compute runs on.
    pub machine: MachineId,
    /// Per-node deterministic RNG (gossip target selection).
    pub rng: DetRng,
    /// Gossip component.
    pub gossiper: Gossiper<RingInfo>,
    /// Failure detector (flap accounting lives here).
    pub fd: FailureDetector,
    /// Local ring view.
    pub ring: RingTable,
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
    /// Bumped on fault crash/restart; periodic timer chains carry the
    /// epoch they were scheduled under and die when it moves on.
    pub timer_epoch: u64,
    /// Pending periodic gossip-round timer, cancelled on crash/leave.
    pub gossip_timer: Option<TimerId>,
    /// Pending periodic failure-detector timer, cancelled on crash/leave.
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
    /// Creates a node. The caller seeds the gossiper and ring afterwards.
    pub fn new(
        id: NodeId,
        machine: MachineId,
        rng: DetRng,
        info: RingInfo,
        rf: usize,
        phi_threshold: f64,
        gossip_interval: SimDuration,
    ) -> Self {
        Node {
            id,
            machine,
            rng,
            gossiper: Gossiper::new(peer_of(id), 1, info),
            fd: FailureDetector::new(phi_threshold, gossip_interval),
            ring: RingTable::new(rf),
            stages: [Stage::new(), Stage::new()],
            calc_dirty: false,
            calc_queued: false,
            calc_invocations: 0,
            lifecycle: Lifecycle::Down,
            parked: [None, None],
            held: Vec::new(),
            receiving: None,
            rebalance_bytes: 0,
            clock_skew: SimDuration::ZERO,
            timer_epoch: 0,
            gossip_timer: None,
            fd_timer: None,
            link_seq: Vec::new(),
            view_left: Vec::new(),
            left_in_view: 0,
        }
    }

    /// Makes room in the per-peer tables (gossip view, failure
    /// detector, ring view) for node ids `0..slots`, so a run of that
    /// many nodes allocates each table once instead of doubling it.
    pub fn reserve_slots(&mut self, slots: usize) {
        self.gossiper.reserve_slots(slots);
        self.fd.reserve_slots(slots);
        self.ring.reserve_slots(slots);
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
    /// the local ring view. Returns whether the ring view changed in a
    /// way that requires recalculation.
    pub fn apply_outcome(&mut self, outcome: &ApplyOutcome, now: SimTime) -> bool {
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
        let nobody_left = self.left_in_view == 0;
        for &peer in &outcome.heartbeat_advanced {
            if nobody_left || !self.has_left(peer) {
                self.fd.report(peer, now);
            }
        }
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
                    self.ring.remove_node(node).expect("presence checked");
                }
                self.fd.forget(peer);
                was_present
            }
            _ => match self.ring.node(node) {
                Some(st) => {
                    if st.status != status {
                        self.ring.set_status(node, status).expect("node present");
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
                    // arbitration.
                    self.ring.add_node(node, status, tokens).is_ok()
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

    /// Updates this node's own gossiped ring state (and its own ring
    /// view), e.g. when it starts leaving.
    pub fn announce(&mut self, info: RingInfo) {
        let status = info.status;
        let tokens = info.tokens.clone();
        self.gossiper.update_app(info);
        match status {
            NodeStatus::Left => {
                if self.ring.node(self.id).is_some() {
                    self.ring.remove_node(self.id).expect("self present");
                }
            }
            _ => {
                if self.ring.node(self.id).is_some() {
                    self.ring.set_status(self.id, status).expect("self present");
                } else {
                    let _ = self.ring.add_node(self.id, status, tokens);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_gossip::{Delta, Deltas, HeartbeatState};
    use scalecheck_ring::spread_tokens;

    fn node(id: u32) -> Node {
        let mut n = Node::new(
            NodeId(id),
            MachineId(0),
            DetRng::new(1).fork(id as u64),
            RingInfo::normal(spread_tokens(NodeId(id), 2)),
            3,
            8.0,
            SimDuration::from_secs(1),
        );
        n.announce(RingInfo::normal(spread_tokens(NodeId(id), 2)));
        n
    }

    fn apply_state(n: &mut Node, peer: Peer, st: EndpointState<RingInfo>) -> ApplyOutcome {
        n.gossiper
            .apply(&Deltas::from_iter([(peer, Delta::Full(st))]))
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
        let outcome = apply_state(&mut n, peer, st);
        assert!(
            n.apply_outcome(&outcome, SimTime::from_secs(1)),
            "new node entered the ring view"
        );
        assert!(n.ring.node(NodeId(1)).is_some());
        assert!(n.fd.liveness(Peer(1)).is_some());
    }

    #[test]
    fn joining_peer_opens_pending_window() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Joining, 5);
        let outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert!(n.pending_window_open());
    }

    #[test]
    fn left_peer_is_removed_and_forgotten() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Normal, 5);
        let outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert!(n.fd.liveness(Peer(1)).is_some());
        // Now the peer leaves.
        let (peer, mut st) = remote_state(1, NodeStatus::Left, 6);
        st.app_version = 7;
        st.heartbeat.version = 7;
        let outcome = apply_state(&mut n, peer, st);
        assert!(n.apply_outcome(&outcome, SimTime::from_secs(2)));
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
        let outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert_eq!(n.fd.interpret_all(SimTime::from_secs(60)), vec![peer]);
        assert_eq!(n.gossip_candidates(), vec![NodeId(1)]);
        let (peer, mut st) = remote_state(1, NodeStatus::Left, 9);
        st.app_version = 9;
        let outcome = apply_state(&mut n, peer, st);
        assert_eq!(outcome.heartbeat_advanced, vec![peer]);
        assert_eq!(outcome.app_advanced, vec![peer]);
        n.apply_outcome(&outcome, SimTime::from_secs(61));
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
        let outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert_eq!(n.gossip_candidates(), [0, 1, 4, 9].map(NodeId));
        check(&n);
    }

    #[test]
    fn heartbeat_of_left_peer_not_reported() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Left, 5);
        let outcome = apply_state(&mut n, peer, st);
        n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert!(n.fd.liveness(Peer(1)).is_none());
    }

    #[test]
    fn status_change_flags_topology_but_same_status_does_not() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Joining, 5);
        let outcome = apply_state(&mut n, peer, st);
        assert!(n.apply_outcome(&outcome, SimTime::from_secs(1)));
        // Same status, newer version: no topology change.
        let (peer, mut st) = remote_state(1, NodeStatus::Joining, 9);
        st.app_version = 9;
        let outcome = apply_state(&mut n, peer, st);
        assert!(!n.apply_outcome(&outcome, SimTime::from_secs(2)));
        // Joining -> Normal: topology change again.
        let (peer, mut st) = remote_state(1, NodeStatus::Normal, 12);
        st.app_version = 12;
        st.heartbeat.version = 12;
        let outcome = apply_state(&mut n, peer, st);
        assert!(n.apply_outcome(&outcome, SimTime::from_secs(3)));
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
}
