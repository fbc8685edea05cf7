//! The ring table: node statuses, token ownership, and topology changes.
//!
//! This is the `@scaledep`-annotated data structure of the paper's
//! Figure 2: its size grows with cluster size (N physical nodes times P
//! virtual nodes), and loops over it are what the offending-function
//! finder flags.

use std::sync::{Arc, OnceLock};

use scalecheck_memo::Hasher128;

use crate::token::{NodeId, Token};

/// Gossip-visible lifecycle status of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeStatus {
    /// Fully joined; owns its ranges.
    Normal,
    /// Bootstrapping; will own its ranges once the join completes.
    Joining,
    /// Decommissioning; still owns its ranges but is leaving.
    Leaving,
    /// Departed; owns nothing.
    Left,
}

impl NodeStatus {
    /// Whether the node is part-way through a topology change
    /// (`Joining` or `Leaving`): the statuses that put a pending range
    /// on the ring.
    pub fn in_transition(self) -> bool {
        matches!(self, NodeStatus::Joining | NodeStatus::Leaving)
    }
}

/// Per-node ring state: one slot of a [`RingTable`], which addresses
/// its slots by `NodeId.0` (see the dense-id contract there).
///
/// The token list is shared, never mutated in place: a cloned table
/// points at the same list, so the copy a shared view makes on its first
/// write ([`crate::ViewStore`]) adds no lists. A change of tokens is a
/// `remove_node` and an `add_node`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeState {
    /// Lifecycle status.
    pub status: NodeStatus,
    /// The node's tokens (sorted, deduplicated at insert).
    pub tokens: Arc<[Token]>,
}

/// A topology change carried by gossip (the paper's `M`-element change
/// list).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TopologyChange {
    /// `node` is joining with the given tokens.
    Join {
        /// The joining node.
        node: NodeId,
        /// Its tokens.
        tokens: Vec<Token>,
    },
    /// `node` is leaving the ring.
    Leave {
        /// The departing node.
        node: NodeId,
    },
}

impl TopologyChange {
    /// The node this change concerns.
    pub fn node(&self) -> NodeId {
        match self {
            TopologyChange::Join { node, .. } | TopologyChange::Leave { node } => *node,
        }
    }
}

/// Errors from ring-table mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingError {
    /// The node is already present.
    DuplicateNode(NodeId),
    /// A token is already owned by another node.
    DuplicateToken(Token, NodeId),
    /// The node is not in the table.
    UnknownNode(NodeId),
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::DuplicateNode(n) => write!(f, "node {n} already in ring"),
            RingError::DuplicateToken(t, n) => write!(f, "token {t} already owned by {n}"),
            RingError::UnknownNode(n) => write!(f, "node {n} not in ring"),
        }
    }
}

impl std::error::Error for RingError {}

/// Lazily built values derived from the node table alone.
///
/// The token map used to be rebuilt and re-sorted from the node table
/// on every call — O(N·P log N·P) in a path the calculators hit per
/// change entry — and every memo digest of a calculation re-encoded and
/// re-hashed the whole unchanged table, O(N·P) bytes per call. The
/// cache holds the sorted map behind an `Arc`, so lookups are O(1), and
/// the FNV-1a-128 state after [`RingTable::write_canonical`]'s bytes,
/// so a digest hashes only its change list. Snapshot clones of the ring
/// keep both warm; every topology mutation resets both.
///
/// The cache is pure memoization: `write_canonical` (what memo digests
/// hash) never reads it.
#[derive(Clone, Debug, Default)]
struct DerivedCache {
    token_map: OnceLock<Arc<Vec<(Token, NodeId)>>>,
    canonical: OnceLock<Hasher128>,
}

/// The cluster's view of token ownership.
///
/// # Dense-id contract
///
/// Node ids are **dense node indexes**, the contract
/// `scalecheck_gossip::EndpointMap` states for `Peer`: the cluster
/// numbers its nodes `0..total_nodes`, and a table holds one slot per
/// id up to the highest id added or reserved, present or not. Lookups
/// are array indexing, and iteration is ascending by id. A sparse id
/// (`NodeId(5000)` in a three-node ring) is legal and costs 5001 slots
/// of 24 bytes, not a panic. Slots are never given back.
///
/// Two tables are equal when their contents are: the replication
/// factor and the present nodes, with their statuses and tokens, which
/// is exactly what [`Self::write_canonical`] encodes. Slot counts and
/// caches do not take part.
///
/// A cluster node holds its view as an `Arc<RingTable>` written through
/// `Arc::make_mut`, and views with equal contents share one table
/// ([`crate::ViewStore`]); nothing here depends on that.
///
/// Deliberately not `Serialize`/`Deserialize`: nothing stores a ring
/// (memo digests go through [`Self::write_canonical`]), and a
/// deserialised table could disagree with its own `in_transition`
/// count.
#[derive(Clone, Debug)]
pub struct RingTable {
    rf: usize,
    /// `nodes[i]` is the state of `NodeId(i)`, if present.
    nodes: Vec<Option<NodeState>>,
    /// Number of `Some` slots in `nodes`.
    present: usize,
    derived: DerivedCache,
    /// How many nodes are `Joining` or `Leaving`, kept by the three
    /// mutators so [`Self::has_pending_change`] is not a ring walk.
    in_transition: usize,
}

impl RingTable {
    /// Creates an empty ring with replication factor `rf`.
    ///
    /// # Panics
    ///
    /// Panics if `rf` is zero.
    pub fn new(rf: usize) -> Self {
        assert!(rf > 0, "replication factor must be positive");
        RingTable {
            rf,
            nodes: Vec::new(),
            present: 0,
            derived: DerivedCache::default(),
            in_transition: 0,
        }
    }

    /// Replication factor.
    pub fn rf(&self) -> usize {
        self.rf
    }

    /// Gives the table (empty) slots for ids `0..slots`, so that adding
    /// any of them never reallocates, in this table or in any clone of
    /// it: a clone copies the slots, not spare capacity. In a dense-id
    /// run, reserving the cluster's node count once keeps every view at
    /// exactly one slot per node; a larger id still grows the table.
    pub fn reserve_slots(&mut self, slots: usize) {
        if slots > self.nodes.len() {
            self.nodes.reserve_exact(slots - self.nodes.len());
            self.nodes.resize_with(slots, || None);
        }
    }

    /// Adds a node with the given status and tokens.
    pub fn add_node(
        &mut self,
        node: NodeId,
        status: NodeStatus,
        mut tokens: Vec<Token>,
    ) -> Result<(), RingError> {
        if self.node(node).is_some() {
            return Err(RingError::DuplicateNode(node));
        }
        tokens.sort_unstable();
        tokens.dedup();
        for t in &tokens {
            if let Some(owner) = self.owner_of_token(*t) {
                return Err(RingError::DuplicateToken(*t, owner));
            }
        }
        let idx = node.0 as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize_with(idx + 1, || None);
        }
        self.nodes[idx] = Some(NodeState {
            status,
            tokens: tokens.into(),
        });
        self.present += 1;
        self.in_transition += usize::from(status.in_transition());
        self.derived = DerivedCache::default();
        Ok(())
    }

    /// Changes a node's status.
    pub fn set_status(&mut self, node: NodeId, status: NodeStatus) -> Result<(), RingError> {
        match self.nodes.get_mut(node.0 as usize).and_then(Option::as_mut) {
            Some(st) => {
                self.in_transition -= usize::from(st.status.in_transition());
                self.in_transition += usize::from(status.in_transition());
                st.status = status;
                self.derived = DerivedCache::default();
                Ok(())
            }
            None => Err(RingError::UnknownNode(node)),
        }
    }

    /// Removes a node entirely.
    pub fn remove_node(&mut self, node: NodeId) -> Result<(), RingError> {
        match self.nodes.get_mut(node.0 as usize).and_then(Option::take) {
            Some(st) => {
                self.present -= 1;
                self.in_transition -= usize::from(st.status.in_transition());
                self.derived = DerivedCache::default();
                Ok(())
            }
            None => Err(RingError::UnknownNode(node)),
        }
    }

    /// A node's state, if present.
    pub fn node(&self, node: NodeId) -> Option<&NodeState> {
        self.nodes.get(node.0 as usize)?.as_ref()
    }

    /// Whether any node is `Joining` or `Leaving` — the window during
    /// which Cassandra recalculates pending ranges on every applied
    /// gossip. O(1).
    pub fn has_pending_change(&self) -> bool {
        self.in_transition > 0
    }

    /// Iterates over `(node, state)` in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeState)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| Some((NodeId(idx as u32), slot.as_ref()?)))
    }

    /// Which node currently owns a token, if any.
    pub fn owner_of_token(&self, t: Token) -> Option<NodeId> {
        self.iter()
            .find(|(_, st)| st.tokens.binary_search(&t).is_ok())
            .map(|(id, _)| id)
    }

    /// The sorted `(token, node)` map of *current* owners: nodes in
    /// `Normal` or `Leaving` status (Leaving nodes still own their ranges
    /// until departure completes).
    ///
    /// Cached: the first call after a topology mutation rebuilds the
    /// map; subsequent calls hand out the shared snapshot. The returned
    /// `Arc<Vec<_>>` derefs to a slice, so read-only callers are
    /// unchanged.
    pub fn current_token_map(&self) -> Arc<Vec<(Token, NodeId)>> {
        Arc::clone(self.cached_token_map())
    }

    /// The cached map, filled on first use after a mutation.
    fn cached_token_map(&self) -> &Arc<Vec<(Token, NodeId)>> {
        self.derived
            .token_map
            .get_or_init(|| Arc::new(self.rebuild_current_token_map()))
    }

    /// Reference implementation of [`Self::current_token_map`]: rebuilds
    /// the sorted map from the node table on every call (the pre-cache
    /// behavior). Used to fill the cache and by the differential
    /// proptests pinning cached == rebuilt.
    pub fn rebuild_current_token_map(&self) -> Vec<(Token, NodeId)> {
        let mut map: Vec<(Token, NodeId)> = self
            .iter()
            .filter(|(_, st)| matches!(st.status, NodeStatus::Normal | NodeStatus::Leaving))
            .flat_map(|(id, st)| st.tokens.iter().map(move |&t| (t, id)))
            .collect();
        map.sort_unstable();
        map
    }

    /// Resolves the replica set of `key`: walks the current token map
    /// clockwise from the first token at or after `key` (wrapping),
    /// collecting up to `rf` *distinct* nodes into `out` in preference
    /// order. `out` is cleared first; it stays empty when the ring has
    /// no current owners. This is the single replica-resolution walk —
    /// the client datapath and the traffic engine both route through
    /// it.
    pub fn replicas_of(&self, key: Token, out: &mut Vec<NodeId>) {
        out.clear();
        let map = self.cached_token_map();
        // From the first token >= key to the end, then wrap to the head.
        let (head, tail) = map.split_at(map.partition_point(|&(t, _)| t < key));
        for &(_, node) in tail.iter().chain(head) {
            if !out.contains(&node) {
                out.push(node);
                if out.len() == self.rf {
                    break;
                }
            }
        }
    }

    /// The sorted `(token, node)` map after applying `changes` on top of
    /// the current owners: joins add tokens, leaves remove the node's
    /// tokens.
    ///
    /// A change list may repeat an exact `(token, node)` pair (an
    /// idempotent re-join); those collapse. A token claimed by two
    /// *different* nodes is a topology corruption: the old code
    /// `dedup_by_key`ed it away, silently disagreeing with
    /// [`Self::current_token_map`] (which never dedups) about the owner
    /// set. It is now detected and reported as
    /// [`RingError::DuplicateToken`] carrying the first claimant.
    pub fn future_token_map(
        &self,
        changes: &[TopologyChange],
    ) -> Result<Vec<(Token, NodeId)>, RingError> {
        let mut map: Vec<(Token, NodeId)> = (*self.current_token_map()).clone();
        for ch in changes {
            match ch {
                TopologyChange::Join { node, tokens } => {
                    for &t in tokens {
                        map.push((t, *node));
                    }
                }
                TopologyChange::Leave { node } => {
                    map.retain(|&(_, n)| n != *node);
                }
            }
        }
        map.sort_unstable();
        map.dedup();
        for w in map.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(RingError::DuplicateToken(w[0].0, w[0].1));
            }
        }
        Ok(map)
    }

    /// The FNV-1a-128 hasher that has consumed exactly
    /// [`Self::write_canonical`]'s bytes: the prefix every memo digest of
    /// a calculation on this ring resumes. Cached: the first call after a
    /// topology mutation encodes and hashes the table; later calls, and
    /// clones, copy the state.
    pub fn canonical_hasher(&self) -> Hasher128 {
        *self.derived.canonical.get_or_init(|| {
            let mut bytes = Vec::new();
            self.write_canonical(&mut bytes);
            let mut h = Hasher128::new();
            h.update(&bytes);
            h
        })
    }

    /// Canonical byte encoding for memoization digests: stable across
    /// insertion order because nodes are visited in id order. It counts
    /// the nodes present, not the slots, so a view's bytes do not depend
    /// on the ids it has held.
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.rf as u64).to_le_bytes());
        out.extend_from_slice(&(self.present as u64).to_le_bytes());
        for (id, st) in self.iter() {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.push(match st.status {
                NodeStatus::Normal => 0,
                NodeStatus::Joining => 1,
                NodeStatus::Leaving => 2,
                NodeStatus::Left => 3,
            });
            out.extend_from_slice(&(st.tokens.len() as u64).to_le_bytes());
            for t in st.tokens.iter() {
                out.extend_from_slice(&t.0.to_le_bytes());
            }
        }
    }
}

impl PartialEq for RingTable {
    fn eq(&self, other: &Self) -> bool {
        self.rf == other.rf && self.present == other.present && self.iter().eq(other.iter())
    }
}

impl Eq for RingTable {}

/// Canonical byte encoding of a change list (for memo digests).
pub fn write_changes_canonical(changes: &[TopologyChange], out: &mut Vec<u8>) {
    out.extend_from_slice(&(changes.len() as u64).to_le_bytes());
    for ch in changes {
        match ch {
            TopologyChange::Join { node, tokens } => {
                out.push(0);
                out.extend_from_slice(&node.0.to_le_bytes());
                out.extend_from_slice(&(tokens.len() as u64).to_le_bytes());
                for t in tokens {
                    out.extend_from_slice(&t.0.to_le_bytes());
                }
            }
            TopologyChange::Leave { node } => {
                out.push(1);
                out.extend_from_slice(&node.0.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::spread_tokens;

    fn ring_of(n: u32, p: usize) -> RingTable {
        let mut r = RingTable::new(3);
        for i in 0..n {
            r.add_node(NodeId(i), NodeStatus::Normal, spread_tokens(NodeId(i), p))
                .unwrap();
        }
        r
    }

    #[test]
    fn add_and_lookup() {
        let r = ring_of(4, 8);
        assert_eq!(r.iter().count(), 4);
        let t = r.node(NodeId(2)).unwrap().tokens[0];
        assert_eq!(r.owner_of_token(t), Some(NodeId(2)));
        assert_eq!(r.owner_of_token(Token(1)), None);
    }

    #[test]
    fn clones_share_token_lists() {
        let r = ring_of(4, 8);
        let mut view = r.clone();
        view.remove_node(NodeId(0)).unwrap();
        for (id, st) in view.iter() {
            assert!(Arc::ptr_eq(&st.tokens, &r.node(id).unwrap().tokens));
        }
    }

    #[test]
    fn replicas_walk_clockwise_and_dedupe() {
        let r = ring_of(8, 4);
        let mut out = Vec::new();
        r.replicas_of(Token(0), &mut out);
        assert_eq!(out.len(), 3, "rf distinct replicas on a healthy ring");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len(), "replicas are distinct");
        // The walk starts at the first token >= key.
        let map = r.current_token_map();
        assert_eq!(out[0], map[0].1);
        // Wrapping: a key past the last token resolves to the ring head.
        let mut wrapped = Vec::new();
        r.replicas_of(Token(u64::MAX), &mut wrapped);
        assert_eq!(wrapped.len(), 3);
        // Fewer nodes than RF yields every node, not a panic.
        let small = ring_of(2, 4);
        let mut few = Vec::new();
        small.replicas_of(Token(7), &mut few);
        assert_eq!(few.len(), 2);
        // An empty ring yields no replicas.
        let empty = RingTable::new(3);
        let mut none = vec![NodeId(9)];
        empty.replicas_of(Token(7), &mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut r = ring_of(2, 4);
        let err = r
            .add_node(NodeId(0), NodeStatus::Normal, vec![Token(99)])
            .unwrap_err();
        assert_eq!(err, RingError::DuplicateNode(NodeId(0)));
    }

    #[test]
    fn duplicate_token_rejected() {
        let mut r = RingTable::new(3);
        r.add_node(NodeId(0), NodeStatus::Normal, vec![Token(5)])
            .unwrap();
        let err = r
            .add_node(NodeId(1), NodeStatus::Normal, vec![Token(5)])
            .unwrap_err();
        assert_eq!(err, RingError::DuplicateToken(Token(5), NodeId(0)));
    }

    #[test]
    fn unknown_node_errors() {
        let mut r = RingTable::new(3);
        assert_eq!(
            r.set_status(NodeId(9), NodeStatus::Leaving),
            Err(RingError::UnknownNode(NodeId(9)))
        );
        assert_eq!(
            r.remove_node(NodeId(9)),
            Err(RingError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn current_map_excludes_joining_and_left() {
        let mut r = RingTable::new(3);
        r.add_node(NodeId(0), NodeStatus::Normal, vec![Token(10)])
            .unwrap();
        r.add_node(NodeId(1), NodeStatus::Joining, vec![Token(20)])
            .unwrap();
        r.add_node(NodeId(2), NodeStatus::Leaving, vec![Token(30)])
            .unwrap();
        r.add_node(NodeId(3), NodeStatus::Left, vec![Token(40)])
            .unwrap();
        let map = r.current_token_map();
        let owners: Vec<NodeId> = map.iter().map(|&(_, n)| n).collect();
        assert_eq!(owners, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn future_map_applies_changes() {
        let mut r = RingTable::new(3);
        r.add_node(NodeId(0), NodeStatus::Normal, vec![Token(10)])
            .unwrap();
        r.add_node(NodeId(1), NodeStatus::Normal, vec![Token(20)])
            .unwrap();
        let future = r
            .future_token_map(&[
                TopologyChange::Leave { node: NodeId(0) },
                TopologyChange::Join {
                    node: NodeId(2),
                    tokens: vec![Token(5), Token(15)],
                },
            ])
            .unwrap();
        assert_eq!(
            future,
            vec![
                (Token(5), NodeId(2)),
                (Token(15), NodeId(2)),
                (Token(20), NodeId(1))
            ]
        );
    }

    #[test]
    fn future_map_rejects_token_claimed_by_two_nodes() {
        let mut r = RingTable::new(3);
        r.add_node(NodeId(0), NodeStatus::Normal, vec![Token(10)])
            .unwrap();
        let err = r
            .future_token_map(&[TopologyChange::Join {
                node: NodeId(1),
                tokens: vec![Token(10)],
            }])
            .unwrap_err();
        assert_eq!(err, RingError::DuplicateToken(Token(10), NodeId(0)));
    }

    #[test]
    fn future_map_collapses_idempotent_rejoin() {
        let mut r = RingTable::new(3);
        r.add_node(NodeId(0), NodeStatus::Normal, vec![Token(10)])
            .unwrap();
        // The same node re-claiming its own token is idempotent, not
        // a corruption.
        let future = r
            .future_token_map(&[TopologyChange::Join {
                node: NodeId(0),
                tokens: vec![Token(10)],
            }])
            .unwrap();
        assert_eq!(future, vec![(Token(10), NodeId(0))]);
    }

    #[test]
    fn token_map_cache_tracks_every_mutation() {
        let mut r = ring_of(6, 8);
        assert_eq!(*r.current_token_map(), r.rebuild_current_token_map());
        r.set_status(NodeId(2), NodeStatus::Leaving).unwrap();
        assert_eq!(*r.current_token_map(), r.rebuild_current_token_map());
        r.set_status(NodeId(2), NodeStatus::Left).unwrap();
        assert_eq!(*r.current_token_map(), r.rebuild_current_token_map());
        r.remove_node(NodeId(3)).unwrap();
        assert_eq!(*r.current_token_map(), r.rebuild_current_token_map());
        r.add_node(NodeId(99), NodeStatus::Normal, vec![Token(1)])
            .unwrap();
        assert_eq!(*r.current_token_map(), r.rebuild_current_token_map());
        // Clones carry the warm cache and stay consistent after the
        // original mutates further.
        let snap = r.clone();
        r.remove_node(NodeId(99)).unwrap();
        assert_eq!(*snap.current_token_map(), snap.rebuild_current_token_map());
        assert_eq!(*r.current_token_map(), r.rebuild_current_token_map());
        assert_ne!(*snap.current_token_map(), *r.current_token_map());
    }

    #[test]
    fn equality_is_contents_only() {
        let mut a = ring_of(4, 4);
        let mut b = ring_of(4, 4);
        b.reserve_slots(64);
        let _ = a.current_token_map();
        assert_eq!(a, b, "slots and caches do not take part");
        assert_eq!(
            b.clone().nodes.len(),
            64,
            "a clone keeps the reserved slots"
        );
        a.set_status(NodeId(1), NodeStatus::Leaving).unwrap();
        assert_ne!(a, b);
        b.set_status(NodeId(1), NodeStatus::Leaving).unwrap();
        assert_eq!(a, b);
        b.remove_node(NodeId(3)).unwrap();
        assert_ne!(a, b);
        assert_ne!(RingTable::new(3), RingTable::new(2));
    }

    #[test]
    fn canonical_encoding_is_stable() {
        let a = ring_of(8, 16);
        let b = ring_of(8, 16);
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        a.write_canonical(&mut ba);
        b.write_canonical(&mut bb);
        assert_eq!(ba, bb);
        assert!(!ba.is_empty());
    }

    #[test]
    fn canonical_encoding_distinguishes_status() {
        let mut a = ring_of(4, 4);
        let b = a.clone();
        a.set_status(NodeId(1), NodeStatus::Leaving).unwrap();
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        a.write_canonical(&mut ba);
        b.write_canonical(&mut bb);
        assert_ne!(ba, bb);
    }

    #[test]
    fn change_encoding_distinguishes_kinds() {
        let join = TopologyChange::Join {
            node: NodeId(1),
            tokens: vec![Token(7)],
        };
        let leave = TopologyChange::Leave { node: NodeId(1) };
        let mut bj = Vec::new();
        let mut bl = Vec::new();
        write_changes_canonical(std::slice::from_ref(&join), &mut bj);
        write_changes_canonical(std::slice::from_ref(&leave), &mut bl);
        assert_ne!(bj, bl);
        assert_eq!(join.node(), NodeId(1));
        assert_eq!(leave.node(), NodeId(1));
    }
}
