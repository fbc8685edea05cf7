//! `scalecheck_ring::RingTable` as it was before it addressed its nodes
//! by id: a `BTreeMap<NodeId, _>` of entries that each own their token
//! `Vec`, every derived value rebuilt on every call, and the pending
//! flag a walk over the table. Oracle for
//! `dense_ring_table_matches_the_tree_model`.

use std::collections::BTreeMap;

use scalecheck_ring::{NodeId, NodeStatus, RingError, Token, TopologyChange};

/// One entry of [`TreeRingTable`].
#[derive(Clone, Debug)]
pub struct TreeNodeState {
    pub status: NodeStatus,
    pub tokens: Vec<Token>,
}

/// The ring table over a `BTreeMap`.
#[derive(Clone, Debug)]
pub struct TreeRingTable {
    rf: usize,
    nodes: BTreeMap<NodeId, TreeNodeState>,
}

impl TreeRingTable {
    pub fn new(rf: usize) -> Self {
        TreeRingTable {
            rf,
            nodes: BTreeMap::new(),
        }
    }

    pub fn add_node(
        &mut self,
        node: NodeId,
        status: NodeStatus,
        mut tokens: Vec<Token>,
    ) -> Result<(), RingError> {
        if self.nodes.contains_key(&node) {
            return Err(RingError::DuplicateNode(node));
        }
        tokens.sort_unstable();
        tokens.dedup();
        for t in &tokens {
            if let Some(owner) = self.owner_of_token(*t) {
                return Err(RingError::DuplicateToken(*t, owner));
            }
        }
        self.nodes.insert(node, TreeNodeState { status, tokens });
        Ok(())
    }

    pub fn set_status(&mut self, node: NodeId, status: NodeStatus) -> Result<(), RingError> {
        match self.nodes.get_mut(&node) {
            Some(st) => {
                st.status = status;
                Ok(())
            }
            None => Err(RingError::UnknownNode(node)),
        }
    }

    pub fn remove_node(&mut self, node: NodeId) -> Result<(), RingError> {
        match self.nodes.remove(&node) {
            Some(_) => Ok(()),
            None => Err(RingError::UnknownNode(node)),
        }
    }

    pub fn node(&self, node: NodeId) -> Option<&TreeNodeState> {
        self.nodes.get(&node)
    }

    pub fn has_pending_change(&self) -> bool {
        self.nodes.values().any(|st| st.status.in_transition())
    }

    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &TreeNodeState)> {
        self.nodes.iter().map(|(&id, st)| (id, st))
    }

    pub fn owner_of_token(&self, t: Token) -> Option<NodeId> {
        for (&id, st) in &self.nodes {
            if st.tokens.binary_search(&t).is_ok() {
                return Some(id);
            }
        }
        None
    }

    pub fn current_token_map(&self) -> Vec<(Token, NodeId)> {
        let mut map: Vec<(Token, NodeId)> = self
            .nodes
            .iter()
            .filter(|(_, st)| matches!(st.status, NodeStatus::Normal | NodeStatus::Leaving))
            .flat_map(|(&id, st)| st.tokens.iter().map(move |&t| (t, id)))
            .collect();
        map.sort_unstable();
        map
    }

    pub fn future_token_map(
        &self,
        changes: &[TopologyChange],
    ) -> Result<Vec<(Token, NodeId)>, RingError> {
        let mut map = self.current_token_map();
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

    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.rf as u64).to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        for (id, st) in &self.nodes {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.push(match st.status {
                NodeStatus::Normal => 0,
                NodeStatus::Joining => 1,
                NodeStatus::Leaving => 2,
                NodeStatus::Left => 3,
            });
            out.extend_from_slice(&(st.tokens.len() as u64).to_le_bytes());
            for t in &st.tokens {
                out.extend_from_slice(&t.0.to_le_bytes());
            }
        }
    }
}
