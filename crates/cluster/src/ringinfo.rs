//! The application payload gossip carries: ring status + tokens.
//!
//! In Cassandra, topology changes (BOOT/LEAVING/LEFT + tokens) ride the
//! gossip channel as application state next to the heartbeat — which is
//! why a slow reaction to a topology change (the pending-range
//! calculation) starves liveness processing. [`RingInfo`] is that
//! payload; id conversions between the ring / gossip / network
//! identifier spaces live here too.

use scalecheck_gossip::Peer;
use scalecheck_net::Addr;
use scalecheck_ring::{NodeId, NodeStatus, Token};

/// A node's gossiped ring state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RingInfo {
    /// Lifecycle status.
    pub status: NodeStatus,
    /// The node's tokens.
    pub tokens: Vec<Token>,
}

impl RingInfo {
    /// A normal member with the given tokens.
    pub fn normal(tokens: Vec<Token>) -> Self {
        RingInfo {
            status: NodeStatus::Normal,
            tokens,
        }
    }

    /// A bootstrapping node with the given tokens.
    pub fn joining(tokens: Vec<Token>) -> Self {
        RingInfo {
            status: NodeStatus::Joining,
            tokens,
        }
    }

    /// Canonical bytes for digesting.
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        out.push(match self.status {
            NodeStatus::Normal => 0,
            NodeStatus::Joining => 1,
            NodeStatus::Leaving => 2,
            NodeStatus::Left => 3,
        });
        out.extend_from_slice(&(self.tokens.len() as u64).to_le_bytes());
        for t in &self.tokens {
            out.extend_from_slice(&t.0.to_le_bytes());
        }
    }
}

/// Converts a ring node id into a gossip peer id.
pub fn peer_of(node: NodeId) -> Peer {
    Peer(node.0)
}

/// Converts a ring node id into a network address.
pub fn addr_of(node: NodeId) -> Addr {
    Addr(node.0)
}

/// Converts a gossip peer id back into a ring node id.
pub fn node_of(peer: Peer) -> NodeId {
    NodeId(peer.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_status() {
        assert_eq!(RingInfo::normal(vec![]).status, NodeStatus::Normal);
        assert_eq!(RingInfo::joining(vec![]).status, NodeStatus::Joining);
    }

    #[test]
    fn canonical_encoding_discriminates() {
        let a = RingInfo::normal(vec![Token(1), Token(2)]);
        let b = RingInfo::joining(vec![Token(1), Token(2)]);
        let c = RingInfo::normal(vec![Token(2), Token(1)]);
        let enc = |r: &RingInfo| {
            let mut v = Vec::new();
            r.write_canonical(&mut v);
            v
        };
        assert_ne!(enc(&a), enc(&b));
        assert_ne!(enc(&a), enc(&c));
        assert_eq!(enc(&a), enc(&a.clone()));
    }

    #[test]
    fn id_conversions_round_trip() {
        let n = NodeId(42);
        assert_eq!(node_of(peer_of(n)), n);
        assert_eq!(addr_of(n), Addr(42));
    }
}
