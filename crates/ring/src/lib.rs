//! Token ring substrate for the ScaleCheck reproduction.
//!
//! Implements the Cassandra-like ring that the paper's bugs live in:
//! tokens and wrapping ranges ([`Token`], [`Range`]), virtual nodes, the
//! `@scaledep` ring table ([`RingTable`]) with one shared copy per ring
//! state of a run ([`ViewStore`]), and the four historical
//! versions of the pending key-range calculation
//! ([`V1Cubic`], [`V2Quadratic`], [`V3VnodeAware`],
//! [`FreshRingQuadratic`]), each billing through an [`OpCounter`] the ops
//! its historical loops execute.
//!
//! # Examples
//!
//! ```
//! use scalecheck_ring::{
//!     NodeId, NodeStatus, OpCounter, PendingRangeCalculator, RingTable, TopologyChange,
//!     V1Cubic, V3VnodeAware, spread_tokens,
//! };
//!
//! let mut ring = RingTable::new(3);
//! for i in 0..16 {
//!     ring.add_node(NodeId(i), NodeStatus::Normal, spread_tokens(NodeId(i), 4))
//!         .unwrap();
//! }
//! let join = TopologyChange::Join { node: NodeId(99), tokens: spread_tokens(NodeId(99), 4) };
//!
//! let (mut c1, mut c3) = (OpCounter::new(), OpCounter::new());
//! let slow = V1Cubic.calculate(&ring, std::slice::from_ref(&join), &mut c1);
//! let fast = V3VnodeAware.calculate(&ring, std::slice::from_ref(&join), &mut c3);
//! assert_eq!(slow, fast);          // Same semantics...
//! assert!(c1.ops() > 50 * c3.ops()); // ...wildly different cost.
//! ```

#![forbid(unsafe_code)]

pub mod pending;
pub mod table;
pub mod token;
pub mod view;

pub use pending::{
    all_calculators, FreshRingQuadratic, OpCounter, PendingRangeCalculator, PendingRanges, V1Cubic,
    V2Quadratic, V3VnodeAware,
};
pub use table::{
    write_changes_canonical, NodeState, NodeStatus, RingError, RingTable, TopologyChange,
};
pub use token::{spread_tokens, NodeId, Range, Token};
pub use view::ViewStore;
