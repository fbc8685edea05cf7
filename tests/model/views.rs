//! Ring views as the cluster kept them before views that agree shared
//! one copy-on-write table: every view a private `RingTable`, written in
//! place, so a write to one can never reach another. Oracle for
//! `shared_ring_views_match_private_tables`.

use scalecheck_ring::{NodeId, NodeStatus, RingError, RingTable, Token};

/// One write to one view.
#[derive(Clone, Debug)]
pub enum ViewWrite {
    Add {
        node: NodeId,
        status: NodeStatus,
        tokens: Vec<Token>,
    },
    SetStatus {
        node: NodeId,
        status: NodeStatus,
    },
    Remove {
        node: NodeId,
    },
}

impl ViewWrite {
    /// Performs the write on `table`.
    pub fn apply(&self, table: &mut RingTable) -> Result<(), RingError> {
        match self {
            ViewWrite::Add {
                node,
                status,
                tokens,
            } => table.add_node(*node, *status, tokens.clone()),
            ViewWrite::SetStatus { node, status } => table.set_status(*node, *status),
            ViewWrite::Remove { node } => table.remove_node(*node),
        }
    }
}

/// K views, each its own table.
pub struct PrivateViews {
    pub views: Vec<RingTable>,
}

impl PrivateViews {
    /// `k` views, each a copy of `start`.
    pub fn new(start: &RingTable, k: usize) -> Self {
        PrivateViews {
            views: vec![start.clone(); k],
        }
    }

    /// Performs `write` on view `k` alone.
    pub fn apply(&mut self, k: usize, write: &ViewWrite) -> Result<(), RingError> {
        write.apply(&mut self.views[k])
    }
}
