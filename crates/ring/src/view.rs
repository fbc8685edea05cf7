//! One table per ring state: the views of a run that agree share one
//! copy-on-write [`RingTable`].
//!
//! Every node of a simulated cluster keeps its own view of the ring, and
//! once a topology change has spread, all N views hold the same
//! contents. A view is an `Arc<RingTable>` that its owner writes through
//! `Arc::make_mut`, so it is copied only while it is shared. After a
//! write, the owner hands the view to the run's [`ViewStore`], which
//! swaps in the table that already holds those contents, if any: views
//! that reach the same state merge again, and share one token map and
//! one canonical hash.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use scalecheck_memo::Digest128;

use crate::table::RingTable;

/// Fewest handles the store keeps before it sweeps dead ones.
const MIN_SWEEP: usize = 64;

/// The one live table per ring state of a run.
///
/// It maps a table's canonical digest ([`RingTable::canonical_hasher`],
/// which the table caches) to a weak handle on the table registered for
/// those contents. A handle does not keep its table alive: when the last
/// view of a state moves on, the table is freed, and the dead handle is
/// replaced by the next view to reach that state or swept once dead
/// handles outnumber live ones.
#[derive(Debug, Default)]
pub struct ViewStore {
    tables: HashMap<Digest128, Weak<RingTable>>,
    /// Handle count at which the next sweep runs.
    sweep_at: usize,
}

impl ViewStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands over `view`, whose contents have changed: if a live table
    /// with equal contents is registered, `view` becomes a handle on it
    /// (its own table is dropped with its last handle); otherwise `view`
    /// is registered for its contents. Equal digests are checked by
    /// comparing the contents, so a digest collision shares nothing.
    ///
    /// Costs the canonical hash, if `view` has none cached (O(N·P) for
    /// N nodes of P tokens), plus one comparison of equal tables.
    pub fn share(&mut self, view: &mut Arc<RingTable>) {
        let key = view.canonical_hasher().finish();
        let registered = self.tables.get(&key).and_then(Weak::upgrade);
        match registered {
            Some(table) if Arc::ptr_eq(&table, view) => {}
            Some(table) if table == *view => *view = table,
            // A collision: the registered table keeps the digest.
            Some(_) => {}
            None => {
                self.tables.insert(key, Arc::downgrade(view));
                if self.tables.len() >= self.sweep_at {
                    self.tables.retain(|_, table| table.strong_count() > 0);
                    self.sweep_at = (2 * self.tables.len()).max(MIN_SWEEP);
                }
            }
        }
    }

    /// How many registered tables are alive: the number of distinct
    /// ring states the store's views hold, at most.
    pub fn live_tables(&self) -> usize {
        self.tables
            .values()
            .filter(|table| table.strong_count() > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::NodeStatus;
    use crate::token::{spread_tokens, NodeId};

    fn ring_of(n: u32) -> RingTable {
        let mut r = RingTable::new(3);
        for i in 0..n {
            r.add_node(NodeId(i), NodeStatus::Normal, spread_tokens(NodeId(i), 4))
                .unwrap();
        }
        r
    }

    #[test]
    fn views_that_reach_one_state_share_one_table() {
        let mut store = ViewStore::new();
        let mut base = Arc::new(ring_of(6));
        store.share(&mut base);
        let mut views = vec![Arc::clone(&base); 3];
        drop(base);
        // Two views take the same change and merge; the third still
        // holds the starting table.
        for view in &mut views[..2] {
            Arc::make_mut(view)
                .set_status(NodeId(2), NodeStatus::Leaving)
                .unwrap();
            store.share(view);
        }
        assert!(Arc::ptr_eq(&views[0], &views[1]));
        assert!(!Arc::ptr_eq(&views[0], &views[2]));
        assert_eq!(store.live_tables(), 2);
        // The third catches up and joins them; the starting table dies.
        Arc::make_mut(&mut views[2])
            .set_status(NodeId(2), NodeStatus::Leaving)
            .unwrap();
        store.share(&mut views[2]);
        assert!(Arc::ptr_eq(&views[0], &views[2]));
        assert_eq!(store.live_tables(), 1);
    }

    #[test]
    fn a_state_whose_table_died_is_registered_again() {
        let mut store = ViewStore::new();
        let mut first = Arc::new(ring_of(4));
        store.share(&mut first);
        drop(first);
        let mut second = Arc::new(ring_of(4));
        let own = Arc::as_ptr(&second);
        store.share(&mut second);
        assert_eq!(Arc::as_ptr(&second), own, "nothing live to swap in");
        let mut third = Arc::new(ring_of(4));
        store.share(&mut third);
        assert!(Arc::ptr_eq(&second, &third));
    }

    #[test]
    fn dead_handles_are_swept() {
        let mut store = ViewStore::new();
        let mut keep = Vec::new();
        for n in 1..=200 {
            let mut view = Arc::new(ring_of(n));
            store.share(&mut view);
            if n % 10 == 0 {
                keep.push(view);
            }
        }
        assert_eq!(store.live_tables(), keep.len());
        assert!(
            store.tables.len() < 2 * MIN_SWEEP,
            "{} handles kept for {} live tables",
            store.tables.len(),
            keep.len()
        );
    }
}
