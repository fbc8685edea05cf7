//! The namenode: datanode registry, liveness, and the bill of the two
//! historical report-processing implementations.
//!
//! The §4 footnote classifies 53 % of the studied bugs as "unexpected
//! serializations of O(N) operations". The HDFS-shaped instance modelled
//! here: full block reports are processed **under the global namesystem
//! lock**, and the naive implementation rescans the *entire* block map
//! per report. With N datanodes reporting on a timer, the master's
//! handler does N reports × O(total blocks) work per period — quadratic
//! in cluster size on one serialized stage — and heartbeats queued
//! behind reports go stale until live datanodes are declared dead.
//!
//! The master keeps no block map. Every datanode registers with
//! `blocks_per_node` blocks of its own and every report repeats them, so
//! the map never changes and a report's only effect is its cost, which
//! [`Master::report_ops`] bills in closed form (the same "bill, don't
//! run" design as the ring calculators). The literal map and both
//! literal passes live in the root package's `tests/model/hdfs.rs`, the
//! oracle of `proptests::block_report_bill_matches_the_literal_master`.

use std::collections::BTreeMap;

use scalecheck_sim::{SimDuration, SimTime};

/// Identifies a datanode.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DnId(pub u32);

/// A datanode's liveness record at the master.
#[derive(Clone, Debug)]
pub struct DnRecord {
    /// Last heartbeat the master *processed* (not merely received).
    pub last_heartbeat: SimTime,
    /// Whether the master currently considers the datanode dead.
    pub declared_dead: bool,
}

/// Which report-processing implementation the master runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReportVersion {
    /// The buggy implementation: every report walks the entire block
    /// map (O(total blocks)) under the global lock.
    FullRescan,
    /// The fix: diff against the reporter's previous block set
    /// (O(blocks of that node)).
    IncrementalDiff,
}

/// The namenode state.
#[derive(Clone, Debug)]
pub struct Master {
    version: ReportVersion,
    /// Blocks each registered datanode holds (and reports).
    blocks_per_node: usize,
    /// datanode → liveness record.
    registry: BTreeMap<DnId, DnRecord>,
    heartbeat_timeout: SimDuration,
    false_dead: u64,
    recoveries: u64,
}

impl Master {
    /// Creates a master with the given processing version, liveness
    /// timeout and blocks per datanode.
    pub fn new(
        version: ReportVersion,
        heartbeat_timeout: SimDuration,
        blocks_per_node: usize,
    ) -> Self {
        Master {
            version,
            blocks_per_node,
            registry: BTreeMap::new(),
            heartbeat_timeout,
            false_dead: 0,
            recoveries: 0,
        }
    }

    /// Registers a datanode, with its `blocks_per_node` blocks, at time
    /// `now` (models the initial safe-mode report intake: the cluster
    /// under test was already running before the experiment starts).
    pub fn register(&mut self, dn: DnId, now: SimTime) {
        self.registry.insert(
            dn,
            DnRecord {
                last_heartbeat: now,
                declared_dead: false,
            },
        );
    }

    /// Processes a heartbeat (cheap; O(log N)). A dead-declared node
    /// that heartbeats again counts as a recovery — the flap completed.
    pub fn process_heartbeat(&mut self, dn: DnId, now: SimTime) {
        if let Some(rec) = self.registry.get_mut(&dn) {
            rec.last_heartbeat = now;
            if rec.declared_dead {
                rec.declared_dead = false;
                self.recoveries += 1;
            }
        }
    }

    /// The operations a registered datanode's full block report costs
    /// under the global lock: what the literal pass counts when a
    /// datanode re-reports the B blocks it holds, with M blocks tracked.
    /// `FullRescan` counts B for the report, M for the walk over the
    /// map, 2B for the insert pass and M for the sweep of emptied
    /// entries; `IncrementalDiff` counts only B, since nothing is added
    /// or removed. The report leaves the (unkept) block map unchanged.
    pub fn report_ops(&self) -> u64 {
        let b = self.blocks_per_node as u64;
        match self.version {
            ReportVersion::FullRescan => 3 * b + 2 * self.block_count() as u64,
            ReportVersion::IncrementalDiff => b,
        }
    }

    /// Liveness sweep: declares datanodes dead whose last *processed*
    /// heartbeat is older than the timeout. Returns the newly declared.
    pub fn check_liveness(&mut self, now: SimTime) -> Vec<DnId> {
        let mut newly = Vec::new();
        for (&dn, rec) in self.registry.iter_mut() {
            if !rec.declared_dead && now.since(rec.last_heartbeat) > self.heartbeat_timeout {
                rec.declared_dead = true;
                self.false_dead += 1;
                newly.push(dn);
            }
        }
        newly
    }

    /// Total dead declarations (the flap analog; every declared node in
    /// these experiments is actually alive).
    pub fn false_dead(&self) -> u64 {
        self.false_dead
    }

    /// Dead→alive recoveries.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Number of blocks tracked: each registered datanode's own.
    pub fn block_count(&self) -> usize {
        self.registry.len() * self.blocks_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn heartbeats_and_liveness() {
        let mut m = Master::new(
            ReportVersion::IncrementalDiff,
            SimDuration::from_secs(60),
            10,
        );
        m.register(DnId(1), secs(0));
        m.register(DnId(2), secs(0));
        m.process_heartbeat(DnId(1), secs(50));
        // Node 2 silent past the 60s timeout at t=70; node 1 fine.
        let newly = m.check_liveness(secs(70));
        assert_eq!(newly, vec![DnId(2)]);
        assert_eq!(m.false_dead(), 1);
        // No double declaration.
        assert!(m.check_liveness(secs(80)).is_empty());
        // Recovery on the next processed heartbeat.
        m.process_heartbeat(DnId(2), secs(90));
        assert_eq!(m.recoveries(), 1);
    }
}
