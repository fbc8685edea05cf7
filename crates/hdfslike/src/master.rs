//! The namenode: block map, datanode registry, and the two historical
//! report-processing implementations.
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
//! Both implementations produce identical block-map state; only their
//! counted cost differs (the same semantic-preserving-fix structure as
//! the ring calculators).

use std::collections::{BTreeMap, BTreeSet};

use scalecheck_sim::{SimDuration, SimTime};

/// Identifies a datanode.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DnId(pub u32);

/// Identifies a block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u64);

/// Deterministically generates the blocks datanode `dn` holds.
pub fn blocks_of(dn: DnId, blocks_per_node: usize) -> Vec<BlockId> {
    (0..blocks_per_node)
        .map(|i| {
            let mut z = ((dn.0 as u64) << 32) ^ (i as u64) ^ 0xD1B5_4A32_D192_ED03;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            BlockId(z ^ (z >> 31))
        })
        .collect()
}

/// A datanode's liveness record at the master.
#[derive(Clone, Debug)]
pub struct DnRecord {
    /// Last heartbeat the master *processed* (not merely received).
    pub last_heartbeat: SimTime,
    /// Whether the master currently considers the datanode dead.
    pub declared_dead: bool,
}

/// Counts the basic operations report processing executes.
#[derive(Clone, Copy, Debug, Default)]
pub struct MasterOps {
    ops: u64,
}

impl MasterOps {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        MasterOps::default()
    }

    /// Adds operations.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.ops += n;
    }

    /// Total counted operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }
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
    /// block → holders.
    block_map: BTreeMap<BlockId, BTreeSet<DnId>>,
    /// datanode → its last reported block set.
    reported: BTreeMap<DnId, BTreeSet<BlockId>>,
    /// datanode → liveness record.
    registry: BTreeMap<DnId, DnRecord>,
    heartbeat_timeout: SimDuration,
    false_dead: u64,
    recoveries: u64,
}

impl Master {
    /// Creates a master with the given processing version and liveness
    /// timeout.
    pub fn new(version: ReportVersion, heartbeat_timeout: SimDuration) -> Self {
        Master {
            version,
            block_map: BTreeMap::new(),
            reported: BTreeMap::new(),
            registry: BTreeMap::new(),
            heartbeat_timeout,
            false_dead: 0,
            recoveries: 0,
        }
    }

    /// Registers a datanode at time `now`.
    pub fn register(&mut self, dn: DnId, now: SimTime) {
        self.registry.insert(
            dn,
            DnRecord {
                last_heartbeat: now,
                declared_dead: false,
            },
        );
    }

    /// Preloads a datanode's blocks into the map without counting cost
    /// (models the initial safe-mode report intake: the cluster under
    /// test was already running before the experiment starts).
    pub fn preload(&mut self, dn: DnId, blocks: &[BlockId]) {
        let set: std::collections::BTreeSet<BlockId> = blocks.iter().copied().collect();
        for &b in &set {
            self.block_map.entry(b).or_default().insert(dn);
        }
        self.reported.insert(dn, set);
    }

    /// Processes a heartbeat (cheap; O(log N)). A dead-declared node
    /// that heartbeats again counts as a recovery — the flap completed.
    pub fn process_heartbeat(&mut self, dn: DnId, now: SimTime, counter: &mut MasterOps) {
        counter.add(4);
        if let Some(rec) = self.registry.get_mut(&dn) {
            rec.last_heartbeat = now;
            if rec.declared_dead {
                rec.declared_dead = false;
                self.recoveries += 1;
            }
        }
    }

    /// Processes a full block report under the global lock, counting
    /// the executed operations. Both versions leave identical state.
    pub fn process_block_report(&mut self, dn: DnId, blocks: &[BlockId], counter: &mut MasterOps) {
        let new_set: BTreeSet<BlockId> = blocks.iter().copied().collect();
        counter.add(blocks.len() as u64);
        match self.version {
            ReportVersion::FullRescan => {
                // The bug: walk the ENTIRE block map to reconcile one
                // node's report (and once more to find stale entries).
                for (block, holders) in self.block_map.iter_mut() {
                    counter.add(1);
                    if new_set.contains(block) {
                        holders.insert(dn);
                    } else {
                        holders.remove(&dn);
                    }
                }
                for &block in &new_set {
                    counter.add(2);
                    self.block_map.entry(block).or_default().insert(dn);
                }
                self.block_map.retain(|_, holders| {
                    counter.add(1);
                    !holders.is_empty()
                });
            }
            ReportVersion::IncrementalDiff => {
                // The fix: diff against the previous report only.
                let old = self.reported.get(&dn).cloned().unwrap_or_default();
                for &gone in old.difference(&new_set) {
                    counter.add(2);
                    if let Some(holders) = self.block_map.get_mut(&gone) {
                        holders.remove(&dn);
                        if holders.is_empty() {
                            self.block_map.remove(&gone);
                        }
                    }
                }
                for &added in new_set.difference(&old) {
                    counter.add(2);
                    self.block_map.entry(added).or_default().insert(dn);
                }
            }
        }
        self.reported.insert(dn, new_set);
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

    /// Number of blocks tracked.
    pub fn block_count(&self) -> usize {
        self.block_map.len()
    }

    /// Holders of a block.
    #[cfg(test)]
    fn holders(&self, block: BlockId) -> Option<&BTreeSet<DnId>> {
        self.block_map.get(&block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    fn master(v: ReportVersion) -> Master {
        Master::new(v, SimDuration::from_secs(60))
    }

    #[test]
    fn versions_produce_identical_block_maps() {
        let mut a = master(ReportVersion::FullRescan);
        let mut b = master(ReportVersion::IncrementalDiff);
        let mut ca = MasterOps::new();
        let mut cb = MasterOps::new();
        for dn in 0..8u32 {
            let blocks = blocks_of(DnId(dn), 50);
            a.process_block_report(DnId(dn), &blocks, &mut ca);
            b.process_block_report(DnId(dn), &blocks, &mut cb);
        }
        // Re-report with a shrunk set (blocks removed).
        let shrunk = blocks_of(DnId(3), 25);
        a.process_block_report(DnId(3), &shrunk, &mut ca);
        b.process_block_report(DnId(3), &shrunk, &mut cb);
        assert_eq!(a.block_count(), b.block_count());
        for &blk in &blocks_of(DnId(3), 50) {
            assert_eq!(a.holders(blk), b.holders(blk), "{blk:?}");
        }
    }

    #[test]
    fn full_rescan_costs_scale_with_cluster() {
        // The serialized-O(N) class: per-report cost grows with TOTAL
        // blocks under FullRescan but stays per-node under the fix.
        let cost = |v: ReportVersion, n: u32| {
            let mut m = master(v);
            let mut c0 = MasterOps::new();
            for dn in 0..n {
                m.process_block_report(DnId(dn), &blocks_of(DnId(dn), 100), &mut c0);
            }
            // Cost of ONE more report from node 0 (already known).
            let mut c = MasterOps::new();
            m.process_block_report(DnId(0), &blocks_of(DnId(0), 100), &mut c);
            c.ops()
        };
        let naive_small = cost(ReportVersion::FullRescan, 8);
        let naive_big = cost(ReportVersion::FullRescan, 64);
        let fixed_small = cost(ReportVersion::IncrementalDiff, 8);
        let fixed_big = cost(ReportVersion::IncrementalDiff, 64);
        assert!(
            (naive_big as f64 / naive_small as f64) > 4.0,
            "naive must scale with cluster: {naive_small} -> {naive_big}"
        );
        assert!(
            (fixed_big as f64 / fixed_small as f64) < 2.0,
            "fix must not: {fixed_small} -> {fixed_big}"
        );
    }

    #[test]
    fn heartbeats_and_liveness() {
        let mut m = master(ReportVersion::IncrementalDiff);
        let mut c = MasterOps::new();
        m.register(DnId(1), secs(0));
        m.register(DnId(2), secs(0));
        m.process_heartbeat(DnId(1), secs(50), &mut c);
        // Node 2 silent past the 60s timeout at t=70; node 1 fine.
        let newly = m.check_liveness(secs(70));
        assert_eq!(newly, vec![DnId(2)]);
        assert_eq!(m.false_dead(), 1);
        // No double declaration.
        assert!(m.check_liveness(secs(80)).is_empty());
        // Recovery on the next processed heartbeat.
        m.process_heartbeat(DnId(2), secs(90), &mut c);
        assert_eq!(m.recoveries(), 1);
    }

    #[test]
    fn blocks_of_is_stable_and_disjoint() {
        assert_eq!(blocks_of(DnId(1), 10), blocks_of(DnId(1), 10));
        let a: BTreeSet<BlockId> = blocks_of(DnId(1), 1000).into_iter().collect();
        let b: BTreeSet<BlockId> = blocks_of(DnId(2), 1000).into_iter().collect();
        assert_eq!(a.len(), 1000);
        assert!(a.intersection(&b).next().is_none(), "block collision");
    }
}
