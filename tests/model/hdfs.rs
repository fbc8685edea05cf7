//! The namenode's block map and the two report-processing passes as
//! `scalecheck-hdfslike` ran them before it billed their ops instead: a
//! `BTreeMap` of block → holders, the full rescan that walks all of it
//! per report, and the incremental diff against the reporter's previous
//! set, each counting what it executes. The oracle of
//! `proptests::block_report_bill_matches_the_literal_master`: the
//! crate's `Master::report_ops` must equal the count a literal report
//! adds, and its `block_count` the map's size.

use std::collections::{BTreeMap, BTreeSet};

use scalecheck_hdfslike::{DnId, ReportVersion};

/// Identifies a block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u64);

/// Deterministically generates the blocks datanode `dn` holds: the
/// splitmix64 finalizer of `(dn << 32) ^ i`, a bijection, so no two
/// datanodes share a block.
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

/// Counts the basic operations report processing executes.
#[derive(Clone, Copy, Debug, Default)]
pub struct MasterOps {
    ops: u64,
}

impl MasterOps {
    pub fn new() -> Self {
        MasterOps::default()
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        self.ops += n;
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// The namenode's block-map half.
#[derive(Clone, Debug)]
pub struct LiteralMaster {
    version: ReportVersion,
    /// block → holders.
    block_map: BTreeMap<BlockId, BTreeSet<DnId>>,
    /// datanode → its last reported block set.
    reported: BTreeMap<DnId, BTreeSet<BlockId>>,
}

impl LiteralMaster {
    pub fn new(version: ReportVersion) -> Self {
        LiteralMaster {
            version,
            block_map: BTreeMap::new(),
            reported: BTreeMap::new(),
        }
    }

    /// Preloads a datanode's blocks into the map without counting cost
    /// (the initial safe-mode report intake).
    pub fn preload(&mut self, dn: DnId, blocks: &[BlockId]) {
        let set: BTreeSet<BlockId> = blocks.iter().copied().collect();
        for &b in &set {
            self.block_map.entry(b).or_default().insert(dn);
        }
        self.reported.insert(dn, set);
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

    /// Number of blocks tracked.
    pub fn block_count(&self) -> usize {
        self.block_map.len()
    }

    /// Holders of a block.
    pub fn holders(&self, block: BlockId) -> Option<&BTreeSet<DnId>> {
        self.block_map.get(&block)
    }
}

#[test]
fn versions_produce_identical_block_maps() {
    let mut a = LiteralMaster::new(ReportVersion::FullRescan);
    let mut b = LiteralMaster::new(ReportVersion::IncrementalDiff);
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
        let mut m = LiteralMaster::new(v);
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
fn blocks_of_is_stable_and_disjoint() {
    assert_eq!(blocks_of(DnId(1), 10), blocks_of(DnId(1), 10));
    let a: BTreeSet<BlockId> = blocks_of(DnId(1), 1000).into_iter().collect();
    let b: BTreeSet<BlockId> = blocks_of(DnId(2), 1000).into_iter().collect();
    assert_eq!(a.len(), 1000);
    assert!(a.intersection(&b).next().is_none(), "block collision");
}
