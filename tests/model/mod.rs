//! Tree-map reference models of the gossip view and the failure
//! detector: the layouts the crate used before it moved to
//! index-addressed tables, kept here (and only here) as oracles for the
//! differential proptests. The gossip model (in [`gossip`]) is also
//! the exchange as it was before its bodies became 32-bit records:
//! `u64` clocks and `Vec` bodies of `(Peer, delta)` pairs. They are
//! written for obviousness, one ordered-map probe per peer, and make no
//! assumption about peer ids being dense. Beside them, the modulo replica walk `RingTable` used
//! before it split its token map at the key, and (in [`pending`]) the
//! four pending-range calculators as literal loops — V1's full-ring walk
//! per (range, node), the linear scans, a set per range and an output
//! per prefix — before the crate billed those ops instead of running
//! them; a calculation's memo digest hashed from scratch; and (in
//! [`ring`]) the ring table as a `BTreeMap` of entries that each own
//! their tokens, before it addressed its nodes by id. And (in
//! [`chrome`]) the Chrome trace exporter as it was before it sorted
//! compact keys instead of whole rows. And (in [`hdfs`]) hdfslike's
//! namenode block map with its full-rescan and incremental-diff report
//! passes, before the master billed a report's ops instead of running
//! it. And (in [`views`]) a cluster's ring views as private tables,
//! before views that agree shared one copy-on-write table.

use std::collections::{BTreeMap, BTreeSet};

use scalecheck_gossip::{Liveness, Peer, PhiDetector};
use scalecheck_memo::{digest_bytes, Digest128};
use scalecheck_ring::{write_changes_canonical, NodeId, RingTable, Token, TopologyChange};
use scalecheck_sim::{SimDuration, SimTime};

pub mod chrome;
pub mod gossip;
pub mod hdfs;
pub mod pending;
pub mod ring;
pub mod views;

/// `RingTable::replicas_of` as an index walk: start at the first token
/// at or after `key` (modulo the map's length, so a key past the last
/// token starts at the head) and step round the ring, collecting up to
/// `rf` distinct nodes.
pub fn modulo_replicas(map: &[(Token, NodeId)], rf: usize, key: Token) -> Vec<NodeId> {
    let mut out = Vec::new();
    if map.is_empty() {
        return out;
    }
    let start = map.partition_point(|&(t, _)| t < key) % map.len();
    for step in 0..map.len() {
        let (_, node) = map[(start + step) % map.len()];
        if !out.contains(&node) {
            out.push(node);
            if out.len() == rf {
                break;
            }
        }
    }
    out
}

/// A calculation's memo digest as `CalcEngine::digest` computed it
/// before it resumed the ring's cached hash state: one FNV-1a-128 pass
/// over the ring's canonical bytes followed by the change list's, both
/// encoded from scratch.
pub fn calc_digest_from_scratch(ring: &RingTable, changes: &[TopologyChange]) -> Digest128 {
    let mut bytes = Vec::new();
    ring.write_canonical(&mut bytes);
    write_changes_canonical(changes, &mut bytes);
    digest_bytes(&bytes)
}

/// `scalecheck_gossip::FailureDetector` as one `PhiDetector` per peer
/// in a `BTreeMap`, suspects in a `BTreeSet`, and the sweep as the
/// naive `phi(now) > threshold` over every monitor.
pub struct TreeFailureDetector {
    threshold: f64,
    gossip_interval: SimDuration,
    monitors: BTreeMap<Peer, (PhiDetector, Liveness)>,
    suspects: BTreeSet<Peer>,
    pub flaps: u64,
    pub recoveries: u64,
    pub fault_attributed: u64,
}

impl TreeFailureDetector {
    pub fn new(threshold: f64, gossip_interval: SimDuration) -> Self {
        TreeFailureDetector {
            threshold,
            gossip_interval,
            monitors: BTreeMap::new(),
            suspects: BTreeSet::new(),
            flaps: 0,
            recoveries: 0,
            fault_attributed: 0,
        }
    }

    pub fn report(&mut self, peer: Peer, now: SimTime) {
        let interval = self.gossip_interval;
        let (det, verdict) = self
            .monitors
            .entry(peer)
            .or_insert_with(|| (PhiDetector::cassandra(interval), Liveness::Alive));
        det.heartbeat(now);
        if *verdict == Liveness::Dead {
            *verdict = Liveness::Alive;
            self.recoveries += 1;
        }
    }

    pub fn interpret_all(&mut self, now: SimTime) -> Vec<Peer> {
        let mut newly_dead = Vec::new();
        for (&peer, (det, verdict)) in self.monitors.iter_mut() {
            if *verdict == Liveness::Alive && det.phi(now) > self.threshold {
                *verdict = Liveness::Dead;
                self.flaps += 1;
                if self.suspects.contains(&peer) {
                    self.fault_attributed += 1;
                }
                newly_dead.push(peer);
            }
        }
        newly_dead
    }

    pub fn liveness(&self, peer: Peer) -> Option<Liveness> {
        self.monitors.get(&peer).map(|m| m.1)
    }

    pub fn dead_peers(&self) -> Vec<Peer> {
        self.monitors
            .iter()
            .filter(|(_, m)| m.1 == Liveness::Dead)
            .map(|(&p, _)| p)
            .collect()
    }

    pub fn set_fault_suspect(&mut self, peer: Peer, suspected: bool) {
        if suspected {
            self.suspects.insert(peer);
        } else {
            self.suspects.remove(&peer);
        }
    }

    pub fn mark_all_fault_suspects(&mut self) {
        self.suspects.extend(self.monitors.keys().copied());
    }

    pub fn reset_monitoring(&mut self) {
        self.monitors.clear();
        self.suspects.clear();
    }

    pub fn phi(&self, peer: Peer, now: SimTime) -> Option<f64> {
        self.monitors.get(&peer).map(|m| m.0.phi(now))
    }

    pub fn forget(&mut self, peer: Peer) {
        self.monitors.remove(&peer);
    }

    pub fn monitored(&self) -> usize {
        self.monitors.len()
    }

    /// Inter-arrival samples held for `peer`, if monitored.
    pub fn samples(&self, peer: Peer) -> Option<usize> {
        self.monitors.get(&peer).map(|m| m.0.samples())
    }

    /// Whether a report of `peer` at `at` takes a sample into a full
    /// window, evicting its oldest: the window holds 1000 samples and
    /// `at` is a new arrival at most `max_interval` (two gossip
    /// intervals) after the last.
    pub fn would_evict(&self, peer: Peer, at: SimTime) -> bool {
        let max_interval_ns = 2 * self.gossip_interval.as_nanos();
        self.monitors.get(&peer).is_some_and(|(det, _)| {
            det.samples() == 1000
                && det
                    .last_arrival()
                    .is_some_and(|last| at > last && at.since(last).as_nanos() <= max_interval_ns)
        })
    }
}
