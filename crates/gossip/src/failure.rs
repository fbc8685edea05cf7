//! Per-node failure detection and flap accounting.
//!
//! A **flap** (§2) is one node marking a live peer as down (and usually
//! soon marking it up again). [`FailureDetector`] owns the φ arrival
//! statistics for every peer plus the node's local up/down verdicts, and
//! counts alive→dead transitions — the y-axis of every panel in
//! Figure 3.

use scalecheck_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::phi::{ArrivalWindow, PhiParams};
use crate::state::Peer;

/// A peer's liveness verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Liveness {
    /// Considered up.
    Alive,
    /// Convicted as down.
    Dead,
}

/// `flags` bit: the peer has reported at least once and was not
/// forgotten since.
const MONITORED: u8 = 1;
/// `flags` bit: the peer is convicted (only ever set with `MONITORED`).
const DEAD: u8 = 2;
/// `flags` bit: the peer is under an injected fault. Independent of
/// `MONITORED` — a crash marks its victim at every observer, heard-from
/// or not.
const SUSPECT: u8 = 4;

/// `last_arrival_ns` of a slot that is not monitored. Any sweep time
/// minus this saturates to zero silence, so the pre-filter passes over
/// empty slots without a second load.
const NEVER: u64 = u64::MAX;

/// One node's failure-detection state over all its peers.
///
/// # Layout
///
/// Peer ids are dense node indexes (see [`Peer`]), so per-peer state
/// lives in parallel columns indexed by `Peer.0` rather than in a map:
/// `report`, `liveness`, `forget` and `phi` are array indexing, and the
/// once-per-interval [`Self::interpret_all`] sweep is a linear pass
/// over the contiguous `last_arrival_ns` column. The columns grow
/// geometrically to the highest id seen, so a detector costs
/// O(highest id) slots (~57 bytes each) plus 8 bytes per heartbeat
/// sample actually held — the same contract `scalecheck_net`'s tiled
/// link clocks state for `Addr`. The detector constants are held once
/// here, not once per peer.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    threshold: f64,
    params: PhiParams,
    /// [`PhiParams::safe_silence_ns`] of `threshold`: the sweep skips a
    /// peer heard from more recently than this without evaluating φ.
    safe_silence_ns: u64,
    /// Column: when each peer's last heartbeat arrived ([`NEVER`] for
    /// unmonitored slots).
    last_arrival_ns: Vec<u64>,
    /// Column: `MONITORED | DEAD | SUSPECT` bits.
    flags: Vec<u8>,
    /// Column: inter-arrival windows.
    windows: Vec<ArrivalWindow>,
    monitored: usize,
    flaps: u64,
    recoveries: u64,
    fault_attributed: u64,
}

impl FailureDetector {
    /// Creates a detector with the given conviction threshold (Cassandra
    /// default: 8.0) and expected heartbeat interval.
    pub fn new(threshold: f64, gossip_interval: SimDuration) -> Self {
        let params = PhiParams::cassandra(gossip_interval);
        FailureDetector {
            threshold,
            params,
            safe_silence_ns: params.safe_silence_ns(threshold),
            last_arrival_ns: Vec::new(),
            flags: Vec::new(),
            windows: Vec::new(),
            monitored: 0,
            flaps: 0,
            recoveries: 0,
            fault_attributed: 0,
        }
    }

    /// Extends every column to cover `idx` (amortised: `Vec` doubles
    /// its capacity).
    fn ensure_slot(&mut self, idx: usize) {
        if idx >= self.flags.len() {
            self.last_arrival_ns.resize(idx + 1, NEVER);
            self.flags.resize(idx + 1, 0);
            self.windows.resize_with(idx + 1, ArrivalWindow::default);
        }
    }

    /// The slot of `peer` if it is monitored.
    fn monitored_slot(&self, peer: Peer) -> Option<usize> {
        let idx = peer.0 as usize;
        (self.flags.get(idx)? & MONITORED != 0).then_some(idx)
    }

    /// Registers a heartbeat observation for `peer` at `now`. If the peer
    /// was convicted, it is marked alive again (a recovery).
    ///
    /// A late (out-of-order) beat — `now` at or before the recorded
    /// last arrival — contributes no sample and does not move the last
    /// arrival, but still revives a convicted peer.
    pub fn report(&mut self, peer: Peer, now: SimTime) {
        let idx = peer.0 as usize;
        self.ensure_slot(idx);
        let now_ns = now.as_nanos();
        if self.flags[idx] & MONITORED == 0 {
            self.flags[idx] |= MONITORED;
            self.monitored += 1;
            self.last_arrival_ns[idx] = now_ns;
            return;
        }
        let last_ns = self.last_arrival_ns[idx];
        if now_ns > last_ns {
            self.windows[idx].record(now_ns - last_ns, &self.params);
            self.last_arrival_ns[idx] = now_ns;
        }
        if self.flags[idx] & DEAD != 0 {
            self.flags[idx] &= !DEAD;
            self.recoveries += 1;
        }
    }

    /// Evaluates every monitored peer at `now`; newly convicted peers are
    /// returned in ascending peer order and each conviction counts as
    /// one flap.
    ///
    /// Peers heard from within `safe_silence_ns` cannot be over the
    /// threshold (`PhiParams::safe_silence_ns` has the argument) and are
    /// passed over on an integer compare; everyone else gets the float
    /// expression.
    pub fn interpret_all(&mut self, now: SimTime) -> Vec<Peer> {
        let now_ns = now.as_nanos();
        let mut newly_dead = Vec::new();
        for (idx, &last_ns) in self.last_arrival_ns.iter().enumerate() {
            let silence_ns = now_ns.saturating_sub(last_ns);
            if silence_ns < self.safe_silence_ns {
                continue;
            }
            let flags = self.flags[idx];
            if flags & (MONITORED | DEAD) != MONITORED {
                continue;
            }
            let silence = SimDuration::from_nanos(silence_ns);
            if self.params.phi(&self.windows[idx], silence) > self.threshold {
                self.flags[idx] |= DEAD;
                self.flaps += 1;
                if flags & SUSPECT != 0 {
                    self.fault_attributed += 1;
                }
                newly_dead.push(Peer(idx as u32));
            }
        }
        newly_dead
    }

    /// Current verdict for `peer` (peers never reported are unknown).
    pub fn liveness(&self, peer: Peer) -> Option<Liveness> {
        self.monitored_slot(peer).map(|idx| {
            if self.flags[idx] & DEAD != 0 {
                Liveness::Dead
            } else {
                Liveness::Alive
            }
        })
    }

    /// Peers currently considered dead, in ascending order.
    pub fn dead_peers(&self) -> Vec<Peer> {
        (0..self.flags.len())
            .filter(|&idx| self.flags[idx] & DEAD != 0)
            .map(|idx| Peer(idx as u32))
            .collect()
    }

    /// Total alive→dead transitions this node has declared.
    pub fn flaps(&self) -> u64 {
        self.flaps
    }

    /// Total dead→alive transitions (recoveries).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Marks or clears `peer` as under an injected fault (crashed,
    /// partitioned away, or clock-stepped). While marked, convictions of
    /// `peer` are counted as fault-attributed flaps. The mark does not
    /// need the peer to be monitored yet, and outlives [`Self::forget`].
    pub fn set_fault_suspect(&mut self, peer: Peer, suspected: bool) {
        let idx = peer.0 as usize;
        if suspected {
            self.ensure_slot(idx);
            self.flags[idx] |= SUSPECT;
        } else if let Some(flags) = self.flags.get_mut(idx) {
            *flags &= !SUSPECT;
        }
    }

    /// Marks every currently monitored peer as under an injected fault
    /// (e.g. the local clock stepped: any conviction we issue is the
    /// fault's doing).
    pub fn mark_all_fault_suspects(&mut self) {
        for flags in &mut self.flags {
            if *flags & MONITORED != 0 {
                *flags |= SUSPECT;
            }
        }
    }

    /// Flaps whose convicted peer was a fault suspect at conviction
    /// time.
    pub fn fault_attributed_flaps(&self) -> u64 {
        self.fault_attributed
    }

    /// Drops all per-peer monitoring state — a restarted process starts
    /// with no inter-arrival history — while keeping the lifetime flap,
    /// recovery, and attribution counters.
    pub fn reset_monitoring(&mut self) {
        self.last_arrival_ns.clear();
        self.flags.clear();
        self.windows.clear();
        self.monitored = 0;
    }

    /// The φ suspicion for `peer`, if monitored.
    pub fn phi(&self, peer: Peer, now: SimTime) -> Option<f64> {
        self.monitored_slot(peer).map(|idx| {
            let last = SimTime::from_nanos(self.last_arrival_ns[idx]);
            self.params.phi(&self.windows[idx], now.since(last))
        })
    }

    /// Stops monitoring `peer` (it departed cleanly; silence is expected
    /// and must not count as a flap). Its window's memory is released.
    pub fn forget(&mut self, peer: Peer) {
        if let Some(idx) = self.monitored_slot(peer) {
            self.flags[idx] &= SUSPECT;
            self.last_arrival_ns[idx] = NEVER;
            self.windows[idx] = ArrivalWindow::default();
            self.monitored -= 1;
        }
    }

    /// Number of monitored peers.
    pub fn monitored(&self) -> usize {
        self.monitored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd() -> FailureDetector {
        FailureDetector::new(8.0, SimDuration::from_secs(1))
    }

    fn secs(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    fn feed(fd: &mut FailureDetector, peer: Peer, from: u64, to: u64) {
        for s in from..to {
            fd.report(peer, secs(s));
            fd.interpret_all(secs(s));
        }
    }

    #[test]
    fn steady_heartbeats_no_flaps() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 60);
        assert_eq!(f.flaps(), 0);
        assert_eq!(f.liveness(Peer(1)), Some(Liveness::Alive));
    }

    #[test]
    fn long_silence_convicts_once() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        // 30s of silence: well past the ~18.4s conviction point.
        let newly = f.interpret_all(secs(50));
        assert_eq!(newly, vec![Peer(1)]);
        assert_eq!(f.flaps(), 1);
        // Repeated interpretation does not double-count.
        assert!(f.interpret_all(secs(60)).is_empty());
        assert_eq!(f.flaps(), 1);
        assert_eq!(f.dead_peers(), vec![Peer(1)]);
    }

    #[test]
    fn recovery_then_reconviction_counts_two_flaps() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        f.interpret_all(secs(50));
        assert_eq!(f.flaps(), 1);
        // Peer comes back.
        f.report(Peer(1), secs(50));
        assert_eq!(f.recoveries(), 1);
        assert_eq!(f.liveness(Peer(1)), Some(Liveness::Alive));
        // Goes silent again. The detector's window now contains the huge
        // 30s gap, so the mean is inflated; feed fresh beats to re-tighten.
        feed(&mut f, Peer(1), 51, 70);
        let newly = f.interpret_all(secs(120));
        assert_eq!(newly, vec![Peer(1)]);
        assert_eq!(f.flaps(), 2);
    }

    #[test]
    fn multiple_peers_tracked_independently() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 40);
        feed(&mut f, Peer(2), 0, 20);
        // Peer 2 silent from t=20; peer 1 healthy through t=40.
        f.report(Peer(1), secs(45));
        let newly = f.interpret_all(secs(45));
        assert_eq!(newly, vec![Peer(2)]);
        assert_eq!(f.liveness(Peer(1)), Some(Liveness::Alive));
        assert_eq!(f.monitored(), 2);
    }

    #[test]
    fn forget_prevents_false_flap_on_decommission() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        f.forget(Peer(1));
        let newly = f.interpret_all(secs(100));
        assert!(newly.is_empty());
        assert_eq!(f.flaps(), 0);
        assert_eq!(f.liveness(Peer(1)), None);
    }

    #[test]
    fn fault_suspects_attribute_their_flaps() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        feed(&mut f, Peer(2), 0, 20);
        f.set_fault_suspect(Peer(1), true);
        // Both go silent; only peer 1's conviction is fault-attributed.
        f.interpret_all(secs(50));
        assert_eq!(f.flaps(), 2);
        assert_eq!(f.fault_attributed_flaps(), 1);
        // Clearing the suspicion stops attribution for later flaps.
        f.report(Peer(1), secs(50));
        f.set_fault_suspect(Peer(1), false);
        feed(&mut f, Peer(1), 51, 70);
        f.interpret_all(secs(120));
        assert_eq!(f.flaps(), 3);
        assert_eq!(f.fault_attributed_flaps(), 1);
    }

    #[test]
    fn mark_all_covers_every_monitored_peer() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        feed(&mut f, Peer(2), 0, 20);
        f.mark_all_fault_suspects();
        f.interpret_all(secs(50));
        assert_eq!(f.fault_attributed_flaps(), 2);
    }

    #[test]
    fn reset_monitoring_keeps_counters_but_drops_history() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        f.interpret_all(secs(50));
        assert_eq!(f.flaps(), 1);
        f.reset_monitoring();
        assert_eq!(f.monitored(), 0);
        assert_eq!(f.flaps(), 1, "lifetime counters survive a restart");
        assert!(f.liveness(Peer(1)).is_none());
        // No spurious conviction from pre-restart history.
        assert!(f.interpret_all(secs(200)).is_empty());
    }

    #[test]
    fn sparse_id_costs_slots_not_a_panic() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        feed(&mut f, Peer(5000), 0, 20);
        feed(&mut f, Peer(0), 0, 20);
        assert_eq!(f.monitored(), 3);
        // Only the three real peers are swept, in ascending order.
        assert_eq!(
            f.interpret_all(secs(60)),
            vec![Peer(0), Peer(1), Peer(5000)]
        );
        assert_eq!(f.dead_peers(), vec![Peer(0), Peer(1), Peer(5000)]);
        assert_eq!(f.liveness(Peer(4999)), None, "a hole is not a peer");
    }

    #[test]
    fn unknown_and_out_of_range_ids_are_inert() {
        let mut f = fd();
        feed(&mut f, Peer(2), 0, 20);
        // Never seen, inside the table and far past it.
        for ghost in [Peer(0), Peer(3), Peer(5000), Peer(u32::MAX)] {
            assert_eq!(f.liveness(ghost), None);
            assert!(f.phi(ghost, secs(30)).is_none());
            f.forget(ghost);
            f.set_fault_suspect(ghost, false);
        }
        assert_eq!(f.monitored(), 1);
        assert_eq!(f.liveness(Peer(2)), Some(Liveness::Alive));
        // Suspecting a peer before it is ever heard from sticks (a
        // crash marks its victim at every observer), without making it
        // monitored.
        f.set_fault_suspect(Peer(40), true);
        assert_eq!(f.monitored(), 1);
        assert_eq!(f.liveness(Peer(40)), None);
        assert!(f.interpret_all(secs(21)).is_empty());
        feed(&mut f, Peer(40), 21, 40); // Peer(2) is convicted meanwhile.
        assert_eq!(f.interpret_all(secs(90)), vec![Peer(40)]);
        assert_eq!((f.flaps(), f.fault_attributed_flaps()), (2, 1));
    }

    #[test]
    fn forget_keeps_the_suspicion_and_frees_the_history() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        f.set_fault_suspect(Peer(1), true);
        f.forget(Peer(1));
        assert_eq!(f.monitored(), 0);
        // Re-appearing peer: fresh history (initial mean, no samples),
        // still a suspect.
        f.report(Peer(1), secs(100));
        let fresh = {
            let mut g = fd();
            g.report(Peer(1), secs(100));
            g.phi(Peer(1), secs(105)).unwrap()
        };
        assert_eq!(
            f.phi(Peer(1), secs(105)).unwrap().to_bits(),
            fresh.to_bits()
        );
        f.interpret_all(secs(200));
        assert_eq!(f.fault_attributed_flaps(), 1);
    }

    #[test]
    fn late_beat_revives_without_touching_history() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        f.interpret_all(secs(50));
        let before = f.phi(Peer(1), secs(60)).unwrap();
        f.report(Peer(1), secs(5)); // Stale arrival.
        assert_eq!(f.recoveries(), 1);
        assert_eq!(f.liveness(Peer(1)), Some(Liveness::Alive));
        assert_eq!(
            f.phi(Peer(1), secs(60)).unwrap().to_bits(),
            before.to_bits()
        );
    }

    #[test]
    fn prefilter_is_off_when_it_cannot_be_proven() {
        // Non-positive thresholds convict at zero silence; a zero mean
        // floor (1 ns interval / 2) bounds nothing. Nobody is skipped.
        for (threshold, interval_ns) in [(0.0, 1_000_000_000), (-1.0, 1_000_000_000), (8.0, 1)] {
            let f = FailureDetector::new(threshold, SimDuration::from_nanos(interval_ns));
            assert_eq!(f.safe_silence_ns, 0, "{threshold} {interval_ns}");
        }
        // The stock detector skips just under threshold*floor*ln10 =
        // 8 * 0.5 s * 2.302… ≈ 9.21 s.
        let f = fd();
        assert!((9_210_000_000..9_210_400_000).contains(&f.safe_silence_ns));
        let mut f = FailureDetector::new(-1.0, SimDuration::from_secs(1));
        f.report(Peer(0), secs(3));
        assert_eq!(f.interpret_all(secs(3)), vec![Peer(0)], "phi 0 > -1");
    }

    #[test]
    fn phi_exposed_per_peer() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 10);
        assert!(f.phi(Peer(1), secs(12)).unwrap() > 0.0);
        assert!(f.phi(Peer(9), secs(12)).is_none());
    }
}
