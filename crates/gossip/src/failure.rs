//! Per-node failure detection and flap accounting.
//!
//! A **flap** (§2) is one node marking a live peer as down (and usually
//! soon marking it up again). [`FailureDetector`] owns the φ arrival
//! statistics for every peer plus the node's local up/down verdicts, and
//! counts alive→dead transitions — the y-axis of every panel in
//! Figure 3.

use std::collections::VecDeque;

use scalecheck_sim::{SimDuration, SimTime};

use crate::phi::PhiParams;
use crate::state::Peer;

/// A peer's liveness verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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

/// The arrival epochs a [`FailureDetector`]'s sample windows reach back
/// to, oldest first. An *arrival* is a report that moved a peer's last
/// arrival; an *epoch* is one report time at which at least one peer
/// arrived. Epochs are numbered from the detector's start (or last
/// [`FailureDetector::reset_monitoring`]), and the numbers run on when
/// old epochs are trimmed.
#[derive(Clone, Debug, Default)]
struct EpochLog {
    /// Number of the oldest held epoch, `at_ns[0]`.
    first: u32,
    /// Report time of each held epoch, in nanoseconds.
    at_ns: VecDeque<u64>,
    /// `stride` words per held epoch: bit `idx` of an epoch's words is
    /// set if peer `idx` arrived then.
    arrived: VecDeque<u64>,
    /// Words per epoch, enough for every column slot.
    stride: usize,
}

impl EpochLog {
    /// Re-strides every held epoch's bitset to cover `slots` peers,
    /// keeping its bits.
    fn widen(&mut self, slots: usize) {
        let stride = slots.div_ceil(64);
        if stride <= self.stride {
            return;
        }
        let old = std::mem::replace(
            &mut self.arrived,
            VecDeque::with_capacity(self.at_ns.len() * stride),
        );
        for held in 0..self.at_ns.len() {
            self.arrived
                .extend(old.range(held * self.stride..(held + 1) * self.stride));
            self.arrived
                .extend(std::iter::repeat_n(0, stride - self.stride));
        }
        self.stride = stride;
    }

    /// Number of the newest epoch if it is at `now_ns`, else of a new
    /// one opened at `now_ns` with no arrival yet.
    fn open(&mut self, now_ns: u64) -> u32 {
        if self.at_ns.back() != Some(&now_ns) {
            self.at_ns.push_back(now_ns);
            self.arrived.resize(self.arrived.len() + self.stride, 0);
        }
        u32::try_from(self.first as usize + self.at_ns.len() - 1)
            .expect("more than 2^32 arrival epochs")
    }

    /// ORs `bits` into word `word` of the newest epoch's bitset.
    fn mark_newest(&mut self, word: usize, bits: u64) {
        let row = (self.at_ns.len() - 1) * self.stride;
        self.arrived[row + word] |= bits;
    }

    /// Position of epoch `number` among the held epochs.
    fn offset(&self, number: u32) -> usize {
        number
            .checked_sub(self.first)
            .expect("an epoch was trimmed while a window still reaches back to it") as usize
    }

    /// Report time of epoch `number`.
    fn time_ns(&self, number: u32) -> u64 {
        self.at_ns[self.offset(number)]
    }

    /// Number of the first epoch after `number` at which peer `idx`
    /// arrived. There is one: a full window holds samples after its
    /// `since`.
    fn next_arrival(&self, idx: usize, number: u32) -> u32 {
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        let from = self.offset(number);
        let mut held = from + 1;
        while self.arrived[held * self.stride + word] & bit == 0 {
            held += 1;
        }
        number + (held - from) as u32
    }

    /// Drops every epoch numbered below `number`.
    fn trim_before(&mut self, number: u32) {
        let gone = (number.saturating_sub(self.first) as usize).min(self.at_ns.len());
        self.at_ns.drain(..gone);
        self.arrived.drain(..gone * self.stride);
        self.first += gone as u32;
    }

    /// Drops every epoch and restarts the numbering.
    fn clear(&mut self) {
        self.at_ns.clear();
        self.arrived.clear();
        self.first = 0;
    }
}

/// The arrivals of one [`FailureDetector::report_all`] batch on their
/// way into the epoch log: the epoch they share, opened at the first of
/// them, and the bits of one bitset word not yet OR-ed into that
/// epoch's row. A batch in peer order writes each word of the row once.
struct BatchArrivals {
    now_ns: u64,
    /// The batch's epoch, once some peer arrived.
    epoch: Option<u32>,
    /// The row word `bits` belong to.
    word: usize,
    bits: u64,
}

impl BatchArrivals {
    fn new(now_ns: u64) -> Self {
        BatchArrivals {
            now_ns,
            epoch: None,
            word: 0,
            bits: 0,
        }
    }

    /// Records that peer `idx` arrived, opening the batch's epoch at its
    /// first arrival, and returns that epoch's number.
    fn arrive(&mut self, log: &mut EpochLog, idx: usize) -> u32 {
        let epoch = *self.epoch.get_or_insert_with(|| log.open(self.now_ns));
        let word = idx / 64;
        if word != self.word {
            self.flush(log);
            self.word = word;
        }
        self.bits |= 1 << (idx % 64);
        epoch
    }

    /// ORs the pending bits into the epoch's row.
    fn flush(&mut self, log: &mut EpochLog) {
        if self.bits != 0 {
            log.mark_newest(self.word, std::mem::take(&mut self.bits));
        }
    }
}

/// One node's failure-detection state over all its peers.
///
/// # Layout
///
/// Peer ids are dense node indexes (see [`Peer`]), so per-peer state
/// lives in parallel columns indexed by `Peer.0` rather than in a map:
/// `report`, `liveness`, `forget` and `phi` are array indexing, and the
/// once-per-interval [`Self::interpret_all`] sweep is a linear pass
/// over the contiguous `last_arrival_ns` column.
///
/// A sample is the gap between two consecutive arrivals of a peer,
/// when that gap is at most `max_interval` (a longer one is dropped).
/// So the detector keeps the arrivals, not the samples: an `EpochLog`
/// of every report time at which some peer arrived, each with a bitset
/// of the peers that did, `stride` words per epoch in one flat deque
/// (re-strided when the columns outgrow it). A gossip exchange that
/// reports N peers at one instant opens one epoch of `8 + N/8` bytes.
/// `count` and `sum_ns` make φ; the window's samples themselves are
/// only needed to evict the oldest once `window_cap` are held. Then the
/// eviction walks from `since` (the epoch the oldest held sample is
/// measured from) to the peer's next arrival: that gap is the oldest
/// sample, unless it exceeded `max_interval`, in which case it never was
/// one and the walk goes on from there. After a sweep that follows an
/// eviction, the epochs older than every monitored peer's `since` are
/// trimmed; `reset_monitoring` clears the log, and `forget` needs
/// nothing from it (a peer seen again starts a new `since`).
///
/// A peer's `sum_ns` fits a `u64` whatever the parameters: its samples
/// are the gaps between successive accepted arrivals, arrivals only
/// move forward, so the gaps are disjoint stretches of one `u64`
/// nanosecond clock. Epoch times are that clock, so time-dilated runs,
/// whose samples pass 2³² ns, take the same path as the rest.
///
/// The columns and bitsets grow to the highest id seen, or the columns
/// to the ids reserved up front, so a detector costs O(highest id)
/// slots of 25 bytes, plus `8 + 8 · ⌈slots / 64⌉`
/// bytes for each epoch that some window reaches back to (a window that
/// has not evicted yet reaches back to its peer's first arrival, so a
/// peer that falls silent holds the log until its window fills or it
/// is forgotten). A sparse id
/// is paid for in every epoch: `Peer(5000)` alone makes each epoch
/// 640 bytes. The same contract `scalecheck_net`'s tiled link clocks
/// state for `Addr`. The detector constants are held once here, not
/// once per peer.
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
    /// Column: samples held, `0..=window_cap`.
    count: Vec<u32>,
    /// Column: number of the epoch the oldest held sample is measured
    /// from (while the window fills, the peer's first arrival).
    since: Vec<u32>,
    /// Column: exact sum of the samples held, in nanoseconds.
    sum_ns: Vec<u64>,
    /// The arrivals the windows are gaps between.
    epochs: EpochLog,
    /// Some window evicted since the last trim of `epochs`.
    evicted: bool,
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
            count: Vec::new(),
            since: Vec::new(),
            sum_ns: Vec::new(),
            epochs: EpochLog::default(),
            evicted: false,
            monitored: 0,
            flaps: 0,
            recoveries: 0,
            fault_attributed: 0,
        }
    }

    /// Makes room in every column for peer ids `0..slots` without
    /// reallocating later; a larger id still grows them. The epoch
    /// bitsets are not widened ahead of the peers they cover.
    pub fn reserve_slots(&mut self, slots: usize) {
        let extra = slots.saturating_sub(self.flags.len());
        self.last_arrival_ns.reserve_exact(extra);
        self.flags.reserve_exact(extra);
        self.count.reserve_exact(extra);
        self.since.reserve_exact(extra);
        self.sum_ns.reserve_exact(extra);
    }

    /// Extends every column (amortised: `Vec` doubles its capacity
    /// past what [`Self::reserve_slots`] made room for) and every
    /// epoch's bitset to cover `idx`.
    fn ensure_slot(&mut self, idx: usize) {
        if idx >= self.flags.len() {
            let slots = idx + 1;
            self.last_arrival_ns.resize(slots, NEVER);
            self.flags.resize(slots, 0);
            self.count.resize(slots, 0);
            self.since.resize(slots, 0);
            self.sum_ns.resize(slots, 0);
            self.epochs.widen(slots);
        }
    }

    /// Adds one accepted inter-arrival sample to peer `idx`'s window,
    /// evicting the oldest once `window_cap` are held.
    ///
    /// The eviction walk ends at the oldest held sample, which ends at
    /// or before the peer's last arrival, so it never reaches the epoch
    /// of the arrival being added: the bits a [`BatchArrivals`] still
    /// holds back from that epoch's row are never read.
    fn push_sample(&mut self, idx: usize, interval_ns: u64) {
        if self.count[idx] as usize == self.params.window_cap {
            let mut from = self.since[idx];
            loop {
                let to = self.epochs.next_arrival(idx, from);
                let gap_ns = self.epochs.time_ns(to) - self.epochs.time_ns(from);
                from = to;
                if gap_ns <= self.params.max_interval_ns {
                    self.sum_ns[idx] -= gap_ns;
                    break;
                }
            }
            self.since[idx] = from;
            self.evicted = true;
        } else {
            self.count[idx] += 1;
        }
        self.sum_ns[idx] += interval_ns;
    }

    /// φ for the monitored peer in slot `idx` after `silence`.
    fn phi_at(&self, idx: usize, silence: SimDuration) -> f64 {
        self.params.phi(
            u128::from(self.sum_ns[idx]),
            self.count[idx] as usize,
            silence,
        )
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
        let mut batch = BatchArrivals::new(now.as_nanos());
        self.report_slot(idx, &mut batch);
        batch.flush(&mut self.epochs);
    }

    /// Registers a heartbeat observation at `now` for each of `peers`,
    /// in order: the same as a [`Self::report`] per peer, paid once per
    /// batch where it can be. The columns are grown once, for the
    /// largest id; the batch's epoch is opened at its first arrival (a
    /// batch of late beats opens none); and its arrival bits are OR-ed
    /// into the epoch's row a word at a time.
    pub fn report_all(&mut self, peers: &[Peer], now: SimTime) {
        let Some(top) = peers.iter().map(|p| p.0).max() else {
            return;
        };
        self.ensure_slot(top as usize);
        let mut batch = BatchArrivals::new(now.as_nanos());
        for &peer in peers {
            self.report_slot(peer.0 as usize, &mut batch);
        }
        batch.flush(&mut self.epochs);
    }

    /// One peer of a [`Self::report_all`] batch.
    fn report_slot(&mut self, idx: usize, batch: &mut BatchArrivals) {
        let now_ns = batch.now_ns;
        let flags = self.flags[idx];
        if flags & MONITORED == 0 {
            self.flags[idx] = flags | MONITORED;
            self.monitored += 1;
            self.last_arrival_ns[idx] = now_ns;
            self.since[idx] = batch.arrive(&mut self.epochs, idx);
            return;
        }
        let last_ns = self.last_arrival_ns[idx];
        if now_ns > last_ns {
            batch.arrive(&mut self.epochs, idx);
            let interval_ns = now_ns - last_ns;
            if interval_ns <= self.params.max_interval_ns {
                self.push_sample(idx, interval_ns);
            }
            self.last_arrival_ns[idx] = now_ns;
        }
        if flags & DEAD != 0 {
            self.flags[idx] = flags & !DEAD;
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
    ///
    /// After an eviction, the sweep also trims the epochs no window
    /// reaches back to any more.
    pub fn interpret_all(&mut self, now: SimTime) -> Vec<Peer> {
        if std::mem::take(&mut self.evicted) {
            let oldest = (self.since.iter().zip(&self.flags))
                .filter(|&(_, &flags)| flags & MONITORED != 0)
                .map(|(&since, _)| since)
                .min();
            self.epochs.trim_before(oldest.unwrap_or(u32::MAX));
        }
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
            if self.phi_at(idx, silence) > self.threshold {
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
        self.last_arrival_ns.fill(NEVER);
        self.flags.fill(0);
        self.count.fill(0);
        self.sum_ns.fill(0);
        self.epochs.clear();
        self.evicted = false;
        self.monitored = 0;
    }

    /// The φ suspicion for `peer`, if monitored.
    pub fn phi(&self, peer: Peer, now: SimTime) -> Option<f64> {
        self.monitored_slot(peer).map(|idx| {
            let last = SimTime::from_nanos(self.last_arrival_ns[idx]);
            self.phi_at(idx, now.since(last))
        })
    }

    /// Stops monitoring `peer` (it departed cleanly; silence is expected
    /// and must not count as a flap). Its window is emptied; its bits in
    /// the epoch log stay until the log is trimmed past them.
    pub fn forget(&mut self, peer: Peer) {
        if let Some(idx) = self.monitored_slot(peer) {
            self.flags[idx] &= SUSPECT;
            self.last_arrival_ns[idx] = NEVER;
            self.count[idx] = 0;
            self.sum_ns[idx] = 0;
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

    /// Peers whose bit is set in epoch `number`.
    fn arrivals(f: &FailureDetector, number: u32) -> Vec<u32> {
        let log = &f.epochs;
        let held = log.offset(number);
        (0..log.stride * 64)
            .filter(|&idx| log.arrived[held * log.stride + idx / 64] & 1 << (idx % 64) != 0)
            .map(|idx| idx as u32)
            .collect()
    }

    /// The memory contract in the type's rustdoc: one epoch per report
    /// time that moved some peer, each as wide as the columns; trimmed to
    /// what the full windows reach back to; one code path for every
    /// sample width.
    #[test]
    fn epochs_are_arrival_times_and_trim_to_the_windows() {
        let mut f = fd();
        for s in 0..31 {
            f.report(Peer(0), secs(s));
            if s <= 10 {
                f.report(Peer(3), secs(s));
            }
            f.report(Peer(0), secs(s)); // A repeated time moves nobody.
            f.interpret_all(secs(s));
        }
        f.report(Peer(3), secs(5)); // A late beat moves nobody.
        assert_eq!(f.epochs.at_ns.len(), 31);
        assert_eq!((f.epochs.first, f.epochs.stride), (0, 1));
        assert_eq!(f.epochs.time_ns(7), 7_000_000_000);
        assert_eq!(arrivals(&f, 7), [0, 3]);
        assert_eq!(arrivals(&f, 11), [0]);

        // A higher id widens every epoch and keeps its bits.
        f.report(Peer(200), secs(31));
        assert_eq!(f.epochs.stride, 4);
        assert_eq!(f.epochs.arrived.len(), 32 * 4);
        assert_eq!(arrivals(&f, 7), [0, 3]);
        assert_eq!(arrivals(&f, 31), [200]);

        // 1500 more beats fill and wrap both windows. Peer 0's 30 → 32
        // gap is a sample, peer 3's 10 → 32 is outsize and is not, so
        // both windows' oldest samples start at 531 s (epoch 531). The
        // silent but monitored Peer(200) still holds epoch 31.
        for s in 32..1532 {
            f.report(Peer(0), secs(s));
            f.report(Peer(3), secs(s));
            f.interpret_all(secs(s));
        }
        for peer in [0, 3] {
            assert_eq!((f.count[peer], f.since[peer]), (1000, 531));
            assert_eq!(f.sum_ns[peer], 1000 * 1_000_000_000);
        }
        assert_eq!((f.epochs.first, f.epochs.at_ns.len()), (31, 1501));
        // Forgotten, it holds nothing: the next sweep after an eviction
        // trims to the windows.
        f.forget(Peer(200));
        feed(&mut f, Peer(0), 1532, 1533);
        assert_eq!((f.epochs.first, f.epochs.at_ns.len()), (531, 1002));
        assert_eq!(f.epochs.time_ns(531), 531_000_000_000);

        // 8 s beats (a time-dilated run) take the same path: samples
        // past 2³² ns, evicted like any other.
        let mut wide = FailureDetector::new(8.0, SimDuration::from_secs(8));
        for beat in 0..1005 {
            wide.report(Peer(1), secs(8 * beat));
            wide.interpret_all(secs(8 * beat));
        }
        assert_eq!(wide.count[1], 1000);
        assert_eq!(wide.sum_ns[1], 1000 * 8_000_000_000);
        assert_eq!((wide.since[1], wide.epochs.first), (4, 4));
        assert_eq!(wide.epochs.time_ns(4), 32_000_000_000);

        f.reset_monitoring();
        assert!(f.epochs.at_ns.is_empty() && f.epochs.arrived.is_empty());
    }

    /// A batch shares one epoch, opened at its first arrival (a batch
    /// of late beats opens none), and leaves the columns a `report` per
    /// peer leaves.
    #[test]
    fn a_batch_opens_one_epoch_at_its_first_arrival() {
        let bodies: [(&[u32], u64); 5] = [
            // First reports, unsorted, in three words, one twice.
            (&[3, 200, 0, 3, 64], 1),
            (&[0, 64, 3], 2),
            // Late for both.
            (&[64, 0], 1),
            // At the newest epoch's time: into that epoch.
            (&[200, 5], 2),
            (&[5, 3, 0, 64, 200], 4),
        ];
        let (mut batched, mut single) = (fd(), fd());
        for (ids, at) in bodies {
            let peers: Vec<Peer> = ids.iter().map(|&id| Peer(id)).collect();
            batched.report_all(&peers, secs(at));
            for &peer in &peers {
                single.report(peer, secs(at));
            }
        }
        assert_eq!(batched.epochs.at_ns, [1, 2, 4].map(|s| s * 1_000_000_000));
        assert_eq!(arrivals(&batched, 0), [0, 3, 64, 200]);
        assert_eq!(arrivals(&batched, 1), [0, 3, 5, 64, 200]);
        assert_eq!(arrivals(&batched, 2), [0, 3, 5, 64, 200]);
        assert_eq!(batched.epochs.arrived, single.epochs.arrived);
        assert_eq!(batched.last_arrival_ns, single.last_arrival_ns);
        assert_eq!(batched.flags, single.flags);
        assert_eq!(batched.count, single.count);
        assert_eq!(batched.since, single.since);
        assert_eq!(batched.sum_ns, single.sum_ns);
        batched.report_all(&[], secs(9));
        assert_eq!(
            batched.epochs.at_ns.len(),
            3,
            "an empty batch opens nothing"
        );
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
