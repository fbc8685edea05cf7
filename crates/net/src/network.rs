//! The simulated message fabric.
//!
//! [`Network`] decides, per message, whether it is dropped (fault
//! injection or partition) and when it arrives (latency model plus
//! per-link FIFO ordering). It is pure data: the caller passes the
//! current time and RNG and schedules the delivery event itself, which
//! keeps the network engine-agnostic and unit-testable.

use std::collections::BTreeSet;

use scalecheck_sim::{DetRng, SimDuration, SimTime};

use crate::latency::LatencyModel;

/// A network endpoint (one simulated node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Addr(pub u32);

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Why a message was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss from the configured drop probability.
    RandomLoss,
    /// The (src, dst) pair is partitioned.
    Partitioned,
    /// An injected fault window dropped the message.
    FaultLoss,
}

/// An accepted message's delivery schedule: the primary arrival plus an
/// optional fault-injected duplicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// When the primary copy arrives.
    pub deliver_at: SimTime,
    /// When the duplicate arrives, if a duplication window fired.
    pub duplicate_at: Option<SimTime>,
}

/// A time-bounded per-link fault window. `None` endpoints match any
/// node; windows are active on `[from, until)`.
#[derive(Clone, Copy, Debug)]
struct FaultWindow {
    from: SimTime,
    until: SimTime,
    src: Option<Addr>,
    dst: Option<Addr>,
}

impl FaultWindow {
    fn matches(&self, now: SimTime, src: Addr, dst: Addr) -> bool {
        self.from <= now
            && now < self.until
            && self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
    }
}

/// Network configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// One-way latency distribution.
    pub latency: LatencyModel,
    /// Probability that any message is silently dropped.
    pub drop_probability: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: LatencyModel::lan(),
            drop_probability: 0.0,
        }
    }
}

/// Per-link FIFO clocks.
///
/// `fifo_clamp` runs once per accepted message — the network hot path —
/// so every lookup must be O(1) array indexing. The address plane is
/// carved into `TILE × TILE` tiles (tile row = src block, tile column =
/// dst block): a top-level directory of tile pointers grows
/// geometrically with the highest address seen, and each tile is
/// allocated the first time a link inside it is touched.
///
/// The previous layout was one dense `side × side` matrix capped at
/// 1024 addresses, with everything beyond the cap falling off a cliff
/// into per-message `BTreeMap` probes — exactly the kind of
/// hidden-past-the-tested-scale bug this simulator exists to catch.
/// Tiling removes the cap (4096-addr runs stay O(1)), makes growth
/// cheap (the directory copy moves pointers, never clock data), and
/// allocates only the tiles traffic actually reaches.
#[derive(Clone, Debug, Default)]
struct LinkClocks {
    /// Row-major `top_side × top_side` directory of lazily allocated
    /// tiles.
    tiles: Vec<Option<Box<[SimTime; Self::TILE * Self::TILE]>>>,
    /// Directory side length, in tiles.
    top_side: usize,
}

impl LinkClocks {
    /// Tile side in addresses: one touched tile is 64² clocks = 32 KiB.
    const TILE: usize = 64;

    fn clock_mut(&mut self, src: Addr, dst: Addr) -> &mut SimTime {
        let (s, d) = (src.0 as usize, dst.0 as usize);
        let (ts, td) = (s / Self::TILE, d / Self::TILE);
        let need = ts.max(td) + 1;
        if need > self.top_side {
            self.grow(need);
        }
        let tile = self.tiles[ts * self.top_side + td]
            .get_or_insert_with(|| Box::new([SimTime::ZERO; Self::TILE * Self::TILE]));
        &mut tile[(s % Self::TILE) * Self::TILE + (d % Self::TILE)]
    }

    fn grow(&mut self, need: usize) {
        let new_side = need.next_power_of_two();
        let mut tiles: Vec<Option<Box<[SimTime; Self::TILE * Self::TILE]>>> = Vec::new();
        tiles.resize_with(new_side * new_side, || None);
        for r in 0..self.top_side {
            for c in 0..self.top_side {
                tiles[r * new_side + c] = self.tiles[r * self.top_side + c].take();
            }
        }
        self.tiles = tiles;
        self.top_side = new_side;
    }

    #[cfg(test)]
    fn allocated_tiles(&self) -> usize {
        self.tiles.iter().filter(|t| t.is_some()).count()
    }
}

/// The simulated network fabric.
#[derive(Clone, Debug)]
pub struct Network {
    config: NetworkConfig,
    // Per-link clock enforcing FIFO delivery on each (src, dst) pair.
    link_clock: LinkClocks,
    partitions: BTreeSet<(Addr, Addr)>,
    drop_windows: Vec<(FaultWindow, f64)>,
    delay_windows: Vec<(FaultWindow, SimDuration)>,
    dup_windows: Vec<(FaultWindow, f64)>,
    sent: u64,
    dropped: u64,
    dropped_partition: u64,
    dropped_fault: u64,
    fault_delayed: u64,
    fault_duplicated: u64,
}

impl Network {
    /// Creates a network with the given configuration.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            link_clock: LinkClocks::default(),
            partitions: BTreeSet::new(),
            drop_windows: Vec::new(),
            delay_windows: Vec::new(),
            dup_windows: Vec::new(),
            sent: 0,
            dropped: 0,
            dropped_partition: 0,
            dropped_fault: 0,
            fault_delayed: 0,
            fault_duplicated: 0,
        }
    }

    /// Installs a probabilistic drop window on the matching links,
    /// active on `[from, until)`.
    pub fn add_drop_window(
        &mut self,
        from: SimTime,
        until: SimTime,
        src: Option<Addr>,
        dst: Option<Addr>,
        probability: f64,
    ) {
        self.drop_windows.push((
            FaultWindow {
                from,
                until,
                src,
                dst,
            },
            probability,
        ));
    }

    /// Installs an added-latency window on the matching links.
    pub fn add_delay_window(
        &mut self,
        from: SimTime,
        until: SimTime,
        src: Option<Addr>,
        dst: Option<Addr>,
        extra: SimDuration,
    ) {
        self.delay_windows.push((
            FaultWindow {
                from,
                until,
                src,
                dst,
            },
            extra,
        ));
    }

    /// Installs a probabilistic duplication window on the matching
    /// links.
    pub fn add_duplicate_window(
        &mut self,
        from: SimTime,
        until: SimTime,
        src: Option<Addr>,
        dst: Option<Addr>,
        probability: f64,
    ) {
        self.dup_windows.push((
            FaultWindow {
                from,
                until,
                src,
                dst,
            },
            probability,
        ));
    }

    /// Offers a message to the fabric. On acceptance returns the full
    /// delivery schedule — primary arrival plus an optional
    /// fault-injected duplicate — on drop, the reason. Consults, in
    /// order: partitions, configured random loss, active drop windows,
    /// then samples latency (plus any active delay window) under
    /// per-link FIFO.
    pub fn offer(
        &mut self,
        now: SimTime,
        rng: &mut DetRng,
        src: Addr,
        dst: Addr,
    ) -> Result<Delivery, DropReason> {
        self.sent += 1;
        if self.is_partitioned(src, dst) {
            self.dropped += 1;
            self.dropped_partition += 1;
            return Err(DropReason::Partitioned);
        }
        if self.config.drop_probability > 0.0 && rng.gen_bool(self.config.drop_probability) {
            self.dropped += 1;
            return Err(DropReason::RandomLoss);
        }
        for k in 0..self.drop_windows.len() {
            let (w, p) = self.drop_windows[k];
            if w.matches(now, src, dst) && rng.gen_bool(p) {
                self.dropped += 1;
                self.dropped_fault += 1;
                return Err(DropReason::FaultLoss);
            }
        }
        let extra = self.fault_delay(now, src, dst);
        if extra > SimDuration::ZERO {
            self.fault_delayed += 1;
        }
        let latency = self.config.latency.sample(rng) + extra;
        let deliver_at = self.fifo_clamp(src, dst, now + latency);

        // Duplication windows: the copy takes an independent latency
        // sample (it still pays any active delay window) and respects
        // link FIFO behind the primary.
        let mut duplicate_at = None;
        for k in 0..self.dup_windows.len() {
            let (w, p) = self.dup_windows[k];
            if w.matches(now, src, dst) && rng.gen_bool(p) {
                self.fault_duplicated += 1;
                let dup_latency = self.config.latency.sample(rng) + extra;
                duplicate_at = Some(self.fifo_clamp(src, dst, now + dup_latency));
                break;
            }
        }

        Ok(Delivery {
            deliver_at,
            duplicate_at,
        })
    }

    /// Sum of active delay-window penalties for this link at `now`.
    fn fault_delay(&self, now: SimTime, src: Addr, dst: Addr) -> SimDuration {
        self.delay_windows
            .iter()
            .filter(|(w, _)| w.matches(now, src, dst))
            .fold(SimDuration::ZERO, |acc, &(_, d)| acc + d)
    }

    /// FIFO per link: never deliver before an earlier message on the
    /// same (src, dst) pair. Advances the link clock.
    fn fifo_clamp(&mut self, src: Addr, dst: Addr, mut deliver_at: SimTime) -> SimTime {
        let clock = self.link_clock.clock_mut(src, dst);
        if deliver_at <= *clock {
            deliver_at = *clock + SimDuration::from_nanos(1);
        }
        *clock = deliver_at;
        deliver_at
    }

    /// Offers one *data-plane* message (a client request or replica
    /// response from the traffic engine) to the fabric, returning its
    /// delivery time, or `None` if the fabric drops it.
    ///
    /// Data messages share the control plane's partitions, random
    /// loss, drop/delay fault windows, latency model, and — crucially —
    /// the per-link FIFO clocks, so queued gossip delays requests and
    /// heavy request traffic delays gossip. They are *not* part of the
    /// control-plane bookkeeping: no duplicate injection (replica RPCs
    /// are idempotent, so the extra arrival would be unobservable), and
    /// none of the control-plane counters move — callers account data
    /// messages themselves.
    pub fn offer_data(
        &mut self,
        now: SimTime,
        rng: &mut DetRng,
        src: Addr,
        dst: Addr,
    ) -> Option<SimTime> {
        if self.is_partitioned(src, dst) {
            return None;
        }
        if self.config.drop_probability > 0.0 && rng.gen_bool(self.config.drop_probability) {
            return None;
        }
        for k in 0..self.drop_windows.len() {
            let (w, p) = self.drop_windows[k];
            if w.matches(now, src, dst) && rng.gen_bool(p) {
                return None;
            }
        }
        let latency = self.config.latency.sample(rng) + self.fault_delay(now, src, dst);
        Some(self.fifo_clamp(src, dst, now + latency))
    }

    /// Cuts connectivity between `a` and `b` (both directions).
    pub fn partition(&mut self, a: Addr, b: Addr) {
        self.partitions.insert((a, b));
        self.partitions.insert((b, a));
    }

    /// Restores connectivity between `a` and `b`.
    pub fn heal(&mut self, a: Addr, b: Addr) {
        self.partitions.remove(&(a, b));
        self.partitions.remove(&(b, a));
    }

    /// Whether messages from `src` to `dst` are currently blocked.
    pub fn is_partitioned(&self, src: Addr, dst: Addr) -> bool {
        self.partitions.contains(&(src, dst))
    }

    /// Messages offered to the fabric.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages dropped (loss, partition, or fault window).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages dropped because the link was partitioned.
    pub fn dropped_by_partition(&self) -> u64 {
        self.dropped_partition
    }

    /// Messages dropped by an injected drop window.
    pub fn dropped_by_fault(&self) -> u64 {
        self.dropped_fault
    }

    /// Messages delayed by an injected delay window.
    pub fn fault_delayed(&self) -> u64 {
        self.fault_delayed
    }

    /// Messages duplicated by an injected duplication window.
    pub fn fault_duplicated(&self) -> u64 {
        self.fault_duplicated
    }

    /// The active configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn net(drop: f64) -> Network {
        Network::new(NetworkConfig {
            latency: LatencyModel::Constant(SimDuration::from_millis(1)),
            drop_probability: drop,
        })
    }

    #[test]
    fn link_clocks_survive_growth_past_the_old_dense_cap() {
        let mut clocks = LinkClocks::default();
        *clocks.clock_mut(Addr(0), Addr(1)) = SimTime::from_secs(5);
        assert_eq!(clocks.top_side, 1);
        assert_eq!(clocks.allocated_tiles(), 1);
        // Touching a larger address grows the directory; earlier clocks
        // must carry over.
        *clocks.clock_mut(Addr(100), Addr(7)) = SimTime::from_secs(9);
        assert!(clocks.top_side >= 2);
        assert_eq!(*clocks.clock_mut(Addr(0), Addr(1)), SimTime::from_secs(5));
        assert_eq!(*clocks.clock_mut(Addr(100), Addr(7)), SimTime::from_secs(9));
        // Untouched links start at zero, directions are independent.
        assert_eq!(*clocks.clock_mut(Addr(1), Addr(0)), SimTime::ZERO);
        // Addresses past the old 1024 dense cap stay in O(1) tiles —
        // no more BTreeMap cliff — and keep their clocks too.
        let tiles_before = clocks.allocated_tiles();
        let big = Addr(4099);
        *clocks.clock_mut(big, Addr(1)) = SimTime::from_secs(11);
        assert_eq!(*clocks.clock_mut(big, Addr(1)), SimTime::from_secs(11));
        assert_eq!(clocks.allocated_tiles(), tiles_before + 1);
        // Growth allocates directory slots, not clock storage: only
        // touched tiles own memory.
        assert!(clocks.top_side >= 65);
    }

    #[test]
    fn link_clocks_match_a_sparse_reference_model() {
        // Differential check of the tiled store against the obvious
        // sparse map it replaced, across tile boundaries and growth.
        let mut clocks = LinkClocks::default();
        let mut model: BTreeMap<(Addr, Addr), SimTime> = BTreeMap::new();
        let mut x = 0x2545f4914f6cdd1du64;
        for i in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let src = Addr((x % 4300) as u32);
            let dst = Addr(((x >> 32) % 4300) as u32);
            let t = SimTime::from_nanos(i);
            let c = clocks.clock_mut(src, dst);
            if *c < t {
                *c = t;
            }
            let m = model.entry((src, dst)).or_insert(SimTime::ZERO);
            if *m < t {
                *m = t;
            }
            assert_eq!(*clocks.clock_mut(src, dst), model[&(src, dst)]);
        }
        for (&(src, dst), &t) in &model {
            assert_eq!(*clocks.clock_mut(src, dst), t);
        }
    }

    #[test]
    fn data_offers_ride_fifo_clocks_but_skip_control_bookkeeping() {
        let mut n = net(0.0);
        let mut rng = DetRng::new(1);
        // Queue three control messages at t=0 on one link: constant
        // 1 ms latency stacks the link clock to 1 ms + 2 ns.
        for _ in 0..3 {
            n.offer(SimTime::ZERO, &mut rng, Addr(1), Addr(2)).unwrap();
        }
        // A data message on the jammed link queues behind the three
        // accepted control messages...
        let at = n
            .offer_data(SimTime::ZERO, &mut rng, Addr(1), Addr(2))
            .unwrap();
        assert!(at > SimTime::ZERO + SimDuration::from_millis(1), "{at:?}");
        // ...and the next control message queues behind the data one:
        // the coupling is bidirectional.
        let ctrl = n.offer(SimTime::ZERO, &mut rng, Addr(1), Addr(2)).unwrap();
        assert!(ctrl.deliver_at > at);
        // The reverse direction is independent and idle.
        assert_eq!(
            n.offer_data(SimTime::ZERO, &mut rng, Addr(2), Addr(1)),
            Some(SimTime::ZERO + SimDuration::from_millis(1))
        );
        // The control-plane counters never saw the data messages.
        assert_eq!(n.sent(), 4);
        // Partitions drop data messages outright.
        n.partition(Addr(1), Addr(2));
        assert_eq!(
            n.offer_data(SimTime::ZERO, &mut rng, Addr(1), Addr(2)),
            None
        );
    }

    #[test]
    fn offer_samples_latency_and_counts() {
        let mut n = net(0.0);
        let mut rng = DetRng::new(1);
        let d0 = n.offer(SimTime::ZERO, &mut rng, Addr(1), Addr(2)).unwrap();
        n.offer(SimTime::from_millis(5), &mut rng, Addr(1), Addr(2))
            .unwrap();
        assert_eq!(d0.deliver_at, SimTime::from_millis(1));
        assert_eq!(d0.duplicate_at, None);
        assert_eq!(n.sent(), 2);
        assert_eq!(n.dropped(), 0);
    }

    #[test]
    fn per_link_fifo_is_enforced() {
        // With jittery latency, a later message must never arrive before
        // an earlier one on the same link.
        let mut n = Network::new(NetworkConfig {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_micros(10),
                max: SimDuration::from_millis(10),
            },
            drop_probability: 0.0,
        });
        let mut rng = DetRng::new(7);
        let mut last = SimTime::ZERO;
        for i in 0..1000 {
            let now = SimTime::from_nanos(i * 1000);
            let at = n.offer(now, &mut rng, Addr(1), Addr(2)).unwrap().deliver_at;
            assert!(at > last, "FIFO violated: {at} after {last}");
            last = at;
        }
    }

    #[test]
    fn different_links_are_independent() {
        let mut n = net(0.0);
        let mut rng = DetRng::new(1);
        let t_ab = n.offer(SimTime::ZERO, &mut rng, Addr(1), Addr(2)).unwrap();
        let t_ba = n.offer(SimTime::ZERO, &mut rng, Addr(2), Addr(1)).unwrap();
        // Reverse direction is a different link: same constant latency.
        assert_eq!(t_ab, t_ba);
    }

    #[test]
    fn partitions_block_and_heal() {
        let mut n = net(0.0);
        let mut rng = DetRng::new(1);
        n.partition(Addr(1), Addr(2));
        assert_eq!(
            n.offer(SimTime::ZERO, &mut rng, Addr(1), Addr(2))
                .unwrap_err(),
            DropReason::Partitioned
        );
        assert_eq!(
            n.offer(SimTime::ZERO, &mut rng, Addr(2), Addr(1))
                .unwrap_err(),
            DropReason::Partitioned
        );
        // Unrelated pair unaffected.
        assert!(n.offer(SimTime::ZERO, &mut rng, Addr(1), Addr(3)).is_ok());
        n.heal(Addr(1), Addr(2));
        assert!(n.offer(SimTime::ZERO, &mut rng, Addr(1), Addr(2)).is_ok());
        assert_eq!(n.dropped(), 2);
    }

    #[test]
    fn random_loss_drops_roughly_p() {
        let mut n = net(0.3);
        let mut rng = DetRng::new(5);
        let mut drops = 0;
        for _ in 0..10_000 {
            if n.offer(SimTime::ZERO, &mut rng, Addr(1), Addr(2)).is_err() {
                drops += 1;
            }
        }
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn drop_window_only_bites_inside_its_bounds_and_links() {
        let mut n = net(0.0);
        let mut rng = DetRng::new(9);
        n.add_drop_window(
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            Some(Addr(1)),
            None,
            1.0,
        );
        // Before the window: accepted.
        assert!(n
            .offer(SimTime::from_secs(5), &mut rng, Addr(1), Addr(2))
            .is_ok());
        // Inside the window, matching src: always dropped at p=1.
        assert_eq!(
            n.offer(SimTime::from_secs(15), &mut rng, Addr(1), Addr(2))
                .unwrap_err(),
            DropReason::FaultLoss
        );
        // Inside the window, non-matching src: accepted.
        assert!(n
            .offer(SimTime::from_secs(15), &mut rng, Addr(3), Addr(2))
            .is_ok());
        // At the exclusive end: accepted.
        assert!(n
            .offer(SimTime::from_secs(20), &mut rng, Addr(1), Addr(2))
            .is_ok());
        assert_eq!(n.dropped_by_fault(), 1);
        assert_eq!(n.dropped(), 1);
    }

    #[test]
    fn delay_window_adds_latency() {
        let mut n = net(0.0);
        let mut rng = DetRng::new(3);
        n.add_delay_window(
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            None,
            Some(Addr(2)),
            SimDuration::from_millis(250),
        );
        let d = n
            .offer(SimTime::from_secs(15), &mut rng, Addr(1), Addr(2))
            .unwrap();
        // Constant 1ms base latency + 250ms window penalty.
        assert_eq!(
            d.deliver_at,
            SimTime::from_secs(15) + SimDuration::from_millis(251)
        );
        assert_eq!(n.fault_delayed(), 1);
        // Other destinations see only the base latency.
        let d = n
            .offer(SimTime::from_secs(15), &mut rng, Addr(1), Addr(3))
            .unwrap();
        assert_eq!(
            d.deliver_at,
            SimTime::from_secs(15) + SimDuration::from_millis(1)
        );
        assert_eq!(n.fault_delayed(), 1);
    }

    #[test]
    fn duplicate_window_schedules_a_second_arrival_behind_fifo() {
        let mut n = net(0.0);
        let mut rng = DetRng::new(4);
        n.add_duplicate_window(SimTime::ZERO, SimTime::from_secs(100), None, None, 1.0);
        let d = n
            .offer(SimTime::from_secs(1), &mut rng, Addr(1), Addr(2))
            .unwrap();
        let dup = d.duplicate_at.expect("p=1 must duplicate");
        assert!(dup > d.deliver_at, "duplicate respects link FIFO");
        assert_eq!(n.fault_duplicated(), 1);
        // Outside the window: no duplicate.
        let d = n
            .offer(SimTime::from_secs(200), &mut rng, Addr(1), Addr(2))
            .unwrap();
        assert!(d.duplicate_at.is_none());
    }

    #[test]
    fn fault_paths_are_deterministic_for_same_seed() {
        let run = |seed: u64| {
            let mut n = net(0.0);
            let mut rng = DetRng::new(seed);
            n.add_drop_window(SimTime::ZERO, SimTime::from_secs(50), None, None, 0.3);
            n.add_duplicate_window(SimTime::ZERO, SimTime::from_secs(50), None, None, 0.3);
            let mut log = Vec::new();
            for i in 0..200u64 {
                let now = SimTime::from_millis(i * 100);
                log.push(format!(
                    "{:?}",
                    n.offer(
                        now,
                        &mut rng,
                        Addr((i % 4) as u32),
                        Addr(((i + 1) % 4) as u32)
                    )
                ));
            }
            (log, n.dropped_by_fault(), n.fault_duplicated())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }
}
