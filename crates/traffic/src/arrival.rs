//! Open-loop arrival processes on the virtual clock.
//!
//! Offered load is *open-loop*: users issue requests at their own rate
//! regardless of how the cluster is doing, which is exactly what makes
//! tail latency honest (a closed loop would throttle itself around the
//! very stall it should be measuring). The arithmetic is pure integers
//! — a `u128` milli-op accumulator carries sub-op remainders across
//! ticks — so a million-user cell offers *exactly*
//! `users × rate × seconds` operations with no float drift and no
//! per-user state.

use scalecheck_sim::{DetRng, SimDuration};

/// How per-tick batch sizes are drawn from the configured mean rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exactly the configured rate each tick (remainders carry over).
    Constant,
    /// Poisson-distributed batch sizes with the configured mean, drawn
    /// from the traffic RNG (Knuth for small means, a rounded normal
    /// approximation past 64 — both deterministic).
    Poisson,
}

/// The offered-load shape of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivalConfig {
    /// Simulated user population. Scales the offered rate only — state
    /// stays O(1) no matter how large this is.
    pub users: u64,
    /// Per-user offered rate in milli-operations per second (1000 =
    /// one op/s per user).
    pub millirate_per_user: u64,
    /// Batch-size distribution.
    pub process: ArrivalProcess,
    /// Rate multiplier applied while the cluster is inside its rescale
    /// window (bootstrap/decommission phase ramp), in permille of the
    /// steady rate. 1000 = flat; 1500 models the reconnect stampede a
    /// topology change triggers.
    pub rescale_ramp_permille: u32,
    /// Batch tick interval on the virtual clock.
    pub tick: SimDuration,
}

impl ArrivalConfig {
    /// No offered load.
    pub const OFF: ArrivalConfig = ArrivalConfig {
        users: 0,
        millirate_per_user: 0,
        process: ArrivalProcess::Constant,
        rescale_ramp_permille: 1000,
        tick: SimDuration::from_secs(1),
    };

    /// Whether the datapath is off entirely. A population with a zero
    /// per-user rate is *not* off: the engine still ticks (armed, fully
    /// plumbed into the cluster) while offering nothing — the shape the
    /// zero-offered-load differential tests pin against traffic-off.
    pub fn is_off(&self) -> bool {
        self.users == 0
    }

    /// Cluster-wide offered rate in milli-ops per second.
    pub fn milliops_per_sec(&self) -> u128 {
        self.users as u128 * self.millirate_per_user as u128
    }
}

/// Integer arrival generator: one per run, O(1) state.
#[derive(Clone, Debug, Default)]
pub struct ArrivalGen {
    /// Sub-operation remainder in milli-op·nanoseconds.
    carry: u128,
}

/// Scale factor between milli-op·ns and whole operations:
/// 1000 milli-ops × 1e9 ns/s.
const MILLIOP_NS_PER_OP: u128 = 1_000 * 1_000_000_000;

impl ArrivalGen {
    /// Operations offered in one tick of `cfg.tick` at phase ramp
    /// `ramp_permille`, advancing the remainder carry. Constant process
    /// is exact; Poisson draws the batch size around the same mean.
    pub fn offered(&mut self, cfg: &ArrivalConfig, ramp_permille: u32, rng: &mut DetRng) -> u64 {
        let rate = cfg.milliops_per_sec() * ramp_permille as u128 / 1000;
        self.carry += rate * cfg.tick.as_nanos() as u128;
        let mean = (self.carry / MILLIOP_NS_PER_OP) as u64;
        self.carry %= MILLIOP_NS_PER_OP;
        match cfg.process {
            ArrivalProcess::Constant => mean,
            ArrivalProcess::Poisson => poisson(mean, rng),
        }
    }
}

/// One Poisson draw with the given mean. Knuth's product method up to
/// mean 64; beyond that the normal approximation `mean + √mean·z`
/// (rounded, clamped at zero) — at such means the relative error is
/// far below anything the log-bucketed histograms can resolve.
fn poisson(mean: u64, rng: &mut DetRng) -> u64 {
    if mean == 0 {
        return 0;
    }
    if mean <= 64 {
        let limit = (-(mean as f64)).exp();
        let mut product = 1.0f64;
        let mut count = 0u64;
        loop {
            product *= rng.gen_f64();
            if product <= limit {
                return count;
            }
            count += 1;
        }
    }
    let z = rng.gen_normal();
    let drawn = mean as f64 + (mean as f64).sqrt() * z;
    if drawn <= 0.0 {
        0
    } else {
        drawn.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(users: u64, millirate: u64, process: ArrivalProcess) -> ArrivalConfig {
        ArrivalConfig {
            users,
            millirate_per_user: millirate,
            process,
            rescale_ramp_permille: 1000,
            tick: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn constant_rate_is_exact_over_many_ticks() {
        let c = cfg(1_000_000, 333, ArrivalProcess::Constant);
        let mut g = ArrivalGen::default();
        let mut rng = DetRng::new(1);
        let total: u64 = (0..100).map(|_| g.offered(&c, 1000, &mut rng)).sum();
        // 1e6 users × 0.333 op/s × 100 s = 33_300_000 ops exactly.
        assert_eq!(total, 33_300_000);
    }

    #[test]
    fn sub_op_rates_accumulate_instead_of_vanishing() {
        // 1 user at 1 milli-op/s: one op every 1000 s.
        let c = cfg(1, 1, ArrivalProcess::Constant);
        let mut g = ArrivalGen::default();
        let mut rng = DetRng::new(1);
        let total: u64 = (0..2_000).map(|_| g.offered(&c, 1000, &mut rng)).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn ramp_scales_the_rate() {
        let c = cfg(100, 1000, ArrivalProcess::Constant);
        let mut g = ArrivalGen::default();
        let mut rng = DetRng::new(1);
        assert_eq!(g.offered(&c, 1000, &mut rng), 100);
        assert_eq!(g.offered(&c, 1500, &mut rng), 150);
        assert_eq!(g.offered(&c, 0, &mut rng), 0);
    }

    #[test]
    fn poisson_is_deterministic_and_mean_tracking() {
        let c = cfg(1000, 1000, ArrivalProcess::Poisson);
        let draw_total = |seed: u64| -> u64 {
            let mut g = ArrivalGen::default();
            let mut rng = DetRng::new(seed);
            (0..200).map(|_| g.offered(&c, 1000, &mut rng)).sum()
        };
        assert_eq!(draw_total(7), draw_total(7), "same seed, same draws");
        let total = draw_total(7) as f64;
        let expect = 1000.0 * 200.0;
        assert!(
            (total - expect).abs() / expect < 0.05,
            "poisson total {total} should track mean {expect}"
        );
    }

    #[test]
    fn small_mean_poisson_uses_knuth_and_stays_sane() {
        let c = cfg(3, 1000, ArrivalProcess::Poisson);
        let mut g = ArrivalGen::default();
        let mut rng = DetRng::new(11);
        let total: u64 = (0..3000).map(|_| g.offered(&c, 1000, &mut rng)).sum();
        let expect = 3.0 * 3000.0;
        assert!(
            (total as f64 - expect).abs() / expect < 0.1,
            "knuth total {total} should track mean {expect}"
        );
    }

    #[test]
    fn off_config_offers_nothing() {
        assert!(ArrivalConfig::OFF.is_off());
        let mut g = ArrivalGen::default();
        let mut rng = DetRng::new(1);
        assert_eq!(g.offered(&ArrivalConfig::OFF, 1000, &mut rng), 0);
    }
}
