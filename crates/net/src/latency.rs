//! Link latency models.
//!
//! The paper's clusters are datacenter LANs; gossip messages see
//! sub-millisecond to low-millisecond delays with a long tail. The
//! [`LatencyModel`] enum provides the distributions the experiments use;
//! all sampling flows through the deterministic simulator RNG.

use scalecheck_sim::{DetRng, SimDuration};

/// A distribution of one-way link latencies.
#[derive(Clone, Copy, Debug)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Minimum latency.
        min: SimDuration,
        /// Maximum latency.
        max: SimDuration,
    },
    /// Log-normal with the given median and shape `sigma` (the classic
    /// heavy-tailed LAN model).
    LogNormal {
        /// Median latency (the exponential of the underlying mean).
        median: SimDuration,
        /// Log-space standard deviation; 0.3–0.6 is LAN-like.
        sigma: f64,
    },
}

impl LatencyModel {
    /// A datacenter-LAN default: log-normal, 500 us median, sigma 0.4.
    pub fn lan() -> Self {
        LatencyModel::LogNormal {
            median: SimDuration::from_micros(500),
            sigma: 0.4,
        }
    }

    /// Draws one latency sample.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                let span = max.as_nanos().saturating_sub(min.as_nanos());
                SimDuration::from_nanos(min.as_nanos() + rng.gen_range(span.saturating_add(1)))
            }
            LatencyModel::LogNormal { median, sigma } => {
                let z = rng.gen_normal();
                SimDuration::from_secs_f64(median.as_secs_f64() * (sigma * z).exp())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut rng = DetRng::new(1);
        let m = LatencyModel::Constant(SimDuration::from_millis(2));
        for _ in 0..100 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(2));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DetRng::new(2);
        let min = SimDuration::from_micros(100);
        let max = SimDuration::from_micros(300);
        let m = LatencyModel::Uniform { min, max };
        let mut lo = u64::MAX;
        let mut hi = 0;
        for _ in 0..5_000 {
            let s = m.sample(&mut rng).as_nanos();
            assert!(s >= min.as_nanos() && s <= max.as_nanos());
            lo = lo.min(s);
            hi = hi.max(s);
        }
        // Should cover most of the interval.
        assert!(lo < min.as_nanos() + 20_000);
        assert!(hi > max.as_nanos() - 20_000);
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut rng = DetRng::new(3);
        let m = LatencyModel::LogNormal {
            median: SimDuration::from_micros(500),
            sigma: 0.4,
        };
        let mut samples: Vec<u64> = (0..20_001).map(|_| m.sample(&mut rng).as_nanos()).collect();
        samples.sort_unstable();
        let med = samples[samples.len() / 2] as f64;
        assert!(
            (med - 500_000.0).abs() / 500_000.0 < 0.05,
            "median {med} ns should be ~500us"
        );
        // Heavy tail: p99 well above the median.
        let p99 = samples[(samples.len() as f64 * 0.99) as usize] as f64;
        assert!(p99 > 1.5 * med, "p99 {p99} vs med {med}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let m = LatencyModel::lan();
        let mut a = DetRng::new(9);
        let mut b = DetRng::new(9);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }
}
