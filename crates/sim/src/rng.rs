//! Deterministic random number generation.
//!
//! The simulator must produce bit-identical runs for a given seed across
//! platforms and library versions, so the generator is implemented here
//! (xoshiro256++ seeded through SplitMix64) rather than borrowed from an
//! external crate whose stream might change.
//!
//! Per-node generators are derived with [`DetRng::fork`], which mixes a
//! stream id into the seed so that adding a node never perturbs the
//! streams of existing nodes.

/// Deterministic xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
    // Seed material captured at construction; forking derives from this so
    // that fork(id) is unaffected by how many values the parent produced.
    origin: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s, origin: seed }
    }

    /// Derives an independent stream for `stream_id`.
    ///
    /// Forking is a pure function of the parent's seed material and the
    /// stream id, not of how many values the parent has produced, so fork
    /// order does not matter.
    pub fn fork(&self, stream_id: u64) -> DetRng {
        let mut sm = self.origin ^ stream_id.wrapping_mul(0xA076_1D64_78BD_642F);
        let derived = splitmix64(&mut sm) ^ 0x6A09_E667_F3BC_C909;
        DetRng::new(derived)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Returns 0 for `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift with rejection, so the distribution is
    /// exactly uniform.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, bound)`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Standard normal draw via Box–Muller.
    pub fn gen_normal(&mut self) -> f64 {
        // Avoid log(0) by mapping u1 into (0, 1].
        let u1 = 1.0 - self.gen_f64();
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        let parent = DetRng::new(7);
        let mut consumed = parent.clone();
        for _ in 0..50 {
            consumed.next_u64();
        }
        let mut f1 = parent.fork(3);
        let mut f2 = consumed.fork(3);
        for _ in 0..10 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn fork_streams_differ() {
        let parent = DetRng::new(7);
        let mut f1 = parent.fork(1);
        let mut f2 = parent.fork(2);
        let v1: Vec<u64> = (0..8).map(|_| f1.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| f2.next_u64()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = DetRng::new(9);
        for _ in 0..10_000 {
            let x = r.gen_range(13);
            assert!(x < 13);
        }
        assert_eq!(r.gen_range(0), 0);
        assert_eq!(r.gen_range(1), 0);
    }

    #[test]
    fn gen_range_covers_all_residues() {
        let mut r = DetRng::new(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            seen[r.gen_range(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut r = DetRng::new(5);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = r.gen_normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(21);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
