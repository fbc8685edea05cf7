//! The φ accrual failure detector (Hayashibara et al., SRDS '04).
//!
//! Cassandra adopted the accrual detector for its scalability (§3 cites
//! this directly), but the design's proof "did not account gossip
//! processing time during bootstrap/cluster-rescale" — exactly the gap
//! the paper's bugs fall into. We implement Cassandra's simplified
//! exponential variant: with mean heartbeat inter-arrival `m`, the
//! suspicion level after `t` of silence is
//!
//! ```text
//! phi(t) = t / (m * ln 10)
//! ```
//!
//! i.e. `phi = -log10(P(no heartbeat for t | exponential arrivals))`.
//! A peer is convicted when `phi` exceeds a threshold (Cassandra default
//! 8, ≈ 18.4 mean intervals of silence).

use std::collections::VecDeque;

use scalecheck_sim::{SimDuration, SimTime};

/// The detector constants and the φ arithmetic over a window given as
/// `(sum of samples, number of samples)`: one copy per owner, not per
/// peer. A [`crate::FailureDetector`] watching N peers holds one of
/// these beside its per-peer columns and arrival epochs; a
/// [`PhiDetector`] holds one beside its [`ArrivalWindow`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhiParams {
    /// How many inter-arrival samples a window keeps (at least 1).
    pub(crate) window_cap: usize,
    mean_floor_s: f64,
    initial_mean_s: f64,
    /// Samples above this are dropped, not recorded.
    pub(crate) max_interval_ns: u64,
}

impl PhiParams {
    /// See [`PhiDetector::new`] for what each constant means.
    pub(crate) fn new(
        window_cap: usize,
        initial_mean: SimDuration,
        mean_floor: SimDuration,
        max_interval: SimDuration,
    ) -> Self {
        PhiParams {
            window_cap: window_cap.max(1),
            mean_floor_s: mean_floor.as_secs_f64(),
            initial_mean_s: initial_mean.as_secs_f64(),
            max_interval_ns: max_interval.as_nanos(),
        }
    }

    /// See [`PhiDetector::cassandra`].
    pub(crate) fn cassandra(gossip_interval: SimDuration) -> Self {
        Self::new(
            1000,
            gossip_interval,
            SimDuration::from_nanos(gossip_interval.as_nanos() / 2),
            SimDuration::from_nanos(gossip_interval.as_nanos() * 2),
        )
    }

    /// Estimated mean inter-arrival over a window of `len` samples
    /// summing to `sum_ns`, clamped to the floor.
    pub(crate) fn mean_interval(&self, sum_ns: u128, len: usize) -> f64 {
        let mean = if len == 0 {
            self.initial_mean_s
        } else {
            mean_of(sum_ns, len)
        };
        mean.max(self.mean_floor_s)
    }

    /// The suspicion level a mean inter-arrival of `mean_s` gives after
    /// `silence` without a heartbeat. The one φ expression: the sweep's
    /// pre-filter bound ([`Self::safe_silence_ns`]) is derived from, and
    /// checked against, exactly this.
    fn phi_of(silence: SimDuration, mean_s: f64) -> f64 {
        silence.as_secs_f64() / (mean_s * std::f64::consts::LN_10)
    }

    /// Suspicion level for a peer silent for `silence`, its window
    /// given as in [`Self::mean_interval`].
    pub(crate) fn phi(&self, sum_ns: u128, len: usize, silence: SimDuration) -> f64 {
        Self::phi_of(silence, self.mean_interval(sum_ns, len))
    }

    /// A silence, in nanoseconds, below which **no** window can yield
    /// `phi > threshold`; zero when there is no such silence.
    ///
    /// Why it is safe, not just close. [`Self::phi_of`] is a chain of
    /// correctly rounded operations, each monotone in its argument:
    /// non-decreasing in the silence (int→float, `/ 1e9`, the final
    /// quotient's numerator) and non-increasing in the mean (`× LN_10`,
    /// the quotient's denominator). [`Self::mean_interval`] never
    /// returns less than `mean_floor_s`. So for every window and every
    /// silence `s < bound`, `phi(s) ≤ phi_of(bound, floor)`, and the
    /// bound is accepted only if that right-hand side — evaluated here
    /// with the very expression the sweep uses — does not exceed the
    /// threshold. The analytic value `threshold × floor × ln 10` is
    /// only the *guess*, shaved by 2⁻⁴⁰ so the check practically never
    /// fails; correctness rests on the check. A non-positive or NaN
    /// threshold or a zero floor gives a zero guess, and a zero bound
    /// filters nobody.
    pub(crate) fn safe_silence_ns(&self, threshold: f64) -> u64 {
        let guess = threshold * self.mean_floor_s * std::f64::consts::LN_10 * 1e9;
        // Saturating cast: NaN and negatives become 0, +inf u64::MAX.
        let bound = (guess * (1.0 - 2f64.powi(-40))) as u64;
        if Self::phi_of(SimDuration::from_nanos(bound), self.mean_floor_s) > threshold {
            return 0;
        }
        bound
    }
}

/// One peer's sliding window of heartbeat inter-arrival samples, in the
/// obvious form: a deque and its sum. [`crate::FailureDetector`] keeps
/// only each peer's count and sum, and recovers a sample to evict from
/// the arrival times it is the gap between; this form lives on in
/// [`PhiDetector`], the oracle that layout is checked against.
///
/// # Numerical anchoring of the running sum
///
/// `mean_interval` used to re-sum the whole window (up to 1000 `f64`
/// samples) on every call — and it is called once per peer per
/// failure-detector tick, making the detector O(window · peers) per
/// tick. The fix keeps a running sum maintained incrementally in
/// [`ArrivalWindow::record`]. A running *float* sum cannot be kept
/// bit-identical to a windowed re-sum (float addition is not
/// associative, and subtracting an evicted sample re-rounds), so the
/// window stores intervals as **integer nanoseconds** and the running
/// sum is an integer: integer addition is exact and associative, the
/// incremental sum equals a from-scratch re-sum bit-for-bit, and both
/// paths share the single final float conversion in `mean_of`.
/// The differential proptest in `tests/proptests.rs` pins this
/// equivalence (exact `f64::to_bits` equality against
/// [`PhiDetector::mean_interval_naive`]).
#[derive(Clone, Debug, Default)]
struct ArrivalWindow {
    /// Inter-arrival samples in integer nanoseconds (see above).
    samples: VecDeque<u64>,
    /// Exact sum of `samples` in nanoseconds, maintained incrementally.
    sum_ns: u128,
}

impl ArrivalWindow {
    /// Records one inter-arrival interval. Cassandra drops outsize
    /// intervals instead of letting them inflate the mean.
    fn record(&mut self, interval_ns: u64, params: &PhiParams) {
        if interval_ns > params.max_interval_ns {
            return;
        }
        if self.samples.len() == params.window_cap {
            if let Some(evicted) = self.samples.pop_front() {
                self.sum_ns -= u128::from(evicted);
            }
        }
        self.samples.push_back(interval_ns);
        self.sum_ns += u128::from(interval_ns);
    }
}

/// The one place nanoseconds become seconds: `sum / len` stays in the
/// reals until the final division, so running and naive sums round
/// identically.
fn mean_of(sum_ns: u128, len: usize) -> f64 {
    (sum_ns as f64) / (len as f64) / 1e9
}

/// Sliding-window arrival statistics and suspicion for one peer: the
/// one-peer form of the arithmetic [`crate::FailureDetector`] runs over
/// its per-peer columns and arrival epochs (same `PhiParams`, a plain
/// deque for the window), and the oracle its differential proptests
/// compare against.
#[derive(Clone, Debug)]
pub struct PhiDetector {
    params: PhiParams,
    window: ArrivalWindow,
    last_arrival: Option<SimTime>,
}

impl PhiDetector {
    /// Creates a detector.
    ///
    /// * `window_cap` — how many inter-arrival samples to keep
    ///   (Cassandra keeps 1000).
    /// * `initial_mean` — assumed inter-arrival before enough samples
    ///   exist (use the gossip interval).
    /// * `mean_floor` — lower clamp on the estimated mean, preventing a
    ///   burst of rapid heartbeats from making the detector hair-trigger.
    /// * `max_interval` — inter-arrival samples above this are discarded
    ///   (Cassandra's `MAX_INTERVAL`): the detector must not *adapt* to
    ///   starvation-induced slow arrivals, otherwise the very stalls it
    ///   exists to detect would desensitize it.
    pub fn new(
        window_cap: usize,
        initial_mean: SimDuration,
        mean_floor: SimDuration,
        max_interval: SimDuration,
    ) -> Self {
        Self::with_params(PhiParams::new(
            window_cap,
            initial_mean,
            mean_floor,
            max_interval,
        ))
    }

    fn with_params(params: PhiParams) -> Self {
        PhiDetector {
            params,
            window: ArrivalWindow::default(),
            last_arrival: None,
        }
    }

    /// A Cassandra-like default: window 1000, initial mean = gossip
    /// interval, floor = half the interval, max accepted interval = 2x
    /// the interval.
    pub fn cassandra(gossip_interval: SimDuration) -> Self {
        Self::with_params(PhiParams::cassandra(gossip_interval))
    }

    /// Records a heartbeat arrival at `now`.
    ///
    /// A late (out-of-order) beat — `now` at or before the recorded
    /// last arrival — is ignored entirely: it contributes no window
    /// sample and does not move `last_arrival`, which is already at a
    /// later time.
    pub fn heartbeat(&mut self, now: SimTime) {
        match self.last_arrival {
            None => self.last_arrival = Some(now),
            Some(last) if now <= last => {}
            Some(last) => {
                self.window.record(now.since(last).as_nanos(), &self.params);
                self.last_arrival = Some(now);
            }
        }
    }

    /// Estimated mean inter-arrival, clamped to the floor. O(1): reads
    /// the running nanosecond sum maintained by [`Self::heartbeat`].
    pub fn mean_interval(&self) -> f64 {
        self.params
            .mean_interval(self.window.sum_ns, self.window.samples.len())
    }

    /// Reference implementation of [`Self::mean_interval`] that re-sums
    /// the window from scratch on every call (the pre-optimization
    /// behavior). Kept public so the differential proptests can pin
    /// exact `f64` equality between the two paths.
    pub fn mean_interval_naive(&self) -> f64 {
        let sum: u128 = self.window.samples.iter().map(|&ns| u128::from(ns)).sum();
        self.params.mean_interval(sum, self.window.samples.len())
    }

    /// Current suspicion level. Zero until the first heartbeat arrives.
    pub fn phi(&self, now: SimTime) -> f64 {
        let Some(last) = self.last_arrival else {
            return 0.0;
        };
        self.params.phi(
            self.window.sum_ns,
            self.window.samples.len(),
            now.since(last),
        )
    }

    /// When the last heartbeat arrived.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.last_arrival
    }

    /// Number of inter-arrival samples currently held.
    pub fn samples(&self) -> usize {
        self.window.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> PhiDetector {
        PhiDetector::cassandra(SimDuration::from_secs(1))
    }

    fn secs(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn silent_before_first_heartbeat() {
        let d = det();
        assert_eq!(d.phi(secs(100)), 0.0);
        assert!(d.last_arrival().is_none());
    }

    #[test]
    fn phi_grows_linearly_with_silence() {
        let mut d = det();
        for s in 0..10 {
            d.heartbeat(secs(s));
        }
        let p1 = d.phi(secs(12));
        let p2 = d.phi(secs(15));
        assert!(p2 > p1);
        // With 1s mean, phi(t) = t / ln10 ~ 0.434*t.
        let expect = 3.0 / std::f64::consts::LN_10;
        assert!((d.phi(secs(12)) - expect).abs() < 0.05, "phi {p1}");
    }

    #[test]
    fn phi_resets_on_heartbeat() {
        let mut d = det();
        for s in 0..10 {
            d.heartbeat(secs(s));
        }
        let suspicious = d.phi(secs(30));
        assert!(suspicious > 8.0);
        d.heartbeat(secs(30));
        assert!(d.phi(secs(30)) < 0.01);
    }

    #[test]
    fn threshold_8_means_about_18_intervals() {
        // phi = 8 at t = 8 * ln10 * mean ~ 18.4 mean intervals.
        let mut d = det();
        for s in 0..20 {
            d.heartbeat(secs(s));
        }
        let last = 19.0;
        let t_convict = 8.0 * std::f64::consts::LN_10; // seconds with mean 1s
        let just_before = from_secs_f64(last + t_convict - 0.2);
        let just_after = from_secs_f64(last + t_convict + 0.2);
        assert!(d.phi(just_before) < 8.0);
        assert!(d.phi(just_after) > 8.0);
    }

    #[test]
    fn faster_heartbeats_make_detector_more_sensitive() {
        let mut slow = det();
        let mut fast = det();
        for i in 0..20u64 {
            slow.heartbeat(SimTime::from_secs(i * 2));
            fast.heartbeat(SimTime::from_secs(i));
        }
        // Same absolute silence from each detector's own last arrival.
        let silence = SimDuration::from_secs(10);
        let p_slow = slow.phi(SimTime::from_secs(38) + silence);
        let p_fast = fast.phi(SimTime::from_secs(19) + silence);
        assert!(
            p_fast > p_slow,
            "fast ({p_fast}) should suspect sooner than slow ({p_slow})"
        );
    }

    #[test]
    fn mean_floor_prevents_hair_trigger() {
        let mut d = PhiDetector::new(
            100,
            SimDuration::from_secs(1),
            SimDuration::from_millis(500),
            SimDuration::from_secs(2),
        );
        // Burst of heartbeats 1ms apart would estimate a 1ms mean; the
        // floor keeps it at 500ms.
        for i in 0..50u64 {
            d.heartbeat(SimTime::from_millis(i));
        }
        assert!((d.mean_interval() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn window_is_bounded() {
        let mut d = PhiDetector::new(
            8,
            SimDuration::from_secs(1),
            SimDuration::from_millis(1),
            SimDuration::from_secs(2),
        );
        for s in 0..100 {
            d.heartbeat(secs(s));
        }
        assert_eq!(d.samples(), 8);
    }

    #[test]
    fn out_of_order_heartbeat_is_harmless() {
        let mut d = det();
        d.heartbeat(secs(10));
        d.heartbeat(secs(5)); // Late-arriving old beat.
        assert_eq!(d.last_arrival(), Some(secs(10)));
    }

    #[test]
    fn out_of_order_heartbeat_leaves_window_and_mean_untouched() {
        let mut ordered = det();
        let mut disordered = det();
        for s in 0..10 {
            ordered.heartbeat(secs(s));
            disordered.heartbeat(secs(s));
        }
        // A burst of stale beats: none may add a sample, move the
        // high-water mark, or perturb the mean.
        disordered.heartbeat(secs(4));
        disordered.heartbeat(secs(9)); // Duplicate of the latest beat.
        disordered.heartbeat(secs(0));
        assert_eq!(disordered.last_arrival(), Some(secs(9)));
        assert_eq!(disordered.samples(), ordered.samples());
        assert_eq!(
            disordered.mean_interval().to_bits(),
            ordered.mean_interval().to_bits()
        );
        // The next in-order beat measures from the retained high-water
        // mark, not from any of the stale arrivals.
        disordered.heartbeat(secs(10));
        ordered.heartbeat(secs(10));
        assert_eq!(disordered.samples(), ordered.samples());
        assert_eq!(
            disordered.phi(secs(12)).to_bits(),
            ordered.phi(secs(12)).to_bits()
        );
    }

    #[test]
    fn running_sum_matches_naive_resum_exactly() {
        let mut d = PhiDetector::new(
            16,
            SimDuration::from_secs(1),
            SimDuration::from_millis(1),
            SimDuration::from_secs(3),
        );
        let mut t = 0u64;
        for i in 0..200u64 {
            // Irregular gaps, some past max_interval (dropped), plus
            // enough beats to cycle the window many times over.
            t += 100_000_007 * (i % 37 + 1);
            d.heartbeat(SimTime::from_nanos(t));
            assert_eq!(
                d.mean_interval().to_bits(),
                d.mean_interval_naive().to_bits()
            );
        }
    }

    // Test-only helper: fractional-second construction.
    fn from_secs_f64(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }
}
