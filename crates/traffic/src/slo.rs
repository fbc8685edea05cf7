//! Service-level objectives: latency targets, availability floors, and
//! the error-budget accountant.
//!
//! A request is **good** when it succeeds within the latency target;
//! everything else — failures and over-target successes — burns error
//! budget. The budget is the availability floor's complement: a 99.9 %
//! floor allows 1 bad request per thousand, and `burned_permille`
//! against `allowed_permille` is the verdict production pages on.

use scalecheck_obs::LogHistogram;
use scalecheck_sim::SimDuration;
use serde::Serialize;

/// The objective one cell is held to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct SloTarget {
    /// Latency target: a good request completes within this.
    pub latency_target: SimDuration,
    /// Availability floor in permille (999 = 99.9 %).
    pub availability_floor_permille: u32,
}

impl Default for SloTarget {
    fn default() -> Self {
        SloTarget {
            latency_target: SimDuration::from_millis(100),
            availability_floor_permille: 999,
        }
    }
}

/// Weighted good/bad accounting against an [`SloTarget`].
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ErrorBudget {
    /// Total requests accounted (weighted).
    pub total: u64,
    /// Requests that failed outright (weighted).
    pub failed: u64,
    /// Successes that exceeded the latency target (weighted).
    pub slow: u64,
}

impl ErrorBudget {
    /// Accounts `weight` requests that completed in `latency`;
    /// `ok` = false marks outright failures.
    pub fn account(&mut self, target: &SloTarget, ok: bool, latency: SimDuration, weight: u64) {
        self.total = self.total.saturating_add(weight);
        if !ok {
            self.failed = self.failed.saturating_add(weight);
        } else if latency > target.latency_target {
            self.slow = self.slow.saturating_add(weight);
        }
    }

    /// Bad requests (failed or slow), weighted.
    pub fn bad(&self) -> u64 {
        self.failed.saturating_add(self.slow)
    }

    /// Budget burned, in permille of total requests (0 when idle).
    pub fn burned_permille(&self) -> u32 {
        if self.total == 0 {
            return 0;
        }
        ((self.bad() as u128 * 1000 / self.total as u128) as u64).min(1000) as u32
    }

    /// Budget allowed by the floor, in permille.
    pub fn allowed_permille(target: &SloTarget) -> u32 {
        1000 - target.availability_floor_permille.min(1000)
    }

    /// Whether the burn exceeds the floor's allowance.
    pub fn breached(&self, target: &SloTarget) -> bool {
        self.total > 0 && self.burned_permille() > Self::allowed_permille(target)
    }
}

/// One cell's user-visible outcome, condensed for verdicts and tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloSummary {
    /// Median request latency (ns, log-bucket upper bound).
    pub p50_ns: u64,
    /// 99th-percentile request latency (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile request latency (ns).
    pub p999_ns: u64,
    /// Whether the p99.9 estimate is saturated: it landed in the
    /// histogram bucket holding the largest recorded latency (typically
    /// the client timeout), so the tail beyond it is unresolved and the
    /// reported value is the observed max, not a within-bucket bound.
    pub tail_saturated: bool,
    /// Successful fraction in permille of weighted requests.
    pub availability_permille: u32,
    /// Error budget burned, in permille.
    pub budget_burned_permille: u32,
    /// Whether the burn breached the availability floor's allowance.
    pub budget_breached: bool,
    /// Weighted requests behind the summary (0 = traffic off).
    pub attempted: u64,
}

impl SloSummary {
    /// Condenses a latency histogram plus budget accounting.
    pub fn from_parts(hist: &LogHistogram, budget: &ErrorBudget, target: &SloTarget) -> Self {
        let availability = if budget.total == 0 {
            1000
        } else {
            ((budget.total - budget.failed) as u128 * 1000 / budget.total as u128) as u32
        };
        SloSummary {
            p50_ns: hist.quantile_permille(500),
            p99_ns: hist.quantile_permille(990),
            p999_ns: hist.quantile_permille(999),
            tail_saturated: hist.quantile_saturated(999),
            availability_permille: availability,
            budget_burned_permille: budget.burned_permille(),
            budget_breached: budget.breached(target),
            attempted: budget.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target() -> SloTarget {
        SloTarget {
            latency_target: SimDuration::from_millis(10),
            availability_floor_permille: 990,
        }
    }

    #[test]
    fn budget_counts_failures_and_slow_successes() {
        let t = target();
        let mut b = ErrorBudget::default();
        b.account(&t, true, SimDuration::from_millis(1), 900);
        b.account(&t, true, SimDuration::from_millis(50), 50);
        b.account(&t, false, SimDuration::from_secs(2), 50);
        assert_eq!(b.total, 1000);
        assert_eq!(b.failed, 50);
        assert_eq!(b.slow, 50);
        assert_eq!(b.burned_permille(), 100);
        assert_eq!(ErrorBudget::allowed_permille(&t), 10);
        assert!(b.breached(&t));
    }

    #[test]
    fn healthy_traffic_stays_inside_budget() {
        let t = target();
        let mut b = ErrorBudget::default();
        for _ in 0..100 {
            b.account(&t, true, SimDuration::from_millis(2), 10);
        }
        assert_eq!(b.burned_permille(), 0);
        assert!(!b.breached(&t));
    }

    #[test]
    fn empty_budget_never_breaches() {
        assert!(!ErrorBudget::default().breached(&target()));
        assert_eq!(ErrorBudget::default().burned_permille(), 0);
    }

    #[test]
    fn summary_condenses_hist_and_budget() {
        let t = target();
        let mut h = LogHistogram::new();
        let mut b = ErrorBudget::default();
        for _ in 0..999 {
            h.record(1_000_000);
            b.account(&t, true, SimDuration::from_millis(1), 1);
        }
        h.record(8_000_000_000);
        b.account(&t, false, SimDuration::from_secs(8), 1);
        let s = SloSummary::from_parts(&h, &b, &t);
        assert!(s.p50_ns >= 1_000_000 && s.p50_ns < 2_100_000);
        assert!(s.p999_ns >= 1_000_000);
        assert!(s.p999_ns < s.p999_ns.max(h.max) + 1);
        assert_eq!(s.availability_permille, 999);
        assert_eq!(s.attempted, 1000);
    }
}
