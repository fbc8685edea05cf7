//! Lightweight metrics used across the simulator: engine event counters
//! and time series. (Histograms live in `scalecheck_obs`.)

use serde::Serialize;

use crate::time::SimTime;

/// Scheduler-level event accounting for one [`crate::Engine`].
///
/// `pool_hits`/`pool_misses` track event-storage reuse: a hit means the
/// event was stored in a recycled slab slot (no allocation for the slot
/// itself), a miss means fresh storage was grown. Both schedulers store
/// events in the same slab, which reaches a 100% hit rate in steady
/// state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct EngineCounters {
    /// Events ever scheduled (including later-cancelled ones).
    pub scheduled: u64,
    /// Events whose callback ran.
    pub fired: u64,
    /// Events removed via [`crate::Engine::cancel`] before firing.
    pub cancelled: u64,
    /// Schedules that reused a free slab slot.
    pub pool_hits: u64,
    /// Schedules that grew fresh event storage.
    pub pool_misses: u64,
}

impl EngineCounters {
    /// Events still pending (scheduled minus fired minus cancelled).
    pub fn pending(&self) -> u64 {
        self.scheduled - self.fired - self.cancelled
    }
}

/// A timestamped series of float samples (e.g. flap counts over time).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample; timestamps must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(lt, _)| lt <= t),
            "time series must be appended in order"
        );
        self.points.push((t, v));
    }

    /// All samples, in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_tracks_points() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        s.push(SimTime::from_secs(1), 1.0);
        s.push(SimTime::from_secs(2), 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points()[1], (SimTime::from_secs(2), 3.0));
    }
}
