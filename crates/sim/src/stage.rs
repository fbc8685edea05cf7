//! SEDA-like serial stages.
//!
//! Cassandra processes gossip on a single-threaded stage; when a
//! scale-dependent computation blocks that stage, queued heartbeats go
//! unprocessed and peers get convicted — the core mechanism of the bugs in
//! §2. [`Stage`] models a serial work queue: at most one item is being
//! processed at a time, and the queueing delay of each item is recorded as
//! the stage's *event lateness* (§6/§8's colocation-bottleneck metric) —
//! the one measurement a stage keeps for the run report. Queue depth and
//! the same lateness samples also go to the `obs` tracer when one is
//! installed; utilization is not measured here (the cluster runner
//! samples the CPU demand it bills).

use std::collections::VecDeque;

use scalecheck_obs::LogHistogram;

use crate::time::SimTime;

/// A serial work queue with lateness accounting.
#[derive(Clone, Debug)]
pub struct Stage<T> {
    queue: VecDeque<(SimTime, T)>,
    busy: bool,
    lateness: LogHistogram,
}

impl<T> Default for Stage<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Stage<T> {
    /// Creates an empty, idle stage.
    pub fn new() -> Self {
        Stage {
            queue: VecDeque::new(),
            busy: false,
            lateness: LogHistogram::new(),
        }
    }

    /// Enqueues an item at time `now`.
    pub fn push(&mut self, now: SimTime, item: T) {
        self.queue.push_back((now, item));
        scalecheck_obs::metric(scalecheck_obs::Metric::QueueDepth, self.queue.len() as u64);
    }

    /// If the stage is idle and work is queued, dequeues the next item,
    /// marks the stage busy, and records the item's queueing delay.
    pub fn try_begin(&mut self, now: SimTime) -> Option<T> {
        if self.busy {
            return None;
        }
        let (enq_at, item) = self.queue.pop_front()?;
        self.busy = true;
        let late_ns = now.since(enq_at).as_nanos();
        self.lateness.record(late_ns);
        scalecheck_obs::metric(scalecheck_obs::Metric::StageLateness, late_ns);
        Some(item)
    }

    /// Marks the current item finished; the stage becomes idle.
    ///
    /// # Panics
    ///
    /// Panics if the stage was not busy.
    pub fn finish(&mut self) {
        assert!(self.busy, "finish() on an idle stage");
        self.busy = false;
    }

    /// Whether an item is currently being processed.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Number of queued (not yet started) items.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Queueing-delay histogram (event lateness), in nanoseconds.
    pub fn lateness(&self) -> &LogHistogram {
        &self.lateness
    }

    /// Drops all queued items, returning how many were discarded.
    pub fn clear(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn serial_processing_one_at_a_time() {
        let mut st = Stage::new();
        st.push(SimTime::ZERO, "a");
        st.push(SimTime::ZERO, "b");
        assert_eq!(st.try_begin(SimTime::ZERO), Some("a"));
        // Busy: no second item until finish.
        assert_eq!(st.try_begin(SimTime::ZERO), None);
        st.finish();
        assert_eq!(st.try_begin(SimTime::ZERO), Some("b"));
        st.finish();
        assert_eq!(st.try_begin(SimTime::ZERO), None);
    }

    #[test]
    fn lateness_measures_queueing_delay() {
        let mut st = Stage::new();
        st.push(SimTime::ZERO, 1u32);
        st.push(SimTime::ZERO, 2u32);
        st.try_begin(at_ms(0));
        st.finish();
        st.try_begin(at_ms(500));
        assert_eq!(st.lateness().max, 500_000_000);
        assert_eq!(st.lateness().count, 2);
    }

    #[test]
    #[should_panic(expected = "idle stage")]
    fn finish_when_idle_panics() {
        let mut st: Stage<u32> = Stage::new();
        st.finish();
    }

    #[test]
    fn clear_discards_queue() {
        let mut st = Stage::new();
        st.push(SimTime::ZERO, 1u32);
        st.push(SimTime::ZERO, 2u32);
        assert_eq!(st.clear(), 2);
        assert_eq!(st.depth(), 0);
        assert_eq!(st.try_begin(SimTime::ZERO), None);
    }
}
