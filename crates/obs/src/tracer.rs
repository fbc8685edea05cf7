//! The tracer: span collection on the simulator's virtual clock.
//!
//! All timestamps are raw `u64` nanoseconds of virtual time so this
//! crate stays a leaf (no dependency on `scalecheck-sim`); emitters
//! convert from `SimTime` at the call site.
//!
//! Determinism contract: a [`Trace`] is a pure function of the emission
//! call sequence. Events are stored in emission order, names are `u16`
//! codes, and every field is an integer — so `serde_json::to_string`
//! of the same (config, seed) run is byte-identical across processes,
//! thread counts, and builds.

use serde::{Deserialize, Serialize};

use crate::hist::LogHistogram;
use crate::names::{Metric, METRIC_COUNT};

/// Tracing knobs carried by `ScenarioConfig`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceConfig {
    /// Master switch; when false no tracer is installed and every
    /// emission site reduces to one thread-local flag check.
    pub enabled: bool,
    /// Virtual-time cadence of the per-stage utilization sampler, in
    /// nanoseconds.
    pub sample_every_ns: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            sample_every_ns: 5_000_000_000,
        }
    }
}

impl TraceConfig {
    /// An enabled config with the default sampling cadence.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// A completed span: `[ts, ts + dur)` on track `(pid, tid)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// [`crate::SpanName`] discriminant.
    pub name: u16,
    /// Process (node index, or [`crate::ENGINE_PID`]).
    pub pid: u32,
    /// Track within the process (stage).
    pub tid: u32,
    /// Start, virtual ns.
    pub ts: u64,
    /// Duration, virtual ns.
    pub dur: u64,
    /// Name-specific payload (op count, peer id, ...).
    pub arg: u64,
}

/// A point event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InstantEvent {
    /// [`crate::SpanName`] discriminant.
    pub name: u16,
    /// Process (node index).
    pub pid: u32,
    /// Track within the process.
    pub tid: u32,
    /// Virtual ns.
    pub ts: u64,
    /// Name-specific payload.
    pub arg: u64,
}

/// One sample of a counter series (utilization, event rate).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// [`crate::SpanName`] discriminant.
    pub name: u16,
    /// Process (node index, or [`crate::ENGINE_PID`]).
    pub pid: u32,
    /// Track within the process.
    pub tid: u32,
    /// Virtual ns.
    pub ts: u64,
    /// Sample value (permille for utilization, count for rates).
    pub value: u64,
}

/// Run identity and engine counters stamped into a finished trace.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Human label for the run (bug id, mode).
    pub label: String,
    /// Engine RNG seed.
    pub seed: u64,
    /// Cluster size.
    pub n_nodes: u32,
    /// Virtual time when the run ended, ns.
    pub end_ns: u64,
    /// Engine events scheduled.
    pub engine_scheduled: u64,
    /// Engine events fired.
    pub engine_fired: u64,
    /// Engine events cancelled before firing.
    pub engine_cancelled: u64,
    /// Slab-pool slot reuses.
    pub engine_pool_hits: u64,
    /// Slab-pool slot growths.
    pub engine_pool_misses: u64,
}

/// A finished trace: meta, events in emission order, and the fixed
/// metric histogram array.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Run identity and engine counters.
    pub meta: TraceMeta,
    /// Completed spans in completion order.
    pub spans: Vec<SpanEvent>,
    /// Point events in emission order.
    pub instants: Vec<InstantEvent>,
    /// Counter samples in emission order.
    pub counters: Vec<CounterSample>,
    /// One histogram per [`Metric`], in discriminant order.
    pub metrics: Vec<LogHistogram>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            meta: TraceMeta::default(),
            spans: Vec::new(),
            instants: Vec::new(),
            counters: Vec::new(),
            metrics: vec![LogHistogram::new(); METRIC_COUNT],
        }
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram for `m`. Tolerates traces from older builds with
    /// fewer metric slots by returning an empty histogram.
    pub fn metric(&self, m: Metric) -> LogHistogram {
        self.metrics.get(m as usize).cloned().unwrap_or_default()
    }

    /// Whether the trace recorded anything at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.instants.is_empty()
            && self.counters.is_empty()
            && self.metrics.iter().all(|h| h.count == 0)
    }

    /// Total duration of spans with the given name code.
    pub fn span_total_ns(&self, name: crate::SpanName) -> u64 {
        let code = name as u16;
        self.spans
            .iter()
            .filter(|s| s.name == code)
            .fold(0u64, |acc, s| acc.saturating_add(s.dur))
    }
}

/// Handle to an open span (slab slot + generation; stale ends panic in
/// debug and are dropped in release).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId {
    idx: u32,
    gen: u32,
}

#[derive(Clone, Copy)]
struct OpenSlot {
    name: u16,
    pid: u32,
    tid: u32,
    ts: u64,
    gen: u32,
    live: bool,
}

/// Collects spans, instants, counters, and metric samples for one run.
///
/// The open-span table is a slab with a free list: `span_start` /
/// `span_end` recycle slots, so steady-state tracing does not grow the
/// table. Completed events append to plain `Vec`s (amortized growth,
/// no per-event boxing).
pub struct Tracer {
    trace: Trace,
    open: Vec<OpenSlot>,
    free: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh tracer with empty storage.
    pub fn new() -> Self {
        Tracer {
            trace: Trace::new(),
            open: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Opens a span at `ts`; close it with [`Tracer::span_end`].
    pub fn span_start(&mut self, name: crate::SpanName, pid: u32, tid: u32, ts: u64) -> SpanId {
        let slot = OpenSlot {
            name: name as u16,
            pid,
            tid,
            ts,
            gen: 0,
            live: true,
        };
        match self.free.pop() {
            Some(idx) => {
                let s = &mut self.open[idx as usize];
                let gen = s.gen.wrapping_add(1);
                *s = OpenSlot { gen, ..slot };
                SpanId { idx, gen }
            }
            None => {
                let idx = self.open.len() as u32;
                self.open.push(slot);
                SpanId { idx, gen: 0 }
            }
        }
    }

    /// Closes an open span at `end_ts` with payload `arg`. Stale or
    /// double ends are ignored (debug-asserted).
    pub fn span_end(&mut self, id: SpanId, end_ts: u64, arg: u64) {
        let Some(s) = self.open.get_mut(id.idx as usize) else {
            debug_assert!(false, "span_end on unknown slot");
            return;
        };
        if !s.live || s.gen != id.gen {
            debug_assert!(false, "span_end on stale SpanId");
            return;
        }
        s.live = false;
        let slot = *s;
        self.free.push(id.idx);
        self.trace.spans.push(SpanEvent {
            name: slot.name,
            pid: slot.pid,
            tid: slot.tid,
            ts: slot.ts,
            dur: end_ts.saturating_sub(slot.ts),
            arg,
        });
    }

    /// Records a span whose end time is already known.
    #[inline]
    pub fn span_complete(
        &mut self,
        name: crate::SpanName,
        pid: u32,
        tid: u32,
        ts: u64,
        dur: u64,
        arg: u64,
    ) {
        self.trace.spans.push(SpanEvent {
            name: name as u16,
            pid,
            tid,
            ts,
            dur,
            arg,
        });
    }

    /// Records a point event.
    #[inline]
    pub fn instant(&mut self, name: crate::SpanName, pid: u32, tid: u32, ts: u64, arg: u64) {
        self.trace.instants.push(InstantEvent {
            name: name as u16,
            pid,
            tid,
            ts,
            arg,
        });
    }

    /// Records a counter sample.
    #[inline]
    pub fn counter(&mut self, name: crate::SpanName, pid: u32, tid: u32, ts: u64, value: u64) {
        self.trace.counters.push(CounterSample {
            name: name as u16,
            pid,
            tid,
            ts,
            value,
        });
    }

    /// Records a metric sample into its histogram.
    #[inline]
    pub fn metric(&mut self, m: Metric, v: u64) {
        self.trace.metrics[m as usize].record(v);
    }

    /// Finishes collection and returns the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanName;

    #[test]
    fn start_end_produces_a_span() {
        let mut t = Tracer::new();
        let id = t.span_start(SpanName::EngineRun, 3, 1, 100);
        t.span_end(id, 350, 7);
        let tr = t.finish();
        assert_eq!(tr.spans.len(), 1);
        let s = tr.spans[0];
        assert_eq!(
            (s.name, s.pid, s.tid, s.ts, s.dur, s.arg),
            (SpanName::EngineRun as u16, 3, 1, 100, 250, 7)
        );
    }

    #[test]
    fn slab_recycles_slots() {
        let mut t = Tracer::new();
        for i in 0..1000u64 {
            let id = t.span_start(SpanName::LockWait, 0, 0, i);
            t.span_end(id, i + 1, 0);
        }
        assert_eq!(t.open.len(), 1, "sequential spans reuse one slot");
        assert_eq!(t.finish().spans.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "stale SpanId")]
    #[cfg(debug_assertions)]
    fn double_end_is_caught_in_debug() {
        let mut t = Tracer::new();
        let id = t.span_start(SpanName::LockWait, 0, 0, 0);
        t.span_end(id, 1, 0);
        t.span_end(id, 2, 0);
    }

    #[test]
    fn metric_lands_in_the_right_histogram() {
        let mut t = Tracer::new();
        t.metric(Metric::LockWait, 1024);
        t.metric(Metric::NetDelay, 1);
        let tr = t.finish();
        assert_eq!(tr.metric(Metric::LockWait).count, 1);
        assert_eq!(tr.metric(Metric::LockWait).max, 1024);
        assert_eq!(tr.metric(Metric::NetDelay).count, 1);
        assert_eq!(tr.metric(Metric::LockHold).count, 0);
    }

    #[test]
    fn trace_json_round_trips() {
        let mut t = Tracer::new();
        t.span_complete(SpanName::CalcRecalculate, 2, 1, 10, 90, 42);
        t.instant(SpanName::FdConvicted, 0, 0, 55, 9);
        t.counter(SpanName::StageUtilization, 1, 0, 5_000_000_000, 870);
        t.metric(Metric::CalcOps, 42);
        let mut tr = t.finish();
        tr.meta.label = "unit".to_string();
        tr.meta.seed = 7;
        let json = serde_json::to_string(&tr).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tr);
        // Serialization is deterministic.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn span_total_sums_by_name() {
        let mut t = Tracer::new();
        t.span_complete(SpanName::GossipReceive, 0, 0, 0, 10, 0);
        t.span_complete(SpanName::GossipReceive, 1, 0, 5, 20, 0);
        t.span_complete(SpanName::CalcRecalculate, 0, 1, 0, 99, 0);
        let tr = t.finish();
        assert_eq!(tr.span_total_ns(SpanName::GossipReceive), 30);
        assert_eq!(tr.span_total_ns(SpanName::CalcRecalculate), 99);
        assert_eq!(tr.span_total_ns(SpanName::LockWait), 0);
    }
}
