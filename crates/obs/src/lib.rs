//! `scalecheck-obs`: virtual-time tracing, profiling, and divergence
//! diagnosis.
//!
//! The paper's argument is diagnostic — colocated testing diverges from
//! real deployments because the calc stage starves the gossip stage —
//! so the repro needs more than flap counts: per-stage timelines,
//! queueing breakdowns, and a way to *attribute* a divergence between
//! two runs of the same scenario. This crate provides:
//!
//! * [`Tracer`] — span/instant/counter collection on the virtual clock
//!   ([`tracer`]), with interned [`SpanName`]s and slab-backed open
//!   spans;
//! * [`LogHistogram`] metrics ([`hist`]) keyed by [`Metric`];
//! * exporters — Chrome `trace_event` JSON loadable in Perfetto
//!   ([`chrome`]) and a text summary ([`summary`]);
//! * the divergence analyzer ([`diverge`]) ranking which subsystem's
//!   time inflated between two traces of the same scenario.
//!
//! # Runtime
//!
//! Emitters across the workspace (`sim`, `gossip`, `ring`, `cluster`)
//! call the free functions below, which consult a **thread-local**
//! tracer. A run installs a tracer before driving the engine and takes
//! it back afterwards; parallel sweep workers each carry their own, so
//! traces are identical at any `--jobs` level. When no tracer is
//! installed every emission site is one `Cell<bool>` load and a
//! predictable branch — no allocation, no locking (guarded by the
//! benchmark's exact `alloc.count_per_event` on its untraced workloads).
//!
//! This crate is a dependency leaf: timestamps are raw `u64` virtual
//! nanoseconds, converted from `SimTime` at the call site.

use std::cell::{Cell, RefCell};

pub mod chrome;
pub mod diverge;
pub mod hist;
pub mod names;
pub mod summary;
pub mod tracer;

pub use chrome::{from_chrome_json, to_chrome_json, write_chrome_json};
pub use diverge::{diverge, DivergenceReport, DivergenceRow};
pub use hist::LogHistogram;
pub use names::{Metric, SpanName, ENGINE_PID, METRIC_COUNT, TID_CALC, TID_GOSSIP, TID_REQUEST};
pub use summary::summarize;
pub use tracer::{
    CounterSample, InstantEvent, SpanEvent, SpanId, Trace, TraceConfig, TraceMeta, Tracer,
};

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Installs a tracer on this thread; subsequent emissions record into
/// it until [`take`]. Replaces any leftover tracer.
pub fn install(t: Tracer) {
    TRACER.with(|slot| *slot.borrow_mut() = Some(t));
    ENABLED.with(|e| e.set(true));
}

/// Removes and returns this thread's tracer, disabling emission.
pub fn take() -> Option<Tracer> {
    ENABLED.with(|e| e.set(false));
    TRACER.with(|slot| slot.borrow_mut().take())
}

/// Drops any installed tracer (e.g. one orphaned by a panicked run).
pub fn clear() {
    let _ = take();
}

/// Whether a tracer is installed on this thread. One `Cell` load —
/// this is the entire disabled-path cost of every emission site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Runs `f` against the installed tracer, if any.
#[inline]
pub fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    TRACER.with(|slot| slot.borrow_mut().as_mut().map(f))
}

/// Records a completed span `[ts, ts + dur)` if tracing is enabled.
#[inline]
pub fn span(name: SpanName, pid: u32, tid: u32, ts: u64, dur: u64, arg: u64) {
    if !enabled() {
        return;
    }
    with(|t| t.span_complete(name, pid, tid, ts, dur, arg));
}

/// Records a point event if tracing is enabled.
#[inline]
pub fn instant(name: SpanName, pid: u32, tid: u32, ts: u64, arg: u64) {
    if !enabled() {
        return;
    }
    with(|t| t.instant(name, pid, tid, ts, arg));
}

/// Records a counter sample if tracing is enabled.
#[inline]
pub fn counter(name: SpanName, pid: u32, tid: u32, ts: u64, value: u64) {
    if !enabled() {
        return;
    }
    with(|t| t.counter(name, pid, tid, ts, value));
}

/// Records a metric sample if tracing is enabled.
#[inline]
pub fn metric(m: Metric, v: u64) {
    if !enabled() {
        return;
    }
    with(|t| t.metric(m, v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emissions_are_dropped_when_no_tracer_is_installed() {
        clear();
        assert!(!enabled());
        span(SpanName::LockWait, 0, 0, 0, 5, 0);
        metric(Metric::LockWait, 5);
        assert!(take().is_none());
    }

    #[test]
    fn install_emit_take_round_trip() {
        install(Tracer::new());
        assert!(enabled());
        span(SpanName::GossipReceive, 1, TID_GOSSIP, 10, 5, 0);
        instant(SpanName::FdConvicted, 1, TID_GOSSIP, 12, 4);
        counter(SpanName::StageUtilization, 1, TID_CALC, 15, 500);
        metric(Metric::GossipDeltas, 3);
        let trace = take().expect("tracer installed").finish();
        assert!(!enabled());
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.instants.len(), 1);
        assert_eq!(trace.counters.len(), 1);
        assert_eq!(trace.metric(Metric::GossipDeltas).count, 1);
    }

    #[test]
    fn install_replaces_leftover_tracer() {
        install(Tracer::new());
        span(SpanName::LockWait, 0, 0, 0, 1, 0);
        install(Tracer::new());
        let trace = take().expect("second tracer").finish();
        assert!(trace.spans.is_empty(), "fresh tracer has no carryover");
        clear();
    }
}
