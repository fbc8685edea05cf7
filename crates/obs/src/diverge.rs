//! Divergence analyzer: attribute the gap between two traces of the
//! same scenario.
//!
//! Given trace A (the reference deployment, e.g. Real) and trace B
//! (the suspect, e.g. Colo), it ranks *where the time went*: which
//! stage's span totals inflated, how much of the gossip-stage delay is
//! queueing vs CPU contention vs lock wait, and how much suspect-trace
//! stage time overlaps the failure-detector flap windows. This is the
//! paper's §6 diagnosis — Colo's calc stage inflates and starves the
//! gossip stage past the φ-detector window — done mechanically.
//!
//! Attribution follows the causal arrow, not the victim: when tasks
//! sit in stage or CPU queues, that wait is *charged to the stage
//! occupying the processor*, proportional to the sampled busy-time
//! share (the `StageUtilization` counter series). A gossip round that
//! waits 8 s behind an O(n³) recalculation shows up as calc time, not
//! gossip time — exactly the off-CPU-profiler convention, and the only
//! reading under which "gossip got slow" points at its cause. Traces
//! without utilization samples (e.g. hand-built unit fixtures) fall
//! back to an unattributed standalone `queueing` row.
//!
//! Totals are raw virtual-nanosecond sums, so a longer suspect run
//! shows up as inflation (that *is* the signal: contention stretches
//! the same workload), and a category is flagged only above both a
//! ratio and an absolute floor so tiny categories cannot top the
//! ranking on noise. Rows are ranked by absolute inflation, not ratio:
//! a 600x blow-up of a 50 s category matters less than a 20x blow-up
//! of a 15 000 s one.

use std::fmt::Write as _;

use crate::names::{Metric, SpanName};
use crate::tracer::Trace;

/// Minimum B/A ratio (in milli, 1500 = 1.5x) to flag a category.
pub const RATIO_MILLI_TOLERANCE: u64 = 1500;
/// Minimum absolute inflation (virtual ns) to flag a category.
pub const ABS_NS_TOLERANCE: u64 = 5_000_000_000;
/// Half-width of the window drawn around each conviction instant.
pub const FLAP_WINDOW_HALF_NS: u64 = 2_000_000_000;

/// One ranked attribution row.
#[derive(Clone, Debug, PartialEq)]
pub struct DivergenceRow {
    /// Category label (`calc`, `gossip`, `lock`, `net`, a `gossip.*`
    /// breakdown component, or `queueing` in the unattributed
    /// fallback). `calc` includes its charged share of wait time when
    /// attribution ran.
    pub category: String,
    /// Total virtual ns in trace A.
    pub a_total_ns: u64,
    /// Total virtual ns in trace B.
    pub b_total_ns: u64,
    /// `b - a` (the inflation; negative means B shrank).
    pub inflation_ns: i64,
    /// `b / a` in milli (1000 = parity); `u64::MAX` when A is zero but
    /// B is not.
    pub ratio_milli: u64,
    /// Whether the row clears both tolerance thresholds.
    pub above_tolerance: bool,
}

impl DivergenceRow {
    fn build(category: &str, a: u64, b: u64) -> Self {
        let ratio_milli = match b.saturating_mul(1000).checked_div(a) {
            Some(r) => r,
            None if b == 0 => 1000,
            None => u64::MAX,
        };
        let inflation_ns = b as i64 - a as i64;
        DivergenceRow {
            category: category.to_string(),
            a_total_ns: a,
            b_total_ns: b,
            inflation_ns,
            ratio_milli,
            above_tolerance: ratio_milli >= RATIO_MILLI_TOLERANCE
                && inflation_ns >= ABS_NS_TOLERANCE as i64,
        }
    }
}

/// How stage/CPU wait time was charged to the compute stages.
///
/// `wait = StageLateness + CpuQueueDelay` metric sums; each trace's
/// wait pool is split between calc and gossip by that trace's own
/// sampled busy-time share.
#[derive(Clone, Debug, PartialEq)]
pub struct WaitAttribution {
    /// Total wait in trace A, virtual ns.
    pub wait_a_ns: u64,
    /// Total wait in trace B, virtual ns.
    pub wait_b_ns: u64,
    /// Calc's busy-time share in A, milli (1000 = all calc).
    pub calc_share_a_milli: u64,
    /// Calc's busy-time share in B, milli.
    pub calc_share_b_milli: u64,
}

/// Suspect-trace time overlapping flap windows, per category.
#[derive(Clone, Debug, PartialEq)]
pub struct FlapOverlapRow {
    /// Category label.
    pub category: String,
    /// Span time of trace B inside the flap windows, virtual ns.
    pub overlap_ns: u64,
    /// Fraction of the category's trace-B time inside windows, permille.
    pub overlap_permille: u64,
}

/// The full analyzer output.
#[derive(Clone, Debug, PartialEq)]
pub struct DivergenceReport {
    /// Label of trace A (the reference).
    pub a_label: String,
    /// Label of trace B (the suspect).
    pub b_label: String,
    /// Attribution rows sorted by inflation, largest first.
    pub rows: Vec<DivergenceRow>,
    /// Wait-charging detail; `None` when either trace lacks
    /// utilization samples (then `rows` carries a `queueing` row).
    pub wait_attribution: Option<WaitAttribution>,
    /// Gossip-stage delay split: queueing vs contention vs lock wait.
    pub gossip_breakdown: Vec<DivergenceRow>,
    /// Merged ±2s windows around trace-B convictions.
    pub flap_windows: u64,
    /// Overlap of suspect stage time with those windows.
    pub flap_overlap: Vec<FlapOverlapRow>,
}

impl DivergenceReport {
    /// The top-ranked category above tolerance, if any.
    pub fn top(&self) -> Option<&DivergenceRow> {
        self.rows.iter().find(|r| r.above_tolerance)
    }

    /// Whether any category cleared tolerance.
    pub fn diverged(&self) -> bool {
        self.top().is_some()
    }

    /// Renders the report as a plain-text table (see [`render`]).
    pub fn render(&self) -> String {
        render(self)
    }
}

fn span_total(trace: &Trace, names: &[SpanName]) -> u64 {
    names
        .iter()
        .fold(0u64, |acc, n| acc.saturating_add(trace.span_total_ns(*n)))
}

/// Merged `[start, end)` windows around each conviction in `trace`.
fn flap_windows(trace: &Trace) -> Vec<(u64, u64)> {
    let code = SpanName::FdConvicted as u16;
    let mut points: Vec<u64> = trace
        .instants
        .iter()
        .filter(|i| i.name == code)
        .map(|i| i.ts)
        .collect();
    points.sort_unstable();
    let mut windows: Vec<(u64, u64)> = Vec::new();
    for p in points {
        let (s, e) = (
            p.saturating_sub(FLAP_WINDOW_HALF_NS),
            p.saturating_add(FLAP_WINDOW_HALF_NS),
        );
        match windows.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => windows.push((s, e)),
        }
    }
    windows
}

fn overlap_with_windows(trace: &Trace, names: &[SpanName], windows: &[(u64, u64)]) -> (u64, u64) {
    let codes: Vec<u16> = names.iter().map(|n| *n as u16).collect();
    let mut total = 0u64;
    let mut overlap = 0u64;
    for s in &trace.spans {
        if !codes.contains(&s.name) {
            continue;
        }
        total = total.saturating_add(s.dur);
        let (b, e) = (s.ts, s.ts + s.dur);
        // First window that could intersect: the last with start <= e.
        let i = windows.partition_point(|w| w.1 <= b);
        for w in &windows[i..] {
            if w.0 >= e {
                break;
            }
            overlap += e.min(w.1).saturating_sub(b.max(w.0));
        }
    }
    (overlap, (overlap * 1000).checked_div(total).unwrap_or(0))
}

const CALC_SPANS: [SpanName; 2] = [SpanName::CalcRecalculate, SpanName::CalcPilSleep];
const GOSSIP_SPANS: [SpanName; 2] = [SpanName::GossipSendRound, SpanName::GossipReceive];

/// Calc's share of the sampled busy time, in milli. `None` when the
/// trace has no utilization samples (or they are all zero).
fn calc_busy_share_milli(trace: &Trace) -> Option<u64> {
    let code = SpanName::StageUtilization as u16;
    let (mut calc, mut total) = (0u64, 0u64);
    for c in trace.counters.iter().filter(|c| c.name == code) {
        total = total.saturating_add(c.value);
        if c.tid == crate::names::TID_CALC {
            calc = calc.saturating_add(c.value);
        }
    }
    (total > 0).then(|| calc * 1000 / total)
}

/// Stage-queue plus CPU-queue wait recorded by the trace, virtual ns.
fn wait_total(trace: &Trace) -> u64 {
    trace
        .metric(Metric::StageLateness)
        .sum
        .saturating_add(trace.metric(Metric::CpuQueueDelay).sum)
}

/// Compares trace B (suspect) against trace A (reference).
pub fn diverge(a: &Trace, b: &Trace) -> DivergenceReport {
    // Charge wait time to the stage occupying the processor. Without
    // busy samples on both sides the wait stays its own row.
    let wait_attribution = match (calc_busy_share_milli(a), calc_busy_share_milli(b)) {
        (Some(sa), Some(sb)) => Some(WaitAttribution {
            wait_a_ns: wait_total(a),
            wait_b_ns: wait_total(b),
            calc_share_a_milli: sa,
            calc_share_b_milli: sb,
        }),
        _ => None,
    };
    let (calc_charged_a, calc_charged_b) = match &wait_attribution {
        Some(w) => (
            w.wait_a_ns.saturating_mul(w.calc_share_a_milli) / 1000,
            w.wait_b_ns.saturating_mul(w.calc_share_b_milli) / 1000,
        ),
        None => (0, 0),
    };

    let mut rows = vec![
        DivergenceRow::build(
            "calc",
            span_total(a, &CALC_SPANS).saturating_add(calc_charged_a),
            span_total(b, &CALC_SPANS).saturating_add(calc_charged_b),
        ),
        DivergenceRow::build(
            "gossip",
            span_total(a, &GOSSIP_SPANS),
            span_total(b, &GOSSIP_SPANS),
        ),
        DivergenceRow::build(
            "lock",
            a.metric(Metric::LockWait).sum,
            b.metric(Metric::LockWait).sum,
        ),
        DivergenceRow::build(
            "net",
            a.metric(Metric::NetDelay).sum,
            b.metric(Metric::NetDelay).sum,
        ),
    ];
    if wait_attribution.is_none() {
        rows.push(DivergenceRow::build(
            "queueing",
            a.metric(Metric::StageLateness).sum,
            b.metric(Metric::StageLateness).sum,
        ));
    }
    rows.sort_by_key(|row| std::cmp::Reverse(row.inflation_ns));

    let gossip_breakdown = vec![
        DivergenceRow::build(
            "gossip.queueing",
            a.metric(Metric::StageLateness).sum,
            b.metric(Metric::StageLateness).sum,
        ),
        DivergenceRow::build(
            "gossip.contention",
            a.metric(Metric::CpuQueueDelay).sum,
            b.metric(Metric::CpuQueueDelay).sum,
        ),
        DivergenceRow::build(
            "gossip.lock_wait",
            a.metric(Metric::LockWait).sum,
            b.metric(Metric::LockWait).sum,
        ),
    ];

    let windows = flap_windows(b);
    let mut flap_overlap = Vec::new();
    for (label, names) in [("calc", &CALC_SPANS[..]), ("gossip", &GOSSIP_SPANS[..])] {
        let (overlap_ns, overlap_permille) = overlap_with_windows(b, names, &windows);
        flap_overlap.push(FlapOverlapRow {
            category: label.to_string(),
            overlap_ns,
            overlap_permille,
        });
    }

    DivergenceReport {
        a_label: a.meta.label.clone(),
        b_label: b.meta.label.clone(),
        rows,
        wait_attribution,
        gossip_breakdown,
        flap_windows: windows.len() as u64,
        flap_overlap,
    }
}

fn fmt_s(ns: u64) -> String {
    format!(
        "{}.{:03}s",
        ns / 1_000_000_000,
        (ns % 1_000_000_000) / 1_000_000
    )
}

fn fmt_ratio(milli: u64) -> String {
    if milli == u64::MAX {
        "inf".to_string()
    } else {
        format!("{}.{:02}x", milli / 1000, (milli % 1000) / 10)
    }
}

/// Renders the report as a plain-text table.
pub fn render(r: &DivergenceReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "divergence: A={:?} (reference) vs B={:?} (suspect)",
        r.a_label, r.b_label
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>12} {:>8}  flag",
        "category", "A total", "B total", "inflation", "ratio"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>+11}s {:>8}  {}",
            row.category,
            fmt_s(row.a_total_ns),
            fmt_s(row.b_total_ns),
            row.inflation_ns / 1_000_000_000,
            fmt_ratio(row.ratio_milli),
            if row.above_tolerance { "DIVERGED" } else { "-" }
        );
    }
    if let Some(w) = &r.wait_attribution {
        let _ = writeln!(
            out,
            "stage/cpu wait charged by busy share: A {} (calc {}\u{2030}), B {} (calc {}\u{2030})",
            fmt_s(w.wait_a_ns),
            w.calc_share_a_milli,
            fmt_s(w.wait_b_ns),
            w.calc_share_b_milli
        );
    }
    let _ = writeln!(out, "gossip-stage delay breakdown (B vs A):");
    for row in &r.gossip_breakdown {
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>8}",
            row.category,
            fmt_s(row.a_total_ns),
            fmt_s(row.b_total_ns),
            fmt_ratio(row.ratio_milli)
        );
    }
    let _ = writeln!(out, "flap windows in B: {}", r.flap_windows);
    for f in &r.flap_overlap {
        let _ = writeln!(
            out,
            "  {:<16} {:>12} inside windows ({} permille of stage time)",
            f.category,
            fmt_s(f.overlap_ns),
            f.overlap_permille
        );
    }
    match r.top() {
        Some(t) => {
            let _ = writeln!(
                out,
                "verdict: top-ranked divergence is {:?} (+{}, {})",
                t.category,
                fmt_s(t.inflation_ns.max(0) as u64),
                fmt_ratio(t.ratio_milli)
            );
        }
        None => {
            let _ = writeln!(out, "verdict: no category above tolerance (traces agree)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{TID_CALC, TID_GOSSIP};
    use crate::Tracer;

    fn trace_with(calc_s: u64, gossip_s: u64, convictions: &[u64]) -> Trace {
        let mut t = Tracer::new();
        t.span_complete(
            SpanName::CalcRecalculate,
            0,
            TID_CALC,
            1_000_000_000,
            calc_s * 1_000_000_000,
            calc_s,
        );
        t.span_complete(
            SpanName::GossipSendRound,
            0,
            TID_GOSSIP,
            0,
            gossip_s * 1_000_000_000,
            1,
        );
        for &c in convictions {
            t.instant(SpanName::FdConvicted, 0, TID_GOSSIP, c, 1);
        }
        t.finish()
    }

    #[test]
    fn calc_inflation_tops_the_ranking() {
        let a = trace_with(10, 5, &[]);
        let b = trace_with(100, 6, &[2_000_000_000]);
        let r = diverge(&a, &b);
        assert!(r.diverged());
        assert_eq!(r.top().unwrap().category, "calc");
        assert_eq!(r.rows[0].category, "calc");
        assert_eq!(r.rows[0].inflation_ns, 90 * 1_000_000_000);
        assert!(r.rows[0].ratio_milli >= 10_000);
    }

    #[test]
    fn parity_traces_rank_nothing() {
        let a = trace_with(10, 5, &[]);
        let b = trace_with(11, 5, &[]);
        let r = diverge(&a, &b);
        assert!(!r.diverged(), "1.1x / 1s is under both tolerances");
        assert!(r.top().is_none());
    }

    #[test]
    fn small_categories_need_the_absolute_floor() {
        // 10x ratio but only 90ns of inflation: not flagged.
        let mut ta = Tracer::new();
        ta.span_complete(SpanName::CalcRecalculate, 0, TID_CALC, 0, 10, 0);
        let mut tb = Tracer::new();
        tb.span_complete(SpanName::CalcRecalculate, 0, TID_CALC, 0, 100, 0);
        let r = diverge(&ta.finish(), &tb.finish());
        assert!(!r.diverged());
    }

    #[test]
    fn wait_is_charged_to_the_busy_stage() {
        // A: light load — 10s of calc, 1s of gossip, 1s of wait.
        let mut ta = Tracer::new();
        ta.span_complete(
            SpanName::CalcRecalculate,
            0,
            TID_CALC,
            0,
            10_000_000_000,
            100,
        );
        ta.span_complete(
            SpanName::GossipSendRound,
            0,
            TID_GOSSIP,
            0,
            1_000_000_000,
            1,
        );
        ta.counter(SpanName::StageUtilization, 0, TID_CALC, 5_000_000_000, 900);
        ta.counter(
            SpanName::StageUtilization,
            0,
            TID_GOSSIP,
            5_000_000_000,
            100,
        );
        ta.metric(Metric::StageLateness, 1_000_000_000);
        // B: gossip spans balloon to 50s as *victims* of 300s of queue
        // wait behind calc, which holds 95% of the busy time.
        let mut tb = Tracer::new();
        tb.span_complete(
            SpanName::CalcRecalculate,
            0,
            TID_CALC,
            0,
            12_000_000_000,
            100,
        );
        tb.span_complete(
            SpanName::GossipSendRound,
            0,
            TID_GOSSIP,
            0,
            50_000_000_000,
            1,
        );
        tb.counter(SpanName::StageUtilization, 0, TID_CALC, 5_000_000_000, 950);
        tb.counter(SpanName::StageUtilization, 0, TID_GOSSIP, 5_000_000_000, 50);
        tb.metric(Metric::StageLateness, 300_000_000_000);
        let r = diverge(&ta.finish(), &tb.finish());
        let w = r.wait_attribution.as_ref().expect("both traces sampled");
        assert_eq!(w.calc_share_a_milli, 900);
        assert_eq!(w.calc_share_b_milli, 950);
        assert_eq!(w.wait_b_ns, 300_000_000_000);
        // calc row: 12 + 0.95*300 = 297s vs 10 + 0.9*1 = 10.9s. Gossip
        // inflated 50x but its +49s ranks below calc's +286s.
        assert_eq!(r.top().expect("diverged").category, "calc");
        assert_eq!(r.rows[0].b_total_ns, 297_000_000_000);
        assert!(r.rows.iter().all(|row| row.category != "queueing"));
        assert!(render(&r).contains("charged by busy share"));
    }

    #[test]
    fn flap_windows_merge_and_overlap() {
        // Convictions at 3s and 4s merge into one [1s, 6s) window;
        // the calc span [1s, 11s) overlaps it for 5s of its 10s.
        let a = trace_with(1, 1, &[]);
        let b = trace_with(10, 1, &[3_000_000_000, 4_000_000_000]);
        let r = diverge(&a, &b);
        assert_eq!(r.flap_windows, 1);
        let calc = r
            .flap_overlap
            .iter()
            .find(|f| f.category == "calc")
            .unwrap();
        assert_eq!(calc.overlap_ns, 5_000_000_000);
        assert_eq!(calc.overlap_permille, 500);
    }

    #[test]
    fn render_names_the_verdict() {
        let a = trace_with(10, 5, &[]);
        let b = trace_with(100, 6, &[]);
        let txt = render(&diverge(&a, &b));
        assert!(txt.contains("DIVERGED"));
        assert!(txt.contains("verdict: top-ranked divergence is \"calc\""));
        let same = render(&diverge(&a, &a));
        assert!(same.contains("traces agree"));
    }
}
