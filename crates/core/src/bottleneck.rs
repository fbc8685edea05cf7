//! Colocation-bottleneck detection (§6, §8).
//!
//! "Currently, on the 16-core 32-GB Nome machine, we can reach a
//! maximum colocation factor of 512. When we tried colocating 600
//! nodes, we hit one of the following limitations: high CPU contention
//! (>90% utilization), memory exhaustion [...], or high event lateness
//! (queuing delays from thread context switching)."
//!
//! [`diagnose`] inspects a run report against those three limits; the
//! `tbl_colocation_limit` sweep applies it per colocation factor to
//! reproduce the §8 limit experiment.

use scalecheck_cluster::{RunReport, ScenarioConfig, BYTES_PER_RING_ENTRY, PER_PROCESS_OVERHEAD};
use scalecheck_sim::SimDuration;

/// The §8 colocation limits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bottleneck {
    /// CPU utilization above the threshold (default 90 %).
    CpuContention,
    /// An allocation failed (nodes crash with OOM).
    MemoryExhaustion,
    /// Stage queueing delay above the lateness threshold.
    EventLateness,
}

/// Detection thresholds.
#[derive(Clone, Copy, Debug)]
pub struct BottleneckThresholds {
    /// CPU utilization limit (the paper's ">90%").
    pub cpu_utilization: f64,
    /// p99 stage lateness limit.
    pub event_lateness: SimDuration,
}

impl Default for BottleneckThresholds {
    fn default() -> Self {
        BottleneckThresholds {
            cpu_utilization: 0.9,
            event_lateness: SimDuration::from_millis(500),
        }
    }
}

/// Which limits a run hit (empty = clean).
pub fn diagnose(report: &RunReport, thresholds: &BottleneckThresholds) -> Vec<Bottleneck> {
    let mut out = Vec::new();
    if report.cpu_utilization > thresholds.cpu_utilization {
        out.push(Bottleneck::CpuContention);
    }
    if report.oom_events > 0 || report.crashed_nodes > 0 {
        out.push(Bottleneck::MemoryExhaustion);
    }
    if report.p99_stage_lateness > thresholds.event_lateness {
        out.push(Bottleneck::EventLateness);
    }
    out
}

/// Estimated memory demand of colocating `nodes` nodes (used by the
/// memory table and as a fast pre-check): runtime overhead plus ring
/// tables.
pub fn colocation_memory_demand(cfg: &ScenarioConfig, nodes: usize) -> u64 {
    let runtime = if cfg.memory.single_process {
        PER_PROCESS_OVERHEAD
    } else {
        PER_PROCESS_OVERHEAD * nodes as u64
    };
    let ring = (nodes * nodes * cfg.vnodes) as u64 * BYTES_PER_RING_ENTRY;
    runtime + ring
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_cluster::CalcStats;
    use scalecheck_memo::MemoStats;
    use scalecheck_sim::TimeSeries;

    fn report(cpu: f64, oom: u64, lateness_ms: u64) -> RunReport {
        RunReport {
            total_flaps: 0,
            per_node_flaps: vec![],
            recoveries: 0,
            flap_series: TimeSeries::new(),
            duration: SimDuration::ZERO,
            quiesced: true,
            calc: CalcStats::default(),
            memo: MemoStats::default(),
            messages_sent: 0,
            messages_dropped: 0,
            messages_delivered: 0,
            max_stage_lateness: SimDuration::from_millis(lateness_ms),
            p99_stage_lateness: SimDuration::from_millis(lateness_ms),
            cpu_utilization: cpu,
            peak_runnable: 0,
            mem_peak_bytes: 0,
            oom_events: oom,
            crashed_nodes: 0,
            order_out_of_log: 0,
            order_forced_releases: 0,
            traffic: Default::default(),
            engine: scalecheck_sim::EngineCounters::default(),
            stale_timer_fires: 0,
            faults: scalecheck_cluster::FaultReport::default(),
            obs: Default::default(),
            schedule_probe: None,
        }
    }

    #[test]
    fn clean_run_has_no_bottlenecks() {
        let d = diagnose(&report(0.4, 0, 10), &BottleneckThresholds::default());
        assert!(d.is_empty());
    }

    #[test]
    fn each_limit_detected() {
        let t = BottleneckThresholds::default();
        assert_eq!(
            diagnose(&report(0.95, 0, 10), &t),
            vec![Bottleneck::CpuContention]
        );
        assert_eq!(
            diagnose(&report(0.4, 2, 10), &t),
            vec![Bottleneck::MemoryExhaustion]
        );
        assert_eq!(
            diagnose(&report(0.4, 0, 900), &t),
            vec![Bottleneck::EventLateness]
        );
        let all = diagnose(&report(0.95, 1, 900), &t);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn memory_demand_scales_with_process_model() {
        let mut cfg = ScenarioConfig::baseline(16, 1);
        cfg.memory.single_process = false;
        let multi = colocation_memory_demand(&cfg, 100);
        cfg.memory.single_process = true;
        let single = colocation_memory_demand(&cfg, 100);
        assert!(multi > single);
        // 100 processes at 70 MB each is ~7 GB of pure runtime overhead.
        assert!(multi - single > 6 << 30);
    }
}
