//! Aggregated results of one cluster run.

use scalecheck_memo::MemoStats;
use scalecheck_sim::{EngineCounters, FaultReport, ScheduleProbe, SimDuration, TimeSeries};
use serde::Serialize;

use crate::calc::CalcStats;

/// Everything an experiment needs to know about a finished run.
#[derive(Clone, Debug, Serialize)]
pub struct RunReport {
    /// Total flaps: alive→dead convictions summed over all observers
    /// (the y-axis of the paper's Figure 3).
    pub total_flaps: u64,
    /// Flaps per observer node.
    pub per_node_flaps: Vec<u64>,
    /// Dead→alive recoveries (flapping implies these roughly track
    /// flaps).
    pub recoveries: u64,
    /// Cumulative flap count sampled over time.
    pub flap_series: TimeSeries,
    /// Virtual duration of the run (memoization runs stretch, PIL
    /// replays do not — the §8 comparison).
    pub duration: SimDuration,
    /// Whether the run reached quiescence before the hard cap.
    pub quiesced: bool,
    /// Calculation statistics (including memo sources during replay).
    pub calc: CalcStats,
    /// Memo database statistics.
    pub memo: MemoStats,
    /// Messages offered to the network.
    pub messages_sent: u64,
    /// Messages dropped (loss/partition).
    pub messages_dropped: u64,
    /// Messages delivered to a live node.
    pub messages_delivered: u64,
    /// Worst gossip-stage queueing delay observed anywhere (event
    /// lateness, §8).
    pub max_stage_lateness: SimDuration,
    /// 99th-percentile gossip-stage queueing delay (approximate).
    pub p99_stage_lateness: SimDuration,
    /// Highest machine CPU utilization at run end.
    pub cpu_utilization: f64,
    /// Highest multiprogramming level observed on any machine.
    pub peak_runnable: usize,
    /// Peak memory on the most loaded machine.
    pub mem_peak_bytes: u64,
    /// Allocation failures (OOM events, §8).
    pub oom_events: u64,
    /// Nodes that crashed (e.g. OOM).
    pub crashed_nodes: u64,
    /// Replay arrivals the order log never saw (divergence indicator).
    pub order_out_of_log: u64,
    /// Held messages force-released after the hold timeout.
    pub order_forced_releases: u64,
    /// The client-request datapath's full outcome: per-phase latency
    /// histograms, error-budget accounting, and the byte-deterministic
    /// request-log digest ([`scalecheck_traffic`]).
    pub traffic: scalecheck_traffic::TrafficReport,
    /// Event-engine counters: schedules, fires, cancellations, and slab
    /// pool hit/miss totals for the run.
    pub engine: EngineCounters,
    /// Periodic timers that fired after their node's epoch moved on.
    /// Crash/restart cancels timers eagerly, so this should be zero.
    pub stale_timer_fires: u64,
    /// What the run's fault plan did (all zeros/empty under the default
    /// empty plan).
    pub faults: FaultReport,
    /// Full observability trace: spans, instants, utilization counters,
    /// and metric histograms on virtual time (buffers empty unless
    /// `trace.enabled` was set; the metadata header is always stamped).
    pub obs: scalecheck_obs::Trace,
    /// The engine fire log with the kind of each of the runner's
    /// handlers (present only when `record_schedule` was set) — the
    /// schedule explorer's raw material for tie-batch discovery.
    pub schedule_probe: Option<ScheduleProbe>,
}

impl RunReport {
    /// Fraction of client operations that failed (no quorum of live
    /// replicas — the paper's "data not reachable by the users").
    pub fn unavailability(&self) -> f64 {
        if self.traffic.attempted == 0 {
            0.0
        } else {
            self.traffic.failed as f64 / self.traffic.attempted as f64
        }
    }
}
