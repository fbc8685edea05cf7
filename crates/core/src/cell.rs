//! Experiment cells: self-contained, serializable units of sweep work.
//!
//! A sweep (one figure or table) decomposes into independent cells,
//! each a `(scenario, mode)` pair. [`run_cell`] builds every piece of
//! runner state — engine, cluster, memo database — fresh inside the
//! call, so cells can execute concurrently on worker threads with no
//! shared state. [`ExecMode`] and [`CellSpec`] are serializable so a
//! cell's full configuration can be digested into a content-addressed
//! cache key.

use scalecheck_cluster::{RunReport, ScenarioConfig};
use scalecheck_memo::digest_bytes;
use serde::{Deserialize, Serialize};

use crate::scalecheck::{memoize, replay, replay_ordered, run_colo, run_real};

/// Which pipeline a cell runs. Not a [`scalecheck_cluster::RunMode`]:
/// a pipeline may be more than one run — `ScPil` is the memoization run
/// followed by the PIL replay, reporting the latter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Real-scale testing: every node on its own machine.
    Real,
    /// Basic colocation on `cores` cores.
    Colo {
        /// Cores on the colocation machine.
        cores: usize,
    },
    /// The one-time instrumented memoization run; reports the
    /// memoization run itself.
    Memo {
        /// Cores on the colocation machine.
        cores: usize,
    },
    /// The full SC+PIL pipeline (memoize, then replay); reports the
    /// replay.
    ScPil {
        /// Cores on the colocation machine.
        cores: usize,
        /// Whether the replay enforces the recorded per-node
        /// message-processing order (§5).
        ordered: bool,
    },
}

impl ExecMode {
    /// A short human label for progress lines.
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Real => "Real",
            ExecMode::Colo { .. } => "Colo",
            ExecMode::Memo { .. } => "Memo",
            ExecMode::ScPil { ordered: false, .. } => "SC+PIL",
            ExecMode::ScPil { ordered: true, .. } => "SC+PIL+ord",
        }
    }
}

/// One cell's full configuration: everything that determines its
/// result, and nothing else. Serializing this is the content-addressed
/// cache key. Because the scenario embeds its `FaultPlan`, two cells
/// differing only in injected faults digest to different keys.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellSpec {
    /// The complete scenario (includes bug shape, scale, and seed).
    pub config: ScenarioConfig,
    /// Which pipeline to run it under.
    pub mode: ExecMode,
}

impl CellSpec {
    /// Builds a cell spec.
    pub fn new(config: ScenarioConfig, mode: ExecMode) -> Self {
        CellSpec { config, mode }
    }

    /// Runs this cell. See [`run_cell`].
    pub fn run(&self) -> RunReport {
        run_cell(&self.config, self.mode)
    }
}

/// The content address of a serializable value: 128-bit FNV-1a over its
/// canonical JSON, as 32 hex characters. Sweep-cache keys and witness
/// report digests both use it, so digests are comparable across tools.
pub fn content_digest<T: Serialize + ?Sized>(value: &T) -> String {
    let text = serde_json::to_string(value).expect("value serializes");
    format!("{:032x}", digest_bytes(text.as_bytes()).0)
}

/// Runs one cell to completion, constructing all engine and cluster
/// state inside the call. Safe to invoke concurrently from many
/// threads.
pub fn run_cell(cfg: &ScenarioConfig, mode: ExecMode) -> RunReport {
    match mode {
        ExecMode::Real => run_real(cfg),
        ExecMode::Colo { cores } => run_colo(cfg, cores),
        ExecMode::Memo { cores } => memoize(cfg, cores).report,
        ExecMode::ScPil { cores, ordered } => {
            let memo = memoize(cfg, cores);
            if ordered {
                replay_ordered(cfg, cores, &memo)
            } else {
                replay(cfg, cores, &memo)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::COLO_CORES;

    fn tiny() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::c3831(10, 7);
        cfg.workload = scalecheck_cluster::Workload::Decommission {
            count: 1,
            gap: scalecheck_sim::SimDuration::from_secs(30),
        };
        cfg.workload_end = scalecheck_sim::SimDuration::from_secs(90);
        cfg.max_duration = scalecheck_sim::SimDuration::from_secs(400);
        cfg
    }

    #[test]
    fn cell_matches_direct_facade_calls() {
        let cfg = tiny();
        let via_cell = run_cell(&cfg, ExecMode::Real);
        let direct = run_real(&cfg);
        assert_eq!(via_cell.total_flaps, direct.total_flaps);
        assert_eq!(via_cell.messages_delivered, direct.messages_delivered);
    }

    #[test]
    fn cells_run_concurrently_and_deterministically() {
        let spec = CellSpec::new(
            tiny(),
            ExecMode::ScPil {
                cores: COLO_CORES,
                ordered: false,
            },
        );
        let serial = spec.run();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let spec = spec.clone();
                std::thread::spawn(move || spec.run())
            })
            .collect();
        for h in handles {
            let parallel = h.join().expect("cell thread");
            assert_eq!(parallel.total_flaps, serial.total_flaps);
            assert_eq!(parallel.messages_delivered, serial.messages_delivered);
        }
    }

    #[test]
    fn cell_spec_round_trips_through_json() {
        let spec = CellSpec::new(
            ScenarioConfig::baseline(10, 7),
            ExecMode::ScPil {
                cores: COLO_CORES,
                ordered: true,
            },
        );
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: CellSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.mode, spec.mode);
        assert_eq!(back.config.n_nodes, spec.config.n_nodes);
        assert_eq!(json, serde_json::to_string(&back).expect("re-serialize"));

        // Every independently settable scenario field, once: one run
        // mode, one traffic shape, one trace switch.
        let value = serde_json::to_value(&spec.config).expect("serialize");
        let serde_json::Value::Object(entries) = value else {
            panic!("a config serializes as an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "n_nodes",
                "vnodes",
                "rf",
                "seed",
                "gossip_interval",
                "fd_interval",
                "phi_threshold",
                "calculator",
                "locking",
                "workload",
                "rescale_window",
                "workload_end",
                "max_duration",
                "mode",
                "order_enforcement",
                "order_hold_timeout",
                "ns_per_op",
                "msg_base_cost",
                "per_endpoint_cost",
                "memory",
                "network",
                "faults",
                "traffic",
                "trace",
                "global_event_queue",
                "tie_order",
                "record_schedule",
                "free_ctx_switch",
            ]
        );
    }
}
