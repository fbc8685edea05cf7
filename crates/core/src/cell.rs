//! Experiment cells: self-contained units of sweep work.
//!
//! A sweep (one figure or table) decomposes into independent cells,
//! each a `(scenario, mode)` pair. [`run_cell`] builds every piece of
//! runner state — engine, cluster, memo database — fresh inside the
//! call, so cells can execute concurrently on worker threads with no
//! shared state.

use scalecheck_cluster::{RunReport, ScenarioConfig};
use scalecheck_memo::digest_bytes;
use serde::{Deserialize, Serialize};

use crate::scalecheck::{memoize, replay, replay_ordered, run_colo, run_real};

/// Which pipeline a cell runs *on its own*. Not a
/// [`scalecheck_cluster::RunMode`]: a pipeline may be more than one run
/// — `ScPil` is the memoization run followed by the PIL replay,
/// reporting the latter. A comparison that wants the Colo column beside
/// the SC+PIL one runs [`crate::scale_check`] once (see
/// [`crate::Triple`]) instead of a `Colo` cell and a `ScPil` cell: the
/// memoization run is the Colo run.
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

/// The content address of a serializable value: 128-bit FNV-1a over its
/// canonical JSON, as 32 hex characters. Witness report digests, the
/// traffic log digest and the whole-run pins all use it, so digests are
/// comparable across tools.
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
        let mode = ExecMode::ScPil {
            cores: COLO_CORES,
            ordered: false,
        };
        let serial = run_cell(&tiny(), mode);
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || run_cell(&tiny(), mode)))
            .collect();
        for h in handles {
            let parallel = h.join().expect("cell thread");
            assert_eq!(parallel.total_flaps, serial.total_flaps);
            assert_eq!(parallel.messages_delivered, serial.messages_delivered);
        }
    }

    #[test]
    fn distinct_keys_get_distinct_digests() {
        let a = content_digest(&("square", 1u64));
        let b = content_digest(&("square", 2u64));
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn scenario_config_round_trips_through_json() {
        let cfg = ScenarioConfig::baseline(10, 7);
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: ScenarioConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.n_nodes, cfg.n_nodes);
        assert_eq!(json, serde_json::to_string(&back).expect("re-serialize"));

        // Every independently settable scenario field, once: one run
        // mode, one traffic shape, one trace switch.
        let value = serde_json::to_value(&cfg).expect("serialize");
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
