//! Content addresses: one digest over a value's canonical JSON, shared
//! by every tool that compares runs.

use scalecheck_memo::digest_bytes;
use serde::Serialize;

/// The content address of a serializable value: 128-bit FNV-1a over its
/// canonical JSON, as 32 hex characters. Witness report digests, the
/// traffic log digest and the whole-run pins all use it, so digests are
/// comparable across tools.
pub fn content_digest<T: Serialize + ?Sized>(value: &T) -> String {
    let text = serde_json::to_string(value).expect("value serializes");
    format!("{:032x}", digest_bytes(text.as_bytes()).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_cluster::ScenarioConfig;

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

        // Every independently settable scenario field, once: one traffic
        // shape, one trace switch — and no run mode, which is an
        // argument of the run rather than part of the scenario.
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
