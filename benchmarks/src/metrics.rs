//! The metric tables (`BENCHMARK.json` repeats them; a test keeps the two
//! equal) and the arithmetic that turns one traced repetition plus one
//! layer replay into the per-layer metrics.

use serde_json::Value;

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    /// Name, `<layer>.<what>` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Whether the value is read from simulated results only, and so
    /// repeats bit-for-bit for a seed. `--compare` lists any exact metric
    /// that differs at all: simulated behaviour changed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

/// End-to-end metrics with their regression bounds (share of the
/// parent's median by which the metric may get worse).
pub const END_TO_END: [(MetricDef, f64); 3] = [
    (timing("wall_s", "s"), 0.25),
    (timing("peak_rss_mib", "MiB"), 0.05),
    (timing("setup_s", "s"), 0.25),
];

/// Per-layer metrics, in report order. A metric that does not apply to a
/// workload (no memo database, no trace export, ...) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    count("sim.events_fired", "count", "lower"),
    count("sim.timer_pool_miss_ratio", "ratio", "lower"),
    timing("sim.engine_ns_per_event", "ns"),
    timing("sim.cpu_submit_ns", "ns"),
    timing("sim.wall_share", "ratio"),
    count("net.msgs_offered", "count", "lower"),
    count("net.drop_ratio", "ratio", "lower"),
    timing("net.offer_ns", "ns"),
    count("net.data_offered", "count", "lower"),
    timing("net.offer_data_ns", "ns"),
    timing("net.wall_share", "ratio"),
    count("gossip.msgs_delivered", "count", "lower"),
    count("gossip.flaps", "count", "lower"),
    timing("gossip.exchange_ns", "ns"),
    timing("gossip.exchange_churn_ns", "ns"),
    timing("gossip.fd_sweep_ns", "ns"),
    timing("gossip.fd_report_ns", "ns"),
    timing("gossip.state_bytes_per_peer", "bytes"),
    timing("gossip.wall_share", "ratio"),
    count("ring.calc_executed", "count", "lower"),
    timing("ring.calc_exec_ns", "ns"),
    timing("ring.write_canonical_ns", "ns"),
    timing("ring.replicas_of_ns", "ns"),
    timing("ring.wall_share", "ratio"),
    count("cluster.calc_invocations", "count", "lower"),
    count("cluster.calc_cache_hit_ratio", "ratio", "higher"),
    timing("cluster.calc_digest_ns", "ns"),
    timing("cluster.wall_share", "ratio"),
    timing("cluster.host_us_per_event", "us"),
    timing("cluster.per_event_growth_256_512", "ratio"),
    timing("cluster.residual_share", "ratio"),
    count("memo.records", "count", "lower"),
    count("memo.lookups", "count", "lower"),
    count("memo.hit_ratio", "ratio", "higher"),
    timing("memo.record_ns", "ns"),
    timing("memo.lookup_ns", "ns"),
    timing("memo.wall_share", "ratio"),
    timing("core.real_s", "s"),
    timing("core.colo_s", "s"),
    timing("core.memoize_s", "s"),
    timing("core.replay_s", "s"),
    count("core.pil_flap_error", "count", "lower"),
    count("core.colo_flap_inflation", "count", "higher"),
    count("traffic.samples", "count", "lower"),
    count("traffic.retried", "count", "lower"),
    count("traffic.failed_ratio", "ratio", "lower"),
    count("traffic.state_peak_bytes", "bytes", "lower"),
    timing("traffic.tick_ns_per_sample", "ns"),
    timing("traffic.wall_share", "ratio"),
    timing("obs.hist_record_ns", "ns"),
    count("obs.spans", "count", "lower"),
    count("obs.export_bytes", "bytes", "lower"),
    timing("obs.emit_ns_per_span", "ns"),
    timing("obs.trace_on_ratio", "ratio"),
    timing("obs.export_s", "s"),
    timing("obs.parse_s", "s"),
    timing("obs.diverge_s", "s"),
    timing("obs.wall_share", "ratio"),
    timing("alloc.count_per_event", "allocs/event"),
    timing("alloc.bytes_per_event", "bytes/event"),
    timing("trace.overhead_ratio", "ratio"),
];

/// Reads `obj[key][name]` as a number; absent reads 0 (the metric does
/// not apply to the workload).
fn field(obj: &Value, key: &str, name: &str) -> f64 {
    obj.get(key)
        .and_then(|m| m.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn div(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Builds every per-layer metric, in [`PER_LAYER`] order.
///
/// * `traced` — a traced repetition's result (`child::run_rep`);
/// * `replay` — the layer replay's result (`child::run_replay`);
/// * `untraced_wall_s` — median `wall_s` of the untraced repetitions;
/// * `nodes` — the workload's cluster size.
///
/// The `*.wall_share` metrics are **model estimates** of how much of the
/// traced wall time each layer's public API accounts for: replayed ns per
/// call × a number of calls. Where the cell's report counts the calls
/// (events, messages, calc invocations and executions, memo lookups,
/// samples, spans) that count is used; exchanges, φ sweeps, φ reports and
/// CPU submits are not counted by the crates and are worked out from
/// those counts, N and the virtual duration (the README lists each
/// product). Exact call counts are the later in-crate profiler's job.
/// `cluster.residual_share` is one minus their sum — cell time that an
/// outside trace cannot attribute.
pub fn per_layer(
    traced: &Value,
    replay: &Value,
    untraced_wall_s: f64,
    nodes: usize,
) -> Vec<(&'static MetricDef, f64)> {
    let c = |name: &str| field(traced, "counts", name);
    let t = |name: &str| field(traced, "timings", name);
    let r = |name: &str| field(replay, "replay", name);
    let wall_s = traced.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0);
    let virtual_s = traced
        .get("virtual_s")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let n = nodes as f64;
    let rf = 3.0;

    let events = c("sim.events_fired");
    let delivered = c("gossip.msgs_delivered");
    let invocations = c("cluster.calc_invocations");
    let samples = c("traffic.samples");
    // Every delivered gossip message, calc invocation and request service
    // (one coordinator + rf replicas per sample) is one CPU submit.
    let cpu_submits = delivered + invocations + samples * (1.0 + rf);
    // One exchange is three messages. Each node sweeps its detector once
    // per virtual second and hears each peer's heartbeat about as often.
    let exchanges = delivered / 3.0;
    let fd_sweeps = n * virtual_s;
    let fd_reports = n * (n - 1.0) * virtual_s;

    let share = |ns: f64| div(ns / 1e9, wall_s);
    let sim_share =
        share(r("sim.engine_ns_per_event") * events + r("sim.cpu_submit_ns") * cpu_submits);
    let net_share = share(
        r("net.offer_ns") * c("net.msgs_offered") + r("net.offer_data_ns") * c("net.data_offered"),
    );
    // Convictions and recoveries change endpoint state, so in a cell that
    // flaps the exchanges carry full states, not heartbeats only.
    let exchange_ns = if c("gossip.flaps") > 0.0 {
        r("gossip.exchange_churn_ns")
    } else {
        r("gossip.exchange_ns")
    };
    let gossip_share = share(
        exchange_ns * exchanges
            + r("gossip.fd_sweep_ns") * fd_sweeps
            + r("gossip.fd_report_ns") * fd_reports,
    );
    let ring_share = share(
        r("ring.calc_exec_ns") * c("ring.calc_executed") + r("ring.replicas_of_ns") * samples,
    );
    let cluster_share = share(r("cluster.calc_digest_ns") * invocations);
    let memo_share = share(r("memo.lookup_ns") * c("memo.lookups"));
    let traffic_share =
        share((r("traffic.tick_ns_per_sample") + r("obs.hist_record_ns")) * samples);
    // Export, parse and diverge are whole obs API calls the benchmark
    // makes itself, so their in-situ spans count in full.
    let obs_in_situ = t("obs.export_s") + t("obs.parse_s") + t("obs.diverge_s");
    let obs_share = share(r("obs.emit_ns_per_span") * c("obs.spans")) + div(obs_in_situ, wall_s);
    let attributed = sim_share
        + net_share
        + gossip_share
        + ring_share
        + cluster_share
        + memo_share
        + traffic_share
        + obs_share;

    let us_per_event = div(wall_s * 1e6, events);
    let alloc = |what: &str| div(field(traced, "alloc", what), events);

    PER_LAYER
        .iter()
        .map(|def| {
            let value = match def.name {
                "sim.wall_share" => sim_share,
                "net.wall_share" => net_share,
                "gossip.wall_share" => gossip_share,
                "ring.wall_share" => ring_share,
                "cluster.wall_share" => cluster_share,
                "memo.wall_share" => memo_share,
                "traffic.wall_share" => traffic_share,
                "obs.wall_share" => obs_share,
                "cluster.residual_share" => 1.0 - attributed,
                "cluster.host_us_per_event" => us_per_event,
                "cluster.per_event_growth_256_512" => {
                    div(us_per_event, t("extra.half_us_per_event"))
                }
                "obs.trace_on_ratio" => {
                    div(t("core.real_s") + t("core.colo_s"), t("extra.trace_off_s"))
                }
                "alloc.count_per_event" => alloc("count"),
                "alloc.bytes_per_event" => alloc("bytes"),
                "trace.overhead_ratio" => div(wall_s, untraced_wall_s),
                name if def.exact => c(name),
                name if name.starts_with("core.")
                    || (name.starts_with("obs.") && name.ends_with("_s")) =>
                {
                    t(name)
                }
                name => r(name),
            };
            (def, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        names.extend(END_TO_END.iter().map(|(d, _)| d.name));
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn shares_and_residual_sum_to_one() {
        let traced = json!({
            "wall_s": 2.0,
            "virtual_s": 10.0,
            "counts": json!({
                "sim.events_fired": 1000.0,
                "gossip.msgs_delivered": 300.0,
                "net.msgs_offered": 300.0,
            }),
            "timings": json!({"core.colo_s": 2.0}),
            "alloc": json!({"count": 5000, "bytes": 100000}),
        });
        let replay = json!({
            "replay": json!({
                "sim.engine_ns_per_event": 100000.0,
                "net.offer_ns": 1000000.0,
                "gossip.exchange_ns": 2000000.0,
            }),
        });
        let m = per_layer(&traced, &replay, 1.6, 4);
        let get = |name: &str| m.iter().find(|(d, _)| d.name == name).expect(name).1;
        assert_eq!(m.len(), PER_LAYER.len());
        assert!((get("sim.wall_share") - 0.05).abs() < 1e-12);
        assert!((get("net.wall_share") - 0.15).abs() < 1e-12);
        assert!((get("gossip.wall_share") - 0.10).abs() < 1e-12);
        let shares: f64 = m
            .iter()
            .filter(|(d, _)| d.name.ends_with(".wall_share"))
            .map(|(_, v)| v)
            .sum();
        assert!((shares + get("cluster.residual_share") - 1.0).abs() < 1e-12);
        assert_eq!(get("alloc.count_per_event"), 5.0);
        assert_eq!(get("trace.overhead_ratio"), 1.25);
        assert_eq!(get("core.colo_s"), 2.0);
        assert_eq!(get("sim.events_fired"), 1000.0);
        assert_eq!(get("memo.records"), 0.0);
        assert_eq!(get("cluster.host_us_per_event"), 2000.0);
    }

    #[test]
    fn a_cell_that_flaps_is_costed_at_the_churn_rate() {
        let traced = |flaps: f64| {
            json!({
                "wall_s": 1.0,
                "counts": json!({"gossip.msgs_delivered": 3000.0, "gossip.flaps": flaps}),
            })
        };
        let replay = json!({
            "replay": json!({"gossip.exchange_ns": 100000.0, "gossip.exchange_churn_ns": 150000.0}),
        });
        let share = |flaps| {
            let m = per_layer(&traced(flaps), &replay, 1.0, 4);
            m.iter()
                .find(|(d, _)| d.name == "gossip.wall_share")
                .expect("share")
                .1
        };
        assert!((share(0.0) - 0.10).abs() < 1e-12);
        assert!((share(7.0) - 0.15).abs() < 1e-12);
    }
}
