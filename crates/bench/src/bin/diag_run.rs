//! Diagnostic: run one scenario in one mode and dump the full report.
//!
//! ```text
//! cargo run --release -p scalecheck-bench --bin diag_run -- --bug c3831 --nodes 128 --mode real
//! ```
//!
//! With `--trace-out PATH` the run records a full observability trace
//! and writes it as Chrome `trace_event` JSON (load it in Perfetto or
//! `chrome://tracing`; the native trace rides along under the
//! `"scalecheck"` key) and prints the end-of-run per-span / per-metric
//! summary. With `--diverge A.json B.json` no scenario runs:
//! the two traces are loaded and the divergence analyzer attributes
//! where B's virtual time went relative to A.

use scalecheck::{run_cell, ExecMode, COLO_CORES};
use scalecheck_bench::{exit_usage, flag_value, parse_flag};
use scalecheck_cluster::ScenarioConfig;

const USAGE: &str = "usage: diag_run [--bug c3831|c3881|c5456|c6127] [--nodes N] \
[--mode real|colo|pil] [--seed N] [--trace-out PATH] \
[--diverge TRACE_A TRACE_B]";

/// Reads the two paths following `--diverge` (a two-valued flag;
/// [`flag_value`] handles only single-valued ones).
fn diverge_paths(args: &[String]) -> Option<(String, String)> {
    let i = args.iter().position(|a| a == "--diverge")?;
    match (args.get(i + 1), args.get(i + 2)) {
        (Some(a), Some(b)) => Some((a.clone(), b.clone())),
        _ => exit_usage(USAGE, "--diverge expects two trace paths"),
    }
}

fn load_trace(path: &str) -> scalecheck_obs::Trace {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| exit_usage(USAGE, &format!("read {path}: {e}")));
    scalecheck_obs::from_chrome_json(&text)
        .unwrap_or_else(|e| exit_usage(USAGE, &format!("parse {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some((path_a, path_b)) = diverge_paths(&args) {
        let a = load_trace(&path_a);
        let b = load_trace(&path_b);
        let report = scalecheck_obs::diverge(&a, &b);
        print!("{}", report.render());
        return;
    }

    let bug = flag_value(&args, "--bug")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| "c3831".to_string());
    let n: usize = parse_flag(&args, "--nodes")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(64);
    let mode = flag_value(&args, "--mode")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| "real".to_string());
    let seed: u64 = parse_flag(&args, "--seed")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(1);

    let trace_out = flag_value(&args, "--trace-out").unwrap_or_else(|e| exit_usage(USAGE, &e));

    let mut cfg = ScenarioConfig::bug(&bug, n, seed).unwrap_or_else(|e| exit_usage(USAGE, &e));
    if trace_out.is_some() {
        cfg.trace = scalecheck_obs::TraceConfig::enabled();
    }
    let exec_mode = match mode.as_str() {
        "real" => ExecMode::Real,
        "colo" => ExecMode::Colo { cores: COLO_CORES },
        "pil" => ExecMode::ScPil {
            cores: COLO_CORES,
            ordered: false,
        },
        other => exit_usage(
            USAGE,
            &format!("unknown mode '{other}' (use real|colo|pil)"),
        ),
    };

    let r = run_cell(&cfg, exec_mode);

    println!("bug={bug} n={n} mode={mode}");
    println!("flaps={} recoveries={}", r.total_flaps, r.recoveries);
    println!(
        "duration={:.0}s quiesced={} messages: sent={} delivered={} dropped={}",
        r.duration.as_secs_f64(),
        r.quiesced,
        r.messages_sent,
        r.messages_delivered,
        r.messages_dropped
    );
    println!(
        "calc: invocations={} executed={} cache_hits={} total_compute={:.0}s max={:.2}s",
        r.calc.invocations,
        r.calc.executed,
        r.calc.exec_cache_hits,
        r.calc.total_compute.as_secs_f64(),
        r.calc.max_compute.as_secs_f64()
    );
    println!(
        "memo: hits={} idx={} misses={} hit_rate={:.2} out_of_log={}",
        r.memo.hits,
        r.memo.index_fallbacks,
        r.memo.misses,
        r.memo.replay_hit_rate(),
        r.order_out_of_log
    );
    println!(
        "lateness: max={} p99={} cpu={:.2} peak_runnable={}",
        r.max_stage_lateness, r.p99_stage_lateness, r.cpu_utilization, r.peak_runnable
    );
    println!(
        "client: attempted={} failed={} unavailability={:.4}",
        r.traffic.attempted,
        r.traffic.failed,
        r.unavailability()
    );
    let e = &r.engine;
    let pool_total = e.pool_hits + e.pool_misses;
    println!(
        "engine: scheduled={} fired={} cancelled={} pool_hit_rate={:.3}",
        e.scheduled,
        e.fired,
        e.cancelled,
        if pool_total > 0 {
            e.pool_hits as f64 / pool_total as f64
        } else {
            0.0
        }
    );

    if let Some(path) = trace_out {
        let mut trace = r.obs;
        trace.meta.label = format!("{bug}@{n} {}", exec_mode.label());
        let json = scalecheck_obs::to_chrome_json(&trace);
        std::fs::write(&path, json.as_bytes())
            .unwrap_or_else(|e| exit_usage(USAGE, &format!("write {path}: {e}")));
        println!(
            "trace: {} spans, {} instants, {} counter samples -> {path}",
            trace.spans.len(),
            trace.instants.len(),
            trace.counters.len()
        );
        print!("\n{}", scalecheck_obs::summarize(&trace));
    }
}
