//! Diagnostic: run one scenario under one deployment and dump the full
//! report.
//!
//! With `--trace-out PATH` the run records a full observability trace
//! and writes it as Chrome `trace_event` JSON (load it in Perfetto or
//! `chrome://tracing`; the native trace rides along under the
//! `"scalecheck"` key) and prints the end-of-run per-span / per-metric
//! summary; `diverge` compares two such files.

use crate::cli::{val, write_file_with, Args, Command, Failure, Flag, BUG, SEED};
use scalecheck::Deployment;
use scalecheck_cluster::{RunReport, ScenarioConfig};

pub const NODES: Flag = val("--nodes", "N", "cluster size (default 64)");

pub const COMMAND: Command = Command {
    name: "run",
    about: "diagnostic: one scenario in one deployment, the full report as key=value lines",
    flags: &[
        BUG,
        NODES,
        val("--mode", "MODE", "real|colo|scpil (default real)"),
        SEED,
        val("--trace-out", "PATH", "trace the run; write Chrome JSON"),
    ],
    run,
};

/// The scenario `--bug --nodes --seed` name (`run`, `memoize`, `replay`).
pub fn scenario(args: &Args) -> Result<(&str, usize, ScenarioConfig), Failure> {
    let bug = args.value("--bug").unwrap_or("c3831");
    let n: usize = args.size("--nodes")?.unwrap_or(64);
    let seed: u64 = args.get("--seed")?.unwrap_or(1);
    let cfg = ScenarioConfig::bug(bug, n, seed).map_err(Failure::Usage)?;
    Ok((bug, n, cfg))
}

fn run(args: &Args) -> Result<(), Failure> {
    let (bug, n, mut cfg) = scenario(args)?;
    let mode = args.value("--mode").unwrap_or("real");
    let trace_out = args.value("--trace-out");
    if trace_out.is_some() {
        cfg.trace = scalecheck_obs::TraceConfig::enabled();
    }
    let deployment = Deployment::parse(mode, &Deployment::ALL).map_err(Failure::Usage)?;

    let r = deployment.run(&cfg);
    print_report(bug, n, mode, &r);

    if let Some(path) = trace_out {
        let mut trace = r.obs;
        trace.meta.label = format!("{bug}@{n} {}", deployment.label());
        write_file_with(path, |w| scalecheck_obs::write_chrome_json(&trace, w))?;
        println!(
            "trace: {} spans, {} instants, {} counter samples -> {path}",
            trace.spans.len(),
            trace.instants.len(),
            trace.counters.len()
        );
        print!("\n{}", scalecheck_obs::summarize(&trace));
    }
    Ok(())
}

/// The one report printer: every counter of a run as `key=value`.
pub fn print_report(bug: &str, n: usize, mode: &str, r: &RunReport) {
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
}
