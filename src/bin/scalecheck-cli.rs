//! `scalecheck` — the command-line face of the reproduction.
//!
//! ```text
//! scalecheck-cli run        --bug c3831 --nodes 64 --mode real|colo|pil
//! scalecheck-cli memoize    --bug c3831 --nodes 64 --db memo.json
//! scalecheck-cli replay     --bug c3831 --nodes 64 --db memo.json
//! scalecheck-cli finder
//! scalecheck-cli bugstudy
//! scalecheck-cli statespace --nodes 256 --vnodes 256
//! ```
//!
//! The figure/table regeneration binaries live in `scalecheck-bench`;
//! this tool is the day-to-day interface: run one scenario, persist a
//! memoization database, replay against it, or query the analyses.

use std::path::Path;
use std::process::ExitCode;

use scalecheck::{memoize, replay, run_colo, run_real, COLO_CORES};
use scalecheck_cluster::{PendingWire, RunReport, ScenarioConfig};
use scalecheck_memo::MemoDb;
use scalecheck_pilfinder::{analyze, cluster_protocol_model, FinderConfig};

fn flag(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses `--key N`, falling back to `default` when the flag is absent.
fn int_flag<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match flag(args, key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{key} must be an integer, got '{raw}'")),
    }
}

fn scenario(args: &[String]) -> Result<ScenarioConfig, String> {
    let bug = flag(args, "--bug").unwrap_or_else(|| "c3831".into());
    let nodes = int_flag(args, "--nodes", 64)?;
    let seed = int_flag(args, "--seed", 1)?;
    ScenarioConfig::bug(&bug, nodes, seed)
}

fn print_report(label: &str, r: &RunReport) {
    println!("{label}:");
    println!("  flaps           : {}", r.total_flaps);
    println!(
        "  duration        : {:.0}s (quiesced: {})",
        r.duration.as_secs_f64(),
        r.quiesced
    );
    println!(
        "  messages        : {} sent, {} delivered, {} dropped",
        r.messages_sent, r.messages_delivered, r.messages_dropped
    );
    println!(
        "  calculations    : {} ({} executed, max {:.2}s)",
        r.calc.invocations,
        r.calc.executed,
        r.calc.max_compute.as_secs_f64()
    );
    println!(
        "  memo            : hit-rate {:.1}% ({} hits / {} idx / {} miss)",
        r.memo.replay_hit_rate() * 100.0,
        r.memo.hits,
        r.memo.index_fallbacks,
        r.memo.misses
    );
    println!(
        "  availability    : {:.2}% of {} client ops failed",
        r.unavailability() * 100.0,
        r.traffic.attempted
    );
    println!(
        "  cpu/lateness    : {:.0}% peak util, p99 stage lateness {}",
        r.cpu_utilization * 100.0,
        r.p99_stage_lateness
    );
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let cfg = scenario(args)?;
    let mode = flag(args, "--mode").unwrap_or_else(|| "real".into());
    let report = match mode.as_str() {
        "real" => run_real(&cfg),
        "colo" => run_colo(&cfg, COLO_CORES),
        "pil" => {
            let memo = memoize(&cfg, COLO_CORES);
            replay(&cfg, COLO_CORES, &memo)
        }
        other => return Err(format!("unknown mode '{other}' (use real|colo|pil)")),
    };
    print_report(&format!("{mode} run"), &report);
    Ok(ExitCode::SUCCESS)
}

fn cmd_memoize(args: &[String]) -> Result<ExitCode, String> {
    let cfg = scenario(args)?;
    let db_path = flag(args, "--db").unwrap_or_else(|| "memo.json".into());
    let memo = memoize(&cfg, COLO_CORES);
    print_report("memoization (colo) run", &memo.report);
    match memo.db.save(Path::new(&db_path)) {
        Ok(()) => {
            println!("  database        : {} records -> {db_path}", memo.db.len());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("failed to save database: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let cfg = scenario(args)?;
    let db_path = flag(args, "--db").unwrap_or_else(|| "memo.json".into());
    let db: MemoDb<PendingWire> = match MemoDb::load(Path::new(&db_path)) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to load database '{db_path}': {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut rcfg = cfg.with_mode(scalecheck_cluster::RunMode::PilReplay { cores: COLO_CORES });
    rcfg.order_enforcement = false;
    let (report, _, _) = scalecheck_cluster::run_scenario_with_db(&rcfg, Some(db), None);
    print_report("PIL replay", &report);
    Ok(ExitCode::SUCCESS)
}

fn cmd_finder() -> ExitCode {
    let report = analyze(&cluster_protocol_model(), FinderConfig::default());
    println!("offending functions (most expensive first):");
    for name in &report.offending {
        let f = &report.functions[name];
        println!(
            "  {:<32} {:<14} PIL-safe: {}",
            f.name,
            f.degree.to_string(),
            f.pil_safe
        );
    }
    println!("instrumentation plan: {:?}", report.instrumentation_plan);
    ExitCode::SUCCESS
}

fn cmd_bugstudy() -> ExitCode {
    let s = scalecheck_bugstudy::stats(&scalecheck_bugstudy::bugs());
    println!("{} bugs studied", s.total);
    for (sys, n) in &s.per_system {
        println!("  {sys:<12} {n}");
    }
    println!(
        "root causes: {:.0}% CPU-intensive, {:.0}% serialized O(N)",
        s.cpu_fraction * 100.0,
        s.serialized_fraction * 100.0
    );
    println!(
        "fix time: mean {:.0} days, max {} days",
        s.mean_days_to_fix, s.max_days_to_fix
    );
    ExitCode::SUCCESS
}

fn cmd_statespace(args: &[String]) -> Result<ExitCode, String> {
    let n: u64 = int_flag(args, "--nodes", 256)?;
    let p: u64 = int_flag(args, "--vnodes", 256)?;
    println!(
        "ordering space at N={n}, P={p}: ~10^{:.0} possibilities ({} digits)",
        scalecheck_memo::log10_ordering_space(n, p),
        scalecheck_memo::ordering_space_digits(n, p)
    );
    Ok(ExitCode::SUCCESS)
}

const USAGE: &str = "usage: scalecheck-cli <run|memoize|replay|finder|bugstudy|statespace> \
[--bug c3831|c3881|c5456|c6127] [--nodes N] [--vnodes P] [--seed S] [--mode real|colo|pil] \
[--db memo.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("memoize") => cmd_memoize(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("finder") => Ok(cmd_finder()),
        Some("bugstudy") => Ok(cmd_bugstudy()),
        Some("statespace") => cmd_statespace(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".to_string()),
    };
    // Bad arguments end in the usage text and status 2, never a panic.
    done.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!("{USAGE}");
        ExitCode::from(2)
    })
}
