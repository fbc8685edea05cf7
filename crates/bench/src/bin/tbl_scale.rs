//! Scale table: harness throughput at 256–4096 nodes.
//!
//! The paper's whole premise is that behaviour past the tested scale is
//! where the bugs hide — and that cuts both ways: the checker itself
//! must stay fast enough to *reach* those scales. This table sweeps the
//! baseline decommission scenario across cluster sizes under Colo and
//! SC+PIL, recording **wall-clock** cost per cell (virtual results are
//! deterministic; wall time is what limits how far a cell can go):
//! events fired per wall second, peak tracked memory, and the engine's
//! schedule/fire/pool counters.
//!
//! ```text
//! cargo run --release -p scalecheck-bench --bin tbl_scale
//! ```
//!
//! Writes `BENCH_scale.json` (schema `bench_scale/v1`) and
//! `TBL_scale.txt` in the working directory, and prints the table.
//!
//! Options:
//! * `--scales 256,512,1024,2048` — cluster sizes (default; the
//!   committed artifacts also carry the 4096-node cells, which take
//!   ~3 minutes each on one CPU but ~14 GB of host memory, so they are
//!   opt-in here and named by `scripts/run_experiments.sh --scale`);
//! * `--seed 1` — simulation seed;
//! * `--modes colo,scpil` — which execution modes to sweep (default
//!   both);
//! * `--json-out PATH` / `--table-out PATH` — artifact destinations;
//! * `--no-write` — print only, write no artifact files;
//! * `--smoke` — CI mode: run one 1024-node SC+PIL cell,
//!   validate the `bench_scale/v1` schema on its row, and fail if the
//!   cell exceeds `--budget-secs` (default 600) of wall clock;
//! * `--jobs N` — sweep worker threads.
//!
//! Wall times are measured on whatever machine runs the sweep and are
//! *not* deterministic: `wall_secs` and `events_per_sec` are always the
//! clock of the run that wrote the JSON, every other column reproduces
//! byte-for-byte.

use std::time::Instant;

use scalecheck::{run_cell, ExecMode, COLO_CORES};
use scalecheck_bench::{
    exit_usage, flag_value, has_flag, jobs_from_args, parse_flag, parse_list_flag, parse_modes,
    run_sweep, validate_doc, Cell, Field,
};
use scalecheck_cluster::{RunReport, ScenarioConfig};

const USAGE: &str = "usage: tbl_scale [--scales 256,512,1024,2048] [--seed N] \
[--modes colo,scpil] [--json-out PATH] [--table-out PATH] [--no-write] \
[--smoke] [--budget-secs N] [--jobs N]";

/// The schema tag committed artifacts carry.
const SCHEMA: &str = "bench_scale/v1";

/// One executed cell: the deterministic report plus the wall-clock cost
/// of producing it.
struct TimedReport {
    wall_secs: f64,
    report: RunReport,
}

/// The swept scenario: the baseline decommission run under the paper's
/// §6 single-process memory layout. One process overhead paid once
/// instead of per node — without it, colocating ≥512 nodes at 70 MB
/// runtime overhead each blows the 32 GB machine model and the cell
/// measures OOM-crash dynamics instead of harness throughput.
///
/// The virtual horizon is cut from the baseline 900 s to 150 s: a
/// saturated colo machine never passes the all-stages-idle quiescence
/// test, so big cells always run to the cap, and 50 s of steady state
/// past the 100 s workload is plenty for a throughput measurement.
fn scale_scenario(n: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(n, seed);
    cfg.memory.single_process = true;
    cfg.max_duration = scalecheck_sim::SimDuration::from_secs(150);
    cfg
}

/// Runs one `(n, mode)` point of the scale scenario under the clock.
fn timed_run(n: usize, seed: u64, mode: ExecMode) -> TimedReport {
    let cfg = scale_scenario(n, seed);
    let t0 = Instant::now();
    let report = run_cell(&cfg, mode);
    TimedReport {
        wall_secs: t0.elapsed().as_secs_f64(),
        report,
    }
}

/// The deployments `--modes` may name; all of them by default.
const MODES: [&str; 2] = ["colo", "scpil"];

/// One `bench_scale/v1` row.
fn row_json(n: usize, mode_label: &str, t: &TimedReport) -> serde_json::Value {
    let r = &t.report;
    let eps = if t.wall_secs > 0.0 {
        r.engine.fired as f64 / t.wall_secs
    } else {
        0.0
    };
    serde_json::json!({
        "nodes": n,
        "mode": mode_label,
        "wall_secs": t.wall_secs,
        "events_per_sec": eps,
        "virtual_secs": r.duration.as_secs_f64(),
        "events_scheduled": r.engine.scheduled,
        "events_fired": r.engine.fired,
        "events_cancelled": r.engine.cancelled,
        "timer_pool_hits": r.engine.pool_hits,
        "timer_pool_misses": r.engine.pool_misses,
        "mem_peak_bytes": r.mem_peak_bytes,
        "messages_sent": r.messages_sent,
        "messages_delivered": r.messages_delivered,
        "total_flaps": r.total_flaps,
        "quiesced": r.quiesced,
    })
}

/// The `bench_scale/v1` contract: document fields, then row fields.
const DOC_FIELDS: [(&str, Field); 1] = [("seed", Field::U64)];
const ROW_FIELDS: [(&str, Field); 15] = [
    ("nodes", Field::U64),
    ("events_scheduled", Field::U64),
    ("events_fired", Field::U64),
    ("events_cancelled", Field::U64),
    ("timer_pool_hits", Field::U64),
    ("timer_pool_misses", Field::U64),
    ("mem_peak_bytes", Field::U64),
    ("messages_sent", Field::U64),
    ("messages_delivered", Field::U64),
    ("total_flaps", Field::U64),
    ("wall_secs", Field::F64),
    ("events_per_sec", Field::F64),
    ("virtual_secs", Field::F64),
    ("mode", Field::Str),
    ("quiesced", Field::Bool),
];

fn validate(doc: &serde_json::Value) -> Result<(), String> {
    validate_doc(doc, SCHEMA, &DOC_FIELDS, "rows", &ROW_FIELDS).map(|_| ())
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Renders the human table; also what `TBL_scale.txt` holds.
fn render_table(seed: u64, rows: &[(usize, &'static str, TimedReport)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scale table — baseline decommission, seed {seed}: harness cost per cell"
    );
    let _ = writeln!(
        out,
        "wall = host seconds for the cell; ev/s = engine events fired per wall second\n"
    );
    let mut buf = vec![vec![
        "#Nodes".to_string(),
        "mode".to_string(),
        "wall_s".to_string(),
        "ev/s".to_string(),
        "fired".to_string(),
        "virt_s".to_string(),
        "peak_MiB".to_string(),
        "flaps".to_string(),
    ]];
    for (n, label, t) in rows {
        let r = &t.report;
        let eps = if t.wall_secs > 0.0 {
            r.engine.fired as f64 / t.wall_secs
        } else {
            0.0
        };
        buf.push(vec![
            n.to_string(),
            label.to_string(),
            format!("{:.2}", t.wall_secs),
            format!("{eps:.0}"),
            r.engine.fired.to_string(),
            format!("{:.0}", r.duration.as_secs_f64()),
            format!("{:.1}", mib(r.mem_peak_bytes)),
            r.total_flaps.to_string(),
        ]);
    }
    for cells in buf {
        let line: Vec<String> = cells.iter().map(|c| format!("{c:>9}")).collect();
        let _ = writeln!(out, "{}", line.join(" "));
    }
    out
}

fn smoke(seed: u64, budget_secs: f64) -> ! {
    // One 1024-node SC+PIL cell: the point is to measure this machine.
    let n = 1024;
    let mode = ExecMode::ScPil {
        cores: COLO_CORES,
        ordered: false,
    };
    eprintln!("[smoke] running N={n} {} ...", mode.label());
    let timed = timed_run(n, seed, mode);
    let doc = serde_json::json!({
        "schema": SCHEMA,
        "seed": seed,
        "scenario": "baseline single-process",
        "rows": [row_json(n, mode.label(), &timed)],
    });
    if let Err(e) = validate(&doc) {
        eprintln!("[smoke] FAIL: schema violation: {e}");
        std::process::exit(1);
    }
    let eps = timed.report.engine.fired as f64 / timed.wall_secs.max(1e-9);
    println!(
        "smoke: N={n} {} wall={:.2}s events/s={:.0} fired={} quiesced={}",
        mode.label(),
        timed.wall_secs,
        eps,
        timed.report.engine.fired,
        timed.report.quiesced,
    );
    if timed.wall_secs > budget_secs {
        eprintln!(
            "[smoke] FAIL: {:.2}s exceeds the {budget_secs:.0}s wall budget",
            timed.wall_secs
        );
        std::process::exit(1);
    }
    println!("smoke: PASS (schema ok, within {budget_secs:.0}s budget)");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = jobs_from_args(&args).unwrap_or_else(|e| exit_usage(USAGE, &e));
    let seed: u64 = parse_flag(&args, "--seed")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(1);
    let scales: Vec<usize> = parse_list_flag(&args, "--scales")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| vec![256, 512, 1024, 2048]);
    let json_out = flag_value(&args, "--json-out")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let table_out = flag_value(&args, "--table-out")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| "TBL_scale.txt".to_string());
    let no_write = has_flag(&args, "--no-write");
    let budget_secs: f64 = parse_flag(&args, "--budget-secs")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(600.0);
    let modes = flag_value(&args, "--modes")
        .and_then(|spec| parse_modes(&spec.unwrap_or_else(|| MODES.join(",")), &MODES))
        .unwrap_or_else(|e| exit_usage(USAGE, &e));
    if has_flag(&args, "--smoke") {
        smoke(seed, budget_secs);
    }

    let mut cells = Vec::new();
    for &n in &scales {
        for &mode in &modes {
            cells.push(Cell::new(
                format!("scale N={n} {}", mode.label()),
                move || (n, mode.label(), timed_run(n, seed, mode)),
            ));
        }
    }
    let rows: Vec<(usize, &'static str, TimedReport)> = run_sweep(cells, jobs);

    let table = render_table(seed, &rows);
    print!("{table}");

    let doc = serde_json::json!({
        "schema": SCHEMA,
        "seed": seed,
        "scenario": "baseline single-process",
        "rows": rows
            .iter()
            .map(|(n, label, t)| row_json(*n, label, t))
            .collect::<Vec<_>>(),
    });
    validate(&doc).unwrap_or_else(|e| {
        eprintln!("internal error: generated document violates {SCHEMA}: {e}");
        std::process::exit(1);
    });
    if no_write {
        return;
    }
    std::fs::write(&json_out, format!("{doc}\n")).unwrap_or_else(|e| {
        eprintln!("cannot write {json_out}: {e}");
        std::process::exit(1);
    });
    std::fs::write(&table_out, &table).unwrap_or_else(|e| {
        eprintln!("cannot write {table_out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {json_out} and {table_out}");
}
