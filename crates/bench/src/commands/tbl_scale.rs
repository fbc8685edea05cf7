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
//! Writes `BENCH_scale.json` (schema `bench_scale/v1`) and
//! `TBL_scale.txt` in the working directory, and prints the table. The
//! committed artifacts also carry the 4096-node cells, which take
//! ~3 minutes each on one CPU but ~14 GB of host memory, so they are
//! opt-in here and named by `scripts/run_experiments.sh --scale`.
//!
//! Wall times are measured on whatever machine runs the sweep and are
//! *not* deterministic: `wall_secs` and `events_per_sec` are always the
//! clock of the run that wrote the JSON, every other column reproduces
//! byte-for-byte.

use std::time::Instant;

use crate::cli::{bare, read_file, val, write_file, Args, Command, Failure, JOBS, SEED};
use crate::{fmt_row, jobs, run_sweep, validate_doc, Cell, Field};
use scalecheck::Deployment;
use scalecheck_cluster::{RunReport, ScenarioConfig};

pub const COMMAND: Command = Command {
    name: "tbl_scale",
    about: "harness throughput at 256-4096 nodes: wall clock, events/s and memory per cell",
    flags: &[
        val("--scales", "N,N..", "#nodes; default 256,512,1024,2048"),
        SEED,
        val("--modes", "M,M..", "of colo,scpil (default both)"),
        val("--json-out", "PATH", "JSON goes here (BENCH_scale.json)"),
        val("--table-out", "PATH", "table goes here (TBL_scale.txt)"),
        bare("--no-write", "print only, write no artifact files"),
        bare("--smoke", "CI: the 1024-node SC+PIL cell only"),
        val("--budget-secs", "N", "--smoke wall budget (default 600)"),
        JOBS,
    ],
    run,
};

/// The schema tag committed artifacts carry.
const SCHEMA: &str = "bench_scale/v1";

/// One executed cell: the deterministic report plus the wall-clock cost
/// of producing it.
struct TimedReport {
    wall_secs: f64,
    report: RunReport,
}

impl TimedReport {
    fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.report.engine.fired as f64 / self.wall_secs
        } else {
            0.0
        }
    }
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
fn timed_run(n: usize, seed: u64, mode: Deployment) -> TimedReport {
    let cfg = scale_scenario(n, seed);
    let t0 = Instant::now();
    let report = mode.run(&cfg);
    TimedReport {
        wall_secs: t0.elapsed().as_secs_f64(),
        report,
    }
}

/// One `bench_scale/v1` row.
fn row_json(n: usize, mode_label: &str, t: &TimedReport) -> serde_json::Value {
    let r = &t.report;
    serde_json::json!({
        "nodes": n,
        "mode": mode_label,
        "wall_secs": t.wall_secs,
        "events_per_sec": t.events_per_sec(),
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

fn validate(doc: &serde_json::Value) -> Result<&[serde_json::Value], String> {
    validate_doc(doc, SCHEMA, &DOC_FIELDS, "rows", &ROW_FIELDS)
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
    let header = ["#Nodes", "mode", "wall_s", "ev/s", "fired", "virt_s", "peak_MiB", "flaps"];
    let _ = writeln!(out, "{}", fmt_row(&header, 9, " "));
    for (n, label, t) in rows {
        let r = &t.report;
        let cells = [
            n.to_string(),
            label.to_string(),
            format!("{:.2}", t.wall_secs),
            format!("{:.0}", t.events_per_sec()),
            r.engine.fired.to_string(),
            format!("{:.0}", r.duration.as_secs_f64()),
            format!("{:.1}", mib(r.mem_peak_bytes)),
            r.total_flaps.to_string(),
        ];
        let _ = writeln!(out, "{}", fmt_row(&cells, 9, " "));
    }
    out
}

/// The columns of a row that repeat on any host.
const DETERMINISTIC: [&str; 3] = ["events_fired", "total_flaps", "messages_delivered"];

/// CI mode. Proves the 1024-node cell *runs*, is schema-valid and — it
/// is the same cell as the committed document's 1024/SC+PIL row when
/// the seeds agree — repeats that row's deterministic columns. The wall
/// budget only catches a hang: perf is gated by the benchmark.
fn smoke(seed: u64, budget_secs: f64) -> Result<(), Failure> {
    let fail = |msg: String| Err(Failure::Failed(format!("[smoke] FAIL: {msg}")));
    // One 1024-node SC+PIL cell: the point is to measure this machine.
    let n = 1024;
    let mode = Deployment::ScPil;
    eprintln!("[smoke] running N={n} {} ...", mode.label());
    let timed = timed_run(n, seed, mode);
    let doc = serde_json::json!({
        "schema": SCHEMA,
        "seed": seed,
        "scenario": "baseline single-process",
        "rows": [row_json(n, mode.label(), &timed)],
    });
    let row = match validate(&doc) {
        Ok(rows) => &rows[0],
        Err(e) => return fail(format!("schema violation: {e}")),
    };
    println!(
        "smoke: N={n} {} wall={:.2}s events/s={:.0} fired={} quiesced={}",
        mode.label(),
        timed.wall_secs,
        timed.events_per_sec(),
        timed.report.engine.fired,
        timed.report.quiesced,
    );
    let broken = |e: String| Failure::Failed(format!("[smoke] FAIL: BENCH_scale.json: {e}"));
    let committed: serde_json::Value =
        serde_json::from_str(&read_file("BENCH_scale.json")?).map_err(|e| broken(e.to_string()))?;
    let rows = validate(&committed).map_err(broken)?;
    if committed.get("seed").and_then(|s| s.as_u64()) != Some(seed) {
        println!("smoke: BENCH_scale.json has another seed; its row is not compared");
    } else {
        let same = |want: &serde_json::Value, column: &str| want.get(column) == row.get(column);
        let Some(want) = rows.iter().find(|r| same(r, "nodes") && same(r, "mode")) else {
            return fail(format!(
                "BENCH_scale.json has no {n}-node {} row",
                mode.label()
            ));
        };
        if let Some(column) = DETERMINISTIC.iter().find(|c| !same(want, c)) {
            let (got, want) = (row.get(column), want.get(column));
            return fail(format!(
                "{column} is {got:?}, BENCH_scale.json has {want:?}"
            ));
        }
        println!(
            "smoke: {} repeat the BENCH_scale.json row",
            DETERMINISTIC.join(", ")
        );
    }
    if timed.wall_secs > budget_secs {
        return fail(format!(
            "{:.2}s exceeds the {budget_secs:.0}s wall budget",
            timed.wall_secs
        ));
    }
    println!("smoke: PASS (schema ok, within {budget_secs:.0}s budget)");
    Ok(())
}

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let seed: u64 = args.get("--seed")?.unwrap_or(1);
    let scales: Vec<usize> = args
        .sizes("--scales")?
        .unwrap_or_else(|| vec![256, 512, 1024, 2048]);
    let json_out = args.value("--json-out").unwrap_or("BENCH_scale.json");
    let table_out = args.value("--table-out").unwrap_or("TBL_scale.txt");
    let budget_secs: f64 = args.get("--budget-secs")?.unwrap_or(600.0);
    let modes = args.value("--modes").unwrap_or("colo,scpil");
    let modes = Deployment::parse_list(modes, &Deployment::ALL[1..]).map_err(Failure::Usage)?;
    if args.has("--smoke") {
        return smoke(seed, budget_secs);
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
    validate(&doc).map_err(|e| {
        Failure::Failed(format!(
            "internal error: generated document violates {SCHEMA}: {e}"
        ))
    })?;
    if args.has("--no-write") {
        return Ok(());
    }
    write_file(json_out, format!("{doc}\n"))?;
    write_file(table_out, &table)?;
    eprintln!("wrote {json_out} and {table_out}");
    Ok(())
}
