//! SLO table: user-visible tail latency and error budgets per bug,
//! scale, and deployment semantics.
//!
//! Figure 3 measures the *operator-visible* symptom (flaps). This table
//! re-runs the C3831 / C3881 / C5456 scenarios with the client-request
//! datapath enabled — a million open-loop virtual users issuing
//! QUORUM reads and writes ([`scalecheck_cluster::TrafficConfig`]) —
//! and asks the paper's question on the *user-visible* axis instead:
//! does colocated testing report SLO verdicts (p99.9 inflation,
//! error-budget breach) that real-scale deployment does not, and does
//! SC+PIL track Real? Each `(bug, N)` point yields a
//! [`scalecheck_explore::SloTriple`] classified by
//! [`scalecheck_explore::SloVerdict`].
//!
//! Writes `BENCH_slo.json` (schema `bench_slo/v2`) and `TBL_slo.txt`
//! in the working directory, and prints the table.
//!
//! `--smoke` is the CI mode: run the c3831 128-node Real and Colo
//! cells, validate the `bench_slo/v2` rows, require the Colo tail to
//! *diverge* from Real (the coupled datapath's core claim), check the
//! request-log digest is stable across a re-run, and fail past
//! `--budget-secs` of wall clock.

use std::time::Instant;

use crate::cli::{bare, val, write_file, Args, Command, Failure, JOBS, SEED};
use crate::{
    fmt_row, jobs, run_sweep, triple_cells, validate_doc, validate_fields, Cell, Field,
};
use scalecheck::Deployment;
use scalecheck_cluster::{RunReport, ScenarioConfig, SloSummary, TrafficConfig};
use scalecheck_explore::{SloParams, SloTriple, SloVerdict};

pub const COMMAND: Command = Command {
    name: "tbl_slo",
    about: "user-visible tail latency and error-budget verdicts per bug, scale and deployment",
    flags: &[
        val("--bugs", "ID,ID..", "scenarios (default c3831,c3881,c5456)"),
        val("--scales", "N,N..", "cluster sizes (default 64,128,256)"),
        val("--users", "N", "virtual users per cell (default 1000000)"),
        SEED,
        val("--modes", "M,M..", "of real,colo,scpil (default all)"),
        val("--json-out", "PATH", "JSON goes here (BENCH_slo.json)"),
        val("--table-out", "PATH", "table goes here (TBL_slo.txt)"),
        bare("--no-write", "print only, write no artifact files"),
        bare("--smoke", "CI: c3831@128 Real vs Colo only"),
        val("--budget-secs", "N", "--smoke wall budget (default 120)"),
        JOBS,
    ],
    run,
};

/// The schema tag committed artifacts carry. v2: requests run coupled
/// to the simulated CPUs and network, rows gain `tail_saturated` /
/// `retried` / `data_dropped`, and the default sweep reaches N=256.
const SCHEMA: &str = "bench_slo/v2";

/// Default virtual-user population per cell. The datapath is
/// O(requests), not O(users), so a million costs the same as a
/// thousand.
const DEFAULT_USERS: u64 = 1_000_000;

/// The swept scenario: the named bug with the open-loop traffic
/// datapath attached.
fn slo_scenario(bug: &str, n: usize, seed: u64, users: u64) -> Result<ScenarioConfig, Failure> {
    let cfg = ScenarioConfig::bug(bug, n, seed).map_err(Failure::Usage)?;
    Ok(cfg.with_traffic(TrafficConfig::open_loop(users)))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One `bench_slo/v2` row.
fn row_json(bug: &str, n: usize, mode_label: &str, r: &RunReport) -> serde_json::Value {
    let s = r.traffic.slo_summary();
    serde_json::json!({
        "bug": bug,
        "nodes": n,
        "mode": mode_label,
        "total_flaps": r.total_flaps,
        "attempted": s.attempted,
        "failed": r.traffic.failed,
        "degraded": r.traffic.degraded,
        "p50_ns": s.p50_ns,
        "p99_ns": s.p99_ns,
        "p999_ns": s.p999_ns,
        "tail_saturated": s.tail_saturated,
        "retried": r.traffic.retried,
        "data_dropped": r.traffic.data_dropped,
        "availability_permille": s.availability_permille,
        "budget_burned_permille": s.budget_burned_permille,
        "budget_breached": s.budget_breached,
        "log_digest": r.traffic.log_digest,
    })
}

/// The `bench_slo/v2` contract: document, row and verdict fields.
const DOC_FIELDS: [(&str, Field); 2] = [("seed", Field::U64), ("users", Field::U64)];
const ROW_FIELDS: [(&str, Field); 17] = [
    ("nodes", Field::U64),
    ("total_flaps", Field::U64),
    ("attempted", Field::U64),
    ("failed", Field::U64),
    ("degraded", Field::U64),
    ("p50_ns", Field::U64),
    ("p99_ns", Field::U64),
    ("p999_ns", Field::U64),
    ("retried", Field::U64),
    ("data_dropped", Field::U64),
    ("availability_permille", Field::U64),
    ("budget_burned_permille", Field::U64),
    ("bug", Field::Str),
    ("mode", Field::Str),
    ("log_digest", Field::Str),
    ("budget_breached", Field::Bool),
    ("tail_saturated", Field::Bool),
];
const VERDICT_FIELDS: [(&str, Field); 3] = [
    ("colo_diverges", Field::Bool),
    ("pil_tracks", Field::Bool),
    ("paper", Field::Bool),
];

/// Checks a whole document: the shared walk, then this schema's own
/// value constraints and the verdict entries.
fn validate(doc: &serde_json::Value) -> Result<(), String> {
    let rows = validate_doc(doc, SCHEMA, &DOC_FIELDS, "rows", &ROW_FIELDS)?;
    for (i, row) in rows.iter().enumerate() {
        let digest = row.get("log_digest").and_then(|v| v.as_str()).unwrap_or("");
        if digest.len() != 32 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!(
                "row {i}: log_digest must be 32 hex chars, got '{digest}'"
            ));
        }
        let avail = row.get("availability_permille").and_then(|v| v.as_u64());
        if avail.is_none_or(|a| a > 1000) {
            return Err(format!("row {i}: availability_permille must be <= 1000"));
        }
    }
    let verdicts = doc
        .get("verdicts")
        .and_then(|v| v.as_array())
        .ok_or("document missing 'verdicts' array".to_string())?;
    for (i, v) in verdicts.iter().enumerate() {
        validate_fields(&format!("verdict {i}"), v, &VERDICT_FIELDS)?;
    }
    Ok(())
}

/// One `(bug, n)` group with its per-deployment reports.
struct Point {
    bug: String,
    n: usize,
    rows: Vec<(Deployment, RunReport)>,
}

impl Point {
    fn summary(&self, deployment: Deployment) -> Option<SloSummary> {
        self.rows
            .iter()
            .find(|(d, _)| *d == deployment)
            .map(|(_, r)| r.traffic.slo_summary())
    }

    /// The SLO triple, present only when all three deployments ran.
    fn triple(&self) -> Option<SloTriple> {
        Some(SloTriple {
            real: self.summary(Deployment::Real)?,
            colo: self.summary(Deployment::Colo)?,
            pil: self.summary(Deployment::ScPil)?,
        })
    }
}

fn verdict_json(p: &Point, triple: &SloTriple, v: &SloVerdict) -> serde_json::Value {
    serde_json::json!({
        "bug": p.bug,
        "nodes": p.n,
        "real_p999_ns": triple.real.p999_ns,
        "colo_p999_ns": triple.colo.p999_ns,
        "pil_p999_ns": triple.pil.p999_ns,
        "colo_diverges": v.colo_diverges,
        "pil_tracks": v.pil_tracks,
        "paper": v.paper(),
    })
}

/// Renders the human table; also what `TBL_slo.txt` holds.
fn render_table(seed: u64, users: u64, points: &[Point], params: &SloParams) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SLO table — {users} open-loop users, QUORUM r/w, seed {seed}: user-visible verdicts"
    );
    let _ = writeln!(
        out,
        "p in ms ('+' = tail saturated at the observed max, typically the client timeout);"
    );
    let _ = writeln!(
        out,
        "avail/burn in permille; retry = weighted client retries fed back into offered load;"
    );
    let _ = writeln!(
        out,
        "verdict: diverge = Colo p99.9/budget departs Real, track = SC+PIL stays within"
    );
    let _ = writeln!(out, "the allowance of Real\n");
    let header = [
        "bug", "#Nodes", "mode", "flaps", "p50", "p99", "p99.9", "retry", "avail", "burn", "breach",
    ];
    let _ = writeln!(out, "{}", fmt_row(&header, 8, " "));
    for p in points {
        for (d, r) in &p.rows {
            let s = r.traffic.slo_summary();
            let cells = [
                p.bug.clone(),
                p.n.to_string(),
                d.label().to_string(),
                r.total_flaps.to_string(),
                format!("{:.2}", ms(s.p50_ns)),
                format!("{:.2}", ms(s.p99_ns)),
                format!(
                    "{:.2}{}",
                    ms(s.p999_ns),
                    if s.tail_saturated { "+" } else { "" }
                ),
                r.traffic.retried.to_string(),
                s.availability_permille.to_string(),
                s.budget_burned_permille.to_string(),
                if s.budget_breached { "YES" } else { "-" }.to_string(),
            ];
            let _ = writeln!(out, "{}", fmt_row(&cells, 8, " "));
        }
    }
    let _ = writeln!(
        out,
        "\nverdicts (allowance: max({}‰ of Real p99.9, {:.1}ms), availability slack {}‰):",
        params.p999_inflation_permille,
        ms(params.p999_slack_ns),
        params.availability_slack_permille,
    );
    for p in points {
        let Some(t) = p.triple() else {
            let _ = writeln!(out, "  {} N={}: (needs real+colo+scpil)", p.bug, p.n);
            continue;
        };
        let v = t.verdict(params);
        let _ = writeln!(
            out,
            "  {} N={:>4}: colo_diverges={:<5} pil_tracks={:<5} paper_shape={}",
            p.bug,
            p.n,
            v.colo_diverges,
            v.pil_tracks,
            v.paper(),
        );
    }
    out
}

fn smoke(seed: u64, users: u64, budget_secs: f64) -> Result<(), Failure> {
    let fail = |msg: String| Err(Failure::Failed(format!("[smoke] FAIL: {msg}")));
    // The c3831 128-node Real and Colo cells. Three contracts, on
    // exactly the point the paper's user-visible claim rests on:
    //  1. `bench_slo/v2` rows validate;
    //  2. the Colo tail *diverges* from Real — the coupled datapath
    //     must surface C3831's CPU starvation past the test scale;
    //  3. the Colo cell re-run reproduces its traffic report
    //     byte-for-byte (the datapath's determinism contract).
    let bug = "c3831";
    let n = 128;
    let cfg = slo_scenario(bug, n, seed, users)?;
    let t0 = Instant::now();
    let mut reports = Vec::new();
    for d in [Deployment::Real, Deployment::Colo] {
        eprintln!("[smoke] running {bug} N={n} {} ...", d.label());
        reports.push((d, d.run(&cfg)));
    }
    let wall = t0.elapsed().as_secs_f64();
    let rows: Vec<serde_json::Value> = reports
        .iter()
        .map(|(d, r)| row_json(bug, n, d.label(), r))
        .collect();
    let verdicts: Vec<serde_json::Value> = Vec::new();
    let doc = serde_json::json!({
        "schema": SCHEMA,
        "seed": seed,
        "users": users,
        "rows": rows,
        "verdicts": verdicts,
    });
    if let Err(e) = validate(&doc) {
        return fail(format!("schema violation: {e}"));
    }
    let (real, colo) = (&reports[0].1, &reports[1].1);
    for (label, r) in [("Real", real), ("Colo", colo)] {
        let s = r.traffic.slo_summary();
        println!(
            "smoke: {bug} N={n} {label} attempted={} p99.9={:.2}ms avail={}‰ retried={} digest={}",
            s.attempted,
            ms(s.p999_ns),
            s.availability_permille,
            r.traffic.retried,
            r.traffic.log_digest,
        );
        if s.attempted == 0 {
            return fail(format!("{label} attempted zero requests"));
        }
    }
    // The divergence assertion: same params the full table applies.
    let triple = SloTriple {
        real: real.traffic.slo_summary(),
        colo: colo.traffic.slo_summary(),
        // Only colo_diverges is under test; feed Real in for PIL so
        // pil_tracks is vacuously true.
        pil: real.traffic.slo_summary(),
    };
    let v = triple.verdict(&SloParams::default());
    if !v.colo_diverges {
        return fail(format!(
            "Colo SLO does not diverge from Real at {bug} N={n} \
             (real p99.9={:.2}ms colo p99.9={:.2}ms): the coupled datapath lost \
             the paper's user-visible signal",
            ms(triple.real.p999_ns),
            ms(triple.colo.p999_ns),
        ));
    }
    if Deployment::Colo.run(&cfg).traffic != colo.traffic {
        return fail("traffic report not reproducible across reruns".into());
    }
    if wall > budget_secs {
        return fail(format!(
            "{wall:.2}s exceeds the {budget_secs:.0}s wall budget"
        ));
    }
    println!(
        "smoke: PASS (schema ok, colo diverges from real, digest stable, within {budget_secs:.0}s budget)"
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let seed: u64 = args.get("--seed")?.unwrap_or(1);
    let users: u64 = args.get("--users")?.unwrap_or(DEFAULT_USERS);
    let scales: Vec<usize> = args.sizes("--scales")?.unwrap_or_else(|| vec![64, 128, 256]);
    let bugs: Vec<String> = args
        .list("--bugs")?
        .unwrap_or_else(|| vec!["c3831".into(), "c3881".into(), "c5456".into()]);
    let json_out = args.value("--json-out").unwrap_or("BENCH_slo.json");
    let table_out = args.value("--table-out").unwrap_or("TBL_slo.txt");
    let budget_secs: f64 = args.get("--budget-secs")?.unwrap_or(120.0);
    let modes = args.value("--modes").unwrap_or("real,colo,scpil");
    let modes = Deployment::parse_list(modes, &Deployment::ALL).map_err(Failure::Usage)?;
    if args.has("--smoke") {
        return smoke(seed, users, budget_secs);
    }
    // The deployments to run per point, in column order. With both Colo
    // and SC+PIL asked for, one memoize → replay cell yields the pair:
    // the memoization run is the Colo run.
    let ran: Vec<Deployment> = Deployment::ALL.into_iter().filter(|d| modes.contains(d)).collect();
    let paired = ran.contains(&Deployment::Colo) && ran.contains(&Deployment::ScPil);
    let mut cells = Vec::new();
    for bug in &bugs {
        for &n in &scales {
            let cfg = slo_scenario(bug, n, seed, users)?;
            let label = format!("slo {bug} N={n}");
            if paired {
                let [real, pair] = triple_cells(&label, &cfg);
                cells.extend(ran.contains(&Deployment::Real).then_some(real));
                cells.push(pair);
            } else {
                for &d in &ran {
                    let cfg = cfg.clone();
                    cells.push(Cell::new(format!("{label} {}", d.label()), move || {
                        vec![d.run(&cfg)]
                    }));
                }
            }
        }
    }
    let mut out = run_sweep(cells, jobs).into_iter().flatten();

    let mut points: Vec<Point> = Vec::new();
    for bug in &bugs {
        for &n in &scales {
            let got: Vec<(Deployment, RunReport)> = ran.iter().copied().zip(&mut out).collect();
            let report = |d| &got.iter().find(|(m, _)| *m == d).expect("deployment ran").1;
            let rows = modes.iter().map(|&d| (d, report(d).clone())).collect();
            points.push(Point {
                bug: bug.clone(),
                n,
                rows,
            });
        }
    }

    let params = SloParams::default();
    let table = render_table(seed, users, &points, &params);
    print!("{table}");

    let rows: Vec<serde_json::Value> = points
        .iter()
        .flat_map(|p| {
            p.rows
                .iter()
                .map(|(d, r)| row_json(&p.bug, p.n, d.label(), r))
        })
        .collect();
    let verdicts: Vec<serde_json::Value> = points
        .iter()
        .filter_map(|p| {
            let t = p.triple()?;
            Some(verdict_json(p, &t, &t.verdict(&params)))
        })
        .collect();
    let params_json = serde_json::to_value(&params).expect("params serialize");
    let doc = serde_json::json!({
        "schema": SCHEMA,
        "seed": seed,
        "users": users,
        "params": params_json,
        "rows": rows,
        "verdicts": verdicts,
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
