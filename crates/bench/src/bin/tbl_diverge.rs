//! Divergence-diagnosis table: where does colocated virtual time go?
//!
//! ```text
//! cargo run --release -p scalecheck-bench --bin tbl_diverge -- --nodes 128
//! ```
//!
//! Reproduces §6's diagnosis narrative with traces instead of prose.
//! The same scenario runs under Real, Colo, and SC+PIL with full
//! observability tracing, then the divergence analyzer attributes the
//! colocated run's extra virtual time:
//!
//! * **Colo vs Real** — the calculation stage inflates (the shared
//!   machine queues and context-switches the O(n^3) recalculation),
//!   which is exactly the scale-dependent compute §6 says colocation
//!   distorts;
//! * **SC+PIL vs Real** — replacing the calculation with a PIL sleep
//!   removes the inflation: no category should exceed tolerance.
//!
//! Options: `--bug`, `--nodes`, `--seed` select the scenario
//! (default c3831 @ 128, seed 1); `--out PATH` also writes the table to
//! a file; `--trace-dir DIR` dumps the three Chrome traces; `--jobs N`
//! sets the sweep's worker threads.

use scalecheck::{ExecMode, COLO_CORES};
use scalecheck_bench::{cell, exit_usage, flag_value, jobs_from_args, parse_flag, run_sweep};
use scalecheck_cluster::ScenarioConfig;
use scalecheck_obs::Trace;

const USAGE: &str = "usage: tbl_diverge [--bug c3831|c3881|c5456|c6127] [--nodes N] [--seed N] \
[--out PATH] [--trace-dir DIR] [--jobs N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = jobs_from_args(&args).unwrap_or_else(|e| exit_usage(USAGE, &e));
    let bug = flag_value(&args, "--bug")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| "c3831".to_string());
    let n: usize = parse_flag(&args, "--nodes")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(128);
    let seed: u64 = parse_flag(&args, "--seed")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(1);
    let out_path = flag_value(&args, "--out").unwrap_or_else(|e| exit_usage(USAGE, &e));
    let trace_dir = flag_value(&args, "--trace-dir").unwrap_or_else(|e| exit_usage(USAGE, &e));

    let mut cfg = ScenarioConfig::bug(&bug, n, seed).unwrap_or_else(|e| exit_usage(USAGE, &e));
    cfg.trace = scalecheck_obs::TraceConfig::enabled();

    let modes = [
        ExecMode::Real,
        ExecMode::Colo { cores: COLO_CORES },
        ExecMode::ScPil {
            cores: COLO_CORES,
            ordered: false,
        },
    ];
    let cells = modes
        .iter()
        .map(|&mode| {
            cell(
                format!("diverge {bug} N={n} {}", mode.label()),
                cfg.clone(),
                mode,
            )
        })
        .collect();
    let out = run_sweep(cells, jobs);

    let mut traces: Vec<Trace> = Vec::new();
    for (r, mode) in out.iter().zip(modes.iter()) {
        let mut t = r.obs.clone();
        t.meta.label = format!("{bug}@{n} {}", mode.label());
        traces.push(t);
    }
    let (real, colo, scpil) = (&traces[0], &traces[1], &traces[2]);

    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| exit_usage(USAGE, &format!("mkdir {dir}: {e}")));
        for (t, mode) in traces.iter().zip(modes.iter()) {
            let path = format!("{dir}/{bug}_{n}_{}.json", mode.label().to_lowercase());
            std::fs::write(&path, scalecheck_obs::to_chrome_json(t).as_bytes())
                .unwrap_or_else(|e| exit_usage(USAGE, &format!("write {path}: {e}")));
            eprintln!("[tbl_diverge] wrote {path}");
        }
    }

    let colo_report = scalecheck_obs::diverge(real, colo);
    let pil_report = scalecheck_obs::diverge(real, scpil);

    let mut text = String::new();
    text.push_str(&format!(
        "Divergence diagnosis: {bug} N={n} seed={seed} (§6 colocation distortion)\n"
    ));
    for (r, mode) in out.iter().zip(modes.iter()) {
        let e = &r.engine;
        text.push_str(&format!(
            "  {:<7} duration={:>6.0}s flaps={:<6} engine: scheduled={} fired={} cancelled={}\n",
            mode.label(),
            r.duration.as_secs_f64(),
            r.total_flaps,
            e.scheduled,
            e.fired,
            e.cancelled,
        ));
    }
    text.push('\n');
    text.push_str(&colo_report.render());
    text.push('\n');
    text.push_str(&pil_report.render());

    let colo_ok = colo_report.top().is_some_and(|r| r.category == "calc");
    let pil_ok = !pil_report.diverged();
    text.push('\n');
    text.push_str(&format!(
        "colo-inflates-calc={} pil-within-tolerance={}\n",
        if colo_ok { "yes" } else { "NO" },
        if pil_ok { "yes" } else { "NO" },
    ));

    print!("{text}");
    if let Some(path) = out_path {
        std::fs::write(&path, text.as_bytes())
            .unwrap_or_else(|e| exit_usage(USAGE, &format!("write {path}: {e}")));
        println!("wrote {path}");
    }

    if !colo_ok || !pil_ok {
        eprintln!("error: divergence diagnosis did not match the paper's narrative");
        std::process::exit(1);
    }
}
