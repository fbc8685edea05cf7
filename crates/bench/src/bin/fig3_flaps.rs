//! Regenerates the paper's Figure 3: #flaps vs cluster size for one
//! bug, under Real, Colo, and SC+PIL.
//!
//! ```text
//! cargo run --release -p scalecheck-bench --bin fig3_flaps -- --bug c3831
//! ```
//!
//! Options:
//! * `--bug c3831|c3881|c5456` — which panel (default c3831); `c6127`
//!   is the extension experiment: the paper narrates the bug in §2 (the
//!   fresh-ring construction is O(MN²) on a code path only the
//!   bootstrap-from-scratch workload reaches) but leaves it out of
//!   Figure 3;
//! * `--scales 32,64,128,256` — x-axis (default the paper's);
//! * `--seed 1` — simulation seed;
//! * `--json` — additionally emit one JSON object per point;
//! * `--jobs N` — parallel sweep workers (default all cores).

use scalecheck::{ExecMode, COLO_CORES};
use scalecheck_bench::{
    cell, exit_usage, has_flag, jobs_from_args, parse_flag, parse_list_flag, print_row,
    report_json, run_sweep, PAPER_SCALES,
};
use scalecheck_cluster::ScenarioConfig;

const USAGE: &str = "usage: fig3_flaps [--bug c3831|c3881|c5456|c6127] [--scales 32,64,128,256] \
[--seed N] [--json] [--jobs N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = jobs_from_args(&args).unwrap_or_else(|e| exit_usage(USAGE, &e));
    let bug = scalecheck_bench::flag_value(&args, "--bug")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| "c3831".to_string());
    let seed: u64 = parse_flag(&args, "--seed")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or(1);
    let scales: Vec<usize> = parse_list_flag(&args, "--scales")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| PAPER_SCALES.to_vec());
    let json = has_flag(&args, "--json");

    let title = match bug.as_str() {
        "c3831" => "Figure 3a — c3831: Decommission",
        "c3881" => "Figure 3b — c3881: Scale-Out",
        "c5456" => "Figure 3c — c5456: Scale-Out",
        "c6127" => "Extension (not a paper figure) — c6127: Bootstrap-from-scratch",
        other => other,
    };

    // One cell per (scale, mode): independent engines, any completion
    // order, canonical assembly below.
    const MODES: [ExecMode; 3] = [
        ExecMode::Real,
        ExecMode::Colo { cores: COLO_CORES },
        ExecMode::ScPil {
            cores: COLO_CORES,
            ordered: false,
        },
    ];
    let mut cells = Vec::new();
    for &n in &scales {
        let cfg = ScenarioConfig::bug(&bug, n, seed).unwrap_or_else(|e| exit_usage(USAGE, &e));
        for mode in MODES {
            cells.push(cell(
                format!("fig3 {bug} N={n} {}", mode.label()),
                cfg.clone(),
                mode,
            ));
        }
    }
    let out = run_sweep(cells, jobs);

    println!("{title}");
    println!("#flaps observed across the whole cluster (paper plots x1000)\n");
    print_row(
        &[
            "#Nodes".into(),
            "Real".into(),
            "Colo".into(),
            "SC+PIL".into(),
            "hit%".into(),
        ],
        10,
    );

    let mut rows = Vec::new();
    let mut unavail: Vec<(f64, f64)> = Vec::new();
    for (i, &n) in scales.iter().enumerate() {
        let real = &out[3 * i];
        let colo = &out[3 * i + 1];
        let pil = &out[3 * i + 2];
        print_row(
            &[
                n.to_string(),
                real.total_flaps.to_string(),
                colo.total_flaps.to_string(),
                pil.total_flaps.to_string(),
                format!("{:.0}", pil.memo.replay_hit_rate() * 100.0),
            ],
            10,
        );
        if json {
            println!("{}", report_json("Real", n, real));
            println!("{}", report_json("Colo", n, colo));
            println!("{}", report_json("SC+PIL", n, pil));
        }
        rows.push((n, real.total_flaps, colo.total_flaps, pil.total_flaps));
        unavail.push((real.unavailability(), pil.unavailability()));
    }

    // Shape summary (the paper's qualitative claims).
    println!();
    let peak = rows.last().unwrap_or_else(|| {
        exit_usage(USAGE, "--scales must name at least one scale");
    });
    println!(
        "shape: at N={}, Colo/Real = {:.1}x, SC+PIL/Real = {:.2}x",
        peak.0,
        ratio(peak.2, peak.1),
        ratio(peak.3, peak.1),
    );
    if let Some((real_u, pil_u)) = unavail.last() {
        println!(
            "user impact at N={}: unavailability Real {:.2}%, SC+PIL {:.2}%",
            peak.0,
            real_u * 100.0,
            pil_u * 100.0
        );
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        if a == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a as f64 / b as f64
    }
}
