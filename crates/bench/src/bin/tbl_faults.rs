//! Fault-intensity table: #flaps (and fault attribution) vs cluster
//! size under a deterministic fault storm, for Real, Colo, and SC+PIL.
//!
//! The paper's argument is that scalability bugs surface under faults
//! at large scale; this table shows the three execution modes agree on
//! the *faulty* runs too — SC+PIL tracks Real under the same storm
//! while Colo's contention distorts the flap counts.
//!
//! ```text
//! cargo run --release -p scalecheck-bench --bin tbl_faults -- --bug c3831
//! ```
//!
//! Options:
//! * `--bug c3831|c3881|c5456|c6127` — which scenario (default c3831);
//! * `--scales 16,32,64` — cluster sizes (default 16,32,64);
//! * `--intensities 0,0.3,0.7` — storm intensities in `[0, 1]`;
//! * `--seed 1` — simulation seed (also seeds the storm generator);
//! * `--json` — additionally emit one JSON object per cell;
//! * `--jobs N` — parallel sweep workers (default all cores).

use scalecheck::{ExecMode, COLO_CORES};
use scalecheck_bench::{
    cell, exit_usage, has_flag, jobs_from_args, parse_flag, parse_list_flag, print_row,
    report_json, run_sweep,
};
use scalecheck_cluster::{FaultPlan, ScenarioConfig};

const USAGE: &str = "usage: tbl_faults [--bug c3831|c3881|c5456|c6127] [--scales 16,32,64] \
[--intensities 0,0.3,0.7] [--seed N] [--json] [--jobs N]";

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
        .unwrap_or_else(|| vec![16, 32, 64]);
    let intensities: Vec<f64> = parse_list_flag(&args, "--intensities")
        .unwrap_or_else(|e| exit_usage(USAGE, &e))
        .unwrap_or_else(|| vec![0.0, 0.3, 0.7]);
    let json = has_flag(&args, "--json");

    // One cell per (intensity, scale, mode): independent engines, any
    // completion order, canonical assembly below.
    const MODES: [ExecMode; 3] = [
        ExecMode::Real,
        ExecMode::Colo { cores: COLO_CORES },
        ExecMode::ScPil {
            cores: COLO_CORES,
            ordered: false,
        },
    ];
    let mut cells = Vec::new();
    for &intensity in &intensities {
        for &n in &scales {
            let plan = FaultPlan::storm(seed, n as u32, intensity);
            let cfg = ScenarioConfig::bug(&bug, n, seed)
                .unwrap_or_else(|e| exit_usage(USAGE, &e))
                .with_faults(plan);
            for mode in MODES {
                cells.push(cell(
                    format!("faults {bug} i={intensity} N={n} {}", mode.label()),
                    cfg.clone(),
                    mode,
                ));
            }
        }
    }
    let out = run_sweep(cells, jobs);

    println!("Fault-intensity table — {bug}: #flaps under a deterministic fault storm");
    println!("attr = flaps attributable to injected faults (SC+PIL run)\n");
    print_row(
        &[
            "intens".into(),
            "#Nodes".into(),
            "Real".into(),
            "Colo".into(),
            "SC+PIL".into(),
            "attr".into(),
            "dropped".into(),
            "down_s".into(),
        ],
        8,
    );

    let mut idx = 0;
    for &intensity in &intensities {
        for &n in &scales {
            let real = &out[idx];
            let colo = &out[idx + 1];
            let pil = &out[idx + 2];
            idx += 3;
            print_row(
                &[
                    format!("{intensity:.2}"),
                    n.to_string(),
                    real.total_flaps.to_string(),
                    colo.total_flaps.to_string(),
                    pil.total_flaps.to_string(),
                    pil.faults.attributed_flaps.to_string(),
                    pil.faults.fault_dropped.to_string(),
                    format!("{:.0}", pil.faults.total_downtime().as_secs_f64()),
                ],
                8,
            );
            if json {
                for (label, r) in [("Real", real), ("Colo", colo), ("SC+PIL", pil)] {
                    let mut v = report_json(label, n, r);
                    if let serde_json::Value::Object(ref mut map) = v {
                        map.push(("intensity".into(), serde_json::json!(intensity)));
                        map.push((
                            "attributed_flaps".into(),
                            serde_json::json!(r.faults.attributed_flaps),
                        ));
                        map.push((
                            "fault_dropped".into(),
                            serde_json::json!(r.faults.fault_dropped),
                        ));
                        map.push((
                            "faults_fired".into(),
                            serde_json::json!(r.faults.fired.len()),
                        ));
                    }
                    println!("{v}");
                }
            }
        }
    }
}
