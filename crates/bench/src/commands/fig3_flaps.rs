//! Regenerates the paper's Figure 3: #flaps vs cluster size for one
//! bug, under Real, Colo, and SC+PIL.
//!
//! `--bug c6127` is the extension experiment: the paper narrates the
//! bug in §2 (the fresh-ring construction is O(MN²) on a code path only
//! the bootstrap-from-scratch workload reaches) but leaves it out of
//! Figure 3.

use crate::cli::{val, Args, Command, Failure, BUG, JOBS, SEED};
use crate::{cell, jobs, print_row, run_sweep, MODES};
use scalecheck_cluster::ScenarioConfig;

pub const COMMAND: Command = Command {
    name: "fig3_flaps",
    about: "Figure 3: #flaps vs cluster size for one bug under Real, Colo and SC+PIL",
    flags: &[
        BUG,
        val("--scales", "N,N..", "the x-axis (default 32,64,128,256)"),
        SEED,
        JOBS,
    ],
    run,
};

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let bug = args.value("--bug").unwrap_or("c3831");
    let seed: u64 = args.get("--seed")?.unwrap_or(1);
    let scales: Vec<usize> = args
        .list("--scales")?
        .unwrap_or_else(|| vec![32, 64, 128, 256]);

    let title = match bug {
        "c3831" => "Figure 3a — c3831: Decommission",
        "c3881" => "Figure 3b — c3881: Scale-Out",
        "c5456" => "Figure 3c — c5456: Scale-Out",
        "c6127" => "Extension (not a paper figure) — c6127: Bootstrap-from-scratch",
        other => other,
    };

    // One cell per (scale, mode): independent engines, any completion
    // order, canonical assembly below.
    let mut cells = Vec::new();
    for &n in &scales {
        let cfg = ScenarioConfig::bug(bug, n, seed).map_err(Failure::Usage)?;
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
    print_row(&["#Nodes", "Real", "Colo", "SC+PIL", "hit%"], 10);

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
        rows.push((n, real.total_flaps, colo.total_flaps, pil.total_flaps));
        unavail.push((real.unavailability(), pil.unavailability()));
    }

    // Shape summary (the paper's qualitative claims).
    println!();
    let peak = rows.last().expect("a list flag has at least one element");
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
    Ok(())
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
