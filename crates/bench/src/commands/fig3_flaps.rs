//! Regenerates the paper's Figure 3: #flaps vs cluster size for one
//! bug, under Real, Colo, and SC+PIL.
//!
//! `--bug c6127` is the extension experiment: the paper narrates the
//! bug in §2 (the fresh-ring construction is O(MN²) on a code path only
//! the bootstrap-from-scratch workload reaches) but leaves it out of
//! Figure 3.

use crate::cli::{val, Args, Command, Failure, BUG, JOBS, SEED};
use crate::{jobs, print_row, run_triples};
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
        .sizes("--scales")?
        .unwrap_or_else(|| vec![32, 64, 128, 256]);

    let title = match bug {
        "c3831" => "Figure 3a — c3831: Decommission",
        "c3881" => "Figure 3b — c3881: Scale-Out",
        "c5456" => "Figure 3c — c5456: Scale-Out",
        "c6127" => "Extension (not a paper figure) — c6127: Bootstrap-from-scratch",
        other => other,
    };

    // Two cells per scale (Real; memoize → replay), canonical assembly.
    let mut points = Vec::new();
    for &n in &scales {
        let cfg = ScenarioConfig::bug(bug, n, seed).map_err(Failure::Usage)?;
        points.push((format!("fig3 {bug} N={n}"), cfg));
    }
    let triples = run_triples(points, jobs);

    println!("{title}");
    println!("#flaps observed across the whole cluster (paper plots x1000)\n");
    print_row(&["#Nodes", "Real", "Colo", "SC+PIL", "hit%"], 10);

    for (&n, t) in scales.iter().zip(&triples) {
        print_row(
            &[
                n.to_string(),
                t.real.total_flaps.to_string(),
                t.colo.total_flaps.to_string(),
                t.pil.total_flaps.to_string(),
                format!("{:.0}", t.pil.memo.replay_hit_rate() * 100.0),
            ],
            10,
        );
    }

    // Shape summary (the paper's qualitative claims).
    println!();
    let peak_n = scales.last().expect("a list flag has at least one element");
    let peak = triples.last().expect("one triple per scale");
    println!(
        "shape: at N={peak_n}, Colo/Real = {:.1}x, SC+PIL/Real = {:.2}x",
        ratio(peak.colo.total_flaps, peak.real.total_flaps),
        ratio(peak.pil.total_flaps, peak.real.total_flaps),
    );
    println!(
        "user impact at N={peak_n}: unavailability Real {:.2}%, SC+PIL {:.2}%",
        peak.real.unavailability() * 100.0,
        peak.pil.unavailability() * 100.0
    );
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
