//! Fault-intensity table: #flaps (and fault attribution) vs cluster
//! size under a deterministic fault storm, for Real, Colo, and SC+PIL.
//!
//! The paper's argument is that scalability bugs surface under faults
//! at large scale; this table shows the three execution modes agree on
//! the *faulty* runs too — SC+PIL tracks Real under the same storm
//! while Colo's contention distorts the flap counts. `--seed` seeds the
//! storm generator as well as the simulation.

use crate::cli::{val, Args, Command, Failure, BUG, JOBS, SEED};
use crate::{jobs, print_row, run_triples};
use scalecheck_cluster::{FaultPlan, ScenarioConfig};

pub const COMMAND: Command = Command {
    name: "tbl_faults",
    about: "#flaps and fault attribution under a deterministic fault storm, three deployments",
    flags: &[
        BUG,
        val("--scales", "N,N..", "cluster sizes (default 16,32,64)"),
        val("--intensities", "X,X..", "in [0, 1] (default 0,0.3,0.7)"),
        SEED,
        JOBS,
    ],
    run,
};

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let bug = args.value("--bug").unwrap_or("c3831");
    let seed: u64 = args.get("--seed")?.unwrap_or(1);
    let scales: Vec<usize> = args.sizes("--scales")?.unwrap_or_else(|| vec![16, 32, 64]);
    let intensities: Vec<f64> = args
        .list("--intensities")?
        .unwrap_or_else(|| vec![0.0, 0.3, 0.7]);

    // Two cells per (intensity, scale) point (Real; memoize → replay),
    // canonical assembly below.
    let rows: Vec<(f64, usize)> = intensities
        .iter()
        .flat_map(|&i| scales.iter().map(move |&n| (i, n)))
        .collect();
    let mut points = Vec::new();
    for &(intensity, n) in &rows {
        let plan = FaultPlan::storm(seed, n as u32, intensity);
        let cfg = ScenarioConfig::bug(bug, n, seed)
            .map_err(Failure::Usage)?
            .with_faults(plan);
        points.push((format!("faults {bug} i={intensity} N={n}"), cfg));
    }
    let triples = run_triples(points, jobs);

    println!("Fault-intensity table — {bug}: #flaps under a deterministic fault storm");
    println!("attr = flaps attributable to injected faults (SC+PIL run)\n");
    print_row(&["intens", "#Nodes", "Real", "Colo", "SC+PIL", "attr", "dropped", "down_s"], 8);

    for ((intensity, n), t) in rows.iter().zip(&triples) {
        print_row(
            &[
                format!("{intensity:.2}"),
                n.to_string(),
                t.real.total_flaps.to_string(),
                t.colo.total_flaps.to_string(),
                t.pil.total_flaps.to_string(),
                t.pil.faults.attributed_flaps.to_string(),
                t.pil.faults.fault_dropped.to_string(),
                format!("{:.0}", t.pil.faults.total_downtime().as_secs_f64()),
            ],
            8,
        );
    }
    Ok(())
}
