//! Regenerates the paper's Figure 1: test duration under real-scale
//! testing (t), basic colocation (≈ N·t on one core), and PIL replay
//! (t+e).
//!
//! One CPU-heavy protocol round is run at each N under the three
//! setups; a 1-core colocation machine makes the N·t serialization of
//! Figure 1b explicit.

use crate::cli::{val, Args, Command, Failure, JOBS};
use crate::{jobs, print_row, run_sweep, Cell};
use scalecheck::{memoize, replay_ordered, run_colo, run_real};
use scalecheck_cluster::{RunReport, ScenarioConfig, Workload};
use scalecheck_sim::SimDuration;

pub const COMMAND: Command = Command {
    name: "fig1_testtime",
    about: "Figure 1: test duration under real-scale testing, 1-core colocation and PIL replay",
    flags: &[
        val("--scales", "N,N..", "cluster sizes (default 8,16,32)"),
        JOBS,
    ],
    run,
};

fn scenario(n: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::c3831(n, 1);
    // Figure 1 assumes a CPU-intensive protocol; at these small scales
    // the real calibration is too cheap to contend, so the per-op cost
    // is inflated to make each node's computation a few seconds — the
    // figure's premise, not its conclusion.
    cfg.ns_per_op = 120_000;
    // One decommission: a single burst of expensive computation.
    cfg.workload = Workload::Decommission {
        count: 1,
        gap: SimDuration::from_secs(30),
    };
    cfg.workload_end = SimDuration::from_secs(80);
    cfg.max_duration = SimDuration::from_secs(3600);
    cfg
}

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let scales: Vec<usize> = args.sizes("--scales")?.unwrap_or_else(|| vec![8, 16, 32]);

    // Three cells per scale: real, 1-core colocation, and the ordered
    // PIL replay on the 1-core box (memoized on 16 cores).
    let mut cells: Vec<Cell<RunReport>> = Vec::new();
    for &n in &scales {
        let cfg = scenario(n);
        let (real_cfg, colo_cfg) = (cfg.clone(), cfg.clone());
        cells.push(Cell::new(format!("fig1 N={n} Real"), move || {
            run_real(&real_cfg)
        }));
        cells.push(Cell::new(format!("fig1 N={n} Colo(1)"), move || {
            run_colo(&colo_cfg, 1)
        }));
        cells.push(Cell::new(format!("fig1 N={n} PIL(1)"), move || {
            // Memoize (on 16 cores to keep the one-time cost sane),
            // then PIL-replay on the 1-core box: the PIL sleeps do
            // not occupy the core, so the replay tracks Real.
            let memo = memoize(&cfg, 16);
            replay_ordered(&cfg, 1, &memo)
        }));
    }
    let out = run_sweep(cells, jobs);

    println!("Figure 1 — test completion time by approach (1-core colocation)");
    println!("(virtual seconds until the protocol quiesces)\n");
    print_row(&["#Nodes", "Real t", "Colo", "~N*t", "PIL t+e"], 10);

    for (i, &n) in scales.iter().enumerate() {
        let real = &out[3 * i];
        let colo = &out[3 * i + 1];
        let pil = &out[3 * i + 2];
        // "t" here is the active settling time after the workload
        // begins; quiescent runs end at different absolute points, so
        // report the full run duration.
        print_row(
            &[
                n.to_string(),
                format!("{:.0}s", real.duration.as_secs_f64()),
                format!("{:.0}s", colo.duration.as_secs_f64()),
                format!(
                    "{:.1}x",
                    colo.duration.as_secs_f64() / real.duration.as_secs_f64()
                ),
                format!("{:.0}s", pil.duration.as_secs_f64()),
            ],
            10,
        );
    }
    println!();
    println!("Colo on one core stretches the run (towards N*t for CPU-bound work);");
    println!("PIL replay finishes in about the real-scale time (t+e).");
    Ok(())
}
