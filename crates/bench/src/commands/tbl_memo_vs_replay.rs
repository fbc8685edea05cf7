//! Regenerates the §8 memoization-vs-replay comparison: "for 256-node
//! colocation, the memoization time for the bugs we reproduced takes
//! between 7 to 125 minutes while the replay time is only between 4 to
//! 15 minutes, similar to the real deployments."
//!
//! The memoization run is a basic-colocation run (CPU contention
//! stretches it); the PIL replay sleeps instead of computing, so it
//! finishes in about real-scale time.

use crate::cli::{val, Args, Command, Failure, JOBS, SEED};
use crate::{jobs, print_row, run_sweep, Cell};
use scalecheck::{memoize, replay, run_real, COLO_CORES};
use scalecheck_cluster::{RunReport, ScenarioConfig};

pub const COMMAND: Command = Command {
    name: "tbl_memo_vs_replay",
    about: "S8: one-time memoization vs repeatable replay duration per bug",
    flags: &[
        val("--nodes", "N", "cluster size (default 256)"),
        SEED,
        JOBS,
    ],
    run,
};

const BUGS: [&str; 3] = ["c3831", "c3881", "c5456"];

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let n: usize = args.get("--nodes")?.unwrap_or(256);
    let seed: u64 = args.get("--seed")?.unwrap_or(1);

    // Two cells per bug: the real run, and the memoize+replay pair
    // (which must share one memo database, so they form one cell).
    let mut cells: Vec<Cell<Vec<RunReport>>> = Vec::new();
    for bug in BUGS {
        let cfg = ScenarioConfig::bug(bug, n, seed).map_err(Failure::Usage)?;
        let real_cfg = cfg.clone();
        cells.push(Cell::new(format!("t-memo {bug} real"), move || {
            vec![run_real(&real_cfg)]
        }));
        cells.push(Cell::new(
            format!("t-memo {bug} memoize+replay"),
            move || {
                let memo = memoize(&cfg, COLO_CORES);
                let rep = replay(&cfg, COLO_CORES, &memo);
                vec![memo.report, rep]
            },
        ));
    }
    let out = run_sweep(cells, jobs);

    println!("Memoization vs replay time at {n}-node colocation (virtual minutes)");
    println!("(paper S8: memoization 7-125 min, replay 4-15 min ~ real deployment)\n");
    print_row(&["bug", "real", "memoize", "replay", "memo/replay", "replay~real"], 12);

    for (i, bug) in BUGS.iter().enumerate() {
        let real = &out[2 * i][0];
        let memo_report = &out[2 * i + 1][0];
        let rep = &out[2 * i + 1][1];
        let mins = |d: scalecheck_sim::SimDuration| d.as_secs_f64() / 60.0;
        print_row(
            &[
                (*bug).into(),
                format!("{:.1}m", mins(real.duration)),
                format!("{:.1}m", mins(memo_report.duration)),
                format!("{:.1}m", mins(rep.duration)),
                format!(
                    "{:.1}x",
                    memo_report.duration.as_secs_f64() / rep.duration.as_secs_f64()
                ),
                format!(
                    "{:.2}x",
                    rep.duration.as_secs_f64() / real.duration.as_secs_f64()
                ),
            ],
            12,
        );
    }
    println!();
    println!("memoization is a one-time cost; the replay can be repeated cheaply");
    println!("as many times as debugging requires (S8).");
    Ok(())
}
