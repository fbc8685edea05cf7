//! Regenerates the §8 memoization-vs-replay comparison: "for 256-node
//! colocation, the memoization time for the bugs we reproduced takes
//! between 7 to 125 minutes while the replay time is only between 4 to
//! 15 minutes, similar to the real deployments."
//!
//! The memoization run is a basic-colocation run (CPU contention
//! stretches it); the PIL replay sleeps instead of computing, so it
//! finishes in about real-scale time.

use crate::cli::{val, Args, Command, Failure, JOBS, SEED};
use crate::{jobs, print_row, run_triples};
use scalecheck_cluster::ScenarioConfig;

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
    let n: usize = args.size("--nodes")?.unwrap_or(256);
    let seed: u64 = args.get("--seed")?.unwrap_or(1);

    // Two cells per bug: the real run, and the memoize+replay pair
    // (which must share one memo database, so they form one cell).
    let mut points = Vec::new();
    for bug in BUGS {
        let cfg = ScenarioConfig::bug(bug, n, seed).map_err(Failure::Usage)?;
        points.push((format!("t-memo {bug}"), cfg));
    }
    let triples = run_triples(points, jobs);

    println!("Memoization vs replay time at {n}-node colocation (virtual minutes)");
    println!("(paper S8: memoization 7-125 min, replay 4-15 min ~ real deployment)\n");
    print_row(&["bug", "real", "memoize", "replay", "memo/replay", "replay~real"], 12);

    for (bug, t) in BUGS.iter().zip(&triples) {
        let (real, memo_report, rep) = (&t.real, &t.colo, &t.pil);
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
