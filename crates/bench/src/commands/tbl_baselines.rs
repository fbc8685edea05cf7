//! The §4 baseline comparison: how the state-of-the-art approaches fare
//! against the c3831 scalability bug, side by side with scale check.
//!
//! * mini-cluster testing — run the real system small: passes, bug
//!   missed;
//! * extrapolation — fit small-scale behaviour, predict large scale:
//!   predicts healthy, bug missed;
//! * basic colocation — run big on one box: bug "found" but wildly
//!   distorted;
//! * DieCast-style time dilation — accurate, but each iteration costs
//!   TDF × t;
//! * SC+PIL — accurate at ~real-scale iteration time after a one-time
//!   memoization.

use crate::cli::{val, Args, Command, Failure, JOBS};
use crate::{jobs, print_row, run_sweep, triple_cells, Cell};
use scalecheck::{extrapolate_power_law, run_real, time_dilated};
use scalecheck_cluster::{RunReport, ScenarioConfig};

pub const COMMAND: Command = Command {
    name: "tbl_baselines",
    about: "S4: mini-cluster, extrapolation, colocation and time dilation vs SC+PIL on c3831",
    flags: &[
        val("--target", "N", "the scale to judge at (default 256)"),
        val("--tdf", "N", "DieCast time-dilation factor (default 16)"),
        JOBS,
    ],
    run,
};

const TRAIN_SCALES: [usize; 4] = [8, 16, 32, 64];

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let target: usize = args.size("--target")?.unwrap_or(256);
    let tdf: u64 = args.get("--tdf")?.unwrap_or(16);
    let seed = 1;

    let bug = |n: usize| ScenarioConfig::c3831(n, seed);

    // Cells: four mini-cluster training runs, the target's triple
    // (Real; memoize → replay — the memoization run is the basic
    // colocation row), then diecast at the target.
    let mut cells: Vec<Cell<Vec<RunReport>>> = Vec::new();
    for &n in &TRAIN_SCALES {
        let cfg = bug(n);
        cells.push(Cell::new(format!("baselines mini N={n}"), move || {
            vec![run_real(&cfg)]
        }));
    }
    let cfg = bug(target);
    cells.extend(triple_cells(&format!("baselines N={target}"), &cfg));
    let dilated = time_dilated(&cfg, tdf);
    cells.push(Cell::new(
        format!("baselines diecast tdf={tdf} N={target}"),
        move || vec![run_real(&dilated)],
    ));
    let mut out = run_sweep(cells, jobs).into_iter().flatten();

    println!("S4 baselines vs scale check on c3831, target N={target}\n");

    let train: Vec<(usize, u64)> = TRAIN_SCALES
        .iter()
        .zip(&mut out)
        .map(|(&n, r)| (n, r.total_flaps))
        .collect();
    let extrapolated = extrapolate_power_law(&train, target);
    let mut next = || out.next().expect("one report per run");
    let (real, colo, pil, diecast) = (next(), next(), next(), next());

    println!();
    print_row(&["approach", "flaps", "run (virt s)", "verdict"], 22);
    let mini_max = train.iter().map(|&(_, f)| f).max().unwrap_or(0);
    print_row(
        &[
            "mini-cluster (<=64)".into(),
            mini_max.to_string(),
            "-".into(),
            "bug missed".into(),
        ],
        22,
    );
    print_row(
        &[
            "extrapolation".into(),
            format!("{extrapolated:.0} (pred)"),
            "-".into(),
            "bug missed".into(),
        ],
        22,
    );
    let verdict = |flaps: u64| {
        if real.total_flaps == 0 {
            "-".to_string()
        } else {
            format!("{:.2}x of real", flaps as f64 / real.total_flaps as f64)
        }
    };
    print_row(
        &[
            format!("real-scale ({target} mach.)"),
            real.total_flaps.to_string(),
            format!("{:.0}", real.duration.as_secs_f64()),
            "ground truth".into(),
        ],
        22,
    );
    print_row(
        &[
            "basic colocation".into(),
            colo.total_flaps.to_string(),
            format!("{:.0}", colo.duration.as_secs_f64()),
            verdict(colo.total_flaps),
        ],
        22,
    );
    print_row(
        &[
            format!("diecast tdf={tdf}"),
            diecast.total_flaps.to_string(),
            format!("{:.0}", diecast.duration.as_secs_f64()),
            verdict(diecast.total_flaps),
        ],
        22,
    );
    print_row(
        &[
            "sc+pil".into(),
            pil.total_flaps.to_string(),
            format!("{:.0}", pil.duration.as_secs_f64()),
            verdict(pil.total_flaps),
        ],
        22,
    );
    println!();
    println!(
        "time dilation reads {} and each iteration takes ~{tdf}x the real test \
         time ({:.0}s vs {:.0}s); SC+PIL reads {} after the one-time \
         memoization ({:.0}s).",
        verdict(diecast.total_flaps),
        diecast.duration.as_secs_f64(),
        real.duration.as_secs_f64(),
        verdict(pil.total_flaps),
        colo.duration.as_secs_f64()
    );
    Ok(())
}
