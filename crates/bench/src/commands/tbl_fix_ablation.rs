//! Fix ablation: re-run each bug workload with the historical fix in
//! place and show the flapping disappears — the §2 narrative that every
//! fix removed the symptom at the scale that exposed it (until the next
//! bug).
//!
//! Also ablates the harness itself: the FIFO-cores CPU model against
//! the offline processor-sharing model, and PIL replay with and without
//! order enforcement.

use crate::cli::{val, Args, Command, Failure, JOBS};
use crate::{jobs, print_row, run_sweep, Cell};
use scalecheck::{memoize, replay, replay_ordered, run_real, COLO_CORES};
use scalecheck_cluster::{CalcVersion, LockingMode, RunReport, ScenarioConfig};
use scalecheck_sim::{ps_completions, SimDuration, SimTime};

pub const COMMAND: Command = Command {
    name: "tbl_fix_ablation",
    about: "S2: each bug with its historical fix in place, plus two harness ablations",
    flags: &[val("--nodes", "N", "cluster size (default 256)"), JOBS],
    run,
};

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let n: usize = args.size("--nodes")?.unwrap_or(256);
    let seed = 1;

    let scenario = |bug: &str| ScenarioConfig::bug(bug, n, seed).expect("a bug of `rows`");

    // Buggy/fixed pairs, each a Real-deployment cell; then one cell
    // that memoizes c3831 once and replays it with and without order
    // enforcement.
    let rows: [(&str, &str, &str); 3] = [
        ("c3831", "v1-cubic", "v2-quadratic"),
        ("c3881", "v2+vnodes", "v3-vnode-aware"),
        ("c5456", "coarse-lock", "snapshot"),
    ];
    let mut cells: Vec<Cell<Vec<RunReport>>> = Vec::new();
    for (bug, _, _) in rows {
        let cfg = scenario(bug);
        let mut fixed_cfg = cfg.clone();
        match bug {
            "c3831" => fixed_cfg.calculator = CalcVersion::V2Quadratic,
            "c3881" => fixed_cfg.calculator = CalcVersion::V3VnodeAware,
            _ => fixed_cfg.locking = LockingMode::SnapshotThread,
        }
        cells.push(Cell::new(format!("ablation {bug} buggy"), move || {
            vec![run_real(&cfg)]
        }));
        cells.push(Cell::new(format!("ablation {bug} fixed"), move || {
            vec![run_real(&fixed_cfg)]
        }));
    }
    let cfg = scenario("c3831");
    cells.push(Cell::new("ablation c3831 replay ordered, unordered", move || {
        let memo = memoize(&cfg, COLO_CORES);
        let ordered = replay_ordered(&cfg, COLO_CORES, &memo);
        vec![ordered, replay(&cfg, COLO_CORES, &memo)]
    }));
    let out: Vec<RunReport> = run_sweep(cells, jobs).into_iter().flatten().collect();

    println!("Fix ablation at N={n}: buggy vs fixed implementation (Real deployment)\n");
    print_row(&["bug", "buggy", "flaps", "fixed", "flaps"], 18);
    for (i, (bug, buggy_label, fixed_label)) in rows.iter().enumerate() {
        let buggy = &out[2 * i];
        let fixed = &out[2 * i + 1];
        print_row(
            &[
                (*bug).into(),
                (*buggy_label).into(),
                buggy.total_flaps.to_string(),
                (*fixed_label).into(),
                fixed.total_flaps.to_string(),
            ],
            18,
        );
    }

    // Harness ablation 1: order enforcement on/off during PIL replay.
    println!();
    println!("harness ablation: PIL replay with vs without order enforcement (c3831, N={n}):");
    for (j, enforce) in [true, false].iter().enumerate() {
        let r = &out[6 + j];
        println!(
            "  enforcement={enforce}: flaps={} hit-rate={:.3} forced-releases={}",
            r.total_flaps,
            r.memo.replay_hit_rate(),
            r.order_forced_releases
        );
    }

    // Harness ablation 2: FIFO-cores vs processor sharing for a burst of
    // equal tasks (the Figure 1b serialization claim is robust to the
    // scheduling discipline).
    println!();
    println!("harness ablation: CPU discipline for 64 x 1s tasks on 16 cores:");
    let tasks: Vec<(SimTime, SimDuration)> = (0..64)
        .map(|_| (SimTime::ZERO, SimDuration::from_secs(1)))
        .collect();
    let ps = ps_completions(&tasks, 16);
    let ps_last = ps.iter().max().expect("non-empty task set");
    let mut m = scalecheck_sim::Machine::new(16, scalecheck_sim::CtxSwitchModel::FREE);
    let fifo_last = tasks
        .iter()
        .map(|&(at, d)| m.submit(at, d).finish)
        .max()
        .expect("non-empty task set");
    println!(
        "  FIFO-cores last completion: {:.1}s, processor-sharing: {:.1}s (ideal 4.0s)",
        fifo_last.as_secs_f64(),
        ps_last.as_secs_f64()
    );
    Ok(())
}
