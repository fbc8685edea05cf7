//! Regenerates the §8 colocation-limit experiment: "on the 16-core
//! 32-GB Nome machine, we can reach a maximum colocation factor of 512.
//! When we tried colocating 600 nodes, we hit one of the following
//! limitations: high CPU contention (>90% utilization), memory
//! exhaustion [...], or high event lateness."
//!
//! The limits bite in the *memoization* step — the one-time basic
//! colocation run that executes the real scale-dependent computation —
//! so that is what the sweep diagnoses, under a C3831-like decommission
//! with the quadratic calculator (the post-fix code the paper actually
//! colocated at these factors). Two configurations are contrasted:
//!
//! * the §6 scale-checkable redesign (single process, global event
//!   queue): survives the whole sweep with headroom;
//! * naive per-process / per-thread colocation (70 MB runtime each,
//!   context-switch amplification): collapses far earlier — §6's point
//!   that systems are not built scale-checkable.

use crate::cli::{val, Args, Command, Failure, JOBS};
use crate::{jobs, print_row, run_sweep, Cell};
use scalecheck::{memoize, Bottleneck, BottleneckThresholds, COLO_CORES};
use scalecheck_cluster::{CalcVersion, ContextSwitch, ScenarioConfig, Workload};
use scalecheck_sim::SimDuration;

pub const COMMAND: Command = Command {
    name: "tbl_colocation_limit",
    about: "S8: the maximum colocation factor of the memoization run, redesigned vs per-process",
    flags: &[
        val("--factors", "N,N..", "#nodes; default 128,256,384,512,600"),
        JOBS,
    ],
    run,
};

fn scenario(n: usize, scale_checkable: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(n, 1);
    // The post-C3831 quadratic calculator: the code the paper colocated
    // at these factors (physical tokens). In this substrate the
    // redesigned configuration keeps headroom past the paper's 512 —
    // virtual time has no JVM/kernel tax — so the interesting contrast
    // is against the per-process configuration, which memory kills
    // between 384 and 512 exactly as S6 predicts.
    cfg.calculator = CalcVersion::V2Quadratic;
    cfg.vnodes = 1;
    cfg.ns_per_op = 160;
    cfg.workload = Workload::Decommission {
        count: 1,
        gap: SimDuration::from_secs(60),
    };
    cfg.rescale_window = SimDuration::from_secs(60);
    cfg.workload_end = SimDuration::from_secs(140);
    cfg.max_duration = SimDuration::from_secs(1200);
    cfg.memory.single_process = scale_checkable;
    cfg.context_switch = if scale_checkable {
        ContextSwitch::GlobalEventQueue
    } else {
        ContextSwitch::PerNodeThreads
    };
    cfg
}

const CONFIGS: [(&str, bool); 2] = [
    ("single process + global event queue (S6 redesign)", true),
    (
        "one process per node (70 MB runtime each) + per-node threads",
        false,
    ),
];

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);
    let factors: Vec<usize> = args
        .list("--factors")?
        .unwrap_or_else(|| vec![128, 256, 384, 512, 600]);
    let thresholds = BottleneckThresholds::default();

    let mut cells = Vec::new();
    for (_, scale_checkable) in CONFIGS {
        for &n in &factors {
            let cfg = scenario(n, scale_checkable);
            let config = if scale_checkable { "S6" } else { "naive" };
            cells.push(Cell::new(format!("t-colo-limit {config} N={n}"), move || {
                memoize(&cfg, COLO_CORES).report
            }));
        }
    }
    let out = run_sweep(cells, jobs);

    println!("Colocation limits of the memoization run on a 16-core / 32-GB machine (S6, S8)\n");

    for (c, (label, _)) in CONFIGS.iter().enumerate() {
        println!("config: {label}");
        print_row(&["nodes", "cpu", "mem-peak", "p99-lateness", "verdict"], 14);
        let mut max_ok = None;
        for (i, &n) in factors.iter().enumerate() {
            let r = &out[c * factors.len() + i];
            let hits = scalecheck::diagnose(r, &thresholds);
            let verdict = if hits.is_empty() {
                max_ok = Some(n);
                "ok".to_string()
            } else {
                hits.iter()
                    .map(|b| match b {
                        Bottleneck::CpuContention => "cpu>90%",
                        Bottleneck::MemoryExhaustion => "OOM",
                        Bottleneck::EventLateness => "lateness",
                    })
                    .collect::<Vec<_>>()
                    .join("+")
            };
            print_row(
                &[
                    n.to_string(),
                    format!("{:.0}%", r.cpu_utilization * 100.0),
                    format!("{:.1}G", r.mem_peak_bytes as f64 / (1u64 << 30) as f64),
                    format!("{}", r.p99_stage_lateness),
                    verdict,
                ],
                14,
            );
        }
        match max_ok {
            Some(n) => println!("=> maximum clean colocation factor: {n}\n"),
            None => println!("=> no clean colocation factor in the sweep\n"),
        }
    }
    Ok(())
}
