//! Regenerates the §6 memory observations:
//!
//! * managed runtimes cost ~70 MB per process, prohibiting colocation of
//!   hundreds of per-process nodes on a 32-GB box;
//! * the rebalance protocol over-allocates `(N-1)·P·1.3 MB` partition
//!   services per node while only `P·1.3 MB` is eventually needed;
//! * with N-node colocation, every per-node overhead is amplified N
//!   times.

use crate::cli::{Args, Command, Failure, JOBS};
use crate::{jobs, print_row, run_sweep, Cell};
use scalecheck::{colocation_memory_demand, run_colo, COLO_CORES};
use scalecheck_cluster::{AllocStrategy, RunReport, ScenarioConfig, Workload};
use scalecheck_sim::SimDuration;

pub const COMMAND: Command = Command {
    name: "tbl_memory",
    about: "S6: memory as a colocation bottleneck (runtime overhead, rebalance over-allocation)",
    flags: &[JOBS],
    run,
};

const GIB: f64 = (1u64 << 30) as f64;

const REBALANCE_SCALES: [usize; 3] = [32, 64, 128];

fn gib(b: u64) -> String {
    format!("{:.2}G", b as f64 / GIB)
}

fn rebalance_cfg(n: usize, strategy: AllocStrategy) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(n, 1);
    cfg.vnodes = 8;
    cfg.workload = Workload::ScaleOut {
        count: 1,
        gap: SimDuration::from_secs(30),
    };
    cfg.rescale_window = SimDuration::from_secs(40);
    cfg.workload_end = SimDuration::from_secs(120);
    cfg.max_duration = SimDuration::from_secs(600);
    cfg.memory.rebalance_alloc = Some(strategy);
    cfg.memory.single_process = true;
    cfg
}

fn run(args: &Args) -> Result<(), Failure> {
    let jobs = jobs(args.get("--jobs")?);

    // Part 2's live runs: one cell per (scale, allocation strategy).
    let mut cells: Vec<Cell<RunReport>> = Vec::new();
    for &n in &REBALANCE_SCALES {
        for strategy in [AllocStrategy::Naive, AllocStrategy::Frugal] {
            let cfg = rebalance_cfg(n, strategy);
            cells.push(Cell::new(
                format!("t-memory N={n} {strategy:?}"),
                move || run_colo(&cfg, COLO_CORES),
            ));
        }
    }
    let out = run_sweep(cells, jobs);

    println!("Memory as a colocation bottleneck (S6)\n");

    // Part 1: static demand of runtime overhead + ring tables.
    println!("runtime + ring-table demand on one machine (32 GB capacity):");
    print_row(&["nodes", "per-process", "single-process"], 16);
    for n in [128usize, 256, 512, 600] {
        let mut cfg = ScenarioConfig::baseline(n, 1);
        cfg.memory.single_process = false;
        let multi = colocation_memory_demand(&cfg, n);
        cfg.memory.single_process = true;
        let single = colocation_memory_demand(&cfg, n);
        print_row(&[n.to_string(), gib(multi), gib(single)], 16);
    }

    // Part 2: the rebalance over-allocation, measured in a live run.
    println!();
    println!("rebalance partition-service allocation during one join (P=8 vnodes):");
    print_row(&["nodes", "naive (N-1)*P*1.3M", "frugal P*1.3M", "naive outcome"], 20);
    for (i, &n) in REBALANCE_SCALES.iter().enumerate() {
        let naive = &out[2 * i];
        let frugal = &out[2 * i + 1];
        let outcome = if naive.crashed_nodes > 0 {
            format!("{} nodes OOM-crashed", naive.crashed_nodes)
        } else {
            "survived".to_string()
        };
        print_row(
            &[
                n.to_string(),
                gib(naive.mem_peak_bytes),
                gib(frugal.mem_peak_bytes),
                outcome,
            ],
            20,
        );
    }
    println!();
    println!("the naive strategy amplifies per-node waste by N under colocation;");
    println!("space-oblivious code is what makes systems non-scale-checkable (S6).");
    Ok(())
}
