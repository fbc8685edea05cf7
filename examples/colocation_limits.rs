//! Explore the §6/§8 colocation bottlenecks interactively: how many
//! nodes fit on one machine before CPU, memory, or event lateness gives
//! out — and how the §6 "scale-checkable redesign" (single process,
//! frugal allocation) moves the limit.
//!
//! ```text
//! cargo run --release --example colocation_limits
//! cargo run --release --example colocation_limits -- --factors 64,128,192
//! ```

use scalecheck::{
    colocation_memory_demand, diagnose, memoize, replay, Bottleneck, BottleneckThresholds,
    COLO_CORES,
};
use scalecheck_cluster::{ScenarioConfig, Workload};
use scalecheck_sim::SimDuration;

fn scenario(n: usize, single_process: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(n, 7);
    cfg.workload = Workload::Decommission {
        count: 1,
        gap: SimDuration::from_secs(30),
    };
    cfg.rescale_window = SimDuration::from_secs(30);
    cfg.workload_end = SimDuration::from_secs(110);
    cfg.max_duration = SimDuration::from_secs(900);
    cfg.memory.single_process = single_process;
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let factors: Vec<usize> = args
        .iter()
        .position(|a| a == "--factors")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|x| x.trim().parse().unwrap()).collect())
        .unwrap_or_else(|| vec![96, 192, 320]);

    println!("== Colocation limits on a 16-core / 32-GB machine model ==\n");
    println!("static memory demand first (no run needed):");
    for &n in &factors {
        let per_process = colocation_memory_demand(&scenario(n, false), n);
        let single = colocation_memory_demand(&scenario(n, true), n);
        println!(
            "  N={n:>4}: per-process {:>6.1} GB, single-process {:>6.2} GB",
            per_process as f64 / (1u64 << 30) as f64,
            single as f64 / (1u64 << 30) as f64,
        );
    }

    println!();
    println!("now live runs (single-process, PIL replay — the scale-checkable setup):");
    let thresholds = BottleneckThresholds::default();
    for &n in &factors {
        let cfg = scenario(n, true);
        eprint!("  N={n:>4}: memoize+replay...");
        let memo = memoize(&cfg, COLO_CORES);
        let r = replay(&cfg, COLO_CORES, &memo);
        eprintln!(" done");
        let hits = diagnose(&r, &thresholds);
        let verdict = if hits.is_empty() {
            "clean".to_string()
        } else {
            hits.iter()
                .map(|b| match b {
                    Bottleneck::CpuContention => "cpu>90%",
                    Bottleneck::MemoryExhaustion => "out-of-memory",
                    Bottleneck::EventLateness => "event-lateness",
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "  N={n:>4}: cpu={:.0}% mem={:.1}GB p99-lateness={} -> {verdict}",
            r.cpu_utilization * 100.0,
            r.mem_peak_bytes as f64 / (1u64 << 30) as f64,
            r.p99_stage_lateness,
        );
    }
    println!();
    println!("the full §8 sweep (to 600 nodes) is `scalecheck-cli tbl_colocation_limit`.");
}
