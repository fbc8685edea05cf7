//! Quickstart: scale-check a cluster protocol on "one machine".
//!
//! Runs a small Cassandra-like cluster through a decommission under the
//! historical cubic pending-range calculator, three ways:
//!
//! 1. real-scale testing (every node on its own machine) — the ground
//!    truth;
//! 2. basic colocation — cheap but distorted by CPU contention. This
//!    run doubles as scale check's one-time memoization step: it *is*
//!    the colocated run, with recording switched on;
//! 3. the PIL-infused replay over what step 2 recorded — cheap *and*
//!    accurate.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use scalecheck::{memoize, replay, run_real, COLO_CORES};
use scalecheck_cluster::ScenarioConfig;

fn main() {
    // The C3831 scenario at a modest scale so the example runs in
    // seconds. Push `n` to 256 to watch the bug appear.
    let n = 48;
    let cfg = ScenarioConfig::c3831(n, 42);

    println!("== ScaleCheck quickstart: C3831 decommission at N={n} ==\n");

    println!("[1/3] real-scale testing ({n} machines)...");
    let real = run_real(&cfg);
    println!(
        "      flaps={} duration={:.0}s quiesced={}",
        real.total_flaps,
        real.duration.as_secs_f64(),
        real.quiesced
    );

    println!("[2/3] basic colocation (1 machine, {COLO_CORES} cores), memoizing...");
    let memo = memoize(&cfg, COLO_CORES);
    let colo = &memo.report;
    println!(
        "      flaps={} duration={:.0}s (contention stretches the run)",
        colo.total_flaps,
        colo.duration.as_secs_f64()
    );
    println!(
        "      memoized {} records, {} ordered events (one-time)",
        memo.db.stats().recorded,
        memo.order.total(),
    );

    println!("[3/3] scale check: PIL-infused replay of the memoized run...");
    let pil = replay(&cfg, COLO_CORES, &memo);
    println!(
        "      replay flaps={} duration={:.0}s memo-hit-rate={:.1}%",
        pil.total_flaps,
        pil.duration.as_secs_f64(),
        pil.memo.replay_hit_rate() * 100.0
    );

    println!();
    println!("real-scale flaps : {}", real.total_flaps);
    println!("colocation flaps : {}", colo.total_flaps);
    println!(
        "SC+PIL flaps     : {}  <- should track real-scale",
        pil.total_flaps
    );
    println!();
    println!("next: try `--example reproduce_c3831` for the full Figure 3a sweep,");
    println!("or `--example find_offending` for the program-analysis side.");
}
