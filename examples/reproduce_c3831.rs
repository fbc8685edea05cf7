//! Reproduce bug CASSANDRA-3831 across scales (the paper's Figure 3a).
//!
//! Decommissioning nodes triggers the cubic pending-range calculation
//! inline on the gossip stage; at 200+ nodes the calculation starves
//! heartbeat processing and the cluster flaps. This example sweeps the
//! cluster size and shows (a) the symptom only surfaces at large N and
//! (b) SC+PIL reproduces it on "one machine" where basic colocation
//! wildly overshoots.
//!
//! ```text
//! cargo run --release --example reproduce_c3831            # fast demo sweep
//! cargo run --release --example reproduce_c3831 -- --full  # the paper's 32..256
//! ```

use scalecheck::{Triple, COLO_CORES};
use scalecheck_cluster::ScenarioConfig;
use scalecheck_explore::FlapTriple;

/// Flaps past which the symptom counts as present.
const ONSET: u64 = 500;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scales: Vec<usize> = if full {
        vec![32, 64, 128, 256]
    } else {
        vec![32, 64, 96]
    };
    println!("== Reproducing CASSANDRA-3831 (decommission flapping) ==");
    println!("scales: {scales:?} (use --full for the paper's 32..256)\n");

    // Three runs per scale: real-scale, then the memoization run (which
    // is the basic-colocation run) and the PIL replay over it.
    let mut onset = None;
    let mut shapes = Vec::new();
    for &n in &scales {
        eprint!("N={n:>4}: real, colo (memoizing), sc+pil...");
        let t = FlapTriple::from(&Triple::run(&ScenarioConfig::c3831(n, 1), COLO_CORES));
        eprintln!(" done");
        println!(
            "N={n:>4}: real={:>8} colo={:>8} sc+pil={:>8}",
            t.real, t.colo, t.pil
        );
        onset = onset.or((t.real > ONSET).then_some(n));
        shapes.push(t.shape(t.real / 4 + 3));
    }

    println!();
    match onset {
        Some(n) => println!("symptom onset in real-scale testing: N={n}"),
        None => println!(
            "no symptom below N={} — exactly the paper's point: small-scale \
             testing is not enough (run with --full)",
            scales.last().unwrap()
        ),
    }
    println!(
        "SC+PIL tracks real (within 25 %) at {} of {} scales; Colo diverges at {}",
        shapes.iter().filter(|s| s.pil_tracks).count(),
        shapes.len(),
        shapes.iter().filter(|s| s.colo_diverges).count(),
    );
}
