//! The harness's host memory in steady state, guarded: the `tbl_scale`
//! 512-node Colo cell must peak under a fixed resident set.
//!
//! Heartbeat-only gossip reports every peer to every node about once a
//! second, so the φ windows are what grows: 512 × 511 of them. Each
//! window used to be a ring of 4-byte samples in rows shared by all of
//! a node's peers, one row per sample slot that any peer had reached.
//! Now a node keeps the arrival epochs the windows are gaps between, one
//! report time and a 64-byte bitset of the peers that arrived then.
//!
//! On a 2-vCPU container this binary's `VmHWM` read 169.1–169.3 MiB with
//! the sample rows and 74.0–74.3 MiB with the epochs (three runs each).
//! The 120 MiB budget leaves 45.7 MiB to spare above today's peak and
//! 49.1 MiB below the old one.
//!
//! The test is alone in its binary: `VmHWM` is per process, and a
//! second test would share it.

use scalecheck_cluster::{run_scenario, RunMode, ScenarioConfig};
use scalecheck_sim::SimDuration;

const BUDGET_MIB: f64 = 120.0;

/// This process's peak resident set so far, MiB.
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[test]
#[ignore = "release-only: a 512-node steady-state cell; ci.sh runs this in release"]
fn baseline_512_colo_cell_peaks_under_budget() {
    // `tbl_scale`'s cell: the baseline in one process, cut to 150 s.
    let mut cfg = ScenarioConfig::baseline(512, 1);
    cfg.memory.single_process = true;
    cfg.max_duration = SimDuration::from_secs(150);
    let r = run_scenario(&cfg, RunMode::Colo { cores: 16 });
    let peak = vm_hwm_mib();
    eprintln!("baseline(512) Colo, 150 s: VmHWM {peak:.1} MiB");
    assert_eq!(r.total_flaps, 0, "the steady-state cell flapped");
    assert!(
        peak <= BUDGET_MIB,
        "the baseline(512) Colo cell peaked at {peak:.1} MiB (budget {BUDGET_MIB} MiB): \
         do the failure detectors keep per-peer sample rows again?"
    );
}
