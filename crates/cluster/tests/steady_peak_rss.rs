//! The harness's host memory in steady state, guarded: the `tbl_scale`
//! 512-node Colo cell must peak under a fixed resident set.
//!
//! Heartbeat-only gossip reports every peer to every node about once a
//! second, so what a node keeps per peer is what grows: 512 × 511 gossip
//! endpoints, φ windows and ring-view entries. Each window used to be a
//! ring of 4-byte samples in rows shared by all of a node's peers; now a
//! node keeps the arrival epochs the windows are gaps between. Each ring
//! view used to be a tree of 511 entries that each owned a token `Vec`;
//! now it is one 24-byte slot per node id, and the views share each
//! node's token list. Each node used to keep its own view table and token
//! map, 512 equal copies once the decommission has spread; now views
//! that agree share one copy-on-write table (`ring::ViewStore`). The
//! gossip endpoint table and the φ columns used to grow by doubling from
//! the node's own id; now the build sizes them once for the cluster.
//!
//! On a 2-vCPU container this binary's `VmHWM` read 169.1–169.3 MiB with
//! the sample rows, 74.2–74.4 MiB with the epochs but tree ring views
//! and doubling tables, 49.4–49.7 MiB with dense views and tables sized
//! once, 46.7–46.8 MiB once gossip clocks were `u32` (a 24-byte
//! endpoint slot, 32 before) and gossip bodies narrow records, and
//! 37.3 MiB once views that agree shared one table (47.3–47.4 MiB just
//! before; three runs each). Two ways back read 43.7–43.8 MiB (the
//! build copying the members table into each member's view) and
//! 47.1–47.3 MiB (copy-on-write views without the store that merges them
//! again: they diverge at the decommission and stay apart). It read
//! 36.8–36.9 MiB just before a run's failure detectors started without
//! their arrival-epoch log and `since` column, and 19.4 MiB since (three
//! runs each): this 150 s cell never fills a window, so it never needs
//! them. The 22.4 MiB budget leaves 3 MiB to spare above today's peak;
//! the build copying the members table into each member's view fails
//! it (`tests/mutants/members_table_copied_per_member.patch`).
//!
//! The test is alone in its binary: `VmHWM` is per process, and a
//! second test would share it.

use scalecheck_cluster::{run_scenario, RunMode, ScenarioConfig};
use scalecheck_memo::Pil;
use scalecheck_sim::SimDuration;

const BUDGET_MIB: f64 = 22.4;

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
    let r = run_scenario(&cfg, RunMode::Colo { cores: 16 }, Pil::Execute);
    let peak = vm_hwm_mib();
    eprintln!("baseline(512) Colo, 150 s: VmHWM {peak:.1} MiB");
    assert_eq!(r.total_flaps, 0, "the steady-state cell flapped");
    assert!(
        peak <= BUDGET_MIB,
        "the baseline(512) Colo cell peaked at {peak:.1} MiB (budget {BUDGET_MIB} MiB): \
         are the ring views trees of per-entry token lists again, one table per node \
         again, do the per-peer tables (gossip endpoints, φ columns) grow by \
         doubling again, or does a run keep the φ arrival log it does not need?"
    );
}
