//! The harness's host memory in a flap storm, guarded: the c3831@160
//! one-decommission Colo cell must peak under a fixed resident set.
//!
//! Sixteen cores host 160 nodes, so receivers fall behind and gossip
//! messages queue; their bodies are most of the live heap at the peak.
//! An ACK's bodies used to be grown from empty by doubling: a
//! reallocation per doubling, and up to twice its length in capacity
//! for as long as it queued. They were then built in a space the run
//! owned and emitted at exactly their length, with narrow entries: a SYN
//! of 12-byte digests, an ACK or ACK2 of 16-byte delta records plus a
//! side list of full-state payloads (24-byte digests and 40-byte deltas
//! before). Now a body names its peers in bits and keeps one 8-byte word
//! of clocks per entry: a SYN is a bit per claimed peer and a watermark
//! each, an ACK or ACK2 two bits per peer and a heartbeat or watermark
//! per entry, with each full delta's app version and payload beside.
//!
//! This is the leg that sets the peak of the benchmark's
//! `verdict_c3831_160`. On a 2-vCPU container this binary's `VmHWM`
//! read 46.7–46.8 MiB when the bodies grew by doubling, 37.9–38.1 MiB
//! once they were exact, 36.6–36.9 MiB once the φ windows were kept
//! as arrival epochs, 34.1–34.3 MiB once the ring views were dense
//! slots and the per-peer tables sized once, 21.1–21.3 MiB with
//! narrow gossip bodies (three runs each; 19.9–20.2 MiB on a later
//! host), and 16.0–16.2 MiB with bodies in words (three runs). The
//! 19 MiB budget leaves 3 MiB to spare above today's peak and sits below
//! the narrow records' peak; a SYN four times wider fails it at
//! 24.9 MiB (`tests/mutants/wide_syn_words.patch`).
//!
//! The test is alone in its binary: `VmHWM` is per process, and a
//! second test would share it.

use scalecheck_cluster::config::RESCALE_FIRST_ACTION;
use scalecheck_cluster::{run_scenario, RunMode, ScenarioConfig, Workload};
use scalecheck_memo::Pil;
use scalecheck_sim::SimDuration;

const BUDGET_MIB: f64 = 19.0;

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
#[ignore = "release-only: a 160-node flap-storm cell; ci.sh runs this in release"]
fn c3831_colo_leg_peaks_under_budget() {
    let mut cfg = ScenarioConfig::c3831(160, 1);
    let gap = SimDuration::from_secs(140);
    cfg.workload = Workload::Decommission { count: 1, gap };
    cfg.workload_end = RESCALE_FIRST_ACTION + gap;
    let r = run_scenario(&cfg, RunMode::Colo { cores: 16 }, Pil::Execute);
    let peak = vm_hwm_mib();
    eprintln!("c3831@160 Colo leg: VmHWM {peak:.1} MiB");
    assert!(r.total_flaps > 0, "the cell had no flap storm");
    assert!(
        peak <= BUDGET_MIB,
        "the c3831@160 Colo leg peaked at {peak:.1} MiB (budget {BUDGET_MIB} MiB): \
         are queued gossip bodies (SYN watermarks, ACK/ACK2 codes and clocks) wide \
         again, or do they carry spare capacity?"
    );
}
