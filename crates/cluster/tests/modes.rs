//! Cluster-level behaviour tests: locking modes, workloads, deployment
//! semantics, and bug-vs-fix dynamics at CI-friendly scale.
//!
//! The paper's bugs need hundreds of nodes under the real calibration;
//! these tests shrink the cluster and inflate the per-op cost so the
//! same mechanisms fire at N≈24–32 in seconds.

use scalecheck_cluster::{
    run_scenario, CalcVersion, ContextSwitch, LockingMode, RunMode, ScenarioConfig, Workload,
};
use scalecheck_memo::{MemoDb, OrderRecorder, Pil, Replay};
use scalecheck_net::{LatencyModel, NetworkConfig};
use scalecheck_sim::SimDuration;

/// Inflated-cost C3831-style scenario that flaps at N=32.
fn mini_inline_bug(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::c3831(32, seed);
    cfg.ns_per_op = 120_000;
    cfg.workload = Workload::Decommission {
        count: 1,
        gap: SimDuration::from_secs(60),
    };
    cfg.rescale_window = SimDuration::from_secs(100);
    cfg.workload_end = SimDuration::from_secs(200);
    cfg.max_duration = SimDuration::from_secs(1800);
    cfg
}

/// Inflated-cost C5456-style scenario (calc on its own stage, coarse
/// ring lock) that flaps at N=32.
fn mini_lock_bug(seed: u64) -> ScenarioConfig {
    let mut cfg = mini_inline_bug(seed);
    cfg.locking = LockingMode::CoarseLockThread;
    cfg.workload = Workload::ScaleOut {
        count: 1,
        gap: SimDuration::from_secs(60),
    };
    cfg
}

#[test]
fn inline_bug_flaps_and_v3_fix_does_not() {
    let buggy = run_scenario(&mini_inline_bug(1), RunMode::Real, Pil::Execute);
    assert!(buggy.total_flaps > 100, "flaps: {}", buggy.total_flaps);
    let mut fixed = mini_inline_bug(1);
    fixed.calculator = CalcVersion::V3VnodeAware;
    let ok = run_scenario(&fixed, RunMode::Real, Pil::Execute);
    assert_eq!(ok.total_flaps, 0);
}

#[test]
fn coarse_lock_starves_and_snapshot_fix_does_not() {
    // The C5456 pair: same workload, same calculator cost; only the
    // locking discipline changes.
    let coarse = run_scenario(&mini_lock_bug(2), RunMode::Real, Pil::Execute);
    assert!(
        coarse.total_flaps > 50,
        "coarse lock must starve gossip: {} flaps",
        coarse.total_flaps
    );
    let mut fixed = mini_lock_bug(2);
    fixed.locking = LockingMode::SnapshotThread;
    let snap = run_scenario(&fixed, RunMode::Real, Pil::Execute);
    assert!(
        snap.total_flaps * 10 <= coarse.total_flaps,
        "snapshotting must (mostly) eliminate the starvation: {} vs {}",
        snap.total_flaps,
        coarse.total_flaps
    );
}

#[test]
fn bootstrap_from_scratch_exercises_fresh_ring_path() {
    let mut cfg = ScenarioConfig::c6127(16, 3);
    cfg.rescale_window = SimDuration::from_secs(45);
    cfg.workload_end = SimDuration::from_secs(100);
    cfg.max_duration = SimDuration::from_secs(900);
    let r = run_scenario(&cfg, RunMode::Real, Pil::Execute);
    assert!(r.quiesced);
    assert!(r.calc.invocations > 0);
    // A fresh 16-node bootstrap is healthy (the bug needs 500+ nodes).
    assert_eq!(r.total_flaps, 0);
    // Everyone ends up knowing everyone: the mesh converged.
    assert!(r.messages_delivered > 1000);
}

#[test]
fn decommissioned_nodes_depart_cleanly_without_convictions() {
    let mut cfg = ScenarioConfig::baseline(16, 4);
    cfg.workload = Workload::Decommission {
        count: 3,
        gap: SimDuration::from_secs(50),
    };
    cfg.rescale_window = SimDuration::from_secs(30);
    cfg.workload_end = SimDuration::from_secs(220);
    cfg.max_duration = SimDuration::from_secs(900);
    let r = run_scenario(&cfg, RunMode::Real, Pil::Execute);
    assert!(r.quiesced);
    assert_eq!(
        r.total_flaps, 0,
        "clean departures must not be counted as flaps"
    );
}

#[test]
fn scale_out_joins_converge() {
    let mut cfg = ScenarioConfig::baseline(12, 5);
    cfg.workload = Workload::ScaleOut {
        count: 2,
        gap: SimDuration::from_secs(60),
    };
    cfg.rescale_window = SimDuration::from_secs(30);
    cfg.workload_end = SimDuration::from_secs(180);
    cfg.max_duration = SimDuration::from_secs(900);
    let r = run_scenario(&cfg, RunMode::Real, Pil::Execute);
    assert!(r.quiesced);
    assert_eq!(r.total_flaps, 0);
    // The joiners triggered pending-range calculations cluster-wide.
    assert!(r.calc.invocations as usize > cfg.n_nodes);
}

#[test]
fn message_loss_does_not_wedge_the_cluster() {
    let mut cfg = ScenarioConfig::baseline(16, 6);
    cfg.network = NetworkConfig {
        latency: LatencyModel::lan(),
        drop_probability: 0.2,
    };
    cfg.workload = Workload::Decommission {
        count: 1,
        gap: SimDuration::from_secs(30),
    };
    cfg.rescale_window = SimDuration::from_secs(30);
    cfg.workload_end = SimDuration::from_secs(120);
    cfg.max_duration = SimDuration::from_secs(900);
    let r = run_scenario(&cfg, RunMode::Real, Pil::Execute);
    assert!(r.quiesced, "gossip is loss-tolerant; the run must settle");
    assert!(r.messages_dropped > 0, "loss must actually occur");
    // Anti-entropy keeps the cluster mostly stable even at 20% loss.
    assert!(r.total_flaps < 50, "flaps under loss: {}", r.total_flaps);
}

#[test]
fn pil_replay_mode_uses_no_cpu_for_calcs() {
    // In a PIL replay the big computations sleep: CPU utilization of the
    // shared box stays low even while the mini bug rages.
    let cfg = mini_inline_bug(7);
    // The memoization run is a Colo run; feed the database it recorded
    // into a replay (no order log: nothing to enforce).
    let (mut db, mut order) = (MemoDb::new(), OrderRecorder::new());
    let colo = run_scenario(
        &cfg,
        RunMode::Colo { cores: 4 },
        Pil::Record(&mut db, &mut order),
    );
    let pil = run_scenario(
        &cfg,
        RunMode::Colo { cores: 4 },
        Pil::Replay(Replay::new(&db, None)),
    );
    assert!(
        pil.cpu_utilization < colo.cpu_utilization / 2.0,
        "PIL {} vs Colo {}",
        pil.cpu_utilization,
        colo.cpu_utilization
    );
    assert!(pil.duration < colo.duration);
}

#[test]
fn flapping_causes_user_visible_unavailability() {
    // The paper's opening example: flapping makes "some data not
    // reachable by the users". A deep conviction storm (heavier per-op
    // cost) must surface as failed quorums.
    let mut storm = mini_inline_bug(1);
    storm.ns_per_op = 500_000;
    let buggy = run_scenario(&storm, RunMode::Real, Pil::Execute);
    assert!(buggy.total_flaps > 100);
    assert!(buggy.traffic.attempted > 100);
    assert!(
        buggy.unavailability() > 0.01,
        "flapping must surface as failed quorums: {:.4}",
        buggy.unavailability()
    );
    // The fixed cluster serves everything.
    let mut fixed = storm.clone();
    fixed.calculator = CalcVersion::V3VnodeAware;
    let ok = run_scenario(&fixed, RunMode::Real, Pil::Execute);
    assert_eq!(ok.unavailability(), 0.0);
}

#[test]
fn real_mode_gives_every_node_its_own_machine() {
    let cfg = ScenarioConfig::baseline(8, 8);
    let real = run_scenario(&cfg, RunMode::Real, Pil::Execute);
    let colo = run_scenario(&cfg, RunMode::Colo { cores: 2 }, Pil::Execute);
    // Both healthy, but the shared 2-core box works much harder.
    assert_eq!(real.total_flaps, 0);
    assert_eq!(colo.total_flaps, 0);
    assert!(colo.cpu_utilization > real.cpu_utilization);
    assert!(colo.peak_runnable >= real.peak_runnable);
}

#[test]
fn one_event_queue_reduces_contention_penalty() {
    // §6: thousands of per-node threads cause severe context switching;
    // the one-queue redesign removes the amplification. Same workload,
    // same cores — the redesigned machine must show less queueing.
    let mut cfg = mini_inline_bug(1);
    cfg.workload = Workload::Decommission {
        count: 1,
        gap: SimDuration::from_secs(60),
    };
    let threads = run_scenario(&cfg, RunMode::Colo { cores: 4 }, Pil::Execute);
    let mut redesigned = cfg.clone();
    redesigned.context_switch = ContextSwitch::GlobalEventQueue;
    let global = run_scenario(&redesigned, RunMode::Colo { cores: 4 }, Pil::Execute);
    assert!(
        global.duration <= threads.duration,
        "global queue must not be slower: {} vs {}",
        global.duration,
        threads.duration
    );
    // Stage lateness is dominated by the inline calculations either
    // way; the redesign must not make it materially worse (small slack
    // for log-bucketed quantiles).
    assert!(
        global.p99_stage_lateness.as_nanos() as f64
            <= threads.p99_stage_lateness.as_nanos() as f64 * 1.05,
        "lateness: {} vs {}",
        global.p99_stage_lateness,
        threads.p99_stage_lateness
    );
}
