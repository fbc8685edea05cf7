//! Failure injection: the harness must stay well-behaved when the
//! network misbehaves, nodes crash from memory pressure, or the memo
//! database is incomplete.

use scalecheck::{content_digest, memoize, run_real, COLO_CORES};
use scalecheck_cluster::{
    run_scenario, AllocStrategy, FaultPlan, RunMode, ScenarioConfig, Workload,
};
use scalecheck_memo::{Pil, Replay};
use scalecheck_obs::{SpanName, TraceConfig, TID_GOSSIP};
use scalecheck_sim::{SimDuration, SimTime};

fn base(n: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::c3831(n, seed);
    cfg.workload = Workload::Decommission {
        count: 1,
        gap: SimDuration::from_secs(30),
    };
    cfg.rescale_window = SimDuration::from_secs(30);
    cfg.workload_end = SimDuration::from_secs(100);
    cfg.max_duration = SimDuration::from_secs(900);
    cfg
}

#[test]
fn gossip_converges_without_loss_baseline() {
    let cfg = base(12, 1);
    let r = run_real(&cfg);
    assert!(r.quiesced);
    assert_eq!(r.messages_dropped, 0);
    assert_eq!(r.total_flaps, 0);
}

#[test]
fn plumbed_loss_config_drops_messages_end_to_end() {
    // The runner builds its network from `ScenarioConfig.network`, so
    // random loss set there must show up in the run report.
    let mut lossy = base(12, 1);
    lossy.network.drop_probability = 0.2;
    let r = run_real(&lossy);
    assert!(r.quiesced, "20% loss must not wedge the cluster");
    assert!(r.messages_dropped > 0, "configured loss must drop messages");

    // Heavier configured loss drops a larger share of offered traffic.
    let mut heavy = base(12, 1);
    heavy.network.drop_probability = 0.5;
    let r2 = run_real(&heavy);
    assert!(r2.quiesced);
    let rate = |r: &scalecheck_cluster::RunReport| {
        r.messages_dropped as f64 / r.messages_sent.max(1) as f64
    };
    assert!(
        rate(&r2) > rate(&r),
        "drop rate must follow the config: {} vs {}",
        rate(&r2),
        rate(&r)
    );
}

#[test]
fn fault_crash_restart_accounts_downtime_and_recovers() {
    let mut cfg = base(12, 6);
    cfg.faults = FaultPlan::new()
        .crash(SimTime::from_secs(50), 3)
        .restart(SimTime::from_secs(80), 3);
    let r = run_real(&cfg);
    assert!(r.quiesced, "the cluster must settle after the restart");
    assert_eq!(r.faults.crashes, 1);
    assert_eq!(r.faults.restarts, 1);
    assert_eq!(
        r.faults.downtime.get(&3).copied(),
        Some(SimDuration::from_secs(30)),
        "downtime is exactly crash..restart on the virtual clock"
    );
    assert!(
        r.faults.attributed_flaps > 0,
        "survivors convict the silent node, attributed to the fault"
    );
}

/// A node crashed and never restarted is down from its crash to the
/// end of the run.
#[test]
fn crash_without_restart_accrues_downtime_through_run_end() {
    let mut cfg = base(12, 6);
    cfg.faults = FaultPlan::new().crash(SimTime::from_secs(50), 3);
    let r = run_real(&cfg);
    assert_eq!((r.faults.crashes, r.faults.restarts), (1, 0));
    assert_eq!(
        r.faults.downtime.get(&3).copied(),
        Some(r.duration - SimDuration::from_secs(50)),
        "an open outage runs through the end of the run"
    );
}

/// A node decommissioned while crashed stays down through the end of
/// the run: it departs for good, and the restart after its departure
/// does nothing. Its outage ends at its departure: it is billed no
/// downtime once it has left the cluster.
#[test]
fn node_departing_while_crashed_stays_down_through_run_end() {
    // `base` decommissions node 11: `Left` at 70 s, departure at 80 s.
    let mut cfg = base(12, 6);
    cfg.faults = FaultPlan::new()
        .crash(SimTime::from_secs(75), 11)
        .restart(SimTime::from_secs(90), 11);
    let r = run_real(&cfg);
    assert_eq!((r.faults.crashes, r.faults.restarts), (1, 0));
    assert_eq!(
        r.faults.downtime.get(&11).copied(),
        Some(SimDuration::from_secs(5))
    );
}

/// The c3831 workload decommissions its last three nodes, one every
/// `gap`. The second of them, crashed between its `Left` and its
/// departure, is billed downtime from its crash to its departure, and a
/// node that stays is billed crash to restart beside it.
#[test]
fn downtime_of_a_node_departing_while_crashed_ends_at_its_departure() {
    let mut cfg = ScenarioConfig::c3831(12, 1);
    let Workload::Decommission { gap, .. } = cfg.workload else {
        panic!("c3831 decommissions");
    };
    // Node 10 leaves second: `Leaving` at 40 s + gap, `Left` one rescale
    // window later, departure 10 s after that.
    let left = SimTime::from_secs(40) + gap + cfg.rescale_window;
    let crash = left + SimDuration::from_secs(2);
    let depart = left + SimDuration::from_secs(10);
    cfg.faults = FaultPlan::new()
        .crash(crash, 10)
        .crash(crash, 4)
        .restart(depart + SimDuration::from_secs(5), 10)
        .restart(depart + SimDuration::from_secs(5), 4);
    let r = run_real(&cfg);
    assert!(r.quiesced);
    assert_eq!((r.faults.crashes, r.faults.restarts), (2, 1));
    assert_eq!(
        r.faults.downtime.get(&10).copied(),
        Some(depart.since(crash)),
        "the departed node's outage ends at its departure"
    );
    assert_eq!(
        r.faults.downtime.get(&4).copied(),
        Some(SimDuration::from_secs(13))
    );
}

/// A crash in the middle of a wait for the ring lock (C5456's coarse
/// lock) must not wedge the waiting stage: the task parked on it goes,
/// and after a restart the stage runs again. Found on a Real c5456 cell
/// whose first gossip-stage `LockWait` names the node and the instant.
#[test]
fn crash_while_parked_for_the_ring_lock_leaves_the_stage_runnable() {
    let lock_wait = SpanName::LockWait as u16;
    let mut cfg = ScenarioConfig::c5456(32, 1);
    cfg.trace = TraceConfig::enabled();
    let calm = run_real(&cfg);
    let wait = calm
        .obs
        .spans
        .iter()
        .find(|s| s.name == lock_wait && s.tid == TID_GOSSIP && s.dur > 0)
        .expect("a gossip stage waits for the ring lock");
    let crash = SimTime::from_nanos(wait.ts + wait.dur / 2);
    let restart = crash + SimDuration::from_secs(10);
    cfg.faults = FaultPlan::new()
        .crash(crash, wait.pid)
        .restart(restart, wait.pid);
    let r = run_real(&cfg);
    assert_eq!((r.faults.crashes, r.faults.restarts), (1, 1));
    let after_restart = r
        .obs
        .spans
        .iter()
        .filter(|s| s.pid == wait.pid && s.tid == TID_GOSSIP && s.ts >= restart.as_nanos())
        .count();
    assert!(
        after_restart > 0,
        "node {}'s gossip stage never ran after its restart",
        wait.pid
    );
    assert!(r.quiesced, "a wedged stage keeps the run from quiescing");
}

/// A restart only revives a fault-crashed node: one naming a scale-out
/// joiner before its activation changes nothing, and the joiner joins
/// on schedule.
#[test]
fn restart_of_a_joiner_before_its_activation_is_a_no_op() {
    let calm = ScenarioConfig::c3881(8, 1);
    let joiner = calm.n_nodes as u32 + 1;
    let cfg = calm
        .clone()
        .with_faults(FaultPlan::new().restart(SimTime::from_secs(50), joiner));
    let (a, b) = (run_real(&calm), run_real(&cfg));
    assert_eq!(a.faults.fired.len(), 0);
    assert_eq!(b.faults.fired.len(), 1, "the restart fired");
    assert_eq!((b.faults.crashes, b.faults.restarts), (0, 0));
    assert!(b.faults.downtime.is_empty());
    assert_eq!(b.total_flaps, a.total_flaps);
    assert_eq!(b.messages_sent, a.messages_sent);
    assert_eq!(b.messages_delivered, a.messages_delivered);
}

/// A crash cancels the dead node's periodic timers outright: nothing
/// from before the crash lingers in the schedule to fire for a stopped
/// node, and the engine's cancellation accounting shows the removals.
#[test]
fn crash_restart_leaves_no_stale_timers_for_the_dead_epoch() {
    let mut cfg = base(12, 6);
    cfg.faults = FaultPlan::new()
        .crash(SimTime::from_secs(50), 3)
        .restart(SimTime::from_secs(80), 3);
    let r = run_real(&cfg);
    assert!(r.quiesced, "the cluster must settle after the restart");
    assert_eq!(
        r.stale_timer_fires, 0,
        "no timer from before the crash may reach its fire time"
    );
    assert!(
        r.engine.cancelled >= 2,
        "the crash must cancel the node's gossip and fd timers, got {}",
        r.engine.cancelled
    );
}

#[test]
fn partition_flaps_are_fault_attributed_and_heal() {
    let mut cfg = base(12, 7);
    let minority: Vec<u32> = vec![0, 1, 2];
    let majority: Vec<u32> = (3..12).collect();
    cfg.faults = FaultPlan::new()
        .partition(SimTime::from_secs(50), minority.clone(), majority.clone())
        .heal(SimTime::from_secs(90), minority, majority);
    let r = run_real(&cfg);
    assert!(r.quiesced, "the cluster must settle after the heal");
    assert!(
        r.faults.fault_dropped > 0,
        "cross-cut messages must be dropped while partitioned"
    );
    assert!(
        r.faults.attributed_flaps > 0,
        "cross-cut convictions must be attributed to the partition"
    );
    assert!(r.faults.downtime.is_empty(), "nobody crashed");
}

#[test]
fn same_fault_triple_yields_byte_identical_reports() {
    // The determinism contract: the same (scenario, plan, seed) triple
    // produces a byte-identical serialized FaultReport, run to run.
    let mut cfg = base(12, 9);
    cfg.faults = FaultPlan::storm(9, 12, 0.6);
    let a = run_real(&cfg);
    let b = run_real(&cfg);
    assert!(
        !a.faults.fired.is_empty(),
        "the storm must inject something"
    );
    assert_eq!(
        serde_json::to_string(&a.faults).unwrap(),
        serde_json::to_string(&b.faults).unwrap(),
        "FaultReport must be byte-identical across same-seed runs"
    );
    assert_eq!(a.total_flaps, b.total_flaps);
    assert_eq!(a.messages_delivered, b.messages_delivered);
}

#[test]
fn delay_and_duplicate_windows_reach_the_run_and_gossip_shrugs() {
    // No storm emits these two window kinds, so this is the one whole
    // run through `Network`'s delay/duplicate arms and the runner's
    // second-delivery branch.
    let (from, until) = (SimTime::from_secs(50), SimTime::from_secs(60));
    let mut cfg = base(12, 1);
    cfg.faults = FaultPlan::new()
        .delay_window(from, until, None, None, SimDuration::from_millis(40))
        .duplicate_window(from, until, None, None, 1.0);
    let calm = run_real(&base(12, 1));
    let a = run_real(&cfg);
    let b = run_real(&cfg);
    assert!(a.faults.fault_delayed > 0, "the delay window must bite");
    assert!(a.faults.fault_duplicated > 0, "p = 1.0 must duplicate");
    assert!(
        a.messages_delivered > calm.messages_delivered,
        "duplicates are extra deliveries: {} vs {}",
        a.messages_delivered,
        calm.messages_delivered
    );
    assert!(a.quiesced, "every duplicate drains");
    assert_eq!(a.total_flaps, 0, "stale duplicates apply idempotently");
    assert_eq!(content_digest(&a), content_digest(&b));
}

#[test]
fn naive_rebalance_allocation_crashes_nodes_under_colocation() {
    // §6: the rebalance protocol over-allocates (N-1)*P*1.3MB; on a
    // 32-GB colocation box that is fatal, and the §8 symptom is nodes
    // crashing with OOM.
    let mut cfg = base(64, 2);
    cfg.vnodes = 8;
    cfg.workload = Workload::ScaleOut {
        count: 1,
        gap: SimDuration::from_secs(30),
    };
    cfg.memory.rebalance_alloc = Some(AllocStrategy::Naive);
    cfg.memory.single_process = true;
    let r = run_scenario(&cfg, RunMode::Colo { cores: 16 }, Pil::Execute);
    assert!(r.oom_events > 0, "naive allocation must hit the wall");
    assert!(r.crashed_nodes > 0, "OOM crashes nodes (S8)");

    // The frugal strategy survives the identical workload.
    let mut frugal = cfg.clone();
    frugal.memory.rebalance_alloc = Some(AllocStrategy::Frugal);
    let r2 = run_scenario(&frugal, RunMode::Colo { cores: 16 }, Pil::Execute);
    assert_eq!(r2.oom_events, 0);
    assert_eq!(r2.crashed_nodes, 0);
}

#[test]
fn crashed_nodes_get_convicted_by_the_rest() {
    // A node that crashes goes silent without announcing Left; the
    // survivors must convict it (real flaps, not clean departures).
    let mut cfg = base(24, 3);
    cfg.vnodes = 8;
    cfg.workload = Workload::ScaleOut {
        count: 1,
        gap: SimDuration::from_secs(30),
    };
    cfg.memory.rebalance_alloc = Some(AllocStrategy::Naive);
    cfg.memory.single_process = true;
    // Capacity sized so that a couple of rebalance allocations blow up.
    cfg.memory.machine_capacity = 1 << 30;
    let r = run_scenario(&cfg, RunMode::Colo { cores: 16 }, Pil::Execute);
    assert!(r.crashed_nodes > 0);
    assert!(
        r.total_flaps as usize >= (cfg.n_nodes - r.crashed_nodes as usize) / 2,
        "survivors should convict the crashed nodes: {} flaps, {} crashed",
        r.total_flaps,
        r.crashed_nodes
    );
}

#[test]
fn replay_with_truncated_db_falls_back_and_completes() {
    // Delete half the memoized records: the replay must fall back
    // (index or re-execution), complete, and report the damage.
    let cfg = base(12, 4);
    let memo = memoize(&cfg, COLO_CORES);
    // Drop every other record.
    let mut damaged = memo.db.clone();
    let keys: Vec<_> = memo.db.iter_records().map(|(f, d, _)| (f, d)).collect();
    for (f, d) in keys.iter().step_by(2) {
        assert!(damaged.remove(*f, *d));
    }

    let replay = Replay::new(&damaged, Some(&memo.order));
    let r = run_scenario(
        &cfg,
        RunMode::Colo { cores: COLO_CORES },
        Pil::Replay(replay),
    );
    assert!(r.quiesced, "replay must not wedge on missing records");
    assert!(
        r.memo.misses + r.memo.index_fallbacks > 0,
        "damage must be visible in the stats: {:?}",
        r.memo
    );
}

#[test]
fn order_log_from_wrong_run_is_survivable() {
    // Replaying with another seed's order log: messages will not match
    // the recorded order; the hold timeout must keep the run moving.
    let cfg = base(12, 5);
    let memo = memoize(&cfg, COLO_CORES);
    let other = memoize(&base(12, 99), COLO_CORES);
    let replay = Replay::new(&memo.db, Some(&other.order));
    let pil = run_scenario(
        &cfg,
        RunMode::Colo { cores: COLO_CORES },
        Pil::Replay(replay),
    );
    assert!(pil.quiesced, "mismatched order log must not deadlock");
    assert!(
        pil.order_out_of_log > 0 || pil.order_forced_releases > 0,
        "divergence must be reported"
    );
}
