//! End-to-end pipeline tests: memoize → (persist) → replay, accuracy
//! against real-scale, and the behaviour of the three deployment
//! semantics on a cluster small enough for CI.
//!
//! The bug dynamics themselves need hundreds of nodes with the real
//! calibration; here we shrink the cluster and inflate the per-op cost
//! so the same starvation mechanism fires at N≈32 in seconds.

use scalecheck::{memoize, replay, replay_ordered, run_colo, run_real, Triple, COLO_CORES};
use scalecheck_cluster::{
    run_scenario, CalcVersion, PendingWire, RunMode, ScenarioConfig, Workload,
};
use scalecheck_memo::{MemoDb, OrderRecorder, Pil, Replay};
use scalecheck_sim::SimDuration;

/// A healthy little cluster: nothing should flap anywhere.
fn healthy(n: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::c3831(n, seed);
    cfg.workload = Workload::Decommission {
        count: 1,
        gap: SimDuration::from_secs(30),
    };
    cfg.rescale_window = SimDuration::from_secs(30);
    cfg.workload_end = SimDuration::from_secs(100);
    cfg.max_duration = SimDuration::from_secs(600);
    cfg
}

/// A shrunken C3831: per-op cost inflated so the cubic calculation
/// takes seconds even at N=32 — the same gossip-stage starvation as the
/// paper's 256-node runs, at CI scale.
fn mini_bug(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::c3831(32, seed);
    cfg.ns_per_op = 120_000; // ~4s per calculation at N=32
    cfg.workload = Workload::Decommission {
        count: 2,
        gap: SimDuration::from_secs(130),
    };
    cfg.rescale_window = SimDuration::from_secs(100);
    cfg.workload_end = SimDuration::from_secs(300);
    cfg.max_duration = SimDuration::from_secs(2400);
    cfg
}

#[test]
fn healthy_cluster_no_flaps_in_any_mode() {
    let Triple { real, colo, pil } = Triple::run(&healthy(16, 3), COLO_CORES);
    assert_eq!(real.total_flaps, 0);
    assert!(real.quiesced);
    assert_eq!(colo.total_flaps, 0);
    assert_eq!(pil.total_flaps, 0);
    assert!(pil.quiesced);
}

#[test]
fn mini_bug_flaps_at_real_scale_and_fix_removes_it() {
    let cfg = mini_bug(1);
    let buggy = run_real(&cfg);
    assert!(
        buggy.total_flaps > 200,
        "the inflated cubic calc must starve the gossip stage: {} flaps",
        buggy.total_flaps
    );
    // The historical fix (faster calculator) removes the symptom.
    let mut fixed = cfg.clone();
    fixed.calculator = CalcVersion::V3VnodeAware;
    let ok = run_real(&fixed);
    assert_eq!(
        ok.total_flaps, 0,
        "v3 is orders of magnitude cheaper; no starvation"
    );
}

#[test]
fn pil_replay_tracks_real_on_the_mini_bug() {
    let cfg = mini_bug(1);
    let real = run_real(&cfg);
    let memo = memoize(&cfg, COLO_CORES);
    let pil = replay(&cfg, COLO_CORES, &memo);
    assert!(pil.memo.replay_hit_rate() > 0.9, "{:?}", pil.memo);
    // The paper's accuracy claim: same symptom, similar magnitude.
    assert!(pil.total_flaps > 200, "PIL must reproduce the symptom");
    let ratio = pil.total_flaps as f64 / real.total_flaps as f64;
    assert!(
        (0.4..2.5).contains(&ratio),
        "SC+PIL ({}) should be in the same ballpark as Real ({})",
        pil.total_flaps,
        real.total_flaps
    );
    // And the replay should not run dramatically longer than real scale.
    let stretch = pil.duration.as_secs_f64() / real.duration.as_secs_f64();
    assert!(stretch < 2.0, "replay stretched {stretch}x");
}

#[test]
fn memo_db_survives_persistence_round_trip() {
    let cfg = healthy(12, 9);
    let memo = memoize(&cfg, COLO_CORES);
    let json = memo.db.to_json().expect("serialize");
    let db2: MemoDb<PendingWire> = MemoDb::from_json(&json).expect("deserialize");
    assert_eq!(db2.len(), memo.db.len());
    // Replaying against the reloaded DB behaves identically.
    let r1 = replay_ordered(&cfg, COLO_CORES, &memo);
    let reloaded = Replay::new(&db2, Some(&memo.order));
    let r2 = run_scenario(
        &cfg,
        RunMode::Colo { cores: COLO_CORES },
        Pil::Replay(reloaded),
    );
    assert_eq!(r1.total_flaps, r2.total_flaps);
    assert_eq!(r1.duration, r2.duration);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let cfg = healthy(12, 5);
    let a = run_real(&cfg);
    let b = run_real(&cfg);
    assert_eq!(a.total_flaps, b.total_flaps);
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.duration, b.duration);
    // A different seed gives a different (but still healthy) run:
    // at least one trajectory metric must move.
    let c = run_real(&healthy(12, 6));
    assert!(
        a.messages_sent != c.messages_sent
            || a.calc.invocations != c.calc.invocations
            || a.messages_delivered != c.messages_delivered
            || a.duration != c.duration,
        "two seeds produced identical trajectories"
    );
}

#[test]
fn colo_contention_stretches_the_run() {
    // On a single core, the CPU-bound mini bug must take much longer in
    // colocation than at real scale (the Figure 1b claim).
    let mut cfg = mini_bug(2);
    cfg.workload = Workload::Decommission {
        count: 1,
        gap: SimDuration::from_secs(60),
    };
    cfg.workload_end = SimDuration::from_secs(160);
    let real = run_real(&cfg);
    let colo = run_colo(&cfg, 1);
    assert!(
        colo.duration.as_secs_f64() > 1.5 * real.duration.as_secs_f64(),
        "colo {:.0}s vs real {:.0}s",
        colo.duration.as_secs_f64(),
        real.duration.as_secs_f64()
    );
}

#[test]
fn replay_without_db_degrades_gracefully() {
    // A replay with an empty DB must still complete (everything falls
    // back to genuine execution) and report the misses honestly.
    let cfg = healthy(10, 4);
    let empty = MemoDb::new();
    let r = run_scenario(
        &cfg,
        RunMode::Colo { cores: COLO_CORES },
        Pil::Replay(Replay::new(&empty, None)),
    );
    assert!(r.quiesced);
    assert!(r.memo.misses > 0);
    assert_eq!(r.memo.hits, 0);
}

#[test]
fn replay_traces_are_bit_identical() {
    // §7's debugging loop depends on replay determinism: two replays of
    // the same artifacts must produce identical event traces.
    use scalecheck_obs::SpanName;
    let mut cfg = mini_bug(3);
    cfg.trace.enabled = true;
    let memo = memoize(&cfg, COLO_CORES);
    let t1 = replay(&cfg, COLO_CORES, &memo);
    let t2 = replay(&cfg, COLO_CORES, &memo);
    assert!(!t1.obs.is_empty(), "trace must record events");
    assert_eq!(t1.obs, t2.obs);
    assert_eq!(t1.total_flaps, t2.total_flaps);
    // The trace contains both convictions and (PIL-slept) calculations.
    assert!(t1
        .obs
        .instants
        .iter()
        .any(|i| i.name == SpanName::FdConvicted as u16));
    assert!(t1
        .obs
        .spans
        .iter()
        .any(|s| s.name == SpanName::CalcPilSleep as u16));
    // Instants are emitted at the virtual clock: nondecreasing.
    for w in t1.obs.instants.windows(2) {
        assert!(w[0].ts <= w[1].ts);
    }
}

/// R1, colocation with room to spare is the real deployment: with two
/// cores per node nobody waits for a core, so a Colo run simulates what
/// the Real run does, field for field, on every preset at small scale
/// and three seeds. The resource readings are left out: they describe
/// the machines, not the run — Colo packs the nodes onto one machine,
/// so its peak memory (`mem_peak_bytes`) sums them, and its utilization
/// (`cpu_utilization`) divides the same demand by a different core
/// count (EXPERIMENTS.md, "Colo with room to spare").
///
/// R2, a replay of a Real recording is the Real run: the Real run
/// records (a recording at real scale is the Real run,
/// `run_pins::recording_at_real_scale_is_the_real_run`), and replaying
/// it at two cores per node answers every calculation by digest and
/// compares as R1 does. Of the calculation stats it compares
/// `invocations`, `total_compute` and `max_compute`: a replay counts
/// memo hits where Real counts executions. On c6127 it leaves out
/// `max_stage_lateness`, which the replay reads exactly 10 µs lower
/// (390,674 ns against 400,674 ns at seed 1): an executed calculation
/// is a grant on its node's machine, which adds the commodity context
/// switch (5 µs base) to it, while a replayed one sleeps exactly its
/// recorded demand. c6127 is the only cell here whose stages queue
/// work at all (every other cell's lateness is 0), and with
/// `ContextSwitch::Free` the two agree (EXPERIMENTS.md, "R2: a replay
/// of a Real recording").
#[test]
fn colo_with_room_to_spare_is_the_real_run() {
    type Preset = fn(usize, u64) -> ScenarioConfig;
    let presets: [(&str, Preset, usize); 5] = [
        ("baseline", ScenarioConfig::baseline, 16),
        ("c3831", ScenarioConfig::c3831, 12),
        ("c3881", ScenarioConfig::c3881, 16),
        ("c5456", ScenarioConfig::c5456, 12),
        ("c6127", ScenarioConfig::c6127, 12),
    ];
    // Everything R1 and R2 compare but the calculation stats, and the
    // stage lateness if `lateness`.
    let fields = |r: &scalecheck_cluster::RunReport, lateness: bool| {
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}",
            r.per_node_flaps,
            r.flap_series,
            r.recoveries,
            r.duration,
            r.quiesced,
            r.total_flaps,
            r.messages_sent,
            r.messages_dropped,
            r.messages_delivered,
            lateness.then_some((r.max_stage_lateness, r.p99_stage_lateness)),
            r.engine,
            r.traffic,
            r.faults,
        )
    };
    for (name, preset, n) in presets {
        for seed in 1..=3 {
            let cfg = preset(n, seed);
            let (mut db, mut order) = (MemoDb::new(), OrderRecorder::new());
            let real = run_scenario(&cfg, RunMode::Real, Pil::Record(&mut db, &mut order));
            let colo = run_scenario(&cfg, RunMode::Colo { cores: 2 * n }, Pil::Execute);
            assert_eq!(
                (fields(&real, true), format!("{:?}", real.calc)),
                (fields(&colo, true), format!("{:?}", colo.calc)),
                "R1: {name}({n}) seed {seed}"
            );
            let replayed = run_scenario(
                &cfg,
                RunMode::Colo { cores: 2 * n },
                Pil::Replay(Replay::new(&db, None)),
            );
            let m = replayed.memo;
            assert_eq!(
                (m.hits, m.index_fallbacks, m.misses),
                (real.calc.invocations, 0, 0),
                "R2: {name}({n}) seed {seed}: every calculation a digest hit"
            );
            let calc = |r: &scalecheck_cluster::RunReport| {
                (r.calc.invocations, r.calc.total_compute, r.calc.max_compute)
            };
            let lateness = name != "c6127";
            assert_eq!(
                (fields(&real, lateness), calc(&real)),
                (fields(&replayed, lateness), calc(&replayed)),
                "R2: {name}({n}) seed {seed}"
            );
        }
    }
}
