//! Whole-run pins: the content digest of the full `RunReport` for four
//! small cells, captured on the commit *before* the gossip/φ state moved
//! from per-peer tree maps to index-addressed tables (a fifth, the
//! time-dilated cell, on the commit before the φ samples moved into
//! shared 4-byte rows; the 1600 s baseline, whose windows wrap, on the
//! commit before they became arrival epochs), and of the full
//! `HdfsReport` for the second system's runs.
//!
//! Every table, flap count and obs instant in the repo is a function of
//! iteration order somewhere in `gossip` or `cluster::node` (SYN digest
//! order, the φ sweep's conviction order, gossip-target selection). A
//! data-layout change that reorders any of them produces a different —
//! but perfectly plausible — report; these digests are what makes that
//! loud. A deliberate behaviour change re-captures them (run with
//! `--nocapture`, the failing assertion prints the new digest) and says
//! why in CHANGES.md.
//!
//! The ring-lock discipline (`LockingMode`) decides where a node's
//! pending-range calculation runs, and each of the three is pinned with
//! calculations in the run: `InlineOnGossipStage` (every preset but
//! C5456: the baseline, time-dilated, c3831, c3881, fault-storm,
//! one-event-queue and c6127 replay cells), `CoarseLockThread`
//! (`c5456_32_traced_real`) and `SnapshotThread`
//! (`c5456_48_snapshot_traced_colo`).
//!
//! Re-captured once since: the fault-storm and traced cells when
//! `p99_stage_lateness` moved from the old stage histogram's `1 ns`
//! (bucket 0's upper bound) to `LogHistogram`'s exact `0 ns` — the only
//! field that differed (CHANGES.md, PR 14).

use scalecheck::{
    content_digest, memoize, replay, replay_ordered, run_colo, run_real, time_dilated,
};
use scalecheck_cluster::{
    run_scenario, ContextSwitch, FaultPlan, LockingMode, RunMode, RunReport, ScenarioConfig,
    TrafficConfig,
};
use scalecheck_hdfslike::{hdfs_scale_check, run_hdfs, HdfsConfig, HdfsReport};
use scalecheck_memo::{MemoDb, OrderRecorder, Pil};
use scalecheck_sim::{SimDuration, SimTime};

fn pin(name: &str, report: &RunReport, flaps_expected: bool, want: &str) {
    assert_eq!(
        report.total_flaps > 0,
        flaps_expected,
        "{name}: the cell no longer exercises what it was chosen for \
         (flaps={}, recoveries={})",
        report.total_flaps,
        report.recoveries
    );
    assert_eq!(
        content_digest(report),
        want,
        "{name}: RunReport digest moved (flaps={}, recoveries={}, fired={}, sent={})",
        report.total_flaps,
        report.recoveries,
        report.engine.fired,
        report.messages_sent
    );
}

/// Healthy steady state: heartbeat-only gossip and φ sweeps.
#[test]
fn baseline_48_colo_report_is_pinned() {
    let r = run_colo(&ScenarioConfig::baseline(48, 1), 16);
    pin(
        "baseline(48) colo",
        &r,
        false,
        "f33a5d21ac50646a297edb65d779ed1a",
    );
}

/// Long steady state: the baseline held to 1600 s, so φ windows fill
/// their 1000 samples and evict (562 evictions over the run, counted
/// with a temporary counter in the eviction branch); every other cell
/// ends long before a window is full.
/// Captured on the commit before the windows became arrival epochs.
#[test]
fn baseline_16_long_colo_report_is_pinned() {
    let mut cfg = ScenarioConfig::baseline(16, 1);
    cfg.workload_end = SimDuration::from_secs(1600);
    cfg.max_duration = cfg.workload_end;
    pin(
        "baseline(16) colo, 1600 s",
        &run_colo(&cfg, 16),
        false,
        "f8ab465f1543cb9d202f28b1e56e22bd",
    );
}

/// A cell whose φ windows fill, under every PIL handle: the baseline(8)
/// held to 1500 s, so windows reach their 1000 samples at about
/// 1200 s. A run starts without the arrival-epoch log and, at the first
/// report that would evict, runs again from t = 0 with it; these pins
/// hold that second attempt to what one logging run reports. The Real
/// leg is traced (the first attempt's trace is dropped); the
/// memoization run's recording and the replays' lookups and order
/// cursors are put back before the second attempt. Captured on the
/// commit before runs began without the log.
#[test]
fn baseline_8_windows_fill_reports_are_pinned() {
    let mut cfg = ScenarioConfig::baseline(8, 1);
    cfg.workload_end = SimDuration::from_secs(1500);
    cfg.max_duration = cfg.workload_end;
    let mut traced = cfg.clone();
    traced.trace = scalecheck_obs::TraceConfig::enabled();
    let real = run_real(&traced);
    assert!(!real.obs.spans.is_empty());
    pin(
        "baseline(8) real traced, 1500 s",
        &real,
        false,
        "d7dfe9609c78d25d6a18df93c41071cd",
    );
    let memo = memoize(&cfg, 1);
    assert!(memo.report.memo.recorded > 0, "nothing was memoized");
    assert_eq!(
        (
            content_digest(&memo.db.to_json().expect("serialize")),
            memo.order.total()
        ),
        ("f69aa4a7a0d8fe2bf82ab24244f3add3".to_string(), 31725),
        "the recording moved"
    );
    pin(
        "baseline(8) memoize/1, 1500 s",
        &memo.report,
        false,
        "c328bea703ce779aa76787a6124ccd98",
    );
    let plain = replay(&cfg, 1, &memo);
    assert!(plain.memo.hits > 0, "{:?}", plain.memo);
    pin(
        "baseline(8) replay/1, 1500 s",
        &plain,
        false,
        "0627b9afbefdd0dd5ddfd8fd9861ba11",
    );
    pin(
        "baseline(8) replay_ordered/1, 1500 s",
        &replay_ordered(&cfg, 1, &memo),
        false,
        "0627b9afbefdd0dd5ddfd8fd9861ba11",
    );
}

/// A time-dilated baseline (§4's alternative to scale-check): every
/// clock × 8, so heartbeats arrive 8 s apart — the only committed run
/// shape whose φ samples exceed 2³² ns (a 4-byte sample layout once
/// needed a high word for them).
#[test]
fn baseline_32_time_dilated_report_is_pinned() {
    let cfg = time_dilated(&ScenarioConfig::baseline(32, 1), 8);
    assert!(cfg.gossip_interval.as_nanos() > u64::from(u32::MAX));
    pin(
        "baseline(32) real, tdf 8",
        &run_real(&cfg),
        false,
        "99f6e7e97ecb24c69a0299dbf2409338",
    );
}

/// The paper's bug on a small box: a flap storm, so convictions,
/// recoveries and full-state deltas all run. (48 nodes do not flap on
/// one core or two; 64 on one core is the smallest cell that does.)
#[test]
fn c3831_64_colo_flapping_report_is_pinned() {
    let r = run_colo(&ScenarioConfig::c3831(64, 1), 1);
    pin(
        "c3831(64) colo/1",
        &r,
        true,
        "fa10218d93e3084b73f1b00164a106bf",
    );
}

/// The one preset with vnodes > 1 that no other pin runs through Real:
/// two 32-vnode joiners on three established members, the smallest
/// cluster that holds a full replica set (rf 3) when they arrive. The
/// members' pre-filled ring views are 32-token entries. Captured on the
/// commit before those views became clones of one members table.
#[test]
fn c3881_3_real_report_is_pinned() {
    let cfg = ScenarioConfig::c3881(3, 1);
    let r = run_real(&cfg);
    assert_eq!(cfg.total_nodes(), 5);
    assert!(r.calc.executed > 0, "the joiners opened no pending window");
    pin(
        "c3881(3) real",
        &r,
        false,
        "53455bb43b17a045a01e49117ee8bd98",
    );
}

/// Crash + restart + partition + clock skew: `reset_monitoring`,
/// `forget` and fault-suspect attribution all run.
#[test]
fn c3831_48_fault_storm_report_is_pinned() {
    let cfg = ScenarioConfig::c3831(48, 1).with_faults(FaultPlan::storm(1, 48, 0.6));
    let r = run_real(&cfg);
    assert!(r.faults.crashes > 0 && r.faults.restarts > 0);
    assert!(r.faults.attributed_flaps > 0);
    pin(
        "c3831(48) storm",
        &r,
        true,
        "a343cd210680bdfcd4ceaa772fa1ebfe",
    );
}

/// Traced run: every span rides in the digest, and two nodes crashing
/// in the same instant make each observer convict both in one sweep, so
/// the `FdConvicted` instants record `interpret_all`'s order.
#[test]
fn c5456_32_traced_real_report_is_pinned() {
    let mut cfg = ScenarioConfig::c5456(32, 1);
    cfg.trace = scalecheck_obs::TraceConfig::enabled();
    cfg.faults = FaultPlan::new()
        .crash(SimTime::from_secs(50), 3)
        .crash(SimTime::from_secs(50), 17)
        .restart(SimTime::from_secs(120), 3);
    let r = run_real(&cfg);
    assert!(!r.obs.spans.is_empty() && !r.obs.instants.is_empty());
    assert!(
        r.calc.invocations > 0,
        "the coarse-lock calc path never ran"
    );
    pin(
        "c5456(32) traced real",
        &r,
        true,
        "206912839e5316c15c34850eed9960f9",
    );
}

/// The C5456 fix: the calculation clones the ring under the lock and
/// computes off it. Traced, so the `LockWait` spans of a gossip receive
/// queued behind a clone (or a clone behind a receive) ride in the
/// digest — the ring-lock handoff between a node's two stages. (On its
/// own machine no stage ever waits at this size; four shared cores make
/// the clone and the receives overlap.)
#[test]
fn c5456_48_snapshot_traced_colo_report_is_pinned() {
    let mut cfg = ScenarioConfig::c5456(48, 1);
    cfg.locking = LockingMode::SnapshotThread;
    cfg.trace = scalecheck_obs::TraceConfig::enabled();
    let r = run_colo(&cfg, 4);
    let lock_wait = scalecheck_obs::SpanName::LockWait as u16;
    let waits = r.obs.spans.iter().filter(|s| s.name == lock_wait).count();
    assert!(waits > 0, "no stage waited for the ring lock");
    assert!(r.calc.invocations > 0, "the snapshot calc path never ran");
    pin(
        "c5456(48) snapshot traced colo/4",
        &r,
        false,
        "4118628d4c39c58db7cf2eecd8bc282a",
    );
}

/// §6's scale-checkable redesign on the shared machine: one global event
/// queue pays a fixed dispatch cost per switch, without the per-node
/// threads' amplification with load — on the very cell that flaps with
/// per-node threads (`c3831_64_colo_flapping_report_is_pinned`), it does
/// not flap at all.
#[test]
fn c3831_64_one_event_queue_colo_report_is_pinned() {
    let mut cfg = ScenarioConfig::c3831(64, 1);
    cfg.context_switch = ContextSwitch::GlobalEventQueue;
    let r = run_colo(&cfg, 1);
    pin(
        "c3831(64) global event queue colo/1",
        &r,
        false,
        "719d8be3bcdba84eac1b55286cbf1c1b",
    );
}

/// Figure 2 step d is not a fourth deployment: the memoization run is
/// the basic-colocation run with recording switched on, and recording
/// (the memo database, the order log) is something the simulation never
/// reads back. Every (Real, Colo, SC+PIL) triple in the repo takes its
/// Colo column from the memoization run on the strength of this test:
/// over the six presets, a traced cell, a coupled-traffic cell, a fault
/// storm and a schedule-probed cell, the two reports may differ in
/// `memo.recorded` / `memo.duplicate_inputs` and nowhere else — spans,
/// request-log digest, fire log and tags included.
#[test]
fn memoization_run_is_the_colo_run() {
    let preset = |bug: &str, n, cores| {
        let cfg = scalecheck_explore::scenario_for(bug, n, 1).expect("known preset");
        (format!("{bug}({n})/{cores}"), cfg, cores)
    };
    let variant = |name: &str, edit: &dyn Fn(&mut ScenarioConfig)| {
        let mut cfg = ScenarioConfig::c3831(24, 1);
        edit(&mut cfg);
        (format!("c3831(24)/2 {name}"), cfg, 2)
    };
    let cells = [
        preset("baseline", 24, 16),
        preset("c3831", 64, 1),
        preset("c3881", 24, 2),
        preset("c5456", 24, 2),
        preset("c6127", 24, 2),
        preset("race", 20, 2),
        variant("traced", &|c| {
            c.trace = scalecheck_obs::TraceConfig::enabled()
        }),
        variant("open loop", &|c| {
            c.traffic = TrafficConfig::open_loop(100_000)
        }),
        variant("storm", &|c| c.faults = FaultPlan::storm(1, 24, 0.6)),
        variant("probed", &|c| c.record_schedule = true),
    ];
    let (mut flapped, mut exercised) = (0, [false; 4]);
    for (name, cfg, cores) in &cells {
        let colo = run_colo(cfg, *cores);
        let mut memo = memoize(cfg, *cores).report;
        assert!(memo.memo.recorded > 0, "{name}: nothing was memoized");
        assert_eq!(colo.memo.recorded, 0, "{name}: a Colo run records nothing");
        memo.memo.recorded = colo.memo.recorded;
        memo.memo.duplicate_inputs = colo.memo.duplicate_inputs;
        assert_eq!(
            content_digest(&memo),
            content_digest(&colo),
            "{name}: the memoization run is no longer the Colo run \
             (flaps {} vs {}, fired {} vs {}, sent {} vs {})",
            memo.total_flaps,
            colo.total_flaps,
            memo.engine.fired,
            colo.engine.fired,
            memo.messages_sent,
            colo.messages_sent
        );
        flapped += usize::from(colo.total_flaps > 0);
        exercised[0] |= !colo.obs.spans.is_empty();
        exercised[1] |= colo.traffic.coupled && colo.traffic.data_sent > 0;
        exercised[2] |= colo.faults.crashes > 0;
        exercised[3] |= colo.schedule_probe.is_some_and(|p| !p.fires.is_empty());
    }
    assert!(flapped >= 2, "the cells must include flapping runs");
    assert_eq!(exercised, [true; 4], "spans, traffic, faults, probe");
}

/// Where a run computes and what its PIL handle does are independent
/// arguments, so a recording at real scale is a run like any other: on
/// three presets it simulates exactly what `run_real` does, and its
/// report may differ in `memo.recorded` / `memo.duplicate_inputs` and
/// nowhere else.
#[test]
fn recording_at_real_scale_is_the_real_run() {
    for (bug, n) in [("baseline", 24), ("c3881", 24), ("c6127", 24)] {
        let cfg = scalecheck_explore::scenario_for(bug, n, 1).expect("known preset");
        let real = run_real(&cfg);
        let (mut db, mut order) = (MemoDb::new(), OrderRecorder::new());
        let mut rec = run_scenario(&cfg, RunMode::Real, Pil::Record(&mut db, &mut order));
        assert!(rec.memo.recorded > 0, "{bug}({n}): nothing was recorded");
        assert_eq!(
            real.memo.recorded, 0,
            "{bug}({n}): a Real run records nothing"
        );
        rec.memo.recorded = real.memo.recorded;
        rec.memo.duplicate_inputs = real.memo.duplicate_inputs;
        assert_eq!(
            content_digest(&rec),
            content_digest(&real),
            "{bug}({n}): the recording at real scale is no longer the Real run \
             (flaps {} vs {}, fired {} vs {})",
            rec.total_flaps,
            real.total_flaps,
            rec.engine.fired,
            real.engine.fired
        );
    }
}

/// SC+PIL's second leg: c6127(24) on one core is the smallest preset
/// cell whose replay misses, so its replays exercise digest hits, index
/// fallbacks and re-execution. Captured on the commit before the replay
/// counters (`memo.*`, `calc.memo_*`) moved off the memo database.
#[test]
fn c6127_24_replay_reports_are_pinned() {
    let cfg = ScenarioConfig::c6127(24, 1);
    let memo = memoize(&cfg, 1);
    let recorded = memo.db.to_json().expect("serialize");
    let plain = replay(&cfg, 1, &memo);
    let ordered = replay_ordered(&cfg, 1, &memo);
    let (p, o) = (plain.memo, ordered.memo);
    assert!(p.hits > 0 && p.index_fallbacks > 0, "{p:?}");
    assert!(o.hits > 0 && o.index_fallbacks > 0 && o.misses > 0, "{o:?}");
    assert_eq!(memo.db.to_json().expect("serialize"), recorded);
    pin(
        "c6127(24) replay/1",
        &plain,
        false,
        "257e4929009baeda189c857232302318",
    );
    pin(
        "c6127(24) replay_ordered/1",
        &ordered,
        false,
        "71c92b8bc22d56c8a1f23ffb1bae99f8",
    );
}

/// The second system (`hdfslike`) has its own run loop; these digests of
/// the whole `HdfsReport` were captured on the commit before that loop's
/// `pump` was routed through one PIL call site (today `Pil::call`) and
/// its sends through `Network::offer`.
fn pin_hdfs(name: &str, report: &HdfsReport, want: &str) {
    assert_eq!(
        content_digest(report),
        want,
        "{name}: HdfsReport digest moved: {report:?}"
    );
}

/// Below the onset: heartbeats and reports flow, nobody is declared dead.
#[test]
fn hdfs_64_real_report_is_pinned() {
    let r = run_hdfs(&HdfsConfig::bug(64, 9));
    assert_eq!(r.false_dead, 0);
    pin_hdfs("hdfs bug(64, 9)", &r, "55165e62d016d7d6934b512469a840df");
}

/// Past the onset: full-rescan reports hold the namesystem lock beyond
/// the heartbeat timeout, the call queue overflows, live datanodes flap.
#[test]
fn hdfs_192_real_flapping_report_is_pinned() {
    let r = run_hdfs(&HdfsConfig::bug(192, 1));
    assert!(r.false_dead > 0 && r.dropped_rpcs > 0);
    pin_hdfs("hdfs bug(192, 1)", &r, "706978ea12bb2e9054d82a756c74070e");
}

/// Memoize then PIL replay: every report is recorded, then every replayed
/// report is a digest hit that sleeps the recorded duration.
#[test]
fn hdfs_96_scale_check_reports_are_pinned() {
    let (memoized, replayed) = hdfs_scale_check(&HdfsConfig::bug(96, 1), 16);
    assert!(memoized.memo.recorded > 0 && replayed.memo.hits > 0);
    pin_hdfs(
        "hdfs bug(96, 1) memoize/16",
        &memoized,
        "ff1919ced588659cd01b4ae31b5b54a7",
    );
    pin_hdfs(
        "hdfs bug(96, 1) replay/16",
        &replayed,
        "f8c6f2a320cbae83e9a4a15e9b3caae0",
    );
}

/// The fix path: incremental-diff reports cost O(blocks of the reporter),
/// so no cell flaps and only these digests hold its bill. They were
/// captured on the commit before the master stopped keeping a block map.
#[test]
fn hdfs_fixed_real_reports_are_pinned() {
    let small = run_hdfs(&HdfsConfig::fixed(64, 9));
    assert_eq!(small.false_dead, 0);
    pin_hdfs(
        "hdfs fixed(64, 9)",
        &small,
        "606d53eb60e9ee465974fa111ace61cd",
    );
    let big = run_hdfs(&HdfsConfig::fixed(192, 1));
    assert_eq!(big.false_dead, 0);
    pin_hdfs(
        "hdfs fixed(192, 1)",
        &big,
        "1c47db6f0a7c027e34cc233ce3b242e1",
    );
}

/// Memoize then PIL replay on the fix path.
#[test]
fn hdfs_96_fixed_scale_check_reports_are_pinned() {
    let (memoized, replayed) = hdfs_scale_check(&HdfsConfig::fixed(96, 1), 16);
    assert!(memoized.memo.recorded > 0 && replayed.memo.hits > 0);
    pin_hdfs(
        "hdfs fixed(96, 1) memoize/16",
        &memoized,
        "2c65ef0ef505f988f51823f2d8d9d406",
    );
    pin_hdfs(
        "hdfs fixed(96, 1) replay/16",
        &replayed,
        "27a3c860c06e95123c5cf98a69add0a9",
    );
}

/// The exported trace *file*: `to_chrome_json` of a traced Real cell,
/// event rows and embedded native trace alike, captured on the commit
/// before the serde shim started streaming (the pins above hash
/// `to_string(RunReport)` and are the `Serialize` oracle; this one adds
/// the exporter's own integer and timestamp rendering), and the same
/// bytes written a chunk at a time by `write_chrome_json`, as
/// `run --trace-out` writes them.
#[test]
fn c3831_24_traced_real_chrome_file_is_pinned() {
    let mut cfg = ScenarioConfig::c3831(24, 1);
    cfg.trace = scalecheck_obs::TraceConfig::enabled();
    let r = run_real(&cfg);
    assert!(!r.obs.spans.is_empty() && !r.obs.counters.is_empty());
    let json = scalecheck_obs::to_chrome_json(&r.obs);
    let mut file = Vec::new();
    scalecheck_obs::write_chrome_json(&r.obs, &mut file).expect("a Vec takes every byte");
    for (how, bytes) in [
        ("to_chrome_json", json.as_bytes()),
        ("write_chrome_json", &file),
    ] {
        assert_eq!(
            format!("{:032x}", scalecheck_memo::digest_bytes(bytes).0),
            "4a76f7e5d8050e38bf84cebd4f98d506",
            "Chrome trace file moved under {how} ({} bytes, {} spans)",
            bytes.len(),
            r.obs.spans.len()
        );
    }
}
