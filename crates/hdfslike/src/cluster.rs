//! The HDFS-like cluster driver: N datanodes heartbeating and
//! block-reporting to one serialized master.
//!
//! The bug (FullRescan) makes each report cost O(total blocks) on the
//! master's single handler stage — the global namesystem lock.
//! Heartbeats queue behind reports; past a scale threshold the queue
//! delay crosses the liveness timeout and the master declares *live*
//! datanodes dead (the flap analog for this system). This is the §4
//! footnote's second root-cause class (serialized O(N) operations) and
//! the paper's §7 goal of integrating scale check with systems beyond
//! Cassandra.
//!
//! The same simulations ([`RunMode`]) and PIL handle ([`Pil`]) apply:
//! execute, record (memoize), and PIL replay (report processing replaced
//! by `sleep(recorded duration)` with the recorded output — the
//! block-map size — copied from the database and verified at the end).

use scalecheck_memo::{
    Digest128, FnId, Hasher128, MemoDb, MemoStats, OrderRecorder, Pil, Replay, RunMode,
};
use scalecheck_net::{LatencyModel, Network, NetworkConfig};
use scalecheck_sim::{
    Ctx, CtxSwitchModel, Engine, HandlerId, Machine, MachinePark, SimDuration, SimTime, Stage,
};
use serde::Serialize;

use crate::master::{blocks_of, DnId, Master, MasterOps, ReportVersion};

/// Memo function id for block-report processing.
pub const REPORT_FN: FnId = FnId(10);

/// Scenario configuration.
#[derive(Clone, Debug)]
pub struct HdfsConfig {
    /// Number of datanodes.
    pub n_datanodes: usize,
    /// Blocks per datanode.
    pub blocks_per_node: usize,
    /// Heartbeat interval (HDFS default 3 s).
    pub heartbeat_interval: SimDuration,
    /// Full block report interval (scaled down from HDFS's hours).
    pub report_interval: SimDuration,
    /// Master declares a datanode dead after this much silence.
    pub heartbeat_timeout: SimDuration,
    /// Report-processing implementation.
    pub version: ReportVersion,
    /// Virtual nanoseconds per counted master operation.
    pub ns_per_op: u64,
    /// Capacity of the master's RPC call queue; arrivals beyond it are
    /// rejected (HDFS's bounded call queue). Overflow is what turns a
    /// saturated master into *silence*: dropped heartbeats.
    pub queue_capacity: usize,
    /// Run length.
    pub duration: SimDuration,
    /// Simulation seed.
    pub seed: u64,
}

impl HdfsConfig {
    /// The HDFS-like bug scenario at `n` datanodes.
    pub fn bug(n: usize, seed: u64) -> Self {
        HdfsConfig {
            n_datanodes: n,
            blocks_per_node: 20_000,
            heartbeat_interval: SimDuration::from_secs(3),
            report_interval: SimDuration::from_secs(120),
            heartbeat_timeout: SimDuration::from_secs(60),
            version: ReportVersion::FullRescan,
            ns_per_op: 8000,
            queue_capacity: 20,
            duration: SimDuration::from_secs(600),
            seed,
        }
    }

    /// Same scenario with the incremental-diff fix.
    pub fn fixed(n: usize, seed: u64) -> Self {
        let mut cfg = Self::bug(n, seed);
        cfg.version = ReportVersion::IncrementalDiff;
        cfg
    }
}

/// Run results.
#[derive(Clone, Debug, Serialize)]
pub struct HdfsReport {
    /// Live datanodes declared dead (the flap analog).
    pub false_dead: u64,
    /// Dead→alive recoveries.
    pub recoveries: u64,
    /// Reports processed by the master.
    pub reports_processed: u64,
    /// Heartbeats processed by the master.
    pub heartbeats_processed: u64,
    /// Worst queueing delay a master task experienced.
    pub max_master_lateness: SimDuration,
    /// RPCs rejected by the full call queue (dropped heartbeats and
    /// reports).
    pub dropped_rpcs: u64,
    /// Blocks tracked at run end (replay verification input).
    pub final_block_count: usize,
    /// Replay verification: recorded vs replayed block counts diverged.
    pub output_mismatches: u64,
    /// Memo statistics.
    pub memo: MemoStats,
    /// Run duration (== configured duration).
    pub duration: SimDuration,
}

enum MTask {
    Report(DnId, u64),
}

/// What an engine event does. Each kind is one registered handler; the
/// payload's low word is the datanode, its high word a report's
/// sequence number.
#[derive(Clone, Copy)]
#[repr(u32)]
enum Ev {
    /// A datanode's heartbeat timer.
    Heartbeat,
    /// A datanode's block-report timer.
    Report,
    /// A heartbeat reaches the master.
    HeartbeatArrives,
    /// The master applies a heartbeat once the namesystem lock is free.
    HeartbeatApplies,
    /// A block report reaches the master's call queue.
    ReportArrives,
    /// The master finishes processing a block report.
    ReportDone,
    /// The master's liveness sweep.
    LivenessSweep,
}

impl Ev {
    const ALL: [Ev; 7] = [
        Ev::Heartbeat,
        Ev::Report,
        Ev::HeartbeatArrives,
        Ev::HeartbeatApplies,
        Ev::ReportArrives,
        Ev::ReportDone,
        Ev::LivenessSweep,
    ];
}

struct HdfsState<'a> {
    cfg: HdfsConfig,
    mode: RunMode,
    master: Master,
    stage: Stage<MTask>,
    park: MachinePark,
    master_machine: scalecheck_sim::cpu::MachineId,
    net: Network,
    pil: Pil<'a, u64>,
    report_seq: Vec<u64>,
    lock_held_until: SimTime,
    reports_processed: u64,
    heartbeats_processed: u64,
    dropped_rpcs: u64,
    output_mismatches: u64,
    /// The registered handler of each [`Ev`], by discriminant.
    handlers: [HandlerId; Ev::ALL.len()],
}

impl HdfsState<'_> {
    fn schedule(&self, ctx: &mut Ctx<'_>, at: SimTime, ev: Ev, payload: u64) {
        ctx.schedule_handler_at(at, self.handlers[ev as usize], payload);
    }
}

fn dispatch(st: &mut HdfsState, ctx: &mut Ctx<'_>, ev: Ev, payload: u64) {
    let i = payload as u32 as usize;
    let dn = DnId(i as u32);
    match ev {
        Ev::Heartbeat => dn_heartbeat(st, ctx, i),
        Ev::Report => dn_report(st, ctx, i),
        Ev::HeartbeatArrives => {
            // The heartbeat needs the namesystem lock: it processes
            // once the in-flight block report (if any) releases it.
            let ready = ctx.now().max(st.lock_held_until);
            st.schedule(ctx, ready, Ev::HeartbeatApplies, payload);
        }
        Ev::HeartbeatApplies => {
            let mut ops = MasterOps::new();
            st.master.process_heartbeat(dn, ctx.now(), &mut ops);
            st.heartbeats_processed += 1;
        }
        Ev::ReportArrives => {
            if st.stage.depth() >= st.cfg.queue_capacity {
                st.dropped_rpcs += 1;
                return;
            }
            st.stage.push(ctx.now(), MTask::Report(dn, payload >> 32));
            pump(st, ctx);
        }
        Ev::ReportDone => {
            st.reports_processed += 1;
            st.stage.finish();
            pump(st, ctx);
        }
        Ev::LivenessSweep => {
            st.master.check_liveness(ctx.now());
            let next = ctx.now() + SimDuration::from_secs(5);
            st.schedule(ctx, next, Ev::LivenessSweep, 0);
        }
    }
}

fn report_digest(dn: DnId, seq: u64, version: ReportVersion, blocks_per_node: usize) -> Digest128 {
    let mut h = Hasher128::new();
    h.update_u64(dn.0 as u64)
        .update_u64(seq)
        .update_u64(match version {
            ReportVersion::FullRescan => 0,
            ReportVersion::IncrementalDiff => 1,
        })
        .update_u64(blocks_per_node as u64);
    h.finish()
}

fn pump(st: &mut HdfsState, ctx: &mut Ctx<'_>) {
    let now = ctx.now();
    let Some(task) = st.stage.try_begin(now) else {
        return;
    };
    match task {
        MTask::Report(dn, seq) => {
            let digest = report_digest(dn, seq, st.cfg.version, st.cfg.blocks_per_node);
            let (cfg, master) = (&st.cfg, &mut st.master);
            let (_, duration) = st.pil.call(dn.0, REPORT_FN, digest, None, || {
                execute_report(cfg, master, dn)
            });
            let finish = if matches!(st.mode, RunMode::PilReplay { .. }) {
                now + duration
            } else {
                st.park
                    .get_mut(st.master_machine)
                    .submit(now, duration)
                    .finish
            };
            st.lock_held_until = finish;
            st.schedule(ctx, finish, Ev::ReportDone, 0);
        }
    }
}

/// Executes report processing for real, returning the resulting block
/// count (the memoized output) and the virtual duration.
fn execute_report(cfg: &HdfsConfig, master: &mut Master, dn: DnId) -> (u64, SimDuration) {
    let blocks = blocks_of(dn, cfg.blocks_per_node);
    let mut ops = MasterOps::new();
    master.process_block_report(dn, &blocks, &mut ops);
    (
        master.block_count() as u64,
        SimDuration::from_nanos(ops.ops().saturating_mul(cfg.ns_per_op)),
    )
}

fn dn_heartbeat(st: &mut HdfsState, ctx: &mut Ctx<'_>, i: usize) {
    let now = ctx.now();
    if let Ok(d) = st.net.offer(
        now,
        ctx.rng(),
        scalecheck_net::Addr(1 + i as u32),
        scalecheck_net::Addr(0),
    ) {
        st.schedule(ctx, d.deliver_at, Ev::HeartbeatArrives, i as u64);
    }
    let next = now + st.cfg.heartbeat_interval;
    st.schedule(ctx, next, Ev::Heartbeat, i as u64);
}

fn dn_report(st: &mut HdfsState, ctx: &mut Ctx<'_>, i: usize) {
    let seq = st.report_seq[i];
    st.report_seq[i] += 1;
    let now = ctx.now();
    if let Ok(d) = st.net.offer(
        now,
        ctx.rng(),
        scalecheck_net::Addr(1 + i as u32),
        scalecheck_net::Addr(0),
    ) {
        debug_assert!(seq <= u32::MAX as u64);
        st.schedule(ctx, d.deliver_at, Ev::ReportArrives, i as u64 | seq << 32);
    }
    let next = now + st.cfg.report_interval;
    st.schedule(ctx, next, Ev::Report, i as u64);
}

/// Runs a scenario as `mode` with `pil` its PIL side. Only the master's
/// report processing bills CPU: Real gives it a dedicated two-core
/// machine, the other modes the shared colocation box.
fn run(cfg: &HdfsConfig, mode: RunMode, pil: Pil<'_, u64>) -> HdfsReport {
    let mut park = MachinePark::new();
    let cores = mode.colo_cores().map_or(2, |c| c.max(1));
    let master_machine = park.add(Machine::new(cores, CtxSwitchModel::commodity()));
    let mut master = Master::new(cfg.version, cfg.heartbeat_timeout);
    for i in 0..cfg.n_datanodes {
        let dn = DnId(i as u32);
        master.register(dn, SimTime::ZERO);
        // The cluster was running before the experiment: the block map
        // is fully built (safe mode completed long ago).
        master.preload(dn, &blocks_of(dn, cfg.blocks_per_node));
    }
    let mut engine: Engine<HdfsState> = Engine::new(cfg.seed);
    let handlers = Ev::ALL.map(|ev| {
        engine.register_handler(move |st: &mut HdfsState, ctx, p| dispatch(st, ctx, ev, p))
    });
    let mut state = HdfsState {
        cfg: cfg.clone(),
        mode,
        master,
        stage: Stage::new(),
        park,
        master_machine,
        net: Network::new(NetworkConfig {
            latency: LatencyModel::lan(),
            drop_probability: 0.0,
        }),
        pil,
        report_seq: vec![0; cfg.n_datanodes],
        lock_held_until: SimTime::ZERO,
        reports_processed: 0,
        heartbeats_processed: 0,
        dropped_rpcs: 0,
        output_mismatches: 0,
        handlers,
    };

    let h = |ev: Ev| handlers[ev as usize];
    for i in 0..cfg.n_datanodes {
        let hb_stagger = SimDuration::from_nanos(
            cfg.heartbeat_interval.as_nanos() * (i as u64) / cfg.n_datanodes.max(1) as u64,
        );
        // Block reports align in storms (the restart/upgrade pattern of
        // real HDFS incidents): every node reports at the same period
        // boundary, with only a small per-node jitter.
        let rp_stagger = cfg.report_interval + SimDuration::from_millis(20 * i as u64);
        engine.schedule_handler_at(SimTime::ZERO + hb_stagger, h(Ev::Heartbeat), i as u64);
        engine.schedule_handler_at(SimTime::ZERO + rp_stagger, h(Ev::Report), i as u64);
    }
    engine.schedule_handler_at(SimTime::from_secs(5), h(Ev::LivenessSweep), 0);
    engine.run_until(&mut state, SimTime::ZERO + cfg.duration);

    HdfsReport {
        false_dead: state.master.false_dead(),
        recoveries: state.master.recoveries(),
        reports_processed: state.reports_processed,
        heartbeats_processed: state.heartbeats_processed,
        max_master_lateness: SimDuration::from_nanos(state.stage.lateness().max),
        dropped_rpcs: state.dropped_rpcs,
        final_block_count: state.master.block_count(),
        output_mismatches: state.output_mismatches,
        memo: state.pil.stats(),
        duration: cfg.duration,
    }
}

/// Runs a scenario at real scale.
pub fn run_hdfs(cfg: &HdfsConfig) -> HdfsReport {
    run(cfg, RunMode::Real, Pil::Execute)
}

/// The full scale-check pipeline for the HDFS-like target: memoize on
/// the shared box, then PIL-replay. Returns `(memoize, replay)`.
pub fn hdfs_scale_check(cfg: &HdfsConfig, cores: usize) -> (HdfsReport, HdfsReport) {
    // The order log stays empty: the master takes RPCs as they arrive.
    let (mut db, mut order) = (MemoDb::new(), OrderRecorder::new());
    let recorder = Pil::Record(&mut db, &mut order);
    let rec_report = run(cfg, RunMode::Colo { cores }, recorder);
    let replay = Pil::Replay(Replay::new(&db, None));
    let mut rep_report = run(cfg, RunMode::PilReplay { cores }, replay);

    // Output verification (the PIL contract): the replay's copied
    // outputs must reach the same final block count the memoization run
    // computed for real.
    let replayed_final = db
        .iter_records()
        .map(|(_, _, rec)| rec.output)
        .max()
        .unwrap_or(0);
    if replayed_final != rec_report.final_block_count as u64 {
        rep_report.output_mismatches += 1;
    }
    rep_report.final_block_count = replayed_final as usize;
    (rec_report, rep_report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cluster_is_healthy() {
        let r = run_hdfs(&HdfsConfig::bug(16, 1));
        assert_eq!(r.false_dead, 0, "16 datanodes must not saturate the master");
        assert!(r.reports_processed > 16 * 3, "reports flowed");
        assert!(r.heartbeats_processed > 1000, "heartbeats flowed");
        assert!(r.final_block_count >= 16 * 1000);
    }

    #[test]
    fn bug_manifests_at_scale_and_fix_removes_it() {
        // 192 datanodes: one full-rescan report holds the namesystem
        // lock past the heartbeat timeout; the incremental-diff master
        // shrugs. At 128 the hold is still under the timeout.
        let buggy = run_hdfs(&HdfsConfig::bug(192, 1));
        assert!(
            buggy.false_dead > 100,
            "live datanodes must be declared dead: {}",
            buggy.false_dead
        );
        assert!(buggy.recoveries > 0, "they come back: flapping");
        let small = run_hdfs(&HdfsConfig::bug(128, 1));
        assert_eq!(
            small.false_dead, 0,
            "no symptom at 128 — the onset is sharp"
        );
        let fixed = run_hdfs(&HdfsConfig::fixed(192, 1));
        assert_eq!(fixed.false_dead, 0, "the fix removes the symptom");
    }

    #[test]
    fn scale_check_reproduces_the_bug_cheaply() {
        let cfg = HdfsConfig::bug(256, 1);
        let real = run_hdfs(&cfg);
        let (memoized, replayed) = hdfs_scale_check(&cfg, 16);
        assert!(memoized.memo.recorded > 0);
        // Replay admission (hence report seq numbers) legitimately
        // differs from the memoization run's: drops depend on queue
        // state, which the Colo run distorts. Misses re-execute
        // honestly.
        assert!(replayed.memo.replay_hit_rate() > 0.6, "{:?}", replayed.memo);
        assert!(replayed.false_dead > 200, "symptom reproduced in replay");
        let ratio = replayed.false_dead as f64 / real.false_dead.max(1) as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "replay {} vs real {}",
            replayed.false_dead,
            real.false_dead
        );
        assert_eq!(replayed.output_mismatches, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_hdfs(&HdfsConfig::bug(64, 9));
        let b = run_hdfs(&HdfsConfig::bug(64, 9));
        assert_eq!(a.false_dead, b.false_dead);
        assert_eq!(a.reports_processed, b.reports_processed);
        assert_eq!(a.heartbeats_processed, b.heartbeats_processed);
    }
}
