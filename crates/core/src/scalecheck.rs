//! The ScaleCheck facade: one-call access to the paper's pipelines.
//!
//! * [`run_real`] — real-scale testing (Figure 1a): the ground truth.
//! * [`run_colo`] — basic colocation (Figure 1b): cheap but inaccurate.
//! * [`memoize`] — the one-time instrumented colocation run
//!   (Figure 2 step d) that fills the memo database and order log. It
//!   *is* the Colo run with recording on: its report equals
//!   [`run_colo`]'s but for the recording counters
//!   (`tests/run_pins.rs::memoization_run_is_the_colo_run`).
//! * [`replay`] — the fast, accurate PIL-infused replay
//!   (Figure 2 steps e–f).
//! * [`scale_check`] — memoize once, then replay: the paper's full
//!   "SC+PIL" pipeline.
//! * [`Triple`] — the paper's (Real, Colo, SC+PIL) comparison of one
//!   scenario: Real beside [`scale_check`], three runs in all.

use scalecheck_cluster::{run_scenario_with_db, PendingWire, RunMode, RunReport, ScenarioConfig};
use scalecheck_memo::{MemoDb, OrderRecorder};

/// Cores on the paper's colocation machine (a 16-core Nome node).
pub const COLO_CORES: usize = 16;

/// Artifacts of a memoization run: the database plus the recorded
/// message order.
pub struct MemoArtifacts {
    /// The memo database (input → output, duration).
    pub db: MemoDb<PendingWire>,
    /// Per-node processed-message order.
    pub order: OrderRecorder,
    /// The memoization run's own report. It *is* the Colo run — equal
    /// to [`run_colo`]'s report on the same scenario and cores except
    /// for `memo.recorded` / `memo.duplicate_inputs` — so a comparison
    /// that memoizes never needs a separate Colo run.
    pub report: RunReport,
}

/// Results of the full scale-check pipeline.
pub struct ScaleCheckResult {
    /// The memoization artifacts.
    pub memo: MemoArtifacts,
    /// The PIL-infused replay's report.
    pub replay: RunReport,
}

impl ScaleCheckResult {
    /// The pipeline's two reports as the `[Colo, SC+PIL]` columns of a
    /// [`Triple`].
    pub fn into_reports(self) -> [RunReport; 2] {
        [self.memo.report, self.replay]
    }
}

/// The paper's comparison of one scenario under its three deployments:
/// three runs, the Colo column being the memoization run's report.
pub struct Triple {
    /// Real-scale testing: the ground truth.
    pub real: RunReport,
    /// Basic colocation — [`MemoArtifacts::report`].
    pub colo: RunReport,
    /// The PIL-infused replay.
    pub pil: RunReport,
}

impl Triple {
    /// Runs Real, then [`scale_check`], on `cores` colocation cores.
    pub fn run(cfg: &ScenarioConfig, cores: usize) -> Triple {
        let real = run_real(cfg);
        let [colo, pil] = scale_check(cfg, cores).into_reports();
        Triple { real, colo, pil }
    }
}

/// Runs the scenario at real scale (every node on its own machine).
pub fn run_real(cfg: &ScenarioConfig) -> RunReport {
    run_scenario_with_db(&cfg.clone().with_mode(RunMode::Real), None, None).0
}

/// Runs the scenario under basic colocation on `cores` cores.
pub fn run_colo(cfg: &ScenarioConfig, cores: usize) -> RunReport {
    let cfg = cfg.clone().with_mode(RunMode::Colo { cores });
    run_scenario_with_db(&cfg, None, None).0
}

/// The one-time memoization run: basic colocation with input/output/
/// duration recording and order logging.
pub fn memoize(cfg: &ScenarioConfig, cores: usize) -> MemoArtifacts {
    let cfg = cfg.clone().with_mode(RunMode::Memoize { cores });
    let (report, db, order) = run_scenario_with_db(&cfg, None, None);
    MemoArtifacts {
        db,
        order: order.unwrap_or_default(),
        report,
    }
}

/// A PIL-infused replay over previously memoized artifacts.
///
/// Input lookups go by content digest; in this substrate the
/// calculation inputs converge deterministically, so digest hits
/// dominate and §5's order enforcement is left off by default (it is
/// implemented and measurable — see [`replay_ordered`] and the
/// fix-ablation experiment).
pub fn replay(cfg: &ScenarioConfig, cores: usize, memo: &MemoArtifacts) -> RunReport {
    let cfg = cfg.clone().with_mode(RunMode::PilReplay { cores });
    run_scenario_with_db(&cfg, Some(memo.db.clone()), None).0
}

/// A PIL-infused replay that also enforces the recorded per-node
/// message-processing order (§5 order determinism), with the configured
/// hold timeout bounding divergence damage.
pub fn replay_ordered(cfg: &ScenarioConfig, cores: usize, memo: &MemoArtifacts) -> RunReport {
    let cfg = cfg.clone().with_mode(RunMode::PilReplay { cores });
    run_scenario_with_db(&cfg, Some(memo.db.clone()), Some(memo.order.clone())).0
}

/// The full SC+PIL pipeline: memoize once, replay once.
pub fn scale_check(cfg: &ScenarioConfig, cores: usize) -> ScaleCheckResult {
    let memo = memoize(cfg, cores);
    let replay_report = replay(cfg, cores, &memo);
    ScaleCheckResult {
        memo,
        replay: replay_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioConfig {
        // Small and fast: 10 nodes, one decommission, cubic calculator
        // (cheap at this scale).
        let mut cfg = ScenarioConfig::c3831(10, 7);
        cfg.workload = scalecheck_cluster::Workload::Decommission {
            count: 1,
            gap: scalecheck_sim::SimDuration::from_secs(30),
        };
        cfg.workload_end = scalecheck_sim::SimDuration::from_secs(90);
        cfg.max_duration = scalecheck_sim::SimDuration::from_secs(400);
        cfg
    }

    #[test]
    fn real_run_quiesces_without_flaps_at_small_scale() {
        let r = run_real(&tiny());
        assert!(r.quiesced, "run should settle");
        assert_eq!(r.total_flaps, 0, "10-node decommission is healthy");
        assert!(r.messages_delivered > 100, "gossip flowed");
        assert!(r.calc.invocations > 0, "calculations happened");
    }

    #[test]
    fn memoize_fills_db_and_order_log() {
        let memo = memoize(&tiny(), COLO_CORES);
        assert!(!memo.db.is_empty());
        assert!(memo.order.total() > 0);
        assert!(memo.report.calc.invocations > 0);
    }

    #[test]
    fn replay_mostly_hits_the_db() {
        let cfg = tiny();
        let result = scale_check(&cfg, COLO_CORES);
        let stats = result.replay.memo;
        let rate = stats.replay_hit_rate();
        assert!(
            rate > 0.8,
            "replay should be served from the DB (rate {rate}, stats {stats:?})"
        );
    }

    #[test]
    fn replay_matches_real_flaps_at_small_scale() {
        let cfg = tiny();
        let real = run_real(&cfg);
        let result = scale_check(&cfg, COLO_CORES);
        assert_eq!(
            result.replay.total_flaps, real.total_flaps,
            "healthy scale must stay healthy under SC+PIL"
        );
    }
}
