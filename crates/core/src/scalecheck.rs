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
//! * [`Deployment`] — the names of those three columns, and a run of
//!   one of them on its own.
//!
//! The scenario never carries its deployment: each call hands the runner
//! where its nodes compute ([`RunMode`]) and its PIL handle ([`Pil`]),
//! so one [`ScenarioConfig`] serves all of them unchanged.

use scalecheck_cluster::{run_scenario, PendingWire, RunMode, RunReport, ScenarioConfig};
use scalecheck_memo::{MemoDb, OrderRecorder, Pil, Replay};
use serde::{Deserialize, Serialize};

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

    /// The column of one deployment.
    pub fn get(&self, deployment: Deployment) -> &RunReport {
        match deployment {
            Deployment::Real => &self.real,
            Deployment::Colo => &self.colo,
            Deployment::ScPil => &self.pil,
        }
    }
}

/// The three deployments the paper compares one scenario under — the
/// columns of a [`Triple`], in order. Not a [`RunMode`], which names
/// only where one simulation computes: SC+PIL is two simulations (memoize — Colo
/// with a recorder — then replay), and a comparison that wants Colo
/// beside it takes Colo from the memoization run ([`Triple::run`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Deployment {
    /// Real-scale testing (Figure 1a): every node on its own machine.
    Real,
    /// Basic colocation (Figure 1b) on [`COLO_CORES`] cores.
    Colo,
    /// SC+PIL (Figure 2): memoize on [`COLO_CORES`] cores, then replay.
    ScPil,
}

impl Deployment {
    /// Every deployment, in column order.
    pub const ALL: [Deployment; 3] = [Deployment::Real, Deployment::Colo, Deployment::ScPil];

    /// The column heading: `Real`, `Colo`, `SC+PIL`.
    pub fn label(self) -> &'static str {
        match self {
            Deployment::Real => "Real",
            Deployment::Colo => "Colo",
            Deployment::ScPil => "SC+PIL",
        }
    }

    /// The command-line name: `real`, `colo`, `scpil`.
    pub fn name(self) -> &'static str {
        match self {
            Deployment::Real => "real",
            Deployment::Colo => "colo",
            Deployment::ScPil => "scpil",
        }
    }

    /// Parses one command-line name from `allowed`: trimmed,
    /// case-insensitive, and `pil` / `sc+pil` also name `scpil`. The
    /// error names the allowed set.
    pub fn parse(raw: &str, allowed: &[Deployment]) -> Result<Deployment, String> {
        let lower = raw.trim().to_ascii_lowercase();
        let name = match lower.as_str() {
            "sc+pil" | "pil" => "scpil",
            other => other,
        };
        let found = allowed.iter().copied().find(|d| d.name() == name);
        found.ok_or_else(|| {
            let expected: Vec<&str> = allowed.iter().map(|d| d.name()).collect();
            let expected = expected.join(", ");
            format!("unknown deployment '{name}' (expected one of {expected})")
        })
    }

    /// Parses a comma-separated list of names, each as [`parse`], keeping
    /// the given order.
    ///
    /// [`parse`]: Deployment::parse
    pub fn parse_list(spec: &str, allowed: &[Deployment]) -> Result<Vec<Deployment>, String> {
        spec.split(',')
            .map(|raw| Deployment::parse(raw, allowed))
            .collect()
    }

    /// Runs the scenario under this deployment alone and returns its
    /// column: for SC+PIL, the replay's report.
    pub fn run(self, cfg: &ScenarioConfig) -> RunReport {
        match self {
            Deployment::Real => run_real(cfg),
            Deployment::Colo => run_colo(cfg, COLO_CORES),
            Deployment::ScPil => scale_check(cfg, COLO_CORES).replay,
        }
    }
}

/// Runs the scenario at real scale (every node on its own machine).
pub fn run_real(cfg: &ScenarioConfig) -> RunReport {
    run_scenario(cfg, RunMode::Real, Pil::Execute)
}

/// Runs the scenario under basic colocation on `cores` cores.
pub fn run_colo(cfg: &ScenarioConfig, cores: usize) -> RunReport {
    run_scenario(cfg, RunMode::Colo { cores }, Pil::Execute)
}

/// The one-time memoization run: basic colocation with input/output/
/// duration recording and order logging.
pub fn memoize(cfg: &ScenarioConfig, cores: usize) -> MemoArtifacts {
    let (mut db, mut order) = (MemoDb::new(), OrderRecorder::new());
    let report = run_scenario(
        cfg,
        RunMode::Colo { cores },
        Pil::Record(&mut db, &mut order),
    );
    MemoArtifacts { db, order, report }
}

/// A PIL-infused replay borrowing previously memoized artifacts.
///
/// Input lookups go by content digest. In this substrate the
/// calculation inputs mostly converge deterministically, so digest hits
/// usually dominate: 100 % on the three paper figures, but only 63 % for
/// c6127 at 256 nodes, where a bootstrap from scratch lets arrival order
/// decide the inputs (`results/fig_c6127.txt`). §5's order enforcement
/// is left off by default; it is implemented and measurable — see
/// [`replay_ordered`] and the fix-ablation experiment.
pub fn replay(cfg: &ScenarioConfig, cores: usize, memo: &MemoArtifacts) -> RunReport {
    run_scenario(
        cfg,
        RunMode::Colo { cores },
        Pil::Replay(Replay::new(&memo.db, None)),
    )
}

/// A PIL-infused replay that also enforces the recorded per-node
/// message-processing order (§5 order determinism), with the configured
/// hold timeout bounding divergence damage.
pub fn replay_ordered(cfg: &ScenarioConfig, cores: usize, memo: &MemoArtifacts) -> RunReport {
    let replay = Replay::new(&memo.db, Some(&memo.order));
    run_scenario(cfg, RunMode::Colo { cores }, Pil::Replay(replay))
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
    fn cells_run_concurrently_and_deterministically() {
        let serial = Deployment::ScPil.run(&tiny());
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| Deployment::ScPil.run(&tiny())))
            .collect();
        for h in handles {
            let parallel = h.join().expect("cell thread");
            assert_eq!(parallel.total_flaps, serial.total_flaps);
            assert_eq!(parallel.messages_delivered, serial.messages_delivered);
        }
    }

    #[test]
    fn deployment_names_parse_within_the_allowed_set() {
        let all = Deployment::ALL;
        for (raw, want) in [
            ("real", Deployment::Real),
            ("Colo", Deployment::Colo),
            (" SC+PIL", Deployment::ScPil),
            ("pil", Deployment::ScPil),
            ("scpil", Deployment::ScPil),
        ] {
            assert_eq!(Deployment::parse(raw, &all), Ok(want), "{raw}");
        }
        let err = Deployment::parse("warp", &all).unwrap_err();
        assert!(
            err.contains("'warp'") && err.contains("real, colo, scpil"),
            "{err}"
        );
        let err = Deployment::parse("real", &all[1..]).unwrap_err();
        assert!(
            err.contains("'real'") && err.contains("colo, scpil"),
            "{err}"
        );
        for d in all {
            assert_eq!(Deployment::parse(d.label(), &all), Ok(d));
        }
    }

    #[test]
    fn modes_parse_in_order_within_the_allowed_set() {
        use Deployment::{Colo, Real, ScPil};
        assert_eq!(
            Deployment::parse_list("SC+PIL, real", &Deployment::ALL),
            Ok(vec![ScPil, Real])
        );
        assert_eq!(
            Deployment::parse_list("pil", &Deployment::ALL),
            Ok(vec![ScPil])
        );
        let err = Deployment::parse_list("colo,real", &[Colo, ScPil]).unwrap_err();
        assert!(
            err.contains("unknown deployment 'real'") && err.contains("colo, scpil"),
            "{err}"
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
