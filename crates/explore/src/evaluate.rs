//! Perturbation evaluation: one identity baseline, then one targeted
//! re-run per candidate tie-order spec.
//!
//! The baseline costs three scenario runs (Real, memoize, replay — the
//! same triple the regression suite uses; the memoization run is the
//! Colo run). Each perturbation then re-runs only the *target*
//! deployment with the candidate [`TieOrderSpec`] installed; the other
//! two flap counts are carried over from the baseline, and an SC+PIL
//! target reuses the baseline's memo artifacts (replay is the cheap leg
//! by construction).

use scalecheck::{memoize, replay, run_colo, run_real, Deployment, MemoArtifacts};
use scalecheck_cluster::{RunReport, ScenarioConfig};
use scalecheck_sim::{ScheduleProbe, TieOrderSpec};

use crate::verdict::{FlapTriple, VerdictParams};

/// Baseline-plus-evaluator for one `(scenario, target)` cell: the
/// target is the [`Deployment`] whose leg of the flap triple is
/// perturbed. The baseline's memoization run is the Colo leg and feeds
/// the SC+PIL leg; a *perturbed* Colo leg is a plain Colo run (nothing
/// replays it), and a perturbed SC+PIL leg replays over the baseline
/// memo artifacts.
pub struct Evaluator {
    cfg: ScenarioConfig,
    params: VerdictParams,
    target: Deployment,
    memo: MemoArtifacts,
    /// Identity-schedule flap triple.
    pub baseline: FlapTriple,
    /// Schedule probe of the baseline target run (tie batches + tags).
    pub probe: ScheduleProbe,
    /// Scenario runs executed so far (baseline counts three).
    pub runs: usize,
}

impl Evaluator {
    /// Runs the identity baseline (3 scenario runs) and records the
    /// target run's schedule probe — for a Colo target, on the
    /// memoization run.
    pub fn new(cfg: &ScenarioConfig, params: VerdictParams, target: Deployment) -> Self {
        assert!(
            cfg.tie_order.is_identity(),
            "evaluator baseline must start from the stock schedule"
        );
        let mut probe_cfg = cfg.clone();
        probe_cfg.record_schedule = true;
        let cfg_for = |leg: Deployment| if leg == target { &probe_cfg } else { cfg };

        let mut real = run_real(cfg_for(Deployment::Real));
        let mut memo = memoize(cfg_for(Deployment::Colo), params.cores);
        let mut pil = replay(cfg_for(Deployment::ScPil), params.cores, &memo);

        let probe = match target {
            Deployment::Real => real.schedule_probe.take(),
            Deployment::Colo => memo.report.schedule_probe.take(),
            Deployment::ScPil => pil.schedule_probe.take(),
        }
        .expect("probe recorded on the target baseline run");

        Evaluator {
            cfg: cfg.clone(),
            params,
            target,
            baseline: FlapTriple {
                real: real.total_flaps,
                colo: memo.report.total_flaps,
                pil: pil.total_flaps,
            },
            memo,
            probe,
            runs: 3,
        }
    }

    /// The verdict parameters this evaluator classifies under.
    pub fn params(&self) -> VerdictParams {
        self.params
    }

    /// The perturbation target.
    pub fn target(&self) -> Deployment {
        self.target
    }

    /// The (identity-tie) scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// Re-runs the target deployment under `spec` and returns its full
    /// report (one scenario run).
    pub fn run_target(&mut self, spec: &TieOrderSpec) -> RunReport {
        let mut cfg = self.cfg.clone();
        cfg.tie_order = spec.clone();
        self.runs += 1;
        match self.target {
            Deployment::Real => run_real(&cfg),
            Deployment::Colo => run_colo(&cfg, self.params.cores),
            Deployment::ScPil => replay(&cfg, self.params.cores, &self.memo),
        }
    }

    /// The flap triple with the target's slot replaced by `report`.
    pub fn triple_with(&self, report: &RunReport) -> FlapTriple {
        let mut t = self.baseline;
        match self.target {
            Deployment::Real => t.real = report.total_flaps,
            Deployment::Colo => t.colo = report.total_flaps,
            Deployment::ScPil => t.pil = report.total_flaps,
        }
        t
    }

    /// Evaluates a spec to its flap triple (one scenario run).
    pub fn evaluate(&mut self, spec: &TieOrderSpec) -> FlapTriple {
        let report = self.run_target(spec);
        self.triple_with(&report)
    }

    /// Whether `spec` flips the shape verdict relative to the baseline.
    pub fn flips(&mut self, spec: &TieOrderSpec) -> bool {
        let tol = self.params.tolerance;
        self.evaluate(spec).shape(tol) != self.baseline.shape(tol)
    }
}
