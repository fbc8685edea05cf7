//! Replayable schedule witnesses.
//!
//! A witness pins everything needed to reproduce a verdict flip from
//! nothing: the scenario (bug preset, scale, seed), the verdict
//! parameters, which deployment was perturbed, and the minimal
//! [`TieOrderSpec`]. It also stores the flap triples and a content
//! digest of the perturbed target report, so replay can assert
//! bit-level reproduction, not just the same verdict.

use scalecheck::Deployment;
use scalecheck_cluster::{ContextSwitch, RunReport, ScenarioConfig};
use scalecheck_sim::TieOrderSpec;
use serde::{Deserialize, Serialize};

use crate::evaluate::Evaluator;
use crate::verdict::{FlapTriple, VerdictParams};

/// Bump when the witness schema changes incompatibly.
pub const WITNESS_FORMAT: u32 = 1;

/// A minimal, replayable verdict-flipping schedule perturbation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleWitness {
    /// Schema version ([`WITNESS_FORMAT`]).
    pub format: u32,
    /// Scenario preset name (`baseline`, `c3831`, `c3881`, `c5456`,
    /// `c6127`, `race`).
    pub bug: String,
    /// Initial cluster size passed to the preset.
    pub n_nodes: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Verdict parameters the flip was classified under.
    pub params: VerdictParams,
    /// Which deployment the perturbation applies to.
    pub target: Deployment,
    /// The (shrunk) perturbation.
    pub tie_order: TieOrderSpec,
    /// Identity-schedule flap triple.
    pub baseline: FlapTriple,
    /// Perturbed flap triple.
    pub perturbed: FlapTriple,
    /// Content digest of the perturbed target run's report.
    pub report_digest: String,
}

/// What replaying a witness reproduced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessReplay {
    /// Re-derived identity triple.
    pub baseline: FlapTriple,
    /// Re-derived perturbed triple.
    pub perturbed: FlapTriple,
    /// Re-derived digest of the perturbed target report.
    pub report_digest: String,
    /// Whether the verdict still flips.
    pub flipped: bool,
}

/// Builds the scenario a witness names. `None` for unknown presets.
pub fn scenario_for(bug: &str, n_nodes: usize, seed: u64) -> Option<ScenarioConfig> {
    match bug {
        "baseline" => Some(ScenarioConfig::baseline(n_nodes, seed)),
        "race" => Some(race_scenario(n_nodes, seed)),
        bug => ScenarioConfig::bug(bug, n_nodes, seed).ok(),
    }
}

/// The race-prone preset: the stock bug scenarios turn out to be
/// tick-commutative (their exact-nanosecond ties are same-node
/// gossip/fd timer pairs whose order has no observable effect), so
/// this preset engineers *consequential* ties. Four changes:
///
/// * message processing costs zero virtual time and the machine model
///   is ideal (zero context-switch overhead), so send/receive
///   completions land on the same nanosecond as the event that
///   triggered them instead of a few microseconds later;
/// * link latency is constant and a multiple of the timer-stagger
///   grid (`gossip_interval / n`), so deliveries — and the reply
///   sends they trigger — collide exactly with other nodes' gossip
///   and failure-detector timers (use an `n` that divides 1e9 for a
///   lossless grid, e.g. 40);
/// * light random loss plus a lowered φ threshold keep the failure
///   detector marginal, so which-message-gets-which-drop-draw (the
///   shared-RNG race) and heartbeat-vs-sweep order (the same-node
///   race) genuinely decide convictions.
fn race_scenario(n_nodes: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(n_nodes, seed);
    let interval = cfg.gossip_interval.as_nanos();
    let grid = interval / (n_nodes.max(1) as u64);
    cfg.network.latency =
        scalecheck_net::LatencyModel::Constant(scalecheck_sim::SimDuration::from_nanos(3 * grid));
    cfg.network.drop_probability = 0.10;
    cfg.phi_threshold = 5.0;
    cfg.msg_base_cost = scalecheck_sim::SimDuration::ZERO;
    cfg.per_endpoint_cost = scalecheck_sim::SimDuration::ZERO;
    cfg.context_switch = ContextSwitch::Free;
    cfg.max_duration = scalecheck_sim::SimDuration::from_secs(300);
    cfg
}

/// A report's content address ([`scalecheck::content_digest`]) — what
/// a witness's `report_digest` line and the whole-run pins compare.
pub fn digest_report(report: &RunReport) -> String {
    scalecheck::content_digest(report)
}

impl ScheduleWitness {
    /// Assembles a witness from an evaluator and the perturbed target
    /// report it produced.
    pub fn assemble(
        bug: &str,
        n_nodes: usize,
        seed: u64,
        ev: &Evaluator,
        tie_order: TieOrderSpec,
        perturbed_report: &RunReport,
    ) -> Self {
        ScheduleWitness {
            format: WITNESS_FORMAT,
            bug: bug.to_string(),
            n_nodes,
            seed,
            params: ev.params(),
            target: ev.target(),
            tie_order,
            baseline: ev.baseline,
            perturbed: ev.triple_with(perturbed_report),
            report_digest: digest_report(perturbed_report),
        }
    }

    /// Serializes to pretty JSON (the committed on-disk format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("witness serializes")
    }

    /// Parses a witness from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let w: ScheduleWitness =
            serde_json::from_str(text).map_err(|e| format!("witness parse: {e:?}"))?;
        if w.format != WITNESS_FORMAT {
            return Err(format!(
                "witness format {} (this build reads {})",
                w.format, WITNESS_FORMAT
            ));
        }
        Ok(w)
    }

    /// Whether the stored triples flip the verdict under the stored
    /// parameters.
    pub fn flips(&self) -> bool {
        self.perturbed.shape(self.params.tolerance) != self.baseline.shape(self.params.tolerance)
    }

    /// Replays the witness from scratch: identity baseline (3 runs)
    /// plus the perturbed target run (1 run). Panics on unknown bug
    /// presets (a witness naming one is corrupt).
    pub fn replay(&self) -> WitnessReplay {
        let cfg = scenario_for(&self.bug, self.n_nodes, self.seed)
            .unwrap_or_else(|| panic!("unknown bug preset in witness: {}", self.bug));
        let mut ev = Evaluator::new(&cfg, self.params, self.target);
        let report = ev.run_target(&self.tie_order);
        let perturbed = ev.triple_with(&report);
        let tol = self.params.tolerance;
        WitnessReplay {
            baseline: ev.baseline,
            perturbed,
            report_digest: digest_report(&report),
            flipped: perturbed.shape(tol) != ev.baseline.shape(tol),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_sim::TieSwap;

    fn sample() -> ScheduleWitness {
        ScheduleWitness {
            format: WITNESS_FORMAT,
            bug: "baseline".into(),
            n_nodes: 8,
            seed: 1,
            params: VerdictParams::default(),
            target: Deployment::Real,
            tie_order: TieOrderSpec::with_swaps(vec![TieSwap { seq: 40, shift: 2 }]),
            baseline: FlapTriple {
                real: 0,
                colo: 20,
                pil: 1,
            },
            perturbed: FlapTriple {
                real: 9,
                colo: 20,
                pil: 1,
            },
            report_digest: "00".repeat(16),
        }
    }

    #[test]
    fn witness_json_round_trips() {
        let w = sample();
        let back = ScheduleWitness::from_json(&w.to_json()).expect("parse");
        assert_eq!(back, w);
    }

    #[test]
    fn stored_triples_classify_as_a_flip() {
        let w = sample();
        assert!(w.flips(), "real moved 0→9: tracking clause breaks");
    }

    #[test]
    fn future_formats_are_rejected() {
        let mut w = sample();
        w.format = WITNESS_FORMAT + 1;
        let err = ScheduleWitness::from_json(&w.to_json()).unwrap_err();
        assert!(err.contains("format"));
    }

    #[test]
    fn scenario_names_resolve() {
        for bug in ["baseline", "c3831", "c3881", "c5456", "c6127", "race"] {
            assert!(scenario_for(bug, 8, 1).is_some(), "{bug}");
        }
        assert!(scenario_for("c9999", 8, 1).is_none());
    }
}
