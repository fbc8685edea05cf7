//! The paper-shape verdict over a (Real, Colo, SC+PIL) flap triple.
//!
//! The regression suite (`tests/bug_regressions.rs`) pins every bug to
//! the same Figure-3 shape: colocation manufactures flaps that Real
//! does not exhibit, while SC+PIL tracks Real within a small absolute
//! tolerance. [`FlapTriple::shape`] is the one definition of that shape
//! — the suite classifies its [`scalecheck::Triple`]s with it — and the
//! explorer's objective is a *verdict flip*: a schedule perturbation
//! under which the classification changes.

use scalecheck_cluster::SloSummary;
use serde::{Deserialize, Serialize};

/// Verdict parameters: the colocation box and the tracking tolerance.
/// The defaults are the regression suite's: a deliberately small box, so
/// contention at test scales mirrors the paper's 16-core box at 128+
/// nodes, and the paper's "SC+PIL reproduces results of real-scale
/// testing" as an absolute flap slack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictParams {
    /// Cores on the colocation box.
    pub cores: usize,
    /// Absolute flap slack for both shape clauses.
    pub tolerance: u64,
}

impl Default for VerdictParams {
    fn default() -> Self {
        VerdictParams {
            cores: 2,
            tolerance: 3,
        }
    }
}

/// Flap counts of the three deployments for one scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlapTriple {
    /// Real-scale flaps (ground truth).
    pub real: u64,
    /// Basic-colocation flaps.
    pub colo: u64,
    /// SC+PIL replay flaps.
    pub pil: u64,
}

/// The two-clause shape classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Colo manufactures flaps beyond Real + tolerance.
    pub colo_diverges: bool,
    /// SC+PIL stays within tolerance of Real.
    pub pil_tracks: bool,
}

impl From<&scalecheck::Triple> for FlapTriple {
    fn from(t: &scalecheck::Triple) -> Self {
        FlapTriple {
            real: t.real.total_flaps,
            colo: t.colo.total_flaps,
            pil: t.pil.total_flaps,
        }
    }
}

impl FlapTriple {
    /// Classifies the triple under `tolerance`.
    pub fn shape(&self, tolerance: u64) -> Shape {
        Shape {
            colo_diverges: self.colo > self.real + tolerance,
            pil_tracks: self.pil.abs_diff(self.real) <= tolerance,
        }
    }
}

impl Shape {
    /// The full paper shape: both clauses hold.
    pub fn paper(&self) -> bool {
        self.colo_diverges && self.pil_tracks
    }
}

/// Parameters for the SLO-shape verdict over a (Real, Colo, SC+PIL)
/// [`SloSummary`] triple.
///
/// Latency clauses are relative — colocation's CPU contention inflates
/// the tail multiplicatively, so a fixed-ns threshold would misfire at
/// both ends of the scale sweep — with an absolute floor (`p999_slack_ns`)
/// so log-histogram bucket granularity near small baselines cannot flip
/// a verdict on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct SloParams {
    /// Relative p99.9 allowance in permille of Real's p99.9 (300 =
    /// a 30 % inflation is still "tracking"; beyond it, divergence).
    pub p999_inflation_permille: u32,
    /// Absolute floor on the p99.9 allowance, in nanoseconds — one
    /// power-of-two histogram bucket at the millisecond magnitudes the
    /// committed tables sit at (the bucket holding a ~6 ms baseline
    /// spans 4.19–8.39 ms, so estimates of the *same* tail can sit a
    /// full 4.19 ms apart on quantization alone; a floor below one
    /// bucket width would let that noise flip a verdict).
    pub p999_slack_ns: u64,
    /// Availability slack in permille (5 = 0.5 % absolute).
    pub availability_slack_permille: u32,
}

impl Default for SloParams {
    fn default() -> Self {
        SloParams {
            p999_inflation_permille: 300,
            p999_slack_ns: 1 << 22,
            availability_slack_permille: 5,
        }
    }
}

/// The SLO summaries of the three deployments for one scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloTriple {
    /// Real-scale SLO outcome (ground truth).
    pub real: SloSummary,
    /// Basic-colocation SLO outcome.
    pub colo: SloSummary,
    /// SC+PIL replay SLO outcome.
    pub pil: SloSummary,
}

/// The user-visible analogue of [`Shape`], over tail latency and the
/// error budget instead of flap counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloVerdict {
    /// Colo inflates p99.9 beyond the allowance, loses availability
    /// beyond the slack, or reaches a different error-budget breach
    /// verdict than Real — a false SLO alarm (or a masked one).
    pub colo_diverges: bool,
    /// SC+PIL stays within the allowance of Real on every clause.
    pub pil_tracks: bool,
}

impl From<&scalecheck::Triple> for SloTriple {
    fn from(t: &scalecheck::Triple) -> Self {
        SloTriple {
            real: t.real.traffic.slo_summary(),
            colo: t.colo.traffic.slo_summary(),
            pil: t.pil.traffic.slo_summary(),
        }
    }
}

impl SloTriple {
    /// p99.9 allowance around `real_p999` under `params`.
    fn allowance(real_p999: u64, params: &SloParams) -> u64 {
        let relative = (real_p999 as u128 * params.p999_inflation_permille as u128 / 1000) as u64;
        relative.max(params.p999_slack_ns)
    }

    /// Classifies the triple under `params`.
    pub fn verdict(&self, params: &SloParams) -> SloVerdict {
        let allow = Self::allowance(self.real.p999_ns, params);
        let colo_diverges = self.colo.p999_ns > self.real.p999_ns.saturating_add(allow)
            || self.colo.budget_breached != self.real.budget_breached
            || self.colo.availability_permille + params.availability_slack_permille
                < self.real.availability_permille;
        let pil_tracks = self.pil.p999_ns.abs_diff(self.real.p999_ns) <= allow
            && self.pil.budget_breached == self.real.budget_breached
            && self
                .pil
                .availability_permille
                .abs_diff(self.real.availability_permille)
                <= params.availability_slack_permille;
        SloVerdict {
            colo_diverges,
            pil_tracks,
        }
    }
}

impl SloVerdict {
    /// The paper shape on the user-visible axis: colocation raises a
    /// false SLO alarm that the replay pipeline does not.
    pub fn paper(&self) -> bool {
        self.colo_diverges && self.pil_tracks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_classifies_both_clauses() {
        let t = FlapTriple {
            real: 0,
            colo: 100,
            pil: 2,
        };
        let s = t.shape(3);
        assert!(s.colo_diverges && s.pil_tracks && s.paper());

        let broken_track = FlapTriple {
            real: 0,
            colo: 100,
            pil: 9,
        };
        let s = broken_track.shape(3);
        assert!(s.colo_diverges && !s.pil_tracks && !s.paper());

        let no_diverge = FlapTriple {
            real: 50,
            colo: 52,
            pil: 50,
        };
        let s = no_diverge.shape(3);
        assert!(!s.colo_diverges && s.pil_tracks && !s.paper());
    }

    #[test]
    fn tolerance_is_inclusive_for_tracking_exclusive_for_divergence() {
        let t = FlapTriple {
            real: 10,
            colo: 13,
            pil: 13,
        };
        let s = t.shape(3);
        assert!(!s.colo_diverges, "colo must exceed real + tol strictly");
        assert!(s.pil_tracks, "pil may sit exactly at the tolerance");
    }

    fn summary(p999_ns: u64, availability_permille: u32, budget_breached: bool) -> SloSummary {
        SloSummary {
            p50_ns: p999_ns / 4,
            p99_ns: p999_ns / 2,
            p999_ns,
            tail_saturated: false,
            availability_permille,
            budget_burned_permille: if budget_breached { 1500 } else { 100 },
            budget_breached,
            attempted: 1000,
        }
    }

    #[test]
    fn slo_verdict_flags_tail_inflation_and_breach_disagreement() {
        let p = SloParams::default();
        // Colo triples the tail and trips the budget; PIL hugs Real.
        let t = SloTriple {
            real: summary(10_000_000, 1000, false),
            colo: summary(60_000_000, 990, true),
            pil: summary(11_000_000, 1000, false),
        };
        let v = t.verdict(&p);
        assert!(v.colo_diverges && v.pil_tracks && v.paper());

        // Breach disagreement alone diverges, even with the tail inside
        // the allowance.
        let breach_only = SloTriple {
            real: summary(10_000_000, 1000, false),
            colo: summary(10_000_000, 1000, true),
            pil: summary(10_000_000, 1000, false),
        };
        assert!(breach_only.verdict(&p).colo_diverges);

        // Everything inside the allowance: no divergence, tracking.
        let clean = SloTriple {
            real: summary(10_000_000, 999, false),
            colo: summary(12_000_000, 998, false),
            pil: summary(10_000_000, 999, false),
        };
        let v = clean.verdict(&p);
        assert!(!v.colo_diverges && v.pil_tracks && !v.paper());
    }

    #[test]
    fn slo_allowance_has_an_absolute_floor() {
        let p = SloParams::default();
        // Tiny baseline: the relative band is sub-bucket, so only the
        // absolute floor keeps histogram granularity from diverging.
        let t = SloTriple {
            real: summary(1_000_000, 1000, false),
            colo: summary(2_900_000, 1000, false),
            pil: summary(2_000_000, 1000, false),
        };
        let v = t.verdict(&p);
        assert!(!v.colo_diverges, "inside the one-bucket floor");
        assert!(v.pil_tracks);

        // A PIL that loses availability beyond the slack stops tracking.
        let lossy_pil = SloTriple {
            real: summary(10_000_000, 1000, false),
            colo: summary(10_000_000, 1000, false),
            pil: summary(10_000_000, 990, false),
        };
        assert!(!lossy_pil.verdict(&p).pil_tracks);
    }
}
