//! Scenario-regression suite: each reproduced bug must keep its
//! paper-shaped outcome at a pinned seed.
//!
//! The shape (Figure 3) is always the same: colocated testing distorts
//! the symptom while SC+PIL tracks real-scale behaviour. Concretely,
//! for every bug, at the pinned `(scale, cores, seed)`:
//!
//! * **Colo diverges**: colocation contention manufactures flaps that
//!   the real deployment does not exhibit;
//! * **SC+PIL tracks Real**: the replay's flap count stays within a
//!   small tolerance of the real-scale run.
//!
//! The scales here are smaller than the paper's (debug-build test
//! budget) with a proportionally smaller colocation box, which moves
//! the divergence knee down without changing the mechanism.

use scalecheck::Triple;
use scalecheck_cluster::ScenarioConfig;
use scalecheck_explore::{FlapTriple, VerdictParams};

/// Three runs (the memoization run is the Colo run), classified by the
/// one shape definition, on [`VerdictParams`]' default box: 2 cores,
/// so contention at these scales mirrors the paper's 16-core box at
/// 128+ nodes, and an absolute flap slack of 3.
fn assert_paper_shape(bug: &str, cfg: &ScenarioConfig) {
    let params = VerdictParams::default();
    let flaps = FlapTriple::from(&Triple::run(cfg, params.cores));
    let shape = flaps.shape(params.tolerance);
    assert!(
        shape.colo_diverges,
        "{bug}: Colo must diverge from Real ({flaps:?})"
    );
    assert!(
        shape.pil_tracks,
        "{bug}: SC+PIL must track Real within {} ({flaps:?})",
        params.tolerance
    );
}

#[test]
fn c3831_keeps_its_paper_shape() {
    assert_paper_shape("c3831", &ScenarioConfig::c3831(80, 1));
}

#[test]
fn c3881_keeps_its_paper_shape() {
    assert_paper_shape("c3881", &ScenarioConfig::c3881(64, 1));
}

#[test]
fn c5456_keeps_its_paper_shape() {
    assert_paper_shape("c5456", &ScenarioConfig::c5456(64, 1));
}
