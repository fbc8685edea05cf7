//! The harness's own scalability bug, guarded: building a cluster must
//! not grow cubically with N.
//!
//! Filling each established node's ring view with one checked `add_node`
//! per other member scanned the view once per token: a 2048-node build
//! took ~12 s before the first event and grew ~7× per doubling of N.
//! The build now clones one members table per node, and the clones share
//! each node's token list: the cell takes 0.8–0.9 s on a 2-vCPU container
//! (1.5–1.7 s while each view was a tree of entries that owned their
//! tokens). The 1 s horizon keeps the build
//! the bulk of the cell, so the 4 s budget tells the two apart with room
//! for a slow host.

use std::time::Instant;

use scalecheck_cluster::{run_scenario, RunMode, ScenarioConfig};
use scalecheck_memo::Pil;
use scalecheck_sim::SimDuration;

#[test]
#[ignore = "release-only: a 2048-node cell; ci.sh runs this in release"]
fn a_2048_node_cell_builds_in_seconds_not_minutes() {
    let mut cfg = ScenarioConfig::baseline(2048, 1);
    cfg.memory.single_process = true;
    cfg.max_duration = SimDuration::from_secs(1);
    let t0 = Instant::now();
    let r = run_scenario(&cfg, RunMode::Colo { cores: 16 }, Pil::Execute);
    let wall = t0.elapsed().as_secs_f64();
    assert!(r.engine.fired > 0, "the cell ran no events");
    assert!(
        wall <= 4.0,
        "a 2048-node baseline cell with a 1 s horizon took {wall:.2} s (budget 4 s): \
         is the cluster build cubic again?"
    );
}
