//! Frontier pins: the targeted-swap frontier the explorer derives from a
//! baseline schedule probe, content-digested per cell — every racing
//! swap (uncapped and at the default cap), the tie pairs considered and
//! the pairs skipped as commuting. A change to how fired events are
//! classified (kind or node of any tie member) moves a digest here
//! before it moves a verdict. The digests were captured on the commit
//! before the probe read each event's kind off its handler and payload,
//! when the runner tagged events through a second channel.

use scalecheck::{content_digest, Deployment};
use scalecheck_explore::{scenario_for, targeted_swaps, Evaluator, ExploreOpts, VerdictParams};

/// Digests of the frontier of `bug(n)` seed 1 against `target`: the
/// whole frontier, then the one `explore` keeps at its default cap.
fn frontier_digests(bug: &str, n: usize, target: Deployment) -> [String; 2] {
    let cfg = scenario_for(bug, n, 1).expect("known preset");
    let ev = Evaluator::new(&cfg, VerdictParams::default(), target);
    [usize::MAX, ExploreOpts::default().max_swap_candidates].map(|cap| {
        let c = targeted_swaps(&ev.probe, cap);
        content_digest(&(&c.swaps, c.considered, c.skipped_commuting))
    })
}

/// The committed witness's cell (`tests/witnesses/race_40_1_real.json`).
#[test]
fn race_40_real_frontier_is_pinned() {
    assert_eq!(
        frontier_digests("race", 40, Deployment::Real),
        [
            "a3db256edfca0493f45babc22ec4fab3",
            "53f3cd04376816aaf6c76c7a8e4735c4"
        ]
    );
}

/// A stock bug cell: C3831 at 48 nodes, its memoization (Colo) leg.
#[test]
fn c3831_48_colo_frontier_is_pinned() {
    assert_eq!(
        frontier_digests("c3831", 48, Deployment::Colo),
        [
            "0cf4e6f3bd91c10b29178e94bea22218",
            "1c46ee5ce4f05fc277e73819a4a0eef0"
        ]
    );
}
