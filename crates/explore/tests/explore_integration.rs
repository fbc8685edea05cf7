//! End-to-end explorer contracts: the committed witness reserializes
//! and replays bit-identically, discovery-plus-shrink finds it from
//! scratch, and
//! the shrinker's 1-minimality guarantee holds on randomized
//! predicates.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use scalecheck::Deployment;
use scalecheck_explore::{explore_cell, shrink_swaps, CellPlan, ExploreOpts, ScheduleWitness};
use scalecheck_sim::TieSwap;

fn committed_witness_text() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/witnesses/race_40_1_real.json"
    );
    std::fs::read_to_string(path).expect("committed witness readable")
}

fn committed_witness() -> ScheduleWitness {
    ScheduleWitness::from_json(&committed_witness_text()).expect("committed witness parses")
}

/// The on-disk format is a contract of its own: the committed file is
/// exactly what `to_json` writes for it (plus the trailing newline), so
/// renaming a deployment variant or reordering a stored field — which
/// a parse-then-compare round trip would not notice — fails here.
#[test]
fn committed_witness_reserializes_byte_identically() {
    let text = committed_witness_text();
    assert_eq!(format!("{}\n", committed_witness().to_json()), text);
}

/// Regression: the witness `scalecheck-cli explore` discovered and
/// shrank stays replayable from nothing — same triples, same verdict
/// flip, same perturbed-report digest. Any engine or runner change that breaks
/// schedule determinism trips this first.
#[test]
fn committed_witness_replays_bit_identically() {
    let w = committed_witness();
    assert!(w.flips(), "stored triples must classify as a flip");
    let replay = w.replay();
    assert_eq!(replay.baseline, w.baseline, "identity baseline diverged");
    assert_eq!(replay.perturbed, w.perturbed, "perturbed triple diverged");
    assert!(replay.flipped, "witness no longer flips the verdict");
    assert_eq!(
        replay.report_digest, w.report_digest,
        "perturbed report is not bit-identical"
    );
}

/// The full discovery pipeline on the committed witness's cell: the
/// search must find a verdict flip among targeted swaps and shrink it
/// to a 1-minimal witness — deterministically the same single swap the
/// committed witness pins.
#[test]
fn explorer_rediscovers_the_committed_witness() {
    let plan = CellPlan {
        bug: "race".into(),
        n_nodes: 40,
        seed: 1,
        target: Deployment::Real,
    };
    let opts = ExploreOpts {
        budget_secs: 600,
        max_evals: 64,
        shuffles: 0,
        max_swap_candidates: 1024,
        ..ExploreOpts::default()
    };
    let deadline = Instant::now() + Duration::from_secs(opts.budget_secs);
    let outcome = explore_cell(&plan, &opts, deadline);
    assert!(outcome.flips_found >= 1, "search must find a flip");
    let witness = outcome.witness.expect("flip must yield a witness");
    assert_eq!(
        witness.tie_order,
        committed_witness().tie_order,
        "discovery is deterministic: same minimal perturbation"
    );
    assert!(
        witness.tie_order.swaps.len() == 1,
        "shrinker must reach a single-swap core"
    );
}

fn swap_set(seqs: &[u64]) -> Vec<TieSwap> {
    seqs.iter().map(|&s| TieSwap { seq: s, shift: 1 }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shrinker guarantee, property-tested: for a random initial set
    /// and a random "needs this subset" predicate, the result still
    /// flips and removing any single element no longer does.
    #[test]
    fn shrink_result_is_one_minimal(
        size in 1usize..24,
        core_mask in any::<u32>(),
        alt in any::<bool>(),
        alt_pick in any::<u32>(),
    ) {
        let initial: Vec<u64> = (0..size as u64).collect();
        let core: Vec<u64> = initial
            .iter()
            .copied()
            .filter(|&s| core_mask >> (s % 32) & 1 == 1)
            .collect();
        // Optionally a disjunctive escape hatch: one single element
        // that flips on its own, so greedy paths genuinely diverge.
        let alt_elem = alt.then(|| alt_pick as u64 % size as u64);
        let mut pred = |set: &[TieSwap]| {
            let has = |q: u64| set.iter().any(|s| s.seq == q);
            (!core.is_empty() && core.iter().all(|&c| has(c)))
                || alt_elem.is_some_and(has)
        };
        // The shrinker's contract requires a flipping input.
        let initial = swap_set(&initial);
        prop_assume!(pred(&initial));

        let multi = initial.len() > 1;
        let (out, evals) = shrink_swaps(initial, &mut pred);
        prop_assert!(pred(&out), "shrunk set must still flip");
        prop_assert!(
            evals > 0 || !multi,
            "shrinking a multi-element set spends evals"
        );
        for i in 0..out.len() {
            let mut smaller = out.clone();
            smaller.remove(i);
            prop_assert!(
                !pred(&smaller),
                "removing element {} must break the flip: {:?}",
                i,
                out
            );
        }
    }
}
