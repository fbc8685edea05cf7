//! The budgeted search driver: sweep perturbations over scenario
//! cells, classify verdicts, shrink flips to witnesses.
//!
//! Per cell `(bug, scale, seed, target)` the driver runs the identity
//! baseline, derives the DPOR-lite swap frontier from the schedule
//! probe, and spends its evaluation budget in two phases:
//!
//! 1. **Targeted swaps** — the full frontier at once (flips shrink to a
//!    1-minimal witness), then each candidate alone.
//! 2. **Seeded shuffles** — whole-batch permutations; a flipping
//!    shuffle is a single-knob witness (nothing to shrink).
//!
//! Budgets are dual: a wall-clock deadline (CI smoke) and an
//! evaluation cap (deterministic tables). Whichever binds first stops
//! the cell; shrinking always runs to completion so a reported witness
//! is never half-minimized.

use std::time::Instant;

use scalecheck::Deployment;
use scalecheck_sim::TieOrderSpec;

use crate::candidates::targeted_swaps;
use crate::evaluate::Evaluator;
use crate::shrink::shrink_swaps;
use crate::verdict::{FlapTriple, VerdictParams};
use crate::witness::{scenario_for, ScheduleWitness};

/// Search knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOpts {
    /// Wall-clock budget in seconds (checked between evaluations).
    pub budget_secs: u64,
    /// Maximum perturbation evaluations per cell (scenario re-runs,
    /// excluding the 3-run baseline; shrinking may exceed it).
    pub max_evals: usize,
    /// Shuffle seeds tried per cell.
    pub shuffles: u64,
    /// Cap on the targeted-swap frontier.
    pub max_swap_candidates: usize,
    /// Verdict parameters.
    pub params: VerdictParams,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            budget_secs: 120,
            max_evals: 40,
            shuffles: 8,
            max_swap_candidates: 24,
            params: VerdictParams::default(),
        }
    }
}

/// One cell to explore.
#[derive(Clone, Debug)]
pub struct CellPlan {
    /// Scenario preset name (see [`scenario_for`]).
    pub bug: String,
    /// Initial cluster size.
    pub n_nodes: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Deployment to perturb.
    pub target: Deployment,
}

/// What exploring one cell found.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The plan this outcome answers.
    pub plan: CellPlan,
    /// Identity-schedule flap triple.
    pub baseline: FlapTriple,
    /// Tie batches in the baseline target schedule.
    pub tie_batches: usize,
    /// Adjacent tie pairs examined by the DPOR-lite frontier.
    pub considered_pairs: usize,
    /// Pairs skipped as provably commuting.
    pub skipped_commuting: usize,
    /// Racing candidates kept.
    pub candidates: usize,
    /// Scenario runs spent (baseline + evaluations + shrinking).
    pub runs: usize,
    /// Distinct perturbations that flipped the verdict.
    pub flips_found: usize,
    /// Evaluations spent inside the shrinker.
    pub shrink_evals: usize,
    /// The minimal witness, if any flip was found.
    pub witness: Option<ScheduleWitness>,
    /// Whether a budget (wall or eval) cut the search short.
    pub budget_exhausted: bool,
}

/// Explores one cell under `opts`, stopping at `deadline`.
pub fn explore_cell(plan: &CellPlan, opts: &ExploreOpts, deadline: Instant) -> CellOutcome {
    let cfg = scenario_for(&plan.bug, plan.n_nodes, plan.seed)
        .unwrap_or_else(|| panic!("unknown bug preset: {}", plan.bug));
    let mut ev = Evaluator::new(&cfg, opts.params, plan.target);
    let cands = targeted_swaps(&ev.probe, opts.max_swap_candidates);
    let tie_batches = ev.probe.tie_groups().len();

    let mut outcome = CellOutcome {
        plan: plan.clone(),
        baseline: ev.baseline,
        tie_batches,
        considered_pairs: cands.considered,
        skipped_commuting: cands.skipped_commuting,
        candidates: cands.swaps.len(),
        runs: ev.runs,
        flips_found: 0,
        shrink_evals: 0,
        witness: None,
        budget_exhausted: false,
    };

    let mut evals = 0usize;
    let spend = |ev: &mut Evaluator,
                 evals: &mut usize,
                 out: &mut CellOutcome,
                 spec: &TieOrderSpec|
     -> Option<bool> {
        if Instant::now() >= deadline || *evals >= opts.max_evals {
            out.budget_exhausted = true;
            return None;
        }
        *evals += 1;
        let flipped = ev.flips(spec);
        if flipped {
            out.flips_found += 1;
        }
        Some(flipped)
    };

    // Phase 1: targeted swaps — full frontier, then singletons.
    let mut specs: Vec<TieOrderSpec> = Vec::new();
    if cands.swaps.len() > 1 {
        specs.push(TieOrderSpec::with_swaps(cands.swaps.clone()));
    }
    for &swap in &cands.swaps {
        specs.push(TieOrderSpec::with_swaps(vec![swap]));
    }
    for spec in &specs {
        match spend(&mut ev, &mut evals, &mut outcome, spec) {
            None => break,
            Some(false) => {}
            Some(true) => {
                // Shrink to a 1-minimal core (runs to completion so the
                // witness's minimality claim holds).
                let tol = opts.params.tolerance;
                let base_shape = ev.baseline.shape(tol);
                let (core, spent) = shrink_swaps(spec.swaps.clone(), &mut |set| {
                    ev.evaluate(&TieOrderSpec::with_swaps(set.to_vec()))
                        .shape(tol)
                        != base_shape
                });
                outcome.shrink_evals += spent;
                let minimal = TieOrderSpec::with_swaps(core);
                let report = ev.run_target(&minimal);
                outcome.witness = Some(ScheduleWitness::assemble(
                    &plan.bug,
                    plan.n_nodes,
                    plan.seed,
                    &ev,
                    minimal,
                    &report,
                ));
                outcome.runs = ev.runs;
                return outcome;
            }
        }
    }

    // Phase 2: seeded shuffles (only if no swap flip emerged).
    for s in 1..=opts.shuffles {
        let spec = TieOrderSpec::shuffled(plan.seed.wrapping_mul(1_000_003).wrapping_add(s));
        match spend(&mut ev, &mut evals, &mut outcome, &spec) {
            None => break,
            Some(false) => {}
            Some(true) => {
                let report = ev.run_target(&spec);
                outcome.witness = Some(ScheduleWitness::assemble(
                    &plan.bug,
                    plan.n_nodes,
                    plan.seed,
                    &ev,
                    spec,
                    &report,
                ));
                outcome.runs = ev.runs;
                return outcome;
            }
        }
    }

    outcome.runs = ev.runs;
    outcome
}

/// Explores every cell under one shared wall budget.
pub fn explore(cells: &[CellPlan], opts: &ExploreOpts) -> Vec<CellOutcome> {
    let deadline = Instant::now() + std::time::Duration::from_secs(opts.budget_secs);
    cells
        .iter()
        .map(|plan| explore_cell(plan, opts, deadline))
        .collect()
}

/// Renders outcomes as the fixed-width `TBL_explore.txt` table.
pub fn render_table(outcomes: &[CellOutcome]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>5} {:>5} {:<6} {:>6} {:>6} {:>6} {:>5} {:>5} {:>5} {:>6} {:>6} {:<8}",
        "bug",
        "n",
        "seed",
        "target",
        "real",
        "colo",
        "pil",
        "ties",
        "cand",
        "skip",
        "runs",
        "flips",
        "witness"
    );
    for o in outcomes {
        let witness = match &o.witness {
            Some(w) if w.tie_order.shuffle.is_some() => "shuffle".to_string(),
            Some(w) => format!("{}swaps", w.tie_order.swaps.len()),
            None if o.budget_exhausted => "budget".to_string(),
            None => "none".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>5} {:<6} {:>6} {:>6} {:>6} {:>5} {:>5} {:>5} {:>6} {:>6} {:<8}",
            o.plan.bug,
            o.plan.n_nodes,
            o.plan.seed,
            o.plan.target.name(),
            o.baseline.real,
            o.baseline.colo,
            o.baseline.pil,
            o.tie_batches,
            o.candidates,
            o.skipped_commuting,
            o.runs,
            o.flips_found,
            witness
        );
    }
    out
}
