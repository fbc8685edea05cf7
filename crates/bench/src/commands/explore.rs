//! Schedule-exploration driver: perturb-and-shrink interleaving search
//! over the deterministic engine (see `crates/explore`).
//!
//! Three modes:
//!
//! * **hunt** (default) — sweep the given cells under the wall/eval
//!   budget, print the outcome table, and (optionally) write the first
//!   discovered minimal witness to `--witness-out`. A cell is
//!   `bug:nodes:seed:target`, bug one of `baseline|c3831|c3881|c5456|
//!   c6127|race` and target a deployment name as `run --mode` takes it
//!   (`real|colo|scpil`, `pil` also naming `scpil`); `race` is the
//!   tie-heavy preset engineered so interleaving genuinely decides
//!   convictions.
//! * **`--smoke`** — pinned cheap cells that the stock engine handles
//!   deterministically; asserts *zero* verdict flips and exits nonzero
//!   on any flip (the CI guard that tie-order plumbing stays inert on
//!   the identity path).
//! * **`--replay FILE`** — replays a committed witness from scratch and
//!   asserts the verdict still flips and the perturbed report digest is
//!   bit-identical; exits nonzero otherwise.

use std::num::NonZeroUsize;
use std::time::Instant;

use crate::cli::{bare, read_file, val, write_file, Args, Command, Failure};
use scalecheck::Deployment;
use scalecheck_explore::{explore_cell, render_table, CellPlan, ExploreOpts, ScheduleWitness};

pub const COMMAND: Command = Command {
    name: "explore",
    about: "schedule exploration: perturb-and-shrink search for verdict-flipping interleavings",
    flags: &[
        bare("--smoke", "pinned cells; fail on any verdict flip"),
        val("--replay", "FILE", "witness to replay; must still flip"),
        val("--cells", "SPEC,..", "bug:nodes:seed:target cells to hunt"),
        val("--budget-secs", "N", "wall budget, all cells (default 120)"),
        val("--max-evals", "N", "evaluations per cell (default 40)"),
        val("--shuffles", "N", "shuffle seeds per cell (default 8)"),
        val("--max-swaps", "N", "swap candidates per cell (default 24)"),
        val("--witness-out", "FILE", "write the first witness found"),
        val("--table-out", "FILE", "write the outcome table"),
    ],
    run,
};

/// The smoke suite: cheap cells whose identity schedules the verdict
/// pipeline classifies robustly — swaps and shuffles must not flip
/// them. Budgeted tightly so CI stays fast; the assertion is "no
/// flips", so an exhausted budget only makes the guard weaker, never
/// flaky.
fn smoke_cells() -> Vec<CellPlan> {
    vec![
        cell("baseline", 8, 1, Deployment::Real),
        cell("baseline", 8, 1, Deployment::Colo),
        cell("c3831", 16, 1, Deployment::ScPil),
    ]
}

fn cell(bug: &str, n_nodes: usize, seed: u64, target: Deployment) -> CellPlan {
    CellPlan {
        bug: bug.to_string(),
        n_nodes,
        seed,
        target,
    }
}

fn parse_cells(raw: &str) -> Result<Vec<CellPlan>, String> {
    raw.split(',')
        .map(|spec| {
            let parts: Vec<&str> = spec.trim().split(':').collect();
            let [bug, n, seed, target] = parts.as_slice() else {
                return Err(format!("cell '{spec}' is not bug:nodes:seed:target"));
            };
            let n_nodes = n
                .parse::<NonZeroUsize>()
                .map_err(|_| format!("cell '{spec}': bad node count '{n}'"))?
                .get();
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("cell '{spec}': bad seed '{seed}'"))?;
            let target = Deployment::parse(target, &Deployment::ALL)?;
            Ok(cell(bug, n_nodes, seed, target))
        })
        .collect()
}

fn replay_witness(path: &str) -> Result<(), Failure> {
    let witness = ScheduleWitness::from_json(&read_file(path)?)
        .map_err(|e| Failure::Failed(format!("error: {e}")))?;
    println!(
        "replaying witness: bug={} n={} seed={} target={} swaps={} shuffle={:?}",
        witness.bug,
        witness.n_nodes,
        witness.seed,
        witness.target.name(),
        witness.tie_order.swaps.len(),
        witness.tie_order.shuffle,
    );
    let start = Instant::now();
    let replay = witness.replay();
    println!(
        "baseline (real={} colo={} pil={}) -> perturbed (real={} colo={} pil={}) in {:.1}s",
        replay.baseline.real,
        replay.baseline.colo,
        replay.baseline.pil,
        replay.perturbed.real,
        replay.perturbed.colo,
        replay.perturbed.pil,
        start.elapsed().as_secs_f64(),
    );
    let mut ok = true;
    if replay.baseline != witness.baseline {
        eprintln!(
            "FAIL: baseline triple diverged (stored real={} colo={} pil={})",
            witness.baseline.real, witness.baseline.colo, witness.baseline.pil
        );
        ok = false;
    }
    if replay.perturbed != witness.perturbed {
        eprintln!(
            "FAIL: perturbed triple diverged (stored real={} colo={} pil={})",
            witness.perturbed.real, witness.perturbed.colo, witness.perturbed.pil
        );
        ok = false;
    }
    if !replay.flipped {
        eprintln!("FAIL: witness no longer flips the verdict");
        ok = false;
    }
    if replay.report_digest != witness.report_digest {
        eprintln!(
            "FAIL: perturbed report digest diverged ({} vs stored {})",
            replay.report_digest, witness.report_digest
        );
        ok = false;
    }
    if !ok {
        return Err(Failure::Failed(format!("FAIL: {path} did not replay")));
    }
    println!("OK: verdict flip reproduced bit-identically");
    Ok(())
}

fn run(args: &Args) -> Result<(), Failure> {
    if let Some(path) = args.value("--replay") {
        return replay_witness(path);
    }

    let smoke = args.has("--smoke");
    let mut opts = ExploreOpts::default();
    if let Some(b) = args.get("--budget-secs")? {
        opts.budget_secs = b;
    }
    if let Some(m) = args.get("--max-evals")? {
        opts.max_evals = m;
    }
    if let Some(s) = args.get("--shuffles")? {
        opts.shuffles = s;
    }
    if let Some(c) = args.get("--max-swaps")? {
        opts.max_swap_candidates = c;
    }
    if smoke {
        // Keep the CI stage cheap and deterministic.
        opts.max_evals = opts.max_evals.min(6);
        opts.shuffles = opts.shuffles.min(2);
    }

    let cells = match args.value("--cells") {
        Some(raw) => parse_cells(raw).map_err(Failure::Usage)?,
        None if smoke => smoke_cells(),
        None => {
            let msg = "hunt mode needs --cells (or pass --smoke)";
            return Err(Failure::Usage(msg.into()));
        }
    };

    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs(opts.budget_secs);
    let mut outcomes = Vec::new();
    for plan in &cells {
        eprintln!(
            "exploring {}:{}:{}:{} ...",
            plan.bug,
            plan.n_nodes,
            plan.seed,
            plan.target.name()
        );
        outcomes.push(explore_cell(plan, &opts, deadline));
    }

    let table = render_table(&outcomes);
    print!("{table}");
    println!(
        "# {} cells, {} runs, {:.1}s",
        outcomes.len(),
        outcomes.iter().map(|o| o.runs).sum::<usize>(),
        start.elapsed().as_secs_f64(),
    );

    if let Some(path) = args.value("--table-out") {
        write_file(path, &table)?;
        eprintln!("wrote {path}");
    }

    if let Some(path) = args.value("--witness-out") {
        match outcomes.iter().find_map(|o| o.witness.as_ref()) {
            Some(w) => {
                write_file(path, w.to_json())?;
                eprintln!("wrote witness {path}");
            }
            None => eprintln!("no witness found; {path} not written"),
        }
    }

    let flips: usize = outcomes.iter().map(|o| o.flips_found).sum();
    if smoke && flips > 0 {
        let msg = format!("FAIL: smoke cells must not flip (found {flips})");
        return Err(Failure::Failed(msg));
    }
    Ok(())
}
