//! Schedule exploration for ScaleCheck: perturb-and-shrink
//! interleaving search on the deterministic engine.
//!
//! The engine is byte-deterministic per `(config, plan, seed)` — the
//! substrate MET-style explorative testing needs. This crate turns the
//! reproduction into a bug *finder*: it perturbs same-timestamp event
//! ordering (the one degree of freedom the simulation leaves
//! scheduler-undefined), classifies each perturbed run against the
//! paper-shape verdict the regression suite pins, and shrinks any
//! verdict flip to a minimal, replayable [`ScheduleWitness`].
//!
//! Layers:
//!
//! * [`verdict`] — the (Real, Colo, SC+PIL) flap-triple shape
//!   classification;
//! * [`evaluate`] — identity baseline plus one-run-per-candidate
//!   evaluation with a chosen perturbation target (a
//!   [`scalecheck::Deployment`]);
//! * [`candidates`] — DPOR-lite targeted-swap frontier from the
//!   engine's schedule probe (same-node races only);
//! * [`shrink`] — greedy ddmin to a verified 1-minimal core;
//! * [`witness`] — serialization and from-scratch replay;
//! * [`search`] — the budgeted driver behind `scalecheck-cli explore`.

#![forbid(unsafe_code)]

pub mod candidates;
pub mod evaluate;
pub mod search;
pub mod shrink;
pub mod verdict;
pub mod witness;

pub use candidates::{targeted_swaps, CandidateSet};
pub use evaluate::Evaluator;
pub use search::{explore, explore_cell, render_table, CellOutcome, CellPlan, ExploreOpts};
pub use shrink::shrink_swaps;
pub use verdict::{FlapTriple, Shape, SloParams, SloTriple, SloVerdict, VerdictParams};
pub use witness::{digest_report, scenario_for, ScheduleWitness, WitnessReplay, WITNESS_FORMAT};
