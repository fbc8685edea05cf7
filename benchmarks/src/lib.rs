//! The repo benchmark: four scale-check workloads measured end to end
//! (host wall seconds, peak RSS, set-up time) in fresh child processes,
//! and layer by layer from an outside trace. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.

pub mod alloc;
pub mod child;
pub mod compare;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod runner;
pub mod spans;
pub mod workloads;
