//! **ScaleCheck** — single-machine scale-checking of distributed
//! systems, reproducing "Scalability Bugs: When 100-Node Testing is Not
//! Enough" (HotOS '17).
//!
//! Scalability bugs are latent, cluster-scale-dependent bugs whose
//! symptoms surface only in large deployments. Real-scale testing is
//! expensive; naive colocation of N nodes on one machine distorts
//! behaviour through CPU contention. ScaleCheck's answer is the
//! **processing illusion (PIL)**: replace expensive, side-effect-free
//! computations with `sleep(t)` plus a memoized output, so hundreds of
//! colocated nodes behave as if each had its own machine.
//!
//! The crate exposes the paper's pipelines over the cluster substrate:
//!
//! * [`run_real`] / [`run_colo`] — the ground truth and the naive
//!   baseline;
//! * [`memoize`] → [`replay`] / [`scale_check`] — the SC+PIL pipeline
//!   (instrumented colocation run, then deterministic PIL replay);
//! * [`Triple`] — Figure 3's question (does SC+PIL track Real where
//!   Colo does not?) as three runs: the memoization run is the Colo run;
//!   [`Deployment`] names its columns;
//! * [`bottleneck`] — the §8 colocation-limit diagnostics (CPU > 90 %,
//!   OOM, event lateness).
//!
//! # Examples
//!
//! ```
//! use scalecheck::{run_real, scale_check, COLO_CORES};
//! use scalecheck_cluster::ScenarioConfig;
//!
//! // A small, healthy cluster: SC+PIL must agree with real-scale.
//! let mut cfg = ScenarioConfig::baseline(8, 1);
//! let real = run_real(&cfg);
//! let sc = scale_check(&cfg, COLO_CORES);
//! assert_eq!(real.total_flaps, sc.replay.total_flaps);
//! ```

#![forbid(unsafe_code)]

pub mod baselines;
pub mod bottleneck;
pub mod digest;
pub mod scalecheck;

pub use baselines::{extrapolate_power_law, time_dilated};
pub use bottleneck::{colocation_memory_demand, diagnose, Bottleneck, BottleneckThresholds};
pub use digest::content_digest;
pub use scalecheck::{
    memoize, replay, replay_ordered, run_colo, run_real, scale_check, Deployment, MemoArtifacts,
    ScaleCheckResult, Triple, COLO_CORES,
};
