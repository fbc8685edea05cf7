//! The client-request datapath: millions of virtual users over the
//! token ring, deterministic to the byte.
//!
//! The paper's opening symptom is user-facing — "many live nodes are
//! declared as dead, making some data not reachable by the users" —
//! but flap counts are an operator's view of that damage. Production
//! observes the same bug as a p99.9 latency cliff and error-budget
//! burn. This crate closes that gap: an **open-loop arrival process**
//! offers aggregated request batches on the virtual clock
//! ([`ArrivalConfig`]), each request routes through a coordinator to
//! its RF replicas and completes under a **consistency level**
//! ([`Consistency`]) using per-replica virtual-time RTTs plus
//! failure-detector liveness, and per-request latencies land in an
//! **SLO layer** ([`SloTarget`], [`slo::ErrorBudget`]) that renders the
//! run as percentiles and budget burn.
//!
//! Three contracts hold everything together:
//!
//! * **Coupled by default, observer on demand.** The open-loop datapath
//!   runs *coupled* ([`TrafficConfig::coupled`]): coordinator and
//!   replica service bill the per-node simulated CPUs and replica round
//!   trips ride the real per-link FIFO clocks and fault windows, so CPU
//!   starvation and network congestion show up in user-visible tails.
//!   The light probe stays an uncoupled observer, and either
//!   way traffic never draws from the simulation's shared RNG streams —
//!   with traffic off (or coupled traffic offered zero load) the
//!   control plane is bit-identical.
//! * **O(requests), not O(clients).** A cell configured with a million
//!   users costs the same memory as one with fifty: arrivals aggregate
//!   into per-tick batches, each tick simulates at most
//!   [`TrafficConfig::sample_cap_per_tick`] representative requests,
//!   and offered load beyond the sample budget rides along as integer
//!   weights. [`TrafficState::tracked_bytes`] exposes the footprint so
//!   tests can pin it.
//! * **Byte determinism.** Same (config, plan, seed) → the same request
//!   log digest and the same histogram bytes at any sweep parallelism.
//!   All randomness flows through one private [`DetRng`] fork.
//!
//! [`DetRng`]: scalecheck_sim::DetRng

pub mod arrival;
pub mod consistency;
pub mod engine;
pub mod report;
pub mod slo;

pub use arrival::{ArrivalConfig, ArrivalProcess};
pub use consistency::{Consistency, CostModel, Degradation, OpKind};
pub use engine::{ClusterFabric, KeySkew, Phase, TrafficConfig, TrafficState};
pub use report::{RequestRecord, TrafficReport};
pub use slo::{ErrorBudget, SloSummary, SloTarget};
