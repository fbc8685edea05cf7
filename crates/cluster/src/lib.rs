//! The Cassandra-like cluster substrate of the ScaleCheck reproduction.
//!
//! Composes the lower substrates (simulation kernel, network, ring,
//! gossip, memoization) into runnable clusters that exhibit the paper's
//! scalability bugs:
//!
//! * **C3831** — decommissions under the cubic pending-range calculator
//!   running inline on the gossip stage;
//! * **C3881** — scale-out under vnodes with the v2 calculator;
//! * **C5456** — the calculation on its own thread but holding a coarse
//!   ring lock;
//! * **C6127** — bootstrap-from-scratch exercising the fresh-ring
//!   quadratic path.
//!
//! A scenario runs through [`run_scenario`], handed two independent
//! arguments: where its nodes compute ([`RunMode`]: Real or Colo) and
//! what its PIL-replaced function does (a `scalecheck_memo::Pil` handle:
//! execute, record — the memoization run — or replay). It yields a
//! [`RunReport`] whose flap counts are the Figure 3 measurements.
//!
//! # Examples
//!
//! ```
//! use scalecheck_cluster::{run_scenario, RunMode, ScenarioConfig};
//! use scalecheck_memo::Pil;
//!
//! // A small healthy cluster decommissioning one node: no flapping.
//! let cfg = ScenarioConfig::baseline(8, 42);
//! let report = run_scenario(&cfg, RunMode::Real, Pil::Execute);
//! assert_eq!(report.total_flaps, 0);
//! assert!(report.quiesced);
//! ```

#![forbid(unsafe_code)]

pub mod calc;
pub mod calibrate;
pub mod config;
pub mod node;
pub mod report;
pub mod ringinfo;
pub mod runner;

pub use calc::{CalcEngine, CalcStats, PendingWire};
pub use config::{
    AllocStrategy, CalcVersion, ContextSwitch, LockingMode, MemoryConfig, ScenarioConfig, Workload,
    BYTES_PER_RING_ENTRY, PER_PROCESS_OVERHEAD,
};
pub use node::{Envelope, GossipMessage, Node, Task};
pub use report::RunReport;
pub use ringinfo::{addr_of, node_of, peer_of, RingInfo};
pub use runner::run_scenario;
pub use scalecheck_sim::{FaultEvent, FaultPlan, FaultReport, FiredFault, RunMode};
pub use scalecheck_traffic::{
    ArrivalConfig, ArrivalProcess, Consistency, SloSummary, SloTarget, TrafficConfig, TrafficReport,
};
