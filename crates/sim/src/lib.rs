//! Deterministic discrete-event simulation kernel for ScaleCheck.
//!
//! This crate is the bottom layer of the ScaleCheck reproduction
//! ("Scalability Bugs: When 100-Node Testing is Not Enough", HotOS '17).
//! It provides:
//!
//! * virtual time ([`SimTime`], [`SimDuration`]);
//! * a deterministic event engine ([`Engine`]) with seeded randomness
//!   ([`DetRng`]);
//! * CPU/machine models ([`Machine`], [`MachinePark`]) and where a run
//!   computes ([`RunMode`]: one machine per node, or one shared box),
//!   each deployment's park built in one place;
//! * deterministic fault-injection plans and reports ([`FaultPlan`],
//!   [`FaultReport`]) scheduled on the virtual clock;
//! * SEDA-like serial stages ([`Stage`]) with event-lateness accounting;
//! * memory accounting ([`MemoryModel`]) for the §6/§8 colocation
//!   bottlenecks;
//! * engine counters and time series ([`EngineCounters`], [`TimeSeries`]).
//!
//! Everything is deterministic: same seed, same run, bit for bit.
//!
//! # Examples
//!
//! ```
//! use scalecheck_sim::{Engine, SimDuration, SimTime};
//!
//! // Every event is a registered handler plus a `u64` payload: `add`
//! // adds its payload, `add_twice` adds it and schedules an `add` of
//! // the same payload a second later.
//! let mut engine: Engine<u64> = Engine::new(42);
//! let add = engine.register_handler(|count, _, n| *count += n);
//! let add_twice = engine.register_handler(move |count, ctx, n| {
//!     *count += n;
//!     ctx.schedule_handler_after(SimDuration::from_secs(1), add, n);
//! });
//! engine.schedule_handler_at(SimTime::from_secs(1), add_twice, 5);
//! let mut count = 0;
//! let stats = engine.run_to_completion(&mut count);
//! assert_eq!((count, stats.executed), (10, 2));
//! ```

#![forbid(unsafe_code)]

pub mod cpu;
pub mod engine;
pub mod faults;
pub mod memory;
pub mod metrics;
pub mod rng;
pub mod stage;
pub mod tie;
pub mod time;
mod wheel;

pub use cpu::{ps_completions, CpuGrant, CtxSwitchModel, Machine, MachineId, MachinePark, RunMode};
pub use engine::{Ctx, Engine, HandlerId, RunOutcome, RunStats, SchedulerKind, TimerId};
pub use faults::{FaultEvent, FaultPlan, FaultReport, FiredFault};
pub use memory::{MemoryModel, OutOfMemory, MIB};
pub use metrics::{EngineCounters, TimeSeries};
pub use rng::DetRng;
pub use stage::Stage;
pub use tie::{FireRec, ScheduleProbe, TieOrderSpec, TieSwap};
pub use time::{SimDuration, SimTime};
