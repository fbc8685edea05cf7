//! PIL memoization for ScaleCheck (§5, Figure 2 steps c–e).
//!
//! The processing illusion replaces an expensive function call with
//! `sleep(t)` plus its memoized output. This crate stores what that
//! needs:
//!
//! * the PIL side of a run ([`Pil`]): execute, record (the memoization
//!   run is Colo with a recorder), or replay a borrowed recording
//!   ([`Replay`]), whose calls sleep instead of occupying a core;
//! * content digests for inputs ([`digest_bytes`], [`Hasher128`]);
//! * the input → (output, duration) database ([`MemoDb`]) with
//!   invocation-order fallback and honest hit/miss statistics;
//! * the recorded message-processing order and its replay enforcement
//!   ([`OrderRecorder`], [`OrderEnforcer`]) — the paper's *order
//!   determinism*;
//! * the §5 state-space arithmetic showing why one recorded run beats
//!   offline input sampling ([`orderspace`]).
//!
//! # Examples
//!
//! ```
//! use scalecheck_memo::{digest_bytes, FnId, MemoDb};
//! use scalecheck_sim::SimDuration;
//!
//! let mut db: MemoDb<String> = MemoDb::new();
//! let input = digest_bytes(b"ring-state-v1");
//! db.record(0, FnId(1), input, "pending-ranges".into(), SimDuration::from_secs(3));
//!
//! // During PIL replay: skip the 3s computation, sleep it instead.
//! let rec = db.lookup(FnId(1), input).unwrap();
//! assert_eq!(rec.duration, SimDuration::from_secs(3));
//! assert_eq!(rec.output, "pending-ranges");
//! ```

#![forbid(unsafe_code)]

pub mod db;
pub mod digest;
pub mod order;
pub mod orderspace;
pub mod pil;

pub use db::{FnId, MemoDb, MemoRecord, MemoStats, PersistError};
pub use digest::{digest_bytes, Digest128, Hasher128};
pub use order::{OrderDecision, OrderEnforcer, OrderRecorder};
pub use orderspace::{
    log10_ordering_space, log10_recorded_space, ordering_space_digits, savings_orders_of_magnitude,
};
pub use pil::{Pil, Replay};
