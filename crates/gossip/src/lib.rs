//! Cassandra-style gossip and failure detection for ScaleCheck.
//!
//! Implements the protocol stack the paper's flapping bugs live in:
//!
//! * heartbeat/endpoint state with generation + version freshness
//!   ([`state`]);
//! * the three-way SYN/ACK/ACK2 anti-entropy exchange
//!   ([`Gossiper`]), whose bodies name peers in bits and keep each
//!   entry's clocks in one word;
//! * the φ accrual failure detector ([`PhiDetector`]);
//! * per-node conviction state and flap accounting
//!   ([`FailureDetector`]) — a *flap* is one node marking a live peer
//!   down, the metric plotted in the paper's Figure 3.
//!
//! The gossiper is generic over the application payload `A`; the cluster
//! crate instantiates it with ring status (tokens + lifecycle), making
//! topology changes ride the same versioned channel as heartbeats —
//! which is exactly why a slow pending-range calculation starves
//! liveness information and causes flapping.

#![forbid(unsafe_code)]

pub mod failure;
pub mod gossiper;
pub mod phi;
pub mod state;

pub use failure::{FailureDetector, Liveness};
pub use gossiper::{Ack, Ack2, ApplyOutcome, BodySpace, Gossiper, Syn};
pub use phi::PhiDetector;
pub use state::{Delta, Digest, EndpointMap, EndpointState, HeartbeatState, Peer, CLOCK_MAX};
