//! Simulated network substrate for the ScaleCheck reproduction.
//!
//! Provides the message fabric the cluster gossips over: latency
//! distributions ([`LatencyModel`]), per-link FIFO delivery, and drop,
//! delay, duplicate and partition fault injection ([`Network`]).
//!
//! # Examples
//!
//! ```
//! use scalecheck_net::{Addr, LatencyModel, Network, NetworkConfig};
//! use scalecheck_sim::{DetRng, SimDuration, SimTime};
//!
//! let mut net = Network::new(NetworkConfig {
//!     latency: LatencyModel::Constant(SimDuration::from_millis(1)),
//!     drop_probability: 0.0,
//! });
//! let mut rng = DetRng::new(42);
//! let delivery = net.offer(SimTime::ZERO, &mut rng, Addr(0), Addr(1)).unwrap();
//! assert_eq!(delivery.deliver_at, SimTime::from_millis(1));
//! ```

#![forbid(unsafe_code)]

pub mod latency;
pub mod network;

pub use latency::LatencyModel;
pub use network::{Addr, Delivery, DropReason, Network, NetworkConfig};
