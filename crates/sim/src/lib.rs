//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the foundation of the `greedy80211` simulator: it provides
//! virtual time ([`SimTime`], [`SimDuration`]), a cancellable [`Scheduler`]
//! backed by a hierarchical timing wheel (O(1) arm/cancel through
//! generation-stamped [`TimerHandle`]s), allocation-free hot-path storage
//! ([`Arena`], [`Pool`]), seedable deterministic random-number generation
//! ([`SimRng`]) and small statistics primitives used by every layer above
//! (PHY, MAC, transport, experiments).
//!
//! Determinism is a design goal: two runs with the same seed and the same
//! configuration produce identical results. All ties in the event queue are
//! broken by insertion order, and all randomness flows from a single
//! user-provided seed through [`SimRng::fork`] substreams.
//!
//! # Examples
//!
//! ```
//! use gr_sim::{Scheduler, SimDuration};
//!
//! let mut sched: Scheduler<&'static str> = Scheduler::new();
//! sched.arm(SimDuration::from_micros(10), "b");
//! sched.arm(SimDuration::from_micros(5), "a");
//! let (t, ev) = sched.next().unwrap();
//! assert_eq!(ev, "a");
//! assert_eq!(t.as_micros(), 5);
//! ```

#![warn(missing_docs)]
pub mod error;
pub mod pool;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;
mod wheel;

pub use error::SimError;
pub use pool::{Arena, ArenaHandle, Pool, PooledBox, Recycle};
pub use rng::{RunKey, SimRng};
pub use sched::{Scheduler, TimerHandle};
pub use stats::{Counter, Histogram, LogHistogram, Mean, TimeWeightedMean};
pub use time::{SimDuration, SimTime};
