//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the foundation of the `greedy80211` simulator: it provides
//! virtual time ([`SimTime`], [`SimDuration`]), a cancellable [`Scheduler`]
//! backed by an indexed binary heap (arm and cancel in O(log pending)
//! through generation-stamped [`TimerHandle`]s) beside a time-ordered lane
//! for periodic source ticks, allocation-free hot-path
//! storage ([`Arena`]), seedable deterministic random-number
//! generation ([`SimRng`]) and small statistics primitives used by every
//! layer above (PHY, MAC, transport, experiments).
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
pub mod arena;
pub mod error;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use arena::{Arena, ArenaHandle};
pub use error::SimError;
pub use rng::{NormalDraw, RunKey, SimRng};
pub use sched::{Due, Scheduler, TimerHandle};
pub use stats::{Counter, Histogram, LogHistogram, Mean, TimeWeightedMean};
pub use time::{SimDuration, SimTime};
