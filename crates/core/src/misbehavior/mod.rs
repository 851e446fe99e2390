//! The three greedy-receiver misbehaviors (paper §IV).
//!
//! The configurations live in [`mac::greedy`] — they are MAC-layer
//! behaviors a station runs as its [`mac::PolicySlot`] — and are
//! re-exported here, with the slot itself, so experiment code keeps its
//! historical `greedy80211::misbehavior` paths.

pub mod intensity;

pub use intensity::Axis;
pub use mac::greedy::{FakeConfig, GreedyConfig, InflatedFrames, NavInflationConfig, SpoofConfig};
pub use mac::PolicySlot;
