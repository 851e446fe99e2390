//! Network runtime: wires the 802.11 MAC, PHY/channel models and
//! transport endpoints into a deterministic event-driven simulation.
//!
//! Build a topology with [`NetworkBuilder`], run it with
//! [`Network::run`], and read goodput / contention-window / retry
//! statistics from the returned [`RunMetrics`].

#![warn(missing_docs)]
pub mod builder;
pub mod cell;
pub mod metrics;
pub mod network;
pub mod stats;

pub use builder::NetworkBuilder;
pub use cell::{Cell, TxInterval};
pub use metrics::{FlowMetrics, NodeMetrics, RunMetrics};
pub use network::{
    HookCursor, Network, RunArtifacts, RunHooks, GAUGE_CW, GAUGE_CWND, GAUGE_NAV_REMAINING_US,
    GAUGE_QUEUE_LEN,
};
pub use stats::SimStats;
