//! Network runtime: wires the 802.11 MAC, PHY/channel models and
//! transport endpoints into a deterministic event-driven simulation.
//!
//! Build a topology with [`NetworkBuilder`], run it with
//! [`Network::run`], and read goodput / contention-window / retry
//! statistics from the returned [`RunMetrics`]. Campaigns instrument
//! every network a job builds through one per-job [`JobContext`].

#![warn(missing_docs)]
pub mod builder;
pub mod job;
pub mod metrics;
pub mod network;
pub mod stats;

pub use builder::NetworkBuilder;
pub use job::{run_file_stem, CampaignSpec, JobContext, JobGuard};
pub use metrics::{FlowMetrics, NodeMetrics, RunMetrics};
pub use network::{
    HookCursor, Network, RunArtifacts, RunHooks, TxInterval, TxRecord, GAUGE_CW, GAUGE_CWND,
    GAUGE_NAV_REMAINING_US, GAUGE_QUEUE_LEN,
};
pub use stats::SimStats;
