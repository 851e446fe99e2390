//! # greedy80211 — Greedy Receivers in IEEE 802.11 Hotspots
//!
//! A from-scratch reproduction of *Han & Qiu, "Greedy Receivers in IEEE
//! 802.11 Hotspots: Impacts and Detection" (DSN 2007)*: the three
//! receiver-side MAC misbehaviors the paper identifies, the GRC
//! detection/mitigation scheme, the analytical model of NAV inflation,
//! and a declarative [`Scenario`] API that reconstructs every topology
//! the paper evaluates — all on top of this workspace's own
//! discrete-event 802.11 simulator (`gr-sim`/`gr-phy`/`gr-mac`/`gr-net`).
//!
//! ## The misbehaviors ([`misbehavior`])
//!
//! 1. **NAV inflation** — the receiver inflates the Duration field of its
//!    CTS/ACK (and, under TCP, RTS/DATA) frames, silencing everyone but
//!    its own sender;
//! 2. **ACK spoofing** — the receiver acknowledges *other* receivers'
//!    frames, suppressing MAC retransmissions so losses hit TCP;
//! 3. **fake ACKs** — the receiver acknowledges corrupted frames
//!    addressed to itself, defeating its sender's exponential backoff.
//!
//! ## The countermeasures ([`detect`])
//!
//! NAV reconstruction and clamping, per-peer median-RSSI ACK vetting,
//! cross-layer TCP/MAC correlation, and the probed-loss fake-ACK test.
//!
//! ## Quick start
//!
//! ```
//! use greedy80211::{GreedyConfig, NavInflationConfig, Run, Scenario};
//! use sim::SimDuration;
//!
//! // Two TCP pairs; receiver 1 inflates its CTS NAV by 10 ms.
//! let mut s = Scenario::two_pair_tcp(GreedyConfig::nav_inflation(
//!     NavInflationConfig::cts_only(10_000, 1.0),
//! ));
//! s.duration = SimDuration::from_secs(2);
//! let out = Run::plan(&s).execute()?;
//! // The greedy receiver out-earns the honest one.
//! assert!(out.goodput_mbps(1) > out.goodput_mbps(0));
//! # Ok::<(), sim::SimError>(())
//! ```

#![warn(missing_docs)]
pub mod audit;
pub mod capacity;
pub mod checkpoint;
pub mod corruption;
pub mod detect;
pub mod misbehavior;
pub mod model;
pub mod rssi_study;
pub mod run;
pub mod scenario;
pub mod world;

pub use audit::Pinpoint;
pub use capacity::CapacityModel;
pub use checkpoint::{CampaignSpec, Checkpoint};
pub use corruption::{CorruptionCounts, CorruptionStudy};
pub use detect::{
    CrossLayerDetector, DominoDetector, DominoReport, FakeAckDetector, GrcObserver,
    GrcReportHandles, GrcSnapshot, NavGuard, NavGuardReport, Shared, SpoofGuard, SpoofGuardConfig,
    SpoofGuardReport,
};
pub use misbehavior::{
    Axis, FakeConfig, GreedyConfig, InflatedFrames, NavInflationConfig, PolicySlot, SpoofConfig,
};
pub use model::{nav_inflation_model, SendProbabilities};
pub use rssi_study::{RssiStudy, RssiStudyConfig};
pub use run::{Run, RunOutcome};
pub use scenario::{BuiltScenario, Scenario, TransportKind};
pub use transport::{CcAlgorithm, CcConfig};
pub use world::{CellOutcome, WorldOutcome, WorldRun, WorldSpec};
