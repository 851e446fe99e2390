//! IEEE 802.11 DCF MAC layer with pluggable receiver behavior.
//!
//! This crate implements the full distributed coordination function the
//! paper's misbehaviors live in: carrier sensing (physical and virtual),
//! slotted binary-exponential backoff, the RTS/CTS/DATA/ACK exchange,
//! retry limits and duplicate filtering. Two extension points carry the
//! paper's misbehaviors and countermeasures:
//!
//! * [`policy::StationPolicy`] — what a station *sends*: Duration fields
//!   (NAV inflation), ACKs for corrupted frames (fake ACKs), ACKs for
//!   other stations' frames (spoofed ACKs) — implemented in [`greedy`];
//! * [`policy::MacObserver`] — what a station *believes*: NAV sanitization
//!   and ACK vetting, where the GRC countermeasures hook in — implemented
//!   in [`grc`].
//!
//! Both hook sets are closed, so stations dispatch through the
//! [`policy::PolicySlot`]/[`policy::ObserverSlot`] enums rather than boxed
//! trait objects.
//!
//! The state machine ([`dcf::Dcf`]) is passive and event-driven; the
//! `gr-net` crate supplies the medium and event loop.

#![warn(missing_docs)]
pub mod arena;
pub mod arf;
pub mod backoff;
pub mod counters;
pub mod dcf;
pub mod dedup;
pub mod frame;
pub mod grc;
pub mod greedy;
pub mod nav;
pub mod obs;
pub mod policy;

pub use arena::{FrameArena, FrameId, TxRecord};
pub use arf::{Arf, ArfConfig};
pub use counters::MacCounters;
pub use dcf::{CorruptionCause, Dcf, DcfConfig, DropReason, MacAction, RxEvent, TimerKind};
pub use frame::{Frame, FrameKind, Msdu, NavCalculator, NodeId, MAX_NAV_US};
pub use grc::{GrcObserver, GrcReportHandles, GrcSnapshot, GrcTuning};
pub use greedy::{GreedyConfig, GreedyPolicy, GreedySenderPolicy};
pub use nav::Nav;
pub use policy::{
    FrameMeta, MacObserver, NoopObserver, NormalPolicy, ObserverSlot, PolicySlot, StationPolicy,
};
