//! IEEE 802.11 DCF MAC layer with the paper's station behaviors built in.
//!
//! This crate implements the full distributed coordination function the
//! paper's misbehaviors live in: carrier sensing (physical and virtual),
//! slotted binary-exponential backoff, the RTS/CTS/DATA/ACK exchange,
//! retry limits and duplicate filtering. Each station ([`dcf::Dcf`])
//! consults two pieces of plain data at the protocol points the paper
//! identifies:
//!
//! * its [`PolicySlot`] — what it *sends*: Duration fields (NAV
//!   inflation), ACKs for corrupted frames (fake ACKs), ACKs for other
//!   stations' frames (spoofed ACKs), configured by [`greedy`], plus the
//!   greedy sender's shrunken backoff window;
//! * an optional [`GrcObserver`] — what it *believes*: NAV sanitization
//!   and ACK vetting, the GRC countermeasures of [`grc`].
//!
//! The state machine is passive and event-driven; the `gr-net` crate
//! supplies the medium and event loop.

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
pub use grc::{FrameMeta, GrcObserver, GrcReportHandles, GrcSnapshot, GrcTuning};
pub use greedy::GreedyConfig;
pub use nav::Nav;
pub use policy::PolicySlot;
