//! IEEE 802.11a/b physical layer and channel models.
//!
//! This crate provides everything the MAC and the network runtime need to
//! know about the radio:
//!
//! * [`params`] — per-standard timing constants (slot, SIFS, DIFS, CWmin…)
//!   and PHY rates for 802.11b (DSSS, 11 Mb/s) and 802.11a (OFDM, 6 Mb/s),
//!   the two configurations evaluated in the paper;
//! * [`airtime`] — exact frame transmission durations, including PLCP
//!   preamble/header overhead and OFDM symbol rounding;
//! * [`position`] / [`channel`] — node placement and ns-2-style threshold
//!   propagation (communication range vs. carrier-sense range), plus a
//!   log-distance RSSI model;
//! * [`error_model`] — ns-2 `ErrorModel` equivalent with bit / byte /
//!   packet error units (the paper's BER→FER table is a per-byte process);
//! * [`capture`] — the capture effect used both by the ACK-spoofing
//!   misbehavior and by its RSSI-based detection;
//! * [`rssi`] — RSSI observation model with shadowing jitter, calibrated to
//!   the paper's testbed measurement (≈95 % of samples within 1 dB of the
//!   link median).

#![warn(missing_docs)]
pub mod airtime;
pub mod capture;
pub mod channel;
pub mod error_model;
pub mod obs;
pub mod params;
pub mod position;
pub mod rssi;
pub mod sampler;

pub use airtime::tx_duration;
pub use capture::CaptureModel;
pub use channel::{ChannelIndex, ChannelModel};
pub use error_model::{ErrorModel, ErrorUnit};
pub use params::{PhyParams, PhyStandard};
pub use position::Position;
pub use rssi::{Rssi, RssiModel};
pub use sampler::{AirtimeTable, FerTable, LinkTable};
