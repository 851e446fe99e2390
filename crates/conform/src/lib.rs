//! Live IEEE 802.11 conformance checking for the greedy80211 simulator.
//!
//! The paper's misbehaviors are *protocol deviations*: inflated
//! Duration/NAV fields, ACKs for frames a station never correctly
//! received, spoofed ACKs on behalf of victims. A simulator of such
//! deviations is only trustworthy if its *honest* stations provably obey
//! the rules the greedy ones break — otherwise a "greedy gain" could be
//! an artifact of a buggy DCF. This crate closes that loop:
//!
//! * [`Checker`] — a per-station invariant engine that subscribes to the
//!   `obs` flight-recorder stream (via [`CheckerTap`], an
//!   [`obs::EventTap`]) and enforces the rule catalog in [`RuleId`] on
//!   every recorded run: inter-frame spacings (SIFS/DIFS/EIFS), ACK and
//!   CTS addressing/validity, NAV monotonicity and duration bounds,
//!   binary-exponential-backoff legality, retry-limit accounting,
//!   duplicate-detection consistency, and end-to-end flow conservation.
//! * **Quirk whitelisting** — modeled misbehavior declares itself
//!   through [`mac::policy::quirk`] flags; the checker exempts exactly
//!   the rules a station's policy is *supposed* to break and keeps every
//!   other rule armed. [`Checker::without_whitelist`] drops the
//!   exemptions, so a greedy run must then fail — the test that the
//!   checker actually sees the misbehavior.
//! * [`ConformJob`] — a campaign's request to check its runs and the
//!   shared sink their reports land in. It rides in the network's
//!   per-job context (`net::JobContext`), so campaign sweeps and the CLI
//!   arm checking without threading a parameter through every
//!   experiment signature.
//! * [`golden`] — structural trace normalization and diffing for the
//!   golden-trace corpus (readable fixture files of expected event
//!   sequences).
//!
//! Checking is observation-only: the checker never touches simulation
//! state or RNG streams, so an armed run is bit-identical to an unarmed
//! one. All rule arithmetic is in integer nanoseconds; event payload
//! fields carrying truncated microseconds (airtimes, NAV horizons) are
//! treated as lower bounds with sub-microsecond slop in the direction
//! that can only *miss* a marginal violation, never invent one.
//!
//! # Examples
//!
//! ```
//! use gr_conform::{Checker, NodeProfile, Timing};
//! use obs::ObsEvent;
//! use phy::PhyParams;
//! use sim::SimTime;
//!
//! let timing = Timing::from_params(&PhyParams::dot11b(), 2304);
//! let mut checker = Checker::new(timing, Default::default());
//! // An ACK out of thin air: no reception ended SIFS before it.
//! checker.on_event(&ObsEvent::new(
//!     SimTime::from_micros(500),
//!     3,
//!     &phy::obs::TX_START,
//!     &[1.0, phy::obs::FRAME_ACK as f64, 304.0],
//! ));
//! let report = checker.finish_report();
//! assert_eq!(report.violations.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod golden;
pub mod job;
pub mod rules;
pub mod timing;

pub use checker::{Checker, CheckerTap, NodeProfile, SharedChecker};
pub use job::{ConformJob, ConformSink};
pub use rules::{ConformReport, RuleId, Violation};
pub use timing::Timing;
