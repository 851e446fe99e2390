//! GRC — Greedy Receiver Countermeasures (paper §VII).
//!
//! Detection and mitigation for the three misbehaviors:
//!
//! * [`NavGuard`] — reconstructs the NAV every overheard frame *should*
//!   carry (exactly, when the preceding frame of the exchange was heard;
//!   bounded by the 1500-byte Internet MTU otherwise) and replaces
//!   inflated values;
//! * [`SpoofGuard`] — per-peer median-RSSI window; ACKs whose RSSI
//!   deviates beyond a threshold (1 dB by default, per the paper's
//!   testbed calibration) are flagged and, with mitigation on, ignored so
//!   the MAC retransmits as it should;
//! * [`CrossLayerDetector`] — the mobile-client fallback: TCP
//!   retransmissions of segments the MAC saw acknowledged indicate
//!   spoofing;
//! * [`FakeAckDetector`] — compares probed application loss against
//!   `MACLoss^(maxRetries+1)`.
//!
//! The MAC-attached guards keep their reports as plain fields: after a
//! run, experiments read them from the station that owns the observer
//! ([`mac::Dcf::grc`], [`GrcObserver::report`]), and run outcomes carry
//! the copies. DOMINO reads the network's transmission log
//! ([`net::TxRecord`]).

mod cross_layer;
mod domino;
mod fake_guard;

pub use cross_layer::CrossLayerDetector;
pub use domino::{DominoDetector, DominoReport};
pub use fake_guard::FakeAckDetector;
// The MAC-attached guards live in `mac::grc` (a station's DCF consults
// its optional GrcObserver directly); re-exported here so experiment code
// keeps its historical `greedy80211::detect` paths.
pub use mac::grc::{
    GrcObserver, GrcSnapshot, GrcTuning, NavGuard, NavGuardReport, SpoofGuard, SpoofGuardConfig,
    SpoofGuardReport, WindowStat, WindowTrack,
};
