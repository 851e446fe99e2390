//! The combined GRC observer: NAV sanitization + ACK vetting in one place
//! (paper Fig. 20 — every node can run the scheme; the more nodes run
//! it, the higher the detection likelihood).

mod nav_guard;
mod spoof_guard;
mod window;

pub use nav_guard::{NavGuard, NavGuardHandle, NavGuardReport};
pub use obs::Shared;
pub use spoof_guard::{SpoofGuard, SpoofGuardConfig, SpoofGuardHandle, SpoofGuardReport};
pub use window::{WindowStat, WindowTrack};

use crate::{Frame, Msdu, NodeId};
use phy::{PhyParams, Rssi};
use sim::{SimDuration, SimTime};

/// Per-frame reception metadata passed to the GRC observer.
#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    /// Received signal strength of this frame.
    pub rssi: Rssi,
    /// Reception-complete time.
    pub now: SimTime,
}

/// Detection-science tuning of a [`GrcObserver`]: explicit thresholds
/// plus optional per-window statistic tracking. The defaults reproduce
/// [`GrcObserver::new`] exactly.
#[derive(Debug, Clone)]
pub struct GrcTuning {
    /// NAV-guard detection tolerance in µs.
    pub nav_tolerance_us: u32,
    /// Spoof-guard RSSI deviation threshold in dB.
    pub rssi_threshold_db: f64,
    /// MTU assumption behind the NAV guard's fallback bounds.
    pub nav_mtu: usize,
    /// Track per-window decision statistics at this width (see
    /// [`NavGuardReport::windows`] / [`SpoofGuardReport::windows`]).
    pub windows: Option<SimDuration>,
}

impl Default for GrcTuning {
    fn default() -> Self {
        GrcTuning {
            nav_tolerance_us: 2,
            rssi_threshold_db: 1.0,
            nav_mtu: 1500,
            windows: None,
        }
    }
}

/// Handles for reading a [`GrcObserver`]'s reports after a run.
#[derive(Debug, Clone)]
pub struct GrcReportHandles {
    /// NAV-inflation detections and corrections.
    pub nav: NavGuardHandle,
    /// Spoofed-ACK detections and rejections.
    pub spoof: SpoofGuardHandle,
}

/// Plain-data copy of both GRC reports — what a run outcome carries back
/// to the aggregating thread once the run (and its live handles) is done.
#[derive(Debug, Clone, Default)]
pub struct GrcSnapshot {
    /// NAV-inflation detections and corrections.
    pub nav: NavGuardReport,
    /// Spoofed-ACK detections and rejections.
    pub spoof: SpoofGuardReport,
}

impl GrcReportHandles {
    /// Detached copies of the current report contents.
    pub fn snapshot(&self) -> GrcSnapshot {
        GrcSnapshot {
            nav: self.nav.snapshot(),
            spoof: self.spoof.snapshot(),
        }
    }
}

/// Observer stacking the NAV guard and the spoof guard.
#[derive(Debug)]
pub struct GrcObserver {
    nav: NavGuard,
    spoof: SpoofGuard,
}

impl GrcObserver {
    /// Creates the full GRC observer for one station.
    pub fn new(params: PhyParams, mitigate: bool) -> (Self, GrcReportHandles) {
        Self::with_nav_mtu(params, mitigate, 1500)
    }

    /// Like [`new`](Self::new) with an explicit MTU assumption for the
    /// NAV guard's fallback bounds.
    pub fn with_nav_mtu(params: PhyParams, mitigate: bool, mtu: usize) -> (Self, GrcReportHandles) {
        Self::tuned(
            params,
            mitigate,
            GrcTuning {
                nav_mtu: mtu,
                ..GrcTuning::default()
            },
        )
    }

    /// Like [`new`](Self::new) with explicit thresholds and optional
    /// per-window statistic tracking.
    pub fn tuned(params: PhyParams, mitigate: bool, tuning: GrcTuning) -> (Self, GrcReportHandles) {
        let (nav, nav_handle) = NavGuard::new(params, mitigate);
        let mut nav = nav
            .with_mtu(tuning.nav_mtu)
            .with_tolerance(tuning.nav_tolerance_us);
        let spoof_cfg = SpoofGuardConfig {
            rssi_threshold_db: tuning.rssi_threshold_db,
            mitigate,
            ..SpoofGuardConfig::default()
        };
        let (spoof, spoof_handle) = SpoofGuard::new(spoof_cfg);
        let mut spoof = spoof;
        if let Some(width) = tuning.windows {
            nav = nav.with_windows(width);
            spoof = spoof.with_windows(width);
        }
        (
            GrcObserver { nav, spoof },
            GrcReportHandles {
                nav: nav_handle,
                spoof: spoof_handle,
            },
        )
    }

    /// Called for every correctly received or overheard frame, *before*
    /// the NAV update. Returns the Duration value (µs) the station should
    /// honor; in mitigation mode the NAV guard clamps inflated values.
    pub fn on_frame<M: Msdu>(&mut self, frame: &Frame<M>, meta: &FrameMeta) -> u32 {
        // The spoof guard only learns (never rewrites durations).
        self.spoof.on_frame(frame, meta);
        self.nav.on_frame(frame, meta)
    }

    /// Called at a transmitter when a MAC ACK arrives for its outstanding
    /// data frame (which was sent to `expected_from`). Returning `false`
    /// makes the MAC ignore the ACK — the paper's spoofed-ACK recovery.
    #[inline]
    pub fn accept_ack(&mut self, meta: &FrameMeta, expected_from: NodeId) -> bool {
        self.spoof.accept_ack(meta, expected_from)
    }

    /// Serializes both guards' detector state into a station snapshot.
    pub fn save_state(&self, w: &mut snap::Enc) {
        self.nav.save_state(w);
        self.spoof.save_state(w);
    }

    /// Restores state written by [`GrcObserver::save_state`].
    pub fn load_state(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        self.nav.load_state(r)?;
        self.spoof.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combines_both_guards() {
        let (mut grc, handles) = GrcObserver::new(PhyParams::dot11b(), true);
        let meta = FrameMeta {
            rssi: Rssi::fixed(-50.0),
            now: SimTime::ZERO,
        };
        // Inflated ACK NAV → clamped by the NAV guard.
        let inflated: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 30_000);
        assert_eq!(grc.on_frame(&inflated, &meta), 0);
        assert_eq!(handles.nav.borrow().total_detections(), 1);
        // Teach the spoof guard, then reject an anomalous ACK.
        for _ in 0..10 {
            let f: Frame<usize> = Frame::data(NodeId(1), NodeId(0), 314, 1, 60);
            grc.on_frame(&f, &meta);
        }
        let hot = FrameMeta {
            rssi: Rssi::fixed(-30.0),
            now: SimTime::ZERO,
        };
        assert!(!grc.accept_ack(&hot, NodeId(1)));
        assert_eq!(handles.spoof.borrow().rejected, 1);
    }
}
