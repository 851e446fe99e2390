//! Detecting and recovering from spoofed ACKs (paper §VII-B).
//!
//! For stationary stations, per-packet RSSI varies less than ~1 dB around
//! the link median (paper Fig. 21). The sender therefore keeps a sliding
//! window of RSSI observations from each receiver — learned from frames
//! an attacker cannot usefully forge (the receiver's CTS and data/TCP-ACK
//! frames) — and vets every MAC ACK against the window median:
//!
//! * `|RSSI − median| > threshold` → spoofed ACK detected;
//! * with mitigation enabled the ACK is ignored, so the ACK timeout fires
//!   and the MAC retransmits the data as it should have — this is safe
//!   because, per the capture argument, if the true receiver *had*
//!   ACKed, its (much closer to median) ACK would have been the one
//!   received, and duplicate filtering absorbs any redundant
//!   retransmission.

use std::collections::{HashMap, VecDeque};

use crate::{Frame, FrameKind, FrameMeta, MacObserver, Msdu, NodeId};

use super::window::WindowTrack;
use super::Shared;
use sim::SimDuration;

/// Tuning of the [`SpoofGuard`].
#[derive(Debug, Clone)]
pub struct SpoofGuardConfig {
    /// Deviation from the window median, in dB, beyond which an ACK is
    /// flagged. The paper's testbed study picks 1 dB (Fig. 22).
    pub rssi_threshold_db: f64,
    /// Sliding-window length per peer.
    pub window: usize,
    /// Minimum observations before vetting begins.
    pub min_samples: usize,
    /// Whether flagged ACKs are ignored (recovery) or merely counted.
    pub mitigate: bool,
}

impl Default for SpoofGuardConfig {
    fn default() -> Self {
        SpoofGuardConfig {
            rssi_threshold_db: 1.0,
            window: 50,
            min_samples: 5,
            mitigate: true,
        }
    }
}

/// Detection statistics shared out of the observer.
#[derive(Debug, Clone, Default)]
pub struct SpoofGuardReport {
    /// ACKs flagged as spoofed.
    pub flagged: u64,
    /// ACKs ignored (mitigation events).
    pub rejected: u64,
    /// ACKs vetted and accepted.
    pub accepted: u64,
    /// ACKs accepted without vetting (insufficient baseline).
    pub unvetted: u64,
    /// Per-window RSSI deviation statistics (`|median − rssi|` in dB,
    /// recorded for every vetted ACK). `None` unless the guard was built
    /// with [`SpoofGuard::with_windows`]; detection-science sweeps apply
    /// threshold grids to these offline.
    pub windows: Option<WindowTrack>,
}

/// Shared handle to a [`SpoofGuardReport`] (single-threaded, like the run
/// that owns it).
pub type SpoofGuardHandle = Shared<SpoofGuardReport>;

/// The sender-side ACK-vetting observer.
#[derive(Debug)]
pub struct SpoofGuard {
    cfg: SpoofGuardConfig,
    windowed: bool,
    history: HashMap<u16, VecDeque<f64>>,
    report: SpoofGuardHandle,
}

impl SpoofGuard {
    /// Creates a guard with the given configuration.
    pub fn new(cfg: SpoofGuardConfig) -> (Self, SpoofGuardHandle) {
        let report: SpoofGuardHandle = Shared::new(SpoofGuardReport::default());
        (
            SpoofGuard {
                cfg,
                windowed: false,
                history: HashMap::new(),
                report: report.clone(),
            },
            report,
        )
    }

    /// Enables per-window deviation tracking with the given window width
    /// (see [`SpoofGuardReport::windows`]). Off by default; the enabled
    /// path never alters detection or mitigation behavior.
    pub fn with_windows(mut self, width: SimDuration) -> Self {
        self.report.borrow_mut().windows = Some(WindowTrack::new(width));
        self.windowed = true;
        self
    }

    fn learn(&mut self, peer: NodeId, rssi: f64) {
        let window = self.cfg.window;
        let h = self.history.entry(peer.0).or_default();
        h.push_back(rssi);
        if h.len() > window {
            h.pop_front();
        }
    }

    fn median_for(&self, peer: NodeId) -> Option<f64> {
        let h = self.history.get(&peer.0)?;
        if h.len() < self.cfg.min_samples {
            return None;
        }
        let values: Vec<f64> = h.iter().copied().collect();
        sim::stats::median(&values)
    }
}

impl SpoofGuard {
    /// Serializes the runtime-mutable detector state: the per-peer RSSI
    /// windows (sorted by peer for a canonical encoding) and the shared
    /// report. Configuration is rebuilt by the owner.
    pub fn save_state(&self, w: &mut snap::Enc) {
        use snap::SnapValue as _;
        let mut peers: Vec<_> = self.history.iter().collect();
        peers.sort_unstable_by_key(|(&peer, _)| peer);
        w.usize(peers.len());
        for (&peer, window) in peers {
            w.u16(peer);
            w.usize(window.len());
            for &rssi in window {
                w.f64(rssi);
            }
        }
        let report = self.report.borrow();
        w.u64(report.flagged);
        w.u64(report.rejected);
        w.u64(report.accepted);
        w.u64(report.unvetted);
        report.windows.save(w);
    }

    /// Restores state written by [`SpoofGuard::save_state`], writing the
    /// report through the shared handle so external readers see it.
    ///
    /// # Errors
    ///
    /// [`snap::SnapError::Corrupt`] on truncated or oversized input.
    pub fn load_state(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        use snap::SnapValue as _;
        let n = r.usize()?;
        if n > r.remaining() {
            return Err(snap::SnapError::Corrupt(format!(
                "spoof guard peer count {n} exceeds input"
            )));
        }
        self.history.clear();
        for _ in 0..n {
            let peer = r.u16()?;
            let len = r.usize()?;
            if len > r.remaining() {
                return Err(snap::SnapError::Corrupt(format!(
                    "spoof guard window length {len} exceeds input"
                )));
            }
            let mut window = VecDeque::with_capacity(len);
            for _ in 0..len {
                window.push_back(r.f64()?);
            }
            self.history.insert(peer, window);
        }
        let mut report = self.report.borrow_mut();
        report.flagged = r.u64()?;
        report.rejected = r.u64()?;
        report.accepted = r.u64()?;
        report.unvetted = r.u64()?;
        report.windows = Option::load(r)?;
        Ok(())
    }
}

impl<M: Msdu> MacObserver<M> for SpoofGuard {
    fn on_frame(&mut self, frame: &Frame<M>, meta: &FrameMeta, _addressed_to_me: bool) -> u32 {
        // Learn the peer's RSSI fingerprint from frames whose origin the
        // protocol corroborates: CTS responses and data frames. MAC ACKs
        // are exactly what the attacker forges, so they never teach.
        if matches!(frame.kind, FrameKind::Cts | FrameKind::Data) {
            self.learn(frame.src, meta.rssi_dbm);
        }
        frame.duration_us
    }

    fn accept_ack(&mut self, _ack: &Frame<M>, meta: &FrameMeta, expected_from: NodeId) -> bool {
        let Some(median) = self.median_for(expected_from) else {
            self.report.borrow_mut().unvetted += 1;
            return true;
        };
        let deviation = (median - meta.rssi_dbm).abs();
        if self.windowed {
            if let Some(track) = &mut self.report.borrow_mut().windows {
                track.push(meta.now, deviation);
            }
        }
        if deviation > self.cfg.rssi_threshold_db {
            let mut r = self.report.borrow_mut();
            r.flagged += 1;
            if self.cfg.mitigate {
                r.rejected += 1;
                return false;
            }
            true
        } else {
            self.report.borrow_mut().accepted += 1;
            true
        }
    }

    fn snap_save(&self, w: &mut snap::Enc) {
        self.save_state(w);
    }

    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        self.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimTime;

    fn meta(rssi: f64) -> FrameMeta {
        FrameMeta {
            rssi_dbm: rssi,
            now: SimTime::ZERO,
        }
    }

    fn teach(g: &mut SpoofGuard, peer: u16, rssi: f64, n: usize) {
        for _ in 0..n {
            let f: Frame<usize> = Frame::data(NodeId(peer), NodeId(0), 314, 1, 60);
            MacObserver::<usize>::on_frame(g, &f, &meta(rssi), true);
        }
    }

    #[test]
    fn accepts_acks_near_median() {
        let (mut g, report) = SpoofGuard::new(SpoofGuardConfig::default());
        teach(&mut g, 1, -50.0, 10);
        let ack: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 0);
        assert!(g.accept_ack(&ack, &meta(-50.4), NodeId(1)));
        assert_eq!(report.borrow().accepted, 1);
        assert_eq!(report.borrow().flagged, 0);
    }

    #[test]
    fn rejects_acks_far_from_median() {
        let (mut g, report) = SpoofGuard::new(SpoofGuardConfig::default());
        teach(&mut g, 1, -50.0, 10);
        // A spoofer 10 m closer is many dB hotter.
        let spoofed: Frame<usize> = Frame::spoofed_ack(NodeId(9), NodeId(1), NodeId(0));
        assert!(!g.accept_ack(&spoofed, &meta(-35.0), NodeId(1)));
        assert_eq!(report.borrow().flagged, 1);
        assert_eq!(report.borrow().rejected, 1);
    }

    #[test]
    fn detection_only_mode_accepts_but_counts() {
        let cfg = SpoofGuardConfig {
            mitigate: false,
            ..SpoofGuardConfig::default()
        };
        let (mut g, report) = SpoofGuard::new(cfg);
        teach(&mut g, 1, -50.0, 10);
        let spoofed: Frame<usize> = Frame::spoofed_ack(NodeId(9), NodeId(1), NodeId(0));
        assert!(g.accept_ack(&spoofed, &meta(-35.0), NodeId(1)));
        assert_eq!(report.borrow().flagged, 1);
        assert_eq!(report.borrow().rejected, 0);
    }

    #[test]
    fn no_baseline_means_no_vetting() {
        let (mut g, report) = SpoofGuard::new(SpoofGuardConfig::default());
        let ack: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 0);
        assert!(g.accept_ack(&ack, &meta(-90.0), NodeId(1)));
        assert_eq!(report.borrow().unvetted, 1);
    }

    #[test]
    fn acks_never_teach_the_baseline() {
        let (mut g, _report) = SpoofGuard::new(SpoofGuardConfig::default());
        // An attacker floods forged ACKs claiming to be node 1.
        for _ in 0..20 {
            let forged: Frame<usize> = Frame::spoofed_ack(NodeId(9), NodeId(1), NodeId(0));
            MacObserver::<usize>::on_frame(&mut g, &forged, &meta(-35.0), true);
        }
        // Baseline still empty → unvetted, not poisoned.
        assert_eq!(g.median_for(NodeId(1)), None);
    }

    #[test]
    fn sliding_window_tracks_slow_change() {
        let cfg = SpoofGuardConfig {
            window: 10,
            ..SpoofGuardConfig::default()
        };
        let (mut g, _r) = SpoofGuard::new(cfg);
        teach(&mut g, 1, -50.0, 10);
        // Peer drifts to −47 dBm; window follows after enough frames.
        teach(&mut g, 1, -47.0, 10);
        assert_eq!(g.median_for(NodeId(1)), Some(-47.0));
    }
}
