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

use crate::{Frame, FrameKind, FrameMeta, Msdu, NodeId};

use super::window::WindowTrack;
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

/// The spoof guard's detection statistics, read after a run through
/// [`SpoofGuard::report`].
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

/// The sender-side ACK-vetting observer.
#[derive(Debug)]
pub struct SpoofGuard {
    cfg: SpoofGuardConfig,
    history: HashMap<u16, RssiWindow>,
    report: SpoofGuardReport,
}

/// One peer's sliding RSSI window: the samples in arrival order, and
/// the same samples kept sorted so the median is read without sorting.
#[derive(Debug, Default)]
struct RssiWindow {
    fifo: VecDeque<f64>,
    /// `fifo` in ascending order, equal values in arrival order — the
    /// order a stable sort of `fifo` gives.
    sorted: Vec<f64>,
}

impl RssiWindow {
    /// Appends `rssi`, evicting the oldest sample beyond `cap`.
    ///
    /// # Panics
    ///
    /// Panics on a NaN sample, which has no median.
    fn push(&mut self, rssi: f64, cap: usize) {
        assert!(!rssi.is_nan(), "median over NaN");
        self.fifo.push_back(rssi);
        let at = self.sorted.partition_point(|&v| v <= rssi);
        self.sorted.insert(at, rssi);
        if self.fifo.len() > cap {
            let old = self.fifo.pop_front().expect("window holds the new sample");
            // The oldest of the samples equal to `old` sits first among them.
            let at = self.sorted.partition_point(|&v| v < old);
            self.sorted.remove(at);
        }
    }

    /// The median of the window (`None` when empty), bit-identical to
    /// [`sim::stats::median`] of `fifo`.
    fn median(&self) -> Option<f64> {
        let (v, n) = (&self.sorted, self.sorted.len());
        if n == 0 {
            return None;
        }
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        })
    }
}

impl SpoofGuard {
    /// Creates a guard with the given configuration.
    pub fn new(cfg: SpoofGuardConfig) -> Self {
        SpoofGuard {
            cfg,
            history: HashMap::new(),
            report: SpoofGuardReport::default(),
        }
    }

    /// Vetting outcomes so far.
    pub fn report(&self) -> &SpoofGuardReport {
        &self.report
    }

    /// Enables per-window deviation tracking with the given window width
    /// (see [`SpoofGuardReport::windows`]). Off by default; the enabled
    /// path never alters detection or mitigation behavior.
    pub fn with_windows(mut self, width: SimDuration) -> Self {
        self.report.windows = Some(WindowTrack::new(width));
        self
    }

    /// Adds an RSSI sample to `peer`'s window.
    ///
    /// # Panics
    ///
    /// Panics on a NaN `rssi`.
    fn learn(&mut self, peer: NodeId, rssi: f64) {
        let window = self.cfg.window;
        self.history.entry(peer.0).or_default().push(rssi, window);
    }

    fn median_for(&self, peer: NodeId) -> Option<f64> {
        let h = self.history.get(&peer.0)?;
        if h.fifo.len() < self.cfg.min_samples {
            return None;
        }
        h.median()
    }
}

impl SpoofGuard {
    /// Serializes the runtime-mutable detector state: the per-peer RSSI
    /// windows (sorted by peer for a canonical encoding) and the report.
    /// Configuration is rebuilt by the owner.
    pub fn save_state(&self, w: &mut snap::Enc) {
        use snap::SnapValue as _;
        let mut peers: Vec<_> = self.history.iter().collect();
        peers.sort_unstable_by_key(|(&peer, _)| peer);
        w.usize(peers.len());
        for (&peer, window) in peers {
            w.u16(peer);
            w.usize(window.fifo.len());
            for &rssi in &window.fifo {
                w.f64(rssi);
            }
        }
        let report = &self.report;
        w.u64(report.flagged);
        w.u64(report.rejected);
        w.u64(report.accepted);
        w.u64(report.unvetted);
        report.windows.save(w);
    }

    /// Restores state written by [`SpoofGuard::save_state`]. Each window's
    /// sorted mirror is rebuilt from its samples.
    ///
    /// # Errors
    ///
    /// [`snap::SnapError::Corrupt`] on truncated or oversized input, or a
    /// NaN sample.
    pub fn load_state(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        use snap::SnapValue as _;
        let n = r.count("spoof guard peer count")?;
        self.history.clear();
        for _ in 0..n {
            let peer = r.u16()?;
            let len = r.count("spoof guard window length")?;
            let mut window = RssiWindow::default();
            for _ in 0..len {
                let rssi = r.f64()?;
                if rssi.is_nan() {
                    return Err(snap::SnapError::Corrupt(format!(
                        "spoof guard window of peer {peer} holds NaN"
                    )));
                }
                window.push(rssi, len);
            }
            self.history.insert(peer, window);
        }
        let report = &mut self.report;
        report.flagged = r.u64()?;
        report.rejected = r.u64()?;
        report.accepted = r.u64()?;
        report.unvetted = r.u64()?;
        report.windows = Option::load(r)?;
        Ok(())
    }

    /// Learns the peer's RSSI fingerprint from frames whose origin the
    /// protocol corroborates: CTS responses and data frames. MAC ACKs
    /// are exactly what the attacker forges, so they never teach.
    pub fn on_frame<M: Msdu>(&mut self, frame: &Frame<M>, meta: &FrameMeta) {
        if matches!(frame.kind, FrameKind::Cts | FrameKind::Data) {
            self.learn(frame.src, meta.rssi.dbm());
        }
    }

    /// Vets a MAC ACK that claims to come from `expected_from` against
    /// that peer's RSSI median; `false` (mitigation only) rejects it.
    #[inline]
    pub fn accept_ack(&mut self, meta: &FrameMeta, expected_from: NodeId) -> bool {
        let Some(median) = self.median_for(expected_from) else {
            self.report.unvetted += 1;
            return true;
        };
        let deviation = (median - meta.rssi.dbm()).abs();
        let r = &mut self.report;
        if let Some(track) = &mut r.windows {
            track.push(meta.now, deviation);
        }
        if deviation > self.cfg.rssi_threshold_db {
            r.flagged += 1;
            if self.cfg.mitigate {
                r.rejected += 1;
                return false;
            }
            true
        } else {
            r.accepted += 1;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phy::Rssi;
    use sim::SimTime;

    fn meta(rssi: f64) -> FrameMeta {
        FrameMeta {
            rssi: Rssi::fixed(rssi),
            now: SimTime::ZERO,
        }
    }

    fn teach(g: &mut SpoofGuard, peer: u16, rssi: f64, n: usize) {
        for _ in 0..n {
            let f: Frame<usize> = Frame::data(NodeId(peer), NodeId(0), 314, 1, 60);
            g.on_frame(&f, &meta(rssi));
        }
    }

    #[test]
    fn accepts_acks_near_median() {
        let mut g = SpoofGuard::new(SpoofGuardConfig::default());
        teach(&mut g, 1, -50.0, 10);
        assert!(g.accept_ack(&meta(-50.4), NodeId(1)));
        assert_eq!(g.report().accepted, 1);
        assert_eq!(g.report().flagged, 0);
    }

    #[test]
    fn rejects_acks_far_from_median() {
        let mut g = SpoofGuard::new(SpoofGuardConfig::default());
        teach(&mut g, 1, -50.0, 10);
        // A spoofer 10 m closer is many dB hotter.
        assert!(!g.accept_ack(&meta(-35.0), NodeId(1)));
        assert_eq!(g.report().flagged, 1);
        assert_eq!(g.report().rejected, 1);
    }

    #[test]
    fn detection_only_mode_accepts_but_counts() {
        let cfg = SpoofGuardConfig {
            mitigate: false,
            ..SpoofGuardConfig::default()
        };
        let mut g = SpoofGuard::new(cfg);
        teach(&mut g, 1, -50.0, 10);
        assert!(g.accept_ack(&meta(-35.0), NodeId(1)));
        assert_eq!(g.report().flagged, 1);
        assert_eq!(g.report().rejected, 0);
    }

    #[test]
    fn no_baseline_means_no_vetting() {
        let mut g = SpoofGuard::new(SpoofGuardConfig::default());
        assert!(g.accept_ack(&meta(-90.0), NodeId(1)));
        assert_eq!(g.report().unvetted, 1);
    }

    #[test]
    fn acks_never_teach_the_baseline() {
        let mut g = SpoofGuard::new(SpoofGuardConfig::default());
        // An attacker floods forged ACKs claiming to be node 1.
        for _ in 0..20 {
            let forged: Frame<usize> = Frame::spoofed_ack(NodeId(9), NodeId(1), NodeId(0));
            g.on_frame(&forged, &meta(-35.0));
        }
        // Baseline still empty → unvetted, not poisoned.
        assert_eq!(g.median_for(NodeId(1)), None);
    }

    /// RSSI samples with many repeats, both signed zeros among them.
    const LEVELS: [f64; 8] = [-62.0, -50.5, -50.0, -50.0, -49.75, -35.0, 0.0, -0.0];

    fn config(window: usize, min_samples: usize) -> SpoofGuardConfig {
        SpoofGuardConfig {
            window,
            min_samples: [1, 2, 5, 10][min_samples],
            ..SpoofGuardConfig::default()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// The sorted mirror's median is, bit for bit, the median of the
        /// FIFO window after every sample.
        #[test]
        fn median_matches_a_sort_of_the_window(
            levels in proptest::collection::vec(0usize..8, 1..200),
            window in 1usize..61,
            min_samples in 0usize..4,
        ) {
            let mut g = SpoofGuard::new(config(window, min_samples));
            let min = g.cfg.min_samples;
            for (k, &l) in levels.iter().enumerate() {
                g.learn(NodeId(1), LEVELS[l]);
                let h = &g.history[&1].fifo;
                assert_eq!(h.len(), (k + 1).min(window));
                let fifo: Vec<f64> = h.iter().copied().collect();
                let want = if fifo.len() < min {
                    None
                } else {
                    sim::stats::median(&fifo)
                };
                assert_eq!(
                    g.median_for(NodeId(1)).map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{fifo:?}"
                );
            }
        }

        /// A guard saved and restored mid-stream vets every later ACK as
        /// the guard that never stopped does.
        #[test]
        fn restored_guard_vets_like_the_original(
            stream in proptest::collection::vec((proptest::prelude::any::<bool>(), 0usize..8, 0u16..3), 1..160),
            cut in 0usize..160,
            window in 1usize..61,
            min_samples in 0usize..4,
        ) {
            let step = |g: &mut SpoofGuard, &(ack, l, peer): &(bool, usize, u16)| {
                if ack {
                    g.accept_ack(&meta(LEVELS[l]), NodeId(peer))
                } else {
                    let f: Frame<usize> = Frame::data(NodeId(peer), NodeId(0), 314, 1, 60);
                    g.on_frame(&f, &meta(LEVELS[l]));
                    true
                }
            };
            let cut = cut.min(stream.len());
            let mut straight = SpoofGuard::new(config(window, min_samples));
            let mut first = SpoofGuard::new(config(window, min_samples));
            for ev in &stream[..cut] {
                step(&mut straight, ev);
                step(&mut first, ev);
            }
            let mut w = snap::Enc::new();
            first.save_state(&mut w);
            let mut resumed = SpoofGuard::new(config(window, min_samples));
            resumed.load_state(&mut snap::Dec::new(w.bytes())).unwrap();
            for ev in &stream[cut..] {
                assert_eq!(step(&mut straight, ev), step(&mut resumed, ev));
            }
            let counts = |g: &SpoofGuard| {
                let r = g.report();
                (r.flagged, r.rejected, r.accepted, r.unvetted)
            };
            assert_eq!(counts(&straight), counts(&resumed));
        }
    }

    #[test]
    #[should_panic(expected = "median over NaN")]
    fn nan_rssi_stops_the_run() {
        let mut g = SpoofGuard::new(SpoofGuardConfig::default());
        teach(&mut g, 1, -50.0, 3);
        teach(&mut g, 1, f64::NAN, 1);
    }

    #[test]
    fn sliding_window_tracks_slow_change() {
        let cfg = SpoofGuardConfig {
            window: 10,
            ..SpoofGuardConfig::default()
        };
        let mut g = SpoofGuard::new(cfg);
        teach(&mut g, 1, -50.0, 10);
        // Peer drifts to −47 dBm; window follows after enough frames.
        teach(&mut g, 1, -47.0, 10);
        assert_eq!(g.median_for(NodeId(1)), Some(-47.0));
    }
}
