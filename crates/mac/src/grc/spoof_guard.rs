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

use std::collections::VecDeque;

use crate::{Frame, FrameKind, FrameMeta, Msdu, NodeId};

use super::window::WindowTrack;
use phy::Rssi;
use sim::{NormalDraw, SimDuration};

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
///
/// A station overhears many peers but vets ACKs from few, so learning
/// is cheap and vetting pays: a learned sample waits in its peer's
/// window untransformed, and the first vetted ACK after it folds it into
/// the window's sorted mirror.
#[derive(Debug)]
pub struct SpoofGuard {
    cfg: SpoofGuardConfig,
    /// One window per peer, in ascending peer id.
    history: Vec<(u16, RssiWindow)>,
    report: SpoofGuardReport,
}

/// One peer's sliding RSSI window: its samples in arrival order, the
/// older ones as values and the newer ones as untransformed draws, and
/// the oldest values, once folded, kept sorted so the median is read
/// without sorting.
#[derive(Debug, Default)]
struct RssiWindow {
    /// Link median (dBm) and jitter σ (dB) of every draw in `draws`:
    /// those of the first jittered sample with both finite.
    link: Option<(f64, f64)>,
    /// The window's older samples, in dBm.
    values: VecDeque<f64>,
    /// The window's newer samples: draws around `link`, not yet
    /// transformed.
    draws: VecDeque<NormalDraw>,
    /// The first `sorted.len()` samples of `values` (the folded ones) in
    /// ascending order, equal values in arrival order — the order a
    /// stable sort of them gives.
    sorted: Vec<f64>,
}

impl RssiWindow {
    /// Appends `rssi` untransformed when it is a draw around the
    /// window's link, else as its value; evicts the oldest sample beyond
    /// `cap`.
    ///
    /// # Panics
    ///
    /// Panics on a NaN sample, which has no median. A draw around a
    /// finite link is never NaN, so only values are checked.
    fn push(&mut self, rssi: Rssi, cap: usize) {
        match rssi.parts() {
            (median, Some((sigma, draw))) if self.shares_link(median, sigma) => {
                self.draws.push_back(draw);
            }
            _ => {
                let dbm = rssi.dbm();
                assert!(!dbm.is_nan(), "median over NaN");
                // A value joins behind every draw learned before it.
                self.transform_draws();
                self.values.push_back(dbm);
            }
        }
        if self.len() > cap {
            match self.values.pop_front() {
                // Folded values lead, so `old` was folded when anything
                // is; the oldest of the values equal to it sits first
                // among them.
                Some(old) if !self.sorted.is_empty() => {
                    let at = self.sorted.partition_point(|&v| v < old);
                    self.sorted.remove(at);
                }
                Some(_) => {}
                None => {
                    self.draws.pop_front();
                }
            }
        }
    }

    /// Whether a draw around `median` with jitter `sigma` can wait
    /// untransformed: the window adopts the first finite link it sees
    /// and keeps it (compared bit for bit).
    fn shares_link(&mut self, median: f64, sigma: f64) -> bool {
        if !(median.is_finite() && sigma.is_finite()) {
            return false;
        }
        let (m, s) = *self.link.get_or_insert((median, sigma));
        m.to_bits() == median.to_bits() && s.to_bits() == sigma.to_bits()
    }

    /// Moves the waiting draws behind the values, each transformed once
    /// exactly as [`Rssi::dbm`] transforms it (`link` is set whenever a
    /// draw waits).
    fn transform_draws(&mut self) {
        let (median, sigma) = self.link.unwrap_or_default();
        self.values
            .extend(self.draws.drain(..).map(|d| median + d.scaled(sigma)));
    }

    /// Folds the samples not folded yet, in arrival order: each draw is
    /// transformed once, and each value binary-searched into the mirror.
    fn fold(&mut self) {
        self.transform_draws();
        let sorted = &mut self.sorted;
        for &dbm in self.values.range(sorted.len()..) {
            let at = sorted.partition_point(|&v| v <= dbm);
            sorted.insert(at, dbm);
        }
    }

    /// The median of the window (`None` when empty), bit-identical to
    /// [`sim::stats::median`] of its samples' values.
    fn median(&mut self) -> Option<f64> {
        self.fold();
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

    /// How many samples the window holds.
    fn len(&self) -> usize {
        self.values.len() + self.draws.len()
    }

    /// Every sample's value, in arrival order, draws transformed as
    /// [`RssiWindow::transform_draws`] does.
    fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        let (median, sigma) = self.link.unwrap_or_default();
        let draws = self.draws.iter().map(move |d| median + d.scaled(sigma));
        self.values.iter().copied().chain(draws)
    }
}

impl SpoofGuard {
    /// Creates a guard with the given configuration.
    pub fn new(cfg: SpoofGuardConfig) -> Self {
        SpoofGuard {
            cfg,
            history: Vec::new(),
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

    /// `peer`'s window, if it has one.
    fn window(&mut self, peer: NodeId) -> Option<&mut RssiWindow> {
        let at = self
            .history
            .binary_search_by_key(&peer.0, |&(p, _)| p)
            .ok()?;
        Some(&mut self.history[at].1)
    }

    /// Adds an RSSI sample to `peer`'s window.
    ///
    /// # Panics
    ///
    /// Panics on a NaN `rssi`.
    fn learn(&mut self, peer: NodeId, rssi: Rssi) {
        let at = match self.history.binary_search_by_key(&peer.0, |&(p, _)| p) {
            Ok(at) => at,
            Err(at) => {
                self.history.insert(at, (peer.0, RssiWindow::default()));
                at
            }
        };
        self.history[at].1.push(rssi, self.cfg.window);
    }

    fn median_for(&mut self, peer: NodeId) -> Option<f64> {
        let min_samples = self.cfg.min_samples;
        let h = self.window(peer)?;
        if h.len() < min_samples {
            return None;
        }
        h.median()
    }
}

impl SpoofGuard {
    /// Serializes the runtime-mutable detector state: the per-peer RSSI
    /// windows (in ascending peer id, each sample as its value in dBm)
    /// and the report. Configuration is rebuilt by the owner.
    pub fn save_state(&self, w: &mut snap::Enc) {
        use snap::SnapValue as _;
        w.usize(self.history.len());
        for (peer, window) in &self.history {
            w.u16(*peer);
            w.usize(window.len());
            for rssi in window.samples() {
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

    /// Restores state written by [`SpoofGuard::save_state`]. Samples come
    /// back as values, folded again by the next vetted ACK.
    ///
    /// # Errors
    ///
    /// [`snap::SnapError::Corrupt`] on truncated or oversized input, a
    /// NaN sample, or peers out of ascending order (a peer listed twice
    /// among them).
    pub fn load_state(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        use snap::SnapValue as _;
        let n = r.count("spoof guard peer count")?;
        self.history.clear();
        for _ in 0..n {
            let peer = r.u16()?;
            if self.history.last().is_some_and(|&(p, _)| p >= peer) {
                return Err(snap::SnapError::Corrupt(format!(
                    "spoof guard peer {peer} repeated or out of order"
                )));
            }
            let len = r.count("spoof guard window length")?;
            let mut window = RssiWindow::default();
            for _ in 0..len {
                let rssi = r.f64()?;
                if rssi.is_nan() {
                    return Err(snap::SnapError::Corrupt(format!(
                        "spoof guard window of peer {peer} holds NaN"
                    )));
                }
                window.values.push_back(rssi);
            }
            self.history.push((peer, window));
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
            self.learn(frame.src, meta.rssi);
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
    use phy::RssiModel;
    use sim::{SimRng, SimTime};
    use std::collections::BTreeMap;

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
                g.learn(NodeId(1), Rssi::fixed(LEVELS[l]));
                let fifo: Vec<f64> = g.window(NodeId(1)).unwrap().samples().collect();
                assert_eq!(fifo.len(), (k + 1).min(window));
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

        /// Jittered samples from several peers, learned, vetted, saved
        /// and restored in any interleaving: every vet result and every
        /// snapshot equals that of an eager window that transforms each
        /// sample as it arrives and sorts the window per ACK.
        #[test]
        fn lazy_windows_vet_and_save_as_eager_ones_do(
            ops in proptest::collection::vec((0u16..7, 0u16..4, 0usize..8), 1..300),
            seed in 0u64..1_000,
            window in 1usize..61,
            min_samples in 0usize..4,
        ) {
            let cfg = || config(window, min_samples);
            let width = SimDuration::from_micros(500);
            let mut g = SpoofGuard::new(cfg()).with_windows(width);
            let mut eager = Eager::new(cfg(), width);
            let mut rng = SimRng::new(seed);
            for (k, &(op, peer, kind)) in ops.iter().enumerate() {
                let meta = FrameMeta {
                    rssi: observation(peer, kind, &mut rng),
                    now: SimTime::from_micros(k as u64 * 137),
                };
                match op {
                    0..=3 => {
                        let frame: Frame<usize> = match op {
                            0 => Frame::cts(NodeId(peer), NodeId(9), 0),
                            1 => Frame::ack(NodeId(peer), NodeId(9), 0),
                            _ => Frame::data(NodeId(peer), NodeId(9), 314, 1, 60),
                        };
                        g.on_frame(&frame, &meta);
                        eager.on_frame(&frame, &meta);
                    }
                    4 | 5 => {
                        let peer = NodeId(peer);
                        assert_eq!(g.accept_ack(&meta, peer), eager.accept_ack(&meta, peer));
                    }
                    _ => {
                        let mut w = snap::Enc::new();
                        g.save_state(&mut w);
                        assert_eq!(w.bytes(), &eager.save_state()[..]);
                        g = SpoofGuard::new(cfg()).with_windows(width);
                        g.load_state(&mut snap::Dec::new(w.bytes())).unwrap();
                    }
                }
            }
            let mut w = snap::Enc::new();
            g.save_state(&mut w);
            assert_eq!(w.bytes(), &eager.save_state()[..]);
        }
    }

    /// Link medians of the four peers the jittered streams use.
    const LINKS: [f64; 4] = [-50.0, -62.5, -41.25, -70.0];

    /// One observation of `peer`: mostly draws around its link, some
    /// around another median or σ, some fixed values (a spoofer's).
    fn observation(peer: u16, kind: usize, rng: &mut SimRng) -> Rssi {
        let model = RssiModel::default();
        let link = LINKS[usize::from(peer)];
        match kind {
            0..=4 => model.sample_from_median(link, rng),
            5 => model.sample_from_median(link + 3.0, rng),
            6 => RssiModel {
                jitter_sigma_db: 2.0,
                ..RssiModel::default()
            }
            .sample_from_median(link, rng),
            _ => Rssi::fixed(LEVELS[usize::from(peer) * 2]),
        }
    }

    /// The guard without lazy folding: each sample is transformed when
    /// learned, and each vetted ACK sorts a copy of its window.
    struct Eager {
        cfg: SpoofGuardConfig,
        windows: BTreeMap<u16, VecDeque<f64>>,
        counts: [u64; 4],
        track: Option<WindowTrack>,
    }

    impl Eager {
        fn new(cfg: SpoofGuardConfig, width: SimDuration) -> Self {
            Eager {
                cfg,
                windows: BTreeMap::new(),
                counts: [0; 4],
                track: Some(WindowTrack::new(width)),
            }
        }

        fn on_frame(&mut self, frame: &Frame<usize>, meta: &FrameMeta) {
            if matches!(frame.kind, FrameKind::Cts | FrameKind::Data) {
                let w = self.windows.entry(frame.src.0).or_default();
                w.push_back(meta.rssi.dbm());
                if w.len() > self.cfg.window {
                    w.pop_front();
                }
            }
        }

        fn accept_ack(&mut self, meta: &FrameMeta, from: NodeId) -> bool {
            let median = (self.windows.get(&from.0))
                .filter(|w| w.len() >= self.cfg.min_samples)
                .and_then(|w| sim::stats::median(&w.iter().copied().collect::<Vec<_>>()));
            let Some(median) = median else {
                self.counts[3] += 1;
                return true;
            };
            let deviation = (median - meta.rssi.dbm()).abs();
            if let Some(track) = &mut self.track {
                track.push(meta.now, deviation);
            }
            if deviation > self.cfg.rssi_threshold_db {
                self.counts[0] += 1;
                if self.cfg.mitigate {
                    self.counts[1] += 1;
                    return false;
                }
                return true;
            }
            self.counts[2] += 1;
            true
        }

        fn save_state(&self) -> Vec<u8> {
            use snap::SnapValue as _;
            let mut w = snap::Enc::new();
            w.usize(self.windows.len());
            for (&peer, window) in &self.windows {
                w.u16(peer);
                w.usize(window.len());
                for &rssi in window {
                    w.f64(rssi);
                }
            }
            for n in self.counts {
                w.u64(n);
            }
            self.track.save(&mut w);
            w.bytes().to_vec()
        }
    }

    #[test]
    fn a_peer_listed_twice_is_corrupt() {
        let mut g = SpoofGuard::new(SpoofGuardConfig::default());
        teach(&mut g, 1, -50.0, 3);
        teach(&mut g, 2, -60.0, 3);
        let mut w = snap::Enc::new();
        g.save_state(&mut w);
        let mut bytes = w.bytes().to_vec();
        // Peer 2's id follows the peer count, peer 1's id, its window
        // length and three samples.
        let at = 8 + 2 + 8 + 3 * 8;
        assert_eq!(&bytes[at..at + 2], &2u16.to_le_bytes());
        bytes[at..at + 2].copy_from_slice(&1u16.to_le_bytes());
        let err = SpoofGuard::new(SpoofGuardConfig::default())
            .load_state(&mut snap::Dec::new(&bytes))
            .unwrap_err();
        assert!(
            matches!(&err, snap::SnapError::Corrupt(m) if m.contains("peer 1 repeated")),
            "{err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "median over NaN")]
    fn nan_link_median_stops_the_run_at_learn() {
        let mut g = SpoofGuard::new(SpoofGuardConfig::default());
        let mut rng = SimRng::new(1);
        let rssi = RssiModel::default().sample_from_median(f64::NAN, &mut rng);
        let f: Frame<usize> = Frame::cts(NodeId(1), NodeId(0), 0);
        g.on_frame(
            &f,
            &FrameMeta {
                rssi,
                now: SimTime::ZERO,
            },
        );
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
