//! Detecting and mitigating inflated NAVs (paper §VII-A).
//!
//! Two reconstruction rules, exactly as the paper describes:
//!
//! 1. A node that heard the *preceding* frame of the exchange knows the
//!    correct NAV exactly: a CTS must reserve what the RTS reserved minus
//!    one SIFS and the CTS airtime; a DATA frame reserves SIFS + ACK; a
//!    final ACK reserves nothing.
//! 2. A node that heard only the receiver's frame bounds the NAV by the
//!    largest legitimate exchange: a 1500-byte (Internet MTU) data frame
//!    plus its ACK.
//!
//! On detection the node ignores the claimed Duration and honors the
//! reconstructed value (when mitigation is enabled), recovering virtual
//! carrier sense.

use std::collections::BTreeMap;

use crate::{Frame, FrameKind, FrameMeta, Msdu, NavCalculator};
use phy::PhyParams;
use sim::{SimDuration, SimTime};

use super::window::WindowTrack;

/// The NAV guard's detection statistics, read after a run through
/// [`NavGuard::report`].
#[derive(Debug, Clone, Default)]
pub struct NavGuardReport {
    /// Detections per claimed source station.
    pub detections: BTreeMap<u16, u64>,
    /// How many NAV values were clamped (mitigation events).
    pub corrections: u64,
    /// Per-window NAV margin statistics (`claimed − expected` in µs,
    /// recorded for every observed frame). `None` unless the guard was
    /// built with [`NavGuard::with_windows`]; detection-science sweeps
    /// apply threshold grids to these offline.
    pub windows: Option<WindowTrack>,
}

impl NavGuardReport {
    /// Total detections across all stations.
    pub fn total_detections(&self) -> u64 {
        self.detections.values().sum()
    }
}

/// How long an RTS's expectation for the answering CTS stays valid.
const PENDING_CTS_VALID: SimDuration = SimDuration::from_millis(5);

/// The NAV-sanitizing observer.
#[derive(Debug)]
pub struct NavGuard {
    calc: NavCalculator,
    mitigate: bool,
    tolerance_us: u32,
    /// What an RTS may reserve: an MTU-sized exchange.
    rts_bound_us: u32,
    /// What a CTS whose RTS went unheard may reserve.
    cts_bound_us: u32,
    /// What a DATA frame reserves: SIFS + ACK.
    data_us: u32,
    /// Expected CTS Duration per (initiator, responder) and the instant
    /// it expires, learned from the RTS; one entry per key, few alive at
    /// once.
    pending_cts: Vec<((u16, u16), (u32, SimTime))>,
    report: NavGuardReport,
}

impl NavGuard {
    /// Creates a guard for the given PHY. `mitigate = false` detects but
    /// honors claimed values (used to measure attack impact with
    /// detection-only deployments).
    pub fn new(params: PhyParams, mitigate: bool) -> Self {
        let calc = NavCalculator::new(params);
        NavGuard {
            calc,
            mitigate,
            tolerance_us: 2,
            rts_bound_us: 0,
            cts_bound_us: 0,
            data_us: calc.data_duration_us(),
            pending_cts: Vec::new(),
            report: NavGuardReport::default(),
        }
        .with_mtu(1500)
    }

    /// Detections and corrections so far.
    pub fn report(&self) -> &NavGuardReport {
        &self.report
    }

    /// Overrides the MTU assumption behind the no-RTS-heard bounds
    /// (default 1500, the Internet MTU the paper argues for; 2304 is the
    /// 802.11 maximum MSDU — a looser, safer-but-weaker bound).
    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.rts_bound_us = self
            .calc
            .rts_duration_us(crate::frame::DATA_HEADER_BYTES + mtu);
        self.cts_bound_us = self.calc.cts_duration_bound_us(mtu);
        self
    }

    /// Overrides the detection tolerance in µs (default 2 — one
    /// propagation-rounding slop each way).
    pub fn with_tolerance(mut self, tolerance_us: u32) -> Self {
        self.tolerance_us = tolerance_us;
        self
    }

    /// Enables per-window margin tracking with the given window width
    /// (see [`NavGuardReport::windows`]). Off by default; the enabled
    /// path never alters detection or mitigation behavior.
    pub fn with_windows(mut self, width: SimDuration) -> Self {
        self.report.windows = Some(WindowTrack::new(width));
        self
    }

    fn resolve(&mut self, claimed: u32, expected: u32, src: u16, now: SimTime) -> u32 {
        if let Some(track) = &mut self.report.windows {
            track.push(now, claimed.saturating_sub(expected) as f64);
        }
        if claimed > expected.saturating_add(self.tolerance_us) {
            *self.report.detections.entry(src).or_insert(0) += 1;
            if self.mitigate {
                self.report.corrections += 1;
                return expected;
            }
        }
        claimed
    }
}

impl NavGuard {
    /// Serializes the runtime-mutable detector state: the pending-CTS
    /// expectations (sorted for a canonical encoding) and the report.
    /// Configuration (PHY calculator, tolerance, MTU, mitigation flag) is
    /// rebuilt by the owner.
    pub fn save_state(&self, w: &mut snap::Enc) {
        use snap::SnapValue as _;
        let mut pending = self.pending_cts.clone();
        pending.sort_unstable_by_key(|&(key, _)| key);
        w.usize(pending.len());
        for ((a, b), (exp, until)) in pending {
            w.u16(a);
            w.u16(b);
            w.u32(exp);
            until.save(w);
        }
        let report = &self.report;
        w.usize(report.detections.len());
        for (&src, &n) in &report.detections {
            w.u16(src);
            w.u64(n);
        }
        w.u64(report.corrections);
        report.windows.save(w);
    }

    /// Restores state written by [`NavGuard::save_state`].
    ///
    /// # Errors
    ///
    /// [`snap::SnapError::Corrupt`] on truncated or oversized input, or
    /// pending-CTS keys out of ascending order (a key listed twice among
    /// them).
    pub fn load_state(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        use snap::SnapValue as _;
        let n = r.count("NAV guard pending-CTS count")?;
        self.pending_cts.clear();
        for _ in 0..n {
            let key = (r.u16()?, r.u16()?);
            if self.pending_cts.last().is_some_and(|&(k, _)| k >= key) {
                return Err(snap::SnapError::Corrupt(format!(
                    "NAV guard pending CTS {key:?} repeated or out of order"
                )));
            }
            let exp = r.u32()?;
            let until = SimTime::load(r)?;
            self.pending_cts.push((key, (exp, until)));
        }
        let n = r.count("NAV guard detection count")?;
        let report = &mut self.report;
        report.detections.clear();
        for _ in 0..n {
            let src = r.u16()?;
            let count = r.u64()?;
            report.detections.insert(src, count);
        }
        report.corrections = r.u64()?;
        report.windows = Option::load(r)?;
        Ok(())
    }

    /// Vets the Duration of a correctly received or overheard frame
    /// against what its exchange can legitimately reserve; returns the
    /// value to honor (the claim, or the expectation when mitigating).
    pub fn on_frame<M: Msdu>(&mut self, frame: &Frame<M>, meta: &FrameMeta) -> u32 {
        let now = meta.now;
        match frame.kind {
            FrameKind::Rts => {
                // Remember what the CTS answering this RTS must reserve,
                // replacing the key's older expectation; expectations
                // expired by now go.
                let entry = (
                    self.calc.cts_duration_us(frame.duration_us),
                    now + PENDING_CTS_VALID,
                );
                let key = (frame.src.0, frame.dst.0);
                self.pending_cts.retain(|&(_, (_, t))| t > now);
                match self.pending_cts.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, slot)) => *slot = entry,
                    None => self.pending_cts.push((key, entry)),
                }
                // The RTS itself is bounded by an MTU-sized exchange.
                self.resolve(frame.duration_us, self.rts_bound_us, frame.src.0, now)
            }
            FrameKind::Cts => {
                // The matching RTS ran initiator → responder, i.e. the
                // CTS's destination → its source.
                let key = (frame.dst.0, frame.src.0);
                let expected = match self.pending_cts.iter().find(|(k, _)| *k == key) {
                    Some(&(_, (exp, valid_until))) if valid_until > now => exp,
                    _ => self.cts_bound_us,
                };
                self.resolve(frame.duration_us, expected, frame.src.0, now)
            }
            FrameKind::Data => {
                // Data reserves exactly SIFS + ACK.
                self.resolve(frame.duration_us, self.data_us, frame.src.0, now)
            }
            FrameKind::Ack => {
                // Without fragmentation an ACK's NAV is always zero.
                self.resolve(
                    frame.duration_us,
                    self.calc.ack_duration_us(),
                    frame.src.0,
                    now,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DATA_HEADER_BYTES;
    use crate::NodeId;
    use phy::Rssi;
    use std::collections::HashMap;

    fn meta(now_us: u64) -> FrameMeta {
        FrameMeta {
            rssi: Rssi::fixed(-40.0),
            now: SimTime::from_micros(now_us),
        }
    }

    fn guard(mitigate: bool) -> NavGuard {
        NavGuard::new(PhyParams::dot11b(), mitigate)
    }

    #[test]
    fn honest_exchange_passes_untouched() {
        let mut g = guard(true);
        let calc = NavCalculator::new(PhyParams::dot11b());
        let rts_dur = calc.rts_duration_us(DATA_HEADER_BYTES + 1024);
        let rts: Frame<usize> = Frame::rts(NodeId(0), NodeId(1), rts_dur);
        assert_eq!(g.on_frame(&rts, &meta(0)), rts_dur);
        let cts_dur = calc.cts_duration_us(rts_dur);
        let cts: Frame<usize> = Frame::cts(NodeId(1), NodeId(0), cts_dur);
        assert_eq!(g.on_frame(&cts, &meta(400)), cts_dur);
        let data: Frame<usize> =
            Frame::data(NodeId(0), NodeId(1), calc.data_duration_us(), 1, 1024);
        assert_eq!(g.on_frame(&data, &meta(800)), calc.data_duration_us());
        let ack: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 0);
        assert_eq!(g.on_frame(&ack, &meta(1800)), 0);
        assert_eq!(g.report().total_detections(), 0);
    }

    #[test]
    fn inflated_cts_detected_and_clamped_exactly_when_rts_heard() {
        let mut g = guard(true);
        let calc = NavCalculator::new(PhyParams::dot11b());
        let rts_dur = calc.rts_duration_us(DATA_HEADER_BYTES + 1024);
        let rts: Frame<usize> = Frame::rts(NodeId(0), NodeId(1), rts_dur);
        g.on_frame(&rts, &meta(0));
        let honest_cts = calc.cts_duration_us(rts_dur);
        let inflated: Frame<usize> = Frame::cts(NodeId(1), NodeId(0), honest_cts + 10_000);
        // Clamped to the exact expected value, not the MTU bound.
        assert_eq!(g.on_frame(&inflated, &meta(400)), honest_cts);
        assert_eq!(g.report().detections.get(&1), Some(&1));
        assert_eq!(g.report().corrections, 1);
    }

    #[test]
    fn cts_without_rts_clamped_to_mtu_bound() {
        let mut g = guard(true);
        let calc = NavCalculator::new(PhyParams::dot11b());
        let bound = calc.cts_duration_bound_us(1500);
        let inflated: Frame<usize> = Frame::cts(NodeId(1), NodeId(0), 32_000);
        assert_eq!(g.on_frame(&inflated, &meta(0)), bound);
        // A CTS *within* the bound is honored even though unverifiable.
        let modest: Frame<usize> = Frame::cts(NodeId(1), NodeId(0), bound - 100);
        assert_eq!(g.on_frame(&modest, &meta(10)), bound - 100);
    }

    #[test]
    fn inflated_ack_clamped_to_zero() {
        let mut g = guard(true);
        let inflated: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 20_000);
        assert_eq!(g.on_frame(&inflated, &meta(0)), 0);
        assert_eq!(g.report().total_detections(), 1);
    }

    #[test]
    fn inflated_data_clamped_to_sifs_plus_ack() {
        let mut g = guard(true);
        let calc = NavCalculator::new(PhyParams::dot11b());
        let inflated: Frame<usize> = Frame::data(NodeId(1), NodeId(0), 31_000, 1, 60);
        assert_eq!(g.on_frame(&inflated, &meta(0)), calc.data_duration_us());
    }

    #[test]
    fn detection_without_mitigation_keeps_claimed_value() {
        let mut g = guard(false);
        let inflated: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 20_000);
        assert_eq!(g.on_frame(&inflated, &meta(0)), 20_000);
        assert_eq!(g.report().total_detections(), 1);
        assert_eq!(g.report().corrections, 0);
    }

    #[test]
    fn stale_rts_entry_falls_back_to_bound() {
        let mut g = guard(true);
        let calc = NavCalculator::new(PhyParams::dot11b());
        let rts_dur = calc.rts_duration_us(DATA_HEADER_BYTES + 100);
        let rts: Frame<usize> = Frame::rts(NodeId(0), NodeId(1), rts_dur);
        g.on_frame(&rts, &meta(0));
        // 50 ms later the entry expired; the CTS bound applies instead of
        // the (smaller) exact expectation.
        let cts: Frame<usize> = Frame::cts(NodeId(1), NodeId(0), calc.cts_duration_bound_us(1500));
        let honored = g.on_frame(&cts, &meta(50_000));
        assert_eq!(honored, calc.cts_duration_bound_us(1500));
    }

    #[test]
    fn a_pending_cts_listed_twice_is_corrupt() {
        let mut g = guard(true);
        let rts: Frame<usize> = Frame::rts(NodeId(0), NodeId(1), 1_000);
        g.on_frame(&rts, &meta(0));
        let rts: Frame<usize> = Frame::rts(NodeId(2), NodeId(3), 1_000);
        g.on_frame(&rts, &meta(10));
        let mut w = snap::Enc::new();
        g.save_state(&mut w);
        let mut bytes = w.bytes().to_vec();
        // The second entry's key follows the count and the first entry
        // (two ids, the expectation and its expiry).
        let at = 8 + 2 + 2 + 4 + 8;
        assert_eq!(&bytes[at..at + 4], &[2, 0, 3, 0]);
        bytes[at..at + 4].copy_from_slice(&[0, 0, 1, 0]);
        let err = guard(true)
            .load_state(&mut snap::Dec::new(&bytes))
            .unwrap_err();
        assert!(
            matches!(&err, snap::SnapError::Corrupt(m) if m.contains("(0, 1) repeated")),
            "{err:?}"
        );
    }

    /// The guard as it was written first: a hash map of pending CTS
    /// expectations, every bound recomputed per frame.
    struct Reference {
        calc: NavCalculator,
        mitigate: bool,
        mtu: usize,
        pending_cts: HashMap<(u16, u16), (u32, SimTime)>,
        detections: BTreeMap<u16, u64>,
        corrections: u64,
    }

    impl Reference {
        fn resolve(&mut self, claimed: u32, expected: u32, src: u16) -> u32 {
            if claimed > expected.saturating_add(2) {
                *self.detections.entry(src).or_insert(0) += 1;
                if self.mitigate {
                    self.corrections += 1;
                    return expected;
                }
            }
            claimed
        }

        fn on_frame(&mut self, frame: &Frame<usize>, now: SimTime) -> u32 {
            let expected = match frame.kind {
                FrameKind::Rts => {
                    let expected_cts = self.calc.cts_duration_us(frame.duration_us);
                    let valid_until = now + SimDuration::from_millis(5);
                    self.pending_cts
                        .insert((frame.src.0, frame.dst.0), (expected_cts, valid_until));
                    self.pending_cts.retain(|_, &mut (_, t)| t > now);
                    self.calc.rts_duration_us(DATA_HEADER_BYTES + self.mtu)
                }
                FrameKind::Cts => match self.pending_cts.get(&(frame.dst.0, frame.src.0)) {
                    Some(&(exp, valid_until)) if valid_until > now => exp,
                    _ => self.calc.cts_duration_bound_us(self.mtu),
                },
                FrameKind::Data => self.calc.data_duration_us(),
                FrameKind::Ack => self.calc.ack_duration_us(),
            };
            self.resolve(frame.duration_us, expected, frame.src.0)
        }

        fn save_state(&self) -> Vec<u8> {
            use snap::SnapValue as _;
            let mut w = snap::Enc::new();
            let mut pending: Vec<_> = self.pending_cts.iter().collect();
            pending.sort_unstable_by_key(|(&key, _)| key);
            w.usize(pending.len());
            for (&(a, b), &(exp, until)) in pending {
                w.u16(a);
                w.u16(b);
                w.u32(exp);
                until.save(&mut w);
            }
            w.usize(self.detections.len());
            for (&src, &n) in &self.detections {
                w.u16(src);
                w.u64(n);
            }
            w.u64(self.corrections);
            Option::<WindowTrack>::None.save(&mut w);
            w.bytes().to_vec()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// Random RTS/CTS/DATA/ACK streams between four stations, with
        /// gaps around the 5 ms expectation lifetime and snapshot round
        /// trips: the guard honors, reports and saves exactly what the
        /// hash-map reference does.
        #[test]
        fn matches_the_hash_map_reference(
            frames in proptest::collection::vec(
                ((0u16..5, 0u16..4, 0u16..4), (0u32..40_000, 0u64..4_000, 0usize..4)),
                1..200,
            ),
            mitigate in proptest::prelude::any::<bool>(),
            mtu in 0usize..3,
        ) {
            let params = PhyParams::dot11b();
            let calc = NavCalculator::new(params);
            let mtu = [1500, 2304, 100][mtu];
            let fresh = || NavGuard::new(params, mitigate).with_mtu(mtu);
            let mut g = fresh();
            let mut reference = Reference {
                calc,
                mitigate,
                mtu,
                pending_cts: HashMap::new(),
                detections: BTreeMap::new(),
                corrections: 0,
            };
            let mut now = SimTime::ZERO;
            for &((kind, src, dst), (claim, gap_us, honest)) in &frames {
                now += SimDuration::from_micros(gap_us);
                // Mostly honest Durations, so exact expectations matter.
                let rts_dur = calc.rts_duration_us(DATA_HEADER_BYTES + [60, 1024, 1500, 2304][honest]);
                let (src, dst) = (NodeId(src), NodeId(dst));
                let frame: Frame<usize> = match kind {
                    0 => Frame::rts(src, dst, if honest < 3 { rts_dur } else { claim }),
                    1 => Frame::cts(src, dst, if honest < 2 { calc.cts_duration_us(rts_dur) } else { claim }),
                    2 => Frame::data(src, dst, if honest < 2 { calc.data_duration_us() } else { claim }, 1, 60),
                    3 => Frame::ack(src, dst, if honest < 2 { 0 } else { claim }),
                    _ => {
                        let mut w = snap::Enc::new();
                        g.save_state(&mut w);
                        assert_eq!(w.bytes(), &reference.save_state()[..]);
                        g = fresh();
                        g.load_state(&mut snap::Dec::new(w.bytes())).unwrap();
                        continue;
                    }
                };
                let m = FrameMeta { rssi: Rssi::fixed(-40.0), now };
                assert_eq!(g.on_frame(&frame, &m), reference.on_frame(&frame, now));
            }
            assert_eq!(g.report().detections, reference.detections);
            assert_eq!(g.report().corrections, reference.corrections);
            let mut w = snap::Enc::new();
            g.save_state(&mut w);
            assert_eq!(w.bytes(), &reference.save_state()[..]);
        }
    }
}
