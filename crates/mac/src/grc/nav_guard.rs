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

use std::collections::{BTreeMap, HashMap};

use crate::{Frame, FrameKind, FrameMeta, Msdu, NavCalculator};
use phy::PhyParams;
use sim::{SimDuration, SimTime};

use super::window::WindowTrack;
use super::Shared;

/// Detection statistics shared out of the observer.
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

/// Shared handle to a [`NavGuardReport`] (single-threaded, like the run
/// that owns it).
pub type NavGuardHandle = Shared<NavGuardReport>;

/// The NAV-sanitizing observer.
#[derive(Debug)]
pub struct NavGuard {
    calc: NavCalculator,
    mitigate: bool,
    tolerance_us: u32,
    mtu: usize,
    windowed: bool,
    /// Expected CTS Duration per (initiator, responder), learned from the
    /// RTS, valid for a short window.
    pending_cts: HashMap<(u16, u16), (u32, SimTime)>,
    report: NavGuardHandle,
}

impl NavGuard {
    /// Creates a guard for the given PHY. `mitigate = false` detects but
    /// honors claimed values (used to measure attack impact with
    /// detection-only deployments).
    pub fn new(params: PhyParams, mitigate: bool) -> (Self, NavGuardHandle) {
        let report: NavGuardHandle = Shared::new(NavGuardReport::default());
        (
            NavGuard {
                calc: NavCalculator::new(params),
                mitigate,
                tolerance_us: 2,
                mtu: 1500,
                windowed: false,
                pending_cts: HashMap::new(),
                report: report.clone(),
            },
            report,
        )
    }

    /// Overrides the MTU assumption behind the no-RTS-heard bounds
    /// (default 1500, the Internet MTU the paper argues for; 2304 is the
    /// 802.11 maximum MSDU — a looser, safer-but-weaker bound).
    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
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
    pub fn with_windows(self, width: SimDuration) -> Self {
        self.report.borrow_mut().windows = Some(WindowTrack::new(width));
        let mut g = self;
        g.windowed = true;
        g
    }

    fn flag(&self, src: u16) {
        *self.report.borrow_mut().detections.entry(src).or_insert(0) += 1;
    }

    fn resolve(&self, claimed: u32, expected: u32, src: u16, now: SimTime) -> u32 {
        if self.windowed {
            let margin = claimed.saturating_sub(expected) as f64;
            if let Some(track) = &mut self.report.borrow_mut().windows {
                track.push(now, margin);
            }
        }
        if claimed > expected.saturating_add(self.tolerance_us) {
            self.flag(src);
            if self.mitigate {
                self.report.borrow_mut().corrections += 1;
                return expected;
            }
        }
        claimed
    }
}

impl NavGuard {
    /// Serializes the runtime-mutable detector state: the pending-CTS
    /// expectations (sorted for a canonical encoding) and the shared
    /// report. Configuration (PHY calculator, tolerance, MTU, mitigation
    /// flag) is rebuilt by the owner.
    pub fn save_state(&self, w: &mut snap::Enc) {
        use snap::SnapValue as _;
        let mut pending: Vec<_> = self
            .pending_cts
            .iter()
            .map(|(&(a, b), &(exp, until))| (a, b, exp, until))
            .collect();
        pending.sort_unstable_by_key(|&(a, b, _, _)| (a, b));
        w.usize(pending.len());
        for (a, b, exp, until) in pending {
            w.u16(a);
            w.u16(b);
            w.u32(exp);
            until.save(w);
        }
        let report = self.report.borrow();
        w.usize(report.detections.len());
        for (&src, &n) in &report.detections {
            w.u16(src);
            w.u64(n);
        }
        w.u64(report.corrections);
        report.windows.save(w);
    }

    /// Restores state written by [`NavGuard::save_state`], writing the
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
                "NAV guard pending-CTS count {n} exceeds input"
            )));
        }
        self.pending_cts.clear();
        for _ in 0..n {
            let a = r.u16()?;
            let b = r.u16()?;
            let exp = r.u32()?;
            let until = SimTime::load(r)?;
            self.pending_cts.insert((a, b), (exp, until));
        }
        let n = r.usize()?;
        if n > r.remaining() {
            return Err(snap::SnapError::Corrupt(format!(
                "NAV guard detection count {n} exceeds input"
            )));
        }
        let mut report = self.report.borrow_mut();
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
                // Remember what the CTS answering this RTS must reserve.
                let expected_cts = self.calc.cts_duration_us(frame.duration_us);
                let valid_until = now + SimDuration::from_millis(5);
                self.pending_cts
                    .insert((frame.src.0, frame.dst.0), (expected_cts, valid_until));
                self.pending_cts.retain(|_, &mut (_, t)| t > now);
                // The RTS itself is bounded by an MTU-sized exchange.
                let bound = self
                    .calc
                    .rts_duration_us(crate::frame::DATA_HEADER_BYTES + self.mtu);
                self.resolve(frame.duration_us, bound, frame.src.0, now)
            }
            FrameKind::Cts => {
                // The matching RTS ran initiator → responder, i.e. the
                // CTS's destination → its source.
                let key = (frame.dst.0, frame.src.0);
                let expected = match self.pending_cts.get(&key) {
                    Some(&(exp, valid_until)) if valid_until > now => exp,
                    _ => self.calc.cts_duration_bound_us(self.mtu),
                };
                self.resolve(frame.duration_us, expected, frame.src.0, now)
            }
            FrameKind::Data => {
                // Data reserves exactly SIFS + ACK.
                let expected = self.calc.data_duration_us();
                self.resolve(frame.duration_us, expected, frame.src.0, now)
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

    fn meta(now_us: u64) -> FrameMeta {
        FrameMeta {
            rssi: Rssi::fixed(-40.0),
            now: SimTime::from_micros(now_us),
        }
    }

    fn guard(mitigate: bool) -> (NavGuard, NavGuardHandle) {
        NavGuard::new(PhyParams::dot11b(), mitigate)
    }

    #[test]
    fn honest_exchange_passes_untouched() {
        let (mut g, report) = guard(true);
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
        assert_eq!(report.borrow().total_detections(), 0);
    }

    #[test]
    fn inflated_cts_detected_and_clamped_exactly_when_rts_heard() {
        let (mut g, report) = guard(true);
        let calc = NavCalculator::new(PhyParams::dot11b());
        let rts_dur = calc.rts_duration_us(DATA_HEADER_BYTES + 1024);
        let rts: Frame<usize> = Frame::rts(NodeId(0), NodeId(1), rts_dur);
        g.on_frame(&rts, &meta(0));
        let honest_cts = calc.cts_duration_us(rts_dur);
        let inflated: Frame<usize> = Frame::cts(NodeId(1), NodeId(0), honest_cts + 10_000);
        // Clamped to the exact expected value, not the MTU bound.
        assert_eq!(g.on_frame(&inflated, &meta(400)), honest_cts);
        assert_eq!(report.borrow().detections.get(&1), Some(&1));
        assert_eq!(report.borrow().corrections, 1);
    }

    #[test]
    fn cts_without_rts_clamped_to_mtu_bound() {
        let (mut g, _report) = guard(true);
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
        let (mut g, report) = guard(true);
        let inflated: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 20_000);
        assert_eq!(g.on_frame(&inflated, &meta(0)), 0);
        assert_eq!(report.borrow().total_detections(), 1);
    }

    #[test]
    fn inflated_data_clamped_to_sifs_plus_ack() {
        let (mut g, _) = guard(true);
        let calc = NavCalculator::new(PhyParams::dot11b());
        let inflated: Frame<usize> = Frame::data(NodeId(1), NodeId(0), 31_000, 1, 60);
        assert_eq!(g.on_frame(&inflated, &meta(0)), calc.data_duration_us());
    }

    #[test]
    fn detection_without_mitigation_keeps_claimed_value() {
        let (mut g, report) = guard(false);
        let inflated: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 20_000);
        assert_eq!(g.on_frame(&inflated, &meta(0)), 20_000);
        assert_eq!(report.borrow().total_detections(), 1);
        assert_eq!(report.borrow().corrections, 0);
    }

    #[test]
    fn stale_rts_entry_falls_back_to_bound() {
        let (mut g, _) = guard(true);
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
}
