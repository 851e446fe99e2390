//! TCP sender and receiver (packet-granular, ns-2 style) with pluggable
//! congestion control.
//!
//! The sender owns loss *detection*: fast retransmit on three duplicate
//! ACKs, NewReno fast recovery (partial ACKs retransmit the next hole
//! without leaving recovery, so a burst of drops costs one RTT per drop
//! instead of a retransmission timeout) and RTO-based recovery with
//! Karn's rule and exponential backoff. Every congestion-window
//! *decision* is delegated to the
//! [`cc::CongestionController`](crate::cc::CongestionController) selected
//! by [`TcpConfig::cc`] — NewReno (the paper's baseline, byte-identical
//! to the formerly-inlined arithmetic), CUBIC, BBR, or NewReno/CUBIC
//! with HyStart. The receiver delivers in order, buffers out-of-order
//! segments, and emits an immediate cumulative ACK for every data
//! segment (no delayed ACKs, matching the paper's ns-2 setup).
//!
//! Sequence numbers count *segments*, not bytes. The flow is assumed
//! infinite (always more data to send), as in the paper's long-lived FTP
//! transfers.

use std::collections::{BTreeSet, HashMap};

use sim::{SimDuration, SimTime, TimeWeightedMean};

use crate::cc::{AckSample, Cc, CcConfig, CcObs, CongestionController, RttEstimator};
use crate::packet::{FlowId, Segment};
use crate::rto::RtoEstimator;

/// Configuration of a TCP connection.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Payload bytes per data segment (the paper's 1024).
    pub mss: usize,
    /// Receiver-advertised window cap, in segments.
    pub max_window: f64,
    /// Initial slow-start threshold, in segments.
    pub initial_ssthresh: f64,
    /// Floor of the retransmission timeout.
    pub min_rto: SimDuration,
    /// Ceiling of the retransmission timeout.
    pub max_rto: SimDuration,
    /// Congestion-control algorithm (NewReno by default).
    pub cc: CcConfig,
}

impl Default for TcpConfig {
    fn default() -> Self {
        // The window cap equals the MAC interface-queue capacity (50) so a
        // single flow cannot overflow its own queue — matching the paper's
        // setup, where Table II's congestion windows plateau just below 50.
        TcpConfig {
            mss: 1024,
            max_window: 50.0,
            initial_ssthresh: 50.0,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            cc: CcConfig::default(),
        }
    }
}

/// Per-segment bookkeeping at send time: when it left and what the
/// cumulative delivered count (`snd_una`) was — the pair BBR turns into
/// a delivery-rate sample when the segment is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SendStamp {
    at: SimTime,
    delivered: u64,
}

/// Outputs a TCP endpoint hands to the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOutput {
    /// Transmit this segment toward the peer.
    Send(Segment),
    /// (Re)arm the retransmission timer after this delay, replacing any
    /// previously armed timer.
    ArmTimer(SimDuration),
    /// Cancel the retransmission timer (no data outstanding).
    CancelTimer,
}

/// TCP Reno sender with an infinite backlog.
///
/// # Examples
///
/// ```
/// use gr_transport::tcp::{TcpSender, TcpConfig, TcpOutput};
/// use sim::SimTime;
///
/// let mut s = TcpSender::new(gr_transport::FlowId(0), TcpConfig::default());
/// let out = s.start(SimTime::ZERO);
/// // Initial window: one segment plus the armed timer.
/// assert!(matches!(out[0], TcpOutput::Send(_)));
/// ```
#[derive(Debug)]
pub struct TcpSender {
    flow: FlowId,
    cfg: TcpConfig,
    next_seq: u64,
    snd_una: u64,
    cc: Cc,
    rtt: RttEstimator,
    dupacks: u32,
    in_recovery: bool,
    /// Highest sequence outstanding when fast recovery began; recovery
    /// ends only once everything up to here is acknowledged (NewReno).
    recover: u64,
    rto: RtoEstimator,
    send_times: HashMap<u64, SendStamp>,
    timer_armed: bool,
    /// Retransmissions performed (fast + timeout), for the cross-layer
    /// spoof detector and experiment reporting.
    pub retransmissions: u64,
    /// Timeout events.
    pub timeouts: u64,
    cwnd_timeline: TimeWeightedMean,
    /// Flight recorder and the station id hosting this sender, if this
    /// run records (see [`TcpSender::set_recorder`]).
    recorder: Option<(::obs::RecorderHandle, u16)>,
    /// Scratch buffer the controller's observability records drain into
    /// (always drained, emitted only when a recorder is attached).
    cc_obs: Vec<CcObs>,
}

impl TcpSender {
    /// Creates a sender for `flow`.
    pub fn new(flow: FlowId, cfg: TcpConfig) -> Self {
        let cc = Cc::new(cfg.cc, cfg.initial_ssthresh, cfg.max_window);
        let mut cwnd_timeline = TimeWeightedMean::new();
        cwnd_timeline.set(SimTime::ZERO, cc.cwnd().min(cfg.max_window));
        TcpSender {
            flow,
            next_seq: 0,
            snd_una: 0,
            cc,
            rtt: RttEstimator::new(),
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            rto: RtoEstimator::new(cfg.min_rto, cfg.max_rto),
            send_times: HashMap::new(),
            timer_armed: false,
            retransmissions: 0,
            timeouts: 0,
            cwnd_timeline,
            recorder: None,
            cc_obs: Vec::new(),
            cfg,
        }
    }

    /// Installs a flight recorder; `node` is the station the sender runs
    /// on (transport events are attributed to it). Instrumentation sites
    /// are no-ops until this is called.
    pub fn set_recorder(&mut self, recorder: ::obs::RecorderHandle, node: u16) {
        self.recorder = Some((recorder, node));
    }

    fn obs_emit(&self, at: SimTime, kind: &'static ::obs::EventKind, vals: &[f64]) {
        if let Some((rec, node)) = &self.recorder {
            rec.borrow_mut().emit(at, *node, kind, vals);
        }
    }

    /// The flow identifier.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current congestion window in segments.
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Current slow-start threshold in segments (model-based controllers
    /// report the receiver window cap).
    pub fn ssthresh(&self) -> f64 {
        self.cc.ssthresh()
    }

    /// The congestion controller configured for this sender.
    pub fn cc_config(&self) -> CcConfig {
        self.cfg.cc
    }

    /// The shared passive RTT estimator (smoothed/min RTT).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Segments in flight.
    pub fn flight_size(&self) -> u64 {
        self.next_seq - self.snd_una
    }

    /// Time-weighted average congestion window over `[0, end]`
    /// (paper Table II).
    pub fn avg_cwnd(&self, end: SimTime) -> Option<f64> {
        self.cwnd_timeline.finish(end)
    }

    fn effective_window(&self) -> u64 {
        self.cc.cwnd().min(self.cfg.max_window).floor().max(1.0) as u64
    }

    fn record_cwnd(&mut self, now: SimTime) {
        self.cwnd_timeline
            .set(now, self.cc.cwnd().min(self.cfg.max_window));
        self.obs_emit(
            now,
            &crate::obs::CWND,
            &[
                self.flow.0 as f64,
                self.cc.cwnd(),
                self.cc.ssthresh(),
                self.flight_size() as f64,
            ],
        );
        self.drain_cc_obs(now);
    }

    /// Drains the controller's queued observability records. Always
    /// drains (bounded memory whether or not this run records); emits
    /// only when a recorder is attached. NewReno queues nothing, so the
    /// default path performs no work here.
    fn drain_cc_obs(&mut self, now: SimTime) {
        let mut queue = std::mem::take(&mut self.cc_obs);
        self.cc.take_obs(&mut queue);
        if self.recorder.is_some() {
            let flow = self.flow.0 as f64;
            for rec in &queue {
                match *rec {
                    CcObs::State {
                        state,
                        pacing_gain,
                        btl_bw_sps,
                        min_rtt_us,
                    } => self.obs_emit(
                        now,
                        &crate::obs::CC_STATE,
                        &[flow, state as f64, pacing_gain, btl_bw_sps, min_rtt_us],
                    ),
                    CcObs::Pacing { pacing_sps } => {
                        self.obs_emit(now, &crate::obs::CC_PACING, &[flow, pacing_sps])
                    }
                    CcObs::SsExit { cwnd } => {
                        self.obs_emit(now, &crate::obs::CC_SS_EXIT, &[flow, cwnd])
                    }
                }
            }
        }
        queue.clear();
        self.cc_obs = queue;
    }

    fn fill_window(&mut self, now: SimTime, out: &mut Vec<TcpOutput>) {
        while self.next_seq < self.snd_una + self.effective_window() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.send_times.insert(
                seq,
                SendStamp {
                    at: now,
                    delivered: self.snd_una,
                },
            );
            self.cc.on_send(now, seq);
            out.push(TcpOutput::Send(Segment::tcp_data(
                self.flow,
                seq,
                self.cfg.mss,
            )));
        }
    }

    fn manage_timer(&mut self, out: &mut Vec<TcpOutput>) {
        if self.snd_una < self.next_seq {
            out.push(TcpOutput::ArmTimer(self.rto.rto()));
            self.timer_armed = true;
        } else if self.timer_armed {
            out.push(TcpOutput::CancelTimer);
            self.timer_armed = false;
        }
    }

    /// Opens the connection: sends the initial window.
    pub fn start(&mut self, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        self.fill_window(now, &mut out);
        self.manage_timer(&mut out);
        out
    }

    /// Handles a cumulative ACK (`ack` = peer's next expected sequence).
    pub fn on_ack(&mut self, now: SimTime, ack: u64) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        if ack > self.next_seq {
            // Corrupt/duplicate future ACK; ignore defensively.
            return out;
        }
        if ack > self.snd_una {
            // New data acknowledged.
            let mut stamp_info = None;
            if let Some(stamp) = self.send_times.remove(&(ack - 1)) {
                // Karn-valid sample: the newest acked segment was never
                // retransmitted (retransmission removes its stamp).
                let rtt = now.saturating_since(stamp.at);
                self.rto.sample(rtt);
                self.rtt.sample(now, rtt);
                stamp_info = Some(stamp);
                if let Some((rec, _)) = &self.recorder {
                    rec.borrow_mut()
                        .record_hist(crate::obs::HIST_RTT_US, rtt.as_micros() as f64);
                }
            }
            for seq in self.snd_una..ack {
                self.send_times.remove(&seq);
            }
            let newly_acked = (ack - self.snd_una) as f64;
            self.snd_una = ack;
            self.dupacks = 0;
            let sample = AckSample {
                now,
                newly_acked,
                flight: self.next_seq - self.snd_una,
                delivered: self.snd_una,
                delivered_at_send: stamp_info.map(|s| s.delivered),
                sent_at: stamp_info.map(|s| s.at),
                rtt: &self.rtt,
            };
            if self.in_recovery {
                self.cc.on_ack_in_recovery(&sample);
                if ack > self.recover {
                    // Full ACK: leave fast recovery.
                    self.in_recovery = false;
                    self.cc.on_recovery_exit(now);
                } else {
                    // NewReno partial ACK: the next hole is lost too —
                    // retransmit it immediately, let the controller
                    // deflate by the amount acknowledged, stay in
                    // recovery.
                    self.retransmissions += 1;
                    self.send_times.remove(&ack); // Karn
                    self.cc.on_partial_ack(now, newly_acked);
                    self.obs_emit(
                        now,
                        &crate::obs::RETX_PARTIAL,
                        &[self.flow.0 as f64, ack as f64],
                    );
                    out.push(TcpOutput::Send(Segment::tcp_data(
                        self.flow,
                        ack,
                        self.cfg.mss,
                    )));
                }
            } else {
                self.cc.on_ack(&sample);
            }
            self.record_cwnd(now);
            self.fill_window(now, &mut out);
            self.manage_timer(&mut out);
        } else if ack == self.snd_una && self.flight_size() > 0 {
            // Duplicate ACK.
            self.dupacks += 1;
            if self.in_recovery {
                // Controller-side window inflation keeps the pipe full.
                self.cc.on_dup_ack(now);
                self.record_cwnd(now);
                self.fill_window(now, &mut out);
            } else if self.dupacks == 3 {
                // Fast retransmit + fast recovery.
                self.cc.on_loss(now, self.flight_size());
                self.in_recovery = true;
                self.recover = self.next_seq.saturating_sub(1);
                self.retransmissions += 1;
                self.send_times.remove(&self.snd_una); // Karn
                self.record_cwnd(now);
                self.obs_emit(
                    now,
                    &crate::obs::RETX_FAST,
                    &[self.flow.0 as f64, self.snd_una as f64],
                );
                out.push(TcpOutput::Send(Segment::tcp_data(
                    self.flow,
                    self.snd_una,
                    self.cfg.mss,
                )));
                out.push(TcpOutput::ArmTimer(self.rto.rto()));
                self.timer_armed = true;
            }
        }
        out
    }

    /// Handles a retransmission-timer expiry.
    pub fn on_timeout(&mut self, now: SimTime) -> Vec<TcpOutput> {
        let mut out = Vec::new();
        if self.snd_una >= self.next_seq {
            return out; // nothing outstanding; stale timer
        }
        self.timeouts += 1;
        self.cc.on_rto(now, self.flight_size());
        self.dupacks = 0;
        self.in_recovery = false;
        self.recover = self.next_seq.saturating_sub(1);
        self.rto.back_off();
        self.retransmissions += 1;
        self.send_times.remove(&self.snd_una); // Karn
        self.record_cwnd(now);
        if self.recorder.is_some() {
            self.obs_emit(
                now,
                &crate::obs::RTO_TIMEOUT,
                &[
                    self.flow.0 as f64,
                    self.rto.rto().as_micros() as f64,
                    self.timeouts as f64,
                ],
            );
            self.obs_emit(
                now,
                &crate::obs::RETX_TIMEOUT,
                &[self.flow.0 as f64, self.snd_una as f64],
            );
        }
        out.push(TcpOutput::Send(Segment::tcp_data(
            self.flow,
            self.snd_una,
            self.cfg.mss,
        )));
        out.push(TcpOutput::ArmTimer(self.rto.rto()));
        self.timer_armed = true;
        out
    }
}

/// Snapshot = congestion/retransmission state in declaration order. The
/// flow id and [`TcpConfig`] are configuration the owner rebuilds; the
/// recorder re-attaches separately. Send times are serialized sorted by
/// sequence number so the encoding is `HashMap`-order independent.
impl snap::SnapState for TcpSender {
    fn snap_save(&self, w: &mut snap::Enc) {
        use snap::SnapValue as _;
        w.u64(self.next_seq);
        w.u64(self.snd_una);
        self.cc.snap_save(w);
        self.rtt.save(w);
        w.u32(self.dupacks);
        w.bool(self.in_recovery);
        w.u64(self.recover);
        self.rto.save(w);
        let mut times: Vec<(u64, SimTime, u64)> = self
            .send_times
            .iter()
            .map(|(&k, &v)| (k, v.at, v.delivered))
            .collect();
        times.sort_unstable_by_key(|&(seq, _, _)| seq);
        times.save(w);
        w.bool(self.timer_armed);
        w.u64(self.retransmissions);
        w.u64(self.timeouts);
        self.cwnd_timeline.save(w);
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        use snap::SnapValue as _;
        self.next_seq = r.u64()?;
        self.snd_una = r.u64()?;
        self.cc.snap_restore(r)?;
        self.rtt = RttEstimator::load(r)?;
        self.dupacks = r.u32()?;
        self.in_recovery = r.bool()?;
        self.recover = r.u64()?;
        self.rto = RtoEstimator::load(r)?;
        self.send_times = Vec::<(u64, SimTime, u64)>::load(r)?
            .into_iter()
            .map(|(seq, at, delivered)| (seq, SendStamp { at, delivered }))
            .collect();
        self.timer_armed = r.bool()?;
        self.retransmissions = r.u64()?;
        self.timeouts = r.u64()?;
        self.cwnd_timeline = TimeWeightedMean::load(r)?;
        Ok(())
    }
}

/// TCP receiver: in-order delivery with out-of-order buffering and an
/// immediate cumulative ACK per data segment.
#[derive(Debug)]
pub struct TcpReceiver {
    flow: FlowId,
    expected: u64,
    buffer: BTreeSet<u64>,
    /// Distinct data segments received (first copies) — the paper's
    /// goodput numerator.
    pub distinct_segments: u64,
    /// Bytes of those segments (wire bytes).
    pub distinct_bytes: u64,
    /// Duplicate data segments received.
    pub duplicates: u64,
}

impl TcpReceiver {
    /// Creates a receiver for `flow`.
    pub fn new(flow: FlowId) -> Self {
        TcpReceiver {
            flow,
            expected: 0,
            buffer: BTreeSet::new(),
            distinct_segments: 0,
            distinct_bytes: 0,
            duplicates: 0,
        }
    }

    /// The flow identifier.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Next expected sequence number.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Processes an arriving data segment, returning the ACK to send.
    pub fn on_data(&mut self, seq: u64, wire_bytes: usize) -> Segment {
        let is_new = seq >= self.expected && !self.buffer.contains(&seq);
        if is_new {
            self.distinct_segments += 1;
            self.distinct_bytes += wire_bytes as u64;
            if seq == self.expected {
                self.expected += 1;
                while self.buffer.remove(&self.expected) {
                    self.expected += 1;
                }
            } else {
                self.buffer.insert(seq);
            }
        } else {
            self.duplicates += 1;
        }
        Segment::tcp_ack(self.flow, self.expected)
    }
}

/// Snapshot = reassembly state and goodput counters; the flow id is
/// configuration. `BTreeSet` iterates sorted, so the encoding is
/// canonical as-is.
impl snap::SnapState for TcpReceiver {
    fn snap_save(&self, w: &mut snap::Enc) {
        use snap::SnapValue as _;
        w.u64(self.expected);
        let buffered: Vec<u64> = self.buffer.iter().copied().collect();
        buffered.save(w);
        w.u64(self.distinct_segments);
        w.u64(self.distinct_bytes);
        w.u64(self.duplicates);
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        use snap::SnapValue as _;
        self.expected = r.u64()?;
        self.buffer = Vec::<u64>::load(r)?.into_iter().collect();
        self.distinct_segments = r.u64()?;
        self.distinct_bytes = r.u64()?;
        self.duplicates = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sends(out: &[TcpOutput]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                TcpOutput::Send(Segment::TcpData { seq, .. }) => Some(*seq),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn start_sends_initial_window_of_one() {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        let out = s.start(SimTime::ZERO);
        assert_eq!(sends(&out), vec![0]);
        assert!(out.iter().any(|o| matches!(o, TcpOutput::ArmTimer(_))));
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        s.start(SimTime::ZERO);
        // ACK seq 0 → cwnd 2, sends 2 more.
        let out = s.on_ack(SimTime::from_millis(10), 1);
        assert_eq!(sends(&out), vec![1, 2]);
        assert_eq!(s.cwnd(), 2.0);
        let out = s.on_ack(SimTime::from_millis(20), 2);
        assert_eq!(sends(&out), vec![3, 4]);
        assert_eq!(s.cwnd(), 3.0);
    }

    #[test]
    fn congestion_avoidance_grows_slowly() {
        let cfg = TcpConfig {
            initial_ssthresh: 2.0,
            ..TcpConfig::default()
        };
        let mut s = TcpSender::new(FlowId(0), cfg);
        s.start(SimTime::ZERO);
        s.on_ack(SimTime::from_millis(10), 1); // cwnd 2 = ssthresh
        let cwnd_before = s.cwnd();
        s.on_ack(SimTime::from_millis(20), 2);
        assert!((s.cwnd() - (cwnd_before + 1.0 / cwnd_before)).abs() < 1e-9);
    }

    #[test]
    fn fast_retransmit_on_three_dupacks() {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        s.start(SimTime::ZERO);
        // Grow the window a bit.
        for i in 1..=6 {
            s.on_ack(SimTime::from_millis(i * 10), i);
        }
        let flight = s.flight_size();
        assert!(flight >= 4, "need enough in flight, got {flight}");
        // Three dup ACKs for seq 6.
        s.on_ack(SimTime::from_millis(100), 6);
        s.on_ack(SimTime::from_millis(101), 6);
        let out = s.on_ack(SimTime::from_millis(102), 6);
        assert_eq!(sends(&out), vec![6], "fast retransmit of snd_una");
        assert_eq!(s.retransmissions, 1);
        assert!((s.ssthresh() - (flight as f64 / 2.0).max(2.0)).abs() < 1e-9);
        // Full ACK (covering everything outstanding at entry) exits
        // recovery with cwnd = ssthresh.
        let full = s.recover + 1;
        s.on_ack(SimTime::from_millis(110), full);
        assert!(!s.in_recovery);
        assert!((s.cwnd() - s.ssthresh()).abs() < 1e-9);
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        s.start(SimTime::ZERO);
        for i in 1..=6 {
            s.on_ack(SimTime::from_millis(i * 10), i);
        }
        // Two holes: 6 and 8 lost. Dup ACKs for 6 trigger recovery.
        s.on_ack(SimTime::from_millis(100), 6);
        s.on_ack(SimTime::from_millis(101), 6);
        let out = s.on_ack(SimTime::from_millis(102), 6);
        assert_eq!(sends(&out), vec![6]);
        let recover = s.recover;
        // Partial ACK up to 8 (6..7 repaired, 8 still missing):
        // NewReno retransmits 8 immediately, stays in recovery.
        let out = s.on_ack(SimTime::from_millis(110), 8);
        assert!(sends(&out).contains(&8), "next hole must be retransmitted");
        assert!(s.in_recovery);
        assert_eq!(s.retransmissions, 2);
        // Full ACK ends recovery.
        s.on_ack(SimTime::from_millis(120), recover + 1);
        assert!(!s.in_recovery);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        s.start(SimTime::ZERO);
        for i in 1..=6 {
            s.on_ack(SimTime::from_millis(i * 10), i);
        }
        let out = s.on_timeout(SimTime::from_secs(2));
        assert_eq!(sends(&out), vec![6]);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.timeouts, 1);
        // A second timeout doubles the RTO (backoff) — the re-armed timer
        // must be at least as long.
        let rto1 = match out.last() {
            Some(TcpOutput::ArmTimer(d)) => *d,
            _ => panic!("timer must be re-armed"),
        };
        let out2 = s.on_timeout(SimTime::from_secs(4));
        let rto2 = match out2.last() {
            Some(TcpOutput::ArmTimer(d)) => *d,
            _ => panic!("timer must be re-armed"),
        };
        assert!(rto2 >= rto1 * 2 - SimDuration::from_millis(1));
    }

    #[test]
    fn stale_timeout_with_nothing_outstanding_is_ignored() {
        // Before `start` nothing is in flight; a stray timer is a no-op.
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        assert_eq!(s.flight_size(), 0);
        assert!(s.on_timeout(SimTime::from_secs(1)).is_empty());
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn infinite_backlog_keeps_pipe_full() {
        // With an infinite source, acking everything immediately refills
        // the window, so flight never drains to zero after start.
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        s.start(SimTime::ZERO);
        s.on_ack(SimTime::from_millis(5), 1);
        let next = s.next_seq;
        s.on_ack(SimTime::from_millis(6), next);
        assert!(s.flight_size() > 0);
    }

    #[test]
    fn window_respects_receiver_cap() {
        let cfg = TcpConfig {
            max_window: 4.0,
            ..TcpConfig::default()
        };
        let mut s = TcpSender::new(FlowId(0), cfg);
        s.start(SimTime::ZERO);
        for i in 1..=20 {
            s.on_ack(SimTime::from_millis(i * 10), i);
        }
        assert!(s.flight_size() <= 4);
    }

    #[test]
    fn receiver_acks_cumulatively_and_buffers_ooo() {
        let mut r = TcpReceiver::new(FlowId(0));
        assert_eq!(r.on_data(0, 1078), Segment::tcp_ack(FlowId(0), 1));
        // Gap: 2 arrives before 1 → dup ack 1, buffered.
        assert_eq!(r.on_data(2, 1078), Segment::tcp_ack(FlowId(0), 1));
        // 1 fills the hole → ack jumps to 3.
        assert_eq!(r.on_data(1, 1078), Segment::tcp_ack(FlowId(0), 3));
        assert_eq!(r.distinct_segments, 3);
        assert_eq!(r.duplicates, 0);
    }

    #[test]
    fn receiver_counts_duplicates_once() {
        let mut r = TcpReceiver::new(FlowId(0));
        r.on_data(0, 1078);
        r.on_data(0, 1078);
        assert_eq!(r.distinct_segments, 1);
        assert_eq!(r.duplicates, 1);
        // Old (already delivered) segment is also a duplicate.
        r.on_data(5, 1078);
        r.on_data(5, 1078);
        assert_eq!(r.duplicates, 2);
    }

    #[test]
    fn avg_cwnd_is_time_weighted() {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        s.start(SimTime::ZERO);
        s.on_ack(SimTime::from_secs(1), 1); // cwnd 1 for 1 s, then 2
        let avg = s.avg_cwnd(SimTime::from_secs(2)).unwrap();
        assert!((avg - 1.5).abs() < 1e-9, "avg={avg}");
    }

    #[test]
    fn sender_snapshot_round_trips_mid_recovery() {
        use snap::{Dec, Enc, SnapState};
        let mut a = TcpSender::new(FlowId(3), TcpConfig::default());
        a.start(SimTime::ZERO);
        for i in 1..=6 {
            a.on_ack(SimTime::from_millis(i * 10), i);
        }
        // Three dup ACKs put the sender in fast recovery mid-snapshot.
        a.on_ack(SimTime::from_millis(100), 6);
        a.on_ack(SimTime::from_millis(101), 6);
        a.on_ack(SimTime::from_millis(102), 6);
        assert!(a.in_recovery);
        let mut w = Enc::new();
        a.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut b = TcpSender::new(FlowId(3), TcpConfig::default());
        b.snap_restore(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(a.snap_digest(), b.snap_digest());
        // Both react identically to a partial ACK and a later timeout.
        let (xa, xb) = (
            a.on_ack(SimTime::from_millis(110), 8),
            b.on_ack(SimTime::from_millis(110), 8),
        );
        assert_eq!(xa, xb);
        let (xa, xb) = (
            a.on_timeout(SimTime::from_secs(2)),
            b.on_timeout(SimTime::from_secs(2)),
        );
        assert_eq!(xa, xb);
        assert_eq!(a.cwnd(), b.cwnd());
        assert_eq!(a.retransmissions, b.retransmissions);
    }

    #[test]
    fn future_ack_ignored() {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        s.start(SimTime::ZERO);
        assert!(s.on_ack(SimTime::from_millis(1), 999).is_empty());
        assert_eq!(s.snd_una, 0);
        assert_eq!(s.cwnd(), 1.0, "future ACK must not move the window");
    }

    #[test]
    fn karn_excludes_retransmitted_samples() {
        // RFC 6298 §3: no RTT sample from a retransmitted segment. The
        // RTO that precedes the retransmission removes the send stamp,
        // so the ACK that finally covers it yields no sample.
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        s.start(SimTime::ZERO);
        s.on_ack(SimTime::from_millis(10), 1); // clean sample
        let (srtt_before, latest_before) = (s.rtt().srtt(), s.rtt().latest());
        s.on_timeout(SimTime::from_secs(2)); // retransmits seq 1
                                             // The ACK for the retransmitted segment arrives much later; a
                                             // naive sample would measure from the *original* send.
        s.on_ack(SimTime::from_secs(3), 2);
        assert_eq!(s.rtt().srtt(), srtt_before, "Karn: sample must be excluded");
        assert_eq!(s.rtt().latest(), latest_before);
        // The next never-retransmitted segment contributes again.
        let next = s.snd_una + 1;
        s.on_ack(SimTime::from_secs(3) + SimDuration::from_millis(40), next);
        assert_ne!(s.rtt().latest(), latest_before);
    }

    /// Drives a sender through a deterministic pseudo-random mix of
    /// cumulative ACKs, duplicate ACKs, and timeouts.
    fn churn(cfg: CcConfig, steps: u32, mut check: impl FnMut(&TcpSender)) {
        let tcp = TcpConfig {
            cc: cfg,
            max_window: 40.0,
            ..TcpConfig::default()
        };
        let mut s = TcpSender::new(FlowId(0), tcp);
        s.start(SimTime::ZERO);
        let mut state = 0x9e37_79b9_u64 ^ u64::from(cfg.algo.tag()) << 32;
        let mut now = SimTime::ZERO;
        for step in 0..steps {
            // xorshift64 keeps the schedule reproducible without rand.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            now += SimDuration::from_micros(500 + state % 20_000);
            match state % 10 {
                0 => {
                    s.on_timeout(now);
                }
                1..=2 => {
                    // Duplicate ACK burst.
                    for _ in 0..=(state % 4) {
                        s.on_ack(now, s.snd_una);
                    }
                }
                _ => {
                    let span = 1 + state % 5;
                    let ack = (s.snd_una + span).min(s.next_seq);
                    s.on_ack(now, ack);
                }
            }
            check(&s);
            let _ = step;
        }
    }

    #[test]
    fn cwnd_stays_within_bounds_for_every_controller() {
        for cfg in CcConfig::all() {
            churn(cfg, 400, |s| {
                assert!(
                    s.cwnd() >= 1.0,
                    "{}: cwnd {} fell below one segment",
                    cfg.name(),
                    s.cwnd()
                );
                assert!(s.cwnd().is_finite(), "{}: cwnd not finite", cfg.name());
                assert!(
                    s.effective_window() <= 40,
                    "{}: effective window {} exceeds the receiver cap",
                    cfg.name(),
                    s.effective_window()
                );
            });
        }
    }

    #[test]
    fn stale_and_empty_flight_acks_never_move_cwnd() {
        for cfg in CcConfig::all() {
            let tcp = TcpConfig {
                cc: cfg,
                ..TcpConfig::default()
            };
            let mut s = TcpSender::new(FlowId(0), tcp);
            s.start(SimTime::ZERO);
            s.on_ack(SimTime::from_millis(10), 1);
            let next = s.next_seq;
            s.on_ack(SimTime::from_millis(20), next);
            let cwnd = s.cwnd();
            // Old (stale) ACK below snd_una: nothing in flight changes.
            s.on_ack(SimTime::from_millis(30), 0);
            assert_eq!(s.cwnd(), cwnd, "{}: stale ACK moved cwnd", cfg.name());
            // Future ACK beyond next_seq is ignored outright.
            s.on_ack(SimTime::from_millis(31), s.next_seq + 50);
            assert_eq!(s.cwnd(), cwnd, "{}: future ACK moved cwnd", cfg.name());
        }
    }

    #[test]
    fn every_controller_snapshot_round_trips_through_churn() {
        use snap::{Dec, Enc, SnapState};
        for cfg in CcConfig::all() {
            let tcp = TcpConfig {
                cc: cfg,
                ..TcpConfig::default()
            };
            let mut a = TcpSender::new(FlowId(1), tcp.clone());
            a.start(SimTime::ZERO);
            for i in 1..=9 {
                a.on_ack(SimTime::from_millis(i * 7), i);
            }
            a.on_ack(SimTime::from_millis(80), 9);
            a.on_ack(SimTime::from_millis(81), 9);
            a.on_ack(SimTime::from_millis(82), 9); // enter recovery
            let mut w = Enc::new();
            a.snap_save(&mut w);
            let bytes = w.into_bytes();
            let mut b = TcpSender::new(FlowId(1), tcp);
            b.snap_restore(&mut Dec::new(&bytes)).unwrap();
            assert_eq!(a.snap_digest(), b.snap_digest(), "{}", cfg.name());
            let (xa, xb) = (
                a.on_ack(SimTime::from_millis(95), 11),
                b.on_ack(SimTime::from_millis(95), 11),
            );
            assert_eq!(xa, xb, "{}: divergence after restore", cfg.name());
            assert_eq!(a.cwnd().to_bits(), b.cwnd().to_bits(), "{}", cfg.name());
        }
    }

    #[test]
    fn restoring_under_a_different_controller_is_corrupt() {
        use snap::{Dec, Enc, SnapState};
        let mut a = TcpSender::new(FlowId(0), TcpConfig::default());
        a.start(SimTime::ZERO);
        let mut w = Enc::new();
        a.snap_save(&mut w);
        let bytes = w.into_bytes();
        let cfg = TcpConfig {
            cc: CcConfig::bbr(),
            ..TcpConfig::default()
        };
        let mut b = TcpSender::new(FlowId(0), cfg);
        assert!(matches!(
            b.snap_restore(&mut Dec::new(&bytes)),
            Err(snap::SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn bbr_cc_state_events_fit_the_recorder_payload_width() {
        // cc_state is the widest event kind (5 values); a
        // recorder-attached BBR sender must emit it without tripping
        // the obs::MAX_FIELDS bound.
        let rec = ::obs::ObsSpec::default().recorder();
        let cfg = TcpConfig {
            cc: CcConfig::bbr(),
            ..TcpConfig::default()
        };
        let mut s = TcpSender::new(FlowId(0), cfg);
        s.set_recorder(rec.clone(), 1);
        s.start(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += SimDuration::from_millis(10);
            let ack = (s.snd_una + 1).min(s.next_seq);
            s.on_ack(now, ack);
        }
        let seen: Vec<&'static str> = rec.borrow().events().map(|e| e.kind.name).collect();
        assert!(
            seen.contains(&"cc_state"),
            "no cc_state among {} events",
            seen.len()
        );
    }
}
