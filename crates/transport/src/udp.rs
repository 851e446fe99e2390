//! Constant-bit-rate UDP source, sink, and the probe responder used by
//! the fake-ACK detector.

use std::collections::HashSet;

use sim::{SimDuration, SimTime};

use crate::packet::{FlowId, Segment};

/// CBR traffic generator: one fixed-size datagram every `interval`.
///
/// The paper saturates the medium with CBR flows of equal rate so that
/// goodput differences are attributable to MAC-layer effects alone.
///
/// # Examples
///
/// ```
/// use gr_transport::udp::CbrSource;
/// use gr_transport::FlowId;
/// use sim::SimDuration;
///
/// let mut src = CbrSource::new(FlowId(1), 1024, SimDuration::from_millis(1));
/// let seg = src.next_datagram();
/// assert_eq!(src.interval(), SimDuration::from_millis(1));
/// # let _ = seg;
/// ```
#[derive(Debug, Clone)]
pub struct CbrSource {
    flow: FlowId,
    payload: usize,
    interval: SimDuration,
    next_seq: u64,
}

impl CbrSource {
    /// Creates a source emitting `payload`-byte datagrams every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(flow: FlowId, payload: usize, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "CBR interval must be positive");
        CbrSource {
            flow,
            payload,
            interval,
            next_seq: 0,
        }
    }

    /// Creates a source that offers `rate_bps` of *payload* bits per
    /// second using `payload`-byte datagrams.
    ///
    /// # Panics
    ///
    /// Panics if [`CbrSource::rate_interval`] is zero.
    pub fn with_rate(flow: FlowId, payload: usize, rate_bps: u64) -> Self {
        Self::new(flow, payload, Self::rate_interval(payload, rate_bps))
    }

    /// The interval at which `payload`-byte datagrams offer `rate_bps`,
    /// rounded down to the nanosecond: zero for an empty payload or a
    /// rate above `payload` bytes per nanosecond.
    pub fn rate_interval(payload: usize, rate_bps: u64) -> SimDuration {
        SimDuration::from_nanos(
            (payload as u64 * 8).saturating_mul(1_000_000_000) / rate_bps.max(1),
        )
    }

    /// The flow identifier.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The inter-datagram interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of datagrams generated so far.
    pub fn generated(&self) -> u64 {
        self.next_seq
    }

    /// Produces the next datagram (call once per tick).
    pub fn next_datagram(&mut self) -> Segment {
        let seq = self.next_seq;
        self.next_seq += 1;
        Segment::udp(self.flow, seq, self.payload)
    }
}

/// Snapshot = the sequence counter only; flow, payload size and interval
/// are configuration the owner rebuilds.
impl snap::SnapState for CbrSource {
    fn snap_save(&self, w: &mut snap::Enc) {
        w.u64(self.next_seq);
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        self.next_seq = r.u64()?;
        Ok(())
    }
}

/// UDP sink: counts distinct datagrams (the paper's goodput numerator).
#[derive(Debug, Clone, Default)]
pub struct UdpSink {
    seen: HashSet<u64>,
    /// Distinct datagrams received.
    pub distinct_datagrams: u64,
    /// Wire bytes of those datagrams.
    pub distinct_bytes: u64,
    /// Duplicates received.
    pub duplicates: u64,
    first_rx: Option<SimTime>,
    last_rx: Option<SimTime>,
}

impl UdpSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        UdpSink::default()
    }

    /// Processes one received datagram.
    pub fn on_data(&mut self, now: SimTime, seq: u64, wire_bytes: usize) {
        if self.seen.insert(seq) {
            self.distinct_datagrams += 1;
            self.distinct_bytes += wire_bytes as u64;
            self.first_rx.get_or_insert(now);
            self.last_rx = Some(now);
        } else {
            self.duplicates += 1;
        }
    }

    /// First and last reception instants, if any datagram arrived.
    pub fn rx_span(&self) -> Option<(SimTime, SimTime)> {
        Some((self.first_rx?, self.last_rx?))
    }
}

/// Seen-set entries are serialized sorted so the encoding is
/// `HashSet`-order independent.
impl snap::SnapState for UdpSink {
    fn snap_save(&self, w: &mut snap::Enc) {
        use snap::SnapValue as _;
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        seen.save(w);
        w.u64(self.distinct_datagrams);
        w.u64(self.distinct_bytes);
        w.u64(self.duplicates);
        self.first_rx.save(w);
        self.last_rx.save(w);
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        use snap::SnapValue as _;
        self.seen = Vec::<u64>::load(r)?.into_iter().collect();
        self.distinct_datagrams = r.u64()?;
        self.distinct_bytes = r.u64()?;
        self.duplicates = r.u64()?;
        self.first_rx = Option::<SimTime>::load(r)?;
        self.last_rx = Option::<SimTime>::load(r)?;
        Ok(())
    }
}

/// Probe responder + sender-side loss bookkeeping for the fake-ACK
/// detector (§VII-C): probes that arrive *uncorrupted* are echoed; the
/// sender's application loss rate is `1 − responses/requests`.
#[derive(Debug, Clone, Default)]
pub struct ProbeStats {
    /// Probe requests sent.
    pub sent: u64,
    /// Probe responses received.
    pub echoed: u64,
}

impl ProbeStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        ProbeStats::default()
    }

    /// Application-layer loss rate observed via probing.
    pub fn app_loss(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - self.echoed as f64 / self.sent as f64
        }
    }
}

impl snap::SnapValue for ProbeStats {
    fn save(&self, w: &mut snap::Enc) {
        w.u64(self.sent);
        w.u64(self.echoed);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(ProbeStats {
            sent: r.u64()?,
            echoed: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_rate_to_interval() {
        // 1024 B at 8.192 Mb/s payload rate → 1 ms interval.
        let src = CbrSource::with_rate(FlowId(0), 1024, 8_192_000);
        assert_eq!(src.interval(), SimDuration::from_millis(1));
    }

    #[test]
    fn cbr_sequences_increment() {
        let mut src = CbrSource::new(FlowId(0), 512, SimDuration::from_millis(2));
        let a = src.next_datagram();
        let b = src.next_datagram();
        match (a, b) {
            (Segment::UdpData { seq: s0, .. }, Segment::UdpData { seq: s1, .. }) => {
                assert_eq!((s0, s1), (0, 1));
            }
            _ => panic!("expected UDP datagrams"),
        }
        assert_eq!(src.generated(), 2);
    }

    #[test]
    fn sink_counts_distinct_only() {
        let mut sink = UdpSink::new();
        sink.on_data(SimTime::from_secs(1), 0, 1052);
        sink.on_data(SimTime::from_secs(2), 0, 1052);
        sink.on_data(SimTime::from_secs(3), 1, 1052);
        assert_eq!(sink.distinct_datagrams, 2);
        assert_eq!(sink.duplicates, 1);
        assert_eq!(sink.distinct_bytes, 2104);
        assert_eq!(
            sink.rx_span(),
            Some((SimTime::from_secs(1), SimTime::from_secs(3)))
        );
    }

    #[test]
    fn probe_loss_rate() {
        let mut p = ProbeStats::new();
        assert_eq!(p.app_loss(), 0.0);
        p.sent = 100;
        p.echoed = 80;
        assert!((p.app_loss() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "CBR interval must be positive")]
    fn zero_interval_panics() {
        let _ = CbrSource::new(FlowId(0), 10, SimDuration::ZERO);
    }
}
