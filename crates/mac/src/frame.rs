//! 802.11 MAC frames as the simulator models them.
//!
//! Four frame kinds participate in DCF: RTS, CTS, DATA and ACK. Every frame
//! carries a Duration field (the NAV reservation, in microseconds, capped at
//! 32 767 µs per the standard) — the field greedy receivers inflate.
//!
//! Control frames on the air carry only a receiver address; the simulator
//! additionally records the *actual* transmitter ([`Frame::actual_tx`]) so
//! the medium can compute received power honestly even when the claimed
//! source is forged (spoofed ACKs).

use std::fmt;

use phy::{airtime, AirtimeTable, PhyParams};
use sim::SimDuration;

/// Maximum value of the 802.11 Duration/NAV field, in microseconds.
pub const MAX_NAV_US: u32 = 32_767;

/// Wire size of an RTS frame in bytes.
pub const RTS_BYTES: usize = 20;
/// Wire size of a CTS frame in bytes.
pub const CTS_BYTES: usize = 14;
/// Wire size of a MAC ACK frame in bytes.
pub const ACK_BYTES: usize = 14;
/// MAC header + FCS overhead on a data frame, in bytes.
pub const DATA_HEADER_BYTES: usize = 28;
/// Size of the two MAC address fields checked by the corrupted-frame study
/// (Table I): 6 bytes each for source and destination.
pub const ADDR_FIELD_BYTES: usize = 6;

/// Identifier of a station (node) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The broadcast address.
    pub const BROADCAST: NodeId = NodeId(u16::MAX);
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::BROADCAST {
            write!(f, "n*")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

impl snap::SnapValue for NodeId {
    fn save(&self, w: &mut snap::Enc) {
        w.u16(self.0);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(NodeId(r.u16()?))
    }
}

/// The kind of an 802.11 frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Request-to-send control frame.
    Rts,
    /// Clear-to-send control frame.
    Cts,
    /// Data frame (carries an MSDU).
    Data,
    /// MAC-layer acknowledgement.
    Ack,
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameKind::Rts => "RTS",
            FrameKind::Cts => "CTS",
            FrameKind::Data => "DATA",
            FrameKind::Ack => "ACK",
        };
        write!(f, "{s}")
    }
}

impl snap::SnapValue for FrameKind {
    fn save(&self, w: &mut snap::Enc) {
        w.u8(match self {
            FrameKind::Rts => 0,
            FrameKind::Cts => 1,
            FrameKind::Data => 2,
            FrameKind::Ack => 3,
        });
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(match r.u8()? {
            0 => FrameKind::Rts,
            1 => FrameKind::Cts,
            2 => FrameKind::Data,
            3 => FrameKind::Ack,
            t => return Err(snap::SnapError::Corrupt(format!("frame kind tag {t}"))),
        })
    }
}

/// An upper-layer payload the MAC can carry in a data frame.
///
/// The MAC is generic over the payload so the transport layer can plug in
/// its segments without the MAC depending on transport types. The one thing
/// the MAC (and greedy policies) must know is whether a payload is a
/// transport-layer acknowledgement — the paper's NAV-inflation misbehavior
/// inflates RTS/DATA frames *only when they carry TCP ACKs*, because those
/// are the only data frames a receiver legitimately transmits.
pub trait Msdu: Clone + fmt::Debug + snap::SnapValue {
    /// Bytes this payload occupies inside the MAC body (transport + IP
    /// headers included).
    fn wire_bytes(&self) -> usize;

    /// True if this payload is a transport-layer acknowledgement
    /// (e.g. a TCP ACK segment).
    fn is_transport_ack(&self) -> bool {
        false
    }
}

/// Minimal payload for tests and examples: a byte count.
impl Msdu for usize {
    fn wire_bytes(&self) -> usize {
        *self
    }
}

/// One 802.11 frame in flight.
#[derive(Debug, Clone)]
pub struct Frame<M> {
    /// Frame kind.
    pub kind: FrameKind,
    /// Claimed source (transmitter address as the protocol sees it). For
    /// spoofed ACKs this is the victim receiver, not the spoofer.
    pub src: NodeId,
    /// Destination (receiver address).
    pub dst: NodeId,
    /// Node that physically transmitted the frame (drives received power).
    pub actual_tx: NodeId,
    /// Duration/NAV field in microseconds (≤ [`MAX_NAV_US`]).
    pub duration_us: u32,
    /// MAC sequence number (data frames; used for duplicate detection).
    pub seq: u64,
    /// Retry flag (set on retransmissions).
    pub retry: bool,
    /// PHY rate for this frame's payload portion in bits per second;
    /// `None` uses the PHY default data rate. Set by rate-adaptive
    /// senders (ARF) on data frames; control frames always go at the
    /// basic rate.
    pub rate_bps: Option<u64>,
    /// Upper-layer payload (data frames only).
    pub body: Option<M>,
}

impl<M: Msdu> Frame<M> {
    /// Builds an RTS from `src` to `dst` reserving `duration_us`.
    pub fn rts(src: NodeId, dst: NodeId, duration_us: u32) -> Self {
        Frame {
            kind: FrameKind::Rts,
            src,
            dst,
            actual_tx: src,
            duration_us: duration_us.min(MAX_NAV_US),
            seq: 0,
            retry: false,
            rate_bps: None,
            body: None,
        }
    }

    /// Builds a CTS answering an RTS. CTS frames carry no transmitter
    /// address on air; `src` records the responder for bookkeeping.
    pub fn cts(src: NodeId, dst: NodeId, duration_us: u32) -> Self {
        Frame {
            kind: FrameKind::Cts,
            src,
            dst,
            actual_tx: src,
            duration_us: duration_us.min(MAX_NAV_US),
            seq: 0,
            retry: false,
            rate_bps: None,
            body: None,
        }
    }

    /// Builds a data frame carrying `body`.
    pub fn data(src: NodeId, dst: NodeId, duration_us: u32, seq: u64, body: M) -> Self {
        Frame {
            kind: FrameKind::Data,
            src,
            dst,
            actual_tx: src,
            duration_us: duration_us.min(MAX_NAV_US),
            seq,
            retry: false,
            rate_bps: None,
            body: Some(body),
        }
    }

    /// Builds a MAC ACK from `src` to `dst`.
    pub fn ack(src: NodeId, dst: NodeId, duration_us: u32) -> Self {
        Frame {
            kind: FrameKind::Ack,
            src,
            dst,
            actual_tx: src,
            duration_us: duration_us.min(MAX_NAV_US),
            seq: 0,
            retry: false,
            rate_bps: None,
            body: None,
        }
    }

    /// Builds an ACK that *claims* to come from `forged_src` but is
    /// physically transmitted by `spoofer` — the paper's misbehavior 2.
    pub fn spoofed_ack(spoofer: NodeId, forged_src: NodeId, dst: NodeId) -> Self {
        let mut f = Frame::ack(forged_src, dst, 0);
        f.actual_tx = spoofer;
        f
    }

    /// True if the claimed source differs from the physical transmitter.
    pub fn is_spoofed(&self) -> bool {
        self.src != self.actual_tx
    }

    /// Total MAC bytes on air (header/control size plus payload).
    pub fn mac_bytes(&self) -> usize {
        match self.kind {
            FrameKind::Rts => RTS_BYTES,
            FrameKind::Cts => CTS_BYTES,
            FrameKind::Ack => ACK_BYTES,
            FrameKind::Data => DATA_HEADER_BYTES + self.body.as_ref().map_or(0, |b| b.wire_bytes()),
        }
    }

    /// Airtime of this frame: data frames at their selected rate (or the
    /// PHY default), control frames at the basic rate.
    pub fn airtime(&self, params: &PhyParams) -> SimDuration {
        match self.kind {
            FrameKind::Data => airtime::tx_duration_at(
                params,
                self.mac_bytes(),
                self.rate_bps.unwrap_or(params.data_rate_bps),
            ),
            _ => airtime::tx_duration_basic(params, self.mac_bytes()),
        }
    }

    /// Airtime via a memoizing [`AirtimeTable`]; exact
    /// [`Frame::airtime`] output for the table's PHY parameters.
    pub fn airtime_with(&self, table: &mut AirtimeTable) -> SimDuration {
        match self.kind {
            FrameKind::Data => table.at(
                self.mac_bytes(),
                self.rate_bps.unwrap_or(table.params().data_rate_bps),
            ),
            _ => table.basic(self.mac_bytes()),
        }
    }

    /// True if this data frame carries a transport-layer ACK.
    pub fn carries_transport_ack(&self) -> bool {
        self.body.as_ref().is_some_and(Msdu::is_transport_ack)
    }
}

impl<M: Msdu> snap::SnapValue for Frame<M> {
    fn save(&self, w: &mut snap::Enc) {
        self.kind.save(w);
        self.src.save(w);
        self.dst.save(w);
        self.actual_tx.save(w);
        w.u32(self.duration_us);
        w.u64(self.seq);
        w.bool(self.retry);
        self.rate_bps.save(w);
        self.body.save(w);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(Frame {
            kind: FrameKind::load(r)?,
            src: NodeId::load(r)?,
            dst: NodeId::load(r)?,
            actual_tx: NodeId::load(r)?,
            duration_us: r.u32()?,
            seq: r.u64()?,
            retry: r.bool()?,
            rate_bps: Option::<u64>::load(r)?,
            body: Option::<M>::load(r)?,
        })
    }
}

/// Normal (non-inflated) Duration values for each step of an exchange.
///
/// These are what a well-behaved station puts in its frames, and what the
/// GRC NAV detector reconstructs to spot inflation:
///
/// * RTS reserves CTS + DATA + ACK plus three SIFS;
/// * CTS reserves what the RTS reserved minus SIFS and its own airtime;
/// * DATA reserves SIFS + ACK;
/// * ACK reserves nothing (no fragmentation).
#[derive(Debug, Clone, Copy)]
pub struct NavCalculator {
    params: PhyParams,
    /// SIFS + CTS airtime at the basic rate.
    sifs_cts: SimDuration,
    /// SIFS + ACK airtime at the basic rate.
    sifs_ack: SimDuration,
}

impl NavCalculator {
    /// Creates a calculator for the given PHY, timing its control
    /// frames once.
    pub fn new(params: PhyParams) -> Self {
        NavCalculator {
            params,
            sifs_cts: params.sifs + airtime::tx_duration_basic(&params, CTS_BYTES),
            sifs_ack: params.sifs + airtime::tx_duration_basic(&params, ACK_BYTES),
        }
    }

    /// The PHY parameters in use.
    pub fn params(&self) -> &PhyParams {
        &self.params
    }

    /// Duration field for an RTS preceding a data frame of `data_mac_bytes`
    /// total MAC bytes at the PHY's default data rate.
    pub fn rts_duration_us(&self, data_mac_bytes: usize) -> u32 {
        self.rts_duration_us_at(data_mac_bytes, self.params.data_rate_bps)
    }

    /// Duration field for an RTS preceding a data frame of `data_mac_bytes`
    /// total MAC bytes transmitted at `rate_bps` (rate-adaptive senders).
    pub fn rts_duration_us_at(&self, data_mac_bytes: usize, rate_bps: u64) -> u32 {
        let p = &self.params;
        let total = self.sifs_cts
            + p.sifs
            + airtime::tx_duration_at(p, data_mac_bytes, rate_bps)
            + self.sifs_ack;
        (total.as_micros() as u32).min(MAX_NAV_US)
    }

    /// Duration field for a CTS answering an RTS whose Duration was
    /// `rts_duration_us`.
    pub fn cts_duration_us(&self, rts_duration_us: u32) -> u32 {
        rts_duration_us
            .saturating_sub(self.sifs_cts.as_micros() as u32)
            .min(MAX_NAV_US)
    }

    /// Duration field for a data frame (reserves SIFS + ACK).
    pub fn data_duration_us(&self) -> u32 {
        (self.sifs_ack.as_micros() as u32).min(MAX_NAV_US)
    }

    /// Duration field for a final ACK: zero without fragmentation.
    pub fn ack_duration_us(&self) -> u32 {
        0
    }

    /// Upper bound on a legitimate CTS Duration, assuming the largest
    /// Internet MTU (1500 B) data frame could follow — the GRC rule for
    /// nodes that did not hear the RTS.
    pub fn cts_duration_bound_us(&self, mtu: usize) -> u32 {
        let p = &self.params;
        let total = p.sifs + airtime::tx_duration(p, DATA_HEADER_BYTES + mtu) + self.sifs_ack;
        (total.as_micros() as u32).min(MAX_NAV_US)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calc_b() -> NavCalculator {
        NavCalculator::new(PhyParams::dot11b())
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId::BROADCAST.to_string(), "n*");
    }

    #[test]
    fn duration_clamped_to_standard_max() {
        let f: Frame<usize> = Frame::cts(NodeId(0), NodeId(1), 1_000_000);
        assert_eq!(f.duration_us, MAX_NAV_US);
    }

    #[test]
    fn mac_bytes_per_kind() {
        let rts: Frame<usize> = Frame::rts(NodeId(0), NodeId(1), 0);
        let cts: Frame<usize> = Frame::cts(NodeId(1), NodeId(0), 0);
        let ack: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 0);
        let data: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 0, 7, 1024);
        assert_eq!(rts.mac_bytes(), 20);
        assert_eq!(cts.mac_bytes(), 14);
        assert_eq!(ack.mac_bytes(), 14);
        assert_eq!(data.mac_bytes(), 1052);
    }

    #[test]
    fn spoofed_ack_bookkeeping() {
        let f: Frame<usize> = Frame::spoofed_ack(NodeId(9), NodeId(1), NodeId(0));
        assert!(f.is_spoofed());
        assert_eq!(f.src, NodeId(1));
        assert_eq!(f.actual_tx, NodeId(9));
        let honest: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 0);
        assert!(!honest.is_spoofed());
    }

    #[test]
    fn nav_chain_is_consistent() {
        let c = calc_b();
        let data_bytes = DATA_HEADER_BYTES + 1024;
        let rts_dur = c.rts_duration_us(data_bytes);
        let cts_dur = c.cts_duration_us(rts_dur);
        // CTS reservation = RTS reservation − SIFS − CTS airtime.
        let cts_air = airtime::tx_duration_basic(c.params(), CTS_BYTES).as_micros() as u32;
        assert_eq!(cts_dur, rts_dur - 10 - cts_air);
        // Data reserves SIFS + ACK = 10 + 304 µs on 802.11b.
        assert_eq!(c.data_duration_us(), 314);
        assert_eq!(c.ack_duration_us(), 0);
    }

    #[test]
    fn rts_duration_matches_component_sum() {
        let c = calc_b();
        let p = PhyParams::dot11b();
        let data_air = airtime::tx_duration(&p, DATA_HEADER_BYTES + 1024).as_micros() as u32;
        // 3 SIFS + CTS(304) + DATA + ACK(304)
        assert_eq!(
            c.rts_duration_us(DATA_HEADER_BYTES + 1024),
            30 + 304 + data_air + 304
        );
    }

    #[test]
    fn cts_bound_covers_any_real_exchange() {
        let c = calc_b();
        let real = c.cts_duration_us(c.rts_duration_us(DATA_HEADER_BYTES + 1024));
        let bound = c.cts_duration_bound_us(1500);
        assert!(bound >= real, "bound {bound} must cover real {real}");
    }

    #[test]
    fn transport_ack_flag_passthrough() {
        #[derive(Debug, Clone)]
        struct AckSeg;
        impl snap::SnapValue for AckSeg {
            fn save(&self, _w: &mut snap::Enc) {}
            fn load(_r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
                Ok(AckSeg)
            }
        }
        impl Msdu for AckSeg {
            fn wire_bytes(&self) -> usize {
                60
            }
            fn is_transport_ack(&self) -> bool {
                true
            }
        }
        let f = Frame::data(NodeId(0), NodeId(1), 0, 1, AckSeg);
        assert!(f.carries_transport_ack());
        let g: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 0, 1, 100);
        assert!(!g.carries_transport_ack());
    }

    #[test]
    fn airtime_uses_right_rate() {
        let p = PhyParams::dot11b();
        let ack: Frame<usize> = Frame::ack(NodeId(0), NodeId(1), 0);
        // 14 B at 1 Mb/s basic rate + 192 µs PLCP = 304 µs.
        assert_eq!(ack.airtime(&p).as_micros(), 304);
        let data: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 0, 0, 1024);
        // 1052 B at 11 Mb/s + 192 µs.
        assert_eq!(
            data.airtime(&p).as_nanos(),
            192_000 + 1052 * 8 * 1_000_000_000u64 / 11_000_000
        );
    }
}
