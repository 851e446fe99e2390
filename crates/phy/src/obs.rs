//! PHY-layer flight-recorder events.
//!
//! The runtime (which owns the medium) calls [`record_tx_start`] when a
//! station keys up and [`record_rx`] when a reception resolves, so the
//! recorded stream captures exactly what the paper's frame traces show:
//! every transmission, and for every in-range listener whether the frame
//! decoded, was corrupted by noise, or lost the capture race.
//!
//! Frame kinds travel as compact codes (see [`frame code`](FRAME_RTS)
//! constants) because the PHY does not know the MAC's `FrameKind` enum.

use ::obs::{EventKind, Layer, RecorderHandle};
use sim::{SimDuration, SimTime};

/// Frame code for RTS in event payloads.
pub const FRAME_RTS: u8 = 0;
/// Frame code for CTS in event payloads.
pub const FRAME_CTS: u8 = 1;
/// Frame code for DATA in event payloads.
pub const FRAME_DATA: u8 = 2;
/// Frame code for ACK in event payloads.
pub const FRAME_ACK: u8 = 3;

/// Human-readable name for a frame code in event payloads.
pub fn frame_name(code: u8) -> &'static str {
    match code {
        FRAME_RTS => "RTS",
        FRAME_CTS => "CTS",
        FRAME_DATA => "DATA",
        FRAME_ACK => "ACK",
        _ => "UNKNOWN",
    }
}

/// A station began transmitting. Node = transmitter.
pub static TX_START: EventKind = EventKind {
    name: "tx_start",
    layer: Layer::Phy,
    fields: &["dst", "frame", "airtime_us"],
};

/// A station decoded a frame. Node = receiver.
pub static RX_OK: EventKind = EventKind {
    name: "rx_ok",
    layer: Layer::Phy,
    fields: &["tx", "dst", "frame", "airtime_us"],
};

/// A station received a frame corrupted by channel noise (headers still
/// readable — the paper's Table I measurement). Node = receiver.
pub static RX_NOISE: EventKind = EventKind {
    name: "rx_noise",
    layer: Layer::Phy,
    fields: &["tx", "dst", "frame", "airtime_us"],
};

/// A station lost the capture race: overlapping frames within the
/// capture threshold. Node = receiver.
pub static RX_COLLISION: EventKind = EventKind {
    name: "rx_collision",
    layer: Layer::Phy,
    fields: &["tx", "dst", "frame", "airtime_us"],
};

/// How a reception resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Decoded correctly.
    Ok,
    /// Corrupted by the link error model.
    Noise,
    /// Lost the capture decision among overlapping frames.
    Collision,
}

/// Records a transmission start.
pub fn record_tx_start(
    rec: &RecorderHandle,
    at: SimTime,
    tx: u16,
    dst: u16,
    frame: u8,
    airtime: SimDuration,
) {
    rec.borrow_mut().emit(
        at,
        tx,
        &TX_START,
        &[dst as f64, frame as f64, airtime.as_micros() as f64],
    );
}

/// Records a reception outcome at `node`.
#[allow(clippy::too_many_arguments)] // one argument per payload field
pub fn record_rx(
    rec: &RecorderHandle,
    at: SimTime,
    node: u16,
    tx: u16,
    dst: u16,
    frame: u8,
    outcome: RxOutcome,
    airtime: SimDuration,
) {
    let kind = match outcome {
        RxOutcome::Ok => &RX_OK,
        RxOutcome::Noise => &RX_NOISE,
        RxOutcome::Collision => &RX_COLLISION,
    };
    rec.borrow_mut().emit(
        at,
        node,
        kind,
        &[
            tx as f64,
            dst as f64,
            frame as f64,
            airtime.as_micros() as f64,
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ::obs::ObsSpec;

    #[test]
    fn phy_events_carry_frame_codes() {
        let rec = ObsSpec::default().recorder();
        record_tx_start(
            &rec,
            SimTime::from_micros(10),
            0,
            1,
            FRAME_RTS,
            SimDuration::from_micros(352),
        );
        record_rx(
            &rec,
            SimTime::from_micros(362),
            1,
            0,
            1,
            FRAME_RTS,
            RxOutcome::Ok,
            SimDuration::from_micros(352),
        );
        let report = rec.borrow_mut().drain_report();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].kind.name, "tx_start");
        assert_eq!(report.events[1].kind.name, "rx_ok");
        assert_eq!(report.events[1].vals[2], FRAME_RTS as f64);
    }
}
