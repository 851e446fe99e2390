//! Misbehavior 1: inflating the NAV (paper §IV-A).
//!
//! A greedy receiver adds a fixed amount to the Duration field of frames
//! it transmits. CTS and ACK are the frames *every* receiver transmits;
//! under TCP the receiver additionally transmits RTS and DATA frames (for
//! its TCP ACKs), so those can be inflated too. The standard caps the
//! field at 32 767 µs.
//!
//! Frames addressed to the greedy receiver's own sender do not honor the
//! inflated value (stations ignore Duration in frames addressed to them),
//! so the sender keeps transmitting while every other station defers —
//! the asymmetry the whole attack rests on.

use crate::{FrameKind, MAX_NAV_US};
use sim::SimRng;

/// Which outgoing frame kinds carry inflated Durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InflatedFrames {
    /// Inflate CTS responses.
    pub cts: bool,
    /// Inflate MAC ACK responses.
    pub ack: bool,
    /// Inflate RTS frames sent for transport-layer ACKs (TCP only).
    pub rts: bool,
    /// Inflate DATA frames carrying transport-layer ACKs (TCP only).
    pub data: bool,
}

impl InflatedFrames {
    /// Every frame the receiver can touch (the paper's "all frames" case,
    /// Fig. 4(d)).
    pub const ALL: InflatedFrames = InflatedFrames {
        cts: true,
        ack: true,
        rts: true,
        data: true,
    };

    /// CTS only (Fig. 1, Fig. 4(a)).
    pub const CTS: InflatedFrames = InflatedFrames {
        cts: true,
        ack: false,
        rts: false,
        data: false,
    };

    /// ACK only (Fig. 4(c)).
    pub const ACK: InflatedFrames = InflatedFrames {
        cts: false,
        ack: true,
        rts: false,
        data: false,
    };

    /// RTS + CTS (Fig. 4(b)).
    pub const RTS_CTS: InflatedFrames = InflatedFrames {
        cts: true,
        ack: false,
        rts: true,
        data: false,
    };
}

/// Parameters of the NAV-inflation misbehavior.
#[derive(Debug, Clone)]
pub struct NavInflationConfig {
    /// Microseconds added to the honest Duration (clamped to the standard
    /// maximum of 32 767 µs on output).
    pub inflate_us: u32,
    /// Greedy percentage: fraction of eligible frames actually inflated.
    pub gp: f64,
    /// Which frame kinds are inflated.
    pub frames: InflatedFrames,
}

impl NavInflationConfig {
    /// Inflate CTS frames only, by `inflate_us`, with greedy percentage
    /// `gp` in `[0, 1]`.
    pub fn cts_only(inflate_us: u32, gp: f64) -> Self {
        NavInflationConfig {
            inflate_us,
            gp,
            frames: InflatedFrames::CTS,
        }
    }

    /// Inflate all frames the receiver transmits.
    pub fn all_frames(inflate_us: u32, gp: f64) -> Self {
        NavInflationConfig {
            inflate_us,
            gp,
            frames: InflatedFrames::ALL,
        }
    }

    /// Returns the Duration to put on an outgoing frame of `kind` whose
    /// honest value is `normal_us`.
    pub fn duration_for(
        &self,
        kind: FrameKind,
        normal_us: u32,
        carries_transport_ack: bool,
        rng: &mut SimRng,
    ) -> u32 {
        let eligible = match kind {
            FrameKind::Cts => self.frames.cts,
            FrameKind::Ack => self.frames.ack,
            // RTS/DATA inflation applies only to the receiver's own
            // transmissions, i.e. frames carrying TCP ACKs.
            FrameKind::Rts => self.frames.rts && carries_transport_ack,
            FrameKind::Data => self.frames.data && carries_transport_ack,
        };
        if eligible && rng.chance(self.gp) {
            normal_us.saturating_add(self.inflate_us).min(MAX_NAV_US)
        } else {
            normal_us
        }
    }
}

impl snap::SnapValue for InflatedFrames {
    fn save(&self, w: &mut snap::Enc) {
        w.bool(self.cts);
        w.bool(self.ack);
        w.bool(self.rts);
        w.bool(self.data);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(InflatedFrames {
            cts: r.bool()?,
            ack: r.bool()?,
            rts: r.bool()?,
            data: r.bool()?,
        })
    }
}

impl snap::SnapValue for NavInflationConfig {
    fn save(&self, w: &mut snap::Enc) {
        w.u32(self.inflate_us);
        w.f64(self.gp);
        self.frames.save(w);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(NavInflationConfig {
            inflate_us: r.u32()?,
            gp: r.f64()?,
            frames: InflatedFrames::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(9)
    }

    #[test]
    fn inflates_selected_kinds_only() {
        let p = NavInflationConfig::cts_only(10_000, 1.0);
        let mut r = rng();
        assert_eq!(p.duration_for(FrameKind::Cts, 314, false, &mut r), 10_314);
        assert_eq!(p.duration_for(FrameKind::Ack, 0, false, &mut r), 0);
        assert_eq!(p.duration_for(FrameKind::Rts, 2_000, true, &mut r), 2_000);
    }

    #[test]
    fn rts_data_require_transport_ack() {
        let p = NavInflationConfig::all_frames(5_000, 1.0);
        let mut r = rng();
        // Data frame carrying a TCP ACK: inflated.
        assert_eq!(p.duration_for(FrameKind::Data, 314, true, &mut r), 5_314);
        // Ordinary data frame (we are not a receiver for it): honest.
        assert_eq!(p.duration_for(FrameKind::Data, 314, false, &mut r), 314);
        assert_eq!(p.duration_for(FrameKind::Rts, 2_000, false, &mut r), 2_000);
        assert_eq!(p.duration_for(FrameKind::Rts, 2_000, true, &mut r), 7_000);
    }

    #[test]
    fn clamps_to_standard_max() {
        let p = NavInflationConfig::cts_only(32_767, 1.0);
        let mut r = rng();
        assert_eq!(
            p.duration_for(FrameKind::Cts, 30_000, false, &mut r),
            MAX_NAV_US
        );
    }

    #[test]
    fn greedy_percentage_gates_inflation() {
        let p = NavInflationConfig::cts_only(1_000, 0.5);
        let mut r = rng();
        let n = 10_000;
        let inflated = (0..n)
            .filter(|_| p.duration_for(FrameKind::Cts, 314, false, &mut r) > 314)
            .count();
        let frac = inflated as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "GP gating off: {frac}");
    }

    #[test]
    fn zero_gp_never_inflates() {
        let p = NavInflationConfig::all_frames(31_000, 0.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(p.duration_for(FrameKind::Cts, 314, false, &mut r), 314);
        }
    }
}
