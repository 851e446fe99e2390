//! The three greedy-receiver misbehaviors (paper §IV).
//!
//! A [`GreedyConfig`] composes any subset of them, each gated by the
//! paper's *greedy percentage* parameter; a station runs it as
//! [`PolicySlot::Greedy`]:
//!
//! 1. [`NavInflationConfig`] — inflate the Duration/NAV field of outgoing
//!    CTS/ACK frames (and of RTS/DATA frames when they carry TCP ACKs) to
//!    silence competitors;
//! 2. [`SpoofConfig`] — transmit MAC ACKs on behalf of victim receivers,
//!    suppressing the sender's link-layer retransmissions and pushing
//!    losses up to TCP;
//! 3. [`FakeConfig`] — acknowledge corrupted frames addressed to oneself,
//!    preventing the sender's exponential backoff.

mod nav_inflation;

pub use nav_inflation::{InflatedFrames, NavInflationConfig};

use crate::{NodeId, PolicySlot};

/// Full greedy-receiver configuration: any combination of the three
/// misbehaviors.
#[derive(Debug, Clone, Default)]
pub struct GreedyConfig {
    /// NAV inflation (misbehavior 1).
    pub nav: Option<NavInflationConfig>,
    /// ACK spoofing (misbehavior 2): victims and greedy percentage.
    pub spoof: Option<SpoofConfig>,
    /// Fake ACKs (misbehavior 3): greedy percentage.
    pub fake: Option<FakeConfig>,
}

/// Configuration of misbehavior 2, spoofing MAC-layer ACKs (paper §IV-B).
///
/// The greedy receiver runs in promiscuous mode. When it sniffs a data
/// frame addressed to a victim receiver, it transmits a MAC ACK *on the
/// victim's behalf* after SIFS. If the victim failed to receive the frame
/// (lossy link), the spoofed ACK convinces the sender the frame was
/// delivered, disabling the MAC retransmission that would have repaired
/// the loss — the loss propagates to TCP, which slows the victim's flow
/// and frees airtime for the greedy receiver.
///
/// When the victim *did* receive the frame, both ACKs go on the air in
/// the same SIFS slot and the capture effect at the sender decides which
/// one is heard (the paper's evaluation arranges capture so the overlap
/// never jams — so does the scenario builder here).
#[derive(Debug, Clone)]
pub struct SpoofConfig {
    /// Receivers on whose behalf ACKs are spoofed.
    pub victims: Vec<NodeId>,
    /// Fraction of sniffed victim data frames that get a spoofed ACK.
    pub gp: f64,
}

/// Configuration of misbehavior 3, fake ACKs for corrupted frames
/// (paper §IV-C).
///
/// 802.11 senders back off exponentially when an expected ACK does not
/// arrive. A greedy receiver that ACKs even *corrupted* frames addressed
/// to it keeps its sender's contention window pinned at CWmin, granting
/// the pair more transmission opportunities than honest stations whose
/// senders keep backing off. The attack is feasible because corrupted
/// frames overwhelmingly preserve their address fields (paper Table I —
/// reproduced by the core crate's `corruption` module).
///
/// Under *inherent* channel losses faking ACKs is effectively a survival
/// technique (backoff would not have reduced the loss anyway); under
/// *collision-induced* losses it is self-destructive when everyone does
/// it (paper Fig. 18, Table V).
#[derive(Debug, Clone)]
pub struct FakeConfig {
    /// Fraction of corrupted own-addressed data frames that get ACKed.
    pub gp: f64,
}

impl snap::SnapValue for SpoofConfig {
    fn save(&self, w: &mut snap::Enc) {
        self.victims.save(w);
        w.f64(self.gp);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(SpoofConfig {
            victims: Vec::load(r)?,
            gp: r.f64()?,
        })
    }
}

impl snap::SnapValue for FakeConfig {
    fn save(&self, w: &mut snap::Enc) {
        w.f64(self.gp);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(FakeConfig { gp: r.f64()? })
    }
}

impl snap::SnapValue for GreedyConfig {
    fn save(&self, w: &mut snap::Enc) {
        self.nav.save(w);
        self.spoof.save(w);
        self.fake.save(w);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(GreedyConfig {
            nav: Option::load(r)?,
            spoof: Option::load(r)?,
            fake: Option::load(r)?,
        })
    }
}

impl GreedyConfig {
    /// A receiver that inflates NAV only.
    pub fn nav_inflation(cfg: NavInflationConfig) -> Self {
        GreedyConfig {
            nav: Some(cfg),
            ..GreedyConfig::default()
        }
    }

    /// A receiver that spoofs ACKs for `victims` with probability `gp`.
    pub fn ack_spoofing(victims: Vec<NodeId>, gp: f64) -> Self {
        GreedyConfig {
            spoof: Some(SpoofConfig { victims, gp }),
            ..GreedyConfig::default()
        }
    }

    /// A receiver that fakes ACKs for corrupted frames with probability
    /// `gp`.
    pub fn fake_acks(gp: f64) -> Self {
        GreedyConfig {
            fake: Some(FakeConfig { gp }),
            ..GreedyConfig::default()
        }
    }

    /// Converts this configuration into a MAC station policy slot.
    pub fn into_policy(self) -> PolicySlot {
        PolicySlot::Greedy(self)
    }

    /// Scales every misbehavior knob by `intensity ∈ [0, 1]`: the NAV
    /// inflation amount (rounded to whole µs) and the spoof/fake greedy
    /// percentages all multiply by the factor. `1.0` returns the
    /// configuration unchanged; `0.0` returns an inert one whose policy
    /// behaves exactly like an honest station.
    pub fn at_intensity(&self, intensity: f64) -> GreedyConfig {
        let t = intensity.clamp(0.0, 1.0);
        GreedyConfig {
            nav: self.nav.as_ref().map(|n| NavInflationConfig {
                inflate_us: (n.inflate_us as f64 * t).round() as u32,
                gp: n.gp,
                frames: n.frames,
            }),
            spoof: self.spoof.as_ref().map(|s| SpoofConfig {
                victims: s.victims.clone(),
                gp: s.gp * t,
            }),
            fake: self.fake.as_ref().map(|f| FakeConfig { gp: f.gp * t }),
        }
    }

    /// Whether this configuration can never deviate from honest behavior
    /// (no misbehavior armed, or every armed knob scaled to zero).
    pub fn is_inert(&self) -> bool {
        let nav_live = self
            .nav
            .as_ref()
            .is_some_and(|n| n.inflate_us > 0 && n.gp > 0.0);
        let spoof_live = self
            .spoof
            .as_ref()
            .is_some_and(|s| s.gp > 0.0 && !s.victims.is_empty());
        let fake_live = self.fake.as_ref().is_some_and(|f| f.gp > 0.0);
        !(nav_live || spoof_live || fake_live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_intensity_scales_every_knob() {
        let cfg = GreedyConfig {
            nav: Some(NavInflationConfig::cts_only(10_000, 1.0)),
            spoof: Some(SpoofConfig {
                victims: vec![NodeId(1)],
                gp: 0.8,
            }),
            fake: Some(FakeConfig { gp: 0.5 }),
        };
        let half = cfg.at_intensity(0.5);
        assert_eq!(half.nav.as_ref().unwrap().inflate_us, 5_000);
        assert_eq!(half.nav.as_ref().unwrap().gp, 1.0);
        assert_eq!(half.spoof.as_ref().unwrap().gp, 0.4);
        assert_eq!(half.spoof.as_ref().unwrap().victims, vec![NodeId(1)]);
        assert_eq!(half.fake.as_ref().unwrap().gp, 0.25);
        // Unit intensity is the identity; out-of-range clamps.
        let full = cfg.at_intensity(1.0);
        assert_eq!(full.nav.as_ref().unwrap().inflate_us, 10_000);
        assert_eq!(full.spoof.as_ref().unwrap().gp, 0.8);
        assert_eq!(cfg.at_intensity(7.0).fake.as_ref().unwrap().gp, 0.5);
        assert!(!cfg.is_inert());
        assert!(cfg.at_intensity(0.0).is_inert());
        assert!(GreedyConfig::default().is_inert());
        assert!(GreedyConfig::ack_spoofing(Vec::new(), 1.0).is_inert());
    }
}
