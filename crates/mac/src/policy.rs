//! Station behavior: what a station does differently from honest 802.11.
//!
//! The DCF state machine consults its [`PolicySlot`] at the three points
//! a greedy receiver can manipulate the protocol (outgoing Duration
//! fields, ACKing corrupted frames, spoofing ACKs for sniffed frames) and
//! at every backoff draw (the greedy sender). The set of behaviors is
//! closed: the paper's three receiver misbehaviors, composed by a
//! [`GreedyConfig`], and the backoff cheat DOMINO detects. Every
//! behavior is stateless, so a station snapshot holds none of it.

use sim::SimRng;

use crate::frame::{Frame, FrameKind, Msdu};
use crate::greedy::GreedyConfig;

/// Behavior-deviation flags a station's [`PolicySlot`] (or DCF
/// configuration) declares about itself, consumed by the conformance
/// checker to whitelist *modeled* misbehavior per rule. Honest stations
/// declare 0.
pub mod quirk {
    /// Inflates outgoing Duration/NAV fields (paper misbehavior 1).
    pub const NAV_INFLATE: u32 = 1 << 0;
    /// Spoofs MAC ACKs on behalf of other stations (misbehavior 2).
    pub const ACK_SPOOF: u32 = 1 << 1;
    /// ACKs corrupted frames addressed to itself (misbehavior 3).
    pub const FAKE_ACK: u32 = 1 << 2;
    /// Drops MSDUs at the first ACK timeout instead of retrying
    /// (testbed no-retransmission emulation, `DcfConfig::no_retx_to`).
    pub const NO_RETX: u32 = 1 << 3;
    /// Clamps CWmax to CWmin (testbed fake-ACK emulation,
    /// `DcfConfig::cw_clamp_to`).
    pub const CW_CLAMP: u32 = 1 << 4;
    /// Draws backoff from a shrunken window (greedy sender).
    pub const BACKOFF_CHEAT: u32 = 1 << 5;
}

/// How a station fills in the protocol fields it controls.
///
/// Every probabilistic rule draws from the station's deterministic RNG,
/// so the paper's *greedy percentage* stays reproducible.
#[derive(Debug)]
pub enum PolicySlot {
    /// The honest station: never inflates, never fakes, never spoofs.
    Normal,
    /// A greedy receiver running any subset of the three misbehaviors.
    Greedy(GreedyConfig),
    /// The classic *sender-side* misbehavior (Kyasanur & Vaidya), the
    /// baseline the paper's related work addresses: the sender draws its
    /// backoff from `[0, cw·fraction]` instead of `[0, cw]`, winning
    /// contention far more often than honest stations. DOMINO-style
    /// monitors (the core crate's `DominoDetector`) catch it from
    /// transmission *timing*, but are blind to greedy *receivers*, whose
    /// frames are perfectly timed; that blind spot is what GRC fills.
    GreedySender {
        /// Kept fraction of the honest window, in `[0, 1]`; 0 always
        /// transmits at the first slot.
        fraction: f64,
    },
}

// The DCF consults the rule methods on every frame and backoff draw. They
// are `#[inline]` so the generic DCF handlers, instantiated in downstream
// crates, can inline them before link-time optimization; without it the
// `paper_sweep` benchmark ran about 5 % slower on 2 vCPU.
impl PolicySlot {
    /// A greedy sender keeping `fraction` of the honest window (clamped
    /// to `[0, 1]`).
    pub fn greedy_sender(fraction: f64) -> Self {
        PolicySlot::GreedySender {
            fraction: fraction.clamp(0.0, 1.0),
        }
    }

    /// Returns the Duration/NAV value (µs) to place on an outgoing frame
    /// of `kind` whose honest value is `normal_us`. For RTS and DATA
    /// frames, `carries_transport_ack` reports whether the pending MSDU is
    /// a transport-layer ACK — the only data frames a receiver transmits,
    /// and thus the ones misbehavior 1 additionally inflates under TCP.
    #[inline]
    pub fn outgoing_duration_us(
        &self,
        kind: FrameKind,
        normal_us: u32,
        carries_transport_ack: bool,
        rng: &mut SimRng,
    ) -> u32 {
        match self {
            PolicySlot::Greedy(GreedyConfig { nav: Some(nav), .. }) => {
                nav.duration_for(kind, normal_us, carries_transport_ack, rng)
            }
            _ => normal_us,
        }
    }

    /// Whether to transmit a MAC ACK for a **corrupted** data frame
    /// addressed to this station (misbehavior 3, *fake ACKs*).
    #[inline]
    pub fn ack_corrupted(&self, rng: &mut SimRng) -> bool {
        match self {
            PolicySlot::Greedy(GreedyConfig {
                fake: Some(fake), ..
            }) => rng.chance(fake.gp),
            _ => false,
        }
    }

    /// Whether to transmit a MAC ACK on behalf of `frame.dst` for a
    /// correctly sniffed frame addressed to another station
    /// (misbehavior 2, *spoofed ACKs*). Requires promiscuous reception,
    /// which the simulator always provides.
    pub fn spoof_ack_for<M: Msdu>(&self, frame: &Frame<M>, rng: &mut SimRng) -> bool {
        match self {
            PolicySlot::Greedy(GreedyConfig {
                spoof: Some(spoof), ..
            }) => {
                frame.kind == FrameKind::Data
                    && spoof.victims.contains(&frame.dst)
                    && rng.chance(spoof.gp)
            }
            _ => false,
        }
    }

    /// Backoff draw override: given the current contention window,
    /// returns the number of slots to wait, or `None` for the standard
    /// uniform draw over `[0, cw]`.
    #[inline]
    pub fn backoff_slots(&self, cw: u32, rng: &mut SimRng) -> Option<u32> {
        match *self {
            PolicySlot::GreedySender { fraction } => {
                Some(rng.uniform_u32_inclusive((cw as f64 * fraction) as u32))
            }
            _ => None,
        }
    }

    /// Which protocol rules this policy knowingly deviates from, as a
    /// bitmask of [`quirk`] flags. The conformance checker exempts the
    /// matching rules for this station; everything else still applies.
    pub fn quirk_flags(&self) -> u32 {
        match self {
            PolicySlot::Normal => 0,
            PolicySlot::Greedy(cfg) => {
                let mut flags = 0;
                if cfg.nav.is_some() {
                    flags |= quirk::NAV_INFLATE;
                }
                if cfg.spoof.is_some() {
                    flags |= quirk::ACK_SPOOF;
                }
                if cfg.fake.is_some() {
                    flags |= quirk::FAKE_ACK;
                }
                flags
            }
            PolicySlot::GreedySender { .. } => quirk::BACKOFF_CHEAT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NodeId;
    use crate::greedy::{FakeConfig, NavInflationConfig, SpoofConfig};

    fn data_to(dst: u16) -> Frame<usize> {
        Frame::data(NodeId(0), NodeId(dst), 314, 1, 1024)
    }

    /// Fraction of `n` trials for which `hit` holds.
    fn rate(n: usize, mut hit: impl FnMut() -> bool) -> f64 {
        (0..n).filter(|_| hit()).count() as f64 / n as f64
    }

    #[test]
    fn normal_policy_is_honest() {
        let p = PolicySlot::Normal;
        let mut rng = SimRng::new(1);
        assert_eq!(
            p.outgoing_duration_us(FrameKind::Cts, 314, false, &mut rng),
            314
        );
        assert!(!p.ack_corrupted(&mut rng));
        assert!(!p.spoof_ack_for(&data_to(1), &mut rng));
        assert_eq!(p.backoff_slots(31, &mut rng), None);
        assert_eq!(p.quirk_flags(), 0);
        let inert = GreedyConfig::default().into_policy();
        assert_eq!(
            inert.outgoing_duration_us(FrameKind::Cts, 314, false, &mut rng),
            314
        );
        assert!(!inert.ack_corrupted(&mut rng));
        assert!(!inert.spoof_ack_for(&data_to(1), &mut rng));
    }

    #[test]
    fn composite_combines_all_three() {
        let p = GreedyConfig {
            nav: Some(NavInflationConfig::cts_only(5_000, 1.0)),
            spoof: Some(SpoofConfig {
                victims: vec![NodeId(1)],
                gp: 1.0,
            }),
            fake: Some(FakeConfig { gp: 1.0 }),
        }
        .into_policy();
        let mut rng = SimRng::new(1);
        assert_eq!(
            p.outgoing_duration_us(FrameKind::Cts, 314, false, &mut rng),
            5_314
        );
        assert!(p.spoof_ack_for(&data_to(1), &mut rng));
        assert!(p.ack_corrupted(&mut rng));
        assert_eq!(
            p.quirk_flags(),
            quirk::NAV_INFLATE | quirk::ACK_SPOOF | quirk::FAKE_ACK
        );
    }

    #[test]
    fn spoofs_only_victim_data_frames() {
        let p = GreedyConfig::ack_spoofing(vec![NodeId(2)], 1.0).into_policy();
        let mut rng = SimRng::new(1);
        assert!(p.spoof_ack_for(&data_to(2), &mut rng));
        assert!(!p.spoof_ack_for(&data_to(3), &mut rng));
        let cts: Frame<usize> = Frame::cts(NodeId(0), NodeId(2), 314);
        assert!(!p.spoof_ack_for(&cts, &mut rng));
    }

    #[test]
    fn greedy_percentage_gates_spoofs_and_fakes() {
        let mut rng = SimRng::new(2);
        let spoof = GreedyConfig::ack_spoofing(vec![NodeId(2)], 0.2).into_policy();
        let frac = rate(10_000, || spoof.spoof_ack_for(&data_to(2), &mut rng));
        assert!((frac - 0.2).abs() < 0.02, "spoof gating off: {frac}");
        let fake = GreedyConfig::fake_acks(0.75).into_policy();
        let frac = rate(10_000, || fake.ack_corrupted(&mut rng));
        assert!((frac - 0.75).abs() < 0.02, "fake gating off: {frac}");
        let always = GreedyConfig::fake_acks(1.0).into_policy();
        assert!((0..100).all(|_| always.ack_corrupted(&mut rng)));
    }

    #[test]
    fn greedy_sender_draws_within_shrunken_window() {
        let mut rng = SimRng::new(1);
        let p = PolicySlot::greedy_sender(0.25);
        assert_eq!(p.quirk_flags(), quirk::BACKOFF_CHEAT);
        for _ in 0..1000 {
            let slots = p.backoff_slots(31, &mut rng).unwrap();
            assert!(slots <= 7, "draw {slots} outside [0, 7]");
        }
        let zero = PolicySlot::greedy_sender(0.0);
        assert!((0..100).all(|_| zero.backoff_slots(1023, &mut rng) == Some(0)));
        let clamped = PolicySlot::greedy_sender(5.0);
        assert!((0..1000).all(|_| clamped.backoff_slots(31, &mut rng).unwrap() <= 31));
    }
}
