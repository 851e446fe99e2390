//! Pluggable station behavior and observation hooks.
//!
//! The DCF state machine consults a [`StationPolicy`] at the three points a
//! greedy receiver can manipulate the protocol (outgoing Duration fields,
//! ACKing corrupted frames, spoofing ACKs for sniffed frames), and a
//! [`MacObserver`] at the points the paper's GRC countermeasures hook in
//! (sanitizing overheard NAVs, vetting received ACKs). The [`crate::greedy`]
//! module provides the misbehaving policies, [`crate::grc`] the observers;
//! this module defines the honest defaults and the closed-set
//! [`PolicySlot`]/[`ObserverSlot`] enums the DCF dispatches through.

use phy::Rssi;
use sim::{SimRng, SimTime};

use crate::frame::{Frame, FrameKind, Msdu};
use crate::grc::GrcObserver;
use crate::greedy::{GreedyPolicy, GreedySenderPolicy};

/// Behavior-deviation flags a [`StationPolicy`] (or DCF configuration)
/// declares about itself, consumed by the conformance checker to
/// whitelist *modeled* misbehavior per rule. Honest stations declare 0.
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

/// Per-frame reception metadata passed to hooks.
#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    /// Received signal strength of this frame.
    pub rssi: Rssi,
    /// Reception-complete time.
    pub now: SimTime,
}

/// How a station fills in protocol fields it controls.
///
/// The default implementations are the honest 802.11 behavior; greedy
/// receivers override them. All hooks receive the deterministic per-node
/// RNG so probabilistic misbehavior (the paper's *greedy percentage*)
/// stays reproducible.
///
/// Policies are `Send` so a built network — which boxes one policy per
/// station — can execute on any worker thread of a campaign runner.
pub trait StationPolicy<M: Msdu>: std::fmt::Debug {
    /// Returns the Duration/NAV value (µs) to place on an outgoing frame
    /// of `kind` whose honest value is `normal_us`. For RTS and DATA
    /// frames, `carries_transport_ack` reports whether the pending MSDU is
    /// a transport-layer ACK — the only data frames a receiver transmits,
    /// and thus the ones misbehavior 1 additionally inflates under TCP.
    fn outgoing_duration_us(
        &mut self,
        kind: FrameKind,
        normal_us: u32,
        carries_transport_ack: bool,
        rng: &mut SimRng,
    ) -> u32 {
        let _ = (kind, carries_transport_ack, rng);
        normal_us
    }

    /// Whether to transmit a MAC ACK for a **corrupted** data frame
    /// addressed to this station (misbehavior 3, *fake ACKs*). Honest
    /// stations never do.
    fn ack_corrupted(&mut self, frame: &Frame<M>, rng: &mut SimRng) -> bool {
        let _ = (frame, rng);
        false
    }

    /// Whether to transmit a MAC ACK on behalf of `frame.dst` for a
    /// correctly sniffed data frame addressed to another station
    /// (misbehavior 2, *spoofed ACKs*). Requires promiscuous reception,
    /// which the simulator always provides.
    fn spoof_ack_for(&mut self, frame: &Frame<M>, rng: &mut SimRng) -> bool {
        let _ = (frame, rng);
        false
    }

    /// Backoff draw override: given the current contention window,
    /// return the number of slots to wait, or `None` for the standard
    /// uniform draw over `[0, cw]`. Greedy *senders* (Kyasanur–Vaidya
    /// style, the sender-side misbehavior DOMINO detects) shrink this
    /// range; receivers leave it alone.
    fn backoff_slots(&mut self, cw: u32, rng: &mut SimRng) -> Option<u32> {
        let _ = (cw, rng);
        None
    }

    /// Serializes mutable policy state into a station snapshot. Stateless
    /// policies (the common case) write nothing.
    fn snap_save(&self, w: &mut snap::Enc) {
        let _ = w;
    }

    /// Restores state written by [`StationPolicy::snap_save`]. Must
    /// consume exactly the bytes that `snap_save` produced.
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        let _ = r;
        Ok(())
    }

    /// Which protocol rules this policy knowingly deviates from, as a
    /// bitmask of [`quirk`] flags. The conformance checker exempts the
    /// matching rules for this station; everything else still applies.
    fn quirk_flags(&self) -> u32 {
        0
    }
}

/// The honest station: never inflates, never fakes, never spoofs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalPolicy;

impl<M: Msdu> StationPolicy<M> for NormalPolicy {}

/// Observation and mitigation hooks — where GRC attaches.
///
/// The default implementation observes nothing and trusts everything.
///
/// Observers are `Send` for the same reason as [`StationPolicy`]: a run,
/// including its attached detectors, must be movable to a worker thread.
pub trait MacObserver<M: Msdu>: std::fmt::Debug {
    /// Called for every correctly received or overheard frame, *before*
    /// the NAV update. Returns the Duration value (µs) the station should
    /// honor; a mitigating observer clamps inflated values.
    fn on_frame(&mut self, frame: &Frame<M>, meta: &FrameMeta, addressed_to_me: bool) -> u32 {
        let _ = (meta, addressed_to_me);
        frame.duration_us
    }

    /// Called at a transmitter when a MAC ACK arrives for its outstanding
    /// data frame (which was sent to `expected_from`). Returning `false`
    /// makes the MAC ignore the ACK — the paper's spoofed-ACK recovery.
    fn accept_ack(
        &mut self,
        ack: &Frame<M>,
        meta: &FrameMeta,
        expected_from: crate::frame::NodeId,
    ) -> bool {
        let _ = (ack, meta, expected_from);
        true
    }

    /// Called when this station receives a corrupted frame.
    fn on_corrupted(&mut self, meta: &FrameMeta) {
        let _ = meta;
    }

    /// Serializes mutable observer state (detector histories, per-node
    /// records) into a station snapshot. Stateless observers write
    /// nothing.
    fn snap_save(&self, w: &mut snap::Enc) {
        let _ = w;
    }

    /// Restores state written by [`MacObserver::snap_save`]. Must consume
    /// exactly the bytes that `snap_save` produced.
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        let _ = r;
        Ok(())
    }
}

/// Observer that trusts every frame (no detection).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl<M: Msdu> MacObserver<M> for NoopObserver {}

/// Enum-dispatched station policy: the closed set of behaviors a station
/// can run. The DCF consults its policy on the hot path (every backoff
/// draw and outgoing frame); dispatching through this enum instead of a
/// `Box<dyn StationPolicy>` removes the indirect call and lets the
/// honest `Normal` arm inline to nothing.
///
/// Snapshot encoding is *tagless* — each variant writes exactly what the
/// boxed policy wrote — so station digests are unchanged by the
/// devirtualization.
#[derive(Debug)]
pub enum PolicySlot {
    /// The honest station (the overwhelmingly common case).
    Normal(NormalPolicy),
    /// A composite greedy receiver (any subset of the three misbehaviors).
    Greedy(GreedyPolicy),
    /// The sender-side backoff cheat (DOMINO's target).
    GreedySender(GreedySenderPolicy),
}

impl Default for PolicySlot {
    fn default() -> Self {
        PolicySlot::Normal(NormalPolicy)
    }
}

macro_rules! each_policy {
    ($slot:expr, $p:ident => $e:expr) => {
        match $slot {
            PolicySlot::Normal($p) => $e,
            PolicySlot::Greedy($p) => $e,
            PolicySlot::GreedySender($p) => $e,
        }
    };
}

impl<M: Msdu> StationPolicy<M> for PolicySlot {
    fn outgoing_duration_us(
        &mut self,
        kind: FrameKind,
        normal_us: u32,
        carries_transport_ack: bool,
        rng: &mut SimRng,
    ) -> u32 {
        each_policy!(self, p => StationPolicy::<M>::outgoing_duration_us(
            p, kind, normal_us, carries_transport_ack, rng
        ))
    }

    fn ack_corrupted(&mut self, frame: &Frame<M>, rng: &mut SimRng) -> bool {
        each_policy!(self, p => StationPolicy::<M>::ack_corrupted(p, frame, rng))
    }

    fn spoof_ack_for(&mut self, frame: &Frame<M>, rng: &mut SimRng) -> bool {
        each_policy!(self, p => StationPolicy::<M>::spoof_ack_for(p, frame, rng))
    }

    fn backoff_slots(&mut self, cw: u32, rng: &mut SimRng) -> Option<u32> {
        each_policy!(self, p => StationPolicy::<M>::backoff_slots(p, cw, rng))
    }

    fn snap_save(&self, w: &mut snap::Enc) {
        each_policy!(self, p => StationPolicy::<M>::snap_save(p, w))
    }

    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        each_policy!(self, p => StationPolicy::<M>::snap_restore(p, r))
    }

    fn quirk_flags(&self) -> u32 {
        each_policy!(self, p => StationPolicy::<M>::quirk_flags(p))
    }
}

impl From<NormalPolicy> for PolicySlot {
    fn from(p: NormalPolicy) -> Self {
        PolicySlot::Normal(p)
    }
}

impl From<GreedyPolicy> for PolicySlot {
    fn from(p: GreedyPolicy) -> Self {
        PolicySlot::Greedy(p)
    }
}

impl From<GreedySenderPolicy> for PolicySlot {
    fn from(p: GreedySenderPolicy) -> Self {
        PolicySlot::GreedySender(p)
    }
}

/// Enum-dispatched MAC observer: the closed set of detection hooks.
///
/// Same rationale and tagless-snapshot contract as [`PolicySlot`] — the
/// observer runs on every received frame, so the honest `Noop` arm must
/// cost nothing.
#[derive(Debug)]
pub enum ObserverSlot {
    /// No detection (the honest default).
    Noop(NoopObserver),
    /// The full GRC scheme: NAV sanitization + ACK vetting, boxed so
    /// honest stations do not carry its size.
    Grc(Box<GrcObserver>),
}

impl Default for ObserverSlot {
    fn default() -> Self {
        ObserverSlot::Noop(NoopObserver)
    }
}

macro_rules! each_observer {
    ($slot:expr, $o:ident => $e:expr) => {
        match $slot {
            ObserverSlot::Noop($o) => $e,
            ObserverSlot::Grc(grc) => {
                let $o = &mut **grc;
                $e
            }
        }
    };
}

impl<M: Msdu> MacObserver<M> for ObserverSlot {
    fn on_frame(&mut self, frame: &Frame<M>, meta: &FrameMeta, addressed_to_me: bool) -> u32 {
        each_observer!(self, o => MacObserver::<M>::on_frame(o, frame, meta, addressed_to_me))
    }

    fn accept_ack(
        &mut self,
        ack: &Frame<M>,
        meta: &FrameMeta,
        expected_from: crate::frame::NodeId,
    ) -> bool {
        each_observer!(self, o => MacObserver::<M>::accept_ack(o, ack, meta, expected_from))
    }

    fn on_corrupted(&mut self, meta: &FrameMeta) {
        each_observer!(self, o => MacObserver::<M>::on_corrupted(o, meta))
    }

    fn snap_save(&self, w: &mut snap::Enc) {
        match self {
            ObserverSlot::Noop(o) => MacObserver::<M>::snap_save(o, w),
            ObserverSlot::Grc(grc) => MacObserver::<M>::snap_save(&**grc, w),
        }
    }

    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        each_observer!(self, o => MacObserver::<M>::snap_restore(o, r))
    }
}

impl From<NoopObserver> for ObserverSlot {
    fn from(o: NoopObserver) -> Self {
        ObserverSlot::Noop(o)
    }
}

impl From<GrcObserver> for ObserverSlot {
    fn from(o: GrcObserver) -> Self {
        ObserverSlot::Grc(Box::new(o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NodeId;

    #[test]
    fn normal_policy_is_honest() {
        let mut p = NormalPolicy;
        let mut rng = SimRng::new(1);
        let d = StationPolicy::<usize>::outgoing_duration_us(
            &mut p,
            FrameKind::Cts,
            314,
            false,
            &mut rng,
        );
        assert_eq!(d, 314);
        let f: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 0, 1, 100);
        assert!(!p.ack_corrupted(&f, &mut rng));
        assert!(!p.spoof_ack_for(&f, &mut rng));
    }

    #[test]
    fn noop_observer_trusts_frames() {
        let mut o = NoopObserver;
        let f: Frame<usize> = Frame::cts(NodeId(0), NodeId(1), 32_000);
        let meta = FrameMeta {
            rssi: Rssi::fixed(-40.0),
            now: SimTime::ZERO,
        };
        assert_eq!(o.on_frame(&f, &meta, false), 32_000);
        let ack: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 0);
        assert!(o.accept_ack(&ack, &meta, NodeId(1)));
    }
}
