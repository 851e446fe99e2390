//! The IEEE 802.11 DCF state machine.
//!
//! [`Dcf`] is a *passive* per-station state machine: the network runtime
//! feeds it receptions, carrier-sense transitions and timer expirations,
//! and each handler appends [`MacAction`]s (start a transmission,
//! arm/cancel a timer, deliver a payload) to a buffer the caller owns.
//! This keeps the protocol logic fully
//! unit-testable without a medium, and lets the runtime own all global
//! state (event queue, channel occupancy, reception outcomes).
//!
//! Implemented behavior:
//!
//! * physical + virtual carrier sense (NAV per §9.2.5.4);
//! * DIFS/EIFS deferral and slotted binary-exponential backoff with
//!   freeze/resume, immediate access when the medium has been idle long
//!   enough, and post-transmission backoff;
//! * RTS/CTS exchange (optional), SIFS-spaced CTS/ACK responses that skip
//!   carrier sense, CTS suppressed while the responder's NAV is busy;
//! * retry counters (short for RTS, long for data) with drops at the
//!   standard limits, duplicate filtering at the receiver;
//! * promiscuous observation of every decodable frame (the hook greedy
//!   receivers and GRC both rely on);
//! * the station's [`PolicySlot`] and optional [`GrcObserver`], consulted
//!   at the exact protocol points the paper identifies;
//! * per-destination emulation knobs used by the testbed-table
//!   experiments (`no_retx_to`, `cw_clamp_to`).

use std::collections::VecDeque;

use phy::{PhyParams, Rssi};
use sim::{SimDuration, SimRng, SimTime};

use crate::arf::Arf;
use crate::backoff::Backoff;
use crate::counters::MacCounters;
use crate::dedup::DedupCache;
use crate::frame::{Frame, FrameKind, Msdu, NavCalculator, NodeId, ACK_BYTES, CTS_BYTES};
use crate::grc::{FrameMeta, GrcObserver};
use crate::nav::Nav;
use crate::policy::PolicySlot;

/// Timer classes a station arms. The runtime keeps at most one live timer
/// per kind per station; [`MacAction::SetTimer`] replaces any previous
/// timer of the same kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Backoff countdown completion (transmission attempt).
    Access,
    /// Virtual carrier sense expiry: reconsider access at NAV end.
    NavEnd,
    /// CTS/ACK response timeout while awaiting one as a transmitter.
    Response,
    /// SIFS gap before transmitting a queued response frame.
    Sifs,
}

impl TimerKind {
    /// Number of timer classes, for sizing dense per-node timer tables.
    pub const COUNT: usize = 4;

    /// Dense index of this kind in `[0, COUNT)`.
    pub const fn index(self) -> usize {
        match self {
            TimerKind::Access => 0,
            TimerKind::NavEnd => 1,
            TimerKind::Response => 2,
            TimerKind::Sifs => 3,
        }
    }
}

impl snap::SnapValue for TimerKind {
    fn save(&self, w: &mut snap::Enc) {
        w.u8(self.index() as u8);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(match r.u8()? {
            0 => TimerKind::Access,
            1 => TimerKind::NavEnd,
            2 => TimerKind::Response,
            3 => TimerKind::Sifs,
            t => return Err(snap::SnapError::Corrupt(format!("timer kind tag {t}"))),
        })
    }
}

/// What a reception concluded to, as reported by the medium.
///
/// The frame is *borrowed*: the medium keeps every in-flight frame in
/// its [`crate::FrameArena`] and hands stations a reference, so a
/// reception costs no frame clone. A station that needs payload or
/// header data past the handler's return (delivery, response frames)
/// copies exactly the fields it keeps.
#[derive(Debug, Clone, Copy)]
pub enum RxEvent<'a, M> {
    /// Frame decoded correctly.
    Ok {
        /// The received frame.
        frame: &'a Frame<M>,
        /// Received signal strength.
        rssi: Rssi,
    },
    /// Frame arrived but failed its check sequence. Header fields remain
    /// readable (the paper's Table I shows ≈95 % of corrupted frames
    /// preserve both MAC addresses, which is what makes misbehavior 3
    /// feasible).
    Corrupted {
        /// The damaged frame (headers readable, payload unusable).
        frame: &'a Frame<M>,
        /// Why the frame was damaged.
        cause: CorruptionCause,
    },
}

/// Why an MSDU was abandoned by the MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The interface queue was full on enqueue (never reached the air).
    QueueFull,
    /// The retry limit was exhausted (lost on the channel).
    RetryLimit,
}

/// Why a frame arrived corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionCause {
    /// Channel noise (the configured error model).
    Noise,
    /// Overlapping transmissions without capture.
    Collision,
}

/// Instructions the state machine hands back to the runtime.
#[derive(Debug, Clone)]
pub enum MacAction<M> {
    /// Begin transmitting `frame` now.
    StartTx(Frame<M>),
    /// Arm (replacing any existing) timer of `kind` after `after`.
    SetTimer {
        /// Timer class to arm.
        kind: TimerKind,
        /// Delay from now.
        after: SimDuration,
    },
    /// Cancel the timer of `kind` if armed.
    CancelTimer(TimerKind),
    /// Deliver a received MSDU to the upper layer.
    Deliver {
        /// The payload.
        body: M,
        /// Claimed source station.
        from: NodeId,
    },
    /// An MSDU was abandoned (retry limit or queue overflow).
    Dropped {
        /// The payload.
        body: M,
        /// Intended destination.
        to: NodeId,
        /// Why the MSDU was abandoned.
        reason: DropReason,
    },
    /// A data MSDU was transmitted and acknowledged.
    TxSuccess {
        /// Destination that acknowledged.
        to: NodeId,
        /// The acknowledged payload.
        body: M,
    },
}

/// Static configuration of one station's MAC.
#[derive(Debug, Clone)]
pub struct DcfConfig {
    /// PHY timing/rates in effect.
    pub params: PhyParams,
    /// Whether the RTS/CTS exchange precedes data frames.
    pub rts_enabled: bool,
    /// Minimum MAC-frame size (bytes) that uses RTS when enabled
    /// (0 = always, matching the paper's setup where even TCP ACKs RTS).
    pub rts_threshold: usize,
    /// Short (RTS) retry limit — dot11ShortRetryLimit, default 7.
    pub short_retry_limit: u32,
    /// Long (data) retry limit — dot11LongRetryLimit, default 4.
    pub long_retry_limit: u32,
    /// Interface queue capacity in MSDUs (ns-2's default 50).
    pub queue_capacity: usize,
    /// Destinations toward which MAC retransmission is disabled: an ACK
    /// timeout drops the frame immediately with the CW reset. Used by the
    /// testbed ACK-spoofing emulation (Table VIII).
    pub no_retx_to: Vec<NodeId>,
    /// Destinations toward which the contention window is clamped to
    /// CWmin. Used by the testbed fake-ACK emulation (Table IX).
    pub cw_clamp_to: Vec<NodeId>,
    /// Automatic Rate Fallback configuration; `None` keeps the fixed
    /// PHY default rate (the paper's main setting).
    pub auto_rate: Option<crate::arf::ArfConfig>,
}

impl DcfConfig {
    /// Standard configuration for a PHY: RTS/CTS on with threshold 0,
    /// standard retry limits, 50-packet queue.
    pub fn new(params: PhyParams) -> Self {
        DcfConfig {
            params,
            rts_enabled: true,
            rts_threshold: 0,
            short_retry_limit: 7,
            long_retry_limit: 4,
            queue_capacity: 50,
            no_retx_to: Vec::new(),
            cw_clamp_to: Vec::new(),
            auto_rate: None,
        }
    }

    /// Same but with RTS/CTS disabled.
    pub fn without_rts(params: PhyParams) -> Self {
        DcfConfig {
            rts_enabled: false,
            ..DcfConfig::new(params)
        }
    }
}

#[derive(Debug, Clone)]
struct TxOp<M> {
    dst: NodeId,
    body: M,
    seq: u64,
    short_retries: u32,
    long_retries: u32,
    /// When the MSDU entered the interface queue (access-latency
    /// telemetry).
    enqueued_at: SimTime,
}

impl<M: Msdu> snap::SnapValue for TxOp<M> {
    fn save(&self, w: &mut snap::Enc) {
        self.dst.save(w);
        self.body.save(w);
        w.u64(self.seq);
        w.u32(self.short_retries);
        w.u32(self.long_retries);
        w.u64(self.enqueued_at.as_nanos());
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(TxOp {
            dst: NodeId::load(r)?,
            body: M::load(r)?,
            seq: r.u64()?,
            short_retries: r.u32()?,
            long_retries: r.u32()?,
            enqueued_at: SimTime::from_nanos(r.u64()?),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Awaiting {
    Cts,
    Ack,
}

/// What `on_tx_end` needs to know about the frame that just left the
/// radio — kept instead of a full [`Frame`] clone per transmission.
#[derive(Debug, Clone, Copy)]
struct TxMeta {
    kind: FrameKind,
    spoofed: bool,
}

impl snap::SnapValue for TxMeta {
    fn save(&self, w: &mut snap::Enc) {
        self.kind.save(w);
        w.bool(self.spoofed);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(TxMeta {
            kind: FrameKind::load(r)?,
            spoofed: r.bool()?,
        })
    }
}

impl snap::SnapValue for Awaiting {
    fn save(&self, w: &mut snap::Enc) {
        w.u8(match self {
            Awaiting::Cts => 0,
            Awaiting::Ack => 1,
        });
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(match r.u8()? {
            0 => Awaiting::Cts,
            1 => Awaiting::Ack,
            t => return Err(snap::SnapError::Corrupt(format!("awaiting tag {t}"))),
        })
    }
}

/// One station's DCF instance.
///
/// See the [module docs](self) for the event/action contract.
pub struct Dcf<M: Msdu> {
    id: NodeId,
    cfg: DcfConfig,
    navcalc: NavCalculator,
    nav: Nav,
    backoff: Backoff,
    rng: SimRng,
    policy: PolicySlot,
    /// GRC detection and mitigation, boxed so honest stations do not
    /// carry its size.
    observer: Option<Box<GrcObserver>>,
    /// Statistics, publicly readable by experiments.
    pub counters: MacCounters,
    queue: VecDeque<(NodeId, M, SimTime)>,
    current: Option<TxOp<M>>,
    awaiting: Option<Awaiting>,
    pending_response: Option<Frame<M>>,
    backoff_slots: Option<u32>,
    /// The instant slots began being consumed in the current countdown.
    decr_start: Option<SimTime>,
    access_armed: bool,
    phys_busy: bool,
    txing: bool,
    tx_meta: Option<TxMeta>,
    /// When the *physical* medium last became idle (others' transmissions).
    phys_idle_since: SimTime,
    /// When our own radio last finished transmitting.
    own_tx_idle_since: SimTime,
    use_eifs: bool,
    next_seq: u64,
    dedup: DedupCache,
    arf: Option<Arf>,
    /// Flight recorder, if this run records (see [`Dcf::set_recorder`]).
    recorder: Option<::obs::RecorderHandle>,
    /// Time of the last acknowledged MSDU (inter-ACK gap telemetry).
    last_ack_at: Option<SimTime>,
}

impl<M: Msdu> std::fmt::Debug for Dcf<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dcf")
            .field("id", &self.id)
            .field("queue_len", &self.queue.len())
            .field("current", &self.current.is_some())
            .field("awaiting", &self.awaiting)
            .field("backoff_slots", &self.backoff_slots)
            .field("phys_busy", &self.phys_busy)
            .field("txing", &self.txing)
            .finish_non_exhaustive()
    }
}

impl<M: Msdu> Dcf<M> {
    /// Creates a station with the honest policy and no observer.
    pub fn new(id: NodeId, cfg: DcfConfig, rng: SimRng) -> Self {
        Self::with_hooks(id, cfg, rng, PolicySlot::Normal, None)
    }

    /// Creates a station with an explicit policy and, optionally, the GRC
    /// observer.
    pub fn with_hooks(
        id: NodeId,
        cfg: DcfConfig,
        rng: SimRng,
        policy: PolicySlot,
        observer: Option<GrcObserver>,
    ) -> Self {
        let backoff = Backoff::new(&cfg.params);
        let counters = MacCounters::new(backoff.cw());
        let navcalc = NavCalculator::new(cfg.params);
        let arf = cfg.auto_rate.clone().map(Arf::new);
        Dcf {
            id,
            cfg,
            navcalc,
            nav: Nav::new(),
            backoff,
            rng,
            policy,
            observer: observer.map(Box::new),
            counters,
            queue: VecDeque::new(),
            current: None,
            awaiting: None,
            pending_response: None,
            backoff_slots: None,
            decr_start: None,
            access_armed: false,
            phys_busy: false,
            txing: false,
            tx_meta: None,
            phys_idle_since: SimTime::ZERO,
            own_tx_idle_since: SimTime::ZERO,
            use_eifs: false,
            next_seq: 0,
            dedup: DedupCache::new(),
            arf,
            recorder: None,
            last_ack_at: None,
        }
    }

    /// Installs a flight recorder. All MAC instrumentation sites are
    /// no-ops until this is called, so the honest path costs one `None`
    /// check per site.
    pub fn set_recorder(&mut self, recorder: ::obs::RecorderHandle) {
        self.recorder = Some(recorder);
    }

    fn obs_emit(&self, at: SimTime, kind: &'static ::obs::EventKind, vals: &[f64]) {
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().emit(at, self.id.0, kind, vals);
        }
    }

    fn obs_hist(&self, name: &'static str, value: f64) {
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record_hist(name, value);
        }
    }

    /// This station's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// FNV-1a digest over the GRC observer's state alone — the
    /// misbehavior-detection layer of the audit ladder. Policies are
    /// stateless and a station without an observer encodes nothing, so
    /// honest stations all share one digest.
    pub fn hooks_digest(&self) -> u64 {
        let mut w = snap::Enc::new();
        if let Some(o) = &self.observer {
            o.save_state(&mut w);
        }
        snap::fnv1a(w.bytes())
    }

    /// This station's GRC observer, if it runs one: its guards hold the
    /// detection reports.
    pub fn grc(&self) -> Option<&GrcObserver> {
        self.observer.as_deref()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DcfConfig {
        &self.cfg
    }

    /// Behavior deviations this station's policy and configuration
    /// declare, as [`crate::policy::quirk`] flags — the conformance
    /// checker's per-station whitelist.
    pub fn quirk_flags(&self) -> u32 {
        let mut flags = self.policy.quirk_flags();
        if !self.cfg.no_retx_to.is_empty() {
            flags |= crate::policy::quirk::NO_RETX;
        }
        if !self.cfg.cw_clamp_to.is_empty() {
            flags |= crate::policy::quirk::CW_CLAMP;
        }
        flags
    }

    /// Current contention window.
    pub fn cw(&self) -> u32 {
        self.backoff.cw()
    }

    /// Pending MSDUs in the interface queue (excluding the in-flight one).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True if the station currently holds an MSDU it is trying to send.
    pub fn has_current(&self) -> bool {
        self.current.is_some()
    }

    /// The NAV expiry instant (for tests and detectors).
    pub fn nav_until(&self) -> SimTime {
        self.nav.until()
    }

    /// Current ARF state, if rate adaptation is enabled.
    pub fn arf(&self) -> Option<&Arf> {
        self.arf.as_ref()
    }

    /// The data rate the next data frame will use.
    pub fn current_data_rate_bps(&self) -> u64 {
        self.arf
            .as_ref()
            .map_or(self.cfg.params.data_rate_bps, Arf::rate_bps)
    }

    // ------------------------------------------------------------------
    // Inputs from the runtime
    // ------------------------------------------------------------------

    /// The queue-full rule: when the interface queue is full, counts a
    /// drop of an MSDU for `dst`, emits `MAC_DROP` and returns `true`.
    ///
    /// An upper layer with nothing to undo for a refused MSDU (a CBR
    /// source) asks this first and, when refused, skips
    /// [`on_enqueue`](Self::on_enqueue) and its actions.
    pub fn refuse_if_full(&mut self, now: SimTime, dst: NodeId) -> bool {
        if self.queue.len() < self.cfg.queue_capacity {
            return false;
        }
        self.counters.queue_drops.incr();
        self.obs_emit(
            now,
            &crate::obs::MAC_DROP,
            &[crate::obs::DROP_QUEUE_FULL, dst.0 as f64],
        );
        true
    }

    /// Upper layer hands the MAC an MSDU for `dst`.
    pub fn on_enqueue(
        &mut self,
        now: SimTime,
        dst: NodeId,
        body: M,
        actions: &mut Vec<MacAction<M>>,
    ) {
        if self.refuse_if_full(now, dst) {
            actions.push(MacAction::Dropped {
                body,
                to: dst,
                reason: DropReason::QueueFull,
            });
            return;
        }
        self.queue.push_back((dst, body, now));
        // Immediate access: medium idle ≥ IFS, nothing pending, no backoff.
        if self.current.is_none()
            && self.awaiting.is_none()
            && !self.txing
            && self.pending_response.is_none()
        {
            if self.backoff_slots.is_none() {
                if let Some(start) = self.effective_idle_start() {
                    if start + self.ifs() <= now {
                        self.begin_transmission(now, actions);
                        return;
                    }
                }
                // Medium busy (or not yet idle long enough): draw a backoff.
                self.backoff_slots = Some(self.draw_slots(now));
            }
            self.reschedule_access(now, actions);
        }
    }

    /// The physical medium became busy (another station's transmission
    /// reached us). The runtime coalesces overlapping transmissions and
    /// reports only 0→1 transitions.
    pub fn on_channel_busy(&mut self, now: SimTime, actions: &mut Vec<MacAction<M>>) {
        debug_assert!(!self.phys_busy, "busy transition while already busy");
        self.phys_busy = true;
        self.freeze_countdown(now, actions);
    }

    /// The physical medium became idle again (1→0 transition).
    pub fn on_channel_idle(&mut self, now: SimTime, actions: &mut Vec<MacAction<M>>) {
        debug_assert!(self.phys_busy, "idle transition while already idle");
        self.phys_busy = false;
        self.phys_idle_since = now;
        self.reschedule_access(now, actions);
    }

    /// Our own transmission completed.
    pub fn on_tx_end(&mut self, now: SimTime, actions: &mut Vec<MacAction<M>>) {
        debug_assert!(self.txing, "tx end without transmission");
        self.txing = false;
        self.own_tx_idle_since = now;
        let meta = self.tx_meta.take().expect("tx end without frame");
        match meta.kind {
            FrameKind::Rts => {
                self.awaiting = Some(Awaiting::Cts);
                actions.push(MacAction::SetTimer {
                    kind: TimerKind::Response,
                    after: self.cfg.params.response_timeout(CTS_BYTES),
                });
            }
            FrameKind::Data if !meta.spoofed && self.current.is_some() => {
                self.awaiting = Some(Awaiting::Ack);
                actions.push(MacAction::SetTimer {
                    kind: TimerKind::Response,
                    after: self.cfg.params.response_timeout(ACK_BYTES),
                });
            }
            _ => {}
        }
        self.reschedule_access(now, actions);
    }

    /// A reception concluded at this station.
    pub fn on_rx_end(
        &mut self,
        now: SimTime,
        event: RxEvent<'_, M>,
        actions: &mut Vec<MacAction<M>>,
    ) {
        match event {
            RxEvent::Ok { frame, rssi } => self.on_rx_ok(now, frame, rssi, actions),
            RxEvent::Corrupted { frame, cause } => self.on_rx_corrupted(now, frame, cause, actions),
        }
    }

    /// A timer armed earlier fired.
    pub fn on_timer(&mut self, now: SimTime, kind: TimerKind, actions: &mut Vec<MacAction<M>>) {
        match kind {
            TimerKind::Access => {
                self.access_armed = false;
                self.decr_start = None;
                self.backoff_slots = None;
                debug_assert!(!self.phys_busy && !self.txing, "access fired while busy");
                if self.current.is_some() || !self.queue.is_empty() {
                    self.begin_transmission(now, actions);
                }
            }
            TimerKind::NavEnd => {
                self.obs_emit(
                    now,
                    &crate::obs::NAV_END,
                    &[self.nav.until().as_micros() as f64],
                );
                self.reschedule_access(now, actions);
            }
            TimerKind::Sifs => {
                if let Some(frame) = self.pending_response.take() {
                    if !self.txing {
                        self.start_tx(now, frame, actions);
                    }
                    // else: radio already busy with our own access
                    // transmission (collision-window edge); response lost.
                }
            }
            TimerKind::Response => {
                self.on_response_timeout(now, actions);
            }
        }
    }

    // ------------------------------------------------------------------
    // Reception handling
    // ------------------------------------------------------------------

    fn on_rx_ok(
        &mut self,
        now: SimTime,
        frame: &Frame<M>,
        rssi: Rssi,
        actions: &mut Vec<MacAction<M>>,
    ) {
        self.use_eifs = false;
        let to_me = frame.dst == self.id;
        let meta = FrameMeta { rssi, now };
        let honored_duration = match &mut self.observer {
            Some(o) => o.on_frame(frame, &meta),
            None => frame.duration_us,
        };
        if !to_me {
            self.nav.update(now, honored_duration, false);
            if honored_duration > 0 {
                self.obs_emit(
                    now,
                    &crate::obs::NAV_SET,
                    &[frame.src.0 as f64, self.nav.until().as_micros() as f64],
                );
            }
        }
        match frame.kind {
            FrameKind::Rts
                if to_me
                // Respond with CTS only if our virtual carrier is idle.
                && self.nav.is_idle(now) =>
            {
                let normal = self.navcalc.cts_duration_us(frame.duration_us);
                let dur =
                    self.policy
                        .outgoing_duration_us(FrameKind::Cts, normal, false, &mut self.rng);
                if dur > normal {
                    self.counters.inflated_navs_sent.incr();
                }
                self.queue_response(Frame::cts(self.id, frame.src, dur), actions);
                self.counters.cts_sent.incr();
            }
            FrameKind::Cts if to_me && self.awaiting == Some(Awaiting::Cts) => {
                actions.push(MacAction::CancelTimer(TimerKind::Response));
                self.awaiting = None;
                let data = self.build_data_frame();
                self.queue_response(data, actions);
            }
            FrameKind::Data if to_me => {
                let normal = self.navcalc.ack_duration_us();
                let dur =
                    self.policy
                        .outgoing_duration_us(FrameKind::Ack, normal, false, &mut self.rng);
                if dur > normal {
                    self.counters.inflated_navs_sent.incr();
                }
                self.queue_response(Frame::ack(self.id, frame.src, dur), actions);
                self.counters.acks_sent.incr();
                let is_new = self.dedup.is_new(frame.src, frame.seq);
                self.obs_emit(
                    now,
                    &crate::obs::DATA_RX,
                    &[
                        frame.src.0 as f64,
                        frame.seq as f64,
                        frame.retry as u8 as f64,
                        !is_new as u8 as f64,
                    ],
                );
                if is_new {
                    let body = frame.body.clone().expect("data frame without body");
                    self.counters.delivered_msdus.incr();
                    self.counters.delivered_bytes.add(body.wire_bytes() as u64);
                    actions.push(MacAction::Deliver {
                        body,
                        from: frame.src,
                    });
                } else {
                    self.counters.duplicates.incr();
                }
            }
            FrameKind::Ack if to_me && self.awaiting == Some(Awaiting::Ack) => {
                let expected_from = self.current.as_ref().map(|c| c.dst).unwrap_or(frame.src);
                if self
                    .observer
                    .as_mut()
                    .is_none_or(|o| o.accept_ack(&meta, expected_from))
                {
                    actions.push(MacAction::CancelTimer(TimerKind::Response));
                    self.awaiting = None;
                    self.complete_current_success(now, actions);
                }
                // Rejected ACKs are ignored: the Response timer keeps
                // running and a timeout will trigger retransmission.
            }
            FrameKind::Data
                if !to_me
                // Promiscuous sniffing: misbehavior 2 hook.
                && self.policy.spoof_ack_for(frame, &mut self.rng)
                    && self.pending_response.is_none()
                    && !self.txing =>
            {
                let spoof = Frame::spoofed_ack(self.id, frame.dst, frame.src);
                self.counters.spoofed_acks_sent.incr();
                self.queue_response(spoof, actions);
            }
            _ => {}
        }
        self.reschedule_access(now, actions);
    }

    fn on_rx_corrupted(
        &mut self,
        now: SimTime,
        frame: &Frame<M>,
        cause: CorruptionCause,
        actions: &mut Vec<MacAction<M>>,
    ) {
        self.use_eifs = true;
        match cause {
            CorruptionCause::Noise => self.counters.corrupted_rx.incr(),
            CorruptionCause::Collision => self.counters.collision_rx.incr(),
        }
        // Misbehavior 3: fake ACK for a corrupted frame addressed to us.
        if frame.dst == self.id
            && frame.kind == FrameKind::Data
            && self.pending_response.is_none()
            && !self.txing
            && self.policy.ack_corrupted(&mut self.rng)
        {
            self.counters.fake_acks_sent.incr();
            self.queue_response(Frame::ack(self.id, frame.src, 0), actions);
        }
        self.reschedule_access(now, actions);
    }

    // ------------------------------------------------------------------
    // Transmission path
    // ------------------------------------------------------------------

    fn effective_cw_clamped(&self, dst: NodeId) -> bool {
        self.cfg.cw_clamp_to.contains(&dst)
    }

    fn draw_slots(&mut self, now: SimTime) -> u32 {
        let cw = self.backoff.cw();
        self.counters.record_draw(cw);
        let slots = match self.policy.backoff_slots(cw, &mut self.rng) {
            Some(slots) => slots.min(cw),
            None => self.backoff.draw(&mut self.rng),
        };
        if self.recorder.is_some() {
            self.obs_emit(now, &crate::obs::BACKOFF, &[cw as f64, slots as f64]);
            self.obs_hist(crate::obs::HIST_BACKOFF_SLOTS, slots as f64);
        }
        slots
    }

    fn build_data_frame(&mut self) -> Frame<M> {
        let current = self.current.as_ref().expect("data frame without tx op");
        let is_tack = current.body.is_transport_ack();
        let normal = self.navcalc.data_duration_us();
        let dur = self
            .policy
            .outgoing_duration_us(FrameKind::Data, normal, is_tack, &mut self.rng);
        if dur > normal {
            self.counters.inflated_navs_sent.incr();
        }
        let mut f = Frame::data(self.id, current.dst, dur, current.seq, current.body.clone());
        // The 802.11 Retry bit marks retransmissions of *this* frame:
        // preceding RTS failures do not set it.
        f.retry = current.long_retries > 0;
        f.rate_bps = self.arf.as_ref().map(Arf::rate_bps);
        self.counters.data_sent.incr();
        if current.long_retries == 0 {
            self.counters.data_first_tx.incr();
        }
        f
    }

    /// Commits to a transmission attempt now (backoff exhausted or
    /// immediate access). Pops the queue into `current` if needed and puts
    /// the RTS or data frame on the air.
    fn begin_transmission(&mut self, now: SimTime, actions: &mut Vec<MacAction<M>>) {
        debug_assert!(
            cfg!(feature = "inject-nav-bug") || self.nav.is_idle(now),
            "transmitting against NAV"
        );
        if self.current.is_none() {
            let (dst, body, enqueued_at) = match self.queue.pop_front() {
                Some(x) => x,
                None => return,
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.current = Some(TxOp {
                dst,
                body,
                seq,
                short_retries: 0,
                long_retries: 0,
                enqueued_at,
            });
        }
        let (dst, mac_bytes, is_tack, rts_retry) = {
            let c = self.current.as_ref().expect("tx without op");
            let bytes = crate::frame::DATA_HEADER_BYTES + c.body.wire_bytes();
            (c.dst, bytes, c.body.is_transport_ack(), c.short_retries > 0)
        };
        let use_rts = self.cfg.rts_enabled && mac_bytes >= self.cfg.rts_threshold;
        let frame = if use_rts {
            let data_rate = self.current_data_rate_bps();
            let normal = self.navcalc.rts_duration_us_at(mac_bytes, data_rate);
            let dur =
                self.policy
                    .outgoing_duration_us(FrameKind::Rts, normal, is_tack, &mut self.rng);
            if dur > normal {
                self.counters.inflated_navs_sent.incr();
            }
            let mut f = Frame::rts(self.id, dst, dur);
            f.retry = rts_retry;
            self.counters.rts_sent.incr();
            f
        } else {
            self.build_data_frame()
        };
        self.start_tx(now, frame, actions);
    }

    fn start_tx(&mut self, now: SimTime, frame: Frame<M>, actions: &mut Vec<MacAction<M>>) {
        debug_assert!(!self.txing, "overlapping own transmissions");
        // Our own transmission suspends any pending backoff countdown.
        self.freeze_countdown(now, actions);
        self.txing = true;
        self.tx_meta = Some(TxMeta {
            kind: frame.kind,
            spoofed: frame.is_spoofed(),
        });
        actions.push(MacAction::StartTx(frame));
    }

    fn queue_response(&mut self, frame: Frame<M>, actions: &mut Vec<MacAction<M>>) {
        debug_assert!(
            self.pending_response.is_none(),
            "overlapping SIFS responses"
        );
        self.pending_response = Some(frame);
        actions.push(MacAction::SetTimer {
            kind: TimerKind::Sifs,
            after: self.cfg.params.sifs,
        });
    }

    fn complete_current_success(&mut self, now: SimTime, actions: &mut Vec<MacAction<M>>) {
        let op = self.current.take().expect("success without tx op");
        self.counters.tx_successes.incr();
        actions.push(MacAction::TxSuccess {
            to: op.dst,
            body: op.body.clone(),
        });
        if let Some(arf) = &mut self.arf {
            arf.on_success();
        }
        self.backoff.on_success();
        self.counters.record_cw(now, self.backoff.cw());
        if self.recorder.is_some() {
            let queue_us = now.saturating_since(op.enqueued_at).as_micros() as f64;
            self.obs_emit(
                now,
                &crate::obs::TX_SUCCESS,
                &[op.long_retries as f64, queue_us, self.backoff.cw() as f64],
            );
            self.obs_hist(crate::obs::HIST_ACCESS_US, queue_us);
            if let Some(prev) = self.last_ack_at {
                self.obs_hist(
                    crate::obs::HIST_INTER_ACK_US,
                    now.saturating_since(prev).as_micros() as f64,
                );
            }
            self.last_ack_at = Some(now);
        }
        self.backoff_slots = Some(self.draw_slots(now));
        self.reschedule_access(now, actions);
    }

    fn on_response_timeout(&mut self, now: SimTime, actions: &mut Vec<MacAction<M>>) {
        self.counters.timeouts.incr();
        let awaiting = match self.awaiting.take() {
            Some(a) => a,
            None => return,
        };
        let (dst, drop, retry_count) = {
            let op = self.current.as_mut().expect("timeout without tx op");
            match awaiting {
                Awaiting::Cts => {
                    op.short_retries += 1;
                    (
                        op.dst,
                        op.short_retries > self.cfg.short_retry_limit,
                        op.short_retries,
                    )
                }
                Awaiting::Ack => {
                    op.long_retries += 1;
                    (
                        op.dst,
                        op.long_retries > self.cfg.long_retry_limit,
                        op.long_retries,
                    )
                }
            }
        };
        match awaiting {
            Awaiting::Cts => self.counters.short_retries.incr(),
            Awaiting::Ack => {
                self.counters.long_retries.incr();
                if let Some(arf) = &mut self.arf {
                    arf.on_failure();
                }
            }
        }
        let no_retx = awaiting == Awaiting::Ack && self.cfg.no_retx_to.contains(&dst);
        if drop || no_retx {
            let op = self.current.take().expect("drop without tx op");
            self.counters.retry_drops.incr();
            self.obs_emit(
                now,
                &crate::obs::MAC_DROP,
                &[crate::obs::DROP_RETRY_LIMIT, op.dst.0 as f64],
            );
            actions.push(MacAction::Dropped {
                body: op.body,
                to: op.dst,
                reason: DropReason::RetryLimit,
            });
            self.backoff.on_success(); // CW resets after a final drop
        } else if self.effective_cw_clamped(dst) {
            // Testbed fake-ACK emulation: window pinned at CWmin.
            self.backoff.on_success();
        } else {
            self.backoff.on_failure();
        }
        self.counters.record_cw(now, self.backoff.cw());
        if self.recorder.is_some() {
            let long = if awaiting == Awaiting::Ack { 1.0 } else { 0.0 };
            self.obs_emit(
                now,
                &crate::obs::RETRY,
                &[long, retry_count as f64, self.backoff.cw() as f64],
            );
        }
        self.backoff_slots = Some(self.draw_slots(now));
        self.reschedule_access(now, actions);
    }

    // ------------------------------------------------------------------
    // Carrier sense and backoff bookkeeping
    // ------------------------------------------------------------------

    fn ifs(&self) -> SimDuration {
        if self.use_eifs {
            self.cfg.params.eifs(ACK_BYTES)
        } else {
            self.cfg.params.difs
        }
    }

    /// The instant from which the medium counts as continuously idle for
    /// access purposes (physical CS, own radio, and NAV all idle), or
    /// `None` if currently busy.
    fn effective_idle_start(&self) -> Option<SimTime> {
        if self.phys_busy || self.txing {
            return None;
        }
        let idle = self.phys_idle_since.max(self.own_tx_idle_since);
        if cfg!(feature = "inject-nav-bug") {
            // Fault injection for the conformance harness: deliberately
            // ignore the virtual carrier so transmissions start inside
            // other stations' NAV reservations.
            Some(idle)
        } else {
            Some(idle.max(self.nav.until()))
        }
    }

    fn freeze_countdown(&mut self, now: SimTime, actions: &mut Vec<MacAction<M>>) {
        if self.access_armed {
            actions.push(MacAction::CancelTimer(TimerKind::Access));
            self.access_armed = false;
            if let (Some(slots), Some(decr_start)) = (self.backoff_slots, self.decr_start) {
                let consumed = if now > decr_start {
                    (now.saturating_since(decr_start).as_nanos() / self.cfg.params.slot.as_nanos())
                        as u32
                } else {
                    0
                };
                self.backoff_slots = Some(slots.saturating_sub(consumed));
            }
            self.decr_start = None;
        }
    }

    /// Recomputes when (if ever) the pending backoff completes, arming the
    /// Access timer or a NavEnd wake-up accordingly.
    fn reschedule_access(&mut self, now: SimTime, actions: &mut Vec<MacAction<M>>) {
        if self.access_armed {
            actions.push(MacAction::CancelTimer(TimerKind::Access));
            self.access_armed = false;
            self.decr_start = None;
        }
        if self.txing || self.phys_busy {
            return;
        }
        if self.backoff_slots.is_none() {
            // No countdown pending. If traffic is queued and no exchange
            // or response is in progress, start a fresh backoff for it
            // (this covers packets that arrived while we were busy
            // receiving or responding).
            if self.current.is_none()
                && !self.queue.is_empty()
                && self.awaiting.is_none()
                && self.pending_response.is_none()
            {
                self.backoff_slots = Some(self.draw_slots(now));
            } else {
                return;
            }
        }
        let start = match self.effective_idle_start() {
            Some(s) => s,
            None => return,
        };
        if start > now {
            // Virtual carrier still busy: wake up at NAV end.
            actions.push(MacAction::SetTimer {
                kind: TimerKind::NavEnd,
                after: start.saturating_since(now),
            });
            return;
        }
        let slots = self.backoff_slots.unwrap_or(0);
        let decr_start = start + self.ifs();
        let fire_at = decr_start + self.cfg.params.slot * slots as u64;
        let after = if fire_at > now {
            fire_at.saturating_since(now)
        } else {
            SimDuration::ZERO
        };
        self.decr_start = Some(decr_start);
        self.access_armed = true;
        actions.push(MacAction::SetTimer {
            kind: TimerKind::Access,
            after,
        });
    }
}

/// Snapshot = every field the protocol mutates at runtime, in declaration
/// order; configuration (`id`, [`DcfConfig`], the NAV calculator), the
/// policy, the observer and the recorder plumbing are rebuilt by the
/// owner before restoring. Policies are stateless; the observer's
/// detector state rides along through [`GrcObserver::save_state`].
impl<M: Msdu> snap::SnapState for Dcf<M> {
    fn snap_save(&self, w: &mut snap::Enc) {
        use snap::SnapValue as _;
        self.nav.save(w);
        self.backoff.save(w);
        self.rng.snap_save(w);
        self.counters.save(w);
        w.usize(self.queue.len());
        for item in &self.queue {
            item.save(w);
        }
        self.current.save(w);
        self.awaiting.save(w);
        self.pending_response.save(w);
        self.backoff_slots.save(w);
        self.decr_start.save(w);
        w.bool(self.access_armed);
        w.bool(self.phys_busy);
        w.bool(self.txing);
        self.tx_meta.save(w);
        w.u64(self.phys_idle_since.as_nanos());
        w.u64(self.own_tx_idle_since.as_nanos());
        w.bool(self.use_eifs);
        w.u64(self.next_seq);
        self.dedup.save(w);
        w.bool(self.arf.is_some());
        if let Some(arf) = &self.arf {
            arf.snap_save(w);
        }
        self.last_ack_at.save(w);
        if let Some(o) = &self.observer {
            o.save_state(w);
        }
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        use snap::SnapValue as _;
        self.nav = Nav::load(r)?;
        self.backoff = Backoff::load(r)?;
        self.rng.snap_restore(r)?;
        self.counters = MacCounters::load(r)?;
        let queue_len = r.count("MAC queue length")?;
        self.queue.clear();
        for _ in 0..queue_len {
            self.queue.push_back(<(NodeId, M, SimTime)>::load(r)?);
        }
        self.current = Option::<TxOp<M>>::load(r)?;
        self.awaiting = Option::<Awaiting>::load(r)?;
        self.pending_response = Option::<Frame<M>>::load(r)?;
        self.backoff_slots = Option::<u32>::load(r)?;
        self.decr_start = Option::<SimTime>::load(r)?;
        self.access_armed = r.bool()?;
        self.phys_busy = r.bool()?;
        self.txing = r.bool()?;
        self.tx_meta = Option::<TxMeta>::load(r)?;
        self.phys_idle_since = SimTime::from_nanos(r.u64()?);
        self.own_tx_idle_since = SimTime::from_nanos(r.u64()?);
        self.use_eifs = r.bool()?;
        self.next_seq = r.u64()?;
        self.dedup = DedupCache::load(r)?;
        let has_arf = r.bool()?;
        if has_arf != self.arf.is_some() {
            return Err(snap::SnapError::Corrupt(
                "ARF presence differs between snapshot and configuration".into(),
            ));
        }
        if let Some(arf) = &mut self.arf {
            arf.snap_restore(r)?;
        }
        self.last_ack_at = Option::<SimTime>::load(r)?;
        match &mut self.observer {
            Some(o) => o.load_state(r),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u16) -> Dcf<usize> {
        Dcf::new(
            NodeId(id),
            DcfConfig::new(PhyParams::dot11b()),
            SimRng::new(id as u64 + 1),
        )
    }

    /// Runs one handler into a fresh buffer and returns what it appended.
    fn acts(call: impl FnOnce(&mut Vec<MacAction<usize>>)) -> Vec<MacAction<usize>> {
        let mut actions = Vec::new();
        call(&mut actions);
        actions
    }

    fn has_start_tx(actions: &[MacAction<usize>]) -> Option<&Frame<usize>> {
        actions.iter().find_map(|a| match a {
            MacAction::StartTx(f) => Some(f),
            _ => None,
        })
    }

    #[test]
    fn immediate_access_when_idle_long_enough() {
        let mut d = mk(0);
        // Medium idle since t=0; enqueue at t=1ms ≥ DIFS → immediate tx.
        let actions = acts(|v| d.on_enqueue(SimTime::from_millis(1), NodeId(1), 1024, v));
        let f = has_start_tx(&actions).expect("should transmit immediately");
        assert_eq!(f.kind, FrameKind::Rts);
        assert_eq!(f.dst, NodeId(1));
    }

    #[test]
    fn no_immediate_access_right_after_busy() {
        let mut d = mk(0);
        let t0 = SimTime::from_millis(1);
        acts(|v| d.on_channel_busy(t0, v));
        let t1 = t0 + SimDuration::from_micros(300);
        acts(|v| d.on_channel_idle(t1, v));
        // Enqueue 10 µs after idle: less than DIFS → backoff required.
        let actions = acts(|v| d.on_enqueue(t1 + SimDuration::from_micros(10), NodeId(1), 1024, v));
        assert!(has_start_tx(&actions).is_none());
        assert!(actions.iter().any(|a| matches!(
            a,
            MacAction::SetTimer {
                kind: TimerKind::Access,
                ..
            }
        )));
    }

    #[test]
    fn rts_disabled_sends_data_directly() {
        let mut d: Dcf<usize> = Dcf::new(
            NodeId(0),
            DcfConfig::without_rts(PhyParams::dot11b()),
            SimRng::new(7),
        );
        let actions = acts(|v| d.on_enqueue(SimTime::from_millis(1), NodeId(1), 1024, v));
        let f = has_start_tx(&actions).expect("tx");
        assert_eq!(f.kind, FrameKind::Data);
        assert_eq!(f.duration_us, 314); // SIFS + ACK on 802.11b
    }

    #[test]
    fn rts_carries_full_exchange_nav() {
        let mut d = mk(0);
        let actions = acts(|v| d.on_enqueue(SimTime::from_millis(1), NodeId(1), 1024, v));
        let f = has_start_tx(&actions).unwrap();
        let calc = NavCalculator::new(PhyParams::dot11b());
        assert_eq!(
            f.duration_us,
            calc.rts_duration_us(crate::frame::DATA_HEADER_BYTES + 1024)
        );
    }

    #[test]
    fn receiver_answers_rts_with_cts_after_sifs() {
        let mut d = mk(1);
        let rts: Frame<usize> = Frame::rts(NodeId(0), NodeId(1), 2000);
        let actions = acts(|v| {
            d.on_rx_end(
                SimTime::from_millis(1),
                RxEvent::Ok {
                    frame: &rts,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        // CTS is queued behind a SIFS timer, not transmitted instantly.
        assert!(has_start_tx(&actions).is_none());
        assert!(actions.iter().any(|a| matches!(
            a,
            MacAction::SetTimer {
                kind: TimerKind::Sifs,
                ..
            }
        )));
        let actions = acts(|v| {
            d.on_timer(
                SimTime::from_millis(1) + SimDuration::from_micros(10),
                TimerKind::Sifs,
                v,
            )
        });
        let f = has_start_tx(&actions).unwrap();
        assert_eq!(f.kind, FrameKind::Cts);
        let calc = NavCalculator::new(PhyParams::dot11b());
        assert_eq!(f.duration_us, calc.cts_duration_us(2000));
    }

    #[test]
    fn cts_suppressed_while_nav_busy() {
        let mut d = mk(1);
        let t = SimTime::from_millis(1);
        // Overheard CTS reserves the medium for 5000 µs.
        let other: Frame<usize> = Frame::cts(NodeId(5), NodeId(6), 5000);
        acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Ok {
                    frame: &other,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        let rts: Frame<usize> = Frame::rts(NodeId(0), NodeId(1), 2000);
        let actions = acts(|v| {
            d.on_rx_end(
                t + SimDuration::from_micros(100),
                RxEvent::Ok {
                    frame: &rts,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        assert!(
            !actions.iter().any(|a| matches!(
                a,
                MacAction::SetTimer {
                    kind: TimerKind::Sifs,
                    ..
                }
            )),
            "CTS must be suppressed while NAV busy"
        );
    }

    #[test]
    fn data_is_acked_and_delivered_once() {
        let mut d = mk(1);
        let t = SimTime::from_millis(1);
        let data: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 314, 42, 1024);
        let actions = acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Ok {
                    frame: &data,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        assert!(actions
            .iter()
            .any(|a| matches!(a, MacAction::Deliver { body: 1024, .. })));
        // Retransmission of the same seq: ACK again, no second delivery.
        let mut retx = data;
        retx.retry = true;
        let t2 = t + SimDuration::from_millis(2);
        // Flush the ACK.
        let actions = acts(|v| d.on_timer(t + SimDuration::from_micros(10), TimerKind::Sifs, v));
        assert!(has_start_tx(&actions).is_some());
        acts(|v| d.on_tx_end(t + SimDuration::from_micros(314), v));
        let actions = acts(|v| {
            d.on_rx_end(
                t2,
                RxEvent::Ok {
                    frame: &retx,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        assert!(!actions
            .iter()
            .any(|a| matches!(a, MacAction::Deliver { .. })));
        assert_eq!(d.counters.duplicates.get(), 1);
        assert_eq!(d.counters.acks_sent.get(), 2);
    }

    #[test]
    fn retry_marked_frame_with_unseen_seq_still_delivers() {
        // The retry bit alone does not make a duplicate: when the first
        // copy was lost on air, the retransmission is the receiver's
        // first sight of that MSDU and must reach the upper layer.
        let mut d = mk(1);
        let mut data: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 314, 7, 1024);
        data.retry = true;
        let actions = acts(|v| {
            d.on_rx_end(
                SimTime::from_millis(1),
                RxEvent::Ok {
                    frame: &data,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        assert!(actions
            .iter()
            .any(|a| matches!(a, MacAction::Deliver { body: 1024, .. })));
        assert_eq!(d.counters.duplicates.get(), 0);
        assert_eq!(d.counters.delivered_msdus.get(), 1);
    }

    #[test]
    fn overheard_frames_set_nav_but_own_do_not() {
        let mut d = mk(2);
        let t = SimTime::from_millis(1);
        let cts_to_me: Frame<usize> = Frame::cts(NodeId(5), NodeId(2), 9000);
        acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Ok {
                    frame: &cts_to_me,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        assert!(d.nav.is_idle(t), "frames addressed to me must not set NAV");
        let overheard: Frame<usize> = Frame::cts(NodeId(5), NodeId(6), 9000);
        acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Ok {
                    frame: &overheard,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        assert_eq!(d.nav_until(), t + SimDuration::from_micros(9000));
    }

    #[test]
    fn corrupted_rx_triggers_eifs_and_counter() {
        let mut d = mk(1);
        let t = SimTime::from_millis(1);
        let garbled: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 314, 1, 1024);
        acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Corrupted {
                    frame: &garbled,
                    cause: CorruptionCause::Noise,
                },
                v,
            )
        });
        assert_eq!(d.counters.corrupted_rx.get(), 1);
        assert!(d.use_eifs);
        // No ACK scheduled by an honest station.
        assert!(d.pending_response.is_none());
    }

    #[test]
    fn retry_limit_drops_frame() {
        let mut d: Dcf<usize> = Dcf::new(
            NodeId(0),
            DcfConfig::without_rts(PhyParams::dot11b()),
            SimRng::new(3),
        );
        let mut t = SimTime::from_millis(1);
        let mut actions = acts(|v| d.on_enqueue(t, NodeId(1), 100, v));
        assert!(has_start_tx(&actions).is_some());
        let mut dropped = false;
        for _ in 0..10 {
            t += SimDuration::from_millis(2);
            acts(|v| d.on_tx_end(t, v));
            t += SimDuration::from_millis(1);
            actions = acts(|v| d.on_timer(t, TimerKind::Response, v));
            if actions
                .iter()
                .any(|a| matches!(a, MacAction::Dropped { .. }))
            {
                dropped = true;
                break;
            }
            // Countdown then retransmit.
            t += SimDuration::from_millis(50);
            actions = acts(|v| d.on_timer(t, TimerKind::Access, v));
            assert!(has_start_tx(&actions).is_some(), "should retransmit");
        }
        assert!(dropped, "frame must eventually drop");
        assert_eq!(d.counters.retry_drops.get(), 1);
        // 4 long retries allowed → 5th timeout drops.
        assert_eq!(d.counters.long_retries.get(), 5);
        assert_eq!(d.cw(), 31, "CW resets after final drop");
    }

    #[test]
    fn cw_doubles_on_timeout_and_resets_on_success() {
        let mut d = mk(0);
        let mut t = SimTime::from_millis(1);
        acts(|v| d.on_enqueue(t, NodeId(1), 1024, v)); // immediate RTS
        t += SimDuration::from_micros(352);
        acts(|v| d.on_tx_end(t, v));
        t += SimDuration::from_millis(1);
        acts(|v| d.on_timer(t, TimerKind::Response, v)); // CTS timeout
        assert_eq!(d.cw(), 63);
        // Retry: access fires, RTS resent, CTS arrives, data sent, ACK.
        t += SimDuration::from_millis(2);
        let a = acts(|v| d.on_timer(t, TimerKind::Access, v));
        assert_eq!(has_start_tx(&a).unwrap().kind, FrameKind::Rts);
        t += SimDuration::from_micros(352);
        acts(|v| d.on_tx_end(t, v));
        let cts: Frame<usize> = Frame::cts(NodeId(1), NodeId(0), 1000);
        t += SimDuration::from_micros(314);
        acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Ok {
                    frame: &cts,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        t += SimDuration::from_micros(10);
        let a = acts(|v| d.on_timer(t, TimerKind::Sifs, v));
        assert_eq!(has_start_tx(&a).unwrap().kind, FrameKind::Data);
        t += SimDuration::from_millis(1);
        acts(|v| d.on_tx_end(t, v));
        let ack: Frame<usize> = Frame::ack(NodeId(1), NodeId(0), 0);
        t += SimDuration::from_micros(304);
        let a = acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Ok {
                    frame: &ack,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        assert!(a.iter().any(|x| matches!(x, MacAction::TxSuccess { .. })));
        assert_eq!(d.cw(), 31);
        assert_eq!(d.counters.tx_successes.get(), 1);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut d = mk(0);
        acts(|v| d.on_channel_busy(SimTime::from_micros(1), v)); // keep medium busy
        let mut drops = 0;
        for i in 0..60 {
            let a = acts(|v| d.on_enqueue(SimTime::from_micros(2 + i), NodeId(1), 100, v));
            drops += a
                .iter()
                .filter(|x| matches!(x, MacAction::Dropped { .. }))
                .count();
        }
        assert_eq!(drops, 10); // capacity 50
        assert_eq!(d.counters.queue_drops.get(), 10);
    }

    #[test]
    fn backoff_freezes_and_resumes() {
        let mut d = mk(0);
        let t0 = SimTime::from_millis(1);
        acts(|v| d.on_channel_busy(t0, v));
        acts(|v| d.on_enqueue(t0, NodeId(1), 1024, v)); // busy → draws backoff
        let slots = d.backoff_slots.expect("backoff drawn");
        let t1 = t0 + SimDuration::from_micros(500);
        let a = acts(|v| d.on_channel_idle(t1, v));
        // Access armed at DIFS + slots·slot after idle.
        let expected_after =
            SimDuration::from_micros(50) + SimDuration::from_micros(20) * slots as u64;
        assert!(a.iter().any(|x| matches!(
            x,
            MacAction::SetTimer {
                kind: TimerKind::Access,
                after
            } if *after == expected_after
        )));
        // Busy again after DIFS + 2.5 slots → 2 slots consumed.
        if slots >= 3 {
            let t2 = t1 + SimDuration::from_micros(50 + 50);
            acts(|v| d.on_channel_busy(t2, v));
            assert_eq!(d.backoff_slots, Some(slots - 2));
        }
    }

    #[test]
    fn nav_defers_access() {
        let mut d = mk(0);
        let t = SimTime::from_millis(1);
        // Overhear a CTS reserving 5 ms.
        let cts: Frame<usize> = Frame::cts(NodeId(5), NodeId(6), 5000);
        acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Ok {
                    frame: &cts,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        let a = acts(|v| d.on_enqueue(t + SimDuration::from_micros(1), NodeId(1), 1024, v));
        // Not immediate, and the wake-up is a NavEnd timer.
        assert!(has_start_tx(&a).is_none());
        assert!(a.iter().any(|x| matches!(
            x,
            MacAction::SetTimer {
                kind: TimerKind::NavEnd,
                ..
            }
        )));
    }

    #[test]
    fn no_retx_to_drops_on_first_ack_timeout() {
        let mut cfg = DcfConfig::without_rts(PhyParams::dot11b());
        cfg.no_retx_to = vec![NodeId(1)];
        let mut d: Dcf<usize> = Dcf::new(NodeId(0), cfg, SimRng::new(4));
        let mut t = SimTime::from_millis(1);
        acts(|v| d.on_enqueue(t, NodeId(1), 100, v));
        t += SimDuration::from_millis(1);
        acts(|v| d.on_tx_end(t, v));
        t += SimDuration::from_millis(1);
        let a = acts(|v| d.on_timer(t, TimerKind::Response, v));
        assert!(a.iter().any(|x| matches!(x, MacAction::Dropped { .. })));
        assert_eq!(d.cw(), 31, "emulation keeps CW at minimum");
    }

    #[test]
    fn eifs_defers_longer_after_corruption() {
        // After a corrupted reception the next countdown waits EIFS, not
        // DIFS: the armed Access timer must fire later than the clean
        // case for the same backoff draw.
        let timer_delay = |corrupt: bool| {
            let mut d: Dcf<usize> = Dcf::new(
                NodeId(0),
                DcfConfig::new(PhyParams::dot11b()),
                SimRng::new(42),
            );
            let t0 = SimTime::from_millis(1);
            acts(|v| d.on_channel_busy(t0, v));
            acts(|v| d.on_enqueue(t0, NodeId(1), 1024, v)); // draws backoff (same seed)
            if corrupt {
                let garbled: Frame<usize> = Frame::data(NodeId(5), NodeId(6), 314, 1, 64);
                acts(|v| {
                    d.on_rx_end(
                        t0 + SimDuration::from_micros(100),
                        RxEvent::Corrupted {
                            frame: &garbled,
                            cause: CorruptionCause::Noise,
                        },
                        v,
                    )
                });
            }
            let a = acts(|v| d.on_channel_idle(t0 + SimDuration::from_micros(500), v));
            a.iter()
                .find_map(|x| match x {
                    MacAction::SetTimer {
                        kind: TimerKind::Access,
                        after,
                    } => Some(*after),
                    _ => None,
                })
                .expect("access timer armed")
        };
        let clean = timer_delay(false);
        let dirty = timer_delay(true);
        let p = PhyParams::dot11b();
        assert_eq!(dirty - clean, p.eifs(14) - p.difs);
    }

    #[test]
    fn spoofing_policy_emits_forged_ack_after_sifs() {
        // Spoof every data frame aimed at node 1 (gp = 1.0).
        let spoof = crate::greedy::GreedyConfig::ack_spoofing(vec![NodeId(1)], 1.0);
        let mut d: Dcf<usize> = Dcf::with_hooks(
            NodeId(9),
            DcfConfig::new(PhyParams::dot11b()),
            SimRng::new(8),
            spoof.into_policy(),
            None,
        );
        let t = SimTime::from_millis(1);
        // Sniff a data frame addressed to somebody else.
        let sniffed: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 314, 5, 1024);
        let a = acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Ok {
                    frame: &sniffed,
                    rssi: Rssi::fixed(-55.0),
                },
                v,
            )
        });
        assert!(a.iter().any(|x| matches!(
            x,
            MacAction::SetTimer {
                kind: TimerKind::Sifs,
                ..
            }
        )));
        let a = acts(|v| d.on_timer(t + SimDuration::from_micros(10), TimerKind::Sifs, v));
        let f = a
            .iter()
            .find_map(|x| match x {
                MacAction::StartTx(f) => Some(f),
                _ => None,
            })
            .expect("spoofed ACK transmitted");
        assert_eq!(f.kind, FrameKind::Ack);
        assert!(f.is_spoofed());
        assert_eq!(f.src, NodeId(1), "claims to be the victim");
        assert_eq!(f.actual_tx, NodeId(9));
        assert_eq!(f.dst, NodeId(0), "aimed at the victim's sender");
        assert_eq!(d.counters.spoofed_acks_sent.get(), 1);
    }

    #[test]
    fn fake_ack_policy_acks_corrupted_frames() {
        let mut d: Dcf<usize> = Dcf::with_hooks(
            NodeId(1),
            DcfConfig::new(PhyParams::dot11b()),
            SimRng::new(8),
            crate::greedy::GreedyConfig::fake_acks(1.0).into_policy(),
            None,
        );
        let t = SimTime::from_millis(1);
        let garbled: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 314, 7, 1024);
        let a = acts(|v| {
            d.on_rx_end(
                t,
                RxEvent::Corrupted {
                    frame: &garbled,
                    cause: CorruptionCause::Noise,
                },
                v,
            )
        });
        // ACK queued behind SIFS even though the frame was corrupted;
        // nothing delivered upward.
        assert!(!a.iter().any(|x| matches!(x, MacAction::Deliver { .. })));
        let a = acts(|v| d.on_timer(t + SimDuration::from_micros(10), TimerKind::Sifs, v));
        let f = a
            .iter()
            .find_map(|x| match x {
                MacAction::StartTx(f) => Some(f),
                _ => None,
            })
            .expect("fake ACK transmitted");
        assert_eq!(f.kind, FrameKind::Ack);
        assert_eq!(d.counters.fake_acks_sent.get(), 1);
        assert_eq!(d.counters.delivered_msdus.get(), 0);
    }

    #[test]
    fn cts_duration_derives_from_inflated_rts() {
        // A normal responder propagates whatever the RTS reserved — this
        // is why RTS inflation amplifies through honest nodes.
        let mut d = mk(1);
        let inflated_rts: Frame<usize> = Frame::rts(NodeId(0), NodeId(1), 30_000);
        acts(|v| {
            d.on_rx_end(
                SimTime::from_millis(1),
                RxEvent::Ok {
                    frame: &inflated_rts,
                    rssi: Rssi::fixed(-40.0),
                },
                v,
            )
        });
        let a = acts(|v| {
            d.on_timer(
                SimTime::from_millis(1) + SimDuration::from_micros(10),
                TimerKind::Sifs,
                v,
            )
        });
        let f = a
            .iter()
            .find_map(|x| match x {
                MacAction::StartTx(f) => Some(f),
                _ => None,
            })
            .expect("CTS sent");
        let calc = NavCalculator::new(PhyParams::dot11b());
        assert_eq!(f.duration_us, calc.cts_duration_us(30_000));
    }

    #[test]
    fn arf_sets_data_rate_and_reacts_to_timeouts() {
        let mut cfg = DcfConfig::without_rts(PhyParams::dot11b());
        cfg.auto_rate = Some(crate::arf::ArfConfig::dot11b());
        let mut d: Dcf<usize> = Dcf::new(NodeId(0), cfg, SimRng::new(4));
        assert_eq!(d.current_data_rate_bps(), 11_000_000);
        let mut t = SimTime::from_millis(1);
        let a = acts(|v| d.on_enqueue(t, NodeId(1), 1024, v));
        let f = a
            .iter()
            .find_map(|x| match x {
                MacAction::StartTx(f) => Some(f),
                _ => None,
            })
            .expect("tx");
        assert_eq!(f.rate_bps, Some(11_000_000));
        // Two ACK timeouts step the rate down to 5.5 Mb/s.
        for _ in 0..2 {
            t += SimDuration::from_millis(1);
            acts(|v| d.on_tx_end(t, v));
            t += SimDuration::from_millis(1);
            acts(|v| d.on_timer(t, TimerKind::Response, v));
            t += SimDuration::from_millis(30);
            acts(|v| d.on_timer(t, TimerKind::Access, v)); // retransmit
        }
        assert_eq!(d.current_data_rate_bps(), 5_500_000);
    }

    #[test]
    fn snapshot_mid_exchange_round_trips() {
        use snap::{Dec, Enc, SnapState};
        let mut a = mk(0);
        let mut t = SimTime::from_millis(1);
        acts(|v| a.on_enqueue(t, NodeId(1), 1024, v)); // immediate RTS
        t += SimDuration::from_micros(352);
        acts(|v| a.on_tx_end(t, v)); // now awaiting CTS
        acts(|v| a.on_enqueue(t, NodeId(2), 256, v)); // second MSDU queued behind
        t += SimDuration::from_millis(1);
        acts(|v| a.on_timer(t, TimerKind::Response, v)); // CTS timeout: retry + CW doubled
        let mut w = Enc::new();
        a.snap_save(&mut w);
        let bytes = w.into_bytes();
        // Restore into a freshly built station (same config, virgin RNG).
        let mut b = mk(0);
        b.snap_restore(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(a.snap_digest(), b.snap_digest());
        assert_eq!(a.cw(), b.cw());
        assert_eq!(a.queue_len(), b.queue_len());
        assert_eq!(a.counters.timeouts.get(), b.counters.timeouts.get());
        // Both continue identically: the retry RTS and every subsequent
        // action batch (including RNG-driven backoff draws) match.
        t += SimDuration::from_millis(2);
        let (xa, xb) = (
            acts(|v| a.on_timer(t, TimerKind::Access, v)),
            acts(|v| b.on_timer(t, TimerKind::Access, v)),
        );
        assert_eq!(format!("{:?}", &*xa), format!("{:?}", &*xb));
        t += SimDuration::from_micros(352);
        let (xa, xb) = (acts(|v| a.on_tx_end(t, v)), acts(|v| b.on_tx_end(t, v)));
        assert_eq!(format!("{:?}", &*xa), format!("{:?}", &*xb));
        t += SimDuration::from_millis(1);
        let (xa, xb) = (
            acts(|v| a.on_timer(t, TimerKind::Response, v)),
            acts(|v| b.on_timer(t, TimerKind::Response, v)),
        );
        assert_eq!(format!("{:?}", &*xa), format!("{:?}", &*xb));
        assert_eq!(a.cw(), b.cw());
    }

    #[test]
    fn cw_clamp_emulation_never_doubles() {
        let mut cfg = DcfConfig::without_rts(PhyParams::dot11b());
        cfg.cw_clamp_to = vec![NodeId(1)];
        let mut d: Dcf<usize> = Dcf::new(NodeId(0), cfg, SimRng::new(4));
        let mut t = SimTime::from_millis(1);
        acts(|v| d.on_enqueue(t, NodeId(1), 100, v));
        for _ in 0..3 {
            t += SimDuration::from_millis(1);
            acts(|v| d.on_tx_end(t, v));
            t += SimDuration::from_millis(1);
            acts(|v| d.on_timer(t, TimerKind::Response, v));
            assert_eq!(d.cw(), 31);
            t += SimDuration::from_millis(2);
            acts(|v| d.on_timer(t, TimerKind::Access, v));
        }
    }
}
