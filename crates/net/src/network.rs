//! The simulation runtime: medium, nodes, flows and the event loop.
//!
//! The runtime owns every [`mac::Dcf`] instance and the shared medium. It
//! translates [`mac::MacAction`]s into scheduled events and reception
//! outcomes:
//!
//! * a transmission becomes *busy* at other stations one carrier-sense
//!   latency (default: one slot) after it starts — which reproduces the
//!   paper's observation that two stations transmit together when their
//!   backoff counters expire within one slot of each other;
//! * at the end of a transmission, each in-range station resolves the
//!   reception: half-duplex (own transmission overlapped → nothing),
//!   capture among overlapping frames (strongest wins by ≥ the capture
//!   threshold, else collision), then the per-link error model;
//! * both edges fan out to every station in range from a single
//!   scheduler entry (`TxOnset`, `TxEnd`), in ascending node order;
//! * corrupted frames are delivered *with readable headers* (the paper's
//!   Table I measurement justifies this), which is what makes the
//!   fake-ACK misbehavior possible.

use std::collections::HashMap;

use mac::{
    CorruptionCause, Dcf, Frame, FrameArena, FrameId, FrameKind, MacAction, NodeId, RxEvent,
    TimerKind,
};
use phy::error_model::PLCP_EQUIVALENT_BYTES;
use phy::{
    channel::Reach, AirtimeTable, CaptureModel, ChannelModel, ErrorModel, FerTable, LinkTable,
    PhyParams, Position,
};
use sim::{Due, Scheduler, SimDuration, SimError, SimRng, SimTime, TimerHandle};
use snap::{SnapState as _, SnapValue as _};
use transport::{
    CbrSource, FlowId, ProbeStats, Segment, TcpOutput, TcpReceiver, TcpSender, UdpSink,
};

use crate::metrics::{FlowMetrics, NodeMetrics, RunMetrics};

/// Probe gauge: MAC interface-queue depth, sampled per node.
pub const GAUGE_QUEUE_LEN: &str = "queue_len";
/// Probe gauge: remaining NAV time in µs, sampled per node.
pub const GAUGE_NAV_REMAINING_US: &str = "nav_remaining_us";
/// Probe gauge: current contention window, sampled per node.
pub const GAUGE_CW: &str = "cw";
/// Probe gauge: TCP congestion window in segments, sampled per flow
/// (the series id is the *flow* id, not a node id).
pub const GAUGE_CWND: &str = "cwnd";

/// Maps a MAC frame kind to the compact PHY event code.
fn frame_code(kind: FrameKind) -> u8 {
    match kind {
        FrameKind::Rts => phy::obs::FRAME_RTS,
        FrameKind::Cts => phy::obs::FRAME_CTS,
        FrameKind::Data => phy::obs::FRAME_DATA,
        FrameKind::Ack => phy::obs::FRAME_ACK,
    }
}

/// Events the runtime schedules.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    MacTimer {
        node: NodeId,
        kind: TimerKind,
    },
    /// End of a transmission: the sender's tx-end, then busy-end (and,
    /// at decoding stations, the reception) at every station in range.
    TxEnd {
        tx: FrameId,
    },
    /// Busy-medium onset injected by the world exchange (no frame): the
    /// first onset of a fused union of neighbor-cell intervals.
    BusyOnset {
        node: NodeId,
    },
    /// End of an injected busy interval: the last end of a fused union.
    BusyEnd {
        node: NodeId,
    },
    /// Carrier-sense onset of a transmission at every station in range.
    /// Not armed when the onset would not precede the end; `TxEnd` then
    /// runs each station's onset just before its end.
    TxOnset {
        tx: FrameId,
    },
    CbrTick {
        flow: FlowId,
    },
    TcpTimer {
        flow: FlowId,
    },
    ProbeTick {
        flow: FlowId,
    },
    WireDeliver {
        flow: FlowId,
        to_remote: bool,
        seg: Segment,
    },
}

/// Virtual-time hooks armed by [`Network::begin_hooked`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunHooks {
    /// Record one audit-ladder rung (a digest per layer) every this much
    /// virtual time.
    pub audit_every: Option<SimDuration>,
    /// Snapshot the full network state every this much virtual time.
    pub checkpoint_every: Option<SimDuration>,
    /// Inject one extra draw on the shared RNG stream just before the
    /// first event at or after this instant — fault injection for the
    /// audit-ladder regression tests.
    pub perturb_rng_at: Option<SimTime>,
}

impl RunHooks {
    /// Rejects a zero audit or checkpoint interval, whose barrier would
    /// re-arm at the same instant forever.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the zero interval.
    pub fn validate(&self) -> Result<(), SimError> {
        for (iv, what) in [
            (self.checkpoint_every, "checkpoint"),
            (self.audit_every, "audit"),
        ] {
            if iv.is_some_and(|iv| iv.as_nanos() == 0) {
                return Err(SimError::invalid_config(format!(
                    "{what} interval must be positive"
                )));
            }
        }
        Ok(())
    }
}

/// By-products of a hooked run.
#[derive(Debug, Clone, Default)]
pub struct RunArtifacts {
    /// Audit-ladder rungs in barrier order; each barrier contributes
    /// one entry per layer.
    pub audit: snap::audit::Ladder,
    /// Checkpoints as `(barrier instant, encoded network state)`.
    pub checkpoints: Vec<(SimTime, Vec<u8>)>,
}

/// One transmission interval `(source, start, end)` in a network's node-id
/// space and the shared virtual timebase, as the world's epoch exchange
/// injects them.
pub type TxInterval = (NodeId, SimTime, SimTime);

/// One logged transmission (see [`Network::enable_tx_log`]): the
/// transmitting station, the frame's kind and its time on air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRecord {
    /// The station that keyed up (a spoofer, for a spoofed frame).
    pub src: NodeId,
    /// The frame's kind.
    pub kind: FrameKind,
    /// When the transmission began.
    pub start: SimTime,
    /// When it left the air.
    pub end: SimTime,
}

/// Hook kinds, ordered by firing priority at equal instants.
const HOOK_GAUGE: u8 = 0;
const HOOK_AUDIT: u8 = 1;
const HOOK_CKPT: u8 = 2;

/// A persistent cursor over the virtual-time hook grids, carried across
/// calls to [`Network::advance`] so a run can be executed in bounded
/// epochs instead of one straight pass.
///
/// Epoch-partitioned advancement is *provably identical* to a single
/// advance to the run horizon when nothing is injected between epochs:
/// hooks ride fixed grids (their next instants live here, not in the
/// scheduler), events are popped in the same order either way, and a
/// hook due at or before an epoch horizon fires after exactly the same
/// set of dispatched events as it would mid-run — the events between the
/// epoch horizon and the hook's straight-through firing point do not
/// exist, or the hook would have fired inside the epoch. The multi-cell
/// world relies on this: a 1×1 world reproduces the single-network run
/// byte for byte.
#[derive(Debug)]
pub struct HookCursor {
    hooks: RunHooks,
    probe_iv: Option<SimDuration>,
    next_probe: Option<SimTime>,
    next_audit: Option<SimTime>,
    next_ckpt: Option<SimTime>,
    perturb: Option<SimTime>,
    artifacts: RunArtifacts,
}

/// First multiple of `iv` (counted from virtual zero) strictly after `t`.
fn grid_after(t: SimTime, iv: SimDuration) -> SimTime {
    let k = t.as_nanos() / iv.as_nanos() + 1;
    SimTime::from_nanos(k * iv.as_nanos())
}

pub(crate) struct NodeState {
    pub dcf: Dcf<Segment>,
    pub pos: Position,
    /// Live timer handles, densely indexed by [`TimerKind::index`].
    timers: [Option<TimerHandle>; TimerKind::COUNT],
    busy_count: u32,
}

/// What a flow carries and the endpoint state machines.
// The TCP variant dwarfs the UDP one since the sender embeds the
// congestion-controller zoo; a handful of flows exist per network, so
// boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum FlowKindState {
    Udp {
        source: CbrSource,
        sink: UdpSink,
    },
    Tcp {
        sender: TcpSender,
        receiver: TcpReceiver,
    },
    Probe {
        interval: SimDuration,
        payload: usize,
        next_seq: u64,
        stats: ProbeStats,
    },
}

/// Sender-side bookkeeping for the paper's cross-layer spoofed-ACK
/// detector (§VII-B): TCP retransmissions of segments the MAC already saw
/// acknowledged indicate spoofing (assuming negligible wireline loss).
#[derive(Debug, Default, Clone)]
pub struct CrossLayerStats {
    mac_acked: std::collections::HashSet<u64>,
    /// TCP data retransmissions observed leaving the sender.
    pub retx_total: u64,
    /// Retransmissions of segments whose original MAC transmission was
    /// acknowledged.
    pub retx_of_acked: u64,
    max_seq_sent: Option<u64>,
}

pub(crate) struct FlowState {
    pub id: FlowId,
    /// Wireless transmitter of the data direction (the AP).
    pub src: NodeId,
    /// Wireless receiver of the data direction (the client).
    pub dst: NodeId,
    /// Application payload bytes per packet (goodput accounting).
    pub payload: usize,
    pub kind: FlowKindState,
    /// One-way latency of the wired segment behind `src`, if the actual
    /// sender is remote.
    pub wire: Option<SimDuration>,
    /// Cross-layer detector bookkeeping.
    pub cross: CrossLayerStats,
}

/// A fully wired simulation, ready to [`run`](Network::run).
///
/// Construct via [`crate::builder::NetworkBuilder`].
pub struct Network {
    pub(crate) phy: PhyParams,
    pub(crate) channel: ChannelModel,
    pub(crate) capture: CaptureModel,
    pub(crate) cs_latency: SimDuration,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) flows: Vec<FlowState>,
    pub(crate) link_error: HashMap<(u16, u16), ErrorModel>,
    /// Rate-specific overrides: `(tx, rx, rate_bps) → error model`.
    /// Lets experiments model links that are clean at low rates and
    /// lossy at high rates, which is what makes rate adaptation react.
    pub(crate) rate_link_error: HashMap<(u16, u16, u64), ErrorModel>,
    pub(crate) default_error: ErrorModel,
    pub(crate) rng: SimRng,
    sched: Scheduler<Event>,
    /// Every transmission that can still overlap a pending reception:
    /// active frames plus those that ended less than `max_air` ago.
    /// Referenced from in-flight events by generation-stamped handle.
    /// Frames are interned here once at transmission-start and borrowed
    /// everywhere else — steady state allocates zero frames per event.
    frames: FrameArena<Segment>,
    /// Longest airtime transmitted so far: the window `prune_frames`
    /// keeps finished frames for. Simulation state (snapshot format 4
    /// onward).
    max_air: SimDuration,
    /// Station-level handlers dispatched so far: one per popped event
    /// except `TxOnset`, plus one per station onset, end or reception
    /// in a fan-out, plus one per injected busy edge fused away.
    /// Reported as `RunMetrics::events_processed`.
    dispatched: u64,
    /// Instants of the injected busy edges [`Network::inject_busy`]
    /// fused away, in no particular order. Each is credited to
    /// `dispatched` once the event loop has passed it, as if the edge had
    /// been dispatched: those before a hook's instant just before the hook
    /// fires, those at or before the horizon when `advance` returns.
    /// Simulation state (snapshot format 6 onward), encoded ascending.
    uncredited: Vec<SimTime>,
    /// Precomputed per-pair reach and median received power (positions
    /// are fixed after assembly).
    link: LinkTable,
    /// Memoized frame airtimes per `(size, rate)`.
    air: AirtimeTable,
    /// Interned error models with per-`(model, size)` FER memoization.
    fer: FerTable,
    /// Dense `(src, dst) → interned error-model index` resolving
    /// `link_error → default_error`; rate-specific overrides still probe
    /// the sparse map (guarded by an is-empty check).
    link_em: Vec<u32>,
    /// Live TCP retransmission timers, indexed by flow id.
    flow_timers: Vec<Option<TimerHandle>>,
    recorder: Option<::obs::RecorderHandle>,
    /// Armed conformance checking: the job that requested it, the key
    /// its report is filed under, and the checker tapping the recorder
    /// stream. The report is deposited when the event loop finishes.
    conform: Option<(
        ::conform::ConformJob,
        Option<sim::RunKey>,
        ::conform::SharedChecker,
    )>,
    /// Opt-in transmission log, read by the world's epoch exchange and
    /// by DOMINO: every transmission since the last drain. `None` (the
    /// default) costs nothing. Excluded from snapshots — it is a reading
    /// of the run, not simulation state, and must not perturb audit
    /// digests.
    tx_log: Option<Vec<TxRecord>>,
    /// [`Network::inject_busy`]'s buffers, reused across calls. Scratch
    /// like `tx_log`: excluded from snapshots and audit digests.
    fuse: FuseScratch,
    /// Idle MAC action buffers, used as a stack by [`Network::mac`]: a
    /// handler's actions can enqueue at another station (a delivered
    /// segment's reply), so at most two are out at once. Scratch, like
    /// `fuse`.
    mac_bufs: Vec<Vec<MacAction<Segment>>>,
    /// The TCP output buffer [`Network::tcp`] lends each sender handler.
    /// Carrying out outputs never re-enters a sender, so one suffices.
    /// Scratch, like `fuse`.
    tcp_out: Vec<TcpOutput>,
}

/// Buffers for fusing one injected batch, grown to the largest batch
/// seen and reused, so fusion allocates nothing per call.
#[derive(Default)]
struct FuseScratch {
    /// Per-station bucket bounds into `order`, indexed by node id: after
    /// bucketing, station `k`'s intervals are `order[bounds[k - 1]..
    /// bounds[k]]` (from 0 for station 0).
    bounds: Vec<usize>,
    /// `(onset, batch index)` of every interval the nudge leaves
    /// non-empty, bucketed by station; each bucket is then sorted.
    order: Vec<(SimTime, u32)>,
    /// Per batch entry, which of its edges survive fusion
    /// (`ONSET | END` bits).
    keep: Vec<u8>,
}

impl Network {
    #[allow(clippy::too_many_arguments)] // crate-internal constructor fed by the builder
    pub(crate) fn assemble(
        phy: PhyParams,
        channel: ChannelModel,
        capture: CaptureModel,
        cs_latency: SimDuration,
        nodes: Vec<(Position, Dcf<Segment>)>,
        flows: Vec<FlowState>,
        link_error: HashMap<(u16, u16), ErrorModel>,
        rate_link_error: HashMap<(u16, u16, u64), ErrorModel>,
        default_error: ErrorModel,
        rng: SimRng,
    ) -> Self {
        // Positions, error models and PHY rates are fixed from here on,
        // so precompute the per-pair propagation table and intern every
        // error model the hot path can resolve without a rate override.
        // Interning walks the map keys sorted so table indices are
        // deterministic across runs.
        let positions: Vec<Position> = nodes.iter().map(|(pos, _)| *pos).collect();
        let n = positions.len();
        let link = LinkTable::build(&channel, &positions);
        let mut fer = FerTable::new();
        let default_idx = fer.intern(default_error);
        let mut link_em = vec![default_idx; n * n];
        let mut overrides: Vec<(u16, u16)> = link_error.keys().copied().collect();
        overrides.sort_unstable();
        for key in overrides {
            link_em[key.0 as usize * n + key.1 as usize] = fer.intern(link_error[&key]);
        }
        // Warm every model's FER cache with the control-frame sizes (the
        // data sizes vary per flow payload and memoize on first use).
        let control_sizes = [
            mac::frame::RTS_BYTES + PLCP_EQUIVALENT_BYTES,
            mac::frame::CTS_BYTES + PLCP_EQUIVALENT_BYTES,
            mac::frame::ACK_BYTES + PLCP_EQUIVALENT_BYTES,
        ];
        for idx in 0..=link_em.iter().copied().max().unwrap_or(default_idx) {
            fer.prefill(idx, &control_sizes);
        }
        Network {
            air: AirtimeTable::new(phy),
            phy,
            channel,
            capture,
            cs_latency,
            nodes: nodes
                .into_iter()
                .map(|(pos, dcf)| NodeState {
                    dcf,
                    pos,
                    timers: [None; TimerKind::COUNT],
                    busy_count: 0,
                })
                .collect(),
            flow_timers: vec![None; flows.len()],
            flows,
            link_error,
            rate_link_error,
            default_error,
            rng,
            sched: Scheduler::new(),
            frames: FrameArena::new(),
            max_air: SimDuration::ZERO,
            dispatched: 0,
            uncredited: Vec::new(),
            link,
            fer,
            link_em,
            recorder: None,
            conform: None,
            tx_log: None,
            fuse: FuseScratch::default(),
            mac_bufs: Vec::new(),
            tcp_out: Vec::new(),
        }
    }

    /// Installs a flight recorder, wiring it into every MAC instance and
    /// TCP sender. PHY events and periodic gauge samples are recorded by
    /// the runtime itself. Recording never touches the event scheduler
    /// or the RNG streams, so simulation outcomes are identical with it
    /// on or off.
    pub fn set_recorder(&mut self, recorder: ::obs::RecorderHandle) {
        for st in &mut self.nodes {
            st.dcf.set_recorder(recorder.clone());
        }
        for f in &mut self.flows {
            if let FlowKindState::Tcp { sender, .. } = &mut f.kind {
                // Remote senders are attributed to the AP they sit behind.
                sender.set_recorder(recorder.clone(), f.src.0);
            }
        }
        self.recorder = Some(recorder);
    }

    /// Arms conformance checking for `job`: a checker taps the installed
    /// recorder's stream (every emission, before any filter), with each
    /// station's declared quirks and retry limits as its profile, and
    /// deposits its report under `key` when the event loop finishes.
    pub(crate) fn arm_conform(&mut self, job: ::conform::ConformJob, key: Option<sim::RunKey>) {
        let mut profiles = HashMap::new();
        for (i, st) in self.nodes.iter().enumerate() {
            let cfg = st.dcf.config();
            profiles.insert(
                i as u16,
                ::conform::NodeProfile {
                    quirks: st.dcf.quirk_flags(),
                    short_retry_limit: cfg.short_retry_limit,
                    long_retry_limit: cfg.long_retry_limit,
                },
            );
        }
        let timing = ::conform::Timing::from_params(&self.phy, ::conform::timing::MSDU_MTU_BYTES);
        let mut checker = ::conform::Checker::new(timing, profiles);
        if !job.honor_whitelist {
            checker = checker.without_whitelist();
        }
        let shared = ::conform::SharedChecker::new(checker);
        self.recorder
            .as_ref()
            .expect("the checker taps the network's recorder")
            .borrow_mut()
            .add_tap(Box::new(::conform::CheckerTap(shared.clone())));
        self.conform = Some((job, key, shared));
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&::obs::RecorderHandle> {
        self.recorder.as_ref()
    }

    /// Every station that runs a GRC observer, in ascending node id;
    /// the observers' guards hold the run's detection reports.
    pub fn grc_stations(&self) -> impl Iterator<Item = (NodeId, &mac::GrcObserver)> {
        (self.nodes.iter().enumerate())
            .filter_map(|(i, st)| Some((NodeId(i as u16), st.dcf.grc()?)))
    }

    /// Immutable access to a node's DCF (counters, NAV, …).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn dcf(&self, node: NodeId) -> &Dcf<Segment> {
        &self.nodes[node.0 as usize].dcf
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Every node's position, indexed by node id. The world coordinator
    /// reads these once to build the static cross-cell coupling maps.
    pub fn positions(&self) -> Vec<Position> {
        self.nodes.iter().map(|st| st.pos).collect()
    }

    /// Starts logging every transmission, in the order the stations key
    /// up: the world's epoch exchange and DOMINO read the log. Off by
    /// default; the log is not part of snapshots.
    pub fn enable_tx_log(&mut self) {
        self.tx_log = Some(Vec::new());
    }

    /// Takes the transmissions logged since the last drain (empty when
    /// logging is off).
    pub fn drain_tx_log(&mut self) -> Vec<TxRecord> {
        self.tx_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Runs the simulation for `duration` of virtual time and returns the
    /// collected metrics. Can be called once per network.
    pub fn run(&mut self, duration: SimDuration) -> RunMetrics {
        let mut cursor = self.begin_hooked(RunHooks::default(), None);
        self.advance(&mut cursor, SimTime::ZERO + duration);
        self.finish_hooked(cursor, duration).0
    }

    /// Starts a run with virtual-time hooks armed: audit-ladder rungs,
    /// periodic checkpoints and the fault-injection knob. The hooks ride
    /// fixed virtual-time grids without scheduling events or touching the
    /// RNG streams, so simulation outcomes are byte-identical with them
    /// on or off.
    ///
    /// With `resumed_at: None` the flows start. Pass `resumed_at` when
    /// the network state was restored from a checkpoint taken at that
    /// barrier instant instead: the restored scheduler already holds every
    /// armed event, so the flows are not restarted, each hook grid resumes
    /// at its first point strictly after it, and an armed conformance
    /// checker is told it sees a mid-run event stream.
    ///
    /// # Panics
    ///
    /// Panics on hooks that fail [`RunHooks::validate`].
    pub fn begin_hooked(&mut self, hooks: RunHooks, resumed_at: Option<SimTime>) -> HookCursor {
        hooks.validate().expect("hook intervals are positive");
        match resumed_at {
            None => self.start_flows(),
            // Lazily initialized rules stay armed, whole-run ones are
            // disarmed.
            Some(_) => {
                if let Some((_, _, checker)) = &self.conform {
                    checker.borrow_mut().set_midstream();
                }
            }
        }
        // Gauge sampling rides the event loop on a fixed virtual-time
        // grid instead of scheduling its own events, so the event count
        // and every RNG stream are byte-identical with recording off.
        let probe_iv = self
            .recorder
            .as_ref()
            .and_then(|r| r.borrow().probe_interval());
        let first = |start: SimTime, iv: SimDuration| match resumed_at {
            None => start,
            Some(c) => grid_after(c, iv),
        };
        HookCursor {
            next_probe: probe_iv.map(|iv| first(SimTime::ZERO, iv)),
            next_audit: hooks.audit_every.map(|iv| first(SimTime::ZERO + iv, iv)),
            next_ckpt: hooks
                .checkpoint_every
                .map(|iv| first(SimTime::ZERO + iv, iv)),
            // A perturbation strictly before the restored clock already
            // fired before the checkpoint (the event that triggered it
            // advanced the clock past it), so a resumed run must not
            // re-apply it.
            perturb: hooks.perturb_rng_at.filter(|&t| self.sched.now() < t),
            probe_iv,
            hooks,
            artifacts: RunArtifacts::default(),
        }
    }

    /// Dispatches every scheduled event with timestamp at or before
    /// `horizon`, firing due hooks in virtual-time order before each.
    /// Hooks due at or before the horizon but after the last event fire
    /// before this returns, so a subsequent [`Network::inject_busy`] for
    /// the next epoch cannot slip in front of them; so are the credits of
    /// fused-away busy edges at or before the horizon. Idempotent at a
    /// fixed horizon; callable repeatedly with increasing horizons.
    pub fn advance(&mut self, cursor: &mut HookCursor, horizon: SimTime) {
        let _span = ::obs::span!("net/run");
        loop {
            // One comparison of the tick lane with the heap per event:
            // the pop below takes what this peek found.
            let next = self.sched.peek().filter(|d| d.time() <= horizon);
            let upto = next.map_or(horizon, Due::time);
            loop {
                let due = [
                    (cursor.next_probe, HOOK_GAUGE),
                    (cursor.next_audit, HOOK_AUDIT),
                    (cursor.next_ckpt, HOOK_CKPT),
                ]
                .into_iter()
                .filter_map(|(t, kind)| t.filter(|&t| t <= upto).map(|t| (t, kind)))
                .min();
                let Some((at, kind)) = due else { break };
                self.credit_elided(|t| t < at);
                match kind {
                    HOOK_GAUGE => {
                        self.sample_gauges(at);
                        cursor.next_probe =
                            Some(at + cursor.probe_iv.expect("gauge hook without interval"));
                    }
                    HOOK_AUDIT => {
                        for (layer, digest) in self.layer_digests() {
                            cursor.artifacts.audit.push(at.as_nanos(), layer, digest);
                        }
                        cursor.next_audit = Some(
                            at + cursor
                                .hooks
                                .audit_every
                                .expect("audit hook without interval"),
                        );
                    }
                    _ => {
                        let mut w = snap::Enc::new();
                        self.snap_save(&mut w);
                        cursor.artifacts.checkpoints.push((at, w.into_bytes()));
                        cursor.next_ckpt = Some(
                            at + cursor
                                .hooks
                                .checkpoint_every
                                .expect("ckpt hook without interval"),
                        );
                    }
                }
            }
            let Some(next) = next else { break };
            if let Some(p) = cursor.perturb {
                if next.time() >= p {
                    // Fault injection for the audit-ladder tests: one
                    // extra draw knocks the shared RNG stream out of
                    // alignment from this event onward.
                    let _ = self.rng.next_u64();
                    cursor.perturb = None;
                }
            }
            let (now, ev) = self.sched.pop(next);
            self.dispatch(now, ev);
        }
        self.credit_elided(|t| t <= horizon);
    }

    /// Injected busy edges fused away whose instants the event loop has
    /// not yet passed, so they are not yet in `events_processed`.
    pub fn pending_credits(&self) -> usize {
        self.uncredited.len()
    }

    /// Credits to the dispatch count every fused-away busy edge whose
    /// instant satisfies `passed` (a prefix of the instants in time
    /// order), and moves the clock up to the last of them, where
    /// dispatching the edges would have left it (the next epoch's nudge
    /// reads it). One pass over the unordered queue.
    fn credit_elided(&mut self, passed: impl Fn(SimTime) -> bool) {
        let before = self.uncredited.len();
        let mut latest = None;
        self.uncredited.retain(|&t| {
            let hit = passed(t);
            if hit {
                latest = latest.max(Some(t));
            }
            !hit
        });
        let Some(latest) = latest else { return };
        self.dispatched += (before - self.uncredited.len()) as u64;
        self.sched.advance_clock(latest);
    }

    /// The pending credits in ascending order, as snapshots and the
    /// `sched` audit digest encode them.
    fn uncredited_ascending(&self) -> Vec<SimTime> {
        let mut v = self.uncredited.clone();
        v.sort_unstable();
        v
    }

    /// Ends an epoch-driven run: collects metrics over `duration` of
    /// virtual time, records run statistics and deposits the conformance
    /// report if checking was armed.
    pub fn finish_hooked(
        &mut self,
        cursor: HookCursor,
        duration: SimDuration,
    ) -> (RunMetrics, RunArtifacts) {
        let metrics = self.collect_metrics(duration);
        crate::stats::record_run(metrics.events_processed);
        if let Some((job, key, checker)) = self.conform.take() {
            if let Some(rec) = &self.recorder {
                rec.borrow_mut().clear_taps();
            }
            job.deposit(key, checker.borrow_mut().finish_report());
        }
        (metrics, cursor.artifacts)
    }

    /// Marks the medium busy over each `(node, start, end)` interval of
    /// `batch` without any frame behind it — cross-cell interference
    /// injected by the world's epoch exchange.
    ///
    /// A `start` at or before the current clock (the exchange clips
    /// intervals to epoch boundaries, so a neighbor's transmission can
    /// abut the boundary exactly) is nudged one nanosecond past `now` so
    /// the scheduler never sees a stale event; intervals the nudge
    /// empties are dropped.
    ///
    /// Per station, intervals that overlap *strictly* (in `(start,
    /// batch index)` order, a start before the latest end so far) are
    /// fused into their union: only its first onset (least `(start,
    /// index)`) and last end (greatest `(end, index)`) are armed. Every
    /// other edge of the union would only move the station's busy count
    /// between positive values, so the count changes sign on the same
    /// events as with every edge armed. Intervals that merely touch are
    /// not fused: at that instant the station may go idle and busy again.
    /// Surviving edges are armed in batch order, onset before end, so
    /// their relative sequence order is the one all edges would have
    /// had. A fused-away edge's instant is queued and credited to the
    /// dispatch count once the event loop passes it, which keeps
    /// `events_processed` exact. A batch of one never fuses.
    ///
    /// The batch is bucketed by station in one counting pass, and each
    /// bucket (a few dozen intervals in a world cell) is sorted in place
    /// by `(start, index)`; the keys are unique, so the order is
    /// deterministic.
    pub fn inject_busy(&mut self, batch: &[TxInterval]) {
        const ONSET: u8 = 1;
        const END: u8 = 2;
        let nudged = self.sched.now() + SimDuration::from_nanos(1);
        let onset = |start: SimTime| start.max(nudged);
        let FuseScratch {
            bounds,
            order,
            keep,
        } = &mut self.fuse;
        // Count each station's non-empty intervals, one slot ahead, and
        // turn the counts into bucket starts.
        bounds.clear();
        bounds.resize(self.nodes.len() + 1, 0);
        keep.clear();
        keep.resize(batch.len(), 0);
        for (&(node, start, end), keep) in batch.iter().zip(keep.iter_mut()) {
            if end > onset(start) {
                bounds[node.0 as usize + 1] += 1;
                *keep = ONSET | END;
            }
        }
        for k in 1..bounds.len() {
            bounds[k] += bounds[k - 1];
        }
        // Fill the buckets in batch order; each station's cursor ends at
        // its bucket's end.
        order.clear();
        order.resize(bounds[self.nodes.len()], (SimTime::ZERO, 0));
        for (i, &(node, start, _)) in batch.iter().enumerate() {
            if keep[i] != 0 {
                let slot = &mut bounds[node.0 as usize];
                order[*slot] = (onset(start), i as u32);
                *slot += 1;
            }
        }
        let mut lo = 0;
        for &hi in &bounds[..self.nodes.len()] {
            let bucket = &mut order[lo..hi];
            lo = hi;
            bucket.sort_unstable();
            let mut k = 0;
            while k < bucket.len() {
                let (_, first) = bucket[k];
                // The union's latest end so far, as `(end, batch index)`.
                let mut last = (batch[first as usize].2, first);
                k += 1;
                while k < bucket.len() && bucket[k].0 < last.0 {
                    let (at, i) = bucket[k];
                    keep[i as usize] &= !ONSET;
                    self.uncredited.push(at);
                    let later = (batch[i as usize].2, i);
                    let shadowed = if later > last {
                        std::mem::replace(&mut last, later)
                    } else {
                        later
                    };
                    keep[shadowed.1 as usize] &= !END;
                    self.uncredited.push(shadowed.0);
                    k += 1;
                }
            }
        }
        for (&(node, start, end), &keep) in batch.iter().zip(keep.iter()) {
            if keep & ONSET != 0 {
                self.sched.arm_at(onset(start), Event::BusyOnset { node });
            }
            if keep & END != 0 {
                self.sched.arm_at(end, Event::BusyEnd { node });
            }
        }
    }

    /// Samples every probe gauge at virtual instant `at`. Values reflect
    /// the state after the last event dispatched before `at`.
    fn sample_gauges(&mut self, at: SimTime) {
        let _span = ::obs::span!("obs/probe");
        let Some(rec) = &self.recorder else { return };
        let mut r = rec.borrow_mut();
        for (i, st) in self.nodes.iter().enumerate() {
            let node = i as u16;
            r.sample(GAUGE_QUEUE_LEN, node, at, st.dcf.queue_len() as f64);
            r.sample(
                GAUGE_NAV_REMAINING_US,
                node,
                at,
                st.dcf.nav_until().saturating_since(at).as_micros() as f64,
            );
            r.sample(GAUGE_CW, node, at, st.dcf.cw() as f64);
        }
        for f in &self.flows {
            if let FlowKindState::Tcp { sender, .. } = &f.kind {
                r.sample(GAUGE_CWND, f.id.0 as u16, at, sender.cwnd());
            }
        }
    }

    fn start_flows(&mut self) {
        for idx in 0..self.flows.len() {
            // Small deterministic stagger so synchronized sources do not
            // all fire in the same instant at t = 0.
            let offset = SimDuration::from_micros(97 * idx as u64);
            let id = self.flows[idx].id;
            match &self.flows[idx].kind {
                FlowKindState::Udp { .. } => {
                    self.sched.arm_tick(offset, Event::CbrTick { flow: id });
                }
                FlowKindState::Tcp { .. } => {
                    // Kick the sender at the offset via a zero-delay timer
                    // path: emit its initial window immediately.
                    self.sched.arm(offset, Event::TcpTimer { flow: id });
                }
                FlowKindState::Probe { .. } => {
                    self.sched.arm_tick(offset, Event::ProbeTick { flow: id });
                }
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        // A `TxOnset` only fans out; its stations are counted one by one.
        if !matches!(ev, Event::TxOnset { .. }) {
            self.dispatched += 1;
        }
        match ev {
            Event::MacTimer { node, kind } => {
                let _span = ::obs::span!("mac/timer");
                self.nodes[node.0 as usize].timers[kind.index()] = None;
                self.mac(now, node, |dcf, actions| dcf.on_timer(now, kind, actions));
            }
            Event::TxEnd { tx } => self.tx_end(now, tx),
            Event::TxOnset { tx } => self.tx_onset(now, tx),
            Event::BusyOnset { node } => self.busy_onset(now, node),
            Event::BusyEnd { node } => self.busy_end(now, node),
            Event::CbrTick { flow } => {
                let (seg, interval, src, dst) = {
                    let f = &mut self.flows[flow.0 as usize];
                    let FlowKindState::Udp { source, .. } = &mut f.kind else {
                        return;
                    };
                    (source.next_datagram(), source.interval(), f.src, f.dst)
                };
                // ±1 % tick jitter: equal-rate CBR sources otherwise
                // phase-lock against a shared tail-drop queue, starving
                // whichever flow always arrives second (the mean rate is
                // unchanged).
                let jitter = 0.99 + 0.02 * self.rng.uniform_f64();
                let next = SimDuration::from_nanos((interval.as_nanos() as f64 * jitter) as u64);
                self.sched.arm_tick(next, Event::CbrTick { flow });
                if let Segment::UdpData { flow, seq, bytes } = seg {
                    self.record_flow_event(now, src.0, &transport::obs::UDP_TX, flow, seq, bytes);
                }
                // A saturated source mostly meets a full queue; the
                // refusal is the whole drop, with no MAC handler run.
                if !self.nodes[src.0 as usize].dcf.refuse_if_full(now, dst) {
                    self.enqueue_at(now, src, dst, seg);
                }
            }
            Event::TcpTimer { flow } => {
                self.flow_timers[flow.0 as usize] = None;
                self.tcp(now, flow, |sender, out| {
                    if sender.flight_size() == 0 && sender.retransmissions == 0 {
                        sender.start(now, out) // connection open
                    } else {
                        sender.on_timeout(now, out)
                    }
                });
            }
            Event::ProbeTick { flow } => {
                let (seg, interval, src, dst) = {
                    let f = &mut self.flows[flow.0 as usize];
                    let FlowKindState::Probe {
                        interval,
                        payload,
                        next_seq,
                        stats,
                    } = &mut f.kind
                    else {
                        return;
                    };
                    let seq = *next_seq;
                    *next_seq += 1;
                    stats.sent += 1;
                    (
                        Segment::ProbeReq {
                            flow,
                            seq,
                            bytes: *payload + transport::packet::UDP_IP_OVERHEAD,
                        },
                        *interval,
                        f.src,
                        f.dst,
                    )
                };
                self.sched.arm_tick(interval, Event::ProbeTick { flow });
                self.enqueue_at(now, src, dst, seg);
            }
            Event::WireDeliver {
                flow,
                to_remote,
                seg,
            } => {
                if to_remote {
                    // A TCP ACK reached the remote sender across the wire.
                    let Segment::TcpAck { ack, .. } = seg else {
                        return;
                    };
                    self.tcp(now, flow, |sender, out| sender.on_ack(now, ack, out));
                } else {
                    // A data segment reached the AP from the remote sender.
                    let (src, dst) = {
                        let f = &self.flows[flow.0 as usize];
                        (f.src, f.dst)
                    };
                    self.enqueue_at(now, src, dst, seg);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // MAC action processing
    // ------------------------------------------------------------------

    /// Runs one MAC handler of `node` into a buffer from `mac_bufs` and
    /// carries out its actions.
    fn mac(
        &mut self,
        now: SimTime,
        node: NodeId,
        call: impl FnOnce(&mut Dcf<Segment>, &mut Vec<MacAction<Segment>>),
    ) {
        let mut actions = self.mac_bufs.pop().unwrap_or_default();
        call(&mut self.nodes[node.0 as usize].dcf, &mut actions);
        self.process_actions(now, node, &mut actions);
        self.mac_bufs.push(actions);
    }

    /// Carries out (and drains) one handler's `actions`.
    fn process_actions(
        &mut self,
        now: SimTime,
        node: NodeId,
        actions: &mut Vec<MacAction<Segment>>,
    ) {
        for action in actions.drain(..) {
            match action {
                MacAction::StartTx(frame) => self.start_transmission(now, frame),
                MacAction::SetTimer { kind, after } => {
                    let h = self.sched.arm(after, Event::MacTimer { node, kind });
                    if let Some(old) = self.nodes[node.0 as usize].timers[kind.index()].replace(h) {
                        old.cancel(&mut self.sched);
                    }
                }
                MacAction::CancelTimer(kind) => {
                    if let Some(old) = self.nodes[node.0 as usize].timers[kind.index()].take() {
                        old.cancel(&mut self.sched);
                    }
                }
                MacAction::Deliver { body, from } => {
                    self.deliver_segment(now, node, body, from);
                }
                MacAction::TxSuccess { body, .. } => {
                    // Record MAC-acknowledged TCP segments for the
                    // cross-layer spoof detector.
                    if let Segment::TcpData { flow, seq, .. } = body {
                        self.flows[flow.0 as usize].cross.mac_acked.insert(seq);
                    }
                }
                MacAction::Dropped { body, reason, .. } => {
                    // Loss signals stay at the MAC (TCP discovers loss
                    // end-to-end) with one exception: a probe request that
                    // never reached the air (queue overflow at a saturated
                    // interface) must not count as a *sent* probe, or the
                    // fake-ACK detector would read congestion as channel
                    // loss.
                    if let (Segment::ProbeReq { flow, .. }, mac::DropReason::QueueFull) =
                        (&body, reason)
                    {
                        let f = &mut self.flows[flow.0 as usize];
                        if let FlowKindState::Probe { stats, .. } = &mut f.kind {
                            stats.sent = stats.sent.saturating_sub(1);
                        }
                    }
                }
            }
        }
    }

    /// How `src`'s transmissions reach station `m`; a sender does not
    /// hear itself.
    fn reach(&self, src: NodeId, m: usize) -> Reach {
        if m == src.0 as usize {
            Reach::None
        } else {
            self.link.reach(src.0 as usize, m)
        }
    }

    fn busy_onset(&mut self, now: SimTime, node: NodeId) {
        let st = &mut self.nodes[node.0 as usize];
        st.busy_count += 1;
        if st.busy_count == 1 {
            self.mac(now, node, |dcf, actions| dcf.on_channel_busy(now, actions));
        }
    }

    fn busy_end(&mut self, now: SimTime, node: NodeId) {
        let st = &mut self.nodes[node.0 as usize];
        debug_assert!(st.busy_count > 0, "busy underflow");
        st.busy_count = st.busy_count.saturating_sub(1);
        if st.busy_count == 0 {
            self.mac(now, node, |dcf, actions| dcf.on_channel_idle(now, actions));
        }
    }

    /// The carrier-sense onset of transmission `tx` at every station in
    /// range, in ascending node order.
    fn tx_onset(&mut self, now: SimTime, tx: FrameId) {
        let src = self
            .frames
            .get(tx)
            .expect("tx onset without record")
            .frame
            .actual_tx;
        for m in 0..self.nodes.len() {
            if self.reach(src, m) != Reach::None {
                self.dispatched += 1;
                self.busy_onset(now, NodeId(m as u16));
            }
        }
    }

    /// The end edge of transmission `tx`: the sender's tx-end, then, in
    /// ascending node order, busy-end at every station in range and the
    /// reception at every decoding one. When carrier sense is slower
    /// than the frame (`onset == end`, no `TxOnset` armed) each station's
    /// busy onset runs just before its busy end.
    fn tx_end(&mut self, now: SimTime, tx: FrameId) {
        let rec = self.frames.get(tx).expect("tx end without record");
        let src = rec.frame.actual_tx;
        let folded = rec.start + self.cs_latency >= now;
        self.mac(now, src, |dcf, actions| dcf.on_tx_end(now, actions));
        self.prune_frames(now);
        for m in 0..self.nodes.len() {
            let reach = self.reach(src, m);
            if reach == Reach::None {
                continue;
            }
            let node = NodeId(m as u16);
            if folded {
                self.dispatched += 1;
                self.busy_onset(now, node);
            }
            self.dispatched += 1;
            self.busy_end(now, node);
            if reach == Reach::Decode {
                self.dispatched += 1;
                self.conclude_reception(now, node, tx);
            }
        }
    }

    fn start_transmission(&mut self, now: SimTime, frame: Frame<Segment>) {
        let src = frame.actual_tx;
        let airtime = frame.airtime_with(&mut self.air);
        let end = now + airtime;
        if let Some(rec) = &self.recorder {
            phy::obs::record_tx_start(
                rec,
                now,
                src.0,
                frame.dst.0,
                frame_code(frame.kind),
                airtime,
            );
        }
        if let Some(log) = &mut self.tx_log {
            log.push(TxRecord {
                src,
                kind: frame.kind,
                start: now,
                end,
            });
        }
        // The frame moves into the arena once; everything downstream —
        // busy tracking, reception, tx-end bookkeeping — works through
        // the generation-stamped handle.
        let id = self.frames.insert(frame, now, end);
        self.max_air = self.max_air.max(airtime);
        // Two scheduler entries stand for the frame's per-station work.
        // Each fans out in ascending node order, exactly the order the
        // per-station events it replaces had (see DESIGN §8).
        self.sched.arm_at(end, Event::TxEnd { tx: id });
        let onset = now + self.cs_latency;
        if onset < end && (0..self.nodes.len()).any(|m| self.reach(src, m) != Reach::None) {
            self.sched.arm_at(onset, Event::TxOnset { tx: id });
        }
    }

    fn conclude_reception(&mut self, now: SimTime, node: NodeId, tx: FrameId) {
        let _span = ::obs::span!("phy/receive");
        let rx = node.0 as usize;
        let rec = self.frames.get(tx).expect("rx conclude without record");
        let (a_start, a_end) = (rec.start, rec.end);
        let (a_src, a_dst, a_kind) = (rec.frame.actual_tx, rec.frame.dst, rec.frame.kind);
        // One pass over every frame overlapping this one. Half-duplex: if
        // we transmitted at any point during the frame, we heard nothing
        // of it. Otherwise track the strongest overlapping interferer
        // (anything decodable or sensed). Arena order is arbitrary but
        // the fold is a pure max, so the result is order-independent.
        let mut max_other = f64::NEG_INFINITY;
        for (h, b) in self.frames.entries() {
            if h == tx || !(b.start < a_end && a_start < b.end) {
                continue;
            }
            if b.frame.actual_tx == node {
                return;
            }
            let b_src = b.frame.actual_tx.0 as usize;
            if self.link.reach(b_src, rx) != Reach::None {
                max_other = max_other.max(self.link.power_dbm(b_src, rx));
            }
        }
        // Median received power doubles as the capture-comparison input
        // and the RSSI jitter center (`rx_power_dbm ≡ rssi median`). The
        // sample is drawn before the outcome is known, so a corrupted
        // reception, which ignores it, consumes the same RNG draws.
        let p_a = self.link.power_dbm(a_src.0 as usize, rx);
        let rssi = self.channel.rssi().sample_from_median(p_a, &mut self.rng);
        let captured = max_other == f64::NEG_INFINITY
            || self.capture.decide(p_a, max_other) == phy::capture::CaptureOutcome::FirstCaptures;
        // The frame never leaves the arena: the receiver's MAC borrows it
        // through the RxEvent and copies only the fields it keeps.
        let frame = &rec.frame;
        let event = if !captured {
            RxEvent::Corrupted {
                frame,
                cause: CorruptionCause::Collision,
            }
        } else {
            let bytes = frame.mac_bytes() + PLCP_EQUIVALENT_BYTES;
            // Rate-specific overrides are rare; probe the sparse map only
            // when one could exist, else hit the dense interned table.
            let rate_em = if self.rate_link_error.is_empty() {
                None
            } else {
                frame
                    .rate_bps
                    .and_then(|rate| self.rate_link_error.get(&(a_src.0, node.0, rate)))
                    .copied()
            };
            let corrupted = match rate_em {
                Some(em) => em.corrupts(bytes, &mut self.rng),
                None => {
                    let idx = self.link_em[a_src.0 as usize * self.link.nodes() + rx];
                    self.fer.corrupts(idx, bytes, &mut self.rng)
                }
            };
            if corrupted {
                RxEvent::Corrupted {
                    frame,
                    cause: CorruptionCause::Noise,
                }
            } else {
                RxEvent::Ok { frame, rssi }
            }
        };
        if let Some(rec) = &self.recorder {
            let outcome = match &event {
                RxEvent::Ok { .. } => phy::obs::RxOutcome::Ok,
                RxEvent::Corrupted {
                    cause: CorruptionCause::Noise,
                    ..
                } => phy::obs::RxOutcome::Noise,
                RxEvent::Corrupted { .. } => phy::obs::RxOutcome::Collision,
            };
            phy::obs::record_rx(
                rec,
                now,
                node.0,
                a_src.0,
                a_dst.0,
                frame_code(a_kind),
                outcome,
                a_end.saturating_since(a_start),
            );
        }
        // `Network::mac` inlined: the event borrows the frame arena.
        let mut actions = self.mac_bufs.pop().unwrap_or_default();
        self.nodes[node.0 as usize]
            .dcf
            .on_rx_end(now, event, &mut actions);
        self.process_actions(now, node, &mut actions);
        self.mac_bufs.push(actions);
    }

    /// Drops frames that can no longer overlap a pending reception. A
    /// frame still to conclude ends at or after `now` and lasts at most
    /// `max_air`, so it began no earlier than `now - max_air`; a frame
    /// that ended by then cannot overlap it.
    fn prune_frames(&mut self, now: SimTime) {
        self.frames.retain(|t| t.end + self.max_air > now);
    }

    // ------------------------------------------------------------------
    // Transport plumbing
    // ------------------------------------------------------------------

    fn enqueue_at(&mut self, now: SimTime, at: NodeId, to: NodeId, seg: Segment) {
        self.mac(now, at, |dcf, actions| {
            dcf.on_enqueue(now, to, seg, actions)
        });
    }

    /// Emits a transport flow event (for conformance flow accounting)
    /// if a recorder is installed.
    fn record_flow_event(
        &self,
        now: SimTime,
        node: u16,
        kind: &'static ::obs::EventKind,
        flow: FlowId,
        seq: u64,
        bytes: usize,
    ) {
        if let Some(rec) = &self.recorder {
            rec.borrow_mut()
                .emit(now, node, kind, &[flow.0 as f64, seq as f64, bytes as f64]);
        }
    }

    fn deliver_segment(&mut self, now: SimTime, at: NodeId, seg: Segment, _from: NodeId) {
        match seg {
            Segment::UdpData { flow, seq, bytes } => {
                let f = &mut self.flows[flow.0 as usize];
                let mut delivered = false;
                if at == f.dst {
                    if let FlowKindState::Udp { sink, .. } = &mut f.kind {
                        sink.on_data(now, seq, bytes);
                        delivered = true;
                    }
                }
                if delivered {
                    self.record_flow_event(
                        now,
                        at.0,
                        &transport::obs::UDP_DELIVER,
                        flow,
                        seq,
                        bytes,
                    );
                }
            }
            Segment::TcpData { flow, seq, bytes } => {
                let (ack, src) = {
                    let f = &mut self.flows[flow.0 as usize];
                    if at != f.dst {
                        return;
                    }
                    let FlowKindState::Tcp { receiver, .. } = &mut f.kind else {
                        return;
                    };
                    (receiver.on_data(seq, bytes), f.src)
                };
                self.record_flow_event(now, at.0, &transport::obs::TCP_DELIVER, flow, seq, bytes);
                self.enqueue_at(now, at, src, ack);
            }
            Segment::TcpAck { flow, ack, .. } => {
                let f = &self.flows[flow.0 as usize];
                if at != f.src {
                    return;
                }
                match f.wire {
                    Some(delay) => {
                        self.sched.arm(
                            delay,
                            Event::WireDeliver {
                                flow,
                                to_remote: true,
                                seg: Segment::tcp_ack(flow, ack),
                            },
                        );
                    }
                    None => self.tcp(now, flow, |sender, out| sender.on_ack(now, ack, out)),
                }
            }
            Segment::ProbeReq { flow, seq, bytes } => {
                let (src,) = {
                    let f = &self.flows[flow.0 as usize];
                    if at != f.dst {
                        return;
                    }
                    (f.src,)
                };
                self.enqueue_at(now, at, src, Segment::ProbeResp { flow, seq, bytes });
            }
            Segment::ProbeResp { flow, .. } => {
                let f = &mut self.flows[flow.0 as usize];
                if at == f.src {
                    if let FlowKindState::Probe { stats, .. } = &mut f.kind {
                        stats.echoed += 1;
                    }
                }
            }
        }
    }

    /// Runs one handler of `flow`'s TCP sender into `tcp_out` and
    /// carries out its outputs. A flow that is not TCP has no sender, and
    /// nothing runs.
    fn tcp(
        &mut self,
        now: SimTime,
        flow: FlowId,
        call: impl FnOnce(&mut TcpSender, &mut Vec<TcpOutput>),
    ) {
        let FlowKindState::Tcp { sender, .. } = &mut self.flows[flow.0 as usize].kind else {
            return;
        };
        let mut outputs = std::mem::take(&mut self.tcp_out);
        call(sender, &mut outputs);
        self.process_tcp_outputs(now, flow, &mut outputs);
        self.tcp_out = outputs;
    }

    /// Carries out (and drains) one sender handler's `outputs`.
    fn process_tcp_outputs(&mut self, now: SimTime, flow: FlowId, outputs: &mut Vec<TcpOutput>) {
        let _span = ::obs::span!("transport/tcp");
        for out in outputs.drain(..) {
            match out {
                TcpOutput::Send(seg) => {
                    if let Segment::TcpData { seq, .. } = seg {
                        let cross = &mut self.flows[flow.0 as usize].cross;
                        if cross.max_seq_sent.is_some_and(|m| seq <= m) {
                            cross.retx_total += 1;
                            if cross.mac_acked.contains(&seq) {
                                cross.retx_of_acked += 1;
                            }
                        }
                        cross.max_seq_sent = Some(cross.max_seq_sent.map_or(seq, |m| m.max(seq)));
                    }
                    if let Segment::TcpData { seq, bytes, .. } = seg {
                        let node = self.flows[flow.0 as usize].src.0;
                        self.record_flow_event(
                            now,
                            node,
                            &transport::obs::TCP_TX,
                            flow,
                            seq,
                            bytes,
                        );
                    }
                    let f = &self.flows[flow.0 as usize];
                    match f.wire {
                        Some(delay) => {
                            self.sched.arm(
                                delay,
                                Event::WireDeliver {
                                    flow,
                                    to_remote: false,
                                    seg,
                                },
                            );
                        }
                        None => {
                            let (src, dst) = (f.src, f.dst);
                            self.enqueue_at(now, src, dst, seg);
                        }
                    }
                }
                TcpOutput::ArmTimer(after) => {
                    let h = self.sched.arm(after, Event::TcpTimer { flow });
                    if let Some(old) = self.flow_timers[flow.0 as usize].replace(h) {
                        old.cancel(&mut self.sched);
                    }
                }
                TcpOutput::CancelTimer => {
                    if let Some(old) = self.flow_timers[flow.0 as usize].take() {
                        old.cancel(&mut self.sched);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    fn collect_metrics(&mut self, duration: SimDuration) -> RunMetrics {
        let end = SimTime::ZERO + duration;
        let mut metrics = RunMetrics {
            duration,
            events_processed: self.dispatched,
            ..RunMetrics::default()
        };
        for f in &self.flows {
            let payload = f.payload;
            let fm = match &f.kind {
                FlowKindState::Udp { sink, .. } => FlowMetrics {
                    distinct_packets: sink.distinct_datagrams,
                    payload_bytes: sink.distinct_datagrams * payload as u64,
                    duplicates: sink.duplicates,
                    ..FlowMetrics::default()
                },
                FlowKindState::Tcp { sender, receiver } => FlowMetrics {
                    distinct_packets: receiver.distinct_segments,
                    payload_bytes: receiver.distinct_segments * payload as u64,
                    duplicates: receiver.duplicates,
                    avg_cwnd: sender.avg_cwnd(end),
                    retransmissions: sender.retransmissions,
                    timeouts: sender.timeouts,
                    retx_of_mac_acked: f.cross.retx_of_acked,
                    ..FlowMetrics::default()
                },
                FlowKindState::Probe { stats, .. } => FlowMetrics {
                    distinct_packets: stats.echoed,
                    payload_bytes: stats.echoed * payload as u64,
                    probe_app_loss: Some(stats.app_loss()),
                    ..FlowMetrics::default()
                },
            };
            metrics.flows.insert(f.id.0, fm);
        }
        for (i, st) in self.nodes.iter().enumerate() {
            metrics.nodes.insert(
                i as u16,
                NodeMetrics {
                    counters: st.dcf.counters.clone(),
                    avg_cw: st.dcf.counters.avg_cw_time_weighted(end),
                },
            );
        }
        metrics
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("now", &self.sched.now())
            .finish_non_exhaustive()
    }
}

// ----------------------------------------------------------------------
// Snapshots
//
// A snapshot carries only what the event loop mutates; topology, channel
// and protocol configuration are rebuilt by re-running the builder (or
// `core`'s scenario) before `snap_restore` overwrites the state on top.
// ----------------------------------------------------------------------

impl snap::SnapValue for Event {
    fn save(&self, w: &mut snap::Enc) {
        match self {
            Event::MacTimer { node, kind } => {
                w.u8(0);
                node.save(w);
                kind.save(w);
            }
            Event::TxEnd { tx } => {
                w.u8(1);
                tx.save(w);
            }
            Event::BusyOnset { node } => {
                w.u8(2);
                node.save(w);
            }
            Event::BusyEnd { node } => {
                w.u8(3);
                node.save(w);
            }
            Event::TxOnset { tx } => {
                w.u8(4);
                tx.save(w);
            }
            Event::CbrTick { flow } => {
                w.u8(5);
                flow.save(w);
            }
            Event::TcpTimer { flow } => {
                w.u8(6);
                flow.save(w);
            }
            Event::ProbeTick { flow } => {
                w.u8(7);
                flow.save(w);
            }
            Event::WireDeliver {
                flow,
                to_remote,
                seg,
            } => {
                w.u8(8);
                flow.save(w);
                w.bool(*to_remote);
                seg.save(w);
            }
        }
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(match r.u8()? {
            0 => Event::MacTimer {
                node: NodeId::load(r)?,
                kind: TimerKind::load(r)?,
            },
            1 => Event::TxEnd {
                tx: FrameId::load(r)?,
            },
            2 => Event::BusyOnset {
                node: NodeId::load(r)?,
            },
            3 => Event::BusyEnd {
                node: NodeId::load(r)?,
            },
            4 => Event::TxOnset {
                tx: FrameId::load(r)?,
            },
            5 => Event::CbrTick {
                flow: FlowId::load(r)?,
            },
            6 => Event::TcpTimer {
                flow: FlowId::load(r)?,
            },
            7 => Event::ProbeTick {
                flow: FlowId::load(r)?,
            },
            8 => Event::WireDeliver {
                flow: FlowId::load(r)?,
                to_remote: r.bool()?,
                seg: Segment::load(r)?,
            },
            t => return Err(snap::SnapError::Corrupt(format!("event tag {t}"))),
        })
    }
}

impl NodeState {
    /// Position is placement configuration and is not serialized.
    fn snap_save(&self, w: &mut snap::Enc) {
        self.dcf.snap_save(w);
        for t in &self.timers {
            t.save(w);
        }
        w.u32(self.busy_count);
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        self.dcf.snap_restore(r)?;
        for slot in &mut self.timers {
            *slot = Option::<TimerHandle>::load(r)?;
        }
        self.busy_count = r.u32()?;
        Ok(())
    }
}

impl CrossLayerStats {
    /// MAC-acked sequence numbers are serialized sorted so the encoding
    /// is `HashSet`-order independent.
    fn snap_save(&self, w: &mut snap::Enc) {
        let mut acked: Vec<u64> = self.mac_acked.iter().copied().collect();
        acked.sort_unstable();
        acked.save(w);
        w.u64(self.retx_total);
        w.u64(self.retx_of_acked);
        self.max_seq_sent.save(w);
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        self.mac_acked = Vec::<u64>::load(r)?.into_iter().collect();
        self.retx_total = r.u64()?;
        self.retx_of_acked = r.u64()?;
        self.max_seq_sent = Option::<u64>::load(r)?;
        Ok(())
    }
}

impl FlowState {
    /// Endpoints, routing and payload size come from the flow spec; only
    /// the endpoint state machines and the detector bookkeeping move.
    fn snap_save(&self, w: &mut snap::Enc) {
        match &self.kind {
            FlowKindState::Udp { source, sink } => {
                w.u8(0);
                source.snap_save(w);
                sink.snap_save(w);
            }
            FlowKindState::Tcp { sender, receiver } => {
                w.u8(1);
                sender.snap_save(w);
                receiver.snap_save(w);
            }
            FlowKindState::Probe {
                next_seq, stats, ..
            } => {
                w.u8(2);
                w.u64(*next_seq);
                stats.save(w);
            }
        }
        self.cross.snap_save(w);
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        let tag = r.u8()?;
        match (&mut self.kind, tag) {
            (FlowKindState::Udp { source, sink }, 0) => {
                source.snap_restore(r)?;
                sink.snap_restore(r)?;
            }
            (FlowKindState::Tcp { sender, receiver }, 1) => {
                sender.snap_restore(r)?;
                receiver.snap_restore(r)?;
            }
            (
                FlowKindState::Probe {
                    next_seq, stats, ..
                },
                2,
            ) => {
                *next_seq = r.u64()?;
                *stats = ProbeStats::load(r)?;
            }
            _ => {
                return Err(snap::SnapError::Corrupt(format!(
                    "flow {} kind tag {tag} does not match configuration",
                    self.id.0
                )))
            }
        }
        self.cross.snap_restore(r)
    }
}

/// Snapshot = shared RNG stream, scheduler (clock + pending events),
/// dispatch count and its pending credits, transmission arena, per-node
/// MAC state and per-flow transport state.
/// PHY parameters, channel/capture models and error tables are
/// configuration and are excluded; the owner rebuilds an identically
/// configured network before restoring.
impl snap::SnapState for Network {
    fn snap_save(&self, w: &mut snap::Enc) {
        self.rng.snap_save(w);
        self.sched.snap_save(w);
        w.u64(self.dispatched);
        self.uncredited_ascending().save(w);
        self.frames.save(w);
        self.max_air.save(w);
        w.usize(self.nodes.len());
        for st in &self.nodes {
            st.snap_save(w);
        }
        w.usize(self.flows.len());
        for f in &self.flows {
            f.snap_save(w);
        }
        self.flow_timers.save(w);
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        self.rng.snap_restore(r)?;
        self.sched.snap_restore(r)?;
        self.dispatched = r.u64()?;
        self.uncredited = Vec::<SimTime>::load(r)?;
        self.frames = FrameArena::load(r)?;
        self.max_air = SimDuration::load(r)?;
        let n = r.usize()?;
        if n != self.nodes.len() {
            return Err(snap::SnapError::Corrupt(format!(
                "snapshot has {n} nodes, network has {}",
                self.nodes.len()
            )));
        }
        for st in &mut self.nodes {
            st.snap_restore(r)?;
        }
        let nf = r.usize()?;
        if nf != self.flows.len() {
            return Err(snap::SnapError::Corrupt(format!(
                "snapshot has {nf} flows, network has {}",
                self.flows.len()
            )));
        }
        for f in &mut self.flows {
            f.snap_restore(r)?;
        }
        let timers = Vec::<Option<TimerHandle>>::load(r)?;
        if timers.len() != self.flow_timers.len() {
            return Err(snap::SnapError::Corrupt("flow timer count mismatch".into()));
        }
        self.flow_timers = timers;
        Ok(())
    }
}

impl Network {
    /// One audit-ladder rung: a digest of each layer's canonical state,
    /// in a fixed order. The PHY has no runtime state of its own (its
    /// random draws come from the shared stream), so its digest covers
    /// the configured error tables and stays constant unless the
    /// configuration itself diverges.
    pub fn layer_digests(&self) -> [(&'static str, u64); 6] {
        let phy = {
            let mut w = snap::Enc::new();
            self.default_error.save(&mut w);
            let mut links: Vec<(u16, u16)> = self.link_error.keys().copied().collect();
            links.sort_unstable();
            for k in links {
                k.save(&mut w);
                self.link_error[&k].save(&mut w);
            }
            let mut rate_links: Vec<(u16, u16, u64)> =
                self.rate_link_error.keys().copied().collect();
            rate_links.sort_unstable();
            for k in rate_links {
                k.save(&mut w);
                self.rate_link_error[&k].save(&mut w);
            }
            snap::fnv1a(w.bytes())
        };
        let mac = {
            let mut w = snap::Enc::new();
            for st in &self.nodes {
                st.snap_save(&mut w);
            }
            self.frames.save(&mut w);
            self.max_air.save(&mut w);
            snap::fnv1a(w.bytes())
        };
        let transport = {
            let mut w = snap::Enc::new();
            for f in &self.flows {
                f.snap_save(&mut w);
            }
            self.flow_timers.save(&mut w);
            snap::fnv1a(w.bytes())
        };
        let detect = {
            let mut w = snap::Enc::new();
            for st in &self.nodes {
                w.u64(st.dcf.hooks_digest());
            }
            snap::fnv1a(w.bytes())
        };
        // The scheduler layer covers the dispatch count and its pending
        // credits too.
        let sched = {
            let mut w = snap::Enc::new();
            self.sched.snap_save(&mut w);
            w.u64(self.dispatched);
            self.uncredited_ascending().save(&mut w);
            snap::fnv1a(w.bytes())
        };
        [
            ("rng", self.rng.snap_digest()),
            ("sched", sched),
            ("phy", phy),
            ("mac", mac),
            ("transport", transport),
            ("detect", detect),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use proptest::prelude::*;

    /// The sort-based fusion [`Network::inject_busy`] replaced, kept as
    /// its reference: one general sort of the whole batch by `(node,
    /// onset, index)`, fresh buffers per call, and a re-sort of the
    /// credit queue.
    fn inject_busy_by_sort(net: &mut Network, batch: &[TxInterval]) {
        const ONSET: u8 = 1;
        const END: u8 = 2;
        let nudged = net.sched.now() + SimDuration::from_nanos(1);
        let onset = |start: SimTime| start.max(nudged);
        let mut order: Vec<(NodeId, SimTime, u32)> = batch
            .iter()
            .enumerate()
            .filter(|&(_, &(_, start, end))| end > onset(start))
            .map(|(i, &(node, start, _))| (node, onset(start), i as u32))
            .collect();
        order.sort_unstable();
        let mut keep = vec![0u8; batch.len()];
        for &(_, _, i) in &order {
            keep[i as usize] = ONSET | END;
        }
        let mut k = 0;
        while k < order.len() {
            let (node, _, first) = order[k];
            let mut last = (batch[first as usize].2, first);
            k += 1;
            while k < order.len() && order[k].0 == node && order[k].1 < last.0 {
                let (_, at, i) = order[k];
                keep[i as usize] &= !ONSET;
                net.uncredited.push(at);
                let later = (batch[i as usize].2, i);
                let shadowed = if later > last {
                    std::mem::replace(&mut last, later)
                } else {
                    later
                };
                keep[shadowed.1 as usize] &= !END;
                net.uncredited.push(shadowed.0);
                k += 1;
            }
        }
        for (&(node, start, end), keep) in batch.iter().zip(keep) {
            if keep & ONSET != 0 {
                net.sched.arm_at(onset(start), Event::BusyOnset { node });
            }
            if keep & END != 0 {
                net.sched.arm_at(end, Event::BusyEnd { node });
            }
        }
        net.uncredited.sort_unstable();
    }

    fn snapshot(net: &Network) -> Vec<u8> {
        let mut w = snap::Enc::new();
        net.snap_save(&mut w);
        w.into_bytes()
    }

    /// `(station, start or start step, length)` in 10 µs units.
    type Step = (u16, u64, u64);

    /// A batch shaped like an exchange's, and worse: `runs` of
    /// `(station, start step, length)` on a 10 µs grid, each run's starts
    /// ascending from a random origin (a zero step repeats a start), the
    /// runs concatenated so stations interleave, then `strays` in no
    /// order. Lengths of zero and starts before `now` make edges the
    /// nudge empties or moves.
    fn exchange_like(runs: &[(u64, Vec<Step>)], strays: &[Step]) -> Vec<TxInterval> {
        let us = |k: u64| SimTime::from_micros(10 * k);
        let mut batch = Vec::new();
        for (origin, run) in runs {
            let mut at = *origin;
            for &(node, step, len) in run {
                at += step;
                batch.push((NodeId(node), us(at), us(at + len)));
            }
        }
        batch.extend(
            strays
                .iter()
                .map(|&(node, start, len)| (NodeId(node), us(start), us(start + len))),
        );
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Station buckets sorted in place leave every byte of the
        /// snapshot (scheduler, armed sequence numbers, dispatch count,
        /// pending credits) where the sort-based fusion leaves it, across
        /// two batches with the event loop run in between.
        #[test]
        fn bucketed_fusion_matches_sort_based_fusion(
            runs in proptest::collection::vec(
                (0u64..30, proptest::collection::vec((0u16..4, 0u64..4, 0u64..12), 1..16)),
                1..8,
            ),
            strays in proptest::collection::vec((0u16..4, 0u64..60, 0u64..12), 0..12),
            now_us in 0u64..200,
        ) {
            let batch = exchange_like(&runs, &strays);
            let build = || {
                let mut b = NetworkBuilder::new(PhyParams::dot11b());
                for i in 0..4 {
                    b.add_node(Position::new(i as f64, 0.0));
                }
                let mut net = b.build();
                net.sched.advance_clock(SimTime::from_micros(now_us));
                net
            };
            let (mut new, mut old) = (build(), build());
            let mut cursors = [
                new.begin_hooked(RunHooks::default(), None),
                old.begin_hooked(RunHooks::default(), None),
            ];
            new.inject_busy(&batch);
            inject_busy_by_sort(&mut old, &batch);
            prop_assert!(snapshot(&new) == snapshot(&old), "{batch:?}");
            // Run into the middle of the batch, then inject it again:
            // the nudge and the pending credits now differ.
            let mid = SimTime::from_micros(now_us + 300);
            new.advance(&mut cursors[0], mid);
            old.advance(&mut cursors[1], mid);
            new.inject_busy(&batch);
            inject_busy_by_sort(&mut old, &batch);
            prop_assert!(snapshot(&new) == snapshot(&old), "{batch:?}");
            let end = SimTime::from_micros(now_us + 2_000);
            new.advance(&mut cursors[0], end);
            old.advance(&mut cursors[1], end);
            prop_assert!(snapshot(&new) == snapshot(&old), "{batch:?}");
            prop_assert_eq!(new.pending_credits(), 0);
        }
    }

    #[test]
    fn handler_buffers_nest_two_deep_and_stop_growing() {
        let mut b = NetworkBuilder::new(PhyParams::dot11b());
        let ap = b.add_node(Position::new(0.0, 0.0));
        let sta = b.add_node(Position::new(10.0, 0.0));
        b.tcp_flow(ap, sta, transport::TcpConfig::default());
        b.probe_flow(sta, ap, 64, SimDuration::from_millis(20));
        let mut net = b.build();
        let mut cursor = net.begin_hooked(RunHooks::default(), None);
        let capacities = |net: &Network| {
            let mut caps: Vec<usize> = net.mac_bufs.iter().map(Vec::capacity).collect();
            // Nesting swaps the stack's order; capacities are what count.
            caps.sort_unstable();
            caps.push(net.tcp_out.capacity());
            caps
        };
        net.advance(&mut cursor, SimTime::from_secs(2));
        let warm = capacities(&net);
        net.advance(&mut cursor, SimTime::from_secs(6));
        // A delivered segment's reply (a TCP ACK, a probe echo) runs one
        // MAC handler inside another, and nothing nests deeper.
        assert_eq!(net.mac_bufs.len(), 2);
        assert!(net.mac_bufs.iter().all(Vec::is_empty));
        assert!(net.tcp_out.is_empty());
        assert!(net.tcp_out.capacity() > 0, "the TCP buffer is kept");
        assert_eq!(capacities(&net), warm, "steady state grew a buffer");
    }

    /// Injects `batch` at `now` and pops every armed event, as
    /// `(time, station, onset?)` in dispatch order.
    fn armed(
        now: SimTime,
        batch: &[(NodeId, SimTime, SimTime)],
        fused: bool,
    ) -> Vec<(u64, u16, bool)> {
        let mut b = NetworkBuilder::new(PhyParams::dot11b());
        for i in 0..4 {
            b.add_node(Position::new(i as f64, 0.0));
        }
        let mut net = b.build();
        net.sched.advance_clock(now);
        if fused {
            net.inject_busy(batch);
        } else {
            for iv in batch {
                net.inject_busy(std::slice::from_ref(iv));
            }
        }
        std::iter::from_fn(|| net.sched.next())
            .map(|(t, ev)| match ev {
                Event::BusyOnset { node } => (t.as_nanos(), node.0, true),
                Event::BusyEnd { node } => (t.as_nanos(), node.0, false),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// The edges of `popped` that move a station's busy count between
    /// zero and one — the only ones the DCF sees.
    fn transitions(popped: &[(u64, u16, bool)]) -> Vec<(u64, u16, bool)> {
        let mut count = [0u32; 4];
        popped
            .iter()
            .copied()
            .filter(|&(_, node, onset)| {
                let c = &mut count[node as usize];
                if onset {
                    *c += 1;
                    *c == 1
                } else {
                    *c -= 1;
                    *c == 0
                }
            })
            .collect()
    }

    #[test]
    fn fusion_keeps_every_busy_transition_in_order() {
        let mut rng = SimRng::new(9);
        let now = SimTime::from_micros(100);
        let mut fused_away = 0;
        for _ in 0..300 {
            // A coarse 10 µs grid makes equal instants, touching
            // intervals and cross-station ties common; some starts fall
            // at or before `now`.
            let grid = |rng: &mut SimRng| SimTime::from_micros(10 * rng.uniform_usize(40) as u64);
            let batch: Vec<_> = (0..1 + rng.uniform_usize(30))
                .map(|_| {
                    let node = NodeId(rng.uniform_usize(4) as u16);
                    let start = grid(&mut rng) + SimDuration::from_micros(50);
                    let end = start + SimDuration::from_micros(10 * rng.uniform_usize(12) as u64);
                    (node, start, end)
                })
                .collect();
            let single = armed(now, &batch, false);
            let fused = armed(now, &batch, true);
            assert_eq!(transitions(&single), transitions(&fused), "{batch:?}");
            fused_away += single.len() - fused.len();
        }
        assert!(fused_away > 1_000, "{fused_away}");
    }
}
