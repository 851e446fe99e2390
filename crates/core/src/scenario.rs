//! Canonical experiment topologies (paper §V).
//!
//! Most of the paper's simulations use one of two layouts:
//!
//! * **pairs** — N sender→receiver pairs, every node in one collision
//!   domain (the default for misbehaviors 1 and 2);
//! * **shared sender** — one AP transmitting to N receivers,
//!   head-of-line blocking included (Fig. 10, Fig. 14(a), testbed
//!   Tables VIII/IX).
//!
//! [`Scenario`] builds either, attaches greedy policies to selected
//! receivers, optionally arms every honest node with the GRC observer,
//! and runs the simulation. Odd topologies (hidden terminals, the
//! distance sweep of Fig. 23) are built directly with
//! [`net::NetworkBuilder`] in the experiment harness.
//!
//! Node placement: senders sit at `x = 0`, normal receivers at 20 m,
//! greedy receivers at 45 m. The 25 m offset guarantees a ≥ 10 dB
//! received-power gap at the senders, so overlapping genuine/spoofed
//! ACKs resolve by capture instead of jamming — exactly the regime the
//! paper evaluates (§IV-B).

use mac::NodeId;
use net::{HookCursor, NetworkBuilder, RunHooks};
use phy::{CaptureModel, ErrorModel, ErrorUnit, PhyParams, PhyStandard, Position};
use sim::{RunKey, SimDuration, SimError, SimTime};
use snap::SnapState as _;
use transport::{CbrSource, CcConfig, FlowId, TcpConfig};

use crate::checkpoint::Checkpoint;
use crate::detect::GrcObserver;
use crate::misbehavior::GreedyConfig;
use crate::run::RunOutcome;

/// Transport protocol carried by every flow of the scenario.
#[derive(Debug, Clone, Copy)]
pub enum TransportKind {
    /// Saturating CBR over UDP at the given payload bit rate.
    Udp {
        /// Offered payload bits per second per flow.
        rate_bps: u64,
    },
    /// Long-lived TCP (Reno) transfers.
    Tcp,
}

impl TransportKind {
    /// A CBR rate that saturates either PHY in the paper's setups.
    pub const SATURATING_UDP: TransportKind = TransportKind::Udp {
        rate_bps: 10_000_000,
    };
}

impl snap::SnapValue for TransportKind {
    fn save(&self, w: &mut snap::Enc) {
        match self {
            TransportKind::Udp { rate_bps } => {
                w.u8(0);
                w.u64(*rate_bps);
            }
            TransportKind::Tcp => w.u8(1),
        }
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        match r.u8()? {
            0 => Ok(TransportKind::Udp { rate_bps: r.u64()? }),
            1 => Ok(TransportKind::Tcp),
            t => Err(snap::SnapError::Corrupt(format!(
                "unknown transport kind tag {t}"
            ))),
        }
    }
}

/// Declarative description of a standard experiment run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which PHY to simulate.
    pub phy: PhyStandard,
    /// Transport used by all flows.
    pub transport: TransportKind,
    /// Congestion controller for TCP flows (ignored for UDP). The
    /// default, NewReno without HyStart, reproduces the paper's Reno
    /// sender bit-for-bit.
    pub cc: CcConfig,
    /// Number of receivers (and of senders, unless `shared_sender`).
    pub pairs: usize,
    /// One AP serving every receiver instead of per-pair senders.
    pub shared_sender: bool,
    /// RTS/CTS on or off.
    pub rts: bool,
    /// Application payload bytes per packet.
    pub payload: usize,
    /// Greedy receivers: `(receiver index, misbehavior configuration)`.
    pub greedy: Vec<(usize, GreedyConfig)>,
    /// Attach the GRC observer to every honest node;
    /// `Some(mitigate)` — `false` detects only, `true` also recovers.
    pub grc: Option<bool>,
    /// With GRC attached, also track per-window decision statistics at
    /// this window width (detection-science sweeps; see
    /// `mac::grc::WindowTrack`). `None` — the default — records nothing
    /// and leaves the guards' behavior byte-identical to before the knob
    /// existed.
    pub grc_windows: Option<SimDuration>,
    /// Per-byte error rate applied to every link (`0.0` = lossless).
    pub byte_error_rate: f64,
    /// Per-flow overrides of the byte error rate (both directions of the
    /// pair's link): `(flow index, rate)`.
    pub flow_error_overrides: Vec<(usize, f64)>,
    /// One-way wired latency behind each sender (remote TCP senders).
    pub wire_delay: Option<SimDuration>,
    /// Add a low-rate application probe (ping) flow per pair, for the
    /// fake-ACK detector.
    pub probes: bool,
    /// Interval between probes. The default (200 ms) is slow enough that
    /// echoes never queue behind saturated traffic — queueing losses
    /// would masquerade as channel losses to the detector.
    pub probe_interval: SimDuration,
    /// Capture threshold override in dB (`None` = the 10 dB default).
    pub capture_threshold_db: Option<f64>,
    /// Flight-recorder configuration. `None` (the default) still records
    /// when the thread's job context carries a recorder (see
    /// `net::JobContext`), which is how campaign runners enable recording
    /// without touching every experiment; otherwise recording is off and
    /// costs nothing.
    pub record: Option<::obs::ObsSpec>,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for Scenario {
    /// Two TCP pairs on 802.11b with RTS/CTS, lossless, 10 s, no greed.
    fn default() -> Self {
        Scenario {
            phy: PhyStandard::Dot11b,
            transport: TransportKind::Tcp,
            cc: CcConfig::default(),
            pairs: 2,
            shared_sender: false,
            rts: true,
            payload: 1024,
            greedy: Vec::new(),
            grc: None,
            grc_windows: None,
            byte_error_rate: 0.0,
            flow_error_overrides: Vec::new(),
            wire_delay: None,
            probes: false,
            probe_interval: SimDuration::from_millis(200),
            capture_threshold_db: None,
            record: None,
            duration: SimDuration::from_secs(10),
            seed: 1,
        }
    }
}

/// The encoding covers every field that shapes simulated behavior, so a
/// checkpoint can embed the scenario it was taken under and a resuming
/// process can rebuild an identically configured network. `record` is
/// deliberately excluded: observability never feeds back into the
/// simulation, so recording is the resuming process's own choice —
/// [`load`](snap::SnapValue::load) leaves it `None`.
impl snap::SnapValue for Scenario {
    fn save(&self, w: &mut snap::Enc) {
        w.u8(match self.phy {
            PhyStandard::Dot11b => 0,
            PhyStandard::Dot11a => 1,
        });
        self.transport.save(w);
        self.cc.save(w);
        w.usize(self.pairs);
        w.bool(self.shared_sender);
        w.bool(self.rts);
        w.usize(self.payload);
        w.usize(self.greedy.len());
        for (idx, cfg) in &self.greedy {
            w.usize(*idx);
            cfg.save(w);
        }
        self.grc.save(w);
        w.f64(self.byte_error_rate);
        w.usize(self.flow_error_overrides.len());
        for (idx, rate) in &self.flow_error_overrides {
            w.usize(*idx);
            w.f64(*rate);
        }
        self.wire_delay.save(w);
        w.bool(self.probes);
        self.probe_interval.save(w);
        self.capture_threshold_db.save(w);
        self.duration.save(w);
        w.u64(self.seed);
        self.grc_windows.save(w);
    }

    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        let phy = match r.u8()? {
            0 => PhyStandard::Dot11b,
            1 => PhyStandard::Dot11a,
            t => {
                return Err(snap::SnapError::Corrupt(format!(
                    "unknown PHY standard tag {t}"
                )))
            }
        };
        let transport = TransportKind::load(r)?;
        let cc = CcConfig::load(r)?;
        let pairs = r.usize()?;
        let shared_sender = r.bool()?;
        let rts = r.bool()?;
        let payload = r.usize()?;
        let n = r.count("greedy receiver count")?;
        let mut greedy = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.usize()?;
            greedy.push((idx, crate::misbehavior::GreedyConfig::load(r)?));
        }
        let grc = Option::load(r)?;
        let byte_error_rate = r.f64()?;
        let n = r.count("flow error override count")?;
        let mut flow_error_overrides = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.usize()?;
            flow_error_overrides.push((idx, r.f64()?));
        }
        Ok(Scenario {
            phy,
            transport,
            cc,
            pairs,
            shared_sender,
            rts,
            payload,
            greedy,
            grc,
            byte_error_rate,
            flow_error_overrides,
            wire_delay: Option::load(r)?,
            probes: r.bool()?,
            probe_interval: SimDuration::load(r)?,
            capture_threshold_db: Option::load(r)?,
            record: None,
            duration: SimDuration::load(r)?,
            seed: r.u64()?,
            grc_windows: Option::load(r)?,
        })
    }
}

/// A scenario materialized into a network: the one live-run type.
///
/// Every run goes through it — plain, hooked, resumed from a checkpoint
/// or stepped as a world cell — and ends in [`finish`](Self::finish),
/// the one place a [`RunOutcome`] is made. A run starts on the first of
/// [`start`](Self::start), [`restore`](Self::restore) or
/// [`advance`](Self::advance) (no hooks), or at `finish`.
///
/// Not `Send`: the network's recorder and conformance-checker handles
/// are single-threaded `Rc<RefCell<…>>` cells. Campaign workers
/// therefore build **and** run inside one closure, and only plain-data
/// [`RunOutcome`]s travel back.
#[derive(Debug)]
pub struct BuiltScenario {
    /// The wired-up simulation.
    pub net: net::Network,
    /// Data-flow ids, index-aligned with receivers.
    pub flows: Vec<FlowId>,
    /// Probe-flow ids (empty unless probes were requested).
    pub probe_flows: Vec<FlowId>,
    /// Sender node ids.
    pub senders: Vec<NodeId>,
    /// Receiver node ids, index-aligned with flows.
    pub receivers: Vec<NodeId>,
    /// The scenario this network was built from; checkpoint containers
    /// embed it.
    scenario: Scenario,
    /// The hook cursor, once the run has started.
    cursor: Option<HookCursor>,
}

impl BuiltScenario {
    /// Starts the run with `hooks` armed.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started, or on a zero hook
    /// interval.
    pub fn start(&mut self, hooks: RunHooks) {
        assert!(self.cursor.is_none(), "run already started");
        self.cursor = Some(self.net.begin_hooked(hooks, None));
    }

    /// Restores a network snapshot taken at barrier instant `at` into
    /// this freshly built (identically configured) network and continues
    /// the run from there under `hooks`. Hook grids continue from the
    /// first barrier strictly after `at`, so the resumed artifact stream
    /// is the exact tail of the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `state` is corrupt or does not
    /// match this scenario's topology.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started.
    pub fn restore(&mut self, state: &[u8], at: SimTime, hooks: RunHooks) -> Result<(), SimError> {
        assert!(self.cursor.is_none(), "run already started");
        self.net
            .snap_restore(&mut snap::Dec::new(state))
            .map_err(|e| SimError::invalid_config(format!("checkpoint state rejected: {e}")))?;
        self.cursor = Some(self.net.begin_hooked(hooks, Some(at)));
        Ok(())
    }

    /// Dispatches every event at or before `horizon`, firing due hooks
    /// (see [`net::Network::advance`]). World cells step the run this
    /// way, exchanging [`net::Network::drain_tx_log`] and
    /// [`net::Network::inject_busy`] between epochs.
    pub fn advance(&mut self, horizon: SimTime) {
        let net = &mut self.net;
        let cursor = self
            .cursor
            .get_or_insert_with(|| net.begin_hooked(RunHooks::default(), None));
        net.advance(cursor, horizon);
    }

    /// Runs to completion under an ad-hoc key (label `adhoc`, point 0,
    /// the scenario's seed).
    pub fn run(self) -> RunOutcome {
        let key = RunKey::new("adhoc", 0, self.scenario.seed);
        self.finish(key)
    }

    /// Runs to the scenario horizon and snapshots the result into a
    /// plain-data [`RunOutcome`] under `key`: each GRC station's reports
    /// (read from its guards, in ascending node id), the
    /// flight-recorder report when the scenario set `record` (a recorder
    /// inherited from the job context belongs to the campaign, which
    /// drains it itself), the audit ladder, and every checkpoint encoded
    /// as a [`Checkpoint`] container under `key` and the scenario.
    pub fn finish(mut self, key: RunKey) -> RunOutcome {
        let duration = self.scenario.duration;
        self.advance(SimTime::ZERO + duration);
        let cursor = self.cursor.take().expect("advance starts the run");
        let (metrics, artifacts) = self.net.finish_hooked(cursor, duration);
        let grc = (self.net.grc_stations())
            .map(|(id, grc)| (id, grc.report()))
            .collect();
        let obs = (self.scenario.record.as_ref())
            .and(self.net.recorder())
            .map(|rec| rec.borrow_mut().drain_report());
        let checkpoints = artifacts
            .checkpoints
            .into_iter()
            .map(|(at, net_state)| {
                let container = Checkpoint {
                    key: key.clone(),
                    at,
                    scenario: self.scenario.clone(),
                    net_state,
                };
                (at, container.encode())
            })
            .collect();
        RunOutcome {
            key,
            metrics,
            flows: self.flows,
            probe_flows: self.probe_flows,
            senders: self.senders,
            receivers: self.receivers,
            grc,
            obs,
            audit: artifacts.audit,
            checkpoints,
            duration,
        }
    }
}

impl Scenario {
    /// Convenience: the classic 2-pair UDP topology with receiver 1
    /// greedy.
    pub fn two_pair_udp(greedy: GreedyConfig) -> Self {
        Scenario {
            transport: TransportKind::SATURATING_UDP,
            greedy: vec![(1, greedy)],
            ..Scenario::default()
        }
    }

    /// Convenience: the classic 2-pair TCP topology with receiver 1
    /// greedy.
    pub fn two_pair_tcp(greedy: GreedyConfig) -> Self {
        Scenario {
            greedy: vec![(1, greedy)],
            ..Scenario::default()
        }
    }

    /// The node positions [`build`](Scenario::build) will produce, in
    /// builder insertion order (senders first, then receivers), without
    /// materializing a network. The world coordinator uses this to
    /// compute cross-cell coupling maps before any cell exists; the two
    /// placements must stay in lockstep (asserted by test).
    pub fn positions(&self) -> Vec<Position> {
        let mut pos = Vec::new();
        let sender_count = if self.shared_sender { 1 } else { self.pairs };
        for i in 0..sender_count {
            pos.push(Position::new(0.0, 20.0 * i as f64));
        }
        for i in 0..self.pairs {
            let x = if self.greedy.iter().any(|(g, _)| *g == i) {
                45.0
            } else {
                20.0
            };
            pos.push(Position::new(x, 20.0 * i as f64));
        }
        pos
    }

    /// Most stations (senders plus receivers) one scenario's network may
    /// hold. Committed experiments use at most 9. The bound keeps the
    /// per-pair link tables (one entry per ordered station pair) within
    /// tens of MiB and every node id well inside `u16`.
    pub const MAX_STATIONS: usize = 1024;

    /// The stations [`build`](Scenario::build) adds: one sender per pair
    /// (one in all with a shared sender) and one receiver per pair.
    pub fn stations(&self) -> usize {
        let senders = if self.shared_sender { 1 } else { self.pairs };
        senders.saturating_add(self.pairs)
    }

    /// Checks everything [`build`](Scenario::build) can reject, without
    /// building.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero pairs, more than
    /// [`Scenario::MAX_STATIONS`] stations, out-of-range greedy or flow
    /// override indices, a greedy receiver listed twice, a greedy
    /// percentage outside `[0, 1]` (NaN included), invalid error rates,
    /// or a zero period: a UDP rate and payload whose CBR interval
    /// rounds to 0 ns, a zero `probe_interval` with probes on, or a
    /// `grc_windows` width under 1 µs.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.pairs == 0 {
            return Err(SimError::invalid_config("need at least one pair"));
        }
        if self.stations() > Self::MAX_STATIONS {
            return Err(SimError::invalid_config(format!(
                "{} pairs need {} stations, more than the {} a network may hold",
                self.pairs,
                self.stations(),
                Self::MAX_STATIONS
            )));
        }
        for (n, (idx, cfg)) in self.greedy.iter().enumerate() {
            if *idx >= self.pairs {
                return Err(SimError::invalid_config(format!(
                    "greedy receiver index {idx} out of range (pairs = {})",
                    self.pairs
                )));
            }
            if self.greedy[..n].iter().any(|(i, _)| i == idx) {
                return Err(SimError::invalid_config(format!(
                    "greedy receiver index {idx} listed twice"
                )));
            }
            let gps = [
                ("nav", cfg.nav.as_ref().map(|c| c.gp)),
                ("spoof", cfg.spoof.as_ref().map(|c| c.gp)),
                ("fake", cfg.fake.as_ref().map(|c| c.gp)),
            ];
            for (kind, gp) in gps {
                if let Some(gp) = gp.filter(|gp| !(0.0..=1.0).contains(gp)) {
                    return Err(SimError::invalid_config(format!(
                        "greedy receiver {idx}: {kind} greedy percentage {gp} is not in [0, 1]"
                    )));
                }
            }
        }
        // Periods that are zero at their source's resolution: CBR
        // sources and GRC windows panic on them, and a probe flow would
        // re-arm at the same instant forever.
        if let TransportKind::Udp { rate_bps } = self.transport {
            if CbrSource::rate_interval(self.payload, rate_bps).is_zero() {
                return Err(SimError::invalid_config(format!(
                    "UDP rate {rate_bps} b/s with payload {} B gives a zero CBR interval",
                    self.payload
                )));
            }
        }
        if self.probes && self.probe_interval.is_zero() {
            return Err(SimError::invalid_config("probe_interval must be positive"));
        }
        if let Some(w) = self.grc_windows.filter(|w| w.as_micros() == 0) {
            return Err(SimError::invalid_config(format!(
                "grc_windows width {w} is under the 1us window resolution"
            )));
        }
        ErrorModel::new(ErrorUnit::Byte, self.byte_error_rate)?;
        for (i, rate) in &self.flow_error_overrides {
            if *i >= self.pairs {
                return Err(SimError::invalid_config(format!(
                    "flow error override index {i} out of range"
                )));
            }
            ErrorModel::new(ErrorUnit::Byte, *rate)?;
        }
        Ok(())
    }

    /// Materializes the scenario into a runnable network without running
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a scenario that fails
    /// [`Scenario::validate`].
    pub fn build(&self) -> Result<BuiltScenario, SimError> {
        self.validate()?;
        let params = PhyParams::for_standard(self.phy);
        let mut b = NetworkBuilder::new(params).seed(self.seed).rts(self.rts);
        if let Some(thr) = self.capture_threshold_db {
            b = b.capture(CaptureModel::new(thr));
        }
        if self.byte_error_rate > 0.0 {
            b = b.default_error(ErrorModel::new(ErrorUnit::Byte, self.byte_error_rate)?);
        }

        // --- nodes -----------------------------------------------------
        // Honest nodes get the GRC observer when requested; greedy
        // receivers get their misbehavior policy.
        let add_honest = |b: &mut NetworkBuilder, pos: Position| match self.grc {
            Some(mitigate) => {
                let tuning = crate::detect::GrcTuning {
                    windows: self.grc_windows,
                    ..Default::default()
                };
                b.add_node_with_observer(pos, GrcObserver::tuned(params, mitigate, tuning))
            }
            None => b.add_node(pos),
        };
        let mut senders = Vec::new();
        let sender_count = if self.shared_sender { 1 } else { self.pairs };
        for i in 0..sender_count {
            let pos = Position::new(0.0, 20.0 * i as f64);
            senders.push(add_honest(&mut b, pos));
        }
        let mut receivers = Vec::new();
        for i in 0..self.pairs {
            match self.greedy.iter().find(|(g, _)| *g == i) {
                Some((_, cfg)) => {
                    let pos = Position::new(45.0, 20.0 * i as f64);
                    receivers.push(b.add_node_with_policy(pos, cfg.clone().into_policy()));
                }
                None => {
                    let pos = Position::new(20.0, 20.0 * i as f64);
                    receivers.push(add_honest(&mut b, pos));
                }
            }
        }

        // --- flows -----------------------------------------------------
        let mut flows = Vec::new();
        let mut probe_flows = Vec::new();
        for i in 0..self.pairs {
            let src = if self.shared_sender {
                senders[0]
            } else {
                senders[i]
            };
            let dst = receivers[i];
            let flow = match (self.transport, self.wire_delay) {
                (TransportKind::Udp { rate_bps }, _) => {
                    b.udp_flow(src, dst, self.payload, rate_bps)
                }
                (TransportKind::Tcp, None) => b.tcp_flow(
                    src,
                    dst,
                    TcpConfig {
                        mss: self.payload,
                        cc: self.cc,
                        ..TcpConfig::default()
                    },
                ),
                (TransportKind::Tcp, Some(delay)) => b.tcp_flow_remote(
                    src,
                    dst,
                    TcpConfig {
                        mss: self.payload,
                        cc: self.cc,
                        ..TcpConfig::default()
                    },
                    delay,
                ),
            };
            flows.push(flow);
            if self.probes {
                // Probes are data-sized so their channel loss matches the
                // data frames the detector reasons about.
                probe_flows.push(b.probe_flow(src, dst, self.payload, self.probe_interval));
            }
        }
        for (i, rate) in &self.flow_error_overrides {
            let em = ErrorModel::new(ErrorUnit::Byte, *rate)?;
            let src = if self.shared_sender {
                senders[0]
            } else {
                senders[*i]
            };
            b.link_error(src, receivers[*i], em);
            b.link_error(receivers[*i], src, em);
        }

        // --- recording -------------------------------------------------
        // The builder picks the recorder: this scenario's spec if it has
        // one, else the job context's.
        if let Some(spec) = &self.record {
            b = b.record(spec.clone());
        }
        Ok(BuiltScenario {
            net: b.build(),
            flows,
            probe_flows,
            senders,
            receivers,
            scenario: self.clone(),
            cursor: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misbehavior::NavInflationConfig;
    use crate::run::Run;

    #[test]
    fn declared_positions_match_the_built_network() {
        // The world layer derives cross-cell coupling from
        // `Scenario::positions()` without building; it must mirror the
        // placement `build()` actually wires, node-id for node-id.
        let mut variants = vec![
            Scenario::default(),
            Scenario::two_pair_udp(GreedyConfig::nav_inflation(NavInflationConfig::cts_only(
                10_000, 1.0,
            ))),
        ];
        variants.push(Scenario {
            pairs: 3,
            ..Scenario::default()
        });
        variants.push(Scenario {
            pairs: 4,
            shared_sender: true,
            ..Scenario::default()
        });
        for s in variants {
            let declared = s.positions();
            let built = s.build().expect("valid scenario").net.positions();
            assert_eq!(declared, built, "placement drifted for {s:?}");
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        let s = Scenario {
            pairs: 0,
            ..Scenario::default()
        };
        assert!(Run::plan(&s).execute().is_err());
        let s = Scenario {
            greedy: vec![(5, GreedyConfig::default())],
            ..Scenario::default()
        };
        assert!(Run::plan(&s).execute().is_err());
        let s = Scenario {
            flow_error_overrides: vec![(7, 1e-4)],
            ..Scenario::default()
        };
        assert!(Run::plan(&s).execute().is_err());
    }

    #[test]
    fn honest_pairs_share_fairly() {
        let s = Scenario {
            duration: SimDuration::from_secs(5),
            ..Scenario::default()
        };
        let out = Run::plan(&s).execute().unwrap();
        let g0 = out.goodput_mbps(0);
        let g1 = out.goodput_mbps(1);
        assert!(g0 > 0.5 && g1 > 0.5);
        assert!((g0 - g1).abs() / g0.max(g1) < 0.3, "{g0} vs {g1}");
    }

    #[test]
    fn shared_sender_builds_one_ap() {
        let s = Scenario {
            shared_sender: true,
            pairs: 3,
            transport: TransportKind::SATURATING_UDP,
            duration: SimDuration::from_secs(2),
            ..Scenario::default()
        };
        let out = Run::plan(&s).execute().unwrap();
        assert_eq!(out.senders.len(), 1);
        assert_eq!(out.receivers.len(), 3);
        for i in 0..3 {
            assert!(out.goodput_mbps(i) > 0.1, "receiver {i} starved");
        }
    }

    #[test]
    fn grc_attaches_observers_to_honest_nodes_only() {
        let s = Scenario {
            greedy: vec![(1, GreedyConfig::default())],
            grc: Some(true),
            duration: SimDuration::from_secs(1),
            ..Scenario::default()
        };
        let out = Run::plan(&s).execute().unwrap();
        // 2 senders + 1 honest receiver = 3 observed nodes.
        assert_eq!(out.grc.len(), 3);
    }

    #[test]
    fn a_recording_conform_job_arms_exactly_one_checker() {
        let rec = ::obs::ObsSpec::default().recorder();
        let job = ::conform::ConformJob::new();
        let mut s = Scenario::two_pair_udp(GreedyConfig::default());
        s.duration = SimDuration::from_millis(100);
        let built = {
            let _job = net::JobContext {
                recorder: Some(rec.clone()),
                conform: Some(job.clone()),
                ..net::JobContext::keyed(sim::RunKey::new("t", 0, 0))
            }
            .install();
            s.build().expect("valid scenario")
        };
        let debug = format!("{:?}", rec.borrow());
        assert!(debug.contains("taps: 1"), "one checker tap: {debug}");
        built.run();
        assert_eq!(job.drain().len(), 1, "one deposited report");
    }
}
