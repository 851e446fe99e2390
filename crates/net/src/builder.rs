//! Fluent construction of simulations.
//!
//! [`NetworkBuilder`] assembles nodes (position + MAC configuration +
//! policy/observer hooks), flows (UDP, TCP, remote-TCP, probes) and
//! channel properties into a runnable [`Network`].
//!
//! # Examples
//!
//! ```
//! use gr_net::NetworkBuilder;
//! use phy::{PhyParams, Position};
//! use sim::SimDuration;
//!
//! // Two sender→receiver pairs saturating an 802.11b channel with UDP.
//! let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(7);
//! let s1 = b.add_node(Position::new(0.0, 0.0));
//! let r1 = b.add_node(Position::new(5.0, 0.0));
//! let f1 = b.udp_flow(s1, r1, 1024, 8_000_000);
//! let mut net = b.build();
//! let metrics = net.run(SimDuration::from_millis(200));
//! assert!(metrics.goodput_mbps(f1) > 0.0);
//! ```

use std::collections::HashMap;

use mac::{Dcf, DcfConfig, NodeId, ObserverSlot, PolicySlot};
use phy::{CaptureModel, ChannelModel, ErrorModel, PhyParams, Position};
use sim::{SimDuration, SimRng};
use transport::{
    CbrSource, FlowId, ProbeStats, Segment, TcpConfig, TcpReceiver, TcpSender, UdpSink,
};

use crate::job::JobContext;
use crate::network::{FlowKindState, FlowState, Network};

struct NodeSpec {
    pos: Position,
    policy: Option<PolicySlot>,
    observer: Option<ObserverSlot>,
    no_retx_to: Vec<NodeId>,
    cw_clamp_to: Vec<NodeId>,
    auto_rate: Option<mac::ArfConfig>,
}

struct FlowSpec {
    src: NodeId,
    dst: NodeId,
    payload: usize,
    kind: FlowSpecKind,
    wire: Option<SimDuration>,
}

enum FlowSpecKind {
    Udp { rate_bps: u64 },
    Tcp { cfg: TcpConfig },
    Probe { interval: SimDuration },
}

/// Builder for [`Network`].
pub struct NetworkBuilder {
    phy: PhyParams,
    channel: ChannelModel,
    capture: CaptureModel,
    rts_enabled: bool,
    seed: u64,
    cs_latency_slots: u32,
    default_error: ErrorModel,
    nodes: Vec<NodeSpec>,
    flows: Vec<FlowSpec>,
    link_errors: Vec<(NodeId, NodeId, ErrorModel)>,
    rate_link_errors: Vec<(NodeId, NodeId, u64, ErrorModel)>,
    record: Option<obs::ObsSpec>,
}

impl NetworkBuilder {
    /// Starts a builder for the given PHY: all nodes in one collision
    /// domain, RTS/CTS enabled, lossless links, seed 1.
    pub fn new(phy: PhyParams) -> Self {
        NetworkBuilder {
            phy,
            channel: ChannelModel::default(),
            capture: CaptureModel::default(),
            rts_enabled: true,
            seed: 1,
            cs_latency_slots: 1,
            default_error: ErrorModel::lossless(),
            nodes: Vec::new(),
            flows: Vec::new(),
            link_errors: Vec::new(),
            rate_link_errors: Vec::new(),
            record: None,
        }
    }

    /// Sets the propagation model (communication/carrier-sense ranges).
    pub fn channel(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Sets the capture model.
    pub fn capture(mut self, capture: CaptureModel) -> Self {
        self.capture = capture;
        self
    }

    /// Enables or disables the RTS/CTS exchange network-wide.
    pub fn rts(mut self, enabled: bool) -> Self {
        self.rts_enabled = enabled;
        self
    }

    /// Sets the master random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the error model applied to every link without an override.
    pub fn default_error(mut self, em: ErrorModel) -> Self {
        self.default_error = em;
        self
    }

    /// Records the network under `spec`, in preference to the job
    /// context's recorder (see [`build`](Self::build)).
    pub fn record(mut self, spec: obs::ObsSpec) -> Self {
        self.record = Some(spec);
        self
    }

    /// Sets the carrier-sense onset latency in slots (default 1 — the
    /// one-slot collision window the paper's analysis assumes).
    pub fn cs_latency_slots(mut self, slots: u32) -> Self {
        self.cs_latency_slots = slots;
        self
    }

    /// Adds an honest node at `pos`, returning its id.
    pub fn add_node(&mut self, pos: Position) -> NodeId {
        self.add_node_spec(pos, None, None)
    }

    /// Adds a node with a custom station policy (greedy receivers).
    pub fn add_node_with_policy(&mut self, pos: Position, policy: impl Into<PolicySlot>) -> NodeId {
        self.add_node_spec(pos, Some(policy.into()), None)
    }

    /// Adds a node with a custom observer (GRC detection/mitigation).
    pub fn add_node_with_observer(
        &mut self,
        pos: Position,
        observer: impl Into<ObserverSlot>,
    ) -> NodeId {
        self.add_node_spec(pos, None, Some(observer.into()))
    }

    fn add_node_spec(
        &mut self,
        pos: Position,
        policy: Option<PolicySlot>,
        observer: Option<ObserverSlot>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u16);
        self.nodes.push(NodeSpec {
            pos,
            policy,
            observer,
            no_retx_to: Vec::new(),
            cw_clamp_to: Vec::new(),
            auto_rate: None,
        });
        id
    }

    /// Disables MAC retransmission from `node` toward each destination in
    /// `to` (testbed spoofing emulation, Table VIII).
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added.
    pub fn set_no_retx(&mut self, node: NodeId, to: Vec<NodeId>) {
        self.nodes[node.0 as usize].no_retx_to = to;
    }

    /// Clamps `node`'s contention window to CWmin toward each destination
    /// in `to` (testbed fake-ACK emulation, Table IX).
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added.
    pub fn set_cw_clamp(&mut self, node: NodeId, to: Vec<NodeId>) {
        self.nodes[node.0 as usize].cw_clamp_to = to;
    }

    /// Overrides the error model on the directed link `tx → rx`.
    pub fn link_error(&mut self, tx: NodeId, rx: NodeId, em: ErrorModel) {
        self.link_errors.push((tx, rx, em));
    }

    /// Overrides the error model on `tx → rx` for data frames sent at
    /// exactly `rate_bps` (rate-adaptation experiments: links that are
    /// clean at low rates and lossy at high ones).
    pub fn link_rate_error(&mut self, tx: NodeId, rx: NodeId, rate_bps: u64, em: ErrorModel) {
        self.rate_link_errors.push((tx, rx, rate_bps, em));
    }

    /// Enables Automatic Rate Fallback on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added.
    pub fn set_auto_rate(&mut self, node: NodeId, cfg: mac::ArfConfig) {
        self.nodes[node.0 as usize].auto_rate = Some(cfg);
    }

    /// Adds a saturating CBR/UDP flow from `src` to `dst` with
    /// `payload`-byte datagrams offered at `rate_bps` (payload bits/s).
    pub fn udp_flow(&mut self, src: NodeId, dst: NodeId, payload: usize, rate_bps: u64) -> FlowId {
        self.push_flow(FlowSpec {
            src,
            dst,
            payload,
            kind: FlowSpecKind::Udp { rate_bps },
            wire: None,
        })
    }

    /// Adds a TCP flow from `src` to `dst` (sender co-located with the
    /// wireless transmitter, i.e. the AP).
    pub fn tcp_flow(&mut self, src: NodeId, dst: NodeId, cfg: TcpConfig) -> FlowId {
        self.push_flow(FlowSpec {
            src,
            dst,
            payload: cfg.mss,
            kind: FlowSpecKind::Tcp { cfg },
            wire: None,
        })
    }

    /// Adds a TCP flow whose sender sits behind a wired link of one-way
    /// latency `wire_delay` attached to `src` (the AP) — the paper's
    /// remote-sender topology (Fig. 15).
    pub fn tcp_flow_remote(
        &mut self,
        src: NodeId,
        dst: NodeId,
        cfg: TcpConfig,
        wire_delay: SimDuration,
    ) -> FlowId {
        self.push_flow(FlowSpec {
            src,
            dst,
            payload: cfg.mss,
            kind: FlowSpecKind::Tcp { cfg },
            wire: Some(wire_delay),
        })
    }

    /// Adds an application-layer probe (ping) flow used by the fake-ACK
    /// detector to measure true application loss.
    pub fn probe_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: usize,
        interval: SimDuration,
    ) -> FlowId {
        self.push_flow(FlowSpec {
            src,
            dst,
            payload,
            kind: FlowSpecKind::Probe { interval },
            wire: None,
        })
    }

    fn push_flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(spec);
        id
    }

    /// Assembles the network, instrumented per the thread's
    /// [`JobContext`]. Its recorder is the [`record`](Self::record) spec
    /// if one was given, else the job's recorder, else — when the job
    /// asks for conformance checking — a silent one. A conformance job
    /// arms exactly one checker on that recorder.
    ///
    /// # Panics
    ///
    /// Panics if a flow references a node that was not added.
    pub fn build(self) -> Network {
        let mut master = SimRng::new(self.seed);
        let node_count = self.nodes.len();
        let nodes: Vec<(Position, Dcf<Segment>)> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut cfg = if self.rts_enabled {
                    DcfConfig::new(self.phy)
                } else {
                    DcfConfig::without_rts(self.phy)
                };
                cfg.no_retx_to = spec.no_retx_to;
                cfg.cw_clamp_to = spec.cw_clamp_to;
                cfg.auto_rate = spec.auto_rate;
                let rng = master.fork(i as u64 + 1000);
                let dcf = match (spec.policy, spec.observer) {
                    (None, None) => Dcf::new(NodeId(i as u16), cfg, rng),
                    (p, o) => Dcf::with_hooks(
                        NodeId(i as u16),
                        cfg,
                        rng,
                        p.unwrap_or_default(),
                        o.unwrap_or_default(),
                    ),
                };
                (spec.pos, dcf)
            })
            .collect();
        let flows: Vec<FlowState> = self
            .flows
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                assert!(
                    (spec.src.0 as usize) < node_count && (spec.dst.0 as usize) < node_count,
                    "flow references unknown node"
                );
                let id = FlowId(i as u32);
                let kind = match spec.kind {
                    FlowSpecKind::Udp { rate_bps } => FlowKindState::Udp {
                        source: CbrSource::with_rate(id, spec.payload, rate_bps),
                        sink: UdpSink::new(),
                    },
                    FlowSpecKind::Tcp { cfg } => FlowKindState::Tcp {
                        sender: TcpSender::new(id, cfg),
                        receiver: TcpReceiver::new(id),
                    },
                    FlowSpecKind::Probe { interval } => FlowKindState::Probe {
                        interval,
                        payload: spec.payload,
                        next_seq: 0,
                        stats: ProbeStats::new(),
                    },
                };
                FlowState {
                    id,
                    src: spec.src,
                    dst: spec.dst,
                    payload: spec.payload,
                    kind,
                    wire: spec.wire,
                    cross: Default::default(),
                }
            })
            .collect();
        let link_error: HashMap<(u16, u16), ErrorModel> = self
            .link_errors
            .into_iter()
            .map(|(a, b, em)| ((a.0, b.0), em))
            .collect();
        let rate_link_error: HashMap<(u16, u16, u64), ErrorModel> = self
            .rate_link_errors
            .into_iter()
            .map(|(a, b, r, em)| ((a.0, b.0, r), em))
            .collect();
        let cs_latency = self.phy.slot * self.cs_latency_slots as u64;
        let mut net = Network::assemble(
            self.phy,
            self.channel,
            self.capture,
            cs_latency,
            nodes,
            flows,
            link_error,
            rate_link_error,
            self.default_error,
            master.fork(1),
        );
        // The one place a network's instrumentation is chosen: an
        // explicit spec beats the job's recorder, and a conformance job
        // without either gets a silent recorder for its checker to tap.
        // Recording never perturbs simulation outcomes.
        let job = JobContext::current();
        let recorder = match &self.record {
            Some(spec) => Some(spec.recorder()),
            None => job.recorder.or_else(|| {
                job.conform
                    .is_some()
                    .then(|| obs::ObsSpec::silent(obs::Filter::all()).recorder())
            }),
        };
        if let Some(rec) = recorder {
            net.set_recorder(rec);
        }
        if let Some(conform) = job.conform {
            net.arm_conform(conform, job.key);
        }
        net
    }
}

impl std::fmt::Debug for NetworkBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkBuilder")
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}
