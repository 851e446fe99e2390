//! The per-run flight recorder.
//!
//! One [`Recorder`] serves exactly one simulation run; the layers of
//! that run share it through a [`RecorderHandle`]. It holds three
//! stores, all bounded or run-lifetime sized:
//!
//! * a ring buffer of [`ObsEvent`]s that drops the **oldest** events
//!   when full (the tail of a run is what debugging usually needs) and
//!   counts the drops;
//! * log-bucketed histograms keyed by metric name (latency, backoff,
//!   inter-ACK gaps);
//! * gauge time series keyed by `(gauge, id)` fed by the runtime's
//!   virtual-time probe loop (queue depth, NAV remaining, cwnd).
//!
//! The recorder itself is passive: what and when to sample is decided
//! by the instrumentation sites and the runtime's probe loop.

use std::collections::{BTreeMap, VecDeque};

use sim::stats::LogHistogram;
use sim::{SimDuration, SimTime};

use crate::event::{EventKind, Layer, ObsEvent};
use crate::export::ObsReport;
use crate::shared::Shared;

/// Shared handle to a run's [`Recorder`].
pub type RecorderHandle = Shared<Recorder>;

/// Which events a recorder keeps: a layer mask and an optional node
/// allow-list (`None` = every node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    layer_mask: u8,
    nodes: Option<Vec<u16>>,
}

impl Default for Filter {
    fn default() -> Self {
        Filter::all()
    }
}

impl Filter {
    /// Keeps everything.
    pub fn all() -> Self {
        Filter {
            layer_mask: 0xFF,
            nodes: None,
        }
    }

    /// Keeps only the given layers (every node).
    pub fn layers(layers: &[Layer]) -> Self {
        Filter {
            layer_mask: layers.iter().fold(0, |m, l| m | l.mask()),
            nodes: None,
        }
    }

    /// Restricts the filter to the given nodes (empty = no restriction).
    pub fn with_nodes(mut self, mut nodes: Vec<u16>) -> Self {
        if nodes.is_empty() {
            self.nodes = None;
        } else {
            nodes.sort_unstable();
            nodes.dedup();
            self.nodes = Some(nodes);
        }
        self
    }

    /// Whether an event from `layer` about `node` passes.
    pub fn allows(&self, layer: Layer, node: u16) -> bool {
        self.layer_mask & layer.mask() != 0 && self.allows_node(node)
    }

    /// Whether gauge samples about `node` pass (layer-independent).
    pub fn allows_node(&self, node: u16) -> bool {
        match &self.nodes {
            None => true,
            Some(nodes) => nodes.binary_search(&node).is_ok(),
        }
    }

    /// Parses a `--record-filter` spec: comma-separated layer names
    /// (`phy`, `mac`, `transport`, `net`) and/or node ids. Layers listed
    /// restrict layers, numbers listed restrict nodes; an empty spec
    /// keeps everything.
    ///
    /// # Errors
    ///
    /// Returns a description of the first token that is neither a layer
    /// name nor a node id.
    pub fn parse(spec: &str) -> Result<Filter, String> {
        let mut layers = Vec::new();
        let mut nodes = Vec::new();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(layer) = Layer::parse(tok) {
                layers.push(layer);
            } else if let Ok(node) = tok.parse::<u16>() {
                nodes.push(node);
            } else {
                return Err(format!(
                    "bad filter token `{tok}` (expected a layer name \
                     phy|mac|transport|net or a node id)"
                ));
            }
        }
        let mut f = if layers.is_empty() {
            Filter::all()
        } else {
            Filter::layers(&layers)
        };
        f = f.with_nodes(nodes);
        Ok(f)
    }
}

/// Recording configuration: what a fresh [`Recorder`] keeps and how
/// often the runtime samples gauges.
#[derive(Debug, Clone)]
pub struct ObsSpec {
    /// Ring-buffer capacity in events. When full, the oldest events are
    /// dropped (and counted).
    pub capacity: usize,
    /// Virtual-time gauge sampling period; `None` disables probes.
    pub probe_interval: Option<SimDuration>,
    /// Event filter.
    pub filter: Filter,
}

impl Default for ObsSpec {
    /// 262 144 events, 100 ms probes, no filtering.
    fn default() -> Self {
        ObsSpec {
            capacity: 1 << 18,
            probe_interval: Some(SimDuration::from_millis(100)),
            filter: Filter::all(),
        }
    }
}

impl ObsSpec {
    /// Creates a fresh recorder handle configured by this spec.
    pub fn recorder(&self) -> RecorderHandle {
        Shared::new(Recorder::new(self.clone()))
    }
}

/// A live subscriber to a recorder's event stream.
///
/// A tap sees **every** emitted event, before the filter and before
/// ring eviction — a conformance checker or a DOMINO transmission log
/// attached here misses nothing even when the ring is tiny or a
/// `--record-filter` is active.
pub trait EventTap {
    /// Called for each event at its emission site.
    fn on_event(&mut self, ev: &ObsEvent);
}

/// A run's telemetry sink. See the module docs.
pub struct Recorder {
    spec: ObsSpec,
    events: VecDeque<ObsEvent>,
    dropped: u64,
    hists: BTreeMap<&'static str, LogHistogram>,
    series: BTreeMap<(&'static str, u16), Vec<(SimTime, f64)>>,
    taps: Vec<Box<dyn EventTap>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("spec", &self.spec)
            .field("events", &self.events.len())
            .field("dropped", &self.dropped)
            .field("taps", &self.taps.len())
            .finish()
    }
}

impl Recorder {
    /// Creates an empty recorder. Capacity is a cap, not a
    /// preallocation: short runs stay small.
    pub fn new(spec: ObsSpec) -> Self {
        Recorder {
            spec,
            events: VecDeque::new(),
            dropped: 0,
            hists: BTreeMap::new(),
            series: BTreeMap::new(),
            taps: Vec::new(),
        }
    }

    /// Attaches a live [`EventTap`] after the ones already attached.
    pub fn add_tap(&mut self, tap: Box<dyn EventTap>) {
        self.taps.push(tap);
    }

    /// Detaches every tap.
    pub fn clear_taps(&mut self) {
        self.taps.clear();
    }

    /// Records one event if the filter passes, evicting the oldest event
    /// when the ring is full. Attached [`EventTap`]s see the event first,
    /// in attachment order, regardless of filter or capacity.
    pub fn emit(&mut self, at: SimTime, node: u16, kind: &'static EventKind, vals: &[f64]) {
        if !self.taps.is_empty() {
            let ev = ObsEvent::new(at, node, kind, vals);
            for tap in &mut self.taps {
                tap.on_event(&ev);
            }
        }
        if !self.spec.filter.allows(kind.layer, node) {
            return;
        }
        if self.spec.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.spec.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ObsEvent::new(at, node, kind, vals));
    }

    /// Adds one observation to the named log-bucketed histogram.
    pub fn record_hist(&mut self, name: &'static str, value: f64) {
        self.hists.entry(name).or_default().push(value);
    }

    /// Appends one gauge sample to the `(gauge, id)` time series, unless
    /// the node filter excludes `id`.
    pub fn sample(&mut self, gauge: &'static str, id: u16, at: SimTime, value: f64) {
        if !self.spec.filter.allows_node(id) {
            return;
        }
        self.series
            .entry((gauge, id))
            .or_default()
            .push((at, value));
    }

    /// The configured gauge sampling period, if probing is on.
    pub fn probe_interval(&self) -> Option<SimDuration> {
        self.spec.probe_interval
    }

    /// The event filter.
    pub fn filter(&self) -> &Filter {
        &self.spec.filter
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (or refused at zero capacity) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter()
    }

    /// Detaches everything recorded so far into a plain-data
    /// [`ObsReport`], leaving the recorder empty (counters reset).
    pub fn drain_report(&mut self) -> ObsReport {
        ObsReport {
            events: std::mem::take(&mut self.events).into_iter().collect(),
            dropped: std::mem::take(&mut self.dropped),
            capacity: self.spec.capacity,
            hists: std::mem::take(&mut self.hists),
            series: std::mem::take(&mut self.series),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static K_MAC: EventKind = EventKind {
        name: "k_mac",
        layer: Layer::Mac,
        fields: &["v"],
    };
    static K_PHY: EventKind = EventKind {
        name: "k_phy",
        layer: Layer::Phy,
        fields: &[],
    };

    fn spec(capacity: usize) -> ObsSpec {
        ObsSpec {
            capacity,
            ..ObsSpec::default()
        }
    }

    #[test]
    fn full_ring_drops_oldest_with_accurate_counter() {
        let mut r = Recorder::new(spec(3));
        for i in 0..7u64 {
            r.emit(SimTime::from_micros(i), 0, &K_MAC, &[i as f64]);
        }
        // Capacity 3, 7 emitted: the 4 oldest are gone, newest 3 remain.
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        let kept: Vec<u64> = r.events().map(|e| e.at.as_micros()).collect();
        assert_eq!(kept, vec![4, 5, 6]);
        let report = r.drain_report();
        assert_eq!(report.dropped, 4);
        assert_eq!(report.events.len(), 3);
        // Draining resets the recorder.
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn filter_gates_layers_and_nodes() {
        let mut s = spec(16);
        s.filter = Filter::layers(&[Layer::Mac]).with_nodes(vec![2]);
        let mut r = Recorder::new(s);
        r.emit(SimTime::ZERO, 2, &K_MAC, &[1.0]); // kept
        r.emit(SimTime::ZERO, 1, &K_MAC, &[1.0]); // wrong node
        r.emit(SimTime::ZERO, 2, &K_PHY, &[]); // wrong layer
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 0, "filtered events are not drops");
        r.sample("g", 2, SimTime::ZERO, 1.0);
        r.sample("g", 3, SimTime::ZERO, 1.0);
        let report = r.drain_report();
        assert_eq!(report.series.len(), 1);
    }

    #[test]
    fn filter_parse_accepts_layers_and_nodes() {
        let f = Filter::parse("mac, phy, 7").unwrap();
        assert!(f.allows(Layer::Mac, 7));
        assert!(!f.allows(Layer::Transport, 7));
        assert!(!f.allows(Layer::Mac, 6));
        assert_eq!(Filter::parse("").unwrap(), Filter::all());
        assert!(Filter::parse("warp").is_err());
    }

    #[test]
    fn tap_sees_filtered_and_evicted_events() {
        struct Counting(std::rc::Rc<std::cell::Cell<usize>>);
        impl EventTap for Counting {
            fn on_event(&mut self, _ev: &ObsEvent) {
                self.0.set(self.0.get() + 1);
            }
        }
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut s = spec(1);
        s.filter = Filter::layers(&[Layer::Phy]);
        let mut r = Recorder::new(s);
        r.add_tap(Box::new(Counting(seen.clone())));
        r.add_tap(Box::new(Counting(seen.clone())));
        for i in 0..5u64 {
            r.emit(SimTime::from_micros(i), 0, &K_MAC, &[0.0]); // filtered out
            r.emit(SimTime::from_micros(i), 0, &K_PHY, &[]); // kept, ring of 1
        }
        assert_eq!(seen.get(), 20, "each tap must see every emission");
        assert_eq!(r.len(), 1);
        r.clear_taps();
        r.emit(SimTime::ZERO, 0, &K_PHY, &[]);
        assert_eq!(seen.get(), 20, "detached taps see nothing");
    }
}
