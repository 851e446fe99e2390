//! Run-level metrics: per-flow goodput and per-node MAC statistics.

use std::collections::BTreeMap;

use mac::{MacCounters, NodeId};
use sim::SimDuration;
use transport::FlowId;

/// Measurements of one flow over a run.
#[derive(Debug, Clone, Default)]
pub struct FlowMetrics {
    /// Distinct (non-duplicate) data packets received by the sink.
    pub distinct_packets: u64,
    /// Payload bytes of those packets.
    pub payload_bytes: u64,
    /// Duplicate packets seen by the sink.
    pub duplicates: u64,
    /// TCP only: time-weighted average congestion window (paper Table II).
    pub avg_cwnd: Option<f64>,
    /// TCP only: total retransmissions (fast + timeout).
    pub retransmissions: u64,
    /// TCP only: RTO events.
    pub timeouts: u64,
    /// Probe flows: application-layer loss rate measured via probing.
    pub probe_app_loss: Option<f64>,
    /// TCP only: retransmissions of segments whose original transmission
    /// was MAC-acknowledged — the cross-layer spoofed-ACK signal (§VII-B).
    pub retx_of_mac_acked: u64,
}

impl FlowMetrics {
    /// Goodput in bits per second of payload over `duration`.
    pub fn goodput_bps(&self, duration: SimDuration) -> f64 {
        let secs = duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.payload_bytes as f64 * 8.0 / secs
        }
    }

    /// Goodput in Mb/s (the unit the paper plots).
    pub fn goodput_mbps(&self, duration: SimDuration) -> f64 {
        self.goodput_bps(duration) / 1e6
    }
}

/// Per-node MAC statistics snapshot.
#[derive(Debug, Clone)]
pub struct NodeMetrics {
    /// The raw MAC counters.
    pub counters: MacCounters,
    /// Time-weighted average contention window over the run.
    pub avg_cw: Option<f64>,
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Run length.
    pub duration: SimDuration,
    /// Per-flow measurements, ordered by flow id.
    pub flows: BTreeMap<u32, FlowMetrics>,
    /// Per-node measurements, ordered by node id.
    pub nodes: BTreeMap<u16, NodeMetrics>,
    /// Station-level handlers the runtime dispatched: one per MAC
    /// timer, transport tick or timer, wire delivery, sender tx-end and
    /// injected busy edge, plus one per station busy onset, busy end and
    /// reception a transmission fans out to. The onset fan-out's own
    /// scheduler entry is not counted, so the total equals the number of
    /// per-station events the medium was once modelled with.
    pub events_processed: u64,
}

impl RunMetrics {
    /// Metrics of `flow`, if it existed.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowMetrics> {
        self.flows.get(&flow.0)
    }

    /// Metrics of `node`, if it existed.
    pub fn node(&self, node: NodeId) -> Option<&NodeMetrics> {
        self.nodes.get(&node.0)
    }

    /// Goodput of `flow` in Mb/s (0 if the flow is unknown).
    pub fn goodput_mbps(&self, flow: FlowId) -> f64 {
        self.flow(flow)
            .map_or(0.0, |f| f.goodput_mbps(self.duration))
    }
}

impl Default for NodeMetrics {
    fn default() -> Self {
        NodeMetrics {
            counters: MacCounters::new(0),
            avg_cw: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_math() {
        let m = FlowMetrics {
            distinct_packets: 1000,
            payload_bytes: 1_024_000,
            ..FlowMetrics::default()
        };
        let d = SimDuration::from_secs(8);
        assert!((m.goodput_bps(d) - 1_024_000.0).abs() < 1e-9);
        assert!((m.goodput_mbps(d) - 1.024).abs() < 1e-12);
        assert_eq!(m.goodput_bps(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn lookup_by_ids() {
        let mut r = RunMetrics {
            duration: SimDuration::from_secs(1),
            ..RunMetrics::default()
        };
        r.flows.insert(
            3,
            FlowMetrics {
                payload_bytes: 125_000,
                ..FlowMetrics::default()
            },
        );
        assert!(r.flow(FlowId(3)).is_some());
        assert!(r.flow(FlowId(4)).is_none());
        assert!((r.goodput_mbps(FlowId(3)) - 1.0).abs() < 1e-12);
        assert_eq!(r.goodput_mbps(FlowId(9)), 0.0);
    }
}
