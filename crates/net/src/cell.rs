//! A cell: one [`Network`] pinned to a channel and a grid position.
//!
//! The multi-cell world advances every cell in lockstep virtual-time
//! epochs. A `Cell` bundles the network with its persistent
//! [`HookCursor`] and exposes exactly the epoch operations the world
//! driver needs:
//!
//! * [`step`](Cell::step) — advance to a common horizon and hand back the
//!   transmissions of the elapsed epoch for the boundary exchange;
//! * [`inject`](Cell::inject) — arm the batch of neighbor-cell busy
//!   intervals computed by the exchange;
//! * [`finish`](Cell::finish) — collect metrics and deposit reports.
//!
//! A cell never talks to another cell directly; the world coordinator
//! mediates every exchange, in a fixed cell-id order, which is what makes
//! world runs independent of how cells are spread over worker threads.

use mac::NodeId;
use phy::{ChannelIndex, Position};
use sim::{SimDuration, SimTime};

use crate::metrics::RunMetrics;
use crate::network::{HookCursor, Network, RunArtifacts, RunHooks};

/// One transmission interval `(source, start, end)` in a cell's local
/// node-id space and the shared virtual timebase.
pub type TxInterval = (NodeId, SimTime, SimTime);

/// A [`Network`] pinned to a channel and a grid position, advanced in
/// epochs. See the module docs.
pub struct Cell {
    id: usize,
    channel: ChannelIndex,
    origin: Position,
    net: Network,
    cursor: HookCursor,
}

impl Cell {
    /// Wraps a freshly built network: enables the epoch transmission
    /// log, starts its flows and initializes the hook grids. The network
    /// must not have been run yet.
    pub fn new(
        id: usize,
        channel: ChannelIndex,
        origin: Position,
        mut net: Network,
        hooks: RunHooks,
    ) -> Self {
        net.enable_tx_log();
        net.start_flows();
        let cursor = net.begin_hooked(hooks, None);
        Cell {
            id,
            channel,
            origin,
            net,
            cursor,
        }
    }

    /// The cell's id: its row-major index on the world grid. Exchange
    /// results are merged in ascending id order.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The 802.11 channel this cell operates on. Only cells sharing a
    /// channel couple.
    pub fn channel(&self) -> ChannelIndex {
        self.channel
    }

    /// The cell's origin on the world plane; local node positions are
    /// offsets from it.
    pub fn origin(&self) -> Position {
        self.origin
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the wrapped network (e.g. detector hookup).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Every node's position in *world* coordinates, indexed by local
    /// node id. The coordinator reads these once to build the static
    /// cross-cell coupling maps.
    pub fn world_positions(&self) -> Vec<Position> {
        self.net
            .positions()
            .into_iter()
            .map(|p| p.offset_by(self.origin))
            .collect()
    }

    /// Advances the cell to `horizon` (dispatching every event at or
    /// before it) and returns the transmissions started since the last
    /// step — the raw material of the boundary exchange.
    pub fn step(&mut self, horizon: SimTime) -> Vec<TxInterval> {
        self.net.advance(&mut self.cursor, horizon);
        self.net.drain_tx_log()
    }

    /// Arms the epoch's neighbor-cell interference, one `(node, start,
    /// end)` busy interval per entry; see [`Network::inject_busy`] for
    /// the boundary nudge and the per-station fusion.
    pub fn inject(&mut self, batch: &[(NodeId, SimTime, SimTime)]) {
        self.net.inject_busy(batch);
    }

    /// Ends the run: collects metrics over `duration` of virtual time
    /// and deposits the conformance report if checking was armed.
    pub fn finish(self, duration: SimDuration) -> (RunMetrics, RunArtifacts) {
        let Cell {
            mut net, cursor, ..
        } = self;
        net.finish_hooked(cursor, duration)
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell")
            .field("id", &self.id)
            .field("channel", &self.channel)
            .field("origin", &self.origin)
            .field("net", &self.net)
            .finish()
    }
}
