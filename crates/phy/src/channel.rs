//! Threshold propagation model (ns-2 style).
//!
//! A transmission is *decodable* within the communication range and
//! *sensed* (raises carrier sense, causes interference) within the larger
//! carrier-sense range. The paper's GRC evaluation (Fig. 23) uses 55 m
//! communication and 99 m interference ranges; most other experiments place
//! all nodes within communication range of each other.

use crate::position::Position;
use crate::rssi::RssiModel;

/// A logical 802.11 channel number.
///
/// The multi-cell world pins each cell to one channel; transmissions on
/// different channels never couple (adjacent-channel leakage is not
/// modeled — hotspot deployments assign the orthogonal channels 1/6/11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ChannelIndex(pub u8);

impl std::fmt::Display for ChannelIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// How one node's transmission reaches another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// Close enough to decode the frame (also implies carrier sense).
    Decode,
    /// Only close enough to sense energy / be interfered with.
    Sense,
    /// Out of range entirely.
    None,
}

/// Distance-threshold propagation plus a log-distance RSSI model.
///
/// # Examples
///
/// ```
/// use gr_phy::ChannelModel;
/// use gr_phy::channel::Reach;
///
/// let ch = ChannelModel::with_ranges(55.0, 99.0);
/// assert_eq!(ch.reach(10.0), Reach::Decode);
/// assert_eq!(ch.reach(70.0), Reach::Sense);
/// assert_eq!(ch.reach(150.0), Reach::None);
/// ```
#[derive(Debug, Clone)]
pub struct ChannelModel {
    comm_range_m: f64,
    cs_range_m: f64,
    rssi: RssiModel,
}

impl Default for ChannelModel {
    /// A "single collision domain" channel: every node decodes every other
    /// node, as in most of the paper's scenarios.
    fn default() -> Self {
        ChannelModel::with_ranges(1.0e6, 1.0e6)
    }
}

impl ChannelModel {
    /// Creates a channel with the given communication and carrier-sense
    /// ranges in meters.
    ///
    /// # Panics
    ///
    /// Panics if `cs_range_m < comm_range_m` or either is non-positive.
    pub fn with_ranges(comm_range_m: f64, cs_range_m: f64) -> Self {
        assert!(comm_range_m > 0.0, "communication range must be positive");
        assert!(
            cs_range_m >= comm_range_m,
            "carrier-sense range must be at least the communication range"
        );
        ChannelModel {
            comm_range_m,
            cs_range_m,
            rssi: RssiModel::default(),
        }
    }

    /// The GRC evaluation topology of the paper: 55 m communication range,
    /// 99 m interference range (Fig. 23).
    pub fn grc_evaluation() -> Self {
        ChannelModel::with_ranges(55.0, 99.0)
    }

    /// Communication (decode) range in meters.
    pub fn comm_range_m(&self) -> f64 {
        self.comm_range_m
    }

    /// Carrier-sense (interference) range in meters.
    pub fn cs_range_m(&self) -> f64 {
        self.cs_range_m
    }

    /// The RSSI model used for received-power queries.
    pub fn rssi(&self) -> &RssiModel {
        &self.rssi
    }

    /// Classifies how a transmission at distance `d` meters reaches a node.
    pub fn reach(&self, d: f64) -> Reach {
        if d <= self.comm_range_m {
            Reach::Decode
        } else if d <= self.cs_range_m {
            Reach::Sense
        } else {
            Reach::None
        }
    }

    /// Convenience: classify reach between two positions.
    pub fn reach_between(&self, a: Position, b: Position) -> Reach {
        self.reach(a.distance_to(b))
    }

    /// Median received power in dBm at distance `d` (no fading jitter).
    pub fn rx_power_dbm(&self, d: f64) -> f64 {
        self.rssi.median_dbm(d)
    }

    /// Whether a transmitter at `tx` raises carrier sense at `rx` — the
    /// cross-cell coupling predicate. Cells are independent BSSes, so a
    /// neighbor-cell frame is never decoded; within the carrier-sense
    /// range it contributes busy time (energy) only.
    pub fn couples(&self, tx: Position, rx: Position) -> bool {
        self.reach_between(tx, rx) != Reach::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_domain() {
        let ch = ChannelModel::default();
        assert_eq!(ch.reach(10_000.0), Reach::Decode);
    }

    #[test]
    fn boundary_distances_inclusive() {
        let ch = ChannelModel::with_ranges(55.0, 99.0);
        assert_eq!(ch.reach(55.0), Reach::Decode);
        assert_eq!(ch.reach(55.0001), Reach::Sense);
        assert_eq!(ch.reach(99.0), Reach::Sense);
        assert_eq!(ch.reach(99.0001), Reach::None);
    }

    #[test]
    fn reach_between_positions() {
        let ch = ChannelModel::grc_evaluation();
        let a = Position::new(0.0, 0.0);
        let b = Position::new(60.0, 0.0);
        assert_eq!(ch.reach_between(a, b), Reach::Sense);
    }

    #[test]
    fn power_decreases_with_distance() {
        let ch = ChannelModel::default();
        assert!(ch.rx_power_dbm(1.0) > ch.rx_power_dbm(10.0));
        assert!(ch.rx_power_dbm(10.0) > ch.rx_power_dbm(100.0));
    }

    #[test]
    #[should_panic(expected = "carrier-sense range")]
    fn cs_smaller_than_comm_panics() {
        let _ = ChannelModel::with_ranges(100.0, 50.0);
    }

    #[test]
    fn coupling_follows_cs_range() {
        let ch = ChannelModel::grc_evaluation();
        let a = Position::new(0.0, 0.0);
        assert!(ch.couples(a, Position::new(99.0, 0.0)));
        assert!(!ch.couples(a, Position::new(99.5, 0.0)));
    }
}
