//! Precomputed sampling tables for the event-dispatch hot path.
//!
//! The simulator's inner loop used to recompute three pure functions per
//! event: log-distance received power (`log10` + `sqrt` per node pair),
//! frame error rate (`ln`/`exp` per reception) and frame airtime (wide
//! integer division per transmission). All three depend only on values
//! fixed at network-assembly time — node positions, the configured error
//! models, the PHY's rates — so the network builds these tables once and
//! the hot path reduces to indexed loads plus the *same RNG draws in the
//! same order* as the direct computation (DESIGN.md §16).

use sim::{SimDuration, SimRng};

use crate::airtime;
use crate::channel::{ChannelModel, Reach};
use crate::error_model::ErrorModel;
use crate::params::PhyParams;
use crate::position::Position;

/// Dense per-link propagation table: reach classification and median
/// received power for every ordered `(src, dst)` node pair.
///
/// Positions are static after assembly, so both quantities are pure
/// functions of the pair. `power_dbm` stores exactly
/// [`ChannelModel::rx_power_dbm`] of the pair distance — the value the
/// capture comparison and the RSSI jitter center on — so lookups are
/// bit-identical to the direct computation.
#[derive(Debug, Clone)]
pub struct LinkTable {
    n: usize,
    reach: Vec<Reach>,
    power_dbm: Vec<f64>,
}

impl LinkTable {
    /// Builds the table for `positions` under `channel`.
    pub fn build(channel: &ChannelModel, positions: &[Position]) -> Self {
        let n = positions.len();
        let mut reach = Vec::with_capacity(n * n);
        let mut power_dbm = Vec::with_capacity(n * n);
        for a in positions {
            for b in positions {
                let d = a.distance_to(*b);
                reach.push(channel.reach(d));
                power_dbm.push(channel.rx_power_dbm(d));
            }
        }
        LinkTable {
            n,
            reach,
            power_dbm,
        }
    }

    /// Number of nodes the table covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// How `src`'s transmissions reach `dst`.
    #[inline]
    pub fn reach(&self, src: usize, dst: usize) -> Reach {
        self.reach[src * self.n + dst]
    }

    /// Median received power in dBm at `dst` for a transmission from
    /// `src`.
    #[inline]
    pub fn power_dbm(&self, src: usize, dst: usize) -> f64 {
        self.power_dbm[src * self.n + dst]
    }
}

/// Cap on memoized `(size, value)` pairs per model / per rate. Real
/// campaigns see a handful of distinct frame sizes (three control sizes
/// plus one data size per flow payload); anything past the cap falls
/// back to the direct computation instead of growing the scan.
const CACHE_CAP: usize = 64;

/// Interned error models with per-model FER memoization.
///
/// [`ErrorModel::fer`] costs an `ln` and an `exp` per call; frame sizes
/// repeat endlessly, so the table caches the *exact* `fer` output per
/// `(model, size)` and feeds it to the same single `rng.chance(p)` draw
/// the direct path makes — corruption verdicts are bit-identical.
#[derive(Debug, Clone, Default)]
pub struct FerTable {
    models: Vec<ErrorModel>,
    caches: Vec<Vec<(u32, f64)>>,
}

impl FerTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FerTable::default()
    }

    /// Interns `em`, returning its dense index; equal models share one
    /// entry (and one cache).
    pub fn intern(&mut self, em: ErrorModel) -> u32 {
        if let Some(i) = self.models.iter().position(|m| *m == em) {
            return i as u32;
        }
        self.models.push(em);
        self.caches.push(Vec::new());
        (self.models.len() - 1) as u32
    }

    /// The interned model at `idx`.
    pub fn model(&self, idx: u32) -> &ErrorModel {
        &self.models[idx as usize]
    }

    /// Memoized frame error rate; exact [`ErrorModel::fer`] output.
    #[inline]
    pub fn fer(&mut self, idx: u32, frame_bytes: usize) -> f64 {
        let cache = &mut self.caches[idx as usize];
        let key = frame_bytes as u32;
        if let Some(&(_, p)) = cache.iter().find(|&&(b, _)| b == key) {
            return p;
        }
        let p = self.models[idx as usize].fer(frame_bytes);
        if cache.len() < CACHE_CAP {
            cache.push((key, p));
        }
        p
    }

    /// Samples corruption of one frame: one `chance` draw at the
    /// memoized FER — the same draw [`ErrorModel::corrupts`] makes.
    #[inline]
    pub fn corrupts(&mut self, idx: u32, frame_bytes: usize, rng: &mut SimRng) -> bool {
        rng.chance(self.fer(idx, frame_bytes))
    }

    /// Prefills the cache for `idx` with a batch of expected frame
    /// sizes via [`ErrorModel::fer_batch`], so the first reception of
    /// each size already hits the cache.
    pub fn prefill(&mut self, idx: u32, sizes: &[usize]) {
        let mut fers = Vec::with_capacity(sizes.len());
        self.models[idx as usize].fer_batch(sizes, &mut fers);
        let cache = &mut self.caches[idx as usize];
        for (&b, &p) in sizes.iter().zip(&fers) {
            let key = b as u32;
            if cache.len() < CACHE_CAP && !cache.iter().any(|&(k, _)| k == key) {
                cache.push((key, p));
            }
        }
    }
}

/// Memoized frame airtimes per `(size, rate)`.
///
/// [`airtime::tx_duration_at`] does exact wide-integer division (DSSS)
/// or symbol rounding (OFDM) per call; the distinct `(size, rate)` set
/// in a run is tiny, so a linear-scan memo makes airtime a load.
#[derive(Debug, Clone)]
pub struct AirtimeTable {
    params: PhyParams,
    entries: Vec<(u32, u64, SimDuration)>,
}

impl AirtimeTable {
    /// Creates an empty table for `params`.
    pub fn new(params: PhyParams) -> Self {
        AirtimeTable {
            params,
            entries: Vec::new(),
        }
    }

    /// The PHY parameters the table computes against.
    pub fn params(&self) -> &PhyParams {
        &self.params
    }

    /// Memoized airtime of a `bytes`-long frame at `rate_bps`; exact
    /// [`airtime::tx_duration_at`] output.
    #[inline]
    pub fn at(&mut self, bytes: usize, rate_bps: u64) -> SimDuration {
        let key = bytes as u32;
        if let Some(&(_, _, d)) = self
            .entries
            .iter()
            .find(|&&(b, r, _)| b == key && r == rate_bps)
        {
            return d;
        }
        let d = airtime::tx_duration_at(&self.params, bytes, rate_bps);
        if self.entries.len() < CACHE_CAP {
            self.entries.push((key, rate_bps, d));
        }
        d
    }

    /// Memoized airtime at the PHY's basic (control-frame) rate.
    #[inline]
    pub fn basic(&mut self, bytes: usize) -> SimDuration {
        self.at(bytes, self.params.basic_rate_bps)
    }

    /// Memoized airtime at the PHY's default data rate.
    #[inline]
    pub fn data(&mut self, bytes: usize) -> SimDuration {
        self.at(bytes, self.params.data_rate_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::ErrorUnit;

    #[test]
    fn link_table_matches_direct_computation() {
        let ch = ChannelModel::with_ranges(55.0, 99.0);
        let pos = [
            Position::new(0.0, 0.0),
            Position::new(50.0, 0.0),
            Position::new(80.0, 30.0),
            Position::new(200.0, 0.0),
        ];
        let t = LinkTable::build(&ch, &pos);
        assert_eq!(t.nodes(), 4);
        for a in 0..pos.len() {
            for b in 0..pos.len() {
                let d = pos[a].distance_to(pos[b]);
                assert_eq!(t.reach(a, b), ch.reach(d), "reach {a}->{b}");
                assert_eq!(
                    t.power_dbm(a, b).to_bits(),
                    ch.rx_power_dbm(d).to_bits(),
                    "power {a}->{b} must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn fer_table_interns_and_matches_exactly() {
        let em_a = ErrorModel::new(ErrorUnit::Byte, 2e-4).unwrap();
        let em_b = ErrorModel::new(ErrorUnit::Byte, 8e-4).unwrap();
        let mut t = FerTable::new();
        let ia = t.intern(em_a);
        let ib = t.intern(em_b);
        assert_eq!(t.intern(em_a), ia, "equal models share an entry");
        assert_ne!(ia, ib);
        for bytes in [38, 44, 1052, 1102, 38] {
            assert_eq!(
                t.fer(ia, bytes).to_bits(),
                em_a.fer(bytes).to_bits(),
                "memoized FER must be bit-identical at {bytes}"
            );
        }
        // Verdicts consume the RNG stream identically to the direct path.
        let mut r1 = sim::SimRng::new(9);
        let mut r2 = sim::SimRng::new(9);
        for bytes in [38, 1102, 44, 1102, 38, 38] {
            assert_eq!(
                t.corrupts(ib, bytes, &mut r1),
                em_b.corrupts(bytes, &mut r2)
            );
        }
        assert_eq!(r1.next_u64(), r2.next_u64(), "stream positions agree");
    }

    #[test]
    fn fer_batch_and_prefill_match_sequential() {
        let em = ErrorModel::new(ErrorUnit::Bit, 1e-5).unwrap();
        let sizes = [38usize, 44, 1052, 38, 2304];
        let mut batch = Vec::new();
        em.fer_batch(&sizes, &mut batch);
        for (&b, &p) in sizes.iter().zip(&batch) {
            assert_eq!(p.to_bits(), em.fer(b).to_bits());
        }
        let mut t = FerTable::new();
        let i = t.intern(em);
        t.prefill(i, &sizes);
        for &b in &sizes {
            assert_eq!(t.fer(i, b).to_bits(), em.fer(b).to_bits());
        }
    }

    #[test]
    fn airtime_table_matches_direct_computation() {
        for params in [PhyParams::dot11b(), PhyParams::dot11a()] {
            let mut t = AirtimeTable::new(params);
            for bytes in [14usize, 20, 28, 1052, 14, 1052] {
                assert_eq!(t.basic(bytes), airtime::tx_duration_basic(&params, bytes));
                assert_eq!(t.data(bytes), airtime::tx_duration(&params, bytes));
                assert_eq!(
                    t.at(bytes, 5_500_000),
                    airtime::tx_duration_at(&params, bytes, 5_500_000)
                );
            }
        }
    }
}
