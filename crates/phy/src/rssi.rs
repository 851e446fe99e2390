//! RSSI observation model.
//!
//! The paper's spoofed-ACK detector keys on received signal strength: for a
//! stationary pair, per-packet RSSI varies little around the link median
//! (their 16-node office testbed showed ≈95 % of samples within 1 dB of the
//! median, Fig. 21). We model the median with log-distance path loss and
//! per-packet samples with zero-mean Gaussian shadowing jitter whose default
//! σ is calibrated so that P(|X| ≤ 1 dB) ≈ 0.95 (σ = 1/1.96 ≈ 0.51 dB).

use sim::{NormalDraw, SimRng};

/// Log-distance path-loss RSSI model with per-packet Gaussian jitter.
///
/// `median(d) = tx_power − pl0 − 10·n·log10(max(d, d0)/d0)`
///
/// # Examples
///
/// ```
/// use gr_phy::RssiModel;
/// use sim::SimRng;
///
/// let m = RssiModel::default();
/// let mut rng = SimRng::new(1);
/// let median = m.median_dbm(10.0);
/// let sample = m.sample_dbm(10.0, &mut rng);
/// assert!((sample - median).abs() < 5.0); // jitter is sub-dB scale
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RssiModel {
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance, in dB.
    pub pl0_db: f64,
    /// Reference distance in meters.
    pub d0_m: f64,
    /// Path-loss exponent (≈2 free space, 3–4 indoors).
    pub exponent: f64,
    /// Standard deviation of per-packet jitter, in dB.
    pub jitter_sigma_db: f64,
}

impl Default for RssiModel {
    /// Indoor-office defaults: 15 dBm transmit power, 40 dB loss at 1 m,
    /// exponent 3.0, jitter σ = 0.51 dB (95 % of samples within 1 dB).
    fn default() -> Self {
        RssiModel {
            tx_power_dbm: 15.0,
            pl0_db: 40.0,
            d0_m: 1.0,
            exponent: 3.0,
            jitter_sigma_db: 1.0 / 1.96,
        }
    }
}

impl RssiModel {
    /// Median RSSI in dBm at distance `d` meters. Distances below the
    /// reference distance clamp to it.
    pub fn median_dbm(&self, d: f64) -> f64 {
        let d = d.max(self.d0_m);
        self.tx_power_dbm - self.pl0_db - 10.0 * self.exponent * (d / self.d0_m).log10()
    }

    /// One per-packet RSSI observation at distance `d`: median plus
    /// Gaussian jitter.
    pub fn sample_dbm(&self, d: f64, rng: &mut SimRng) -> f64 {
        self.sample_from_median(self.median_dbm(d), rng).dbm()
    }

    /// One per-packet RSSI observation around a *precomputed* link
    /// median — the form the hot path uses with the per-link power
    /// table. The jitter's uniforms are drawn here; the transform runs
    /// only when [`Rssi::dbm`] reads the value, which then equals
    /// [`RssiModel::sample_dbm`] at the distance the median came from.
    pub fn sample_from_median(&self, median_dbm: f64, rng: &mut SimRng) -> Rssi {
        Rssi {
            median_dbm,
            jitter: Some((self.jitter_sigma_db, rng.normal_draw())),
        }
    }

    /// Ratio of two received powers in dB (`a − b`), the quantity compared
    /// against the capture threshold.
    pub fn power_ratio_db(a_dbm: f64, b_dbm: f64) -> f64 {
        a_dbm - b_dbm
    }
}

/// One per-packet RSSI observation, evaluated on read.
///
/// Every reception draws its jitter so the RNG stream stays put, but
/// only a reader such as the GRC spoof guard pays for the Box–Muller
/// transform.
///
/// # Examples
///
/// ```
/// use gr_phy::{Rssi, RssiModel};
/// use sim::SimRng;
///
/// let m = RssiModel::default();
/// let (mut a, mut b) = (SimRng::new(1), SimRng::new(1));
/// let lazy = m.sample_from_median(m.median_dbm(10.0), &mut a);
/// assert_eq!(lazy.dbm().to_bits(), m.sample_dbm(10.0, &mut b).to_bits());
/// assert_eq!(Rssi::fixed(-40.0).dbm(), -40.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rssi {
    median_dbm: f64,
    /// Jitter σ (dB) and its untransformed uniforms; `None` for a fixed
    /// value.
    jitter: Option<(f64, NormalDraw)>,
}

impl Rssi {
    /// An observation of exactly `dbm`, without jitter.
    pub fn fixed(dbm: f64) -> Self {
        Rssi {
            median_dbm: dbm,
            jitter: None,
        }
    }

    /// The observation in dBm: `median + σ·√(−2 ln u1)·cos(2π u2)`.
    pub fn dbm(&self) -> f64 {
        match self.jitter {
            Some((sigma, draw)) => self.median_dbm + draw.scaled(sigma),
            None => self.median_dbm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_monotone_decreasing() {
        let m = RssiModel::default();
        let mut last = f64::INFINITY;
        for d in [1.0, 2.0, 5.0, 10.0, 50.0, 100.0] {
            let r = m.median_dbm(d);
            assert!(r < last);
            last = r;
        }
    }

    #[test]
    fn below_reference_distance_clamps() {
        let m = RssiModel::default();
        assert_eq!(m.median_dbm(0.1), m.median_dbm(1.0));
    }

    #[test]
    fn log_distance_slope() {
        let m = RssiModel::default();
        // Every 10x distance costs 10·n dB.
        let drop = m.median_dbm(1.0) - m.median_dbm(10.0);
        assert!((drop - 30.0).abs() < 1e-9);
    }

    #[test]
    fn jitter_calibration_95pct_within_1db() {
        let m = RssiModel::default();
        let mut rng = SimRng::new(42);
        let median = m.median_dbm(20.0);
        let n = 50_000;
        let within = (0..n)
            .filter(|_| (m.sample_dbm(20.0, &mut rng) - median).abs() <= 1.0)
            .count();
        let frac = within as f64 / n as f64;
        assert!(
            (frac - 0.95).abs() < 0.01,
            "fraction within 1 dB = {frac}, expected ≈0.95"
        );
    }

    #[test]
    fn power_ratio() {
        assert_eq!(RssiModel::power_ratio_db(-40.0, -50.0), 10.0);
    }
}
