//! Passive round-trip-time estimator shared by every congestion
//! controller.
//!
//! [`RtoEstimator`](crate::rto::RtoEstimator) remains the sole authority
//! for the retransmission timeout; this estimator is a read-only
//! companion fed the *same* Karn-filtered samples, carrying the smoothed
//! RTT, its variance, the latest raw sample, and a windowed minimum the
//! model-based controllers (BBR) and slow-start heuristics (HyStart)
//! consume.

use sim::{SimDuration, SimTime};

/// Default expiry window for the minimum-RTT filter (BBR's 10 s).
pub const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Smoothed/minimum RTT tracker (RFC 6298 gains, windowed min).
///
/// The minimum filter keeps the lowest sample seen in the last
/// [`MIN_RTT_WINDOW`]; once the held minimum is older than the window,
/// the next sample replaces it unconditionally so a route change that
/// raises the floor is eventually believed.
///
/// # Examples
///
/// ```
/// use gr_transport::cc::RttEstimator;
/// use sim::{SimDuration, SimTime};
///
/// let mut r = RttEstimator::new();
/// r.sample(SimTime::from_millis(5), SimDuration::from_millis(10));
/// assert_eq!(r.min_rtt(), Some(SimDuration::from_millis(10)));
/// ```
#[derive(Debug, Clone)]
pub struct RttEstimator {
    latest: Option<SimDuration>,
    srtt: Option<f64>,
    rttvar: f64,
    min_rtt: Option<SimDuration>,
    min_rtt_at: SimTime,
    window: SimDuration,
}

impl RttEstimator {
    /// Creates an estimator with the default 10 s minimum window.
    pub fn new() -> Self {
        RttEstimator {
            latest: None,
            srtt: None,
            rttvar: 0.0,
            min_rtt: None,
            min_rtt_at: SimTime::ZERO,
            window: MIN_RTT_WINDOW,
        }
    }

    /// Incorporates a (Karn-filtered) RTT sample taken at `now`.
    pub fn sample(&mut self, now: SimTime, rtt: SimDuration) {
        self.latest = Some(rtt);
        let r = rtt.as_secs_f64();
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let expired = now.saturating_since(self.min_rtt_at) > self.window;
        match self.min_rtt {
            Some(min) if rtt >= min && !expired => {}
            _ => {
                self.min_rtt = Some(rtt);
                self.min_rtt_at = now;
            }
        }
    }

    /// The most recent raw sample.
    pub fn latest(&self) -> Option<SimDuration> {
        self.latest
    }

    /// Smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }

    /// RTT variance (RFC 6298 `RTTVAR`), in seconds.
    pub fn rttvar(&self) -> f64 {
        self.rttvar
    }

    /// Windowed minimum RTT.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator::new()
    }
}

impl snap::SnapValue for RttEstimator {
    fn save(&self, w: &mut snap::Enc) {
        self.latest.save(w);
        self.srtt.save(w);
        w.f64(self.rttvar);
        self.min_rtt.save(w);
        self.min_rtt_at.save(w);
        self.window.save(w);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(RttEstimator {
            latest: Option::<SimDuration>::load(r)?,
            srtt: Option::<f64>::load(r)?,
            rttvar: r.f64()?,
            min_rtt: Option::<SimDuration>::load(r)?,
            min_rtt_at: SimTime::load(r)?,
            window: SimDuration::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_rtt_tracks_the_lowest_sample() {
        let mut r = RttEstimator::new();
        r.sample(SimTime::from_millis(1), SimDuration::from_millis(20));
        r.sample(SimTime::from_millis(2), SimDuration::from_millis(10));
        r.sample(SimTime::from_millis(3), SimDuration::from_millis(30));
        assert_eq!(r.min_rtt(), Some(SimDuration::from_millis(10)));
    }

    #[test]
    fn min_rtt_window_expiry_accepts_a_higher_floor() {
        let mut r = RttEstimator::new();
        r.sample(SimTime::from_secs(1), SimDuration::from_millis(5));
        // Within the window a larger sample does not displace the min.
        r.sample(SimTime::from_secs(5), SimDuration::from_millis(50));
        assert_eq!(r.min_rtt(), Some(SimDuration::from_millis(5)));
        // Past the 10 s window the held min is stale: the next sample
        // replaces it even though it is larger.
        r.sample(SimTime::from_secs(12), SimDuration::from_millis(40));
        assert_eq!(r.min_rtt(), Some(SimDuration::from_millis(40)));
    }

    #[test]
    fn srtt_matches_rto_estimator_gains() {
        // Same α=1/8, β=1/4 recurrence as RtoEstimator.
        let mut r = RttEstimator::new();
        r.sample(SimTime::from_millis(1), SimDuration::from_millis(100));
        assert!((r.srtt().unwrap().as_secs_f64() - 0.1).abs() < 1e-9);
        assert!((r.rttvar() - 0.05).abs() < 1e-9);
        r.sample(SimTime::from_millis(2), SimDuration::from_millis(200));
        let expect = 0.875 * 0.1 + 0.125 * 0.2;
        assert!((r.srtt().unwrap().as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn snapshot_round_trips() {
        use snap::SnapValue as _;
        let mut r = RttEstimator::new();
        r.sample(SimTime::from_millis(7), SimDuration::from_millis(13));
        let mut w = snap::Enc::new();
        r.save(&mut w);
        let bytes = w.into_bytes();
        let b = RttEstimator::load(&mut snap::Dec::new(&bytes)).unwrap();
        assert_eq!(b.latest(), r.latest());
        assert_eq!(b.min_rtt(), r.min_rtt());
        assert_eq!(b.srtt(), r.srtt());
    }
}
