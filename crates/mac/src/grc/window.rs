//! Per-window decision-statistic tracking for detection-science sweeps.
//!
//! The GRC guards compare a per-observation statistic (NAV margin in µs,
//! ACK RSSI deviation in dB) against a fixed threshold. ROC analysis
//! needs the *raw* statistic stream, bucketed into fixed virtual-time
//! windows, so thresholds can be swept offline over one recorded run
//! instead of re-simulating per grid point. [`WindowTrack`] collects the
//! per-window peak, sum, and sample count; the detsci layer turns those
//! into window-level detector decisions, adaptive-threshold inputs
//! (samples/window ≈ observed rate), and CUSUM/SPRT statistic series.
//!
//! Tracking is off by default (`Option<WindowTrack>` left `None`), so the
//! guards' hot path is unchanged for every existing experiment.

use sim::{SimDuration, SimTime};

/// Aggregate of one fixed-width virtual-time window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStat {
    /// Window index: `floor(observation time / width)`.
    pub idx: u64,
    /// Largest statistic observed in the window.
    pub peak: f64,
    /// Sum of statistics (for per-window means).
    pub sum: f64,
    /// Number of observations.
    pub samples: u64,
}

impl WindowStat {
    /// Mean statistic over the window.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum / self.samples as f64
        }
    }
}

impl snap::SnapValue for WindowStat {
    fn save(&self, w: &mut snap::Enc) {
        w.u64(self.idx);
        w.f64(self.peak);
        w.f64(self.sum);
        w.u64(self.samples);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(WindowStat {
            idx: r.u64()?,
            peak: r.f64()?,
            sum: r.f64()?,
            samples: r.u64()?,
        })
    }
}

/// Fixed-width window aggregator over a statistic stream.
///
/// Observations arrive in nondecreasing virtual time (the MAC observer
/// hook runs inside the event loop), so a window closes exactly when the
/// first observation of a later window arrives. Windows with no
/// observations are simply absent from [`stats`](WindowTrack::stats);
/// consumers that need a dense series fill the gaps (an empty window is a
/// legitimate "no traffic" data point for rate estimation).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowTrack {
    width_us: u64,
    current: Option<WindowStat>,
    closed: Vec<WindowStat>,
}

impl WindowTrack {
    /// Creates a tracker with the given window width.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length width.
    pub fn new(width: SimDuration) -> Self {
        let width_us = width.as_micros();
        assert!(width_us > 0, "window width must be positive");
        WindowTrack {
            width_us,
            current: None,
            closed: Vec::new(),
        }
    }

    /// The configured window width.
    pub fn width(&self) -> SimDuration {
        SimDuration::from_micros(self.width_us)
    }

    /// Records one observation.
    pub fn push(&mut self, now: SimTime, value: f64) {
        let idx = now.as_micros() / self.width_us;
        match &mut self.current {
            Some(cur) if cur.idx == idx => {
                if value > cur.peak {
                    cur.peak = value;
                }
                cur.sum += value;
                cur.samples += 1;
            }
            cur => {
                if let Some(done) = cur.take() {
                    self.closed.push(done);
                }
                *cur = Some(WindowStat {
                    idx,
                    peak: value,
                    sum: value,
                    samples: 1,
                });
            }
        }
    }

    /// All windows observed so far, in time order, including the one
    /// still open.
    pub fn stats(&self) -> Vec<WindowStat> {
        let mut out = self.closed.clone();
        out.extend(self.current.clone());
        out
    }

    /// Total observations across all windows.
    pub fn total_samples(&self) -> u64 {
        self.closed
            .iter()
            .map(|w| w.samples)
            .chain(self.current.iter().map(|w| w.samples))
            .sum()
    }
}

impl snap::SnapValue for WindowTrack {
    fn save(&self, w: &mut snap::Enc) {
        w.u64(self.width_us);
        self.current.save(w);
        w.usize(self.closed.len());
        for stat in &self.closed {
            stat.save(w);
        }
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        let width_us = r.u64()?;
        if width_us == 0 {
            return Err(snap::SnapError::Corrupt(
                "window track width must be positive".into(),
            ));
        }
        let current = Option::load(r)?;
        let n = r.count("window track count")?;
        let mut closed = Vec::with_capacity(n);
        for _ in 0..n {
            closed.push(WindowStat::load(r)?);
        }
        Ok(WindowTrack {
            width_us,
            current,
            closed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap::SnapValue as _;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn aggregates_within_a_window_and_rolls_over() {
        let mut t = WindowTrack::new(SimDuration::from_millis(1));
        t.push(at(10), 2.0);
        t.push(at(500), 5.0);
        t.push(at(999), 1.0);
        // Next window; the first one closes.
        t.push(at(1_000), 3.0);
        let stats = t.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].idx, 0);
        assert_eq!(stats[0].peak, 5.0);
        assert_eq!(stats[0].sum, 8.0);
        assert_eq!(stats[0].samples, 3);
        assert_eq!(stats[1].idx, 1);
        assert_eq!(stats[1].samples, 1);
        assert_eq!(t.total_samples(), 4);
    }

    #[test]
    fn sparse_windows_skip_indices() {
        let mut t = WindowTrack::new(SimDuration::from_millis(1));
        t.push(at(0), 1.0);
        t.push(at(5_500), 2.0);
        let stats = t.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].idx, 0);
        assert_eq!(stats[1].idx, 5);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut t = WindowTrack::new(SimDuration::from_millis(2));
        for i in 0..10 {
            t.push(at(i * 700), i as f64 * 0.5);
        }
        let mut w = snap::Enc::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let restored = WindowTrack::load(&mut snap::Dec::new(&bytes)).unwrap();
        assert_eq!(restored, t);
    }

    #[test]
    fn zero_width_rejected_on_load() {
        let mut w = snap::Enc::new();
        w.u64(0);
        let bytes = w.into_bytes();
        assert!(WindowTrack::load(&mut snap::Dec::new(&bytes)).is_err());
    }
}
