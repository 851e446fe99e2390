//! Statistics primitives used by the MAC counters, metrics collection and
//! the experiment harness.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use gr_sim::Counter;
/// let mut c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl snap::SnapValue for Counter {
    fn save(&self, w: &mut snap::Enc) {
        w.u64(self.0);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(Counter(r.u64()?))
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Running arithmetic mean (Welford update, numerically stable).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Mean {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Mean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Mean::default()
    }

    /// Incorporates one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The mean, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance, or `None` before any observation.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

impl snap::SnapValue for Mean {
    fn save(&self, w: &mut snap::Enc) {
        w.u64(self.n);
        w.f64(self.mean);
        w.f64(self.m2);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(Mean {
            n: r.u64()?,
            mean: r.f64()?,
            m2: r.f64()?,
        })
    }
}

/// Time-weighted mean of a piecewise-constant signal — e.g. the average
/// contention window over a run, where the CW holds its value between
/// updates.
///
/// Feed it `(time, new_value)` transitions; it weights each value by how
/// long it was held.
#[derive(Debug, Clone, Copy)]
pub struct TimeWeightedMean {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    total: SimDuration,
    started: bool,
}

impl Default for TimeWeightedMean {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeightedMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TimeWeightedMean {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            weighted_sum: 0.0,
            total: SimDuration::ZERO,
            started: false,
        }
    }

    /// Records that the signal changed to `value` at time `t`. The previous
    /// value is credited for the interval since the previous transition.
    pub fn set(&mut self, t: SimTime, value: f64) {
        if self.started {
            let dt = t.saturating_since(self.last_time);
            self.weighted_sum += self.last_value * dt.as_secs_f64();
            self.total += dt;
        }
        self.started = true;
        self.last_time = t;
        self.last_value = value;
    }

    /// Closes the signal at time `t` and returns the time-weighted mean, or
    /// `None` if no interval was observed.
    pub fn finish(mut self, t: SimTime) -> Option<f64> {
        if self.started {
            let dt = t.saturating_since(self.last_time);
            self.weighted_sum += self.last_value * dt.as_secs_f64();
            self.total += dt;
        }
        let secs = self.total.as_secs_f64();
        (secs > 0.0).then(|| self.weighted_sum / secs)
    }
}

impl snap::SnapValue for TimeWeightedMean {
    fn save(&self, w: &mut snap::Enc) {
        self.last_time.save(w);
        w.f64(self.last_value);
        w.f64(self.weighted_sum);
        self.total.save(w);
        w.bool(self.started);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(TimeWeightedMean {
            last_time: snap::SnapValue::load(r)?,
            last_value: r.f64()?,
            weighted_sum: r.f64()?,
            total: snap::SnapValue::load(r)?,
            started: r.bool()?,
        })
    }
}

/// Fixed-width histogram over `[lo, hi)` with saturating under/overflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `nbins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `nbins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bin counts within the range (excludes under/overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Fraction of observations at or below `x` (empirical CDF, counting
    /// whole bins whose upper edge is ≤ x plus any underflow).
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut acc = self.underflow;
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &b) in self.bins.iter().enumerate() {
            let upper = self.lo + width * (i as f64 + 1.0);
            if upper <= x {
                acc += b;
            }
        }
        if x >= self.hi {
            acc += self.overflow;
        }
        acc as f64 / self.count as f64
    }
}

/// Log-bucketed (power-of-two) histogram for positive values spanning
/// many orders of magnitude — microsecond latencies, backoff slot
/// counts, inter-ACK gaps.
///
/// Bucket 0 holds `[0, 1)` (and any negative input); bucket `i ≥ 1`
/// holds `[2^(i-1), 2^i)`. Buckets are integer-indexed from the value's
/// integer part, so binning is exact and platform-independent.
///
/// # Examples
///
/// ```
/// use gr_sim::stats::LogHistogram;
/// let mut h = LogHistogram::new();
/// for x in [3.0, 5.0, 300.0] {
///     h.push(x);
/// }
/// let buckets: Vec<_> = h.buckets().collect();
/// assert_eq!(buckets, vec![(2.0, 4.0, 1), (4.0, 8.0, 1), (256.0, 512.0, 1)]);
/// assert_eq!(h.quantile(0.5), Some(4.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    bins: Vec<u64>,
    count: u64,
    sum: f64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn bucket_of(x: f64) -> usize {
        if x < 1.0 {
            0
        } else {
            // floor(log2(x)) + 1 via the integer part — exact for the
            // bucket edges, unlike a float log.
            let u = if x >= u64::MAX as f64 {
                u64::MAX
            } else {
                x as u64
            };
            (64 - u.leading_zeros()) as usize
        }
    }

    /// Lower and upper bound of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i == 0 {
            (0.0, 1.0)
        } else {
            ((1u128 << (i - 1)) as f64, (1u128 << i) as f64)
        }
    }

    /// Records one observation.
    pub fn push(&mut self, x: f64) {
        let b = Self::bucket_of(x);
        if self.bins.len() <= b {
            self.bins.resize(b + 1, 0);
        }
        self.bins[b] += 1;
        self.count += 1;
        self.sum += x;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Non-empty buckets as `(lo, hi, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bounds(i);
                (lo, hi, c)
            })
    }

    /// Nearest-rank `q`-quantile reported as the holding bucket's lower
    /// bound (a conservative estimate exact to one power of two), or
    /// `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Some(Self::bounds(i).0);
            }
        }
        Some(Self::bounds(self.bins.len().saturating_sub(1)).0)
    }
}

/// Returns the median of a slice (average of the two central elements for
/// even lengths), or `None` if empty. The input need not be sorted.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median over NaN"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) by nearest-rank, or `None` if empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("quantile over NaN"));
    let idx = ((q.clamp(0.0, 1.0)) * (v.len() - 1) as f64).round() as usize;
    Some(v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn mean_and_variance() {
        let mut m = Mean::new();
        assert_eq!(m.mean(), None);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((m.std_dev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_weights_by_duration() {
        let mut t = TimeWeightedMean::new();
        t.set(SimTime::from_secs(0), 10.0); // 10 for 1s
        t.set(SimTime::from_secs(1), 20.0); // 20 for 3s
        let mean = t.finish(SimTime::from_secs(4)).unwrap();
        assert!((mean - 17.5).abs() < 1e-9, "mean={mean}");
    }

    #[test]
    fn time_weighted_mean_empty_is_none() {
        let t = TimeWeightedMean::new();
        assert_eq!(t.finish(SimTime::from_secs(1)), None);
        // A single set with zero elapsed time also yields None.
        let mut t = TimeWeightedMean::new();
        t.set(SimTime::from_secs(1), 5.0);
        assert_eq!(t.finish(SimTime::from_secs(1)), None);
    }

    #[test]
    fn histogram_binning_and_cdf() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.9, -1.0, 10.0, 25.0] {
            h.push(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 2);
        assert_eq!(h.bins()[9], 1);
        // CDF at 2.0: underflow(1) + bin0(1) + bin1(2) = 4/7
        assert!((h.cdf_at(2.0) - 4.0 / 7.0).abs() < 1e-12);
        assert!((h.cdf_at(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_buckets_exactly_at_powers_of_two() {
        let mut h = LogHistogram::new();
        for x in [-2.0, 0.0, 0.9, 1.0, 1.9, 2.0, 1024.0, 1048576.0] {
            h.push(x);
        }
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(
            buckets,
            vec![
                (0.0, 1.0, 3),             // -2, 0, 0.9
                (1.0, 2.0, 2),             // 1.0, 1.9
                (2.0, 4.0, 1),             // 2.0
                (1024.0, 2048.0, 1),       // 2^10
                (1048576.0, 2097152.0, 1), // 2^20
            ]
        );
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn log_histogram_quantiles_are_bucket_floors() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..9 {
            h.push(3.0); // bucket [2, 4)
        }
        h.push(1000.0); // bucket [512, 1024)
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.95), Some(512.0));
        assert_eq!(h.quantile(1.0), Some(512.0));
        assert!((h.mean().unwrap() - 102.7).abs() < 1e-9);
    }

    #[test]
    fn log_histogram_quantile_rank_boundaries() {
        // Nearest-rank at exact bucket-population boundaries: with 4
        // samples split 2/2 across buckets, q = 0.5 lands on rank 2 —
        // the *last* sample of the lower bucket — and any q beyond it
        // moves to the upper bucket.
        let mut h = LogHistogram::new();
        h.push(2.0);
        h.push(3.0); // bucket [2, 4)
        h.push(100.0);
        h.push(101.0); // bucket [64, 128)
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.51), Some(64.0));
        assert_eq!(h.quantile(0.75), Some(64.0));
        // q = 0 still reports the first populated bucket (rank clamps
        // to 1), and values exactly on a power-of-two edge belong to the
        // upper bucket.
        assert_eq!(h.quantile(0.0), Some(2.0));
        let mut edge = LogHistogram::new();
        edge.push(4.0);
        assert_eq!(edge.buckets().collect::<Vec<_>>(), vec![(4.0, 8.0, 1)]);
        assert_eq!(edge.quantile(0.5), Some(4.0));
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0]), Some(2.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), Some(5.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), Some(3.0));
    }
}
