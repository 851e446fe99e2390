//! Deterministic random-number generation.
//!
//! All randomness in a simulation run derives from one user seed. Components
//! obtain independent substreams with [`SimRng::fork`], so adding a new
//! consumer of randomness in one module does not perturb the sequence seen
//! by another (a classic source of accidental non-reproducibility).
//!
//! Internally this is `xoshiro256**` seeded via SplitMix64 — implemented
//! here (≈30 lines) rather than depending on a specific external algorithm
//! so that the exact stream is pinned by this crate forever.

/// Deterministic RNG with convenience samplers used across the simulator.
///
/// # Examples
///
/// ```
/// use gr_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut sub = a.fork(7); // independent substream
/// let _slot = sub.uniform_u32_inclusive(31); // backoff in [0, 31]
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identifies one simulation run within a campaign: an experiment label, a
/// sweep-point index, and a replication seed.
///
/// [`RunKey::stream_seed`] maps the key to the 64-bit seed the run's
/// [`SimRng`] is built from. The mapping is a fixed function of the key
/// alone — no global counters, thread ids or iteration order — so a run
/// produces bit-identical results whether it executes alone, first, last,
/// or concurrently with a thousand siblings. This is what lets the campaign
/// runner shard sweeps across threads without perturbing any result.
///
/// The hash is FNV-1a over the label bytes and the two integers, finished
/// with a SplitMix64 mix step. Both are pinned here forever: changing
/// either would silently reseed every experiment.
///
/// Keys order by label, then point, then seed — the order campaign
/// sinks export their per-run reports in.
///
/// # Examples
///
/// ```
/// use gr_sim::{RunKey, SimRng};
///
/// let key = RunKey::new("fig5", 3, 1);
/// let again = RunKey::new("fig5", 3, 1);
/// assert_eq!(key.stream_seed(), again.stream_seed());
/// assert_ne!(key.stream_seed(), RunKey::new("fig5", 3, 2).stream_seed());
///
/// let mut rng = SimRng::new(key.stream_seed());
/// let _draw = rng.uniform_f64();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunKey {
    /// Experiment label, e.g. `"fig5"` or `"abl1/fairness"`. Distinct
    /// sweeps within one experiment must use distinct labels.
    pub experiment: String,
    /// Index of the sweep point within the experiment's parameter sweep.
    pub point: u64,
    /// Replication seed (typically `0..Quality::seeds`).
    pub seed: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl RunKey {
    /// Creates a key for `experiment`'s sweep point `point`, replication
    /// `seed`.
    pub fn new(experiment: impl Into<String>, point: u64, seed: u64) -> Self {
        RunKey {
            experiment: experiment.into(),
            point,
            seed,
        }
    }

    /// The 64-bit seed for this run's root [`SimRng`], a stable pure
    /// function of the key.
    pub fn stream_seed(&self) -> u64 {
        let mut h = fnv1a_bytes(FNV_OFFSET, self.experiment.as_bytes());
        // A separator byte keeps ("ab", point) distinct from ("a", ...)
        // prefixes before the integers are folded in.
        h = fnv1a_bytes(h, &[0xFF]);
        h = fnv1a_bytes(h, &self.point.to_le_bytes());
        h = fnv1a_bytes(h, &self.seed.to_le_bytes());
        // FNV alone diffuses the low bits poorly; a SplitMix64 finalizer
        // spreads single-bit key differences across the whole word.
        splitmix64(&mut h)
    }

    /// The root [`SimRng`] for this run.
    pub fn rng(&self) -> SimRng {
        SimRng::new(self.stream_seed())
    }
}

impl snap::SnapValue for RunKey {
    fn save(&self, w: &mut snap::Enc) {
        w.str(&self.experiment);
        w.u64(self.point);
        w.u64(self.seed);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(RunKey {
            experiment: r.str()?,
            point: r.u64()?,
            seed: r.u64()?,
        })
    }
}

/// The RNG's whole state is its four `xoshiro256**` words; restoring them
/// resumes the stream at exactly the interrupted draw.
impl snap::SnapState for SimRng {
    fn snap_save(&self, w: &mut snap::Enc) {
        for &s in &self.state {
            w.u64(s);
        }
    }
    fn snap_restore(&mut self, r: &mut snap::Dec) -> Result<(), snap::SnapError> {
        for s in &mut self.state {
            *s = r.u64()?;
        }
        Ok(())
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state }
    }

    /// Derives an independent substream labelled by `stream`.
    ///
    /// Forking with distinct labels from the same parent yields streams that
    /// do not overlap in practice (they are seeded from a hash of the parent
    /// state and the label).
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix a fresh draw with the label so sibling forks differ even for
        // label collisions at different times.
        let base = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(base)
    }

    /// Next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound]` (inclusive). Used for 802.11 backoff
    /// slot selection over `[0, CW]`.
    pub fn uniform_u32_inclusive(&mut self, bound: u32) -> u32 {
        if bound == u32::MAX {
            return self.next_u64() as u32;
        }
        // Lemire's unbiased multiply-shift over n = bound + 1 values.
        let n = bound as u64 + 1;
        let threshold = (1u64 << 32) % n;
        loop {
            let x = self.next_u64() >> 32; // 32 fresh random bits
            let m = x * n;
            if (m & 0xFFFF_FFFF) >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform integer in `[0, bound)` (exclusive). `bound` must be > 0.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn uniform_usize(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "uniform_usize bound must be positive");
        (self.uniform_f64() * bound as f64) as usize % bound
    }

    /// Bernoulli trial: returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform_f64() < p
        }
    }

    /// Sample from a zero-mean normal distribution with standard deviation
    /// `sigma` (Box–Muller). Used for RSSI shadowing jitter.
    pub fn normal(&mut self, sigma: f64) -> f64 {
        self.normal_draw().scaled(sigma)
    }

    /// Takes the two uniforms of one [`normal`](Self::normal) draw from
    /// the stream without transforming them, so a caller that may never
    /// read the sample pays only for the draws.
    pub fn normal_draw(&mut self) -> NormalDraw {
        let u1 = loop {
            let u = self.uniform_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform_f64();
        NormalDraw { u1, u2 }
    }

    /// Sample an exponential random variable with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.uniform_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }
}

/// The two uniforms of one Box–Muller draw, taken by
/// [`SimRng::normal_draw`] but not yet transformed.
///
/// # Examples
///
/// ```
/// use gr_sim::SimRng;
///
/// let (mut a, mut b) = (SimRng::new(3), SimRng::new(3));
/// let draw = a.normal_draw();
/// assert_eq!(draw.scaled(2.0).to_bits(), b.normal(2.0).to_bits());
/// assert_eq!(a, b); // same stream position either way
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalDraw {
    /// First uniform, in `(0, 1)`.
    u1: f64,
    /// Second uniform, in `[0, 1)`.
    u2: f64,
}

impl NormalDraw {
    /// The zero-mean normal sample with standard deviation `sigma`.
    pub fn scaled(self, sigma: f64) -> f64 {
        sigma * (-2.0 * self.u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * self.u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let mut parent1 = SimRng::new(9);
        let mut parent2 = SimRng::new(9);
        let mut f1 = parent1.fork(5);
        let mut f2 = parent2.fork(5);
        assert_eq!(f1.next_u64(), f2.next_u64());
        // Distinct labels give distinct streams.
        let mut parent3 = SimRng::new(9);
        let mut f3 = parent3.fork(6);
        assert_ne!(f1.next_u64(), f3.next_u64());
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = SimRng::new(77);
        for _ in 0..10_000 {
            let x = r.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_inclusive_bounds_respected() {
        let mut r = SimRng::new(3);
        let mut saw_zero = false;
        let mut saw_max = false;
        for _ in 0..20_000 {
            let x = r.uniform_u32_inclusive(31);
            assert!(x <= 31);
            saw_zero |= x == 0;
            saw_max |= x == 31;
        }
        assert!(saw_zero && saw_max, "both endpoints should be reachable");
    }

    #[test]
    fn uniform_inclusive_roughly_uniform() {
        let mut r = SimRng::new(4);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.uniform_u32_inclusive(7) as usize] += 1;
        }
        let expected = n as f64 / 8.0;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "bucket count {c} deviates from {expected}"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_frequency_close_to_p() {
        let mut r = SimRng::new(6);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq={freq}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(8);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd={}", var.sqrt());
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(10);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn run_key_seed_is_stable() {
        // Pinned value: if this changes, every campaign result reseeds.
        assert_eq!(
            RunKey::new("fig5", 3, 1).stream_seed(),
            13_462_076_365_289_305_681
        );
    }

    #[test]
    fn run_key_components_all_matter() {
        let base = RunKey::new("fig5", 3, 1).stream_seed();
        assert_ne!(base, RunKey::new("fig6", 3, 1).stream_seed());
        assert_ne!(base, RunKey::new("fig5", 4, 1).stream_seed());
        assert_ne!(base, RunKey::new("fig5", 3, 2).stream_seed());
    }

    #[test]
    fn run_key_label_boundaries_are_unambiguous() {
        // Without a separator, the label's tail and the point's bytes could
        // alias across keys.
        let a = RunKey::new("fig1", 0x31, 0).stream_seed();
        let b = RunKey::new("fig11", 0, 0).stream_seed();
        assert_ne!(a, b);
    }

    #[test]
    fn run_key_rng_matches_explicit_seed() {
        let key = RunKey::new("tab3", 0, 7);
        let mut from_key = key.rng();
        let mut explicit = SimRng::new(key.stream_seed());
        for _ in 0..100 {
            assert_eq!(from_key.next_u64(), explicit.next_u64());
        }
    }

    #[test]
    fn run_key_seeds_spread_across_seeds() {
        // Consecutive replication seeds must yield well-separated streams.
        let mut streams: Vec<u64> = (0..64)
            .map(|s| RunKey::new("fig2", 0, s).stream_seed())
            .collect();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(streams.len(), 64);
    }
}
