//! Fidelity settings: how long and how many seeds per data point.
//!
//! The paper runs each scenario five times and reports the median; the
//! full quality does the same.

use sim::SimDuration;

/// Fidelity of an experiment sweep.
#[derive(Debug, Clone)]
pub struct Quality {
    /// Seeds to run per data point (median reported).
    pub seeds: Vec<u64>,
    /// Virtual run length per simulation.
    pub duration: SimDuration,
    /// Monte-Carlo sample count for non-simulation studies.
    pub samples: u64,
}

impl Quality {
    /// Most replication seeds a campaign accepts (`repro --seeds`). The
    /// paper uses 5 and the committed artifacts at most that; the bound
    /// only turns an absurd count into a typed error instead of an
    /// allocation failure that aborts the process.
    pub const MAX_SEEDS: u64 = 10_000;

    /// Paper-equivalent fidelity: median of 5 seeds, 15 s runs.
    pub fn full() -> Self {
        Quality {
            seeds: vec![1, 2, 3, 4, 5],
            duration: SimDuration::from_secs(15),
            samples: 100_000,
        }
    }

    /// Fast pass for smoke tests: one seed, 2 s.
    pub fn quick() -> Self {
        Quality {
            seeds: vec![1],
            duration: SimDuration::from_secs(2),
            samples: 5_000,
        }
    }

    /// Median over the per-seed values produced by `f`.
    ///
    /// # Panics
    ///
    /// Panics if no seeds are configured.
    pub fn median_over_seeds<F: FnMut(u64) -> f64>(&self, mut f: F) -> f64 {
        let values: Vec<f64> = self.seeds.iter().map(|&s| f(s)).collect();
        sim::stats::median(&values).expect("at least one seed")
    }

    /// Median over seeds for a vector-valued measurement (component-wise).
    ///
    /// # Panics
    ///
    /// Panics if no seeds are configured or `f` returns inconsistent
    /// lengths.
    pub fn median_vec_over_seeds<F: FnMut(u64) -> Vec<f64>>(&self, mut f: F) -> Vec<f64> {
        let per_seed: Vec<Vec<f64>> = self.seeds.iter().map(|&s| f(s)).collect();
        let n = per_seed[0].len();
        (0..n)
            .map(|i| {
                let column: Vec<f64> = per_seed
                    .iter()
                    .map(|v| {
                        assert_eq!(v.len(), n, "inconsistent measurement arity");
                        v[i]
                    })
                    .collect();
                sim::stats::median(&column).expect("at least one seed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_over_seeds_works() {
        let q = Quality {
            seeds: vec![1, 2, 3],
            duration: SimDuration::from_secs(1),
            samples: 10,
        };
        assert_eq!(q.median_over_seeds(|s| s as f64), 2.0);
    }

    #[test]
    fn median_vec_componentwise() {
        let q = Quality {
            seeds: vec![1, 2, 3],
            duration: SimDuration::from_secs(1),
            samples: 10,
        };
        let m = q.median_vec_over_seeds(|s| vec![s as f64, 10.0 * s as f64]);
        assert_eq!(m, vec![2.0, 20.0]);
    }
}
