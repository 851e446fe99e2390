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
}
