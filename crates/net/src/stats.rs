//! Process-wide simulation throughput counters.
//!
//! Every completed [`Network::run`](crate::Network::run) adds its event
//! count here, regardless of which worker thread executed it. The `repro`
//! harness snapshots these counters around each experiment to report
//! events/second — the simulator's native throughput unit — without
//! threading a metrics sink through every layer.
//!
//! The counters are monotonically increasing totals; consumers diff two
//! snapshots. Relaxed ordering suffices because the values are purely
//! informational and each run's contribution is a single atomic add.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS_PROCESSED: AtomicU64 = AtomicU64::new(0);
static RUNS_COMPLETED: AtomicU64 = AtomicU64::new(0);

/// Point-in-time copy of the process-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Total [`RunMetrics::events_processed`](crate::RunMetrics::events_processed)
    /// of completed runs.
    pub events_processed: u64,
    /// Total completed simulation runs.
    pub runs_completed: u64,
}

impl SimStats {
    /// Counter increases since `earlier`.
    pub fn since(&self, earlier: SimStats) -> SimStats {
        SimStats {
            events_processed: self.events_processed - earlier.events_processed,
            runs_completed: self.runs_completed - earlier.runs_completed,
        }
    }
}

/// Reads the current totals.
pub fn snapshot() -> SimStats {
    SimStats {
        events_processed: EVENTS_PROCESSED.load(Ordering::Relaxed),
        runs_completed: RUNS_COMPLETED.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_run(events: u64) {
    EVENTS_PROCESSED.fetch_add(events, Ordering::Relaxed);
    RUNS_COMPLETED.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_diff() {
        let before = snapshot();
        record_run(100);
        record_run(50);
        let delta = snapshot().since(before);
        assert_eq!(delta.events_processed, 150);
        assert_eq!(delta.runs_completed, 2);
    }
}
