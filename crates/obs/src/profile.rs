//! Wall-clock profiling scopes.
//!
//! [`crate::span!`] brackets a code region with a named timer. When
//! profiling is disabled (the default) a span is one relaxed atomic
//! load and a branch — cheap enough to leave in the runtime's hot
//! paths. When enabled (`repro run --record`), spans accumulate call counts
//! and wall time per label into a process-wide registry that `repro`
//! folds into `bench_summary.json`.
//!
//! Wall time is inherently nondeterministic; it is reported only in the
//! profile section, never mixed into simulation artifacts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<BTreeMap<&'static str, SpanStat>> = Mutex::new(BTreeMap::new());

/// Accumulated timing of one span label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall time spent inside, in nanoseconds.
    pub nanos: u64,
}

impl SpanStat {
    /// Total wall time in seconds.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// Turns span timing on or off (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans currently record.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all accumulated span stats.
pub fn reset() {
    REGISTRY.lock().expect("profile registry poisoned").clear();
}

/// Snapshot of every label's stats, sorted by label.
pub fn snapshot() -> Vec<(&'static str, SpanStat)> {
    REGISTRY
        .lock()
        .expect("profile registry poisoned")
        .iter()
        .map(|(label, stat)| (*label, *stat))
        .collect()
}

/// Live timer for one span entry; records on drop. Construct through
/// [`crate::span!`].
#[derive(Debug)]
pub struct SpanGuard {
    label: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Starts a span — a no-op unless profiling is enabled.
    pub fn begin(label: &'static str) -> Self {
        SpanGuard {
            label,
            start: is_enabled().then(Instant::now),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos() as u64;
            let mut reg = REGISTRY.lock().expect("profile registry poisoned");
            let stat = reg.entry(self.label).or_default();
            stat.calls += 1;
            stat.nanos += nanos;
        }
    }
}

/// Times the enclosing scope under `label` while profiling is enabled.
///
/// # Examples
///
/// ```
/// let _span = gr_obs::span!("net/run");
/// // ... timed region ...
/// ```
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::profile::SpanGuard::begin($label)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_when_enabled() {
        // Serialize against any other test toggling the global switch.
        reset();
        set_enabled(false);
        {
            let _s = crate::span!("test/off");
        }
        assert!(snapshot().iter().all(|(l, _)| *l != "test/off"));
        set_enabled(true);
        {
            let _s = crate::span!("test/on");
        }
        set_enabled(false);
        let stats = snapshot();
        let (_, stat) = stats
            .iter()
            .find(|(l, _)| *l == "test/on")
            .expect("span recorded");
        assert_eq!(stat.calls, 1);
        reset();
    }
}
