//! A campaign's conformance request and the sink its reports land in.
//!
//! A [`ConformJob`] rides in the network's per-job context
//! (`net::JobContext`): the network arms a [`crate::CheckerTap`] on its
//! recorder when it is built under one, and deposits the finished
//! [`crate::ConformReport`] into the job's shared sink, under the
//! context's run key, when the run completes.

use std::sync::{Arc, Mutex};

use sim::RunKey;

use crate::rules::ConformReport;

/// Where finished reports accumulate, shared across worker threads.
pub type ConformSink = Arc<Mutex<Vec<(Option<RunKey>, ConformReport)>>>;

/// A request to conformance-check every run built under it.
#[derive(Debug, Clone)]
pub struct ConformJob {
    /// Destination for the finished reports.
    pub sink: ConformSink,
    /// Whether declared quirks exempt their rules (the normal mode).
    /// `false` re-arms every rule, for whitelist-removal tests.
    pub honor_whitelist: bool,
}

impl Default for ConformJob {
    fn default() -> Self {
        ConformJob::new()
    }
}

impl ConformJob {
    /// A job with a fresh sink that honors declared quirks.
    pub fn new() -> Self {
        ConformJob {
            sink: Arc::new(Mutex::new(Vec::new())),
            honor_whitelist: true,
        }
    }

    /// Same job with the quirk whitelist disabled.
    pub fn without_whitelist(mut self) -> Self {
        self.honor_whitelist = false;
        self
    }

    /// Deposits a finished report, filed under `key`, into the sink.
    pub fn deposit(&self, key: Option<RunKey>, report: ConformReport) {
        self.sink
            .lock()
            .expect("conform sink poisoned")
            .push((key, report));
    }

    /// Drains all reports deposited so far from the sink, in deposit
    /// order.
    pub fn drain(&self) -> Vec<(Option<RunKey>, ConformReport)> {
        std::mem::take(&mut *self.sink.lock().expect("conform sink poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_and_drain_round_trip() {
        let job = ConformJob::new();
        job.deposit(Some(RunKey::new("exp", 3, 7)), ConformReport::default());
        let drained = job.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0.as_ref().unwrap().point, 3);
        assert!(job.drain().is_empty());
    }
}
