//! The per-job instrumentation slot.
//!
//! Experiment generators build their networks inside plain closures
//! whose signatures the campaign machinery cannot change without
//! touching every experiment. Instead, a campaign installs one
//! [`JobContext`] into a thread-local slot around each job: the job's
//! run key plus whatever instrumentation the campaign asked for — a
//! flight recorder, a conformance request, a checkpoint spec. Two
//! readers pick it up:
//!
//! * [`NetworkBuilder::build`](crate::NetworkBuilder::build) picks the
//!   network's recorder and arms the conformance checker, exactly once
//!   per network;
//! * `Run::execute` (in `greedy80211`) records or resumes the run's
//!   checkpoint and audit files under the [`CampaignSpec`].
//!
//! Jobs never share a thread concurrently (the runner executes one job
//! at a time per worker), and the guard restores the previous context
//! on drop, so nesting and worker-thread reuse are safe. None of the
//! instrumentation touches the scheduler or an RNG stream, so a run is
//! bit-identical with or without a context installed.

use std::cell::RefCell;
use std::path::PathBuf;

use sim::{RunKey, SimDuration};

/// One job's instrumentation. The default context asks for nothing.
#[derive(Debug, Clone, Default)]
pub struct JobContext {
    /// The job's campaign key: files its conformance reports and names
    /// its checkpoint and audit files (`None` files reports unkeyed and
    /// names files by each run's own key).
    pub key: Option<RunKey>,
    /// Recorder every network built during the job records into, unless
    /// its builder was given an explicit spec.
    pub recorder: Option<obs::RecorderHandle>,
    /// Conformance request: every network built during the job is
    /// checked and deposits one report.
    pub conform: Option<conform::ConformJob>,
    /// Checkpoint/audit campaign the job's runs record into or resume
    /// from.
    pub checkpoint: Option<CampaignSpec>,
}

thread_local! {
    static CURRENT: RefCell<Option<JobContext>> = const { RefCell::new(None) };
}

/// Restores the previously installed context when dropped.
#[derive(Debug)]
pub struct JobGuard {
    prev: Option<JobContext>,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        CURRENT.with(|slot| *slot.borrow_mut() = self.prev.take());
    }
}

impl JobContext {
    /// A context for the job `key` that asks for no instrumentation yet.
    pub fn keyed(key: RunKey) -> Self {
        JobContext {
            key: Some(key),
            ..JobContext::default()
        }
    }

    /// Installs this context as the thread's until the returned guard
    /// drops.
    #[must_use = "the context is uninstalled when the guard drops"]
    pub fn install(self) -> JobGuard {
        let prev = CURRENT.with(|slot| slot.borrow_mut().replace(self));
        JobGuard { prev }
    }

    /// The thread's current context (the default one when none is
    /// installed).
    pub fn current() -> JobContext {
        CURRENT.with(|slot| slot.borrow().clone().unwrap_or_default())
    }
}

/// Filesystem-safe stem naming one run within a campaign, e.g.
/// `fig6-p0003-s0001` (sweep labels may contain `/`).
pub fn run_file_stem(key: &RunKey) -> String {
    let label: String = key
        .experiment
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{label}-p{:04}-s{:04}", key.point, key.seed)
}

/// Campaign-wide checkpoint/audit configuration, shared by every job of
/// a sweep.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Checkpoint barrier interval; `None` records no checkpoints.
    pub every: Option<SimDuration>,
    /// Audit-ladder barrier interval; `None` records no ladder.
    pub audit_every: Option<SimDuration>,
    /// Artifact root: checkpoints land in `<dir>/checkpoints/`, audit
    /// ladders in `<dir>/audit/`.
    pub dir: PathBuf,
    /// Resume mode: instead of recording, each run looks for its own
    /// checkpoint file and, when present, restores it and simulates only
    /// the tail.
    pub resume: bool,
}

impl CampaignSpec {
    /// A recording spec: checkpoint every `every`, audit every
    /// `audit_every`, under `dir`.
    pub fn record(
        dir: impl Into<PathBuf>,
        every: Option<SimDuration>,
        audit_every: Option<SimDuration>,
    ) -> Self {
        CampaignSpec {
            every,
            audit_every,
            dir: dir.into(),
            resume: false,
        }
    }

    /// A resume spec reading checkpoints previously recorded under
    /// `dir`.
    pub fn resume_from(dir: impl Into<PathBuf>) -> Self {
        CampaignSpec {
            every: None,
            audit_every: None,
            dir: dir.into(),
            resume: true,
        }
    }

    /// The checkpoint file for `key` under this spec's root.
    pub fn checkpoint_path(&self, key: &RunKey) -> PathBuf {
        self.dir
            .join("checkpoints")
            .join(format!("{}.snap", run_file_stem(key)))
    }

    /// The audit-ladder file for `key` under this spec's root.
    pub fn audit_path(&self, key: &RunKey) -> PathBuf {
        self.dir
            .join("audit")
            .join(format!("{}.audit", run_file_stem(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_scoped_and_nestable() {
        assert!(JobContext::current().key.is_none());
        {
            let _outer = JobContext::keyed(RunKey::new("t", 0, 0)).install();
            {
                let rec = obs::ObsSpec::default().recorder();
                let _inner = JobContext {
                    recorder: Some(rec.clone()),
                    ..JobContext::keyed(RunKey::new("t", 1, 2))
                }
                .install();
                let cur = JobContext::current();
                assert_eq!(cur.key, Some(RunKey::new("t", 1, 2)));
                assert!(cur.recorder.unwrap().same_cell(&rec));
            }
            let cur = JobContext::current();
            assert_eq!(cur.key, Some(RunKey::new("t", 0, 0)));
            assert!(cur.recorder.is_none());
        }
        assert!(JobContext::current().key.is_none());
    }

    #[test]
    fn file_stems_are_filesystem_safe_and_distinct() {
        let a = run_file_stem(&RunKey::new("abl1/cs", 2, 7));
        assert_eq!(a, "abl1_cs-p0002-s0007");
        let b = run_file_stem(&RunKey::new("abl1_cs", 2, 7));
        assert_eq!(a, b, "sanitization maps / to _");
        assert_ne!(a, run_file_stem(&RunKey::new("abl1/cs", 2, 8)));
    }
}
