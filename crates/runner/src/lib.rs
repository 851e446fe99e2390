//! Fixed-pool job executor for simulation campaigns.
//!
//! A sweep is a batch of independent, self-contained jobs (one seeded
//! simulation run each). [`Runner::execute_all`] shards the batch across a
//! fixed pool of worker threads pulling from a shared queue, then returns
//! the results **in submission order** regardless of which worker finished
//! which job first. Because every job is pure — it derives all randomness
//! from its own run key and touches no shared state — the collected results
//! are identical at any thread count; only wall-clock time changes.
//!
//! With `jobs == 1` the batch runs inline on the caller's thread, with no
//! pool and no channels, which keeps single-threaded debugging trivial.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::mpsc;
use std::sync::Mutex;

pub mod lockstep;

pub use lockstep::Lockstep;

/// Executes batches of independent jobs on a fixed thread pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    jobs: NonZeroUsize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new(available_jobs())
    }
}

/// The number of worker threads to use by default: the parallelism the OS
/// reports as available to this process, or 1 if that cannot be queried.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

impl Runner {
    /// A runner with a pool of `jobs` workers; `jobs` is clamped to at
    /// least 1.
    pub fn new(jobs: usize) -> Self {
        Runner {
            jobs: NonZeroUsize::new(jobs.max(1)).expect("clamped to >= 1"),
        }
    }

    /// A runner that executes every batch inline on the caller's thread.
    pub fn sequential() -> Self {
        Runner::new(1)
    }

    /// Pool width.
    pub fn jobs(&self) -> usize {
        self.jobs.get()
    }

    /// Runs every job in `batch` and returns the results in submission
    /// order. Panics in a job are propagated to the caller.
    pub fn execute_all<T, F>(&self, batch: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let workers = self.jobs.get().min(batch.len());
        if workers <= 1 {
            return batch.into_iter().map(|job| job()).collect();
        }

        let queue: Mutex<VecDeque<(usize, F)>> =
            Mutex::new(batch.into_iter().enumerate().collect());
        let expected = queue.lock().expect("fresh queue").len();
        let (tx, rx) = mpsc::channel::<(usize, T)>();

        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(expected).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let queue = &queue;
                scope.spawn(move || {
                    loop {
                        // Take the lock only long enough to pop one job;
                        // the job itself runs unlocked.
                        let next = queue.lock().expect("queue poisoned").pop_front();
                        let Some((idx, job)) = next else { break };
                        // A send error means the collector hung up, which
                        // only happens when the scope is unwinding from a
                        // panic elsewhere; stop quietly.
                        if tx.send((idx, job())).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (idx, value) in rx {
                slots[idx] = Some(value);
            }
        });

        slots
            .into_iter()
            .map(|slot| slot.expect("every job reports exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn squares_batch(n: usize) -> Vec<impl FnOnce() -> usize + Send> {
        (0..n).map(|i| move || i * i).collect()
    }

    #[test]
    fn results_keep_submission_order() {
        let runner = Runner::new(4);
        let out = runner.execute_all(squares_batch(64));
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_at_every_pool_width() {
        let baseline = Runner::sequential().execute_all(squares_batch(33));
        for jobs in [2, 3, 4, 8, 16] {
            let out = Runner::new(jobs).execute_all(squares_batch(33));
            assert_eq!(out, baseline, "jobs={jobs}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let batch: Vec<_> = (0..50)
            .map(|_| {
                let count = &count;
                move || count.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        Runner::new(8).execute_all(batch);
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = Runner::new(4).execute_all(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_is_clamped_to_one() {
        assert_eq!(Runner::new(0).jobs(), 1);
    }
}
