//! Timed execution of jobs and passes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use greedy80211::Run;
use runner::Runner;

use crate::check::{Checker, Facts};
use crate::report::ratio;
use crate::workload::Job;

/// How a job is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Run::plan(..).execute()` or `Run::world(..).execute()`: the
    /// public entry points.
    Facade,
    /// `Scenario::build` and `BuiltScenario::run`, each timed from
    /// outside. A world, whose cells build on lockstep workers, instead
    /// times a build of its template before its wall clock starts.
    Split,
}

/// Worker counts of the job pool and of each world's lockstep executor.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    /// Workers sharing the jobs of a pass.
    pub workers: usize,
    /// `Run::world(..).jobs(..)` of every world job. Timed passes use 1:
    /// on a shared 2-core host, spells in which one core runs slow for
    /// seconds at a time set the pace of every two-worker world, and made
    /// world times differ by a third between runs.
    pub world_jobs: usize,
}

/// One execution of one job.
#[derive(Debug)]
pub struct Exec {
    /// Job index within the pass.
    pub index: usize,
    /// Wall time of the job.
    pub wall: Duration,
    /// `Scenario::build` time ([`Mode::Split`] only).
    pub build: Option<Duration>,
    /// `BuiltScenario::run` time ([`Mode::Split`], single networks only).
    pub run: Option<Duration>,
    /// The job's exact counts, or why it failed.
    pub outcome: Result<Facts, String>,
    /// Worker thread that ran the job.
    pub thread: ThreadId,
    /// When the job finished.
    pub end: Instant,
}

/// Executes job `index`; an error or a panic becomes a failed outcome.
pub fn execute(job: &Job, index: usize, mode: Mode, world_jobs: usize) -> Exec {
    let mut build = None;
    let mut run = None;
    if let (Job::World(spec), Mode::Split) = (job, mode) {
        let t = Instant::now();
        let built = spec.template.build();
        build = Some(t.elapsed());
        drop(built);
    }
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match job {
        Job::Single(s) if mode == Mode::Facade => {
            Run::plan(s).execute().map(|o| Facts::of_outcome(&o))
        }
        Job::Single(s) => {
            let t = Instant::now();
            let built = s.build()?;
            build = Some(t.elapsed());
            let t = Instant::now();
            let out = built.run();
            run = Some(t.elapsed());
            Ok(Facts::of_run(
                &out.metrics,
                out.nav_detections(),
                out.spoof_flags(),
            ))
        }
        Job::World(spec) => Run::world(spec)
            .jobs(world_jobs)
            .execute()
            .map(|o| Facts::of_world(&o)),
    }));
    let wall = start.elapsed();
    let outcome = match outcome {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "job panicked".into())),
    };
    Exec {
        index,
        wall,
        build,
        run,
        outcome,
        thread: std::thread::current().id(),
        end: Instant::now(),
    }
}

/// Totals over a series of whole passes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs executed.
    pub attempted: usize,
    /// Jobs that failed or disagreed with their first execution.
    pub failed: usize,
    /// `Scenario::build` µs of every job ([`Mode::Split`]).
    pub build_us: Vec<f64>,
    /// Virtual seconds simulated, summed over networks.
    pub virtual_s: f64,
    /// Wall time of the passes.
    pub wall: Duration,
    /// Wall time of the jobs, summed over workers.
    pub busy: Duration,
    /// Pool tails (last worker's finish minus first's), summed over
    /// passes.
    pub tail: Duration,
    /// `BuiltScenario::run` time, summed.
    pub run: Duration,
    /// Whole passes executed.
    pub passes: usize,
    /// Fastest wall ms of each job over the passes, by job index.
    pub best_ms: Vec<f64>,
}

impl Tally {
    /// Wall seconds of a pass with every job at its fastest.
    pub fn best_s(&self) -> f64 {
        self.best_ms.iter().sum::<f64>() / 1e3
    }

    /// Virtual seconds per wall second of a pass with every job at its
    /// fastest and as many jobs in flight on average as were measured.
    ///
    /// Other tenants of a shared host slow this process for spells of a
    /// fraction of a second, so the same job's wall time varies by half
    /// between passes. A job's fastest time over many passes hardly
    /// varies, and the mean jobs in flight (busy / wall) is a ratio of
    /// two times that such spells stretch alike, so the pool's tail
    /// still counts.
    pub fn sim_rate(&self) -> f64 {
        let virtual_per_pass = ratio(self.virtual_s, self.passes as f64);
        let in_flight = ratio(self.busy.as_secs_f64(), self.wall.as_secs_f64());
        ratio(virtual_per_pass * in_flight, self.best_s())
    }

    /// Runs one whole pass of `jobs` as one `execute_all`, as `repro`
    /// submits a sweep, checking every outcome with `checker`.
    pub fn pass(&mut self, jobs: &[Job], pool: Pool, mode: Mode, checker: &mut Checker) {
        self.best_ms.resize(jobs.len(), f64::INFINITY);
        let work: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| move || execute(job, i, mode, pool.world_jobs))
            .collect();
        let start = Instant::now();
        let execs = Runner::new(pool.workers).execute_all(work);
        self.wall += start.elapsed();
        self.tail += tail(&execs);
        for e in execs {
            self.attempted += 1;
            if !checker.observe(e.index, &e.outcome) {
                self.failed += 1;
                if let Err(why) = &e.outcome {
                    eprintln!("simbench: job {} failed: {why}", e.index);
                }
            }
            let best = &mut self.best_ms[e.index];
            *best = best.min(e.wall.as_secs_f64() * 1e3);
            self.busy += e.wall;
            self.virtual_s += jobs[e.index].virtual_secs();
            if let Some(b) = e.build {
                self.build_us.push(b.as_secs_f64() * 1e6);
            }
            if let Some(r) = e.run {
                self.run += r;
            }
        }
        self.passes += 1;
    }
}

/// Last worker's finish minus the first worker's finish in one pass.
fn tail(execs: &[Exec]) -> Duration {
    let mut last: Vec<(ThreadId, Instant)> = Vec::new();
    for e in execs {
        match last.iter_mut().find(|(t, _)| *t == e.thread) {
            Some((_, end)) => *end = (*end).max(e.end),
            None => last.push((e.thread, e.end)),
        }
    }
    let ends = || last.iter().map(|(_, end)| *end);
    match (ends().min(), ends().max()) {
        (Some(first), Some(last)) => last - first,
        _ => Duration::ZERO,
    }
}
