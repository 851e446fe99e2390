//! Declarative parameter sweeps over the campaign runner.
//!
//! Every simulation-backed experiment is the same shape: measure some
//! vector of values at each sweep point, once per replication seed, and
//! report the component-wise median over seeds per point. [`sweep`] is
//! that shape as a function. It expands `points × seeds` into independent
//! jobs, derives each job's RNG seed from its stable
//! `(label, point index, seed index)` [`RunKey`] — never from execution
//! order — and shards the jobs across the [`RunCtx`]'s worker pool.
//! Results are aggregated in submission order, so the returned medians
//! are bit-identical at any `--jobs` width.
//!
//! Labels feed the seed derivation: an experiment running several sweeps
//! must give each a distinct label (e.g. `"abl1/cs"` and `"abl1/fair"`),
//! or the sweeps would replay identical RNG streams.

use net::JobContext;
use sim::RunKey;

use crate::RunCtx;

/// Runs `measure(point, derived_seed)` for every point × seed and returns
/// per-point component-wise medians over seeds, in point order.
///
/// `measure` receives the derived 64-bit stream seed for that
/// `(point, seed)` cell; it should feed it directly to
/// `Scenario::seed` / `NetworkBuilder::seed`.
///
/// # Panics
///
/// Panics if the quality has no seeds or `measure` returns inconsistent
/// vector lengths across seeds of one point.
pub fn sweep<P, F>(ctx: &RunCtx, label: &str, points: &[P], measure: F) -> Vec<Vec<f64>>
where
    P: Sync,
    F: Fn(&P, u64) -> Vec<f64> + Sync,
{
    collect(ctx, label, points, |point, key| {
        measure(point, key.stream_seed())
    })
    .iter()
    .map(|chunk| {
        let arity = chunk[0].len();
        (0..arity)
            .map(|i| {
                let column: Vec<f64> = chunk
                    .iter()
                    .map(|v| {
                        assert_eq!(v.len(), arity, "inconsistent measurement arity");
                        v[i]
                    })
                    .collect();
                sim::stats::median(&column).expect("at least one seed")
            })
            .collect()
    })
    .collect()
}

/// The one points × seeds job expander: runs `measure(point, key)` for
/// every point and seed index, keyed `(label, point index, seed index)`,
/// on the [`RunCtx`]'s worker pool, and returns every raw measurement
/// regrouped per point in submission order — so aggregation is
/// independent of `--jobs`.
///
/// Each job runs under a [`JobContext`] carrying its key and the
/// context's instrumentation: a fresh recorder when the context
/// records (its report is deposited into the campaign sink under the
/// key), the conformance job, and the checkpoint spec. Every network
/// and `Run` inside `measure` picks them up without signature changes,
/// and the key alone names each job's reports and checkpoint files.
///
/// # Panics
///
/// Panics when `ctx.quality.seeds` is empty.
pub fn collect<P, T, F>(ctx: &RunCtx, label: &str, points: &[P], measure: F) -> Vec<Vec<T>>
where
    P: Sync,
    T: Send,
    F: Fn(&P, RunKey) -> T + Sync,
{
    let n_seeds = ctx.quality.seeds.len();
    assert!(n_seeds > 0, "at least one seed");
    let measure = &measure;
    let (record, conform, checkpoint) = (&ctx.record, &ctx.conform, &ctx.checkpoint);
    let jobs: Vec<_> = points
        .iter()
        .enumerate()
        .flat_map(|(pi, point)| {
            (0..n_seeds).map(move |si| {
                let key = RunKey::new(label, pi as u64, si as u64);
                move || {
                    let recorder = record.as_ref().map(|camp| camp.spec.recorder());
                    let out = {
                        let _job = JobContext {
                            key: Some(key.clone()),
                            recorder: recorder.clone(),
                            conform: conform.as_ref().map(|camp| camp.job()),
                            checkpoint: checkpoint.clone(),
                        }
                        .install();
                        measure(point, key.clone())
                    };
                    if let (Some(camp), Some(rec)) = (record, recorder) {
                        // Content depends only on the key, never on which
                        // worker ran the job.
                        let report = rec.borrow_mut().drain_report();
                        let empty = report.events.is_empty()
                            && report.hists.is_empty()
                            && report.series.is_empty();
                        if !empty {
                            camp.deposit(key, report);
                        }
                    }
                    out
                }
            })
        })
        .collect();
    let mut flat = ctx.runner.execute_all(jobs).into_iter();
    points
        .iter()
        .map(|_| {
            (0..n_seeds)
                .map(|_| flat.next().expect("job count"))
                .collect()
        })
        .collect()
}

/// Scalar-valued convenience over [`sweep`]: one median per point.
pub fn sweep_scalar<P, F>(ctx: &RunCtx, label: &str, points: &[P], measure: F) -> Vec<f64>
where
    P: Sync,
    F: Fn(&P, u64) -> f64 + Sync,
{
    sweep(ctx, label, points, |p, seed| vec![measure(p, seed)])
        .into_iter()
        .map(|v| v[0])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quality;

    fn ctx(jobs: usize) -> RunCtx {
        let quality = Quality {
            seeds: vec![1, 2, 3],
            ..Quality::quick()
        };
        RunCtx::with_jobs(quality, jobs)
    }

    #[test]
    fn medians_in_point_order() {
        let points = [10.0f64, 20.0, 30.0];
        let rows = sweep(&ctx(1), "t", &points, |p, seed| vec![*p, (seed % 7) as f64]);
        assert_eq!(rows.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], points[i]);
        }
    }

    #[test]
    fn identical_at_any_job_count() {
        let points: Vec<u64> = (0..5).collect();
        let gold = sweep(&ctx(1), "t", &points, |p, seed| {
            vec![(*p as f64) + (seed % 100) as f64]
        });
        for jobs in [2, 4, 8] {
            let out = sweep(&ctx(jobs), "t", &points, |p, seed| {
                vec![(*p as f64) + (seed % 100) as f64]
            });
            assert_eq!(out, gold, "jobs={jobs}");
        }
    }

    #[test]
    fn labels_separate_streams() {
        let seeds_a = std::sync::Mutex::new(Vec::new());
        let seeds_b = std::sync::Mutex::new(Vec::new());
        sweep(&ctx(1), "a", &[0], |_, seed| {
            seeds_a.lock().unwrap().push(seed);
            vec![0.0]
        });
        sweep(&ctx(1), "b", &[0], |_, seed| {
            seeds_b.lock().unwrap().push(seed);
            vec![0.0]
        });
        assert_ne!(*seeds_a.lock().unwrap(), *seeds_b.lock().unwrap());
    }

    #[test]
    fn scalar_wrapper_matches_vector_form() {
        let points = [1u32, 2, 3];
        let a = sweep_scalar(&ctx(2), "t", &points, |p, _| *p as f64);
        assert_eq!(a, vec![1.0, 2.0, 3.0]);
    }
}
