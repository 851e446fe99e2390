//! Attack-intensity frontiers behind `repro intensity` (DESIGN.md §18).
//!
//! The ROC campaign (§17) characterizes every detector against *full
//! strength* misbehavior. This campaign asks the harder operational
//! question: **how weak can an attacker go and still get caught?** Each
//! misbehavior's strength is a first-class sweep dimension — the
//! [`Axis`] maps a normalized intensity `t ∈ (0, 1]` onto the attack's
//! native knob (NAV inflation µs, forgery probability, backoff
//! fraction) — and every `(detector, mix, intensity)` cell runs a
//! matched honest/attacked pair under one simulation [`RunKey`].
//!
//! Artifacts, per detector:
//!
//! * `intensity_<det>.csv` — the frontier: AUC and the shipped
//!   operating point's TPR/FPR per intensity, plus (for the windowed
//!   guards) the fraction of attacked runs in which the shipped
//!   windowed rule, a one-window Shewhart rule on the standardized
//!   means, CUSUM, and SPRT each fired.
//! * `knees.csv` — the minimal reliably-detectable intensity per cell
//!   (the *knee*, [`detsci::minimal_detectable`]) and the crossover
//!   regime where sequential detection beats the memoryless Shewhart
//!   rule at matched calibration ([`detsci::crossover_regime`]).
//!
//! Every job is **one** simulation (honest *or* attacked), so a
//! checkpointing [`RunCtx`] gives each run its own checkpoint file and
//! the whole campaign can be resumed mid-sweep. Honest and attacked
//! jobs of a cell share the simulation key, so channel draws stay
//! matched. Results are regrouped in submission order — artifacts are
//! byte-identical at any `--jobs` width.

use std::io;
use std::path::{Path, PathBuf};

use detsci::{
    auc, crossover_regime, minimal_detectable, Cusum, IntensityPoint, KneeCriterion, MethodPoint,
    OperatingPoint, Sprt, SprtVerdict,
};
use greedy80211::detect::WindowStat;
use greedy80211::Axis;
use sim::{RunKey, SimDuration};

use crate::roc::{
    calibration, densify, measure_class, operating_threshold, Cell, ClassSeed, CELLS, CUSUM_ARL0,
    CUSUM_K, DETECTORS, SPRT_ALPHA, SPRT_BETA,
};
use crate::table::Experiment;
use crate::{Quality, RunCtx};

/// The default intensity grid: log-ish spacing from 1 % of full attack
/// strength up to the historical full-strength campaigns.
pub const INTENSITY_GRID: &[f64] = &[0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];

/// A sequential/windowed method "fires reliably" at an intensity when it
/// detects in at least this fraction of attacked runs.
pub const FIRE_FRACTION: f64 = 0.5;

/// A planned `repro intensity` campaign.
#[derive(Debug, Clone)]
pub struct IntensityCampaign {
    /// Run length and replication seeds.
    pub quality: Quality,
    /// Worker threads the simulation batch shards across.
    pub jobs: usize,
    /// Decision-statistic window width (default 200 ms).
    pub window: SimDuration,
    /// Intensity grid, ascending in `(0, 1]`.
    pub grid: Vec<f64>,
}

/// One measured intensity sample of a cell's frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Normalized attack intensity in `(0, 1]`.
    pub intensity: f64,
    /// The attack's native knob value at this intensity
    /// ([`Axis::knob_at`]).
    pub knob: f64,
    /// Honest-class sample count (pooled over seeds).
    pub honest_n: usize,
    /// Greedy-class sample count (pooled over seeds).
    pub greedy_n: usize,
    /// Exact Mann–Whitney AUC (NaN when a class is empty).
    pub auc: f64,
    /// The shipped threshold's operating point at this intensity.
    pub op: OperatingPoint,
    /// Fraction of attacked runs the windowed rule fired in at the
    /// *shipped* operating threshold (windowed guards only).
    pub windowed_fired: Option<f64>,
    /// Fraction of attacked runs a memoryless one-window (Shewhart)
    /// rule fired in, on the same standardized window means the
    /// sequential detectors consume, calibrated to CUSUM's in-control
    /// ARL. The fair baseline for the sequential crossover: the
    /// shipped peak thresholds free-fire (spoof) or are
    /// per-observation exact (nav), so beating them on firing alone
    /// means nothing.
    pub shewhart_fired: Option<f64>,
    /// Fraction of attacked runs CUSUM fired in (windowed guards only).
    pub cusum_fired: Option<f64>,
    /// Fraction of attacked runs the SPRT reached a greedy verdict in
    /// (windowed guards only).
    pub sprt_fired: Option<f64>,
}

/// One cell's full intensity frontier with its derived summaries.
#[derive(Debug, Clone)]
pub struct CellFrontier {
    /// The `(detector, mix)` cell.
    pub cell: Cell,
    /// Frontier samples in grid order.
    pub points: Vec<FrontierPoint>,
    /// Minimal reliably-detectable intensity under the default
    /// [`KneeCriterion`], when the cell ever becomes reliable.
    pub knee: Option<f64>,
    /// Intensity span where a sequential detector fires reliably while
    /// the windowed rule does not (windowed guards only).
    pub crossover: Option<(f64, f64)>,
}

/// Result of a finished `repro intensity` campaign.
#[derive(Debug)]
pub struct IntensityCampaignReport {
    /// Per-cell frontiers in [`CELLS`] order.
    pub cells: Vec<CellFrontier>,
    /// Per-detector frontier tables in [`DETECTORS`] order.
    pub frontiers: Vec<Experiment>,
    /// The knee/crossover summary table.
    pub knees: Experiment,
    /// Every CSV written (frontiers in [`DETECTORS`] order, then
    /// `knees.csv`).
    pub csvs: Vec<PathBuf>,
}

/// Per-detector frontier CSV ids (static for [`Experiment`]).
///
/// # Panics
///
/// Panics on a detector id outside [`DETECTORS`].
pub fn intensity_table_id(detector: &str) -> &'static str {
    match detector {
        "nav" => "intensity_nav",
        "spoof" => "intensity_spoof",
        "fake" => "intensity_fake",
        "cross" => "intensity_cross",
        "domino" => "intensity_domino",
        other => panic!("unknown detector {other}"),
    }
}

/// One `(cell, intensity, class)` job of the sweep.
#[derive(Debug, Clone, Copy)]
struct JobPoint {
    ci: usize,
    ii: usize,
    attacked: bool,
}

impl IntensityCampaign {
    /// The default grid at `quality` fidelity with 200 ms windows.
    pub fn new(quality: Quality, jobs: usize) -> Self {
        IntensityCampaign {
            quality,
            jobs,
            window: SimDuration::from_millis(200),
            grid: INTENSITY_GRID.to_vec(),
        }
    }

    /// Same campaign with the grid thinned to `n` points, keeping both
    /// endpoints (smoke tests want `{0.01, 1.0}` rather than the full
    /// seven-point sweep).
    pub fn with_points(mut self, n: usize) -> Self {
        let len = self.grid.len();
        if n == 0 || n >= len {
            return self;
        }
        self.grid = if n == 1 {
            vec![self.grid[len - 1]]
        } else {
            (0..n).map(|k| self.grid[k * (len - 1) / (n - 1)]).collect()
        };
        self
    }

    /// Runs the campaign on its own worker pool and writes every
    /// artifact into `out_dir`.
    ///
    /// # Errors
    ///
    /// Propagates CSV I/O errors.
    pub fn run(&self, out_dir: &Path) -> io::Result<IntensityCampaignReport> {
        let ctx = RunCtx::with_jobs(self.quality.clone(), self.jobs);
        self.run_with(&ctx, out_dir)
    }

    /// Like [`run`](Self::run), but on an existing context — a
    /// checkpointing `ctx` records (or resumes) one checkpoint file per
    /// simulation, keyed `intensity/runs`, enabling mid-sweep resume.
    ///
    /// # Errors
    ///
    /// Propagates CSV I/O errors.
    ///
    /// # Panics
    ///
    /// Panics when `ctx.quality.seeds` is empty.
    pub fn run_with(&self, ctx: &RunCtx, out_dir: &Path) -> io::Result<IntensityCampaignReport> {
        std::fs::create_dir_all(out_dir)?;
        let q = &ctx.quality;
        let window = self.window;
        let grid = &self.grid;

        // One job per (cell, intensity, class, seed). The *job* key
        // (label `intensity/runs`, class folded into the point) names
        // checkpoint files uniquely per simulation; the *simulation* key
        // (label `intensity/pair`, class excluded) is shared by both
        // classes so their channel draws match.
        let points: Vec<JobPoint> = (0..CELLS.len())
            .flat_map(|ci| {
                (0..grid.len())
                    .flat_map(move |ii| [false, true].map(|attacked| JobPoint { ci, ii, attacked }))
            })
            .collect();
        let per_point = crate::sweep::collect(ctx, "intensity/runs", &points, |point, job_key| {
            let sim_key = RunKey::new(
                "intensity/pair",
                (point.ci * grid.len() + point.ii) as u64,
                job_key.seed,
            );
            measure_class(
                &CELLS[point.ci],
                q,
                window,
                sim_key,
                grid[point.ii],
                point.attacked,
            )
        });
        let class_seeds = |ci: usize, ii: usize, attacked: bool| -> &Vec<ClassSeed> {
            &per_point[(ci * grid.len() + ii) * 2 + usize::from(attacked)]
        };

        // Evaluation: pure arithmetic over the regrouped measurements.
        let criterion = KneeCriterion::default();
        let cells: Vec<CellFrontier> = CELLS
            .iter()
            .enumerate()
            .map(|(ci, cell)| {
                let axis = Axis::for_detector(cell.detector).expect("every cell has an axis");
                let windowed_guard = matches!(cell.detector, "nav" | "spoof");
                let op_threshold = operating_threshold(cell.detector);
                let points: Vec<FrontierPoint> = grid
                    .iter()
                    .enumerate()
                    .map(|(ii, &intensity)| {
                        let honest_seeds = class_seeds(ci, ii, false);
                        let greedy_seeds = class_seeds(ci, ii, true);
                        let honest: Vec<f64> = honest_seeds
                            .iter()
                            .flat_map(|s| s.stats.iter().copied())
                            .collect();
                        let greedy: Vec<f64> = greedy_seeds
                            .iter()
                            .flat_map(|s| s.stats.iter().copied())
                            .collect();
                        let op = OperatingPoint::at(&honest, &greedy, op_threshold);
                        let fired = windowed_guard
                            .then(|| fired_fractions(honest_seeds, greedy_seeds, op_threshold));
                        FrontierPoint {
                            intensity,
                            knob: axis.knob_at(intensity),
                            honest_n: honest.len(),
                            greedy_n: greedy.len(),
                            auc: auc(&honest, &greedy).unwrap_or(f64::NAN),
                            op,
                            windowed_fired: fired.map(|f| f.windowed_op),
                            shewhart_fired: fired.map(|f| f.shewhart),
                            cusum_fired: fired.map(|f| f.cusum),
                            sprt_fired: fired.map(|f| f.sprt),
                        }
                    })
                    .collect();
                let frontier: Vec<IntensityPoint> = points
                    .iter()
                    .map(|p| IntensityPoint {
                        intensity: p.intensity,
                        tpr: p.op.tpr,
                        fpr: p.op.fpr,
                    })
                    .collect();
                let methods: Vec<MethodPoint> = points
                    .iter()
                    .filter_map(|p| {
                        Some(MethodPoint {
                            intensity: p.intensity,
                            windowed: p.shewhart_fired?,
                            sequential: p.cusum_fired?.max(p.sprt_fired?),
                        })
                    })
                    .collect();
                CellFrontier {
                    cell: *cell,
                    knee: minimal_detectable(&frontier, criterion),
                    crossover: crossover_regime(&methods, FIRE_FRACTION),
                    points,
                }
            })
            .collect();

        // Artifacts.
        let opt = |v: Option<f64>, width: usize| match v {
            Some(x) => format!("{x:.width$}"),
            None => "-".to_string(),
        };
        let mut csvs = Vec::new();
        let mut frontiers = Vec::new();
        for &det in DETECTORS {
            let mut table = Experiment::new(
                intensity_table_id(det),
                format!("Intensity frontier: {det} detector, attack strength sweep"),
                &[
                    "mix",
                    "intensity",
                    "knob",
                    "honest_n",
                    "greedy_n",
                    "auc",
                    "op_tpr",
                    "op_fpr",
                    "windowed_fired",
                    "shewhart_fired",
                    "cusum_fired",
                    "sprt_fired",
                ],
            );
            for cf in cells.iter().filter(|cf| cf.cell.detector == det) {
                for p in &cf.points {
                    table.push_row(vec![
                        cf.cell.mix.to_string(),
                        format!("{:.2}", p.intensity),
                        format!("{:.3}", p.knob),
                        p.honest_n.to_string(),
                        p.greedy_n.to_string(),
                        format!("{:.4}", p.auc),
                        format!("{:.4}", p.op.tpr),
                        format!("{:.4}", p.op.fpr),
                        opt(p.windowed_fired, 2),
                        opt(p.shewhart_fired, 2),
                        opt(p.cusum_fired, 2),
                        opt(p.sprt_fired, 2),
                    ]);
                }
            }
            table.write_csv(out_dir)?;
            csvs.push(out_dir.join(format!("{}.csv", intensity_table_id(det))));
            frontiers.push(table);
        }
        let mut knees = Experiment::new(
            "knees",
            "Minimal detectable intensity and windowed-vs-sequential crossover per cell",
            &[
                "detector",
                "mix",
                "min_tpr",
                "max_fpr",
                "knee_intensity",
                "knee_knob",
                "crossover_lo",
                "crossover_hi",
            ],
        );
        for cf in &cells {
            let axis = Axis::for_detector(cf.cell.detector).expect("every cell has an axis");
            knees.push_row(vec![
                cf.cell.detector.to_string(),
                cf.cell.mix.to_string(),
                format!("{:.2}", criterion.min_tpr),
                format!("{:.2}", criterion.max_fpr),
                opt(cf.knee, 2),
                opt(cf.knee.map(|k| axis.knob_at(k)), 3),
                opt(cf.crossover.map(|c| c.0), 2),
                opt(cf.crossover.map(|c| c.1), 2),
            ]);
        }
        knees.write_csv(out_dir)?;
        csvs.push(out_dir.join("knees.csv"));

        Ok(IntensityCampaignReport {
            cells,
            frontiers,
            knees,
            csvs,
        })
    }
}

/// Per-method firing fractions over the attacked runs of one
/// `(cell, intensity)` point.
#[derive(Clone, Copy)]
struct FiredFractions {
    /// Windowed rule at the shipped operating threshold.
    windowed_op: f64,
    /// Memoryless one-window (Shewhart) rule on the standardized window
    /// means, z-threshold matched to CUSUM's in-control ARL.
    shewhart: f64,
    /// CUSUM on the standardized window means.
    cusum: f64,
    /// SPRT greedy verdict on the standardized window means.
    sprt: f64,
}

/// Fractions of attacked runs in which each detection method fired. The
/// Shewhart rule, CUSUM, and the SPRT all consume the same window means
/// standardized against this intensity's pooled honest windows, with
/// the Shewhart z-threshold set for the same in-control ARL as CUSUM —
/// the textbook memoryless-vs-accumulating comparison at matched
/// false-alarm calibration.
fn fired_fractions(
    honest_seeds: &[ClassSeed],
    greedy_seeds: &[ClassSeed],
    op: f64,
) -> FiredFractions {
    let means: Vec<f64> = honest_seeds
        .iter()
        .flat_map(|s| {
            s.windows
                .iter()
                .filter(|w| w.samples > 0)
                .map(WindowStat::mean)
        })
        .collect();
    let (mu0, sigma0) = calibration(&means);
    // One-sided Shewhart with in-control ARL = CUSUM's:
    // P(Z > z) = 1/ARL₀  ⇒  z = Φ⁻¹(1 − 1/ARL₀).
    let shewhart_z = detsci::adaptive::normal_quantile(1.0 - 1.0 / CUSUM_ARL0);
    let (mut at_op, mut shewhart_hits, mut cusum_hits, mut sprt_hits) = (0u64, 0u64, 0u64, 0u64);
    for cs in greedy_seeds {
        let series = densify(&cs.windows);
        if series.iter().any(|w| w.samples > 0 && w.peak > op) {
            at_op += 1;
        }
        let std = |w: &WindowStat| (w.mean() - mu0) / sigma0;
        if series.iter().any(|w| std(w) > shewhart_z) {
            shewhart_hits += 1;
        }
        let mut cusum = Cusum::with_arl(CUSUM_K, CUSUM_ARL0);
        if series.iter().any(|w| cusum.step(std(w))) {
            cusum_hits += 1;
        }
        let mut sprt = Sprt::new(SPRT_ALPHA, SPRT_BETA, 0.0, 1.0, 1.0);
        if series
            .iter()
            .any(|w| sprt.step(std(w)) == Some(SprtVerdict::Greedy))
        {
            sprt_hits += 1;
        }
    }
    let n = greedy_seeds.len().max(1) as f64;
    FiredFractions {
        windowed_op: at_op as f64 / n,
        shewhart: shewhart_hits as f64 / n,
        cusum: cusum_hits as f64 / n,
        sprt: sprt_hits as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_ascending_and_ends_at_full_strength() {
        assert!(INTENSITY_GRID.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*INTENSITY_GRID.last().unwrap(), 1.0);
        assert!(*INTENSITY_GRID.first().unwrap() > 0.0);
    }

    #[test]
    fn with_points_keeps_both_endpoints() {
        let base = IntensityCampaign::new(Quality::quick(), 1);
        let two = base.clone().with_points(2);
        assert_eq!(two.grid, vec![0.01, 1.0]);
        let three = base.clone().with_points(3);
        assert_eq!(three.grid.len(), 3);
        assert_eq!(three.grid[0], 0.01);
        assert_eq!(*three.grid.last().unwrap(), 1.0);
        assert_eq!(base.clone().with_points(99).grid, INTENSITY_GRID.to_vec());
        assert_eq!(base.with_points(1).grid, vec![1.0]);
    }

    #[test]
    fn table_ids_cover_every_detector() {
        for &det in DETECTORS {
            assert!(intensity_table_id(det).starts_with("intensity_"));
        }
    }
}
