//! Multi-cell world campaigns: greedy density × grid size.
//!
//! The paper measures one hotspot at a time; `repro world` tiles the
//! same scenario into a [`greedy80211::WorldSpec`] grid and sweeps how
//! many cells host the greedy receiver against how many cells the world
//! has. Every `(grid, greedy-density)` combination is one deterministic
//! lockstep world run; its per-cell damage/detection numbers land in
//! `world-<R>x<C>-g<K>.csv` (one row per cell), and a summary table
//! aggregates honest-vs-greedy goodput and detector counts per
//! combination. All artifacts are byte-identical at any `--jobs` width —
//! the CI smoke compares the CSVs from a `--jobs 1` and a `--jobs 8`
//! pass byte for byte.
//!
//! [`fig2_check`] is the identity check: it regenerates fig. 2 both
//! directly and through 1×1 worlds (same labels, same derived seeds) and
//! fails unless the two CSVs match byte for byte — the proof that the
//! lockstep path is the single-network path when there is nothing to
//! exchange. The unit tests run it.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use greedy80211::{NavInflationConfig, Run, Scenario, WorldOutcome, WorldSpec};
use sim::RunKey;

use crate::experiments::{nav_two_pair, UDP_NAV_SWEEP_US};
use crate::table::Experiment;
use crate::{sweep, Quality, RunCtx};

/// Grid sizes the default campaign sweeps.
pub const DEFAULT_GRIDS: &[(usize, usize)] = &[(1, 1), (2, 2), (3, 3)];

/// Greedy-cell densities the default campaign sweeps (fraction of
/// cells hosting the greedy receiver).
pub const DEFAULT_GREEDY_FRACS: &[f64] = &[0.0, 0.34, 1.0];

/// A planned `repro world` campaign.
#[derive(Debug, Clone)]
pub struct WorldCampaign {
    /// Run length and template seed source (`seeds[0]`).
    pub quality: Quality,
    /// Worker threads per world run.
    pub jobs: usize,
    /// Grid sizes to sweep.
    pub grids: Vec<(usize, usize)>,
    /// Greedy-cell densities to sweep.
    pub greedy_fracs: Vec<f64>,
    /// Arm per-cell 802.11 conformance checking.
    pub conform: bool,
    /// Whether declared greedy quirks exempt their rules.
    pub honor_whitelist: bool,
}

impl WorldCampaign {
    /// The default sweep at `quality` fidelity on `jobs` workers.
    pub fn new(quality: Quality, jobs: usize) -> Self {
        WorldCampaign {
            quality,
            jobs,
            grids: DEFAULT_GRIDS.to_vec(),
            greedy_fracs: DEFAULT_GREEDY_FRACS.to_vec(),
            conform: false,
            honor_whitelist: true,
        }
    }

    /// Restricts the campaign to a single grid size.
    pub fn with_grid(mut self, rows: usize, cols: usize) -> Self {
        self.grids = vec![(rows, cols)];
        self
    }

    /// The world spec of one campaign combination.
    pub fn spec(&self, rows: usize, cols: usize, greedy_cells: usize) -> WorldSpec {
        let mut spec = WorldSpec::grid(world_template(&self.quality), rows, cols);
        spec.greedy_cells = greedy_cells;
        spec.label = format!("world-{rows}x{cols}-g{greedy_cells}");
        spec
    }

    /// Runs every combination, writes one per-cell CSV each into
    /// `out_dir`, and returns the summary table plus conformance
    /// verdicts.
    ///
    /// # Errors
    ///
    /// Propagates CSV I/O errors; world validation failures surface as
    /// `InvalidData` (the pinned template never triggers them).
    pub fn run(&self, out_dir: &Path) -> io::Result<WorldCampaignReport> {
        std::fs::create_dir_all(out_dir)?;
        let job = self.conform.then(|| {
            let j = ::conform::ConformJob::new();
            if self.honor_whitelist {
                j
            } else {
                j.without_whitelist()
            }
        });
        let mut summary = Experiment::new(
            "world",
            "Multi-cell world: damage and detection vs greedy density and grid size",
            &[
                "grid",
                "cells",
                "greedy_cells",
                "honest_mbps",
                "greedy_mbps",
                "nav_detections",
                "spoof_flags",
            ],
        );
        let mut cell_csvs = Vec::new();
        let mut conform_reports = Vec::new();
        for &(rows, cols) in &self.grids {
            let n = rows.saturating_mul(cols);
            let mut seen = std::collections::BTreeSet::new();
            for &frac in &self.greedy_fracs {
                let k = ((frac * n as f64).round() as usize).min(n);
                if !seen.insert(k) {
                    continue; // two fractions rounding to the same k
                }
                let spec = self.spec(rows, cols, k);
                let mut run = Run::world(&spec).jobs(self.jobs);
                if let Some(j) = &job {
                    run = run.conform(j.clone());
                }
                let out = run
                    .execute()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                let path = out_dir.join(format!("{}.csv", spec.label));
                std::fs::write(&path, per_cell_csv(&out))?;
                cell_csvs.push(path);
                let fmt_mbps = |v: Option<f64>| match v {
                    Some(x) => format!("{x:.3}"),
                    None => "-".into(),
                };
                summary.push_row(vec![
                    format!("{rows}x{cols}"),
                    n.to_string(),
                    k.to_string(),
                    fmt_mbps(out.honest_goodput_mbps()),
                    fmt_mbps(out.greedy_goodput_mbps()),
                    out.nav_detections().to_string(),
                    out.spoof_flags().to_string(),
                ]);
                if let Some(j) = &job {
                    conform_reports.extend(j.drain());
                }
            }
        }
        conform_reports.sort_by(|(a, _), (b, _)| {
            let k = |key: &Option<RunKey>| {
                key.as_ref()
                    .map(|k| (k.experiment.clone(), k.point, k.seed))
            };
            k(a).cmp(&k(b))
        });
        Ok(WorldCampaignReport {
            summary,
            cell_csvs,
            conform_reports,
        })
    }
}

/// Result of a finished `repro world` campaign.
#[derive(Debug)]
pub struct WorldCampaignReport {
    /// One row per `(grid, greedy-density)` combination.
    pub summary: Experiment,
    /// Per-cell CSV files written, in combination order.
    pub cell_csvs: Vec<PathBuf>,
    /// Per-cell conformance verdicts (empty unless armed), in run-key
    /// order.
    pub conform_reports: Vec<(Option<RunKey>, ::conform::ConformReport)>,
}

impl WorldCampaignReport {
    /// Total non-whitelisted violations across every checked cell.
    pub fn conform_violations(&self) -> u64 {
        self.conform_reports
            .iter()
            .map(|(_, r)| r.violation_count())
            .sum()
    }
}

/// The campaign's per-cell template: the paper's 2-pair UDP hotspot with
/// a CTS-NAV-inflating receiver and GRC observing (not mitigating), so
/// greedy cells report damage *and* detections.
pub fn world_template(q: &Quality) -> Scenario {
    let mut s = nav_two_pair(
        true,
        NavInflationConfig::cts_only(10_000, 1.0),
        q,
        q.seeds.first().copied().unwrap_or(1),
    );
    s.grc = Some(false);
    s
}

/// Renders one world outcome as a per-cell CSV: position, channel,
/// greedy flag, per-flow goodput, detector counts.
pub fn per_cell_csv(out: &WorldOutcome) -> String {
    let mut csv = String::from(
        "cell,row,col,channel,greedy,flow0_mbps,flow1_mbps,nav_detections,spoof_flags\n",
    );
    for c in &out.cells {
        let flow = |i: usize| {
            if i < c.outcome.flows.len() {
                format!("{:.6}", c.outcome.goodput_mbps(i))
            } else {
                "-".into()
            }
        };
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{},{}",
            c.id,
            c.row,
            c.col,
            c.channel,
            c.greedy as u8,
            flow(0),
            flow(1),
            c.outcome.nav_detections(),
            c.outcome.spoof_flags(),
        );
    }
    csv
}

/// Fig. 2 regenerated through 1×1 worlds: same sweep label (hence the
/// same derived seeds) and the same measurement as
/// [`crate::experiments::fig02::run`], but every run goes through the
/// lockstep world path.
pub fn fig2_world(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig2",
        "Fig. 2 via 1×1 worlds: average contention window of GS and NS vs CTS-NAV inflation",
        &["inflate_us", "NS_avg_cw", "GS_avg_cw"],
    );
    let rows = sweep(ctx, "fig2", UDP_NAV_SWEEP_US, |&inflate, seed| {
        let s = nav_two_pair(true, NavInflationConfig::cts_only(inflate, 1.0), q, seed);
        let mut spec = WorldSpec::grid(s, 1, 1);
        spec.greedy_cells = 1; // the lone cell keeps the greedy receiver
        let world = Run::world(&spec).execute().expect("valid world");
        let out = &world.cells[0].outcome;
        let cw = |node| {
            out.metrics
                .node(node)
                .and_then(|n| n.avg_cw)
                .unwrap_or(f64::NAN)
        };
        vec![cw(out.senders[0]), cw(out.senders[1])]
    });
    for (&inflate, vals) in UDP_NAV_SWEEP_US.iter().zip(rows) {
        e.push_row(vec![
            inflate.to_string(),
            format!("{:.1}", vals[0]),
            format!("{:.1}", vals[1]),
        ]);
    }
    e
}

/// The 1×1-world identity check: regenerates fig. 2 directly and through
/// [`fig2_world`] and demands byte-identical CSVs.
///
/// # Errors
///
/// Returns a description of the first differing line when the identity
/// does not hold.
pub fn fig2_check(ctx: &RunCtx) -> Result<(), String> {
    let direct = crate::experiments::fig02::run(ctx).csv();
    let world = fig2_world(ctx).csv();
    if direct == world {
        return Ok(());
    }
    let diff = direct
        .lines()
        .zip(world.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| format!("line {}: direct `{a}` vs world `{b}`", i + 1))
        .unwrap_or_else(|| {
            format!(
                "line counts differ: {} direct vs {} world",
                direct.lines().count(),
                world.lines().count()
            )
        });
    Err(format!(
        "fig2 identity BROKEN: 1×1 world diverges from the direct run — {diff}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;

    fn tiny_quality() -> Quality {
        Quality {
            seeds: vec![1],
            duration: SimDuration::from_millis(300),
            samples: 100,
        }
    }

    #[test]
    fn one_by_one_world_matches_direct_sweep() {
        // The real fig02 generator over all 11 inflation points, direct
        // vs through 1×1 worlds, at 300 ms per run.
        assert_eq!(fig2_check(&RunCtx::sequential(tiny_quality())), Ok(()));
    }

    #[test]
    fn campaign_csvs_are_identical_at_any_job_count() {
        let campaign = |jobs: usize| {
            let mut c = WorldCampaign::new(tiny_quality(), jobs).with_grid(2, 1);
            c.greedy_fracs = vec![0.5];
            c
        };
        let dir1 = std::env::temp_dir().join("gr-world-jobs1");
        let dir2 = std::env::temp_dir().join("gr-world-jobs2");
        let r1 = campaign(1).run(&dir1).unwrap();
        let r2 = campaign(2).run(&dir2).unwrap();
        assert_eq!(r1.summary.csv(), r2.summary.csv());
        assert_eq!(r1.cell_csvs.len(), 1);
        let a = std::fs::read_to_string(&r1.cell_csvs[0]).unwrap();
        let b = std::fs::read_to_string(&r2.cell_csvs[0]).unwrap();
        assert_eq!(a, b, "per-cell CSVs must not depend on --jobs");
        assert!(a.starts_with("cell,row,col,channel,greedy,"));
        assert_eq!(a.lines().count(), 3, "header + one row per cell");
    }

    #[test]
    fn conforming_campaign_reports_honest_cells_clean() {
        let mut c = WorldCampaign::new(tiny_quality(), 2).with_grid(2, 1);
        c.greedy_fracs = vec![0.0];
        c.conform = true;
        let dir = std::env::temp_dir().join("gr-world-conform");
        let report = c.run(&dir).unwrap();
        assert_eq!(report.conform_reports.len(), 2, "one verdict per cell");
        assert_eq!(
            report.conform_violations(),
            0,
            "honest cells must be violation-free"
        );
        for (key, r) in &report.conform_reports {
            assert!(key.is_some(), "world verdicts carry the cell's run key");
            assert!(
                r.events_checked > 0,
                "the checker must actually tap each cell's event stream"
            );
        }
    }
}
