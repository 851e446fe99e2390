//! Detection-science campaign behind `repro roc` (DESIGN.md §17).
//!
//! Three layers over the same recorded per-window decision statistics:
//!
//! 1. **ROC frontiers** — every detector runs *threshold-free* under
//!    labelled honest and greedy campaigns (honest and attacked runs
//!    share one [`RunKey`], hence matched channel conditions); the
//!    threshold grid is swept offline over the recorded statistics,
//!    yielding one `roc_<detector>.csv` frontier per detector plus an
//!    `auc_summary.csv` with the exact Mann–Whitney AUC and the shipped
//!    operating point of each `(detector, traffic-mix)` cell.
//! 2. **Load-adaptive thresholds** — honest runs across an offered-load
//!    sweep (`adaptive_validation.csv`) show the fixed spoof-guard
//!    threshold's per-window false-positive rate drifting with load
//!    while [`detsci::AdaptiveThreshold`] holds it near the budget.
//! 3. **Sequential detectors** — CUSUM and SPRT replay the greedy
//!    window series; their detection delays land in
//!    `delay_distribution.csv` next to the windowed fixed-threshold
//!    detector's, and in the `detect_delay_*_us` obs histograms.
//!
//! The evaluation itself narrates into a standard `obs` recorder
//! (threshold trajectories, CUSUM/SPRT crossings, delay histograms)
//! exported under the `roc/eval` run key. Everything downstream of the
//! simulations is plain arithmetic and the simulations are keyed by
//! [`RunKey`] alone, so every artifact is byte-identical at any `--jobs`
//! width.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use detsci::events::{
    CUSUM_CROSS, DELAY_HIST_CUSUM, DELAY_HIST_SPRT, DELAY_HIST_WINDOWED, SPRT_CROSS, THRESH_UPDATE,
};
use detsci::roc::linear_grid;
use detsci::{auc, AdaptiveConfig, AdaptiveThreshold, Cusum, OperatingPoint, Sprt, SprtVerdict};
use greedy80211::detect::{GrcSnapshot, GrcTuning, WindowStat, WindowTrack};
use greedy80211::{
    Axis, CrossLayerDetector, DominoDetector, FakeAckDetector, PolicySlot, Run, RunOutcome,
    Scenario, TransportKind,
};
use net::NetworkBuilder;
use phy::{PhyParams, Position};
use sim::{RunKey, SimDuration, SimTime};

use crate::cc::LOSSY_BER;
use crate::sweep::collect;
use crate::table::Experiment;
use crate::{Quality, RunCtx};

/// One `(detector, traffic mix)` ROC cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Detector id (`nav`, `spoof`, `fake`, `cross`, `domino`).
    pub detector: &'static str,
    /// Traffic-mix id (`udp`, `tcp`).
    pub mix: &'static str,
}

/// Cells swept, in artifact order. The NAV and spoof guards get both
/// mixes: the NAV margin statistic depends on which frames carry
/// inflated NAVs, and the spoof guard's evidence stream depends on the
/// victim still transmitting — under TCP the attack collapses the victim
/// flow and starves ACK vetting (visible as a much weaker frontier),
/// while saturating UDP keeps the stream alive. The remaining detectors
/// run under the mix their misbehavior targets.
pub const CELLS: &[Cell] = &[
    Cell {
        detector: "nav",
        mix: "udp",
    },
    Cell {
        detector: "nav",
        mix: "tcp",
    },
    Cell {
        detector: "spoof",
        mix: "udp",
    },
    Cell {
        detector: "spoof",
        mix: "tcp",
    },
    Cell {
        detector: "fake",
        mix: "udp",
    },
    Cell {
        detector: "cross",
        mix: "tcp",
    },
    Cell {
        detector: "domino",
        mix: "udp",
    },
];

/// Detector ids in per-detector CSV order.
pub const DETECTORS: &[&str] = &["nav", "spoof", "fake", "cross", "domino"];

/// Offered UDP loads (payload bits/s) of the adaptive-threshold
/// validation sweep — spanning the regime where a fixed per-window
/// threshold's false-positive rate visibly drifts.
pub const ADAPTIVE_LOADS_BPS: &[u64] = &[500_000, 2_000_000, 8_000_000];

/// CUSUM reference value: half the standardized shift the test is tuned
/// to catch fastest (δ = 1σ).
pub const CUSUM_K: f64 = 0.5;
/// CUSUM in-control average run length target (windows) — the classic
/// "370" of a 3σ Shewhart chart.
pub const CUSUM_ARL0: f64 = 370.0;
/// SPRT false-alarm target α.
pub const SPRT_ALPHA: f64 = 0.01;
/// SPRT miss target β.
pub const SPRT_BETA: f64 = 0.05;

/// A planned `repro roc` campaign.
#[derive(Debug, Clone)]
pub struct RocCampaign {
    /// Run length and replication seeds.
    pub quality: Quality,
    /// Worker threads the simulation batch shards across.
    pub jobs: usize,
    /// Decision-statistic window width (default 200 ms).
    pub window: SimDuration,
}

/// Result of a finished `repro roc` campaign.
#[derive(Debug)]
pub struct RocCampaignReport {
    /// AUC and operating point per `(detector, mix)` cell.
    pub auc: Experiment,
    /// Fixed vs adaptive false-positive rate per offered load.
    pub adaptive: Experiment,
    /// Detection-delay quantiles per `(detector, mix, method)`.
    pub delays: Experiment,
    /// Per-detector ROC frontier CSVs written, in [`DETECTORS`] order.
    pub roc_csvs: Vec<PathBuf>,
    /// Directory the evaluation's obs artifacts were exported into.
    pub obs_dir: PathBuf,
}

impl RocCampaign {
    /// The default cell set at `quality` fidelity with 200 ms windows.
    pub fn new(quality: Quality, jobs: usize) -> Self {
        RocCampaign {
            quality,
            jobs,
            window: SimDuration::from_millis(200),
        }
    }

    /// Runs the campaign and writes every artifact into `out_dir`.
    ///
    /// # Errors
    ///
    /// Propagates CSV/obs artifact I/O errors.
    pub fn run(&self, out_dir: &Path) -> io::Result<RocCampaignReport> {
        std::fs::create_dir_all(out_dir)?;
        let ctx = RunCtx::with_jobs(self.quality.clone(), self.jobs);
        let window = self.window;
        let width_us = window.as_micros();

        // Phase 1: every (cell, seed) simulation pair, one parallel batch.
        let per_cell = collect(&ctx, "roc/cells", CELLS, |cell, key| {
            measure_cell(cell, &self.quality, window, key)
        });
        // Phase 2: the honest load sweep for adaptive-threshold validation.
        let per_load = collect(&ctx, "roc/adaptive", ADAPTIVE_LOADS_BPS, |&load, key| {
            measure_adaptive(load, &self.quality, window, key)
        });

        // Phase 3 (sequential, pure arithmetic): threshold sweeps,
        // adaptive replay, sequential-detector replay — narrated into one
        // recorder exported under the `roc/eval` key.
        let rec = obs::ObsSpec {
            capacity: 16_384,
            probe_interval: None,
            filter: obs::Filter::all(),
        }
        .recorder();

        // --- ROC frontiers + AUC summary -------------------------------
        let pooled: Vec<(Vec<f64>, Vec<f64>)> = per_cell
            .iter()
            .map(|seeds| {
                let mut honest = Vec::new();
                let mut greedy = Vec::new();
                for cs in seeds {
                    honest.extend_from_slice(&cs.honest);
                    greedy.extend_from_slice(&cs.greedy);
                }
                (honest, greedy)
            })
            .collect();
        let mut roc_csvs = Vec::new();
        for &det in DETECTORS {
            let mut table = Experiment::new(
                roc_table_id(det),
                format!("ROC frontier: {det} detector, threshold sweep per traffic mix"),
                &[
                    "mix",
                    "threshold",
                    "tp",
                    "fp",
                    "tn",
                    "fn",
                    "tpr",
                    "fpr",
                    "precision",
                ],
            );
            let grid = grid_for(det);
            for (ci, cell) in CELLS.iter().enumerate() {
                if cell.detector != det {
                    continue;
                }
                let (honest, greedy) = &pooled[ci];
                for p in detsci::roc_frontier(honest, greedy, &grid) {
                    table.push_row(vec![
                        cell.mix.to_string(),
                        format!("{:.3}", p.threshold),
                        p.tp.to_string(),
                        p.fp.to_string(),
                        p.tn.to_string(),
                        p.fn_.to_string(),
                        format!("{:.4}", p.tpr()),
                        format!("{:.4}", p.fpr()),
                        format!("{:.4}", p.precision()),
                    ]);
                }
            }
            table.write_csv(out_dir)?;
            roc_csvs.push(out_dir.join(format!("{}.csv", roc_table_id(det))));
        }
        let mut auc_table = Experiment::new(
            "auc_summary",
            "Detection science: AUC and shipped operating point per detector × mix",
            &[
                "detector",
                "mix",
                "honest_n",
                "greedy_n",
                "auc",
                "op_threshold",
                "op_tpr",
                "op_fpr",
                "op_precision",
            ],
        );
        for (ci, cell) in CELLS.iter().enumerate() {
            let (honest, greedy) = &pooled[ci];
            let area = auc(honest, greedy).unwrap_or(f64::NAN);
            let op = OperatingPoint::at(honest, greedy, operating_threshold(cell.detector));
            auc_table.push_row(vec![
                cell.detector.to_string(),
                cell.mix.to_string(),
                honest.len().to_string(),
                greedy.len().to_string(),
                format!("{area:.4}"),
                format!("{:.3}", op.threshold),
                format!("{:.4}", op.tpr),
                format!("{:.4}", op.fpr),
                format!("{:.4}", op.precision),
            ]);
        }
        auc_table.write_csv(out_dir)?;

        // --- adaptive-threshold validation -----------------------------
        let fixed = operating_threshold("spoof");
        let mut adaptive_table = Experiment::new(
            "adaptive_validation",
            "Load-adaptive thresholds: honest-run window FPR, fixed vs adaptive",
            &[
                "load_mbps",
                "windows",
                "avg_rate",
                "fixed_fpr",
                "adaptive_fpr",
            ],
        );
        for (li, (&load, seeds)) in ADAPTIVE_LOADS_BPS.iter().zip(&per_load).enumerate() {
            let evals: Vec<AdaptiveEval> = seeds
                .iter()
                .enumerate()
                .map(|(si, series)| {
                    // Seed 0's threshold trajectory is narrated; one
                    // trajectory per load keeps the event volume bounded.
                    let narrate = (si == 0).then_some((&rec, li as u16, width_us));
                    eval_adaptive(series, fixed, narrate)
                })
                .collect();
            let med = |f: fn(&AdaptiveEval) -> f64| {
                sim::stats::median(&evals.iter().map(f).collect::<Vec<_>>()).expect("seeds")
            };
            adaptive_table.push_row(vec![
                format!("{:.1}", load as f64 / 1e6),
                format!("{:.0}", med(|e| e.windows)),
                format!("{:.1}", med(|e| e.avg_rate)),
                format!("{:.4}", med(|e| e.fixed_fpr)),
                format!("{:.4}", med(|e| e.adaptive_fpr)),
            ]);
        }
        adaptive_table.write_csv(out_dir)?;

        // --- sequential detectors: detection-delay comparison ----------
        let mut delay_table = Experiment::new(
            "delay_distribution",
            "Detection delay: windowed vs CUSUM vs SPRT over greedy window series",
            &[
                "detector", "mix", "method", "runs", "fired", "p50_us", "p95_us",
            ],
        );
        for (ci, cell) in CELLS.iter().enumerate() {
            if !matches!(cell.detector, "nav" | "spoof") {
                continue;
            }
            let seeds = &per_cell[ci];
            // Standardization constants from pooled honest window means —
            // one honest calibration covers every seed of the cell.
            let means: Vec<f64> = seeds
                .iter()
                .flat_map(|cs| {
                    cs.honest_windows
                        .iter()
                        .filter(|w| w.samples > 0)
                        .map(WindowStat::mean)
                })
                .collect();
            let (mu0, sigma0) = calibration(&means);
            let op = operating_threshold(cell.detector);
            let mut acc = [
                DelayAcc::new("windowed", DELAY_HIST_WINDOWED),
                DelayAcc::new("cusum", DELAY_HIST_CUSUM),
                DelayAcc::new("sprt", DELAY_HIST_SPRT),
            ];
            for cs in seeds {
                let series = densify(&cs.greedy_windows);
                for a in &mut acc {
                    a.runs += 1;
                }
                if series.is_empty() {
                    continue;
                }
                let base = series[0].idx;
                let std = |w: &WindowStat| (w.mean() - mu0) / sigma0;
                // Windowed fixed-threshold: first window whose peak
                // exceeds the shipped threshold.
                if let Some(pos) = series.iter().position(|w| w.samples > 0 && w.peak > op) {
                    acc[0].fire(&rec, base, pos, width_us);
                }
                // CUSUM.
                let mut cusum = Cusum::with_arl(CUSUM_K, CUSUM_ARL0);
                for (pos, w) in series.iter().enumerate() {
                    if cusum.step(std(w)) {
                        let at = acc[1].fire(&rec, base, pos, width_us);
                        rec.borrow_mut().emit(
                            at,
                            ci as u16,
                            &CUSUM_CROSS,
                            &[(base + pos as u64) as f64, cusum.value()],
                        );
                        break;
                    }
                }
                // SPRT: first H₁ verdict; H₀ verdicts rearm (renewal).
                let mut sprt = Sprt::new(SPRT_ALPHA, SPRT_BETA, 0.0, 1.0, 1.0);
                for (pos, w) in series.iter().enumerate() {
                    let x = std(w);
                    if sprt.step(x) == Some(SprtVerdict::Greedy) {
                        let at = acc[2].fire(&rec, base, pos, width_us);
                        rec.borrow_mut().emit(
                            at,
                            ci as u16,
                            &SPRT_CROSS,
                            &[(base + pos as u64) as f64, x, 1.0],
                        );
                        break;
                    }
                }
            }
            for a in &acc {
                delay_table.push_row(a.row(cell));
            }
        }
        delay_table.write_csv(out_dir)?;

        // --- obs export ------------------------------------------------
        let key = RunKey::new("roc/eval", 0, 0);
        let report = rec.borrow_mut().drain_report();
        let obs_dir = out_dir.join("obs").join(obs::run_dir_name(&key));
        obs::write_artifacts(&obs_dir, &key, &report)?;

        Ok(RocCampaignReport {
            auc: auc_table,
            adaptive: adaptive_table,
            delays: delay_table,
            roc_csvs,
            obs_dir,
        })
    }
}

/// Per-detector frontier CSV ids (static for [`Experiment`]).
///
/// # Panics
///
/// Panics on a detector id outside [`DETECTORS`].
pub fn roc_table_id(detector: &str) -> &'static str {
    match detector {
        "nav" => "roc_nav",
        "spoof" => "roc_spoof",
        "fake" => "roc_fake",
        "cross" => "roc_cross",
        "domino" => "roc_domino",
        other => panic!("unknown detector {other}"),
    }
}

/// Threshold grid per detector, spanning each statistic's natural range
/// (NAV margin µs, RSSI deviation dB, loss-gap, retx ratio, backoff
/// deficit in slots).
///
/// # Panics
///
/// Panics on a detector id outside [`DETECTORS`].
pub fn grid_for(detector: &str) -> Vec<f64> {
    match detector {
        "nav" => linear_grid(0.0, 12_000.0, 24),
        "spoof" => linear_grid(0.0, 8.0, 32),
        "fake" => linear_grid(0.0, 0.5, 25),
        "cross" => linear_grid(0.0, 1.0, 20),
        "domino" => linear_grid(0.0, 15.5, 31),
        other => panic!("unknown detector {other}"),
    }
}

/// The threshold each detector actually ships with — the operating point
/// reported in `auc_summary.csv`, pulled from the defaults so the table
/// can never drift from the code.
///
/// # Panics
///
/// Panics on a detector id outside [`DETECTORS`].
pub fn operating_threshold(detector: &str) -> f64 {
    match detector {
        "nav" => GrcTuning::default().nav_tolerance_us as f64,
        "spoof" => GrcTuning::default().rssi_threshold_db,
        "fake" => FakeAckDetector::default().threshold,
        "cross" => CrossLayerDetector::default().ratio_threshold,
        "domino" => {
            let d = DominoDetector::new(PhyParams::dot11b());
            d.params.cw_min as f64 / 2.0 * d.threshold_fraction
        }
        other => panic!("unknown detector {other}"),
    }
}

/// Raw labelled measurements of one `(cell, seed)` job.
#[derive(Debug, Clone, Default)]
pub struct CellSeed {
    /// Honest-class decision-statistic samples.
    pub honest: Vec<f64>,
    /// Greedy-class decision-statistic samples.
    pub greedy: Vec<f64>,
    /// Merged per-window honest series (windowed detectors only).
    pub honest_windows: Vec<WindowStat>,
    /// Merged per-window greedy series (windowed detectors only).
    pub greedy_windows: Vec<WindowStat>,
}

/// Which windowed guard a cell reads.
#[derive(Debug, Clone, Copy)]
pub enum Guard {
    /// The GRC NAV-inflation guard (per-window NAV margin µs).
    Nav,
    /// The GRC ACK-spoof guard (per-window RSSI deviation dB).
    Spoof,
}

/// One `(cell, seed)` job at full attack intensity: the honest run and
/// the attacked run under the same key, reduced to labelled statistics.
pub fn measure_cell(cell: &Cell, q: &Quality, window: SimDuration, key: RunKey) -> CellSeed {
    measure_cell_at(cell, q, window, key, 1.0)
}

/// Like [`measure_cell`], but with the attack scaled to `intensity` on
/// the cell's misbehavior axis ([`Axis::for_detector`]): NAV inflation
/// in µs, spoof/fake forgery probability, or DOMINO backoff fraction.
/// Intensity 1.0 reproduces [`measure_cell`] exactly. Both classes run
/// under the same `key`, so channel draws are matched.
///
/// # Panics
///
/// Panics on a detector id outside [`DETECTORS`].
pub fn measure_cell_at(
    cell: &Cell,
    q: &Quality,
    window: SimDuration,
    key: RunKey,
    intensity: f64,
) -> CellSeed {
    let honest = measure_class(cell, q, window, key.clone(), intensity, false);
    let greedy = measure_class(cell, q, window, key, intensity, true);
    CellSeed {
        honest: honest.stats,
        greedy: greedy.stats,
        honest_windows: honest.windows,
        greedy_windows: greedy.windows,
    }
}

/// One class of one `(cell, intensity, seed)` measurement, as produced
/// by [`measure_class`] — the single-simulation unit the intensity
/// campaign shards so each run can carry its own checkpoint file.
#[derive(Debug, Clone, Default)]
pub struct ClassSeed {
    /// Decision-statistic samples of this class.
    pub stats: Vec<f64>,
    /// Merged per-window series (windowed detectors only).
    pub windows: Vec<WindowStat>,
}

/// One simulation: the honest (`attacked = false`) or attacked half of a
/// cell at `intensity`, reduced to labelled statistics. The spoof/cross
/// victim comes from a probe topology build (deterministic, no
/// execution), so the attacked class never depends on an executed honest
/// run. [`measure_cell_at`] is exactly both classes under one key.
///
/// # Panics
///
/// Panics on a detector id outside [`DETECTORS`].
pub fn measure_class(
    cell: &Cell,
    q: &Quality,
    window: SimDuration,
    key: RunKey,
    intensity: f64,
    attacked: bool,
) -> ClassSeed {
    match cell.detector {
        "nav" => measure_windowed(cell.mix, q, window, key, Guard::Nav, intensity, attacked),
        "spoof" => measure_windowed(cell.mix, q, window, key, Guard::Spoof, intensity, attacked),
        "fake" => measure_fake(q, key, intensity, attacked),
        "cross" => measure_cross(q, key, intensity, attacked),
        "domino" => measure_domino(q, key, intensity, attacked),
        other => panic!("unknown detector {other}"),
    }
}

/// The standard two-pair topology with windowed GRC statistics armed
/// (detect-only — ROC runs must not mitigate, or the statistic stream
/// after the first detection would describe the mitigated channel).
pub fn windowed_scenario(mix: &str, q: &Quality, window: SimDuration, ber: f64) -> Scenario {
    Scenario {
        transport: match mix {
            "udp" => TransportKind::SATURATING_UDP,
            _ => TransportKind::Tcp,
        },
        byte_error_rate: ber,
        grc: Some(false),
        grc_windows: Some(window),
        duration: q.duration,
        ..Scenario::default()
    }
}

/// Merges one guard's window tracks across all GRC nodes into a single
/// idx-ordered series: counts and sums add, peaks take the max (a window
/// is flagged when *any* observer's peak crosses).
pub fn guard_windows(out: &RunOutcome, guard: Guard) -> Vec<WindowStat> {
    let mut merged: BTreeMap<u64, WindowStat> = BTreeMap::new();
    let pick = |snap: &GrcSnapshot| -> Option<WindowTrack> {
        match guard {
            Guard::Nav => snap.nav.windows.clone(),
            Guard::Spoof => snap.spoof.windows.clone(),
        }
    };
    for (_, snap) in &out.grc {
        let Some(track) = pick(snap) else { continue };
        for w in track.stats() {
            merged
                .entry(w.idx)
                .and_modify(|m| {
                    if w.peak > m.peak {
                        m.peak = w.peak;
                    }
                    m.sum += w.sum;
                    m.samples += w.samples;
                })
                .or_insert(w);
        }
    }
    merged.into_values().collect()
}

fn measure_windowed(
    mix: &str,
    q: &Quality,
    window: SimDuration,
    key: RunKey,
    guard: Guard,
    intensity: f64,
    attacked: bool,
) -> ClassSeed {
    // The spoof cell needs a lossy channel: ACK forgery only has frames
    // to lie about when some are actually lost (same rate as `repro
    // cc`'s spoof cells, both classes so labels differ only by attack).
    let ber = match guard {
        Guard::Nav => 0.0,
        Guard::Spoof => LOSSY_BER,
    };
    let mut s = windowed_scenario(mix, q, window, ber);
    if attacked {
        let cfg = match guard {
            Guard::Nav => Axis::NavInflation
                .receiver_config(intensity, &[])
                .expect("receiver axis"),
            Guard::Spoof => {
                let victim = s.build().expect("valid scenario").receivers[0];
                Axis::AckSpoof
                    .receiver_config(intensity, &[victim])
                    .expect("receiver axis")
            }
        };
        s.greedy = vec![(1, cfg)];
    }
    let run = Run::plan(&s).keyed(key).execute().expect("valid scenario");
    let windows = guard_windows(&run, guard);
    ClassSeed {
        stats: windows.iter().map(|w| w.peak).collect(),
        windows,
    }
}

/// Offered load of the fake-ACK cell (bits/s per pair). Moderate on
/// purpose: under *saturating* UDP the sender's interface queue is
/// permanently full, almost every probe is dropped before reaching the
/// air (queue drops don't count as sent probes), and the round-trip loss
/// estimate rests on a handful of samples.
const FAKE_LOAD_BPS: u64 = 1_000_000;

/// The fake-ACK cell's scenario: probed moderate-load UDP over a lossy
/// channel (the detector compares probed round-trip loss against the
/// MAC-predicted value, so there must be losses to predict).
fn fake_scenario(q: &Quality) -> Scenario {
    Scenario {
        transport: TransportKind::Udp {
            rate_bps: FAKE_LOAD_BPS,
        },
        byte_error_rate: LOSSY_BER,
        probes: true,
        duration: q.duration,
        ..Scenario::default()
    }
}

/// Fake-ACK decision statistic for pair `i`: measured round-trip probe
/// loss minus the honest expectation from the sender's MAC counters.
/// `None` when no probe completed (very short runs).
fn fake_stat(out: &RunOutcome, i: usize) -> Option<f64> {
    let d = FakeAckDetector::default();
    let mac_loss = FakeAckDetector::mac_loss_from_counters(
        &out.metrics
            .node(out.senders[i])
            .expect("sender metrics")
            .counters,
    );
    let probe = out.metrics.flow(out.probe_flows[i])?.probe_app_loss?;
    Some(probe - d.expected_round_trip_loss(mac_loss))
}

fn measure_fake(q: &Quality, key: RunKey, intensity: f64, attacked: bool) -> ClassSeed {
    let mut s = fake_scenario(q);
    if attacked {
        s.greedy = vec![(
            1,
            Axis::FakeAck
                .receiver_config(intensity, &[])
                .expect("receiver axis"),
        )];
    }
    let run = Run::plan(&s).keyed(key).execute().expect("valid scenario");
    ClassSeed {
        stats: if attacked {
            fake_stat(&run, 1).into_iter().collect()
        } else {
            (0..s.pairs).filter_map(|i| fake_stat(&run, i)).collect()
        },
        ..ClassSeed::default()
    }
}

/// The cross-layer cell's scenario: two TCP pairs over a lossy channel.
fn cross_scenario(q: &Quality) -> Scenario {
    Scenario {
        byte_error_rate: LOSSY_BER,
        duration: q.duration,
        ..Scenario::default()
    }
}

/// Cross-layer decision statistic for flow `i`: fraction of TCP
/// retransmissions that concerned MAC-acknowledged segments.
fn cross_stat(out: &RunOutcome, i: usize) -> f64 {
    let m = out.metrics.flow(out.flows[i]).expect("flow metrics");
    if m.retransmissions == 0 {
        0.0
    } else {
        m.retx_of_mac_acked as f64 / m.retransmissions as f64
    }
}

fn measure_cross(q: &Quality, key: RunKey, intensity: f64, attacked: bool) -> ClassSeed {
    let mut s = cross_scenario(q);
    if attacked {
        let victim = s.build().expect("valid scenario").receivers[0];
        s.greedy = vec![(
            1,
            Axis::AckSpoof
                .receiver_config(intensity, &[victim])
                .expect("receiver axis"),
        )];
    }
    let run = Run::plan(&s).keyed(key).execute().expect("valid scenario");
    ClassSeed {
        stats: if attacked {
            // The victim is pair 0's flow — its sender receives the
            // forged MAC ACKs, so its TCP retransmissions are the
            // evidence.
            vec![cross_stat(&run, 0)]
        } else {
            (0..s.pairs).map(|i| cross_stat(&run, i)).collect()
        },
        ..ClassSeed::default()
    }
}

/// One DOMINO run (the ext2 manual topology: two UDP pairs, tracing on)
/// reduced to per-sender backoff deficits `CWmin/2 − avg` in slots —
/// larger means greedier. Senders the detector never judged are absent.
/// `greedy_fraction` is the cheater's contention-window fraction
/// (`None` = honest backoff).
fn domino_deficits(q: &Quality, seed: u64, greedy_fraction: Option<f64>) -> Vec<(bool, f64)> {
    let params = PhyParams::dot11b();
    let greedy_sender = greedy_fraction.is_some();
    let mut b = NetworkBuilder::new(params).seed(seed);
    let s0 = b.add_node(Position::new(0.0, 0.0));
    let r0 = b.add_node(Position::new(20.0, 0.0));
    let s1 = if let Some(fraction) = greedy_fraction {
        b.add_node_with_policy(
            Position::new(0.0, 20.0),
            PolicySlot::greedy_sender(fraction),
        )
    } else {
        b.add_node(Position::new(0.0, 20.0))
    };
    let r1 = b.add_node(Position::new(20.0, 20.0));
    b.udp_flow(s0, r0, 1024, 10_000_000);
    b.udp_flow(s1, r1, 1024, 10_000_000);
    let mut net = b.build();
    let log = phy::obs::TxLog::default();
    net.tap(Box::new(log.clone()));
    net.run(q.duration);
    let report = DominoDetector::new(params).analyze(&log.events());
    let nominal = params.cw_min as f64 / 2.0;
    [(s0, false), (s1, greedy_sender)]
        .into_iter()
        .filter_map(|(id, is_greedy)| {
            report
                .avg_backoff_slots
                .get(&id.0)
                .map(|&avg| (is_greedy, nominal - avg))
        })
        .collect()
}

fn measure_domino(q: &Quality, key: RunKey, intensity: f64, attacked: bool) -> ClassSeed {
    let seed = key.stream_seed();
    ClassSeed {
        stats: if attacked {
            domino_deficits(q, seed, Some(Axis::BackoffCheat.knob_at(intensity)))
                .into_iter()
                .filter(|(g, _)| *g)
                .map(|(_, d)| d)
                .collect()
        } else {
            domino_deficits(q, seed, None)
                .into_iter()
                .map(|(_, d)| d)
                .collect()
        },
        ..ClassSeed::default()
    }
}

/// One adaptive-sweep job: an honest run at the given offered load, its
/// spoof-guard windows merged and densified (empty windows are real "no
/// traffic" data points for the rate estimator).
fn measure_adaptive(
    load_bps: u64,
    q: &Quality,
    window: SimDuration,
    key: RunKey,
) -> Vec<WindowStat> {
    let s = Scenario {
        transport: TransportKind::Udp { rate_bps: load_bps },
        grc: Some(false),
        grc_windows: Some(window),
        duration: q.duration,
        ..Scenario::default()
    };
    let out = Run::plan(&s).keyed(key).execute().expect("valid scenario");
    densify(&guard_windows(&out, Guard::Spoof))
}

/// Fills index gaps of an idx-ordered window series with empty windows,
/// from the first observed index to the last.
pub fn densify(windows: &[WindowStat]) -> Vec<WindowStat> {
    let (Some(first), Some(last)) = (windows.first(), windows.last()) else {
        return Vec::new();
    };
    let mut by_idx: BTreeMap<u64, WindowStat> =
        windows.iter().map(|w| (w.idx, w.clone())).collect();
    (first.idx..=last.idx)
        .map(|idx| {
            by_idx.remove(&idx).unwrap_or(WindowStat {
                idx,
                peak: 0.0,
                sum: 0.0,
                samples: 0,
            })
        })
        .collect()
}

/// One honest series replayed through the fixed and adaptive thresholds.
#[derive(Debug, Clone, Copy)]
struct AdaptiveEval {
    windows: f64,
    avg_rate: f64,
    fixed_fpr: f64,
    adaptive_fpr: f64,
}

/// Replays a densified honest window series; FPRs count non-empty
/// windows after the first quarter (both estimators' settle-in), over
/// the same denominator so the comparison is fair.
fn eval_adaptive(
    series: &[WindowStat],
    fixed: f64,
    narrate: Option<(&obs::RecorderHandle, u16, u64)>,
) -> AdaptiveEval {
    let mut adaptive = AdaptiveThreshold::new(AdaptiveConfig::default(), fixed);
    let skip = series.len() / 4;
    let (mut denom, mut fixed_hits, mut adaptive_hits) = (0u64, 0u64, 0u64);
    let mut total_samples = 0u64;
    for (i, w) in series.iter().enumerate() {
        total_samples += w.samples;
        let flagged = adaptive.step(w.samples, w.mean(), w.peak);
        if let Some((rec, node, width_us)) = narrate {
            rec.borrow_mut().emit(
                SimTime::from_micros((w.idx + 1) * width_us),
                node,
                &THRESH_UPDATE,
                &[w.idx as f64, adaptive.rate(), adaptive.threshold()],
            );
        }
        if i < skip || w.samples == 0 {
            continue;
        }
        denom += 1;
        if w.peak > fixed {
            fixed_hits += 1;
        }
        if flagged {
            adaptive_hits += 1;
        }
    }
    let fpr = |hits: u64| {
        if denom == 0 {
            0.0
        } else {
            hits as f64 / denom as f64
        }
    };
    AdaptiveEval {
        windows: series.len() as f64,
        avg_rate: if series.is_empty() {
            0.0
        } else {
            total_samples as f64 / series.len() as f64
        },
        fixed_fpr: fpr(fixed_hits),
        adaptive_fpr: fpr(adaptive_hits),
    }
}

/// In-control mean and scale from pooled honest window means; the scale
/// falls back to 1.0 when the honest statistic is (near-)constant, e.g.
/// all-zero NAV margins.
pub fn calibration(means: &[f64]) -> (f64, f64) {
    if means.is_empty() {
        return (0.0, 1.0);
    }
    let n = means.len() as f64;
    let mu = means.iter().sum::<f64>() / n;
    let var = means.iter().map(|m| (m - mu) * (m - mu)).sum::<f64>() / n;
    let sd = var.sqrt();
    (mu, if sd > 1e-9 { sd } else { 1.0 })
}

/// Detection-delay accumulator for one method of one cell.
struct DelayAcc {
    method: &'static str,
    hist: &'static str,
    runs: u64,
    delays_us: Vec<f64>,
}

impl DelayAcc {
    fn new(method: &'static str, hist: &'static str) -> Self {
        DelayAcc {
            method,
            hist,
            runs: 0,
            delays_us: Vec::new(),
        }
    }

    /// Records a detection `pos` windows into the series (delay counts
    /// the firing window itself) and returns the virtual firing time.
    fn fire(&mut self, rec: &obs::RecorderHandle, base: u64, pos: usize, width_us: u64) -> SimTime {
        let delay_us = (pos as u64 + 1) * width_us;
        self.delays_us.push(delay_us as f64);
        rec.borrow_mut().record_hist(self.hist, delay_us as f64);
        SimTime::from_micros((base + pos as u64 + 1) * width_us)
    }

    fn row(&self, cell: &Cell) -> Vec<String> {
        let mut sorted = self.delays_us.clone();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            sorted[((sorted.len() - 1) as f64 * p).round() as usize]
        };
        vec![
            cell.detector.to_string(),
            cell.mix.to_string(),
            self.method.to_string(),
            self.runs.to_string(),
            self.delays_us.len().to_string(),
            format!("{:.0}", q(0.5)),
            format!("{:.0}", q(0.95)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_quality() -> Quality {
        Quality {
            seeds: vec![1],
            duration: SimDuration::from_millis(300),
            samples: 100,
        }
    }

    fn tiny_campaign(jobs: usize) -> RocCampaign {
        RocCampaign {
            quality: tiny_quality(),
            jobs,
            window: SimDuration::from_millis(50),
        }
    }

    /// Every file under `root`, as (relative path, bytes), sorted.
    fn dir_files(root: &Path) -> Vec<(String, Vec<u8>)> {
        fn walk(dir: &Path, base: &Path, out: &mut Vec<(String, Vec<u8>)>) {
            let mut entries: Vec<_> = std::fs::read_dir(dir)
                .expect("readable dir")
                .map(|e| e.expect("entry").path())
                .collect();
            entries.sort();
            for p in entries {
                if p.is_dir() {
                    walk(&p, base, out);
                } else {
                    let rel = p.strip_prefix(base).expect("under base");
                    out.push((
                        rel.to_string_lossy().into_owned(),
                        std::fs::read(&p).expect("readable file"),
                    ));
                }
            }
        }
        let mut out = Vec::new();
        walk(root, root, &mut out);
        out
    }

    #[test]
    fn campaign_artifacts_identical_at_any_job_count() {
        let dir1 = std::env::temp_dir().join("gr-roc-jobs1");
        let dir2 = std::env::temp_dir().join("gr-roc-jobs2");
        for d in [&dir1, &dir2] {
            let _ = std::fs::remove_dir_all(d);
        }
        let r1 = tiny_campaign(1).run(&dir1).unwrap();
        let _r2 = tiny_campaign(2).run(&dir2).unwrap();
        // One AUC row per cell, delay rows for the windowed cells only.
        assert_eq!(r1.auc.rows.len(), CELLS.len());
        assert_eq!(r1.adaptive.rows.len(), ADAPTIVE_LOADS_BPS.len());
        assert_eq!(r1.delays.rows.len(), 4 * 3, "4 windowed cells × 3 methods");
        assert_eq!(r1.roc_csvs.len(), DETECTORS.len());
        let files1 = dir_files(&dir1);
        let files2 = dir_files(&dir2);
        assert_eq!(
            files1.iter().map(|(p, _)| p).collect::<Vec<_>>(),
            files2.iter().map(|(p, _)| p).collect::<Vec<_>>(),
            "artifact sets must match"
        );
        for ((path, a), (_, b)) in files1.iter().zip(&files2) {
            assert_eq!(a, b, "{path} differs between --jobs 1 and --jobs 2");
        }
        for d in [&dir1, &dir2] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// The campaign-level version of the adaptive drift claim: at a low
    /// offered load the shipped 1 dB spoof threshold is roughly
    /// calibrated, at a saturating load its honest-window FPR blows up,
    /// and the adaptive controller stays well below it — asserted on
    /// real simulation output, not synthetic noise.
    #[test]
    fn adaptive_fpr_flat_on_simulated_load_sweep_where_fixed_drifts() {
        let q = Quality {
            seeds: vec![1],
            duration: SimDuration::from_secs(4),
            samples: 100,
        };
        let window = SimDuration::from_millis(100);
        let fixed = operating_threshold("spoof");
        let lo = measure_adaptive(500_000, &q, window, RunKey::new("roc/adaptive-drift", 0, 0));
        let hi = measure_adaptive(
            8_000_000,
            &q,
            window,
            RunKey::new("roc/adaptive-drift", 1, 0),
        );
        let lo_eval = eval_adaptive(&lo, fixed, None);
        let hi_eval = eval_adaptive(&hi, fixed, None);
        assert!(
            hi_eval.avg_rate > 3.0 * lo_eval.avg_rate,
            "load sweep must change the observation rate: {lo_eval:?} vs {hi_eval:?}"
        );
        assert!(
            hi_eval.fixed_fpr > lo_eval.fixed_fpr + 0.2,
            "fixed threshold failed to drift: {lo_eval:?} vs {hi_eval:?}"
        );
        assert!(
            hi_eval.adaptive_fpr < hi_eval.fixed_fpr - 0.2,
            "adaptive threshold failed to hold the budget: {hi_eval:?}"
        );
    }

    #[test]
    fn densify_fills_gaps_with_empty_windows() {
        let sparse = vec![
            WindowStat {
                idx: 3,
                peak: 1.0,
                sum: 1.0,
                samples: 1,
            },
            WindowStat {
                idx: 6,
                peak: 2.0,
                sum: 2.0,
                samples: 1,
            },
        ];
        let dense = densify(&sparse);
        assert_eq!(dense.len(), 4);
        assert_eq!(dense[0].idx, 3);
        assert_eq!(dense[1].samples, 0);
        assert_eq!(dense[2].samples, 0);
        assert_eq!(dense[3].peak, 2.0);
        assert!(densify(&[]).is_empty());
    }

    #[test]
    fn operating_thresholds_track_detector_defaults() {
        assert_eq!(operating_threshold("nav"), 2.0);
        assert_eq!(operating_threshold("spoof"), 1.0);
        assert_eq!(operating_threshold("fake"), 0.02);
        assert_eq!(operating_threshold("cross"), 0.5);
        assert_eq!(operating_threshold("domino"), 7.75);
    }

    /// The intensity axis at full strength must reproduce the historical
    /// campaign constants exactly — otherwise `measure_cell_at(.., 1.0)`
    /// would silently drift from the pinned ROC results.
    #[test]
    fn unit_intensity_matches_the_historical_attack_knobs() {
        assert_eq!(
            Axis::NavInflation.knob_at(1.0) as u32,
            crate::cc::NAV_INFLATE_US
        );
        assert_eq!(Axis::AckSpoof.knob_at(1.0), 1.0);
        assert_eq!(Axis::FakeAck.knob_at(1.0), 1.0);
        assert_eq!(Axis::BackoffCheat.knob_at(1.0), 0.1);
        for cell in CELLS {
            assert!(
                greedy80211::misbehavior::intensity::Axis::for_detector(cell.detector).is_some(),
                "cell {} must map onto an intensity axis",
                cell.detector
            );
        }
    }
}
