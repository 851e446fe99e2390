//! Congestion-control zoo campaign: controller × misbehavior damage
//! matrix.
//!
//! The paper fixes the transport at TCP Reno; `repro cc` asks how much
//! of its damage story is Reno-specific. Every controller of the zoo
//! ({NewReno, CUBIC, BBR, NewReno+HyStart}) runs the standard two-pair
//! TCP hotspot under every misbehavior ({honest, NAV inflation, ACK
//! spoofing, fake ACKs}), with the GRC observer watching (detect-only,
//! so detection counts ride along without perturbing the run). Each
//! `(controller, attack)` cell reports the victim's honest-baseline and
//! under-attack goodput, the greedy flow's goodput, the damage
//! percentage, detector counts, and the victim's retransmission /
//! timeout / average-cwnd profile.
//!
//! Artifacts: `cc_matrix.csv` (the full matrix) plus one
//! `cc-<controller>.csv` per controller. Sweeps are labelled
//! `cc/<controller>`, so derived seeds depend only on the cell — the
//! CSVs are byte-identical at any `--jobs` width (the CI smoke compares
//! a `--jobs 1` and a `--jobs 8` pass byte for byte).

use std::io;
use std::path::{Path, PathBuf};

use greedy80211::{CcConfig, GreedyConfig, NavInflationConfig, Run, RunOutcome, Scenario};

use crate::table::{mbps, Experiment};
use crate::{sweep, Quality, RunCtx};

/// Misbehaviors swept, in matrix row order.
pub const ATTACKS: &[&str] = &["honest", "nav", "spoof", "fake"];

/// NAV inflation applied by the greedy receiver (CTS-only, 10 ms — the
/// paper's high-damage point).
pub const NAV_INFLATE_US: u32 = 10_000;

/// Byte error rate for the spoof and fake cells (both the attacked run
/// and its honest baseline): either ACK forgery only has frames to lie
/// about when the channel actually loses some (paper Figs. 11/12 sweep
/// this; 2e-4 sits at the high-damage end of Table III's grid).
pub const LOSSY_BER: f64 = 2e-4;

/// Controllers swept, in matrix column-group order.
pub fn controllers() -> Vec<CcConfig> {
    vec![
        CcConfig::newreno(),
        CcConfig::cubic(),
        CcConfig::bbr(),
        CcConfig::newreno().with_hystart(),
    ]
}

/// A planned `repro cc` campaign.
#[derive(Debug, Clone)]
pub struct CcCampaign {
    /// Run length and replication seeds.
    pub quality: Quality,
    /// Worker threads the sweeps shard across.
    pub jobs: usize,
    /// Controllers to sweep (defaults to [`controllers`]).
    pub ccs: Vec<CcConfig>,
}

impl CcCampaign {
    /// The default controller × attack matrix at `quality` fidelity.
    pub fn new(quality: Quality, jobs: usize) -> Self {
        CcCampaign {
            quality,
            jobs,
            ccs: controllers(),
        }
    }

    /// Runs the matrix, writes `cc_matrix.csv` and one per-controller
    /// CSV into `out_dir`, and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates CSV I/O errors.
    pub fn run(&self, out_dir: &Path) -> io::Result<CcCampaignReport> {
        std::fs::create_dir_all(out_dir)?;
        let ctx = RunCtx::with_jobs(self.quality.clone(), self.jobs);
        let columns = [
            "cc",
            "attack",
            "honest_mbps",
            "victim_mbps",
            "greedy_mbps",
            "damage_pct",
            "nav_detections",
            "spoof_flags",
            "victim_retx",
            "victim_timeouts",
            "victim_avg_cwnd",
        ];
        let mut matrix = Experiment::new(
            "cc_matrix",
            "Congestion-control zoo: misbehavior damage matrix",
            &columns,
        );
        let mut controller_csvs = Vec::new();
        for &cfg in &self.ccs {
            let label = format!("cc/{}", cfg.name());
            let rows = sweep(&ctx, &label, ATTACKS, |&attack, seed| {
                measure_cell(cfg, attack, &self.quality, seed)
            });
            let mut per = Experiment::new(
                "cc",
                format!("Controller {}: damage and detection per attack", cfg.name()),
                &columns,
            );
            for (&attack, vals) in ATTACKS.iter().zip(rows) {
                let row = render_row(cfg, attack, &vals);
                per.push_row(row.clone());
                matrix.push_row(row);
            }
            let path = out_dir.join(format!("cc-{}.csv", cfg.name().replace('+', "-")));
            std::fs::write(&path, per.csv())?;
            controller_csvs.push(path);
        }
        matrix.write_csv(out_dir)?;
        Ok(CcCampaignReport {
            matrix,
            controller_csvs,
        })
    }
}

/// Result of a finished `repro cc` campaign.
#[derive(Debug)]
pub struct CcCampaignReport {
    /// One row per `(controller, attack)` cell.
    pub matrix: Experiment,
    /// Per-controller CSV files written, in controller order.
    pub controller_csvs: Vec<PathBuf>,
}

/// The standard two-pair TCP hotspot under `cc`, GRC watching
/// (detect-only).
fn cc_two_pair(cc: CcConfig, q: &Quality, seed: u64, ber: f64) -> Scenario {
    Scenario {
        cc,
        byte_error_rate: ber,
        grc: Some(false),
        duration: q.duration,
        seed,
        ..Scenario::default()
    }
}

/// Measures one `(controller, attack)` cell for one seed: the honest
/// baseline and the attacked run under matching channel conditions.
fn measure_cell(cc: CcConfig, attack: &str, q: &Quality, seed: u64) -> Vec<f64> {
    let ber = if matches!(attack, "spoof" | "fake") {
        LOSSY_BER
    } else {
        0.0
    };
    let honest = Run::plan(&cc_two_pair(cc, q, seed, ber))
        .execute()
        .expect("valid scenario");
    let out = match attack {
        "honest" => None,
        "nav" => Some(GreedyConfig::nav_inflation(NavInflationConfig::cts_only(
            NAV_INFLATE_US,
            1.0,
        ))),
        "spoof" => Some(GreedyConfig::ack_spoofing(vec![honest.receivers[0]], 1.0)),
        "fake" => Some(GreedyConfig::fake_acks(1.0)),
        other => panic!("unknown attack {other}"),
    }
    .map(|g| {
        let mut s = cc_two_pair(cc, q, seed, ber);
        s.greedy = vec![(1, g)];
        Run::plan(&s).execute().expect("valid scenario")
    })
    .unwrap_or_else(|| honest.clone());
    let victim = flow_stats(&out, 0);
    vec![
        honest.goodput_mbps(0),
        out.goodput_mbps(0),
        out.goodput_mbps(1),
        out.nav_detections() as f64,
        out.spoof_flags() as f64,
        victim.0,
        victim.1,
        victim.2,
    ]
}

/// `(retransmissions, timeouts, avg_cwnd)` of flow `i`.
fn flow_stats(out: &RunOutcome, i: usize) -> (f64, f64, f64) {
    let m = out.metrics.flow(out.flows[i]).expect("flow metrics");
    (
        m.retransmissions as f64,
        m.timeouts as f64,
        m.avg_cwnd.unwrap_or(f64::NAN),
    )
}

/// One CSV row from a cell's per-seed medians.
fn render_row(cc: CcConfig, attack: &str, vals: &[f64]) -> Vec<String> {
    let honest = vals[0];
    let victim = vals[1];
    let damage = if honest > 0.0 {
        (honest - victim) / honest * 100.0
    } else {
        0.0
    };
    vec![
        cc.name().to_string(),
        attack.to_string(),
        mbps(honest),
        mbps(victim),
        mbps(vals[2]),
        format!("{damage:.1}"),
        format!("{:.0}", vals[3]),
        format!("{:.0}", vals[4]),
        format!("{:.0}", vals[5]),
        format!("{:.0}", vals[6]),
        format!("{:.1}", vals[7]),
    ]
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
    fn campaign_csvs_are_identical_at_any_job_count() {
        let campaign = |jobs: usize| {
            let mut c = CcCampaign::new(tiny_quality(), jobs);
            c.ccs = vec![CcConfig::newreno(), CcConfig::bbr()];
            c
        };
        let dir1 = std::env::temp_dir().join("gr-cc-jobs1");
        let dir2 = std::env::temp_dir().join("gr-cc-jobs2");
        let r1 = campaign(1).run(&dir1).unwrap();
        let r2 = campaign(2).run(&dir2).unwrap();
        assert_eq!(r1.matrix.csv(), r2.matrix.csv());
        assert_eq!(r1.controller_csvs.len(), 2);
        for (a, b) in r1.controller_csvs.iter().zip(&r2.controller_csvs) {
            assert_eq!(
                std::fs::read_to_string(a).unwrap(),
                std::fs::read_to_string(b).unwrap(),
                "per-controller CSVs must not depend on --jobs"
            );
        }
        // Matrix shape: 2 controllers × 4 attacks.
        assert_eq!(r1.matrix.rows.len(), 8);
        assert!(r1.matrix.csv().starts_with("cc,attack,honest_mbps,"));
    }

    #[test]
    fn honest_rows_report_zero_damage() {
        let mut c = CcCampaign::new(tiny_quality(), 2);
        c.ccs = vec![CcConfig::cubic()];
        let dir = std::env::temp_dir().join("gr-cc-honest");
        let r = c.run(&dir).unwrap();
        let honest = &r.matrix.rows[0];
        assert_eq!(honest[1], "honest");
        assert_eq!(honest[2], honest[3], "honest baseline is its own victim");
        assert_eq!(honest[5], "0.0", "no damage without an attacker");
    }
}
