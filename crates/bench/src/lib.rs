//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment in [`experiments`] rebuilds one artifact of the
//! paper's evaluation (Figs. 1–19, 21–24 and Tables I–IX) on this
//! workspace's simulator and returns an [`Experiment`] — a titled table
//! that the `repro` binary prints and writes to `results/<id>.csv`.
//! Beyond the paper: `ext1` implements the rate-adaptation interaction
//! the paper leaves as future work, and `abl1`–`abl3` ablate the design
//! choices DESIGN.md calls out (carrier-sense latency, capture
//! threshold, the NAV guard's MTU assumption).
//!
//! Run everything:
//!
//! ```sh
//! cargo run --release -p gr-bench --bin repro -- run all
//! ```
//!
//! or a single artifact (`fig1`, `tab2`, …), with `--quick` for a
//! fast low-fidelity pass (one seed, shorter runs).

pub mod cc;
pub mod experiments;
pub mod fuzz;
pub mod intensity;
pub mod quality;
pub mod roc;
pub mod sweep;
pub mod table;
pub mod world;

pub use cc::{CcCampaign, CcCampaignReport};
pub use intensity::{IntensityCampaign, IntensityCampaignReport, INTENSITY_GRID};
pub use quality::Quality;
pub use roc::{RocCampaign, RocCampaignReport};
pub use sweep::{sweep, sweep_scalar};
pub use table::Experiment;
pub use world::{WorldCampaign, WorldCampaignReport};

use sim::RunKey;

/// Campaign-wide flight-recorder collection: the recorder configuration
/// every run records under, plus the shared sink per-run reports are
/// deposited into as jobs finish (in worker-completion order; see
/// [`ObsCampaign::take_reports`] for the deterministic view).
///
/// The sink is the one piece of observability state that genuinely
/// crosses worker threads (every sweep job deposits into it), so it is an
/// explicit `Arc<Mutex<…>>` — unlike per-run recorder handles, which are
/// single-threaded `Rc<RefCell<…>>` cells that never leave their run.
#[derive(Debug, Clone)]
pub struct ObsCampaign {
    /// Recorder configuration applied to every run.
    pub spec: obs::ObsSpec,
    sink: std::sync::Arc<std::sync::Mutex<Vec<(RunKey, obs::ObsReport)>>>,
}

impl ObsCampaign {
    /// Creates an empty campaign collector recording under `spec`.
    pub fn new(spec: obs::ObsSpec) -> Self {
        ObsCampaign {
            spec,
            sink: std::sync::Arc::new(std::sync::Mutex::new(Vec::new())),
        }
    }

    pub(crate) fn deposit(&self, key: RunKey, report: obs::ObsReport) {
        self.sink
            .lock()
            .expect("campaign sink poisoned")
            .push((key, report));
    }

    /// Takes every report deposited so far, sorted by run key so artifact
    /// export order is independent of worker scheduling. The sink is left
    /// empty.
    pub fn take_reports(&self) -> Vec<(RunKey, obs::ObsReport)> {
        let mut v = std::mem::take(&mut *self.sink.lock().expect("campaign sink poisoned"));
        v.sort_by(|(a, _), (b, _)| a.cmp(b));
        v
    }
}

/// Campaign-wide conformance checking: every sweep job carries this
/// campaign's [`conform::ConformJob`] in its [`net::JobContext`], each
/// network built during the job arms one live checker on its recorder,
/// and the finished [`conform::ConformReport`]s accumulate, filed under
/// the job's [`RunKey`], in the shared sink here.
///
/// When the run context records nothing, the network gives the checker
/// a silent recorder of its own to tap (the tap sees every event before
/// ring eviction, so capacity does not affect checking).
#[derive(Debug, Clone, Default)]
pub struct ConformCampaign {
    job: conform::ConformJob,
}

impl ConformCampaign {
    /// An empty campaign honoring per-scenario greedy whitelists.
    pub fn new() -> Self {
        ConformCampaign::default()
    }

    /// Same campaign with every rule re-armed even for declared greedy
    /// quirks — for whitelist-removal tests, where greedy runs *must*
    /// produce violations.
    pub fn without_whitelist(self) -> Self {
        ConformCampaign {
            job: self.job.without_whitelist(),
        }
    }

    /// The job every sweep worker carries in its context.
    pub fn job(&self) -> conform::ConformJob {
        self.job.clone()
    }

    /// Takes every report deposited so far, sorted by run key so the
    /// verdict order is independent of worker scheduling. The sort is
    /// stable: a job's several reports keep their deposit order.
    pub fn take_reports(&self) -> Vec<(Option<RunKey>, conform::ConformReport)> {
        let mut v = self.job.drain();
        v.sort_by(|(a, _), (b, _)| a.cmp(b));
        v
    }
}

/// Everything an experiment generator needs: fidelity settings plus the
/// worker pool its sweeps execute on.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Seeds, run length, sample counts.
    pub quality: Quality,
    /// Campaign executor sweeps submit their jobs to.
    pub runner: runner::Runner,
    /// Flight-recorder campaign; `None` (the default) records nothing.
    pub record: Option<ObsCampaign>,
    /// Checkpoint/audit campaign spec; `None` (the default) records no
    /// checkpoints and resumes nothing.
    pub checkpoint: Option<net::CampaignSpec>,
    /// Conformance campaign; `None` (the default) checks nothing.
    pub conform: Option<ConformCampaign>,
}

impl RunCtx {
    /// Context running `quality` sequentially on the calling thread.
    pub fn sequential(quality: Quality) -> Self {
        RunCtx::with_jobs(quality, 1)
    }

    /// Context running `quality` on a pool of `jobs` workers.
    pub fn with_jobs(quality: Quality, jobs: usize) -> Self {
        RunCtx {
            quality,
            runner: runner::Runner::new(jobs),
            record: None,
            checkpoint: None,
            conform: None,
        }
    }

    /// Same context with flight recording enabled under `campaign`.
    pub fn with_record(mut self, campaign: ObsCampaign) -> Self {
        self.record = Some(campaign);
        self
    }

    /// Same context with checkpoint/audit recording (or resuming) under
    /// `spec`; see [`net::CampaignSpec`].
    pub fn with_checkpoints(mut self, spec: net::CampaignSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Same context with live conformance checking under `campaign`.
    pub fn with_conform(mut self, campaign: ConformCampaign) -> Self {
        self.conform = Some(campaign);
        self
    }
}

/// An experiment generator function.
pub type Generator = fn(&RunCtx) -> Experiment;

/// All experiment ids in presentation order, with their generators.
pub fn registry() -> Vec<(&'static str, Generator)> {
    use experiments as e;
    vec![
        ("fig1", e::fig01::run as Generator),
        ("fig2", e::fig02::run),
        ("fig3", e::fig03::run),
        ("fig4", e::fig04::run),
        ("fig5", e::fig05::run),
        ("fig6", e::fig06::run),
        ("fig7", e::fig07::run),
        ("fig8", e::fig08::run),
        ("fig9", e::fig09::run),
        ("fig10", e::fig10::run),
        ("fig11", e::fig11::run),
        ("fig12", e::fig12::run),
        ("fig13", e::fig13::run),
        ("fig14", e::fig14::run),
        ("fig15", e::fig15::run),
        ("fig16", e::fig16::run),
        ("fig17", e::fig17::run),
        ("fig18", e::fig18::run),
        ("fig19", e::fig19::run),
        ("fig21", e::fig21::run),
        ("fig22", e::fig22::run),
        ("fig23", e::fig23::run),
        ("fig24", e::fig24::run),
        ("tab1", e::tab01::run),
        ("tab2", e::tab02::run),
        ("tab3", e::tab03::run),
        ("tab4", e::tab04::run),
        ("tab5", e::tab05::run),
        ("tab6", e::tab06::run),
        ("tab7", e::tab07::run),
        ("tab8", e::tab08::run),
        ("tab9", e::tab09::run),
        ("ext1", e::ext01::run),
        ("ext2", e::ext02::run),
        ("abl1", e::abl01::run),
        ("abl2", e::abl02::run),
        ("abl3", e::abl03::run),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_well_formed() {
        let reg = registry();
        let mut seen = std::collections::HashSet::new();
        for (id, _) in &reg {
            assert!(seen.insert(*id), "duplicate experiment id {id}");
            assert!(
                id.starts_with("fig")
                    || id.starts_with("tab")
                    || id.starts_with("ext")
                    || id.starts_with("abl"),
                "unexpected id scheme: {id}"
            );
        }
        // Every paper artifact present: figs 1–19 + 21–24, tables 1–9.
        for n in (1..=19).chain(21..=24) {
            assert!(seen.contains(format!("fig{n}").as_str()), "missing fig{n}");
        }
        for n in 1..=9 {
            assert!(seen.contains(format!("tab{n}").as_str()), "missing tab{n}");
        }
    }

    #[test]
    fn conform_reports_sort_by_key_keeping_deposit_order() {
        let camp = ConformCampaign::new();
        let report = |events_checked| conform::ConformReport {
            events_checked,
            ..Default::default()
        };
        for (key, n) in [
            (("b", 0, 0), 1),
            (("a", 1, 0), 2),
            (("b", 0, 0), 3),
            (("a", 0, 5), 4),
        ] {
            camp.job()
                .deposit(Some(RunKey::new(key.0, key.1, key.2)), report(n));
        }
        camp.job().deposit(None, report(5));
        let order: Vec<u64> = camp
            .take_reports()
            .iter()
            .map(|(_, r)| r.events_checked)
            .collect();
        assert_eq!(order, [5, 4, 2, 1, 3]);
    }

    #[test]
    fn analytic_tables_generate_instantly() {
        // tab3 (analytic) and tab1 (Monte Carlo) need no simulation and
        // should produce full tables even at quick quality.
        let ctx = RunCtx::sequential(Quality::quick());
        let t3 = experiments::tab03::run(&ctx);
        assert_eq!(t3.rows.len(), 5);
        assert_eq!(t3.columns.len(), 5);
        let t1 = experiments::tab01::run(&ctx);
        assert_eq!(t1.rows.len(), 2);
        // The 802.11b row must show ≥ 95 % address survival.
        let ratio: f64 = t1.rows[0][5].parse().expect("numeric ratio");
        assert!(ratio > 0.95, "dest_ok_ratio {ratio}");
    }

    #[test]
    fn fig21_cdf_row_at_one_db_matches_calibration() {
        let ctx = RunCtx::sequential(Quality::quick());
        let e = experiments::fig21::run(&ctx);
        let row = e
            .rows
            .iter()
            .find(|r| r[0] == "1.0")
            .expect("1 dB row present");
        let cdf: f64 = row[1].parse().expect("numeric cdf");
        assert!((cdf - 0.95).abs() < 0.03, "cdf at 1 dB = {cdf}");
    }
}
