//! Flight-recorder artifacts are a pure function of the run key.
//!
//! Runs the fig6 experiment (8 TCP flows, NAV-inflating receiver) with
//! recording enabled at `--jobs 1` and `--jobs 8`, exports every run's
//! obs artifacts, and byte-compares the two trees. Recording rides the
//! simulation without touching the scheduler or any RNG stream, and
//! export iterates sorted structures, so every file must be identical
//! regardless of worker count — the contract `repro run --record` documents.

use std::collections::BTreeMap;
use std::path::Path;

use gr_bench::{registry, ObsCampaign, Quality, RunCtx};
use sim::SimDuration;

/// Short-run quality so the test stays fast in debug builds.
fn quality() -> Quality {
    Quality {
        seeds: vec![1, 2],
        duration: SimDuration::from_millis(300),
        samples: 1_000,
    }
}

/// Runs fig6 recording under `jobs` workers and exports all artifacts
/// into `dir`. Returns the experiment's rendered table for the
/// results-unchanged check.
fn record_fig6(jobs: usize, dir: &Path) -> String {
    let (_, gen) = *registry()
        .iter()
        .find(|(id, _)| *id == "fig6")
        .expect("fig6 registered");
    let campaign = ObsCampaign::new(obs::ObsSpec::default());
    let ctx = RunCtx::with_jobs(quality(), jobs).with_record(campaign.clone());
    let experiment = gen(&ctx);
    let reports = campaign.take_reports();
    assert!(!reports.is_empty(), "fig6 runs must deposit reports");
    for (key, report) in &reports {
        assert!(!report.events.is_empty(), "{key:?}: no events recorded");
        assert!(!report.series.is_empty(), "{key:?}: no gauges sampled");
        obs::write_artifacts(&dir.join(obs::run_dir_name(key)), key, report)
            .expect("artifact export");
    }
    experiment.render()
}

/// Reads every file under `dir` into a map of relative path → bytes.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for run in std::fs::read_dir(dir).expect("run dirs") {
        let run = run.expect("entry").path();
        for f in std::fs::read_dir(&run).expect("artifact files") {
            let f = f.expect("entry").path();
            let rel = format!(
                "{}/{}",
                run.file_name().unwrap().to_string_lossy(),
                f.file_name().unwrap().to_string_lossy()
            );
            files.insert(rel, std::fs::read(&f).expect("readable artifact"));
        }
    }
    files
}

#[test]
fn obs_artifacts_are_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!("gr-obs-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let d1 = base.join("j1");
    let d8 = base.join("j8");
    std::fs::create_dir_all(&d1).unwrap();
    std::fs::create_dir_all(&d8).unwrap();

    let table1 = record_fig6(1, &d1);
    let table8 = record_fig6(8, &d8);
    assert_eq!(table1, table8, "experiment table must not depend on --jobs");

    let t1 = tree(&d1);
    let t8 = tree(&d8);
    assert_eq!(
        t1.keys().collect::<Vec<_>>(),
        t8.keys().collect::<Vec<_>>(),
        "artifact file sets must match"
    );
    for (path, bytes) in &t1 {
        assert_eq!(
            bytes, &t8[path],
            "artifact {path} differs between job counts"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
