//! Checkpoint → resume round-trip over real experiments (the issue's
//! acceptance bar): a campaign recorded with mid-run checkpoints, then
//! resumed — each run restoring its snapshot and simulating only the
//! tail — must emit byte-identical CSVs, at any `--jobs` width.

use std::fs;
use std::path::{Path, PathBuf};

use gr_bench::{registry, Quality, RunCtx};
use greedy80211::{CampaignSpec, CcConfig, Checkpoint, Run, RunOutcome, Scenario};
use sim::SimDuration;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gr-ckpt-resume").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn csv_for(id: &str, ctx: &RunCtx, out: &Path) -> Vec<u8> {
    let (_, gen) = registry()
        .into_iter()
        .find(|(rid, _)| *rid == id)
        .expect("id in registry");
    let experiment = gen(ctx);
    experiment.write_csv(out).unwrap();
    fs::read(out.join(format!("{id}.csv"))).unwrap()
}

#[test]
fn recorded_campaigns_resume_to_byte_identical_csvs() {
    for id in ["fig2", "fig6", "tab5"] {
        let dir = tmp(id);
        let camp = dir.join("campaign");
        // Record pass: sequential, checkpoint + audit every 500 ms of
        // virtual time (quick runs last 2 s, so snapshots land mid-run).
        let record = RunCtx::with_jobs(Quality::quick(), 1).with_checkpoints(CampaignSpec::record(
            &camp,
            Some(SimDuration::from_millis(500)),
            Some(SimDuration::from_millis(500)),
        ));
        let gold = csv_for(id, &record, &dir.join("rec"));
        let n_ckpts = fs::read_dir(camp.join("checkpoints")).unwrap().count();
        assert!(n_ckpts > 0, "{id}: no checkpoints recorded");
        assert!(
            fs::read_dir(camp.join("audit")).unwrap().count() > 0,
            "{id}: no audit ladders recorded"
        );
        // Resume passes: every run restores its checkpoint and simulates
        // only the tail, sequentially and across 8 workers.
        for jobs in [1usize, 8] {
            let resume = RunCtx::with_jobs(Quality::quick(), jobs)
                .with_checkpoints(CampaignSpec::resume_from(&camp, dir.join("resumed"), None));
            let out = csv_for(id, &resume, &dir.join(format!("jobs{jobs}")));
            assert_eq!(out, gold, "{id}: resumed CSV differs at jobs={jobs}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// One CSV line of the transport-visible outcome: goodputs, loss
/// machinery counters, and the time-weighted window average.
fn outcome_csv(out: &RunOutcome) -> String {
    let mut line = String::new();
    for i in 0..out.flows.len() {
        let m = out.metrics.flow(out.flows[i]).expect("flow metrics");
        line.push_str(&format!(
            "{:.6},{},{},{:.6};",
            out.goodput_mbps(i),
            m.retransmissions,
            m.timeouts,
            m.avg_cwnd.unwrap_or(f64::NAN),
        ));
    }
    line
}

#[test]
fn cubic_and_bbr_resume_mid_recovery_to_byte_identical_outcomes() {
    // The zoo's stateful controllers (CUBIC's epoch anchor, BBR's filter
    // banks and mode machine) must survive freeze/thaw mid-loss-episode:
    // a lossy 2 s run checkpointed every 500 ms, resumed from a mid-run
    // snapshot, must reproduce the uninterrupted run's transport metrics
    // byte for byte.
    for cc in [CcConfig::cubic(), CcConfig::bbr()] {
        let dir = tmp(&format!("cc-{}", cc.name()));
        let s = Scenario {
            cc,
            // Lossy enough that recovery episodes straddle the barriers.
            byte_error_rate: 3e-4,
            duration: SimDuration::from_secs(2),
            ..Scenario::default()
        };
        let gold = Run::plan(&s)
            .checkpoint_every(SimDuration::from_millis(500))
            .execute()
            .expect("valid scenario");
        let gold_csv = outcome_csv(&gold);
        let retx: u64 = gold
            .flows
            .iter()
            .map(|f| gold.metrics.flow(*f).unwrap().retransmissions)
            .sum();
        assert!(
            retx > 0,
            "{}: the lossy run must actually exercise recovery",
            cc.name()
        );
        assert!(
            gold.checkpoints.len() >= 3,
            "{}: mid-run snapshots",
            cc.name()
        );
        // Resume from every mid-run snapshot, not just the first: later
        // barriers freeze deeper controller state (BBR past startup,
        // CUBIC mid-epoch).
        for (at, bytes) in &gold.checkpoints {
            let path = dir.join(format!("{}ms.snap", at.as_nanos() / 1_000_000));
            Checkpoint::decode(bytes)
                .expect("checkpoint decodes")
                .write(&path)
                .expect("checkpoint writes");
            let resumed = Run::resume(&path).expect("checkpoint resumes");
            assert_eq!(
                outcome_csv(&resumed),
                gold_csv,
                "{}: resume at {at:?} diverged",
                cc.name()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
