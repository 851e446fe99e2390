//! Every way to run a scenario ends in the same outcome: a planned run,
//! a directly built one, cell 0 of a 1×1 world, a run with audit and
//! checkpoint barriers armed, and the resume of that run's mid-run
//! checkpoint agree on events, per-flow goodput, GRC detections and the
//! detached GRC snapshots. The hooked run and the world cell also record
//! the same audit ladder.

use greedy80211_repro::{GreedyConfig, NavInflationConfig, Run, RunOutcome, Scenario, WorldSpec};
use sim::SimDuration;

/// Two UDP pairs on a lossy channel, receiver 1 inflating the NAV of
/// its CTS frames, every honest node running GRC.
fn scenario() -> Scenario {
    let mut s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(NavInflationConfig::cts_only(
        10_000, 1.0,
    )));
    s.duration = SimDuration::from_millis(400);
    s.grc = Some(true);
    s.byte_error_rate = 1e-4;
    s.seed = 11;
    s
}

fn fingerprint(out: &RunOutcome) -> (u64, Vec<f64>, u64, u64, String) {
    (
        out.metrics.events_processed,
        (0..out.flows.len()).map(|i| out.goodput_mbps(i)).collect(),
        out.nav_detections(),
        out.spoof_flags(),
        format!("{:?}", out.grc),
    )
}

#[test]
fn every_run_path_gives_the_same_outcome() {
    let s = scenario();
    let audit = SimDuration::from_millis(50);

    let planned = Run::plan(&s).execute().expect("planned run");
    let built = s.build().expect("valid scenario").run();
    let mut spec = WorldSpec::grid(s.clone(), 1, 1);
    spec.greedy_cells = 1; // cell 0 keeps the template's greedy receiver
    let world = Run::world(&spec)
        .audit_every(audit)
        .execute()
        .expect("world run");
    let cell = &world.cells[0].outcome;
    let hooked = Run::plan(&s)
        .audit_every(audit)
        .checkpoint_every(SimDuration::from_millis(150))
        .execute()
        .expect("hooked run");

    let (at, bytes) = &hooked.checkpoints[0];
    assert!(
        at.as_nanos() < s.duration.as_nanos(),
        "a mid-run checkpoint"
    );
    let path = std::env::temp_dir().join(format!("gr-run-paths-{}.snap", std::process::id()));
    std::fs::write(&path, bytes).expect("write checkpoint");
    let resumed = Run::resume(&path).expect("resume");
    let _ = std::fs::remove_file(&path);

    let expected = fingerprint(&planned);
    assert!(expected.2 > 0, "the inflated CTS is detected");
    for (name, out) in [
        ("Scenario::build().run()", &built),
        ("1x1 world cell", cell),
        ("hooked run", &hooked),
        ("resumed run", &resumed),
    ] {
        assert_eq!(fingerprint(out), expected, "{name}");
    }
    assert!(!hooked.audit.entries.is_empty());
    assert_eq!(cell.audit.to_text(), hooked.audit.to_text());
}

/// A campaign resumed with an audit interval writes, for each resumed
/// run, a ladder whose rungs are exactly the recorded run's rungs after
/// the checkpoint instant, under the resuming campaign's own root.
#[test]
fn a_resumed_campaign_records_the_tail_of_the_audit_ladder() {
    use greedy80211_repro::net::{CampaignSpec, JobContext};
    use greedy80211_repro::Checkpoint;
    use sim::RunKey;

    let s = scenario();
    let audit = Some(SimDuration::from_millis(50));
    let key = RunKey::new("run-paths", 1, 2);
    let dir = std::env::temp_dir().join(format!("gr-run-paths-camp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (rec, res) = (dir.join("rec"), dir.join("res"));
    let run = |spec: CampaignSpec| {
        let _job = JobContext {
            checkpoint: Some(spec),
            ..JobContext::keyed(key.clone())
        }
        .install();
        Run::plan(&s)
            .keyed(key.clone())
            .execute()
            .expect("campaign run")
    };
    let recorded = run(CampaignSpec::record(
        &rec,
        Some(SimDuration::from_millis(150)),
        audit,
    ));
    let resumed = run(CampaignSpec::resume_from(&rec, &res, audit));
    assert_eq!(fingerprint(&resumed), fingerprint(&recorded));

    let spec = CampaignSpec::record(&rec, None, None);
    let at = Checkpoint::read(&spec.checkpoint_path(&key))
        .expect("checkpoint recorded")
        .at;
    assert!(at.as_nanos() > 0, "a mid-run checkpoint");
    let ladder = |root: &std::path::Path| {
        let path = CampaignSpec::record(root, None, None).audit_path(&key);
        let text = std::fs::read_to_string(&path).expect("ladder written");
        snap::audit::Ladder::parse(&text)
            .expect("ladder parses")
            .entries
    };
    let tail: Vec<_> = (ladder(&rec).into_iter())
        .filter(|e| e.vt_ns > at.as_nanos())
        .collect();
    assert!(!tail.is_empty(), "rungs after the checkpoint");
    assert_eq!(ladder(&res), tail);
    assert_eq!(resumed.audit.entries, tail);
    let _ = std::fs::remove_dir_all(&dir);
}
