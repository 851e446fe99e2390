//! The per-job instrumentation slot never changes a run: a keyed
//! two-pair run under a job context that records, checks 802.11
//! conformance and writes checkpoints matches the plain run exactly,
//! deposits one conformance report and names its checkpoint by the key.

use greedy80211_repro::net::{CampaignSpec, JobContext};
use greedy80211_repro::{GreedyConfig, NavInflationConfig, Run, RunOutcome, Scenario};
use sim::{RunKey, SimDuration};

fn run(scenario: &Scenario, key: &RunKey) -> RunOutcome {
    Run::plan(scenario)
        .keyed(key.clone())
        .execute()
        .expect("scenario runs")
}

#[test]
fn instrumented_run_matches_plain_run() {
    let mut s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(NavInflationConfig::cts_only(
        10_000, 1.0,
    )));
    s.duration = SimDuration::from_millis(300);
    s.grc = Some(false);
    let key = RunKey::new("job-context", 2, 1);
    let plain = run(&s, &key);

    let dir = std::env::temp_dir().join(format!("gr-job-context-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recorder = obs::ObsSpec::default().recorder();
    let conform = conform::ConformJob::new();
    let spec = CampaignSpec::record(&dir, Some(SimDuration::from_millis(100)), None);
    let checked = {
        let _job = JobContext {
            key: Some(key.clone()),
            recorder: Some(recorder.clone()),
            conform: Some(conform.clone()),
            checkpoint: Some(spec.clone()),
        }
        .install();
        run(&s, &key)
    };

    assert_eq!(
        plain.metrics.events_processed,
        checked.metrics.events_processed
    );
    for i in 0..plain.flows.len() {
        assert_eq!(plain.goodput_mbps(i), checked.goodput_mbps(i), "flow {i}");
    }
    assert!(plain.nav_detections() > 0, "the inflated CTS is noticed");
    assert_eq!(plain.nav_detections(), checked.nav_detections());

    let reports = conform.drain();
    assert_eq!(reports.len(), 1, "one conformance report");
    assert_eq!(reports[0].0.as_ref(), Some(&key));
    assert!(!recorder.borrow_mut().drain_report().events.is_empty());
    let path = spec.checkpoint_path(&key);
    assert!(path.ends_with("checkpoints/job-context-p0002-s0001.snap"));
    assert!(path.exists(), "checkpoint named by the key");
    let _ = std::fs::remove_dir_all(&dir);
}
