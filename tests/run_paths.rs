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
