//! Ring-drop accounting through a full `Network::run`.
//!
//! The recorder's drop counter is unit-tested in `obs`, but nothing
//! proved that a real simulation overflowing the ring reports its drops
//! all the way out to the exported artifacts. A saturated two-pair run
//! emits tens of thousands of events; a 64-slot ring must overflow, keep
//! exactly 64 events, and surface the overflow count in `meta.json`.

use gr_net::NetworkBuilder;
use phy::{PhyParams, Position};
use sim::{RunKey, SimDuration};

fn run_with_capacity(capacity: usize) -> obs::ObsReport {
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(2)
        .record(obs::ObsSpec {
            capacity,
            probe_interval: None,
            filter: obs::Filter::all(),
        });
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(5.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 5.0));
    let r2 = b.add_node(Position::new(5.0, 5.0));
    b.udp_flow(s1, r1, 512, 8_000_000);
    b.udp_flow(s2, r2, 512, 8_000_000);
    let mut net = b.build();
    net.run(SimDuration::from_millis(200));
    let report = net
        .recorder()
        .expect("recorded")
        .borrow_mut()
        .drain_report();
    report
}

#[test]
fn overflowing_ring_reports_drops_in_exported_artifacts() {
    let report = run_with_capacity(64);
    assert_eq!(report.events.len(), 64, "ring keeps exactly its capacity");
    assert!(
        report.dropped > 1_000,
        "a saturated 200 ms run must overflow a 64-slot ring hard, got {}",
        report.dropped
    );

    // The drop count reaches the on-disk metadata verbatim.
    let key = RunKey::new("droptest", 0, 2);
    let meta = report.meta_json(&key);
    assert!(
        meta.contains(&format!("\"dropped\": {}", report.dropped)),
        "meta.json must carry the drop count: {meta}"
    );
    assert!(meta.contains("\"capacity\": 64"));

    // And through the full artifact writer.
    let dir = std::env::temp_dir().join("gr-obs-drop-test");
    let _ = std::fs::remove_dir_all(&dir);
    obs::write_artifacts(&dir, &key, &report).unwrap();
    let on_disk = std::fs::read_to_string(dir.join("meta.json")).unwrap();
    assert!(on_disk.contains(&format!("\"dropped\": {}", report.dropped)));

    // The kept window is the *latest* events: drops evict from the front.
    let last = report.events.last().unwrap().at;
    let first = report.events.first().unwrap().at;
    assert!(last >= first);
    assert!(
        last.as_micros() > 150_000,
        "ring should retain the tail of the run, last event at {} µs",
        last.as_micros()
    );
}

#[test]
fn ample_ring_drops_nothing_on_the_same_run() {
    let report = run_with_capacity(1 << 18);
    assert_eq!(report.dropped, 0);
    assert!(report.events.len() > 3_000, "got {}", report.events.len());
}
