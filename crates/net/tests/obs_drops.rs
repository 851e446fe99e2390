//! Drop accounting through a full `Network::run`.
//!
//! The recorder's drop counter is unit-tested in `obs`, but nothing
//! proved that a real simulation overflowing the ring reports its drops
//! all the way out to the exported artifacts. A saturated two-pair run
//! emits tens of thousands of events; a 64-slot ring must overflow, keep
//! exactly 64 events, and surface the overflow count in `meta.json`.
//!
//! The same saturated run also pins the MAC's queue-full drops: a CBR
//! tick refused at a full queue skips the MAC's enqueue path, yet must
//! still generate, number and record its datagram and record the drop.

use gr_net::{Network, NetworkBuilder};
use mac::NodeId;
use phy::{PhyParams, Position};
use sim::{RunKey, SimDuration};

/// Two saturated CBR pairs; returns the run's network and its senders.
fn saturated_run(capacity: usize) -> (Network, [NodeId; 2]) {
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
    (net, [s1, s2])
}

fn run_with_capacity(capacity: usize) -> obs::ObsReport {
    let (net, _) = saturated_run(capacity);
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

#[test]
fn refused_cbr_ticks_still_record_their_datagram_and_drop() {
    let (net, senders) = saturated_run(1 << 20);
    let report = net
        .recorder()
        .expect("recorded")
        .borrow_mut()
        .drain_report();
    assert_eq!(report.dropped, 0);
    for src in senders {
        let at_src = |kind: &'static obs::EventKind| {
            report
                .events
                .iter()
                .filter(move |e| e.node == src.0 && std::ptr::eq(e.kind, kind))
        };
        let queue_full = at_src(&mac::obs::MAC_DROP)
            .filter(|e| e.vals[0] == mac::obs::DROP_QUEUE_FULL)
            .count() as u64;
        let dcf = net.dcf(src);
        let c = &dcf.counters;
        assert_eq!(queue_full, c.queue_drops.get(), "node {}", src.0);
        assert!(queue_full > 100, "the run must saturate: {queue_full}");
        // Every datagram the MAC accepted was acknowledged, given up on,
        // or is still queued or in service.
        let queued = c.tx_successes.get()
            + c.retry_drops.get()
            + dcf.queue_len() as u64
            + u64::from(dcf.has_current());
        // One UDP_TX per generated datagram, numbered without a gap
        // whether the MAC took it or refused it.
        let seqs: Vec<u64> = at_src(&transport::obs::UDP_TX)
            .map(|e| e.vals[1] as u64)
            .collect();
        assert_eq!(seqs.len() as u64, queued + queue_full, "node {}", src.0);
        assert!(seqs.iter().copied().eq(0..seqs.len() as u64));
    }
}
