//! Golden-trace corpus: canonical scenarios whose structural frame
//! exchange is pinned in readable fixture files.
//!
//! Each scenario runs under a flight recorder, the event stream is
//! reduced to its structure by [`conform::golden::normalize`] (who sent
//! what to whom, retries with their post-update contention window,
//! drops, deliveries — no timestamps, airtimes, or backoff draws), and
//! the result is diffed line-by-line against `tests/golden/<name>.trace`.
//!
//! To regenerate after an intentional protocol change:
//!
//! ```sh
//! GOLDEN_UPDATE=1 cargo test -p gr-net --test golden
//! ```
//!
//! then review the fixture diff like any other code change.

use gr_net::{JobContext, Network, NetworkBuilder, RunHooks};
use phy::{ChannelModel, PhyParams, Position};
use sim::{SimDuration, SimTime};

/// Builds `scenario` with a job-context flight recorder attached, runs it
/// for `dur`, and returns the normalized structural trace.
fn trace(dur: SimDuration, build: impl FnOnce() -> Network) -> Vec<String> {
    let rec = obs::ObsSpec {
        capacity: 1 << 17,
        probe_interval: None,
        filter: obs::Filter::all(),
    }
    .recorder();
    let mut net = {
        let _guard = JobContext {
            recorder: Some(rec.clone()),
            ..JobContext::default()
        }
        .install();
        build()
    };
    net.run(dur);
    let report = rec.borrow_mut().drain_report();
    assert_eq!(report.dropped, 0, "recorder ring too small for fixture");
    conform::golden::normalize(&report.events)
}

/// Diffs `actual` against `tests/golden/<name>.trace`, or rewrites the
/// fixture when `GOLDEN_UPDATE=1`.
fn check(name: &str, header: &str, actual: &[String]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.trace"));
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, conform::golden::to_fixture(header, actual)).unwrap();
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with GOLDEN_UPDATE=1 to create it",
            path.display()
        )
    });
    let expected = conform::golden::parse_fixture(&text);
    if let Some(msg) = conform::golden::diff(&expected, actual) {
        panic!(
            "{name}: {msg}\n\nif the change is intentional, regenerate with\n  \
             GOLDEN_UPDATE=1 cargo test -p gr-net --test golden"
        );
    }
}

#[test]
fn two_node_data_ack() {
    let lines = trace(SimDuration::from_millis(12), || {
        let mut b = NetworkBuilder::new(PhyParams::dot11b()).rts(false).seed(3);
        let s = b.add_node(Position::new(0.0, 0.0));
        let r = b.add_node(Position::new(5.0, 0.0));
        b.udp_flow(s, r, 1024, 2_000_000);
        b.build()
    });
    // The basic exchange repeats verbatim: DATA, delivery, SIFS-spaced
    // ACK, sender success. No retries on a lossless two-node channel.
    assert!(lines.iter().any(|l| l.starts_with("tx 0 DATA")));
    assert!(lines.iter().any(|l| l.starts_with("tx 1 ACK")));
    assert!(!lines.iter().any(|l| l.starts_with("retry")));
    check(
        "two_node_data_ack",
        "two nodes, basic access, lossless 802.11b, 2 Mb/s UDP, 12 ms\n\
         every cycle: DATA -> delivery -> ACK -> sender success",
        &lines,
    );
}

#[test]
fn two_node_rts_cts() {
    let lines = trace(SimDuration::from_millis(12), || {
        let mut b = NetworkBuilder::new(PhyParams::dot11b()).rts(true).seed(3);
        let s = b.add_node(Position::new(0.0, 0.0));
        let r = b.add_node(Position::new(5.0, 0.0));
        b.udp_flow(s, r, 1024, 2_000_000);
        b.build()
    });
    // Four-way handshake: RTS, CTS, DATA, ACK — in that order, always.
    assert!(lines.iter().any(|l| l.starts_with("tx 0 RTS")));
    assert!(lines.iter().any(|l| l.starts_with("tx 1 CTS")));
    check(
        "two_node_rts_cts",
        "two nodes, RTS/CTS, lossless 802.11b, 2 Mb/s UDP, 12 ms\n\
         every cycle: RTS -> CTS -> DATA -> delivery -> ACK",
        &lines,
    );
}

#[test]
fn collision_and_binary_exponential_backoff() {
    let lines = trace(SimDuration::from_millis(30), || {
        let mut b = NetworkBuilder::new(PhyParams::dot11b()).rts(false).seed(5);
        let s1 = b.add_node(Position::new(0.0, 0.0));
        let s2 = b.add_node(Position::new(10.0, 0.0));
        let r = b.add_node(Position::new(5.0, 5.0));
        b.udp_flow(s1, r, 512, 8_000_000);
        b.udp_flow(s2, r, 512, 8_000_000);
        b.build()
    });
    // Two saturating senders in one collision domain: synchronized
    // backoff expiries collide at the receiver, the losers double their
    // contention windows (31 -> 63 -> ...), and retries recover.
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("retry") && l.contains("cw=63")),
        "expected a doubled contention window in:\n{}",
        lines.join("\n")
    );
    check(
        "collision_beb",
        "two saturating senders + one receiver, one collision domain,\n\
         basic access, 30 ms: collisions trigger cw doubling and retries",
        &lines,
    );
}

#[test]
fn two_cell_co_channel_interference() {
    // Two co-channel cells 60 m apart, advanced in 1 ms lockstep epochs
    // with the world's one-epoch-lag exchange: what cell 1 transmitted
    // during epoch k raises carrier sense on cell 0's coupled nodes
    // during epoch k + 1 (and vice versa). Both cells run saturating
    // pairs, so neighbor busy time comes straight out of goodput. The
    // fixture pins cell 0's structural trace — the DATA/ACK cycle
    // survives, but deferral fits fewer cycles into 12 ms than an
    // isolated run of the same pair completes.
    let epoch = SimDuration::from_millis(1);
    let dur = SimDuration::from_millis(12);
    let pair = |seed: u64, rate: u64| {
        let mut b = NetworkBuilder::new(PhyParams::dot11b())
            .rts(false)
            .seed(seed);
        let s = b.add_node(Position::new(0.0, 0.0));
        let r = b.add_node(Position::new(5.0, 0.0));
        b.udp_flow(s, r, 1024, rate);
        b.build()
    };
    let rec = obs::ObsSpec {
        capacity: 1 << 17,
        probe_interval: None,
        filter: obs::Filter::all(),
    }
    .recorder();
    // Only cell 0 is traced; the recorder attaches at build time.
    let net0 = {
        let _guard = JobContext {
            recorder: Some(rec.clone()),
            ..JobContext::default()
        }
        .install();
        pair(3, 8_000_000)
    };
    let net1 = pair(7, 8_000_000);
    let origins = [Position::new(0.0, 0.0), Position::new(60.0, 0.0)];
    // Static cross-cell coupling by world-frame distance, exactly as the
    // world coordinator computes it: coupling[a][src of b] = nodes of a
    // within carrier-sense range (99 m covers every 55-65 m pair here).
    let coupler = ChannelModel::with_ranges(99.0, 99.0);
    let positions: Vec<Vec<Position>> = [&net0, &net1]
        .iter()
        .zip(origins)
        .map(|(net, origin)| {
            net.positions()
                .into_iter()
                .map(|p| p.offset_by(origin))
                .collect()
        })
        .collect();
    let mut cells = [net0, net1].map(|mut net| {
        net.enable_tx_log();
        let cursor = net.begin_hooked(RunHooks::default(), None);
        (net, cursor)
    });
    let coupled = |a: usize, b: usize, src: u16| -> Vec<u16> {
        (0..positions[a].len() as u16)
            .filter(|&dst| coupler.couples(positions[b][src as usize], positions[a][dst as usize]))
            .collect()
    };
    let epochs = (dur.as_nanos() as usize).div_ceil(epoch.as_nanos() as usize);
    for k in 0..epochs {
        let horizon = SimTime::from_nanos(((k + 1) as u64 * epoch.as_nanos()).min(dur.as_nanos()));
        let reports: Vec<Vec<gr_net::TxRecord>> = cells
            .iter_mut()
            .map(|(net, cursor)| {
                net.advance(cursor, horizon);
                net.drain_tx_log()
            })
            .collect();
        // Merge in fixed (cell, neighbor, report order) order, one epoch
        // late — the exchange the lockstep runner performs.
        for (a, (net, _)) in cells.iter_mut().enumerate() {
            let mut batch = Vec::new();
            for (b, report) in reports.iter().enumerate() {
                if a == b {
                    continue;
                }
                for &gr_net::TxRecord {
                    src, start, end, ..
                } in report
                {
                    for dst in coupled(a, b, src.0) {
                        batch.push((mac::NodeId(dst), start + epoch, end + epoch));
                    }
                }
            }
            net.inject_busy(&batch);
        }
    }
    for (mut net, cursor) in cells {
        net.finish_hooked(cursor, dur);
    }
    let report = rec.borrow_mut().drain_report();
    assert_eq!(report.dropped, 0, "recorder ring too small for fixture");
    let lines = conform::golden::normalize(&report.events);
    // The exchange must actually bite: the saturating neighbor's busy
    // time leaves cell 0 fewer DATA cycles than the same pair completes
    // running alone.
    let isolated = trace(dur, || pair(3, 8_000_000));
    let cycles = |t: &[String]| t.iter().filter(|l| l.starts_with("tx 0 DATA")).count();
    assert!(
        cycles(&lines) < cycles(&isolated),
        "co-channel neighbor should defer cell 0 ({} cycles vs {} isolated)",
        cycles(&lines),
        cycles(&isolated),
    );
    // Deferral, not corruption: carrier sense waits out the neighbor, so
    // the cycles that do run stay clean.
    assert!(!lines.iter().any(|l| l.starts_with("retry")));
    check(
        "two_cell_co_channel",
        "two co-channel cells 60 m apart, 1 ms lockstep epochs, one-epoch-lag\n\
         busy exchange; both cells saturating 8 Mb/s pairs, cell 0 traced;\n\
         neighbor busy time defers but never corrupts",
        &lines,
    );
}

#[test]
fn hidden_terminal() {
    let lines = trace(SimDuration::from_millis(30), || {
        let mut b = NetworkBuilder::new(PhyParams::dot11b())
            .rts(false)
            .channel(ChannelModel::with_ranges(55.0, 99.0))
            .seed(4);
        let s1 = b.add_node(Position::new(0.0, 0.0));
        let r = b.add_node(Position::new(50.0, 0.0));
        let s2 = b.add_node(Position::new(100.0, 0.0));
        b.udp_flow(s1, r, 512, 3_000_000);
        b.udp_flow(s2, r, 512, 3_000_000);
        b.build()
    });
    // The senders sit 100 m apart — beyond the 99 m carrier-sense range
    // — so neither defers to the other and their frames collide at the
    // middle receiver far more often than carrier sense would allow.
    assert!(
        lines.iter().any(|l| l.contains("collision")),
        "expected hidden-terminal collisions in:\n{}",
        lines.join("\n")
    );
    assert!(lines.iter().any(|l| l.starts_with("retry")));
    check(
        "hidden_terminal",
        "classic hidden terminal: senders at 0 m and 100 m, receiver at\n\
         50 m, ranges (comm 55 m, cs 99 m), basic access, 30 ms",
        &lines,
    );
}
