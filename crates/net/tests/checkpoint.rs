//! Checkpoint/resume and audit-ladder guarantees at the runtime level:
//! restoring a mid-run snapshot into a freshly built identical network
//! and resuming must reproduce the uninterrupted run exactly.

use gr_net::{Network, NetworkBuilder, RunArtifacts, RunHooks, RunMetrics};
use phy::{ChannelModel, ErrorModel, ErrorUnit, PhyParams, Position};
use sim::{SimDuration, SimTime};
use snap::{Dec, SnapState};
use transport::TcpConfig;

/// A mixed UDP + TCP + probe topology with link errors, exercising every
/// flow-state variant and the shared RNG (jitter + corruption draws).
fn build() -> (gr_net::Network, Vec<transport::FlowId>) {
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(42)
        .default_error(ErrorModel::new(ErrorUnit::Byte, 2e-4).unwrap());
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(5.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 5.0));
    let r2 = b.add_node(Position::new(5.0, 5.0));
    let f1 = b.udp_flow(s1, r1, 1024, 6_000_000);
    let f2 = b.tcp_flow(s2, r2, TcpConfig::default());
    let f3 = b.probe_flow(s1, r1, 64, SimDuration::from_millis(50));
    (b.build(), vec![f1, f2, f3])
}

/// Hidden senders, no RTS/CTS, and a 2 Mb/s data rate: 1500 B frames
/// last ~6 ms and 64 B ones well under 1 ms, so short frames end early
/// inside long ones. Whether such a long frame collides depends on the
/// arena still holding the short frame when the long one concludes, so
/// a resume that restored the arena's window (the longest airtime so
/// far) too small would count different collisions.
fn build_hidden() -> (gr_net::Network, Vec<transport::FlowId>) {
    let phy = PhyParams {
        data_rate_bps: 2_000_000,
        ..PhyParams::dot11b()
    };
    let mut b = NetworkBuilder::new(phy)
        .seed(43)
        .rts(false)
        .channel(ChannelModel::with_ranges(60.0, 60.0))
        .default_error(ErrorModel::new(ErrorUnit::Byte, 2e-5).unwrap());
    let a = b.add_node(Position::new(0.0, 0.0));
    let rx = b.add_node(Position::new(50.0, 0.0));
    let c = b.add_node(Position::new(102.0, 0.0));
    let d = b.add_node(Position::new(120.0, 0.0));
    let f1 = b.udp_flow(a, rx, 1500, 10_000_000);
    let f2 = b.udp_flow(c, d, 64, 50_000);
    let f3 = b.udp_flow(c, rx, 64, 25_000);
    (b.build(), vec![f1, f2, f3])
}

/// One collision domain sensing every transmission only after a 2 ms
/// carrier-sense latency: a 1500 B frame at 2 Mb/s lasts ~6 ms, so a
/// checkpoint often lands after a data frame started but before anyone
/// sensed it, while the RTS/CTS/ACK exchanges (each shorter than the
/// latency) are sensed only as they end.
fn build_slow_sense() -> (gr_net::Network, Vec<transport::FlowId>) {
    let phy = PhyParams {
        data_rate_bps: 2_000_000,
        ..PhyParams::dot11b()
    };
    let mut b = NetworkBuilder::new(phy)
        .seed(44)
        .cs_latency_slots(100)
        .default_error(ErrorModel::new(ErrorUnit::Byte, 2e-5).unwrap());
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(5.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 5.0));
    let r2 = b.add_node(Position::new(5.0, 5.0));
    let f1 = b.udp_flow(s1, r1, 1500, 10_000_000);
    let f2 = b.udp_flow(s2, r2, 1500, 10_000_000);
    (b.build(), vec![f1, f2])
}

/// Runs `net` to `duration` under `hooks`: from the start, or with
/// `resumed_at` from the checkpoint restored into it.
fn run_through(
    net: &mut Network,
    duration: SimDuration,
    hooks: RunHooks,
    resumed_at: Option<SimTime>,
) -> (RunMetrics, RunArtifacts) {
    let mut cursor = net.begin_hooked(hooks, resumed_at);
    net.advance(&mut cursor, SimTime::ZERO + duration);
    net.finish_hooked(cursor, duration)
}

fn fingerprint(m: &RunMetrics, flows: &[transport::FlowId]) -> Vec<(u64, u64, u64)> {
    let collisions = m
        .nodes
        .values()
        .map(|n| n.counters.collision_rx.get())
        .sum();
    let mut out = vec![(m.events_processed, collisions, 0)];
    for f in flows {
        let fm = m.flow(*f).unwrap();
        out.push((fm.distinct_packets, fm.duplicates, fm.retransmissions));
    }
    out
}

/// Runs `build`'s 2 s network straight through with a checkpoint every
/// `every` and an audit rung every 250 ms, then resumes a freshly built
/// twin from each checkpoint but the last and asserts that it reproduces
/// the rest of the straight run exactly. Returns the straight run's
/// artifacts.
fn assert_resume_matches(
    build: fn() -> (gr_net::Network, Vec<transport::FlowId>),
    every: SimDuration,
) -> RunArtifacts {
    let duration = SimDuration::from_secs(2);
    let hooks = RunHooks {
        checkpoint_every: Some(every),
        audit_every: Some(SimDuration::from_millis(250)),
        ..RunHooks::default()
    };
    let (mut baseline, flows) = build();
    let (base_metrics, base_art) = run_through(&mut baseline, duration, hooks, None);
    let n = base_art.checkpoints.len();
    assert!(n >= 2, "need a mid-run checkpoint");
    for (i, (at, bytes)) in base_art.checkpoints[..n - 1].iter().enumerate() {
        let (mut resumed, _) = build();
        resumed.snap_restore(&mut Dec::new(bytes)).unwrap();
        let (res_metrics, res_art) = run_through(&mut resumed, duration, hooks, Some(*at));

        assert_eq!(
            fingerprint(&base_metrics, &flows),
            fingerprint(&res_metrics, &flows),
            "resumed run from {at:?} must reproduce the uninterrupted metrics"
        );
        // The resumed audit tail must equal the baseline rungs after `at`.
        let tail: Vec<_> = base_art
            .audit
            .entries
            .iter()
            .filter(|e| e.vt_ns > at.as_nanos())
            .cloned()
            .collect();
        assert_eq!(res_art.audit.entries, tail, "audit ladder tails must agree");
        // And the later checkpoints must be byte-identical.
        assert_eq!(res_art.checkpoints, base_art.checkpoints[i + 1..]);
        // Final states digest-equal, layer by layer.
        assert_eq!(baseline.layer_digests(), resumed.layer_digests());
    }
    base_art
}

#[test]
fn checkpoint_resume_matches_uninterrupted_run() {
    let art = assert_resume_matches(build, SimDuration::from_millis(500));
    assert_eq!(art.checkpoints.len(), 4);
    assert_eq!(art.checkpoints[1].0, SimTime::from_millis(1000));
    assert_eq!(art.audit.entries.len(), 8 * 6, "8 barriers x 6 layers");
}

#[test]
fn hidden_terminal_resume_restores_the_overlap_window() {
    assert_resume_matches(build_hidden, SimDuration::from_millis(100));
}

#[test]
fn resume_with_a_pending_carrier_sense_onset() {
    assert_resume_matches(build_slow_sense, SimDuration::from_millis(100));
}

#[test]
fn rng_perturbation_diverges_and_shows_in_the_ladder() {
    let duration = SimDuration::from_secs(1);
    let audit = RunHooks {
        audit_every: Some(SimDuration::from_millis(100)),
        ..RunHooks::default()
    };
    let (mut clean, _) = build();
    let (_, clean_art) = run_through(&mut clean, duration, audit, None);

    let perturbed_hooks = RunHooks {
        perturb_rng_at: Some(SimTime::from_millis(420)),
        ..audit
    };
    let (mut dirty, _) = build();
    let (_, dirty_art) = run_through(&mut dirty, duration, perturbed_hooks, None);

    let (clean, dirty) = (&clean_art.audit.entries, &dirty_art.audit.entries);
    assert_eq!(clean.len(), dirty.len());
    // Before the perturbation instant every layer agrees; after it the
    // RNG layer must differ (one extra draw shifts the stream).
    for (a, b) in clean.iter().zip(dirty) {
        if a.vt_ns <= 400_000_000 {
            assert_eq!(
                a.digest, b.digest,
                "premature divergence at {} ns in {}",
                a.vt_ns, a.layer
            );
        }
    }
    let rng_diverged = clean
        .iter()
        .zip(dirty)
        .any(|(a, b)| a.layer == "rng" && a.vt_ns > 400_000_000 && a.digest != b.digest);
    assert!(
        rng_diverged,
        "rng digest must diverge after the perturbation"
    );
}

#[test]
fn hooks_do_not_change_the_simulation() {
    let duration = SimDuration::from_secs(1);
    let (mut plain, flows) = build();
    let plain_metrics = plain.run(duration);
    let (mut hooked, _) = build();
    let hooks = RunHooks {
        checkpoint_every: Some(SimDuration::from_millis(100)),
        audit_every: Some(SimDuration::from_millis(70)),
        ..RunHooks::default()
    };
    let (hooked_metrics, art) = run_through(&mut hooked, duration, hooks, None);
    assert_eq!(
        fingerprint(&plain_metrics, &flows),
        fingerprint(&hooked_metrics, &flows),
        "audit and checkpoint hooks must not perturb outcomes"
    );
    assert_eq!(art.checkpoints.len(), 10);
    assert_eq!(plain.layer_digests(), hooked.layer_digests());
}

/// One cell of a two-cell co-channel world: two saturating basic-access
/// pairs whose frames collide often, so the neighbor's busy intervals
/// overlap at each station and fuse.
fn build_world_cell(seed: u64) -> gr_net::Network {
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(seed)
        .rts(false)
        .default_error(ErrorModel::new(ErrorUnit::Byte, 1e-4).unwrap());
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(5.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 5.0));
    let r2 = b.add_node(Position::new(5.0, 5.0));
    b.udp_flow(s1, r1, 1024, 4_000_000);
    b.udp_flow(s2, r2, 1024, 4_000_000);
    b.build()
}

#[test]
fn world_cell_resumes_with_pending_fusion_credits() {
    let epoch = SimDuration::from_millis(5);
    let duration = SimDuration::from_millis(200);
    let epochs = (duration.as_nanos() / epoch.as_nanos()) as usize;
    let horizon = |k: usize| SimTime::from_nanos((k as u64 + 1) * epoch.as_nanos());
    // Checkpoints on a grid that mostly falls mid-epoch.
    let hooks = RunHooks {
        checkpoint_every: Some(SimDuration::from_micros(1_300)),
        audit_every: Some(SimDuration::from_millis(10)),
        ..RunHooks::default()
    };
    let mut cells = [
        (build_world_cell(3), hooks),
        (build_world_cell(7), RunHooks::default()),
    ]
    .map(|(mut net, hooks)| {
        net.enable_tx_log();
        let cursor = net.begin_hooked(hooks, None);
        (net, cursor)
    });
    // Every node of one cell is within 99 m of every node of the other,
    // so the exchange replays each neighbor frame at all four stations,
    // one epoch late; cell 0's batches are kept for the resumed twin.
    let mut batches = Vec::new();
    for k in 0..epochs {
        let reports: Vec<Vec<gr_net::TxRecord>> = cells
            .iter_mut()
            .map(|(net, cursor)| {
                net.advance(cursor, horizon(k));
                net.drain_tx_log()
            })
            .collect();
        if k + 1 == epochs {
            break;
        }
        for (a, (net, _)) in cells.iter_mut().enumerate() {
            let batch: Vec<_> = reports[1 - a]
                .iter()
                .flat_map(|&gr_net::TxRecord { start, end, .. }| {
                    (0..4).map(move |dst| (mac::NodeId(dst), start + epoch, end + epoch))
                })
                .collect();
            net.inject_busy(&batch);
            if a == 0 {
                batches.push(batch);
            }
        }
    }
    let [(mut net0, cursor0), _] = cells;
    let base_digests = net0.layer_digests();
    let (base_metrics, base_art) = net0.finish_hooked(cursor0, duration);

    let mut resumed_from = 0;
    for (at, bytes) in &base_art.checkpoints {
        let mut net = build_world_cell(3);
        net.snap_restore(&mut Dec::new(bytes)).unwrap();
        if net.pending_credits() == 0 || at.as_nanos() % epoch.as_nanos() == 0 {
            continue;
        }
        resumed_from += 1;
        let mut cursor = net.begin_hooked(hooks, Some(*at));
        // The epoch the checkpoint fell in, then the rest with the same
        // injections at the same barriers.
        let first = (at.as_nanos() / epoch.as_nanos()) as usize;
        for k in first..epochs {
            net.advance(&mut cursor, horizon(k));
            if let Some(batch) = batches.get(k) {
                net.inject_busy(batch);
            }
        }
        let digests = net.layer_digests();
        let (metrics, art) = net.finish_hooked(cursor, duration);
        assert_eq!(
            metrics.events_processed, base_metrics.events_processed,
            "resumed from {at:?}"
        );
        assert_eq!(digests, base_digests, "resumed from {at:?}");
        let tail: Vec<_> = base_art
            .audit
            .entries
            .iter()
            .filter(|e| e.vt_ns > at.as_nanos())
            .cloned()
            .collect();
        assert_eq!(art.audit.entries, tail, "audit ladder tail from {at:?}");
    }
    assert!(
        resumed_from >= 10,
        "want several mid-epoch checkpoints holding credits, got {resumed_from}"
    );
}
