//! Checkpoint/resume and audit-ladder guarantees at the runtime level:
//! restoring a mid-run snapshot into a freshly built identical network
//! and resuming must reproduce the uninterrupted run exactly.

use gr_net::{NetworkBuilder, RunArtifacts, RunHooks};
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

fn fingerprint(m: &gr_net::RunMetrics, flows: &[transport::FlowId]) -> Vec<(u64, u64, u64)> {
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
    let (base_metrics, base_art) = baseline.run_hooked(duration, hooks);
    let n = base_art.checkpoints.len();
    assert!(n >= 2, "need a mid-run checkpoint");
    for (i, (at, bytes)) in base_art.checkpoints[..n - 1].iter().enumerate() {
        let (mut resumed, _) = build();
        resumed.snap_restore(&mut Dec::new(bytes)).unwrap();
        let (res_metrics, res_art) = resumed.resume_hooked(duration, hooks, *at);

        assert_eq!(
            fingerprint(&base_metrics, &flows),
            fingerprint(&res_metrics, &flows),
            "resumed run from {at:?} must reproduce the uninterrupted metrics"
        );
        // The resumed audit tail must equal the baseline rungs after `at`.
        let tail: Vec<_> = base_art
            .audit
            .iter()
            .filter(|(vt, _, _)| *vt > at.as_nanos())
            .copied()
            .collect();
        assert_eq!(res_art.audit, tail, "audit ladder tails must agree");
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
    assert_eq!(art.audit.len(), 8 * 6, "8 barriers x 6 layers");
}

#[test]
fn hidden_terminal_resume_restores_the_overlap_window() {
    assert_resume_matches(build_hidden, SimDuration::from_millis(100));
}

#[test]
fn rng_perturbation_diverges_and_shows_in_the_ladder() {
    let duration = SimDuration::from_secs(1);
    let audit = RunHooks {
        audit_every: Some(SimDuration::from_millis(100)),
        ..RunHooks::default()
    };
    let (mut clean, _) = build();
    let (_, clean_art) = clean.run_hooked(duration, audit);

    let perturbed_hooks = RunHooks {
        perturb_rng_at: Some(SimTime::from_millis(420)),
        ..audit
    };
    let (mut dirty, _) = build();
    let (_, dirty_art) = dirty.run_hooked(duration, perturbed_hooks);

    assert_eq!(clean_art.audit.len(), dirty_art.audit.len());
    // Before the perturbation instant every layer agrees; after it the
    // RNG layer must differ (one extra draw shifts the stream).
    for ((vt, layer, a), (_, _, b)) in clean_art.audit.iter().zip(dirty_art.audit.iter()) {
        if *vt <= 400_000_000 {
            assert_eq!(a, b, "premature divergence at {vt} ns in {layer}");
        }
    }
    let rng_diverged = clean_art
        .audit
        .iter()
        .zip(dirty_art.audit.iter())
        .any(|((vt, layer, a), (_, _, b))| *layer == "rng" && *vt > 400_000_000 && a != b);
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
    let (hooked_metrics, art) = hooked.run_hooked(duration, hooks);
    assert_eq!(
        fingerprint(&plain_metrics, &flows),
        fingerprint(&hooked_metrics, &flows),
        "audit and checkpoint hooks must not perturb outcomes"
    );
    assert_eq!(art.checkpoints.len(), 10);
    assert_eq!(plain.layer_digests(), hooked.layer_digests());
}
