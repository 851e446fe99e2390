//! Fusing injected busy intervals must not change the simulation.
//!
//! The same per-epoch batches of neighbor-cell busy intervals go into
//! two identical networks carrying local traffic: one interval per
//! `inject_busy` call (a batch of one never fuses) and whole batches
//! (strictly overlapping intervals fuse per station). Everything the run
//! exposes must agree: `events_processed`, the MAC counters, the RNG
//! stream, the recorded PHY/MAC event stream and gauge samples, the
//! hook-visible layers of every audit rung and the dispatch count in
//! every checkpoint. The fused run's own bytes (every audit layer and
//! every checkpoint) are pinned to digests, so a change to how fusion
//! is computed cannot move them unnoticed.

use gr_net::{Network, NetworkBuilder, RunHooks};
use mac::NodeId;
use phy::{ErrorModel, ErrorUnit, PhyParams, Position};
use sim::{SimDuration, SimRng, SimTime};
use snap::{Dec, SnapState};

const EPOCH_US: i64 = 5_000;
const DURATION: SimDuration = SimDuration::from_millis(42);
const STATIONS: u16 = 4;

/// Two saturating UDP pairs in one collision domain with byte errors,
/// so the RNG stream and every DCF path stay busy.
fn build() -> Network {
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(5)
        .default_error(ErrorModel::new(ErrorUnit::Byte, 1e-4).unwrap());
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(5.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 5.0));
    let r2 = b.add_node(Position::new(5.0, 5.0));
    b.udp_flow(s1, r1, 1024, 3_000_000);
    b.udp_flow(s2, r2, 512, 2_000_000);
    b.build()
}

/// The batch injected at barrier `b`: scripted cases, each on a station
/// that rotates with the epoch, then a random storm of overlapping
/// intervals. Offsets are nanoseconds from `b`.
fn batch(epoch: usize, b: SimTime, rng: &mut SimRng) -> Vec<(NodeId, SimTime, SimTime)> {
    const US: i64 = 1_000;
    let e = EPOCH_US * US;
    let cases: [&[(i64, i64)]; 7] = [
        // Touching, the earlier interval listed first: idle then busy.
        &[(100 * US, 300 * US), (300 * US, 500 * US)],
        // Touching, the later interval listed first.
        &[(900 * US, 1100 * US), (700 * US, 900 * US)],
        // Equal starts and equal ends.
        &[
            (1300 * US, 1700 * US),
            (1300 * US, 1500 * US),
            (1400 * US, 1700 * US),
            (1300 * US, 1700 * US),
        ],
        // Nesting and a chain; an onset falls on the 1 ms audit grid
        // inside the union, which also spans two other grid points.
        &[
            (2000 * US, 3000 * US),
            (2200 * US, 2400 * US),
            (2900 * US, 3500 * US),
            (3000 * US, 3200 * US),
            (3400 * US, 4100 * US),
        ],
        // Starts at or before the barrier: nudged to `b + 1 ns`, two of
        // them emptied by the nudge and dropped.
        &[
            (-200 * US, 50 * US),
            (0, 80 * US),
            (-10 * US, 0),
            (-5_000, 1),
            (-3 * US, 2),
            (-100 * US, 60 * US),
        ],
        // Crossing the next epoch boundary.
        &[
            (e - 100 * US, e + 300 * US),
            (e - 50 * US, e + 100 * US),
            (e + 200 * US, e + 600 * US),
        ],
        // A lone interval: nothing to fuse with.
        &[(4_500 * US, 4_700 * US)],
    ];
    let at = |off: i64| SimTime::from_nanos((b.as_nanos() as i64 + off) as u64);
    let mut out = Vec::new();
    for (c, case) in cases.iter().enumerate() {
        let node = NodeId(((c + epoch) % STATIONS as usize) as u16);
        out.extend(case.iter().map(|&(s, t)| (node, at(s), at(t))));
    }
    for _ in 0..40 {
        let node = NodeId(rng.uniform_usize(STATIONS as usize) as u16);
        let start = -300 * US + rng.uniform_usize((e + 600 * US) as usize) as i64;
        let len = 20 * US + rng.uniform_usize(1_500 * US as usize) as i64;
        out.push((node, at(start), at(start + len)));
    }
    out
}

/// Everything a run exposes that fusion must leave alone.
struct Observed {
    events: u64,
    counters: Vec<String>,
    rng: u64,
    stream: String,
    probes: Vec<(String, String)>,
    /// Audit rungs without the `sched` and `mac` layers: the scheduler
    /// holds fewer events and busy counts saturate at one per union.
    audit: Vec<snap::audit::AuditEntry>,
    /// The dispatch count each checkpoint carries.
    checkpoint_events: Vec<(SimTime, u64)>,
    /// The clock at each barrier, which the next batch's nudge reads.
    clocks: Vec<SimTime>,
    /// Root digest of the whole audit ladder, every layer included.
    ladder_root: u64,
    /// FNV-1a digest of each checkpoint's encoded state.
    checkpoint_digests: Vec<u64>,
}

/// Runs the network over `DURATION` in 5 ms epochs (the last one
/// ragged), injecting each epoch's batch at its barrier except after the
/// last, whole or one interval per call. Returns what the run exposes
/// and how many edges were fused away.
fn run(fused: bool) -> (Observed, usize) {
    let rec = obs::ObsSpec {
        capacity: 1 << 18,
        probe_interval: Some(SimDuration::from_micros(700)),
        filter: obs::Filter::all(),
    }
    .recorder();
    let mut net = build();
    net.set_recorder(rec.clone());
    let hooks = RunHooks {
        audit_every: Some(SimDuration::from_millis(1)),
        checkpoint_every: Some(SimDuration::from_micros(3_100)),
        ..RunHooks::default()
    };
    net.enable_tx_log();
    let mut cursor = net.begin_hooked(hooks, None);
    let mut rng = SimRng::new(17);
    let mut elided = 0;
    let mut clocks = Vec::new();
    let epochs = DURATION.as_nanos().div_ceil(EPOCH_US as u64 * 1_000) as usize;
    for k in 0..epochs {
        let horizon = SimTime::from_nanos(
            ((k as u64 + 1) * EPOCH_US as u64 * 1_000).min(DURATION.as_nanos()),
        );
        net.advance(&mut cursor, horizon);
        net.drain_tx_log();
        clocks.push(net.now());
        if k + 1 == epochs {
            break;
        }
        let batch = batch(k, horizon, &mut rng);
        let before = net.pending_credits();
        if fused {
            net.inject_busy(&batch);
        } else {
            for iv in &batch {
                net.inject_busy(std::slice::from_ref(iv));
            }
        }
        elided += net.pending_credits() - before;
    }
    let rng_digest = net.layer_digests()[0].1;
    let (metrics, art) = net.finish_hooked(cursor, DURATION);
    let report = rec.borrow_mut().drain_report();
    assert_eq!(report.dropped, 0, "recorder ring too small");
    let checkpoint_events = art
        .checkpoints
        .iter()
        .map(|(at, bytes)| {
            let mut restored = build();
            restored.snap_restore(&mut Dec::new(bytes)).unwrap();
            let cursor = restored.begin_hooked(RunHooks::default(), Some(*at));
            let events = restored.finish_hooked(cursor, DURATION).0.events_processed;
            (*at, events)
        })
        .collect();
    let observed = Observed {
        ladder_root: art.audit.root_digest(),
        checkpoint_digests: art
            .checkpoints
            .iter()
            .map(|(_, bytes)| snap::fnv1a(bytes))
            .collect(),
        events: metrics.events_processed,
        counters: metrics
            .nodes
            .values()
            .map(|n| format!("{:?}", n.counters))
            .collect(),
        rng: rng_digest,
        stream: report.events_jsonl(),
        probes: report.probe_csvs(),
        audit: art
            .audit
            .entries
            .into_iter()
            .filter(|e| !matches!(e.layer.as_str(), "sched" | "mac"))
            .collect(),
        checkpoint_events,
        clocks,
    };
    (observed, elided)
}

#[test]
fn fused_batches_match_one_interval_per_call() {
    let (single, none) = run(false);
    let (fused, elided) = run(true);
    assert_eq!(none, 0, "a batch of one must never fuse");
    assert!(elided > 100, "the batches must exercise fusion ({elided})");
    assert_eq!(single.checkpoint_events.len(), 13);
    assert_eq!(single.audit.len(), 42 * 4);
    assert!(single.stream.lines().count() > 300);
    assert_eq!(single.clocks, fused.clocks);
    assert_eq!(single.events, fused.events);
    assert_eq!(single.checkpoint_events, fused.checkpoint_events);
    assert_eq!(single.counters, fused.counters);
    assert_eq!(single.rng, fused.rng);
    assert_eq!(single.audit, fused.audit);
    assert_eq!(single.probes, fused.probes);
    assert!(
        single.stream == fused.stream,
        "recorded event streams differ"
    );
}

#[test]
fn fused_run_bytes_are_pinned() {
    let (fused, _) = run(true);
    assert_eq!(
        fused.ladder_root, LADDER_ROOT,
        "{:#018x}",
        fused.ladder_root
    );
    assert_eq!(
        fused.checkpoint_digests, CHECKPOINT_DIGESTS,
        "{:#018x?}",
        fused.checkpoint_digests
    );
}

/// The fused run's audit-ladder root and checkpoint digests, recorded
/// with the sort-based fusion that preceded per-station bucketing.
const LADDER_ROOT: u64 = 0xd5f9_122d_718d_cc72;
const CHECKPOINT_DIGESTS: [u64; 13] = [
    0x6a45_3817_9f9f_94ce,
    0x7599_c982_796a_54b3,
    0x9edf_e5ab_46cb_7fa3,
    0x3203_d468_de52_5369,
    0xae88_32d0_ae80_7200,
    0xc475_2f93_f053_e17e,
    0x0105_edb8_1f1b_b2fb,
    0xa68d_b213_1e19_13e0,
    0x2ead_e916_a257_1410,
    0x34e3_1d30_3f3a_9225,
    0x29d5_bb08_7a10_97ba,
    0x8478_686c_5ec8_613d,
    0x4a7c_83b9_5ed4_a523,
];

#[test]
fn fused_edges_are_credited_when_the_loop_passes_them() {
    // No flows: only the injected edges dispatch.
    let mut b = NetworkBuilder::new(PhyParams::dot11b());
    for i in 0..STATIONS {
        b.add_node(Position::new(5.0 * f64::from(i), 0.0));
    }
    let mut net = b.build();
    let mut cursor = net.begin_hooked(RunHooks::default(), None);
    let t = SimTime::from_micros;
    // Station 1: [100, 400) ∪ [200, 300) ∪ [350, 500) is one union, so
    // only the onset at 100 and the end at 500 are armed; the onsets at
    // 200 and 350 and the ends at 300 and 400 are fused away. Station 3's
    // intervals touch and stay apart.
    net.inject_busy(&[
        (NodeId(1), t(100), t(400)),
        (NodeId(3), t(100), t(200)),
        (NodeId(1), t(200), t(300)),
        (NodeId(3), t(200), t(300)),
        (NodeId(1), t(350), t(500)),
    ]);
    assert_eq!(net.pending_credits(), 4);
    net.advance(&mut cursor, t(300));
    assert_eq!(
        net.pending_credits(),
        2,
        "200 and 300 credited at the horizon"
    );
    net.advance(&mut cursor, t(399));
    assert_eq!(net.pending_credits(), 1);
    net.advance(&mut cursor, t(600));
    assert_eq!(net.pending_credits(), 0);
    let (metrics, _) = net.finish_hooked(cursor, SimDuration::from_micros(600));
    assert_eq!(metrics.events_processed, 10, "every edge counted once");
}
