//! Extension 2 — DOMINO (sender-side baseline) vs GRC across
//! misbehavior types.
//!
//! DOMINO (Raya et al.) flags stations whose transmissions follow
//! shorter-than-nominal backoffs — the classic greedy *sender*. All
//! three greedy-*receiver* misbehaviors transmit with perfectly honest
//! timing, so DOMINO stays silent on them while GRC fires; conversely
//! GRC's NAV/RSSI rules say nothing about a backoff cheat. The paper's
//! motivation ("existing work focuses on sender-side misbehavior") in
//! one table.

use greedy80211::{DominoDetector, GrcObserver, GreedyConfig, NavInflationConfig, PolicySlot};
use net::NetworkBuilder;
use phy::{ErrorModel, ErrorUnit, PhyParams, Position};

use crate::table::Experiment;
use crate::{sweep, Quality, RunCtx};

#[derive(Clone, Copy, PartialEq)]
enum Attack {
    None,
    GreedySender,
    NavInflation,
    AckSpoof,
}

/// Returns `(domino_flagged, grc_nav_detections, grc_spoof_flags)`.
fn run_case(q: &Quality, seed: u64, attack: Attack) -> Vec<f64> {
    let params = PhyParams::dot11b();
    let mut b = NetworkBuilder::new(params).seed(seed);
    if attack == Attack::AckSpoof {
        b = b.default_error(ErrorModel::new(ErrorUnit::Byte, 2e-4).expect("rate"));
    }
    let grc_node = |b: &mut NetworkBuilder, pos: Position| {
        b.add_node_with_observer(pos, GrcObserver::new(params, true))
    };
    // Pair 0 is always honest; pair 1 hosts the attacker.
    let s0 = grc_node(&mut b, Position::new(0.0, 0.0));
    let r0 = grc_node(&mut b, Position::new(20.0, 0.0));
    let s1 = if attack == Attack::GreedySender {
        b.add_node_with_policy(Position::new(0.0, 20.0), PolicySlot::greedy_sender(0.1))
    } else {
        grc_node(&mut b, Position::new(0.0, 20.0))
    };
    let r1 = match attack {
        Attack::NavInflation => b.add_node_with_policy(
            Position::new(45.0, 20.0),
            GreedyConfig::nav_inflation(NavInflationConfig::cts_only(10_000, 1.0)).into_policy(),
        ),
        Attack::AckSpoof => b.add_node_with_policy(
            Position::new(45.0, 20.0),
            GreedyConfig::ack_spoofing(vec![r0], 1.0).into_policy(),
        ),
        _ => grc_node(&mut b, Position::new(45.0, 20.0)),
    };
    b.udp_flow(s0, r0, 1024, 10_000_000);
    b.udp_flow(s1, r1, 1024, 10_000_000);
    let mut net = b.build();
    net.enable_tx_log();
    net.run(q.duration);
    let report = DominoDetector::new(params).analyze(&net.drain_tx_log());
    let (mut nav, mut flagged, mut accepted) = (0, 0, 0);
    for (_, grc) in net.grc_stations() {
        let r = grc.report();
        nav += r.nav.total_detections();
        flagged += r.spoof.flagged;
        accepted += r.spoof.accepted;
    }
    let flag_rate = flagged as f64 / (flagged + accepted).max(1) as f64;
    vec![report.flagged.len() as f64, nav as f64, flag_rate]
}

/// Runs the detector-coverage matrix.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "ext2",
        "Extension: detector coverage — DOMINO (sender baseline) vs GRC per misbehavior",
        &[
            "attack",
            "domino_flagged_nodes",
            "grc_nav_detections",
            "grc_spoof_flag_rate",
        ],
    );
    let cases = [
        ("none", Attack::None),
        ("greedy_sender", Attack::GreedySender),
        ("nav_inflation", Attack::NavInflation),
        ("ack_spoofing", Attack::AckSpoof),
    ];
    let rows = sweep(ctx, "ext2", &cases, |&(_, attack), seed| {
        run_case(q, seed, attack)
    });
    for (&(name, _), vals) in cases.iter().zip(rows) {
        e.push_row(vec![
            name.into(),
            format!("{:.0}", vals[0]),
            format!("{:.0}", vals[1]),
            format!("{:.3}", vals[2]),
        ]);
    }
    e
}
