//! Who catches whom: DOMINO (sender-side baseline) vs GRC.
//!
//! Runs four hotspots — honest, backoff-cheating *sender*, NAV-inflating
//! *receiver*, ACK-spoofing *receiver* — with both detectors armed, and
//! prints the coverage matrix beside both pairs' goodput. This is the paper's motivation in one run: sender-side
//! monitors cannot see receiver misbehavior.
//!
//! ```sh
//! cargo run --release --example detector_coverage
//! ```

use greedy80211_repro::{
    DominoDetector, GrcObserver, GreedyConfig, NavInflationConfig, PolicySlot,
};
use net::NetworkBuilder;
use phy::{ErrorModel, ErrorUnit, PhyParams, Position};
use sim::SimDuration;

#[derive(Clone, Copy, PartialEq)]
enum Attack {
    None,
    GreedySender,
    NavInflation,
    AckSpoof,
}

fn run(attack: Attack) -> (f64, f64, usize, u64, u64) {
    let params = PhyParams::dot11b();
    let mut b = NetworkBuilder::new(params).seed(7);
    if attack == Attack::AckSpoof {
        b = b.default_error(ErrorModel::new(ErrorUnit::Byte, 2e-4).expect("rate"));
    }
    let mut handles = Vec::new();
    let mut honest = |b: &mut NetworkBuilder, pos| {
        let (obs, h) = GrcObserver::new(params, true);
        let id = b.add_node_with_observer(pos, obs);
        handles.push(h);
        id
    };
    let s0 = honest(&mut b, Position::new(0.0, 0.0));
    let r0 = honest(&mut b, Position::new(20.0, 0.0));
    let s1 = if attack == Attack::GreedySender {
        b.add_node_with_policy(Position::new(0.0, 20.0), PolicySlot::greedy_sender(0.1))
    } else {
        honest(&mut b, Position::new(0.0, 20.0))
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
        _ => honest(&mut b, Position::new(45.0, 20.0)),
    };
    let f0 = b.udp_flow(s0, r0, 1024, 10_000_000);
    let f1 = b.udp_flow(s1, r1, 1024, 10_000_000);
    let mut net = b.build();
    let log = phy::obs::TxLog::default();
    net.tap(Box::new(log.clone()));
    let m = net.run(SimDuration::from_secs(10));
    let report = DominoDetector::new(params).analyze(&log.events());
    let nav: u64 = handles
        .iter()
        .map(|h| h.nav.borrow().total_detections())
        .sum();
    let spoof: u64 = handles.iter().map(|h| h.spoof.borrow().flagged).sum();
    (
        m.goodput_mbps(f0),
        m.goodput_mbps(f1),
        report.flagged.len(),
        nav,
        spoof,
    )
}

fn main() {
    println!("attack           honest   attacker  DOMINO  GRC-NAV  GRC-spoof");
    for (name, attack) in [
        ("none          ", Attack::None),
        ("greedy sender ", Attack::GreedySender),
        ("NAV inflation ", Attack::NavInflation),
        ("ACK spoofing  ", Attack::AckSpoof),
    ] {
        let (g0, g1, domino, nav, spoof) = run(attack);
        println!("{name}  {g0:>6.3}   {g1:>7.3}   {domino:>4}   {nav:>6}   {spoof:>7}");
    }
    println!(
        "\nDOMINO (timing-based, sender-side) flags only the backoff cheat;\n\
         GRC's NAV reconstruction and RSSI vetting cover the receiver side\n\
         — the complementarity the paper argues for (related work, §III)."
    );
}
