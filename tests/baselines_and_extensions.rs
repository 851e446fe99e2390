//! End-to-end tests of the beyond-the-paper components: the greedy
//! *sender* baseline + DOMINO detection, transmission logs, and ARF rate
//! adaptation interacting with the misbehaviors.

use greedy80211_repro::{DominoDetector, GreedyConfig, NavInflationConfig, PolicySlot};
use mac::{ArfConfig, NodeId};
use net::NetworkBuilder;
use phy::{ErrorModel, ErrorUnit, PhyParams, Position};
use sim::SimDuration;

fn fer_to_byte(fer: f64) -> f64 {
    1.0 - (1.0 - fer).powf(1.0 / 1104.0)
}

#[test]
fn greedy_sender_wins_contention() {
    let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(1);
    let s_greedy = b.add_node_with_policy(Position::new(0.0, 0.0), PolicySlot::greedy_sender(0.1));
    let r1 = b.add_node(Position::new(20.0, 0.0));
    let s_honest = b.add_node(Position::new(0.0, 20.0));
    let r2 = b.add_node(Position::new(20.0, 20.0));
    let f_greedy = b.udp_flow(s_greedy, r1, 1024, 10_000_000);
    let f_honest = b.udp_flow(s_honest, r2, 1024, 10_000_000);
    let mut net = b.build();
    let m = net.run(SimDuration::from_secs(5));
    assert!(
        m.goodput_mbps(f_greedy) > m.goodput_mbps(f_honest) * 1.5,
        "greedy sender must win contention: {} vs {}",
        m.goodput_mbps(f_greedy),
        m.goodput_mbps(f_honest)
    );
}

#[test]
fn domino_flags_greedy_sender_not_honest_nodes() {
    let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(2);
    let s_greedy = b.add_node_with_policy(Position::new(0.0, 0.0), PolicySlot::greedy_sender(0.1));
    let r1 = b.add_node(Position::new(20.0, 0.0));
    let s_honest = b.add_node(Position::new(0.0, 20.0));
    let r2 = b.add_node(Position::new(20.0, 20.0));
    b.udp_flow(s_greedy, r1, 1024, 10_000_000);
    b.udp_flow(s_honest, r2, 1024, 10_000_000);
    let mut net = b.build();
    net.enable_tx_log();
    net.run(SimDuration::from_secs(5));
    let report = DominoDetector::new(PhyParams::dot11b()).analyze(&net.drain_tx_log());
    assert!(
        report.flagged.contains(&s_greedy.0),
        "DOMINO must flag the backoff cheat: {report:?}"
    );
    assert!(
        !report.flagged.contains(&s_honest.0),
        "honest sender must pass: {report:?}"
    );
    // Exact per-sender output: a dropped, reordered or re-timed
    // transmission in the log moves these even when the flagged set
    // holds.
    let avg: Vec<(u16, f64)> = report.avg_backoff_slots.into_iter().collect();
    let samples: Vec<(u16, usize)> = report.samples.into_iter().collect();
    assert_eq!(
        avg,
        [
            (s_greedy.0, 0.8637238836542392),
            (s_honest.0, 63.88095238095232)
        ]
    );
    assert_eq!(samples, [(s_greedy.0, 4882), (s_honest.0, 63)]);
}

#[test]
fn domino_is_blind_to_nav_inflating_receivers() {
    let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(3);
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(20.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 20.0));
    let r2 = b.add_node_with_policy(
        Position::new(20.0, 20.0),
        GreedyConfig::nav_inflation(NavInflationConfig::cts_only(10_000, 1.0)).into_policy(),
    );
    let f1 = b.udp_flow(s1, r1, 1024, 10_000_000);
    let f2 = b.udp_flow(s2, r2, 1024, 10_000_000);
    let mut net = b.build();
    net.enable_tx_log();
    let m = net.run(SimDuration::from_secs(5));
    // The attack works…
    assert!(m.goodput_mbps(f2) > m.goodput_mbps(f1) * 3.0);
    // …but DOMINO sees honest timing everywhere.
    let report = DominoDetector::new(PhyParams::dot11b()).analyze(&net.drain_tx_log());
    assert!(
        report.flagged.is_empty(),
        "DOMINO must not flag receiver misbehavior: {report:?}"
    );
}

#[test]
fn trace_reveals_airtime_monopoly() {
    let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(4);
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(20.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 20.0));
    let r2 = b.add_node_with_policy(
        Position::new(20.0, 20.0),
        GreedyConfig::nav_inflation(NavInflationConfig::cts_only(31_000, 1.0)).into_policy(),
    );
    b.udp_flow(s1, r1, 1024, 10_000_000);
    b.udp_flow(s2, r2, 1024, 10_000_000);
    let mut net = b.build();
    net.enable_tx_log();
    net.run(SimDuration::from_secs(3));
    let log = net.drain_tx_log();
    // Seconds on air per transmitter.
    let airtime_of = |node: Option<NodeId>| -> f64 {
        log.iter()
            .filter(|t| node.is_none_or(|n| t.src == n))
            .map(|t| (t.end - t.start).as_secs_f64())
            .sum()
    };
    let greedy_air = airtime_of(Some(s2));
    let honest_air = airtime_of(Some(s1));
    assert!(
        greedy_air > honest_air * 10.0,
        "airtime shares must expose the monopoly: {greedy_air} vs {honest_air}"
    );
    // Utilization sanity: the winning pair keeps the channel busy, and
    // the double-counting bound keeps the figure finite.
    let u = airtime_of(None) / 3.0;
    assert!((0.5..1.5).contains(&u), "utilization {u}");
}

#[test]
fn arf_steps_down_on_a_rate_degraded_link() {
    // Link clean at 1–2 Mb/s, hopeless at 11 Mb/s: ARF must settle low
    // and deliver more than the fixed-rate sender.
    let build = |arf: bool| {
        let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(5).rts(false);
        let s = b.add_node(Position::new(0.0, 0.0));
        let r = b.add_node(Position::new(20.0, 0.0));
        for (rate, fer) in [
            (1_000_000u64, 0.0),
            (2_000_000, 0.02),
            (5_500_000, 0.5),
            (11_000_000, 0.9),
        ] {
            b.link_rate_error(
                s,
                r,
                rate,
                ErrorModel::new(ErrorUnit::Byte, fer_to_byte(fer)).unwrap(),
            );
        }
        b.link_error(
            s,
            r,
            ErrorModel::new(ErrorUnit::Byte, fer_to_byte(0.9)).unwrap(),
        );
        if arf {
            b.set_auto_rate(s, ArfConfig::dot11b());
        }
        let f = b.udp_flow(s, r, 1024, 10_000_000);
        let mut net = b.build();
        let m = net.run(SimDuration::from_secs(5));
        (m.goodput_mbps(f), net)
    };
    let (fixed, _) = build(false);
    let (adaptive, net) = build(true);
    assert!(
        adaptive > fixed * 2.0,
        "ARF must rescue the degraded link: {adaptive} vs {fixed}"
    );
    // The sender's ARF state settled below the top rate.
    let arf = net.dcf(mac::NodeId(0)).arf().expect("ARF enabled");
    assert!(
        arf.rate_bps() < 11_000_000,
        "rate {} too high",
        arf.rate_bps()
    );
    assert!(arf.step_downs > 0);
}

#[test]
fn fake_acks_pin_arf_at_a_bad_rate() {
    // The paper's §IX prediction: under auto-rate, fake ACKs hide the
    // loss signal ARF needs, pinning the sender at a rate the greedy
    // receiver cannot decode — the misbehavior backfires.
    let build = |fake: bool| {
        let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(6).rts(false);
        let s = b.add_node(Position::new(0.0, 0.0));
        let r = if fake {
            b.add_node_with_policy(
                Position::new(20.0, 0.0),
                GreedyConfig::fake_acks(1.0).into_policy(),
            )
        } else {
            b.add_node(Position::new(20.0, 0.0))
        };
        for (rate, fer) in [
            (1_000_000u64, 0.0),
            (2_000_000, 0.02),
            (5_500_000, 0.5),
            (11_000_000, 0.9),
        ] {
            b.link_rate_error(
                s,
                r,
                rate,
                ErrorModel::new(ErrorUnit::Byte, fer_to_byte(fer)).unwrap(),
            );
        }
        b.set_auto_rate(s, ArfConfig::dot11b());
        let f = b.udp_flow(s, r, 1024, 10_000_000);
        let mut net = b.build();
        let m = net.run(SimDuration::from_secs(5));
        m.goodput_mbps(f)
    };
    let honest = build(false);
    let faking = build(true);
    assert!(
        faking < honest * 0.7,
        "faking must backfire under ARF: {faking} vs honest {honest}"
    );
}
