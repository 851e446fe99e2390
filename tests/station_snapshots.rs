//! Pins the audit-ladder bytes of runs whose stations misbehave or
//! detect, so a change to how the MAC consults a station's policy or its
//! GRC observer cannot move them unnoticed. Both runs audit every 100 ms;
//! the root digest covers every rung, including each station's policy
//! and observer state.

use greedy80211_repro::{
    FakeConfig, GrcObserver, GreedyConfig, NavInflationConfig, PolicySlot, Run, Scenario,
    SpoofConfig,
};
use net::{NetworkBuilder, RunHooks};
use phy::{ErrorModel, ErrorUnit, PhyParams, Position};
use sim::{SimDuration, SimTime};

const AUDIT_EVERY: SimDuration = SimDuration::from_millis(100);

/// Three UDP pairs at BER 2e-4 with GRC on every honest station; receiver
/// 1 inflates CTS NAVs, spoofs ACKs for the other two receivers and fakes
/// ACKs for its own corrupted frames, each at greedy percentage 0.5.
#[test]
fn greedy_receiver_run_is_pinned() {
    let mut s = Scenario {
        pairs: 3,
        byte_error_rate: 2e-4,
        grc: Some(true),
        duration: SimDuration::from_millis(1_500),
        seed: 3,
        ..Scenario::default()
    };
    let receivers = s.build().expect("scenario builds").receivers;
    s.greedy = vec![(
        1,
        GreedyConfig {
            nav: Some(NavInflationConfig::cts_only(2_000, 0.5)),
            spoof: Some(SpoofConfig {
                victims: vec![receivers[0], receivers[2]],
                gp: 0.5,
            }),
            fake: Some(FakeConfig { gp: 0.5 }),
        },
    )];
    let out = Run::plan(&s).audit_every(AUDIT_EVERY).execute().unwrap();
    let greedy = &out.metrics.nodes[&receivers[1].0].counters;
    assert_eq!(greedy.spoofed_acks_sent.get(), 158);
    assert_eq!(greedy.fake_acks_sent.get(), 3);
    assert_eq!(greedy.inflated_navs_sent.get(), 34);
    assert_eq!(out.audit.root_digest(), 0x9e64e603228b1850);
}

/// A backoff-cheating sender beside two GRC stations, one mitigating and
/// one detecting only, run in 100 ms steps through the hooked lifecycle.
#[test]
fn greedy_sender_run_is_pinned() {
    let params = PhyParams::dot11b();
    let mut b = NetworkBuilder::new(params)
        .seed(4)
        .default_error(ErrorModel::new(ErrorUnit::Byte, 1e-4).unwrap());
    let cheat = b.add_node_with_policy(Position::new(0.0, 0.0), PolicySlot::greedy_sender(0.1));
    let r0 = b.add_node(Position::new(20.0, 0.0));
    let s1 = b.add_node_with_observer(Position::new(0.0, 20.0), GrcObserver::new(params, true));
    let r1 = b.add_node_with_observer(Position::new(20.0, 20.0), GrcObserver::new(params, false));
    b.udp_flow(cheat, r0, 1024, 5_000_000);
    b.udp_flow(s1, r1, 1024, 5_000_000);
    let mut net = b.build();
    let duration = SimDuration::from_millis(500);
    let hooks = RunHooks {
        audit_every: Some(AUDIT_EVERY),
        ..RunHooks::default()
    };
    let mut cursor = net.begin_hooked(hooks, None);
    for step in 1..=5 {
        net.advance(&mut cursor, SimTime::ZERO + AUDIT_EVERY * step);
    }
    let (_, art) = net.finish_hooked(cursor, duration);
    assert_eq!(art.audit.root_digest(), 0xe327a14018c4902c);
}
