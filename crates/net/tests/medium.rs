//! Medium-level behavior: capture, collisions, carrier-sense latency,
//! half-duplex and promiscuous delivery, exercised through small
//! purpose-built topologies.

use gr_net::NetworkBuilder;
use phy::{CaptureModel, ChannelModel, ErrorModel, ErrorUnit, PhyParams, Position};
use sim::SimDuration;

#[test]
fn overheard_traffic_reaches_promiscuous_neighbors() {
    // A bystander within decode range hears both directions of a flow
    // (its counters show no deliveries, but also no corruption).
    let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(1);
    let s = b.add_node(Position::new(0.0, 0.0));
    let r = b.add_node(Position::new(10.0, 0.0));
    let bystander = b.add_node(Position::new(5.0, 5.0));
    let f = b.udp_flow(s, r, 1024, 5_000_000);
    let mut net = b.build();
    let m = net.run(SimDuration::from_secs(2));
    assert!(m.goodput_mbps(f) > 1.0);
    let by = m.node(bystander).unwrap();
    assert_eq!(by.counters.delivered_msdus.get(), 0);
    assert_eq!(by.counters.collision_rx.get(), 0);
}

#[test]
fn out_of_range_flows_do_not_interact() {
    // Two pairs beyond carrier-sense range each get the full channel.
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(2)
        .channel(ChannelModel::with_ranges(55.0, 99.0));
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(10.0, 0.0));
    let s2 = b.add_node(Position::new(300.0, 0.0));
    let r2 = b.add_node(Position::new(310.0, 0.0));
    let f1 = b.udp_flow(s1, r1, 1024, 10_000_000);
    let f2 = b.udp_flow(s2, r2, 1024, 10_000_000);
    let mut net = b.build();
    let m = net.run(SimDuration::from_secs(3));
    // Each matches the single-flow saturation goodput (~3.5 Mb/s).
    assert!(m.goodput_mbps(f1) > 3.0, "f1 {}", m.goodput_mbps(f1));
    assert!(m.goodput_mbps(f2) > 3.0, "f2 {}", m.goodput_mbps(f2));
}

#[test]
fn sense_only_range_defers_but_cannot_decode() {
    // A pair placed in the interference band of another pair defers
    // (goodput drops vs. isolation) yet never decodes its frames.
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(3)
        .channel(ChannelModel::with_ranges(55.0, 99.0));
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(5.0, 0.0));
    // 70 m away: inside carrier-sense range, outside decode range.
    let s2 = b.add_node(Position::new(70.0, 0.0));
    let r2 = b.add_node(Position::new(75.0, 0.0));
    let f1 = b.udp_flow(s1, r1, 1024, 10_000_000);
    let f2 = b.udp_flow(s2, r2, 1024, 10_000_000);
    let mut net = b.build();
    let m = net.run(SimDuration::from_secs(3));
    let (g1, g2) = (m.goodput_mbps(f1), m.goodput_mbps(f2));
    // They share the channel (≈half each), proving carrier sense works
    // across the sense-only band.
    assert!(g1 + g2 < 4.5, "must share: {g1} + {g2}");
    assert!(g1 > 1.0 && g2 > 1.0, "both progress: {g1}, {g2}");
}

#[test]
fn capture_lets_the_strong_frame_survive_hidden_collisions() {
    // Hidden senders, receiver much closer to S1: S1's frames capture
    // over S2's at R1, so R1 still gets traffic while an equidistant
    // receiver sees mostly collisions.
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(4)
        .rts(false)
        .capture(CaptureModel::new(10.0))
        .channel(ChannelModel::with_ranges(120.0, 120.0));
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let s2 = b.add_node(Position::new(200.0, 0.0));
    let near = b.add_node(Position::new(10.0, 0.0)); // close to S1
    let mid = b.add_node(Position::new(100.0, 0.0)); // equidistant
    let f_near = b.udp_flow(s1, near, 1024, 10_000_000);
    let f_mid = b.udp_flow(s2, mid, 1024, 10_000_000);
    let mut net = b.build();
    let m = net.run(SimDuration::from_secs(3));
    let g_near = m.goodput_mbps(f_near);
    let g_mid = m.goodput_mbps(f_mid);
    assert!(
        g_near > g_mid * 2.0,
        "capture should favor the near receiver: {g_near} vs {g_mid}"
    );
    // The equidistant receiver records plenty of collisions.
    assert!(m.node(mid).unwrap().counters.collision_rx.get() > 100);
}

#[test]
fn rts_cts_mitigates_hidden_terminals() {
    let run = |rts: bool| {
        let mut b = NetworkBuilder::new(PhyParams::dot11b())
            .seed(5)
            .rts(rts)
            .channel(ChannelModel::with_ranges(60.0, 60.0));
        let s1 = b.add_node(Position::new(0.0, 0.0));
        let r1 = b.add_node(Position::new(50.0, 0.0));
        let r2 = b.add_node(Position::new(52.0, 0.0));
        let s2 = b.add_node(Position::new(102.0, 0.0));
        let f1 = b.udp_flow(s1, r1, 1024, 10_000_000);
        let f2 = b.udp_flow(s2, r2, 1024, 10_000_000);
        let mut net = b.build();
        let m = net.run(SimDuration::from_secs(3));
        let data_collisions = m.node(r1).unwrap().counters.collision_rx.get()
            + m.node(r2).unwrap().counters.collision_rx.get();
        (m.goodput_mbps(f1) + m.goodput_mbps(f2), data_collisions)
    };
    let (_, collisions_with) = run(true);
    let (_, collisions_without) = run(false);
    assert!(
        collisions_with < collisions_without / 2,
        "RTS/CTS must cut collisions: {collisions_with} vs {collisions_without}"
    );
}

#[test]
fn directional_link_errors_hit_only_their_link() {
    let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(6);
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(5.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 10.0));
    let r2 = b.add_node(Position::new(5.0, 10.0));
    // Only s1→r1 is lossy.
    b.link_error(s1, r1, ErrorModel::new(ErrorUnit::Byte, 3e-4).unwrap());
    let f1 = b.udp_flow(s1, r1, 1024, 10_000_000);
    let f2 = b.udp_flow(s2, r2, 1024, 10_000_000);
    let mut net = b.build();
    let m = net.run(SimDuration::from_secs(3));
    assert!(m.node(r1).unwrap().counters.corrupted_rx.get() > 50);
    assert_eq!(m.node(r2).unwrap().counters.corrupted_rx.get(), 0);
    assert!(m.goodput_mbps(f2) > m.goodput_mbps(f1));
}

#[test]
fn collision_window_is_one_slot_wide() {
    // With a single collision domain and two saturated senders, RTS
    // collisions should occur at a small but non-zero rate (the ±1 slot
    // window over CWmin+1 slots). Zero would mean no collision window;
    // a huge rate would mean carrier sense is broken.
    let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(7);
    let s1 = b.add_node(Position::new(0.0, 0.0));
    let r1 = b.add_node(Position::new(5.0, 0.0));
    let s2 = b.add_node(Position::new(0.0, 5.0));
    let r2 = b.add_node(Position::new(5.0, 5.0));
    b.udp_flow(s1, r1, 1024, 10_000_000);
    b.udp_flow(s2, r2, 1024, 10_000_000);
    let mut net = b.build();
    let m = net.run(SimDuration::from_secs(5));
    let c1 = &m.node(s1).unwrap().counters;
    let c2 = &m.node(s2).unwrap().counters;
    let attempts = (c1.rts_sent.get() + c2.rts_sent.get()) as f64;
    let timeouts = (c1.timeouts.get() + c2.timeouts.get()) as f64;
    let rate = timeouts / attempts;
    assert!(
        (0.01..0.35).contains(&rate),
        "collision rate {rate} outside plausible band"
    );
}

#[test]
fn wireline_delay_shapes_tcp_rtt() {
    // Goodput over a long wire is window/RTT-limited: doubling the wire
    // delay roughly halves it.
    let goodput = |ms: u64| {
        let mut b = NetworkBuilder::new(PhyParams::dot11b()).seed(8);
        let ap = b.add_node(Position::new(0.0, 0.0));
        let c = b.add_node(Position::new(5.0, 0.0));
        let f = b.tcp_flow_remote(ap, c, Default::default(), SimDuration::from_millis(ms));
        let mut net = b.build();
        net.run(SimDuration::from_secs(20)).goodput_mbps(f)
    };
    let g100 = goodput(100);
    let g200 = goodput(200);
    // window 50 × 1024 B / 0.2 s RTT ≈ 2 Mb/s; / 0.4 s ≈ 1 Mb/s.
    assert!(
        (g100 / g200 - 2.0).abs() < 0.5,
        "RTT scaling off: {g100} vs {g200}"
    );
}

#[test]
fn short_hidden_frames_still_collide_with_a_long_frame() {
    // A saturates B with 1500 B frames without RTS/CTS; C, hidden from
    // A but in range of B, sends a steady stream of 64 B frames to D.
    // C's short frames end during A's long ones, so B's verdict on a long
    // frame depends on the medium still remembering a short frame that
    // ended before the long one did. Pinned: keeping finished frames for
    // less than the longest airtime loses collisions and moves all three.
    let mut b = NetworkBuilder::new(PhyParams::dot11b())
        .seed(9)
        .rts(false)
        .channel(ChannelModel::with_ranges(60.0, 60.0))
        .default_error(ErrorModel::new(ErrorUnit::Byte, 2e-5).unwrap());
    let a = b.add_node(Position::new(0.0, 0.0));
    let rx = b.add_node(Position::new(50.0, 0.0));
    let c = b.add_node(Position::new(102.0, 0.0));
    let d = b.add_node(Position::new(120.0, 0.0));
    b.udp_flow(a, rx, 1500, 10_000_000);
    b.udp_flow(c, d, 64, 200_000);
    let mut net = b.build();
    let m = net.run(SimDuration::from_secs(2));
    let k = &m.node(rx).unwrap().counters;
    let got = (
        k.collision_rx.get(),
        k.corrupted_rx.get(),
        k.delivered_msdus.get(),
    );
    assert_eq!(
        got,
        (1041, 8, 180),
        "B (collision_rx, corrupted_rx, delivered)"
    );
}
