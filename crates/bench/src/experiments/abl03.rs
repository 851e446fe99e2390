//! Ablation 3 — the NAV guard's MTU assumption.
//!
//! When a GRC node hears only the greedy receiver's CTS (not the
//! matching RTS), it clamps the NAV to the worst-case exchange for an
//! assumed MTU. The paper argues 1500 B (Internet traffic); the 802.11
//! maximum MSDU would be 2304 B. The looser the bound, the more
//! residual over-reservation the greedy receiver keeps in the
//! 45–55 m band of the Fig. 23 topology where only the CTS is heard.

use greedy80211::{GrcObserver, GreedyConfig, NavInflationConfig};
use net::NetworkBuilder;
use phy::{ChannelModel, PhyParams, Position};

use crate::table::{mbps, Experiment};
use crate::{sweep, Quality, RunCtx};

fn run_case(q: &Quality, seed: u64, mtu: usize) -> Vec<f64> {
    // Fig. 23 geometry pinned at d = 48 m: victims hear R2's CTS but
    // not S2's RTS → the MTU bound is the only defence.
    let d = 48.0;
    let params = PhyParams::dot11b();
    let mut b = NetworkBuilder::new(params)
        .seed(seed)
        .channel(ChannelModel::grc_evaluation());
    let add_grc = |b: &mut NetworkBuilder, pos: Position| {
        b.add_node_with_observer(pos, GrcObserver::with_nav_mtu(params, true, mtu))
    };
    let s1 = add_grc(&mut b, Position::new(0.0, 0.0));
    let r1 = add_grc(&mut b, Position::new(1.0, 0.0));
    let s2 = add_grc(&mut b, Position::new(d + 10.0, 0.0));
    let r2 = b.add_node_with_policy(
        Position::new(d, 0.0),
        GreedyConfig::nav_inflation(NavInflationConfig::cts_only(31_000, 1.0)).into_policy(),
    );
    let f1 = b.udp_flow(s1, r1, 1024, 10_000_000);
    let f2 = b.udp_flow(s2, r2, 1024, 10_000_000);
    let mut net = b.build();
    let m = net.run(q.duration);
    vec![m.goodput_mbps(f1), m.goodput_mbps(f2)]
}

/// Assumed MTUs swept: 1060 ≈ the true packet size (tight bound),
/// 1500 = paper's choice, 2304 = 802.11 maximum MSDU (loosest sound bound).
const MTUS: &[usize] = &[1060, 1500, 2304];

/// Runs the MTU-assumption sweep.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "abl3",
        "Ablation: NAV-guard MTU assumption in the CTS-only band (Fig. 23 topology, d = 48 m)",
        &["assumed_mtu", "victim_mbps", "GR_mbps"],
    );
    let rows = sweep(ctx, "abl3", MTUS, |&mtu, seed| run_case(q, seed, mtu));
    for (&mtu, vals) in MTUS.iter().zip(rows) {
        e.push_row(vec![mtu.to_string(), mbps(vals[0]), mbps(vals[1])]);
    }
    e
}
