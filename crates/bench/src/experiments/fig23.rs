//! Fig. 23 — GRC against inflated CTS NAV as the two pairs move apart
//! (communication range 55 m, interference range 99 m).
//!
//! Within ~55 m the victims hear the inflated CTS: without GRC they
//! starve; with GRC they reconstruct the correct NAV. The greedy pair's
//! sender sits 10 m beyond its receiver, so between 45 m and 55 m the
//! victims hear the CTS but not the matching RTS and must fall back to
//! the 1500-byte MTU bound — the greedy receiver keeps a small edge
//! there, exactly as the paper observes at its 45 m transition. Past
//! 55 m the CTS is inaudible and only interference remains; past 99 m
//! the pairs are independent and goodput jumps.

use greedy80211::{GrcObserver, GreedyConfig, NavInflationConfig};
use net::NetworkBuilder;
use phy::{ChannelModel, PhyParams, Position};
use sim::SimDuration;

use crate::table::{mbps, Experiment};
use crate::{sweep, RunCtx};

const DISTANCES_M: &[f64] = &[10.0, 25.0, 40.0, 48.0, 54.0, 60.0, 80.0, 95.0, 105.0, 120.0];

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    NoGreedy,
    Greedy,
    GreedyWithGrc,
}

fn run_case(seed: u64, duration: SimDuration, d: f64, udp: bool, mode: Mode) -> Vec<f64> {
    let params = PhyParams::dot11b();
    let mut b = NetworkBuilder::new(params)
        .seed(seed)
        .channel(ChannelModel::grc_evaluation());
    let add = |b: &mut NetworkBuilder, pos: Position, grc: bool| {
        if grc {
            b.add_node_with_observer(pos, GrcObserver::new(params, true))
        } else {
            b.add_node(pos)
        }
    };
    // The greedy receiver R2 fronts its pair at distance `d` from the
    // victims; its sender S2 sits 10 m further out, so for
    // d ∈ (45, 55] the victims hear R2's CTS but not S2's RTS and must
    // clamp by the MTU bound rather than the exact expected NAV.
    let grc = mode == Mode::GreedyWithGrc;
    let s1 = add(&mut b, Position::new(0.0, 0.0), grc);
    let r1 = add(&mut b, Position::new(1.0, 0.0), grc);
    let s2 = add(&mut b, Position::new(d + 10.0, 0.0), grc);
    let r2 = match mode {
        Mode::NoGreedy => b.add_node(Position::new(d, 0.0)),
        _ => b.add_node_with_policy(
            Position::new(d, 0.0),
            GreedyConfig::nav_inflation(NavInflationConfig::cts_only(31_000, 1.0)).into_policy(),
        ),
    };
    let (f1, f2) = if udp {
        (
            b.udp_flow(s1, r1, 1024, 10_000_000),
            b.udp_flow(s2, r2, 1024, 10_000_000),
        )
    } else {
        (
            b.tcp_flow(s1, r1, Default::default()),
            b.tcp_flow(s2, r2, Default::default()),
        )
    };
    let mut net = b.build();
    let m = net.run(duration);
    vec![m.goodput_mbps(f1), m.goodput_mbps(f2)]
}

/// Runs UDP and TCP sweeps over the pair separation.
pub fn run(ctx: &RunCtx) -> Experiment {
    let q = &ctx.quality;
    let mut e = Experiment::new(
        "fig23",
        "Fig. 23: GRC vs inflated CTS NAV over pair separation (ranges 55/99 m, 802.11b)",
        &[
            "transport",
            "distance_m",
            "noGR_R1",
            "noGR_R2",
            "wGR_R1",
            "wGR_R2",
            "GRC_R1",
            "GRC_R2",
        ],
    );
    for udp in [true, false] {
        let name = if udp { "udp" } else { "tcp" };
        let label = format!("fig23/{name}");
        let rows = sweep(ctx, &label, DISTANCES_M, |&d, seed| {
            let mut row = run_case(seed, q.duration, d, udp, Mode::NoGreedy);
            row.extend(run_case(seed, q.duration, d, udp, Mode::Greedy));
            row.extend(run_case(seed, q.duration, d, udp, Mode::GreedyWithGrc));
            row
        });
        for (&d, vals) in DISTANCES_M.iter().zip(rows) {
            let mut row = vec![name.to_string(), format!("{d:.0}")];
            row.extend(vals.iter().map(|&v| mbps(v)));
            e.push_row(row);
        }
    }
    e
}
