//! Property-based tests of the MAC layer.

use gr_mac::backoff::Backoff;
use gr_mac::dedup::DedupCache;
use gr_mac::{
    Dcf, DcfConfig, Frame, FrameArena, FrameId, MacAction, Nav, NodeId, RxEvent, TimerKind,
};
use phy::{PhyParams, Rssi};
use proptest::prelude::*;
use sim::{SimDuration, SimRng, SimTime};

/// Runs one handler into a fresh buffer and returns what it appended.
fn acts(call: impl FnOnce(&mut Vec<MacAction<usize>>)) -> Vec<MacAction<usize>> {
    let mut actions = Vec::new();
    call(&mut actions);
    actions
}

proptest! {
    /// NAV never moves backwards under any update sequence.
    #[test]
    fn nav_monotone(updates in proptest::collection::vec((0u64..10_000, 0u32..40_000, any::<bool>()), 1..100)) {
        let mut nav = Nav::new();
        let mut sorted = updates.clone();
        sorted.sort_by_key(|&(t, _, _)| t);
        let mut last_until = SimTime::ZERO;
        for (t, dur, to_me) in sorted {
            nav.update(SimTime::from_micros(t), dur, to_me);
            prop_assert!(nav.until() >= last_until, "NAV shrank");
            last_until = nav.until();
        }
    }

    /// The contention window always stays within [CWmin, CWmax] no
    /// matter the success/failure sequence, and draws stay within [0, CW].
    #[test]
    fn backoff_bounds(ops in proptest::collection::vec(any::<bool>(), 1..200), seed in any::<u64>()) {
        let params = PhyParams::dot11b();
        let mut b = Backoff::new(&params);
        let mut rng = SimRng::new(seed);
        for success in ops {
            if success {
                b.on_success();
            } else {
                b.on_failure();
            }
            prop_assert!(b.cw() >= params.cw_min && b.cw() <= params.cw_max);
            prop_assert!(b.draw(&mut rng) <= b.cw());
        }
    }

    /// CW after a failure is exactly 2(CW+1)−1 capped at CWmax.
    #[test]
    fn backoff_doubling_law(failures in 0usize..15) {
        let params = PhyParams::dot11b();
        let mut b = Backoff::new(&params);
        let mut expected = params.cw_min;
        for _ in 0..failures {
            expected = (2 * (expected + 1) - 1).min(params.cw_max);
            b.on_failure();
        }
        prop_assert_eq!(b.cw(), expected);
    }

    /// Dedup: each (src, seq) is delivered at most once, in any order.
    #[test]
    fn dedup_at_most_once(events in proptest::collection::vec((0u16..4, 0u64..20), 1..200)) {
        let mut cache = DedupCache::new();
        let mut delivered = std::collections::HashSet::new();
        for (src, seq) in events {
            if cache.is_new(NodeId(src), seq) {
                prop_assert!(
                    delivered.insert((src, seq)),
                    "duplicate delivery of ({src}, {seq})"
                );
            }
        }
    }

    /// Random (but causally ordered) receptions never panic the DCF and
    /// never produce more deliveries than distinct data frames.
    #[test]
    fn dcf_rx_fuzz(frames in proptest::collection::vec((0u16..4, 0u64..8, any::<bool>()), 1..100)) {
        let mut dcf: Dcf<usize> = Dcf::new(
            NodeId(9),
            DcfConfig::new(PhyParams::dot11b()),
            SimRng::new(7),
        );
        let mut t = SimTime::from_millis(1);
        let mut distinct = std::collections::HashSet::new();
        let mut deliveries = 0u32;
        for (src, seq, corrupted) in frames {
            let frame: Frame<usize> = Frame::data(NodeId(src), NodeId(9), 314, seq, 100);
            let ev = if corrupted {
                RxEvent::Corrupted {
                    frame: &frame,
                    rssi: Rssi::fixed(-60.0),
                    cause: gr_mac::CorruptionCause::Noise,
                }
            } else {
                distinct.insert((src, seq));
                RxEvent::Ok {
                    frame: &frame,
                    rssi: Rssi::fixed(-60.0),
                }
            };
            let actions = acts(|v| dcf.on_rx_end(t, ev, v));
            deliveries += actions
                .iter()
                .filter(|a| matches!(a, MacAction::Deliver { .. }))
                .count() as u32;
            // Flush the pending ACK so the next reception is legal.
            t += SimDuration::from_micros(10);
            let a = acts(|v| dcf.on_timer(t, TimerKind::Sifs, v));
            if a.iter().any(|x| matches!(x, MacAction::StartTx(_))) {
                t += SimDuration::from_micros(304);
                acts(|v| dcf.on_tx_end(t, v));
            }
            t += SimDuration::from_millis(1);
        }
        prop_assert!(deliveries as usize <= distinct.len());
    }

    /// Under arbitrary insert/remove churn — the access pattern MAC
    /// retries and dedup drops produce on the tx table — a stale
    /// [`FrameId`] is always detected (generation mismatch) and a
    /// reused slot never aliases a live frame: every live handle reads
    /// back exactly the sequence number it was inserted with, and every
    /// removed handle reads back `None` forever after.
    #[test]
    fn frame_arena_stale_handles_never_alias(
        ops in proptest::collection::vec((any::<bool>(), 0u64..64, 0usize..16), 1..200)
    ) {
        let mut arena: FrameArena<usize> = FrameArena::new();
        let mut live: Vec<(FrameId, u64)> = Vec::new();
        let mut dead: Vec<FrameId> = Vec::new();
        for (insert, seq, pick) in ops {
            if insert || live.is_empty() {
                let frame: Frame<usize> = Frame::data(NodeId(0), NodeId(1), 314, seq, 100);
                let id = arena.insert(frame, SimTime::ZERO, SimTime::from_micros(seq));
                // A reused slot must carry a fresh generation.
                prop_assert!(
                    !dead.iter().any(|d| d.idx() == id.idx() && d.gen() == id.gen()),
                    "recycled slot {} reissued generation {}", id.idx(), id.gen()
                );
                live.push((id, seq));
            } else {
                let (id, seq) = live.swap_remove(pick % live.len());
                let rec = arena.remove(id).expect("live handle must resolve");
                prop_assert_eq!(rec.frame.seq, seq);
                dead.push(id);
            }
            // Stale handles stay dead even while their slot is reused.
            for d in &dead {
                prop_assert!(arena.get(*d).is_none(), "stale handle resolved");
            }
            for (id, seq) in &live {
                let rec = arena.get(*id).expect("live handle vanished");
                prop_assert_eq!(rec.frame.seq, *seq, "live frame aliased by slot reuse");
            }
            prop_assert_eq!(arena.len(), live.len());
        }
    }

    /// Enqueueing under a busy medium never transmits immediately, and
    /// the queue never exceeds its capacity.
    #[test]
    fn dcf_queue_respects_capacity(n in 1usize..120) {
        let mut dcf: Dcf<usize> = Dcf::new(
            NodeId(0),
            DcfConfig::new(PhyParams::dot11b()),
            SimRng::new(3),
        );
        acts(|v| dcf.on_channel_busy(SimTime::from_micros(1), v));
        for i in 0..n {
            let actions = acts(|v| dcf.on_enqueue(SimTime::from_micros(2 + i as u64), NodeId(1), 100, v));
            prop_assert!(
                !actions.iter().any(|a| matches!(a, MacAction::StartTx(_))),
                "transmitted against a busy medium"
            );
        }
        prop_assert!(dcf.queue_len() <= 50);
        let expected_drops = n.saturating_sub(50) as u64;
        prop_assert_eq!(dcf.counters.queue_drops.get(), expected_drops);
    }
}
