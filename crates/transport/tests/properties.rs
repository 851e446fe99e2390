//! Property-based tests of the transport layer.

use gr_transport::tcp::{TcpConfig, TcpOutput, TcpReceiver, TcpSender};
use gr_transport::{FlowId, RtoEstimator, Segment};
use proptest::prelude::*;
use sim::{SimDuration, SimTime};

/// Runs one handler into a fresh buffer and returns what it appended.
fn outs(call: impl FnOnce(&mut Vec<TcpOutput>)) -> Vec<TcpOutput> {
    let mut out = Vec::new();
    call(&mut out);
    out
}

fn data_seqs(out: &[TcpOutput]) -> Vec<u64> {
    out.iter()
        .filter_map(|o| match o {
            TcpOutput::Send(Segment::TcpData { seq, .. }) => Some(*seq),
            _ => None,
        })
        .collect()
}

proptest! {
    /// Under any ACK sequence the sender never exceeds its window and
    /// never regresses `snd_una`.
    #[test]
    fn sender_window_invariant(acks in proptest::collection::vec(0u64..200, 1..100)) {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        outs(|v| s.start(SimTime::ZERO, v));
        let mut t = SimTime::ZERO;
        for ack in acks {
            t += SimDuration::from_millis(1);
            outs(|v| s.on_ack(t, ack, v));
            prop_assert!(s.flight_size() <= 50, "flight exceeded window cap");
            prop_assert!(s.cwnd() >= 1.0);
        }
    }

    /// The receiver's expected sequence is non-decreasing and its ACKs
    /// are cumulative (equal to the number of in-order segments).
    #[test]
    fn receiver_cumulative_acks(seqs in proptest::collection::vec(0u64..30, 1..200)) {
        let mut r = TcpReceiver::new(FlowId(0));
        let mut highest_in_order = 0u64;
        let mut seen = std::collections::BTreeSet::new();
        for seq in seqs {
            let ack = r.on_data(seq, 1084);
            seen.insert(seq);
            while seen.contains(&highest_in_order) {
                highest_in_order += 1;
            }
            match ack {
                Segment::TcpAck { ack, .. } => {
                    prop_assert_eq!(ack, highest_in_order, "ACK must be cumulative");
                }
                _ => prop_assert!(false, "receiver must emit TcpAck"),
            }
            prop_assert_eq!(r.expected(), highest_in_order);
        }
    }

    /// Distinct-segment accounting matches the set of unique sequences.
    #[test]
    fn receiver_counts_distinct(seqs in proptest::collection::vec(0u64..30, 1..200)) {
        let mut r = TcpReceiver::new(FlowId(0));
        let mut unique = std::collections::HashSet::new();
        for &seq in &seqs {
            r.on_data(seq, 1084);
            unique.insert(seq);
        }
        prop_assert_eq!(r.distinct_segments as usize, unique.len());
        prop_assert_eq!(r.duplicates as usize, seqs.len() - unique.len());
    }

    /// Timeouts always retransmit the oldest unacknowledged segment.
    #[test]
    fn timeout_retransmits_snd_una(acked in 0u64..20) {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        outs(|v| s.start(SimTime::ZERO, v));
        let mut t = SimTime::ZERO;
        for a in 1..=acked {
            t += SimDuration::from_millis(1);
            outs(|v| s.on_ack(t, a, v));
        }
        let out = outs(|v| s.on_timeout(t + SimDuration::from_secs(2), v));
        prop_assert_eq!(data_seqs(&out), vec![acked]);
        prop_assert_eq!(s.cwnd(), 1.0);
    }

    /// RTO stays within its configured clamp for any sample sequence.
    #[test]
    fn rto_clamped(samples in proptest::collection::vec(1u64..5_000, 0..50), backoffs in 0u32..10) {
        let min = SimDuration::from_millis(200);
        let max = SimDuration::from_secs(60);
        let mut r = RtoEstimator::new(min, max);
        for ms in samples {
            r.sample(SimDuration::from_millis(ms));
            prop_assert!(r.rto() >= min && r.rto() <= max);
        }
        for _ in 0..backoffs {
            r.back_off();
            prop_assert!(r.rto() >= min && r.rto() <= max);
        }
    }

    /// The sender never emits a brand-new sequence lower than one it
    /// already sent (retransmissions excepted, which reuse old numbers).
    #[test]
    fn new_sequences_monotone(acks in proptest::collection::vec(0u64..100, 1..100)) {
        let mut s = TcpSender::new(FlowId(0), TcpConfig::default());
        let mut highest: i64 = -1;
        let check = |out: &[TcpOutput], highest: &mut i64| {
            for seq in data_seqs(out) {
                let seq = seq as i64;
                if seq > *highest {
                    // New data must extend the space contiguously.
                    assert_eq!(seq, *highest + 1, "gap in new sequence numbers");
                    *highest = seq;
                }
            }
        };
        let out = outs(|v| s.start(SimTime::ZERO, v));
        check(&out, &mut highest);
        let mut t = SimTime::ZERO;
        for ack in acks {
            t += SimDuration::from_millis(1);
            let out = outs(|v| s.on_ack(t, ack, v));
            check(&out, &mut highest);
        }
    }
}
