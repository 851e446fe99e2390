//! DOMINO-style sender-side misbehavior detection (Raya et al.,
//! MobiSys 2004) — the related-work baseline.
//!
//! DOMINO monitors transmission *timing*: a station whose transmissions
//! consume less idle (countdown) time than the protocol demands is
//! backing off too little. We reconstruct the measurement offline from a
//! run's `tx_start` events (collected by a [`phy::obs::TxLog`] tap),
//! *freeze-aware*: 802.11 counters pause during busy periods, so each
//! idle gap beyond DIFS is credited to every contending sender's
//! countdown, and a sender's backoff estimate at its own
//! transmission is the idle time accrued since its previous transmission.
//! A sender whose average estimate falls below a fraction of the honest
//! expectation (CWmin/2 slots) is flagged.
//!
//! The point of carrying this detector in a *greedy receiver* paper
//! reproduction: DOMINO is structurally blind to all three receiver
//! misbehaviors — inflated-NAV CTSes, spoofed ACKs and fake ACKs are all
//! transmitted with perfectly honest timing (SIFS responses don't back
//! off at all). The `ext2` experiment demonstrates exactly that.

use std::collections::BTreeMap;

use obs::ObsEvent;
use phy::obs::{FRAME_DATA, FRAME_RTS, TX_START};
use phy::PhyParams;

/// The transmission-log backoff monitor.
#[derive(Debug, Clone)]
pub struct DominoDetector {
    /// PHY timing in effect.
    pub params: PhyParams,
    /// Flag a sender whose mean backoff estimate is below
    /// `threshold_fraction · CWmin/2`.
    pub threshold_fraction: f64,
    /// Minimum access samples before judging a sender.
    pub min_samples: usize,
}

impl DominoDetector {
    /// Creates a detector with the paper-era defaults (flag below half
    /// the nominal mean, after 20 observations).
    pub fn new(params: PhyParams) -> Self {
        DominoDetector {
            params,
            threshold_fraction: 0.5,
            min_samples: 20,
        }
    }
}

/// Per-sender findings.
#[derive(Debug, Clone, Default)]
pub struct DominoReport {
    /// Mean estimated backoff (slots) per observed sender.
    pub avg_backoff_slots: BTreeMap<u16, f64>,
    /// Access samples per sender.
    pub samples: BTreeMap<u16, usize>,
    /// Senders flagged as backing off too little.
    pub flagged: Vec<u16>,
}

impl DominoDetector {
    /// Analyzes a run's events. Only [`TX_START`] events count; their
    /// payload is `[dst, frame code, airtime µs]`.
    pub fn analyze(&self, events: &[ObsEvent]) -> DominoReport {
        let slot_us = self.params.slot.as_micros().max(1);
        let difs_us = self.params.difs.as_micros();
        let tx_starts = || events.iter().filter(|e| std::ptr::eq(e.kind, &TX_START));
        // RTS, or DATA when RTS/CTS is off: the frames that end a
        // contention round (CTS/ACK are SIFS responses).
        let is_access = |e: &ObsEvent| matches!(e.vals[1] as u8, FRAME_RTS | FRAME_DATA);
        // First pass: the contending senders are the stations that ever
        // transmit an access frame.
        let mut senders: BTreeMap<u16, ()> = BTreeMap::new();
        for e in tx_starts().filter(|e| is_access(e)) {
            senders.insert(e.node, ());
        }
        // Second pass, freeze-aware: every idle gap beyond DIFS advances
        // every contender's countdown; a sender's estimate at its own
        // access transmission is everything accrued since its last one.
        let mut accrued: BTreeMap<u16, f64> = BTreeMap::new();
        let mut sums: BTreeMap<u16, f64> = BTreeMap::new();
        let mut counts: BTreeMap<u16, usize> = BTreeMap::new();
        let cap = self.params.cw_max as f64;
        let mut busy_until_us: u64 = 0;
        for e in tx_starts() {
            let start = e.at.as_micros();
            let end = start + e.vals[2] as u64;
            if start > busy_until_us + difs_us {
                let usable = (start - busy_until_us - difs_us) as f64 / slot_us as f64;
                for (_, acc) in accrued.iter_mut() {
                    // Cap per-node accrual: beyond a full CWmax countdown
                    // the node was idle (no pending traffic), not frozen.
                    *acc = (*acc + usable).min(cap);
                }
                for &node in senders.keys() {
                    accrued.entry(node).or_insert(usable.min(cap));
                }
            }
            if is_access(e) && senders.contains_key(&e.node) {
                let acc = accrued.entry(e.node).or_insert(0.0);
                let estimate = *acc;
                *acc = 0.0;
                if estimate < cap {
                    *sums.entry(e.node).or_insert(0.0) += estimate;
                    *counts.entry(e.node).or_insert(0) += 1;
                }
            }
            busy_until_us = busy_until_us.max(end);
        }
        let mut report = DominoReport::default();
        let nominal = self.params.cw_min as f64 / 2.0;
        for (&node, &n) in &counts {
            let avg = sums[&node] / n as f64;
            report.avg_backoff_slots.insert(node, avg);
            report.samples.insert(node, n);
            if n >= self.min_samples && avg < nominal * self.threshold_fraction {
                report.flagged.push(node);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimTime;

    /// An RTS from `node` at `at_us`, 352 µs long.
    fn rts(at_us: u64, node: u16) -> ObsEvent {
        ObsEvent::new(
            SimTime::from_micros(at_us),
            node,
            &TX_START,
            &[99.0, FRAME_RTS as f64, 352.0],
        )
    }

    fn synthetic_trace(backoff_slots: &[(u16, u64)]) -> Vec<ObsEvent> {
        // Each listed access waits DIFS + k slots after the previous
        // frame ends.
        let mut t = Vec::new();
        let mut now = 0u64;
        for &(node, slots) in backoff_slots {
            now += 50 + slots * 20; // DIFS + backoff (802.11b)
            t.push(rts(now, node));
            now += 352;
        }
        t
    }

    #[test]
    fn flags_short_backoffs_only() {
        // A backoff cheat wins most contention rounds after ~1-slot gaps;
        // the honest station transmits rarely, its countdown having
        // accrued across the cheat's rounds (freeze-aware accounting).
        let mut pattern = Vec::new();
        for _round in 0..30 {
            for _ in 0..9 {
                pattern.push((1u16, 1)); // cheat: 1-slot gaps
            }
            pattern.push((0u16, 6)); // honest finally fires: 9·1+6 ≈ 15
        }
        let trace = synthetic_trace(&pattern);
        let det = DominoDetector::new(PhyParams::dot11b());
        let report = det.analyze(&trace);
        assert!(
            report.flagged.contains(&1),
            "greedy sender must be flagged: {report:?}"
        );
        assert!(
            !report.flagged.contains(&0),
            "honest sender must pass: {report:?}"
        );
        assert!(report.avg_backoff_slots[&1] < report.avg_backoff_slots[&0]);
    }

    #[test]
    fn too_few_samples_never_flag() {
        let trace = synthetic_trace(&[(1, 0), (1, 0), (1, 0)]);
        let det = DominoDetector::new(PhyParams::dot11b());
        let report = det.analyze(&trace);
        assert!(report.flagged.is_empty());
        assert_eq!(report.samples[&1], 3);
        assert!(
            report.avg_backoff_slots[&1] < 1.0,
            "zero-gap accesses score ~0"
        );
    }

    #[test]
    fn sample_count_boundary_is_inclusive() {
        // The flag rule is `n >= min_samples`: 19 zero-backoff accesses
        // stay unjudged, the 20th (== min_samples) flags.
        let det = DominoDetector::new(PhyParams::dot11b());
        let below: Vec<(u16, u64)> = (0..det.min_samples - 1).map(|_| (1u16, 0u64)).collect();
        let report = det.analyze(&synthetic_trace(&below));
        assert_eq!(report.samples[&1], det.min_samples - 1);
        assert!(report.flagged.is_empty(), "n < min_samples must not flag");
        let at: Vec<(u16, u64)> = (0..det.min_samples).map(|_| (1u16, 0u64)).collect();
        let report = det.analyze(&synthetic_trace(&at));
        assert_eq!(report.samples[&1], det.min_samples);
        assert_eq!(report.flagged, vec![1], "n == min_samples must flag");
    }

    #[test]
    fn average_exactly_at_threshold_passes() {
        // dot11b: nominal = CWmin/2 = 15.5 slots, threshold fraction 0.5
        // → the decision boundary is avg == 7.75 (exact in binary). The
        // rule is strictly-less, so a sender *at* the boundary passes and
        // one epsilon below is flagged.
        let det = DominoDetector::new(PhyParams::dot11b());
        let boundary = det.params.cw_min as f64 / 2.0 * det.threshold_fraction;
        assert_eq!(boundary, 7.75);
        // 20 accesses averaging exactly 7.75 slots: 15 × 7 + 4 × 8 + 1 × 18.
        let mut at: Vec<(u16, u64)> = Vec::new();
        at.extend(std::iter::repeat_n((1u16, 7u64), 15));
        at.extend(std::iter::repeat_n((1u16, 8u64), 4));
        at.push((1, 18));
        let report = det.analyze(&synthetic_trace(&at));
        assert_eq!(report.samples[&1], det.min_samples);
        assert_eq!(report.avg_backoff_slots[&1], boundary);
        assert!(
            report.flagged.is_empty(),
            "avg == nominal · fraction must pass: {report:?}"
        );
        // Shave one slot off the total → avg 7.7 < 7.75 → flagged.
        let mut under = at.clone();
        under[19] = (1, 17);
        let report = det.analyze(&synthetic_trace(&under));
        assert!(report.avg_backoff_slots[&1] < boundary);
        assert_eq!(report.flagged, vec![1]);
    }

    #[test]
    fn long_idle_gaps_excluded() {
        // One access after a huge idle period must not bias the average.
        let det = DominoDetector::new(PhyParams::dot11b());
        let report = det.analyze(&[rts(5_000_000, 0)]);
        // The estimate is capped: a single post-idle access contributes a
        // CWmax-capped (hence discarded) sample, never a flag.
        assert!(report.flagged.is_empty());
        assert!(report
            .avg_backoff_slots
            .get(&0)
            .is_none_or(|&v| v <= 1023.0));
    }
}
