//! Output check: a fingerprint of every job's exact outcome.
//!
//! A job's [`Facts`] are the counts the simulator must reproduce bit for
//! bit: events processed, per-flow payload bytes, MAC counters summed
//! over nodes, transport retransmissions and detector verdicts. Their
//! digest is compared across the passes of one run, between traced and
//! untraced passes, and — for [`crate::workload::DEFAULT_SEED`] —
//! against the pass digest pinned in [`PINNED_DIGESTS`].

use greedy80211::{RunOutcome, WorldOutcome};
use net::{NodeMetrics, RunMetrics};

use crate::workload::Workload;

/// Pass digests of [`crate::workload::DEFAULT_SEED`]. A change that
/// alters simulated behaviour changes these; one that only changes speed
/// must not.
pub const PINNED_DIGESTS: [(Workload, u64); 3] = [
    (Workload::HotspotUdp, 0xee30_34cd_5f4e_c77f),
    (Workload::PaperSweep, 0x3164_c316_431a_4960),
    (Workload::WorldCochannel, 0xe7b6_a446_ec6a_67c1),
];

/// The pinned pass digest of `workload`.
pub fn pinned_digest(workload: Workload) -> u64 {
    PINNED_DIGESTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| *d)
        .expect("every workload has a pinned digest")
}

/// Names of the MAC counters in [`Facts::mac`], in order.
pub const MAC_COUNTERS: [&str; 19] = [
    "rts_sent",
    "cts_sent",
    "data_sent",
    "data_first_tx",
    "acks_sent",
    "fake_acks_sent",
    "spoofed_acks_sent",
    "short_retries",
    "long_retries",
    "retry_drops",
    "queue_drops",
    "delivered_msdus",
    "delivered_bytes",
    "duplicates",
    "corrupted_rx",
    "collision_rx",
    "timeouts",
    "tx_successes",
    "inflated_navs_sent",
];

/// Index of `name` in [`MAC_COUNTERS`].
pub fn mac_index(name: &str) -> usize {
    MAC_COUNTERS
        .iter()
        .position(|n| *n == name)
        .expect("known MAC counter")
}

fn mac_counts(n: &NodeMetrics) -> [u64; 19] {
    let c = &n.counters;
    [
        c.rts_sent.get(),
        c.cts_sent.get(),
        c.data_sent.get(),
        c.data_first_tx.get(),
        c.acks_sent.get(),
        c.fake_acks_sent.get(),
        c.spoofed_acks_sent.get(),
        c.short_retries.get(),
        c.long_retries.get(),
        c.retry_drops.get(),
        c.queue_drops.get(),
        c.delivered_msdus.get(),
        c.delivered_bytes.get(),
        c.duplicates.get(),
        c.corrupted_rx.get(),
        c.collision_rx.get(),
        c.timeouts.get(),
        c.tx_successes.get(),
        c.inflated_navs_sent.get(),
    ]
}

/// The exact counts of one job (a world's are its cells', in cell order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Facts {
    /// Events the kernel dispatched.
    pub events: u64,
    /// Payload bytes delivered per flow, in flow-id order.
    pub flow_bytes: Vec<u64>,
    /// [`MAC_COUNTERS`] summed over nodes.
    pub mac: [u64; 19],
    /// TCP retransmissions summed over flows.
    pub retransmissions: u64,
    /// TCP retransmission timeouts summed over flows.
    pub timeouts: u64,
    /// GRC NAV-inflation detections.
    pub nav_detections: u64,
    /// GRC spoofed-ACK flags.
    pub spoof_flags: u64,
    /// Lockstep epochs (worlds only).
    pub epochs: u64,
}

impl Facts {
    /// Facts of one network's run.
    pub fn of_run(metrics: &RunMetrics, nav_detections: u64, spoof_flags: u64) -> Facts {
        let mut f = Facts {
            events: metrics.events_processed,
            nav_detections,
            spoof_flags,
            ..Facts::default()
        };
        for flow in metrics.flows.values() {
            f.flow_bytes.push(flow.payload_bytes);
            f.retransmissions += flow.retransmissions;
            f.timeouts += flow.timeouts;
        }
        for node in metrics.nodes.values() {
            for (sum, n) in f.mac.iter_mut().zip(mac_counts(node)) {
                *sum += n;
            }
        }
        f
    }

    /// Facts of a finished `Run::execute`.
    pub fn of_outcome(out: &RunOutcome) -> Facts {
        Facts::of_run(&out.metrics, out.nav_detections(), out.spoof_flags())
    }

    /// Facts of a finished world: its cells' facts merged in cell order.
    pub fn of_world(out: &WorldOutcome) -> Facts {
        let mut f = Facts {
            epochs: out.epochs as u64,
            ..Facts::default()
        };
        for cell in &out.cells {
            f.add(&Facts::of_outcome(&cell.outcome));
        }
        f
    }

    /// Adds `other`'s counts to these, appending its flows.
    pub fn add(&mut self, other: &Facts) {
        self.events += other.events;
        self.flow_bytes.extend_from_slice(&other.flow_bytes);
        for (a, b) in self.mac.iter_mut().zip(other.mac) {
            *a += b;
        }
        self.retransmissions += other.retransmissions;
        self.timeouts += other.timeouts;
        self.nav_detections += other.nav_detections;
        self.spoof_flags += other.spoof_flags;
        self.epochs += other.epochs;
    }

    /// The 64-bit fingerprint of these facts.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.events);
        h.word(self.flow_bytes.len() as u64);
        for &b in &self.flow_bytes {
            h.word(b);
        }
        for &c in &self.mac {
            h.word(c);
        }
        for w in [
            self.retransmissions,
            self.timeouts,
            self.nav_detections,
            self.spoof_flags,
            self.epochs,
        ] {
            h.word(w);
        }
        h.finish()
    }
}

/// Digest of a pass: its job digests folded in job order.
pub fn pass_digest(job_digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for d in job_digests {
        h.word(d);
    }
    h.finish()
}

/// FNV-1a over little-endian words with a SplitMix64 finalizer.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Compares every execution of a job with the first one.
#[derive(Debug)]
pub struct Checker {
    reference: Vec<Option<Result<Facts, String>>>,
}

impl Checker {
    /// A checker for a pass of `jobs` jobs.
    pub fn new(jobs: usize) -> Self {
        Checker {
            reference: vec![None; jobs],
        }
    }

    /// Records one execution of job `index`; true when it succeeded and
    /// matches the job's first execution (which it becomes if first).
    pub fn observe(&mut self, index: usize, outcome: &Result<Facts, String>) -> bool {
        let slot = &mut self.reference[index];
        let first = slot.get_or_insert_with(|| outcome.clone());
        match (first, outcome) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        }
    }

    /// The first execution's facts of every job, once each job has run
    /// successfully at least once.
    pub fn reference(&self) -> Option<Vec<&Facts>> {
        self.reference
            .iter()
            .map(|r| r.as_ref().and_then(|r| r.as_ref().ok()))
            .collect()
    }

    /// Digest of the reference pass.
    pub fn digest(&self) -> Option<u64> {
        self.reference()
            .map(|facts| pass_digest(facts.iter().map(|f| f.digest())))
    }

    /// Counts summed over the reference pass.
    pub fn pass_totals(&self) -> Option<Facts> {
        self.reference().map(|facts| {
            let mut total = Facts::default();
            for f in facts {
                total.add(f);
            }
            total
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Facts {
        Facts {
            events: 1234,
            flow_bytes: vec![10_240, 0, 77],
            mac: std::array::from_fn(|i| 100 + i as u64),
            retransmissions: 3,
            timeouts: 1,
            nav_detections: 5,
            spoof_flags: 2,
            epochs: 0,
        }
    }

    #[test]
    fn fingerprint_changes_when_one_mac_counter_changes() {
        let base = sample();
        for (i, name) in MAC_COUNTERS.iter().enumerate() {
            let mut f = base.clone();
            f.mac[i] += 1;
            assert_ne!(f.digest(), base.digest(), "{name}");
        }
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = sample();
        let variants: [fn(&mut Facts); 8] = [
            |f| f.events += 1,
            |f| f.flow_bytes[1] += 1,
            |f| f.flow_bytes.push(0),
            |f| f.retransmissions += 1,
            |f| f.timeouts += 1,
            |f| f.nav_detections += 1,
            |f| f.spoof_flags += 1,
            |f| f.epochs += 1,
        ];
        for change in variants {
            let mut f = base.clone();
            change(&mut f);
            assert_ne!(f.digest(), base.digest(), "{f:?}");
        }
    }

    #[test]
    fn pass_digest_depends_on_job_order() {
        assert_ne!(pass_digest([1, 2]), pass_digest([2, 1]));
    }

    #[test]
    fn checker_flags_a_drifting_job() {
        let mut c = Checker::new(2);
        let a = sample();
        let mut b = sample();
        b.mac[mac_index("collision_rx")] += 1;
        assert!(c.observe(0, &Ok(a.clone())));
        assert!(c.observe(1, &Ok(a.clone())));
        assert!(c.observe(0, &Ok(a.clone())));
        assert!(!c.observe(1, &Ok(b)));
        assert!(!c.observe(0, &Err("boom".into())));
        assert_eq!(c.digest(), Some(pass_digest([a.digest(), a.digest()])));
    }

    #[test]
    fn a_failed_first_run_leaves_no_reference() {
        let mut c = Checker::new(1);
        assert!(!c.observe(0, &Err("boom".into())));
        assert!(!c.observe(0, &Ok(sample())));
        assert_eq!(c.digest(), None);
    }
}
