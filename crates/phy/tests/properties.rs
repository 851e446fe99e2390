//! Property-based tests of the PHY models.

use gr_phy::{
    airtime, capture::CaptureOutcome, CaptureModel, ChannelModel, ErrorModel, ErrorUnit, PhyParams,
    Position, Rssi, RssiModel,
};
use proptest::prelude::*;
use sim::SimRng;

proptest! {
    /// Airtime grows monotonically with frame length on both PHYs.
    #[test]
    fn airtime_monotone(len_a in 0usize..2304, len_b in 0usize..2304) {
        for p in [PhyParams::dot11b(), PhyParams::dot11a()] {
            let (lo, hi) = (len_a.min(len_b), len_a.max(len_b));
            prop_assert!(airtime::tx_duration(&p, lo) <= airtime::tx_duration(&p, hi));
        }
    }

    /// Basic-rate airtime is never shorter than data-rate airtime (the
    /// basic rate is the slower one).
    #[test]
    fn basic_rate_is_slower(len in 1usize..2304) {
        for p in [PhyParams::dot11b(), PhyParams::dot11a()] {
            prop_assert!(
                airtime::tx_duration_basic(&p, len) >= airtime::tx_duration(&p, len)
            );
        }
    }

    /// FER is a probability, monotone in both rate and length.
    #[test]
    fn fer_is_probability_and_monotone(
        rate in 0.0f64..0.01,
        len_a in 1usize..2000,
        len_b in 1usize..2000,
    ) {
        let em = ErrorModel::new(ErrorUnit::Byte, rate).unwrap();
        let (lo, hi) = (len_a.min(len_b), len_a.max(len_b));
        let f_lo = em.fer(lo);
        let f_hi = em.fer(hi);
        prop_assert!((0.0..=1.0).contains(&f_lo));
        prop_assert!((0.0..=1.0).contains(&f_hi));
        prop_assert!(f_lo <= f_hi + 1e-15);
        let em_bit = ErrorModel::new(ErrorUnit::Bit, rate).unwrap();
        // A bit-level process at the same rate corrupts more than a
        // byte-level one (8 chances per byte).
        prop_assert!(em_bit.fer(lo) >= em.fer(lo) - 1e-15);
    }

    /// Capture is antisymmetric and consistent with its threshold.
    #[test]
    fn capture_antisymmetric(p1 in -100.0f64..0.0, p2 in -100.0f64..0.0, thr in 0.0f64..20.0) {
        let cap = CaptureModel::new(thr);
        match cap.decide(p1, p2) {
            CaptureOutcome::FirstCaptures => {
                prop_assert!(p1 - p2 >= thr);
                prop_assert_eq!(cap.decide(p2, p1), CaptureOutcome::SecondCaptures);
            }
            CaptureOutcome::SecondCaptures => {
                prop_assert!(p2 - p1 >= thr);
                prop_assert_eq!(cap.decide(p2, p1), CaptureOutcome::FirstCaptures);
            }
            CaptureOutcome::Collision => {
                prop_assert!((p1 - p2).abs() < thr || thr == 0.0);
                prop_assert_eq!(cap.decide(p2, p1), CaptureOutcome::Collision);
            }
        }
    }

    /// The capture survivor, when any, is the strongest frame.
    #[test]
    fn survivor_is_strongest(powers in proptest::collection::vec(-100.0f64..0.0, 1..8)) {
        let cap = CaptureModel::default();
        if let Some(idx) = cap.survivor(&powers) {
            let max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((powers[idx] - max).abs() < 1e-12);
        }
    }

    /// Distance classification is consistent: decode ⊂ sense ⊂ anything.
    #[test]
    fn reach_nested(d in 0.0f64..200.0) {
        use gr_phy::channel::Reach;
        let ch = ChannelModel::with_ranges(55.0, 99.0);
        match ch.reach(d) {
            Reach::Decode => prop_assert!(d <= 55.0),
            Reach::Sense => prop_assert!(d > 55.0 && d <= 99.0),
            Reach::None => prop_assert!(d > 99.0),
        }
    }

    /// RSSI median decreases with distance; positions are symmetric.
    #[test]
    fn rssi_monotone_and_symmetric(
        d1 in 1.0f64..300.0,
        d2 in 1.0f64..300.0,
        x in -50.0f64..50.0,
        y in -50.0f64..50.0,
    ) {
        let m = RssiModel::default();
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        prop_assert!(m.median_dbm(lo) >= m.median_dbm(hi));
        let a = Position::new(x, y);
        let b = Position::new(y, x);
        prop_assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-12);
    }

    /// A sample read through `Rssi::dbm` is the eager
    /// `median + rng.normal(σ)` bit for bit, from the same stream
    /// position; a fixed value reads back unchanged.
    #[test]
    fn rssi_read_on_demand_matches_the_eager_sample(
        seed in any::<u64>(),
        median in -120.0f64..0.0,
        sigma in 0.0f64..6.0,
        bits in any::<u64>(),
    ) {
        let m = RssiModel { jitter_sigma_db: sigma, ..RssiModel::default() };
        let mut lazy = SimRng::new(seed);
        let mut eager = SimRng::new(seed);
        let rssi = m.sample_from_median(median, &mut lazy);
        prop_assert_eq!(rssi.dbm().to_bits(), (median + eager.normal(sigma)).to_bits());
        prop_assert_eq!(lazy.next_u64(), eager.next_u64());
        // Every bit pattern, NaNs and −0.0 included.
        prop_assert_eq!(Rssi::fixed(f64::from_bits(bits)).dbm().to_bits(), bits);
    }
}
