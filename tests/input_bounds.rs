//! Oversized inputs are rejected with a typed error before anything is
//! allocated for them, never by an allocation failure that aborts.

use greedy80211_repro::{
    GreedyConfig, NavInflationConfig, Run, Scenario, TransportKind, WorldSpec,
};
use sim::{SimDuration, SimError};

fn invalid_config(result: Result<impl std::fmt::Debug, SimError>) -> String {
    match result {
        Err(SimError::InvalidConfig(msg)) => msg,
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn too_many_stations_is_a_typed_error() {
    let s = Scenario {
        pairs: 40_000,
        duration: SimDuration::from_secs(1),
        ..Scenario::default()
    };
    assert!(s.stations() > Scenario::MAX_STATIONS);
    let msg = invalid_config(s.build().map(|_| ()));
    assert!(msg.contains("stations"), "{msg}");
    assert!(Run::plan(&s).execute().is_err());
    // The bound itself is accepted.
    let at_bound = Scenario {
        pairs: Scenario::MAX_STATIONS / 2,
        ..s
    };
    assert_eq!(at_bound.stations(), Scenario::MAX_STATIONS);
    assert!(at_bound.validate().is_ok());
}

#[test]
fn too_many_cells_is_a_typed_error() {
    let spec = WorldSpec::grid(Scenario::default(), 20_000, 20_000);
    let msg = invalid_config(Run::world(&spec).execute().map(|_| ()));
    assert!(msg.contains("cells"), "{msg}");
    // A product that overflows is rejected too, not wrapped.
    let spec = WorldSpec::grid(Scenario::default(), usize::MAX, 2);
    invalid_config(Run::world(&spec).execute().map(|_| ()));
}

#[test]
fn out_of_range_byte_error_rates_are_typed_errors() {
    for rate in [-1.0, f64::NAN, 2.0, f64::INFINITY] {
        let s = Scenario {
            byte_error_rate: rate,
            duration: SimDuration::from_millis(10),
            ..Scenario::default()
        };
        let msg = invalid_config(s.build().map(|_| ()));
        assert!(msg.contains("error rate"), "{rate}: {msg}");
        assert!(Run::plan(&s).execute().is_err(), "{rate}");
    }
    // Zero is the lossless channel, not an error.
    let clean = Scenario {
        byte_error_rate: 0.0,
        ..Scenario::default()
    };
    assert!(clean.validate().is_ok());
}

#[test]
fn greedy_percentages_outside_zero_to_one_are_typed_errors() {
    for gp in [-0.05, 1.5, f64::NAN, f64::INFINITY] {
        for (kind, cfg) in [
            (
                "nav",
                GreedyConfig::nav_inflation(NavInflationConfig::cts_only(31_000, gp)),
            ),
            ("spoof", GreedyConfig::ack_spoofing(Vec::new(), gp)),
            ("fake", GreedyConfig::fake_acks(gp)),
        ] {
            let s = Scenario {
                greedy: vec![(1, cfg)],
                duration: SimDuration::from_millis(10),
                ..Scenario::default()
            };
            let msg = invalid_config(s.build().map(|_| ()));
            assert!(
                msg.contains(&format!("{kind} greedy percentage")),
                "{kind} {gp}: {msg}"
            );
            assert!(Run::plan(&s).execute().is_err(), "{kind} {gp}");
        }
    }
    // The closed interval's ends are honest and fully greedy receivers.
    for gp in [0.0, 1.0] {
        let s = Scenario {
            greedy: vec![(1, GreedyConfig::fake_acks(gp))],
            ..Scenario::default()
        };
        assert!(s.validate().is_ok(), "{gp}");
    }
}

#[test]
fn a_greedy_receiver_listed_twice_is_a_typed_error() {
    let s = Scenario {
        greedy: vec![
            (0, GreedyConfig::fake_acks(1.0)),
            (
                0,
                GreedyConfig::nav_inflation(NavInflationConfig::cts_only(31_000, 1.0)),
            ),
        ],
        ..Scenario::default()
    };
    let msg = invalid_config(s.build().map(|_| ()));
    assert!(
        msg.contains("greedy receiver index 0 listed twice"),
        "{msg}"
    );
}

#[test]
fn a_udp_rate_whose_cbr_interval_rounds_to_zero_is_a_typed_error() {
    for (payload, transport) in [
        (0, TransportKind::SATURATING_UDP),
        (64, TransportKind::Udp { rate_bps: u64::MAX }),
    ] {
        let s = Scenario {
            transport,
            payload,
            duration: SimDuration::from_millis(10),
            ..Scenario::default()
        };
        let msg = invalid_config(s.build().map(|_| ()));
        assert!(msg.contains("zero CBR interval"), "{payload}: {msg}");
        assert!(Run::plan(&s).execute().is_err(), "{payload}");
    }
    // One datagram per nanosecond is the fastest source there is.
    let fastest = Scenario {
        transport: TransportKind::Udp {
            rate_bps: 64 * 8 * 1_000_000_000,
        },
        payload: 64,
        ..Scenario::default()
    };
    assert!(fastest.validate().is_ok());
}

#[test]
fn a_zero_probe_interval_is_a_typed_error() {
    let s = Scenario {
        probes: true,
        probe_interval: SimDuration::ZERO,
        duration: SimDuration::from_millis(10),
        ..Scenario::default()
    };
    let msg = invalid_config(s.build().map(|_| ()));
    assert!(msg.contains("probe_interval"), "{msg}");
    assert!(Run::plan(&s).execute().is_err());
    // Without probes the interval is unused.
    let unused = Scenario { probes: false, ..s };
    assert!(unused.validate().is_ok());
}

#[test]
fn a_grc_window_under_a_microsecond_is_a_typed_error() {
    let s = Scenario {
        grc: Some(true),
        grc_windows: Some(SimDuration::from_nanos(500)),
        duration: SimDuration::from_millis(10),
        ..Scenario::default()
    };
    let msg = invalid_config(s.build().map(|_| ()));
    assert!(msg.contains("grc_windows"), "{msg}");
    assert!(Run::plan(&s).execute().is_err());
    let one_us = Scenario {
        grc_windows: Some(SimDuration::from_micros(1)),
        ..s
    };
    assert!(one_us.validate().is_ok());
}
