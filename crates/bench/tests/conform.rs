//! End-to-end tests for the conformance harness: whitelist semantics
//! under real greedy scenarios, and (behind `--features inject-nav-bug`)
//! the planted-fault drill proving the checker catches and the fuzzer
//! shrinks a genuine MAC bug.

use gr_bench::fuzz;
#[cfg(not(feature = "inject-nav-bug"))]
use greedy80211::Run;
use greedy80211::{GreedyConfig, NavInflationConfig, Scenario};
use sim::{RunKey, SimDuration};

/// Runs `scenario` once under the checker and returns its report.
#[cfg(not(feature = "inject-nav-bug"))]
fn check_run(scenario: &Scenario, job: conform::ConformJob) -> conform::ConformReport {
    {
        let _job = net::JobContext {
            conform: Some(job.clone()),
            ..net::JobContext::default()
        }
        .install();
        Run::plan(scenario).execute().expect("scenario runs");
    }
    let mut reports = job.drain();
    assert_eq!(reports.len(), 1, "exactly one checked run");
    reports.pop().unwrap().1
}

/// The drill scenario shared by the fault-injection tests: one
/// NAV-inflating greedy receiver, so NAV genuinely gates access beyond
/// physical carrier sense (in a fully-connected honest topology the two
/// coincide and ignoring NAV is unobservable).
fn nav_drill_scenario() -> Scenario {
    let mut scenario = Scenario {
        duration: SimDuration::from_millis(300),
        ..Scenario::default()
    };
    scenario.greedy.push((
        0,
        GreedyConfig::nav_inflation(NavInflationConfig::cts_only(32_000, 1.0)),
    ));
    scenario
}

/// A NAV-inflating greedy receiver passes conformance *only* because its
/// declared quirk whitelists the NAV rules for it; the identical run
/// with the whitelist removed must fail. This is the guarantee that the
/// checker genuinely observes the misbehavior rather than missing it.
#[cfg(not(feature = "inject-nav-bug"))]
#[test]
fn greedy_run_is_clean_only_via_the_whitelist() {
    let scenario = nav_drill_scenario();
    let honored = check_run(&scenario, conform::ConformJob::new());
    assert!(
        honored.is_clean(),
        "whitelisted greedy run must be clean; got: {}",
        honored.summary()
    );
    assert!(
        honored.whitelisted > 0,
        "the declared quirk never fired — the whitelist was not exercised"
    );

    let rearmed = check_run(&scenario, conform::ConformJob::new().without_whitelist());
    assert!(
        !rearmed.is_clean(),
        "with the whitelist removed the same run must violate"
    );
    let first = rearmed.first().expect("at least one violation");
    assert_eq!(first.rule, conform::RuleId::NavDurationBound);
    assert!(first.to_string().contains("nav-duration-bound"));
}

/// An honest run is clean with or without the whitelist — the whitelist
/// only ever exempts declared quirks, never masks real violations.
#[cfg(not(feature = "inject-nav-bug"))]
#[test]
fn honest_run_is_clean_without_any_whitelist() {
    let scenario = Scenario {
        duration: SimDuration::from_millis(300),
        ..Scenario::default()
    };
    let report = check_run(&scenario, conform::ConformJob::new().without_whitelist());
    assert!(
        report.is_clean(),
        "honest run violated: {}",
        report.summary()
    );
    assert_eq!(report.whitelisted, 0);
    assert!(report.events_checked > 1000);
}

/// Fault-injection drill: with the planted MAC bug compiled in
/// (stations ignore their virtual carrier and transmit inside other
/// stations' NAV reservations), the checker must flag the run and the
/// fuzzer must shrink the violation to one 10 ms virtual-time bracket
/// blaming the MAC layer.
#[cfg(feature = "inject-nav-bug")]
#[test]
fn planted_nav_bug_is_caught_and_shrunk() {
    let case = fuzz::FuzzCase {
        key: RunKey::new("navbug", 0, 0),
        scenario: nav_drill_scenario(),
        desc: "planted NAV bug drill".into(),
    };
    let dir = std::env::temp_dir().join("gr-navbug-test");
    let v = fuzz::run_case(case, &dir).expect("case runs");
    assert!(!v.is_clean(), "planted NAV bug went undetected");
    let first = &v.violations[0];
    assert!(
        matches!(
            first.rule,
            conform::RuleId::NavNoTx | conform::RuleId::NavMonotone | conform::RuleId::DifsAccess
        ),
        "unexpected first rule: {first}"
    );
    let (lo, hi) = v.bracket_ms.expect("violation was shrunk");
    assert!(hi - lo <= 10, "bracket wider than 10 ms: [{lo}, {hi})");
    assert_eq!(v.layer, Some("mac"), "bug must be pinned to the MAC layer");
    // The intensity shrink runs too and must report the planted fault as
    // *attack-independent* — the `(0, 0]` sentinel: a MAC that ignores
    // NAV violates even with the greedy knob scaled to zero, because the
    // greedy receiver's distant placement leaves links where only
    // virtual carrier sense serializes access. This is the shrink
    // distinguishing "bug in the attack" (a genuine bracket, exercised
    // by `fuzz::tests::violating_greedy_case_shrinks_to_an_intensity_bracket`)
    // from "bug in the MAC".
    let (ilo, ihi) = v
        .intensity_bracket
        .expect("greedy case gets an intensity bracket");
    assert_eq!(
        (ilo, ihi),
        (0.0, 0.0),
        "planted MAC bug must be flagged attack-independent, got ({ilo}, {ihi}]"
    );
}

/// Guards against an accidental `--features inject-nav-bug` in a normal
/// build: without the feature the drill scenario is clean (the same run
/// that *must* violate when the bug is compiled in).
#[cfg(not(feature = "inject-nav-bug"))]
#[test]
fn nav_bug_drill_scenario_is_clean_without_injection() {
    let case = fuzz::FuzzCase {
        key: RunKey::new("navbug", 0, 0),
        scenario: nav_drill_scenario(),
        desc: "planted NAV bug drill".into(),
    };
    let dir = std::env::temp_dir().join("gr-navbug-test");
    let v = fuzz::run_case(case, &dir).expect("case runs");
    assert!(v.is_clean(), "violations: {:?}", v.violations);
}
