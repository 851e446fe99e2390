//! Deterministic scenario fuzzing under the live conformance checker.
//!
//! `repro fuzz N --seed K` generates `N` randomized scenarios —
//! topology, transport, payload, loss, greedy mixes — runs each under
//! the full invariant checker, and shrinks any violation to a 10 ms
//! virtual-time bracket via the checkpoint subsystem: the violating run
//! is replayed with 10 ms checkpoint barriers, the checkpoint at the
//! bracket floor is written to `DIR/conform/violation-<run>.snap`, and
//! the printed repro command resumes exactly the offending tail with
//! the checker re-attached.
//!
//! Everything derives from the [`RunKey`] `("fuzz", K, i)`: case `i`'s
//! scenario parameters come from the key's RNG stream, the run's master
//! seed from the same key, and the shrink replay reuses it — so two
//! invocations with the same `N` and `K` produce identical verdicts and
//! byte-identical artifacts, on any machine.
//!
//! Attack intensity is a fuzz dimension too: each greedy case draws a
//! strength in `{0.05, 0.2, 1.0}` and scales its misbehavior configs by
//! it ([`GreedyConfig::at_intensity`]). When a greedy case violates, a
//! second shrink bisects that scale under the same key and reports the
//! *minimal-intensity bracket* — the narrowest `(clean, violating]`
//! span of attack strength, pinpointing how weak the attack can go and
//! still trip the invariant.

use std::path::{Path, PathBuf};

use greedy80211::checkpoint::run_file_stem;
use greedy80211::{
    CcConfig, Checkpoint, GreedyConfig, NavInflationConfig, Run, Scenario, TransportKind,
};
use net::JobContext;
use sim::{RunKey, SimDuration, SimError};

/// Width of the virtual-time bracket a violation is shrunk to.
pub const BRACKET: SimDuration = SimDuration::from_millis(10);

/// One generated fuzz case: the run key that seeds everything, the
/// scenario it expands to, and a one-line human description.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// `("fuzz", fuzz_seed, index)`.
    pub key: RunKey,
    /// The expanded scenario (master seed stamped by the key at
    /// execution time).
    pub scenario: Scenario,
    /// Compact parameter summary for logs.
    pub desc: String,
}

/// Expands fuzz case `index` of campaign `fuzz_seed` — a pure function
/// of its arguments.
///
/// # Panics
///
/// Panics if the generated scenario fails its probe build — every point
/// in the generator's parameter space is valid by construction, so that
/// is a bug in this module.
pub fn generate_case(fuzz_seed: u64, index: u64) -> FuzzCase {
    let key = RunKey::new("fuzz", fuzz_seed, index);
    let mut rng = key.rng();
    let pairs = 1 + rng.uniform_usize(3);
    let shared_sender = rng.chance(0.5);
    let transport = if rng.chance(0.5) {
        TransportKind::SATURATING_UDP
    } else {
        TransportKind::Tcp
    };
    let rts = rng.chance(0.5);
    let payload = [256, 512, 1024, 1460][rng.uniform_usize(4)];
    let duration = SimDuration::from_millis(150 + rng.uniform_usize(251) as u64);
    let byte_error_rate = [0.0, 1e-5, 5e-5][rng.uniform_usize(3)];
    let grc = [None, Some(false), Some(true)][rng.uniform_usize(3)];
    let probes = rng.chance(0.3);
    // Congestion controller: drawn for every case so the key stream stays
    // stable, applied only when the transport is TCP.
    let cc = [
        CcConfig::newreno(),
        CcConfig::cubic(),
        CcConfig::bbr(),
        CcConfig::newreno().with_hystart(),
    ][rng.uniform_usize(4)];
    let mut s = Scenario {
        transport,
        cc,
        pairs,
        shared_sender,
        rts,
        payload,
        byte_error_rate,
        grc,
        probes,
        duration,
        ..Scenario::default()
    };
    // Greedy mix: each receiver independently turns greedy with one of
    // the paper's three misbehaviors. Spoofing needs victim node ids,
    // which depend on the topology — a probe build resolves them.
    let victims = s.build().expect("generated scenario is valid").receivers;
    // Attack intensity, drawn for every case (stream stability), applied
    // to whatever greedy mix materializes below.
    let intensity = [0.05, 0.2, 1.0][rng.uniform_usize(3)];
    let mut greedy_desc = Vec::new();
    for r in 0..pairs {
        if !rng.chance(0.4) {
            continue;
        }
        let cfg = match rng.uniform_usize(3) {
            0 => {
                let inflate_us = [2_000, 10_000, 32_000][rng.uniform_usize(3)];
                let gp = [0.5, 1.0][rng.uniform_usize(2)];
                greedy_desc.push(format!("{r}:nav({}ms,gp{gp})", inflate_us / 1_000));
                GreedyConfig::nav_inflation(NavInflationConfig::cts_only(inflate_us, gp))
            }
            1 => {
                let victim = victims[rng.uniform_usize(victims.len())];
                let gp = [0.5, 1.0][rng.uniform_usize(2)];
                greedy_desc.push(format!("{r}:spoof(n{},gp{gp})", victim.0));
                GreedyConfig::ack_spoofing(vec![victim], gp)
            }
            _ => {
                let gp = [0.5, 1.0][rng.uniform_usize(2)];
                greedy_desc.push(format!("{r}:fake(gp{gp})"));
                GreedyConfig::fake_acks(gp)
            }
        };
        s.greedy.push((r, cfg.at_intensity(intensity)));
    }
    let intensity_mark = if s.greedy.is_empty() {
        String::new()
    } else {
        format!("@i{intensity}")
    };
    let desc = format!(
        "{pairs}p{} {} {} pay={payload} ber={byte_error_rate:.0e} grc={} dur={}ms greedy=[{}]{intensity_mark}",
        if shared_sender { "(ap)" } else { "" },
        match transport {
            TransportKind::Udp { .. } => "udp".to_string(),
            TransportKind::Tcp => format!("tcp/cc={}", cc.name()),
        },
        if rts { "rts" } else { "basic" },
        match grc {
            None => "off",
            Some(false) => "detect",
            Some(true) => "mitigate",
        },
        duration.as_nanos() / 1_000_000,
        greedy_desc.join(","),
    );
    FuzzCase {
        key,
        scenario: s,
        desc,
    }
}

/// Verdict for one fuzz case.
#[derive(Debug)]
pub struct FuzzVerdict {
    /// The case that ran.
    pub case: FuzzCase,
    /// Events the checker examined.
    pub events_checked: u64,
    /// Violations found (empty = clean).
    pub violations: Vec<conform::Violation>,
    /// Would-be violations exempted by declared greedy quirks.
    pub whitelisted: u64,
    /// Virtual-time bracket `[lo, hi)` in ms containing the first
    /// violation, when one was found and shrunk.
    pub bracket_ms: Option<(u64, u64)>,
    /// Minimal-intensity bracket `(lo, hi]` for greedy cases that
    /// violated: scaling the case's attack to `lo` of its strength runs
    /// clean, scaling to `hi` still violates. `(0, 0)` marks a violation
    /// independent of the attack (it reproduces with the attack off).
    pub intensity_bracket: Option<(f64, f64)>,
    /// Layer the violated rule belongs to.
    pub layer: Option<&'static str>,
    /// Checkpoint written at the bracket floor, replayable with
    /// `repro run --conform --resume <path>`.
    pub artifact: Option<PathBuf>,
}

impl FuzzVerdict {
    /// Whether the case passed every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `scenario` once under the checker and returns its report.
fn check_scenario(
    scenario: &Scenario,
    key: &RunKey,
    honor_whitelist: bool,
) -> Result<conform::ConformReport, SimError> {
    let mut job = conform::ConformJob::new();
    job.honor_whitelist = honor_whitelist;
    {
        let _job = JobContext {
            conform: Some(job.clone()),
            ..JobContext::keyed(key.clone())
        }
        .install();
        Run::plan(scenario).keyed(key.clone()).execute()?;
    }
    let mut reports = job.drain();
    Ok(reports.pop().unwrap_or_default().1)
}

/// Bisects the attack-strength scale of a violating greedy case: six
/// halvings of `(clean lo, violating hi]` starting from `(0, 1]`, each
/// probe re-running the scaled scenario under the same key and whitelist
/// mode. A violation at scale 0 (attack fully off) short-circuits to
/// `(0, 0)` — the invariant breaks without any misbehavior.
fn shrink_intensity(case: &FuzzCase, honor_whitelist: bool) -> Result<(f64, f64), SimError> {
    let scaled = |scale: f64| {
        let mut s = case.scenario.clone();
        for (_, cfg) in &mut s.greedy {
            *cfg = cfg.at_intensity(scale);
        }
        s
    };
    if !check_scenario(&scaled(0.0), &case.key, honor_whitelist)?.is_clean() {
        return Ok((0.0, 0.0));
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..6 {
        let mid = 0.5 * (lo + hi);
        if check_scenario(&scaled(mid), &case.key, honor_whitelist)?.is_clean() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, hi))
}

/// Runs one fuzz case under the checker; on violation, replays it with
/// [`BRACKET`] checkpoint barriers, writes the bracket-floor checkpoint
/// into `out_dir/conform/`, and (for greedy cases) bisects the attack
/// strength to a minimal-intensity bracket.
///
/// # Errors
///
/// Propagates simulation and filesystem errors.
pub fn run_case(case: FuzzCase, out_dir: &Path) -> Result<FuzzVerdict, SimError> {
    run_case_with(case, out_dir, true)
}

/// [`run_case`] with the whitelist mode explicit, for tests that must
/// re-arm rules a declared greedy quirk would exempt.
pub fn run_case_with(
    case: FuzzCase,
    out_dir: &Path,
    honor_whitelist: bool,
) -> Result<FuzzVerdict, SimError> {
    let report = check_scenario(&case.scenario, &case.key, honor_whitelist)?;
    if report.is_clean() {
        return Ok(FuzzVerdict {
            case,
            events_checked: report.events_checked,
            violations: report.violations,
            whitelisted: report.whitelisted,
            bracket_ms: None,
            intensity_bracket: None,
            layer: None,
            artifact: None,
        });
    }

    // Shrink: the checker pinned the first violation to an exact virtual
    // time; replay the identical run with 10 ms checkpoint barriers and
    // keep the checkpoint at the bracket floor. Resuming it replays only
    // the offending bracket.
    let first = report.violations.first().expect("non-clean report");
    let lo = first.at.floor_to(BRACKET);
    let lo_ms = lo.as_nanos() / 1_000_000;
    let bracket_ms = (lo_ms, lo_ms + BRACKET.as_nanos() / 1_000_000);
    let layer = first.rule.layer();
    let replay = Run::plan(&case.scenario)
        .keyed(case.key.clone())
        .checkpoint_every(BRACKET)
        .execute()?;
    // The barrier grid starts at one interval, so a violation inside the
    // first bracket has no earlier state to freeze — the repro is then
    // simply the run itself from the start.
    let artifact = match replay.checkpoints.iter().find(|(at, _)| *at == lo) {
        Some((_, bytes)) => {
            let path = out_dir
                .join("conform")
                .join(format!("violation-{}.snap", run_file_stem(&case.key)));
            let ckpt = Checkpoint::decode(bytes)
                .map_err(|e| SimError::invalid_config(format!("checkpoint re-decode: {e}")))?;
            ckpt.write(&path).map_err(|e| {
                SimError::invalid_config(format!("cannot write {}: {e}", path.display()))
            })?;
            Some(path)
        }
        None => None,
    };
    // Greedy cases get the second shrink axis: how weak can this attack
    // go and still trip the invariant?
    let intensity_bracket = if case.scenario.greedy.is_empty() {
        None
    } else {
        Some(shrink_intensity(&case, honor_whitelist)?)
    };
    Ok(FuzzVerdict {
        case,
        events_checked: report.events_checked,
        violations: report.violations,
        whitelisted: report.whitelisted,
        bracket_ms: Some(bracket_ms),
        intensity_bracket,
        layer: Some(layer),
        artifact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for i in 0..10 {
            let a = generate_case(7, i);
            let b = generate_case(7, i);
            assert_eq!(a.desc, b.desc, "case {i}");
            assert_eq!(a.key, b.key);
        }
    }

    #[test]
    fn distinct_campaign_seeds_change_cases() {
        let a: Vec<String> = (0..10).map(|i| generate_case(1, i).desc).collect();
        let b: Vec<String> = (0..10).map(|i| generate_case(2, i).desc).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn cases_cover_the_parameter_space() {
        let descs: Vec<String> = (0..40).map(|i| generate_case(3, i).desc).collect();
        let any = |pat: &str| descs.iter().any(|d| d.contains(pat));
        assert!(any("udp") && any("tcp"), "both transports");
        assert!(
            any("cc=newreno") && any("cc=cubic") && any("cc=bbr"),
            "controller draw must reach the zoo"
        );
        assert!(any("rts") && any("basic"), "both access modes");
        assert!(
            any(":nav(") && any(":spoof(") && any(":fake("),
            "all misbehaviors"
        );
        assert!(any("greedy=[]"), "honest cases too");
        assert!(
            any("@i0.05") && any("@i0.2") && any("@i1"),
            "intensity draw must reach every strength"
        );
        assert!(
            !descs
                .iter()
                .any(|d| d.contains("greedy=[]") && d.contains("@i")),
            "honest cases carry no intensity marker"
        );
    }

    /// Intensity shrinking end to end on a real violation: a
    /// NAV-inflating case with the whitelist re-armed violates
    /// `nav-duration-bound`; the bisection must return a genuine
    /// bracket — a clean floor strictly below a violating ceiling within
    /// the case's own strength.
    #[test]
    fn violating_greedy_case_shrinks_to_an_intensity_bracket() {
        let mut scenario = Scenario {
            duration: SimDuration::from_millis(200),
            ..Scenario::default()
        };
        scenario.greedy.push((
            0,
            GreedyConfig::nav_inflation(NavInflationConfig::cts_only(32_000, 1.0)),
        ));
        let case = FuzzCase {
            key: RunKey::new("fuzz-int", 0, 0),
            scenario,
            desc: "intensity shrink drill".into(),
        };
        let dir = std::env::temp_dir().join("gr-fuzz-int-test");
        let v = run_case_with(case, &dir, false).expect("case runs");
        assert!(!v.is_clean(), "re-armed NAV inflation must violate");
        let (lo, hi) = v.intensity_bracket.expect("greedy violation shrinks");
        assert!(lo < hi, "bracket must have width: ({lo}, {hi}]");
        assert!(hi <= 1.0);
        assert!(
            hi - lo <= 1.0 / 64.0 + 1e-12,
            "six bisections must narrow to 1/64: ({lo}, {hi}]"
        );
    }

    #[test]
    fn clean_case_runs_clean() {
        // Case search: find an honest (no-greedy) short case and check it
        // verifies clean end to end.
        let case = (0..50)
            .map(|i| generate_case(11, i))
            .find(|c| c.scenario.greedy.is_empty())
            .expect("an honest case among 50");
        let dir = std::env::temp_dir().join("gr-fuzz-clean-test");
        let v = run_case(case, &dir).expect("runs");
        assert!(v.is_clean(), "violations: {:?}", v.violations);
        assert!(v.events_checked > 0);
    }
}
