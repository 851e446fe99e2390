//! Divergence triage over audit ladders (the second half of the
//! checkpoint & audit subsystem; the recording half lives in
//! [`crate::checkpoint`]).
//!
//! Two runs that should be identical first diff their recorded ladders
//! with [`Ladder::compare`], which brackets the earliest divergence
//! between two coarse barriers and names the layer(s) whose digest broke
//! first. [`pinpoint`] then shrinks that bracket by binary search:
//! freeze the common prefix once as a checkpoint at the bracket's lower
//! edge, and for each probe resume **only the bracketing interval** with
//! a single audit barrier at the midpoint — never re-simulating the
//! prefix. When the probes agree at the midpoint the checkpoint slides
//! forward to it, so every iteration both halves the bracket and
//! shortens the resimulated tail.

use net::RunHooks;
use sim::{SimDuration, SimError, SimTime};
pub use snap::audit::{AuditEntry, Divergence, Ladder};

use crate::checkpoint::Checkpoint;
use crate::scenario::Scenario;

/// Result of a [`pinpoint`] search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pinpoint {
    /// Last probed barrier at which every layer still agreed.
    pub vt_lo: SimTime,
    /// First probed barrier with a disagreeing layer digest.
    pub vt_hi: SimTime,
    /// Layers disagreeing at `vt_hi`, in ladder order.
    pub layers: Vec<String>,
    /// Number of (partial) re-simulations the search spent.
    pub probes: u32,
}

/// Digests of every layer at exactly `barrier`, plus the probe's own
/// checkpoint at the same instant (for sliding the prefix forward).
struct Probe {
    digests: Vec<(String, u64)>,
    state: Vec<u8>,
}

fn probe(
    scenario: &Scenario,
    hooks: &RunHooks,
    prefix: Option<&(Vec<u8>, SimTime)>,
    barrier: SimTime,
) -> Result<Probe, SimError> {
    let mut s = scenario.clone();
    // The probe only needs state at `barrier`: cut the horizon there.
    s.duration = SimDuration::from_nanos(barrier.as_nanos());
    let iv = SimDuration::from_nanos(barrier.as_nanos());
    let probe_hooks = RunHooks {
        audit_every: Some(iv),
        checkpoint_every: Some(iv),
        perturb_rng_at: hooks.perturb_rng_at,
    };
    let mut built = s.build()?;
    match prefix {
        Some((state, at)) => built.restore(state, *at, probe_hooks)?,
        None => built.start(probe_hooks),
    }
    let out = built.run();
    let digests = out
        .audit
        .entries
        .into_iter()
        .filter(|e| e.vt_ns == barrier.as_nanos())
        .map(|e| (e.layer, e.digest))
        .collect();
    let state = match out.checkpoints.iter().find(|(at, _)| *at == barrier) {
        Some((_, bytes)) => {
            Checkpoint::decode(bytes)
                .expect("a run's own checkpoint decodes")
                .net_state
        }
        None => Vec::new(),
    };
    Ok(Probe { digests, state })
}

fn diff_layers(a: &Probe, b: &Probe) -> Vec<String> {
    a.digests
        .iter()
        .zip(b.digests.iter())
        .filter(|((la, da), (lb, db))| la == lb && da != db)
        .map(|((layer, _), _)| layer.clone())
        .collect()
}

/// Narrows a coarse divergence bracket `(lo, hi]` — typically from
/// [`Ladder::compare`] over two recorded ladders — down to an interval
/// no wider than `min_width`, re-running only the bracketing interval
/// from the nearest checkpoint.
///
/// `base` and `variant` are the hook sets of the two compared runs
/// (e.g. clean vs. `perturb_rng_at`); both runs must behave identically
/// up to `lo`, which is exactly what the compare-produced bracket
/// guarantees.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for a malformed scenario, an empty
/// bracket, or a rejected prefix checkpoint.
pub fn pinpoint(
    scenario: &Scenario,
    base: RunHooks,
    variant: RunHooks,
    bracket: (SimTime, SimTime),
    min_width: SimDuration,
) -> Result<Pinpoint, SimError> {
    let (mut lo, mut hi) = bracket;
    if lo >= hi {
        return Err(SimError::invalid_config(format!(
            "empty divergence bracket ({} ns, {} ns]",
            lo.as_nanos(),
            hi.as_nanos()
        )));
    }
    let mut probes = 0u32;
    // Freeze the common prefix once, at the bracket's lower edge.
    let mut prefix: Option<(Vec<u8>, SimTime)> = if lo > SimTime::ZERO {
        let p = probe(scenario, &base, None, lo)?;
        probes += 1;
        Some((p.state, lo))
    } else {
        None
    };
    let mut layers: Vec<String> = Vec::new();
    loop {
        let width = hi.as_nanos() - lo.as_nanos();
        if width <= min_width.as_nanos() {
            break;
        }
        let mid = SimTime::from_nanos(lo.as_nanos() + width / 2);
        if mid == lo {
            break;
        }
        let a = probe(scenario, &base, prefix.as_ref(), mid)?;
        let b = probe(scenario, &variant, prefix.as_ref(), mid)?;
        probes += 2;
        let diff = diff_layers(&a, &b);
        if diff.is_empty() {
            // Agreement at mid: slide the frozen prefix forward so the
            // next probe resimulates an even shorter tail.
            lo = mid;
            if !a.state.is_empty() {
                prefix = Some((a.state, mid));
            }
        } else {
            layers = diff;
            hi = mid;
        }
    }
    if layers.is_empty() {
        // The bracket was already at (or below) min_width: probe `hi`
        // itself so the report names the diverging layer(s).
        let a = probe(scenario, &base, prefix.as_ref(), hi)?;
        let b = probe(scenario, &variant, prefix.as_ref(), hi)?;
        probes += 2;
        layers = diff_layers(&a, &b);
    }
    Ok(Pinpoint {
        vt_lo: lo,
        vt_hi: hi,
        layers,
        probes,
    })
}

/// Compares two ladder files' parsed contents. `Ok(None)` means the
/// ladders agree rung for rung.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] when either file cannot be read or
/// parsed.
pub fn compare_files(
    a: &std::path::Path,
    b: &std::path::Path,
) -> Result<Option<Divergence>, SimError> {
    let read = |p: &std::path::Path| -> Result<Ladder, SimError> {
        let text = std::fs::read_to_string(p).map_err(|e| {
            SimError::invalid_config(format!("cannot read audit ladder {}: {e}", p.display()))
        })?;
        Ladder::parse(&text).map_err(|e| {
            SimError::invalid_config(format!("corrupt audit ladder {}: {e}", p.display()))
        })
    };
    Ok(Ladder::compare(&read(a)?, &read(b)?))
}

/// Resumes every layer digest to text for CLI reporting.
pub fn describe(divergence: &Option<Divergence>) -> String {
    match divergence {
        None => "ladders agree on every rung".to_string(),
        Some(d) => d.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misbehavior::{GreedyConfig, NavInflationConfig};

    fn scenario() -> Scenario {
        let mut s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(
            NavInflationConfig::cts_only(10_000, 0.5),
        ));
        s.duration = SimDuration::from_secs(1);
        s.byte_error_rate = 2e-4;
        s.seed = 11;
        s
    }

    /// The audit ladder of `s` run under `hooks`.
    fn hooked(s: &Scenario, hooks: RunHooks) -> Ladder {
        let mut built = s.build().unwrap();
        built.start(hooks);
        built.run().audit
    }

    /// The regression the issue demands: an artificially injected
    /// single-event RNG perturbation must be pinpointed to the RNG layer
    /// and to a narrow virtual-time interval containing it.
    #[test]
    fn rng_perturbation_is_pinpointed_to_layer_and_interval() {
        let s = scenario();
        let perturb_at = SimTime::from_millis(437);
        let base = RunHooks::default();
        let variant = RunHooks {
            perturb_rng_at: Some(perturb_at),
            ..RunHooks::default()
        };

        // Coarse pass: 100 ms audit barriers on both runs.
        let coarse = RunHooks {
            audit_every: Some(SimDuration::from_millis(100)),
            ..RunHooks::default()
        };
        let coarse_var = RunHooks {
            perturb_rng_at: Some(perturb_at),
            ..coarse
        };
        let la = hooked(&s, coarse);
        let lb = hooked(&s, coarse_var);
        let d = Ladder::compare(&la, &lb).expect("perturbation must diverge");
        assert_eq!(d.vt_lo_ns, Some(400_000_000), "agrees through 400 ms");
        assert_eq!(d.vt_hi_ns, 500_000_000, "first coarse mismatch at 500 ms");
        assert!(
            d.layers.contains(&"rng".to_string()),
            "layers: {:?}",
            d.layers
        );

        // Fine pass: binary-search the bracket down to ≤ 10 ms.
        let p = pinpoint(
            &s,
            base,
            variant,
            (
                SimTime::from_nanos(d.vt_lo_ns.unwrap()),
                SimTime::from_nanos(d.vt_hi_ns),
            ),
            SimDuration::from_millis(10),
        )
        .unwrap();
        assert!(
            p.layers.contains(&"rng".to_string()),
            "layers: {:?}",
            p.layers
        );
        assert!(
            p.vt_hi.as_nanos() - p.vt_lo.as_nanos() <= 10_000_000,
            "bracket not narrowed: ({}, {}]",
            p.vt_lo.as_nanos(),
            p.vt_hi.as_nanos()
        );
        // The perturbation lands at the first event at or after 437 ms,
        // so the narrowed interval must sit inside the coarse bracket
        // and at or beyond the injection instant.
        assert!(p.vt_hi.as_nanos() >= 437_000_000);
        assert!(p.vt_lo.as_nanos() >= 400_000_000 && p.vt_hi.as_nanos() <= 500_000_000);
    }

    #[test]
    fn identical_runs_have_no_divergence() {
        let s = scenario();
        let hooks = RunHooks {
            audit_every: Some(SimDuration::from_millis(200)),
            ..RunHooks::default()
        };
        let la = hooked(&s, hooks);
        let lb = hooked(&s, hooks);
        assert_eq!(Ladder::compare(&la, &lb), None);
        assert_eq!(la.root_digest(), lb.root_digest());
    }

    #[test]
    fn empty_bracket_is_rejected() {
        let s = scenario();
        let r = pinpoint(
            &s,
            RunHooks::default(),
            RunHooks::default(),
            (SimTime::from_millis(100), SimTime::from_millis(100)),
            SimDuration::from_millis(1),
        );
        assert!(r.is_err());
    }
}
