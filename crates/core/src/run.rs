//! The one documented way to execute a scenario.
//!
//! [`Run`] is the single facade over building and simulating a
//! [`Scenario`]; the older entry points (`Scenario::run`,
//! `runplan::execute`) have been removed. It also fronts the checkpoint
//! & audit subsystem: [`Run::checkpoint_every`] /[`Run::audit_every`]
//! arm virtual-time barriers, [`Run::resume`] continues a run from a
//! checkpoint file, and campaign sweeps arm the same hooks ambiently
//! through [`crate::checkpoint::ambient`].
//!
//! ```
//! use greedy80211::{GreedyConfig, NavInflationConfig, Run, Scenario};
//!
//! let s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(
//!     NavInflationConfig::cts_only(10_000, 1.0),
//! ));
//! let out = Run::plan(&s).seeded(7).execute()?;
//! assert!(out.goodput_mbps(1) > out.goodput_mbps(0));
//! # Ok::<(), sim::SimError>(())
//! ```
//!
//! `execute` always returns a plain-data [`RunOutcome`] — detector
//! reports arrive as detached snapshots, never as live `Rc` handles, so
//! results can cross threads no matter how the run was seeded.
//!
//! Seeding comes in two flavours:
//!
//! * [`Run::seeded`] — feed a raw 64-bit seed straight to the simulator
//!   RNG (what experiments do with the stream seed [`sweep`] hands their
//!   measure closure);
//! * [`Run::keyed`] — name the run's place in a campaign with a
//!   [`RunKey`]; the seed is derived from the key alone, so the run is a
//!   pure function of `(label, point, seed index)`.
//!
//! [`sweep`]: ../../gr_bench/fn.sweep.html

use std::path::Path;

use net::RunHooks;
use sim::{RunKey, SimDuration, SimError, SimTime};
use snap::SnapValue as _;

use crate::checkpoint::{self, Checkpoint};
use crate::runplan::RunOutcome;
use crate::scenario::{Scenario, ScenarioOutcome};

/// A planned simulation run: scenario plus seeding policy, plus any
/// checkpoint/audit barriers to arm.
///
/// Build one with [`Run::plan`], pick a seed with [`Run::seeded`] or
/// [`Run::keyed`] (the last call wins), optionally arm hooks, then
/// [`Run::execute`].
#[derive(Debug, Clone)]
pub struct Run {
    scenario: Scenario,
    key: Option<RunKey>,
    checkpoint_every: Option<SimDuration>,
    audit_every: Option<SimDuration>,
    perturb_rng_at: Option<SimTime>,
}

impl Run {
    /// Plans a run of `scenario` as it stands (its own `seed` field).
    pub fn plan(scenario: &Scenario) -> Self {
        Run {
            scenario: scenario.clone(),
            key: None,
            checkpoint_every: None,
            audit_every: None,
            perturb_rng_at: None,
        }
    }

    /// Seeds the run with a raw 64-bit RNG seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self.key = None;
        self
    }

    /// Seeds the run from a campaign [`RunKey`]: the RNG stream is
    /// derived from the key alone and the outcome carries the key.
    pub fn keyed(mut self, key: RunKey) -> Self {
        self.key = Some(key);
        self
    }

    /// Captures a resumable [`Checkpoint`] of the whole network at every
    /// multiple of `interval` (virtual time). The containers land in
    /// [`RunOutcome::checkpoints`].
    pub fn checkpoint_every(mut self, interval: SimDuration) -> Self {
        self.checkpoint_every = Some(interval);
        self
    }

    /// Records the state-hash audit ladder (one digest per layer) at
    /// every multiple of `interval`. The ladder lands in
    /// [`RunOutcome::audit`].
    pub fn audit_every(mut self, interval: SimDuration) -> Self {
        self.audit_every = Some(interval);
        self
    }

    /// Injects one extra RNG draw just before the first event at or
    /// after `at` dispatches — a controlled divergence for exercising
    /// the audit ladder and [`crate::audit::pinpoint`].
    pub fn perturb_rng_at(mut self, at: SimTime) -> Self {
        self.perturb_rng_at = Some(at);
        self
    }

    /// Builds the network, simulates to completion, and snapshots the
    /// result into a plain-data [`RunOutcome`].
    ///
    /// When a campaign installed an ambient [`checkpoint::JobSpec`] for
    /// this thread, the run additionally records its checkpoint and audit
    /// files under the campaign's artifact root — or, in resume mode,
    /// restores its own checkpoint and simulates only the tail.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the scenario is malformed
    /// (zero pairs, out-of-range indices, invalid error rates) or a
    /// resumed checkpoint does not match the planned scenario.
    pub fn execute(self) -> Result<RunOutcome, SimError> {
        let Run {
            mut scenario,
            key,
            checkpoint_every,
            audit_every,
            perturb_rng_at,
        } = self;
        let key = match key {
            Some(k) => {
                scenario.seed = k.stream_seed();
                k
            }
            // Ad-hoc (non-campaign) runs still get a key in the outcome;
            // the label marks them as outside any sweep.
            None => RunKey::new("adhoc", 0, scenario.seed),
        };
        // Drain the recorder into the outcome only when this scenario
        // asked for recording itself. A recorder inherited from the
        // ambient campaign spec belongs to the campaign: its report is
        // drained into the campaign sink after the measure closure
        // returns, and draining it here would leave that empty.
        let explicit_record = scenario.record.is_some();
        let ambient = checkpoint::ambient::current();
        let explicit_hooks =
            checkpoint_every.is_some() || audit_every.is_some() || perturb_rng_at.is_some();

        // Campaign resume: restore this run's own checkpoint, if one was
        // recorded, and simulate only the remaining virtual time. A
        // missing file, or one frozen under a different scenario (a job
        // that executes several runs records only its last), just means
        // "no checkpoint for this run" — fall through and run it from
        // the start; either way the outcome is identical.
        if let Some(job) = ambient
            .as_ref()
            .filter(|j| j.spec.resume && !explicit_hooks)
        {
            let path = job.spec.checkpoint_path(&job.key);
            if path.exists() {
                let ckpt = Checkpoint::read(&path)?;
                let mut planned = snap::Enc::new();
                scenario.save(&mut planned);
                let mut frozen = snap::Enc::new();
                ckpt.scenario.save(&mut frozen);
                if planned.bytes() == frozen.bytes() {
                    let (outcome, _) = ckpt.resume(RunHooks::default())?;
                    return Ok(package(
                        key,
                        outcome,
                        explicit_record,
                        Vec::new(),
                        &scenario,
                    ));
                }
            }
        }

        // Hook intervals: explicit builder calls win; otherwise a
        // recording campaign spec supplies them.
        let (ck_every, au_every) = if explicit_hooks {
            (checkpoint_every, audit_every)
        } else {
            match ambient.as_ref().filter(|j| !j.spec.resume) {
                Some(job) => (job.spec.every, job.spec.audit_every),
                None => (None, None),
            }
        };

        if ck_every.is_none() && au_every.is_none() && perturb_rng_at.is_none() {
            let outcome = scenario.build()?.run();
            return Ok(package(
                key,
                outcome,
                explicit_record,
                Vec::new(),
                &scenario,
            ));
        }

        let hooks = RunHooks {
            checkpoint_every: ck_every,
            audit_every: au_every,
            perturb_rng_at,
        };
        let (outcome, artifacts) = scenario.build()?.run_hooked(hooks);
        let ladder = checkpoint::ladder_from_artifacts(&artifacts);
        let file_key = ambient
            .as_ref()
            .map(|j| j.key.clone())
            .unwrap_or_else(|| key.clone());
        let checkpoints: Vec<(SimTime, Vec<u8>)> = artifacts
            .checkpoints
            .into_iter()
            .map(|(at, net_state)| {
                let container = Checkpoint {
                    key: file_key.clone(),
                    at,
                    scenario: scenario.clone(),
                    net_state,
                };
                (at, container.encode())
            })
            .collect();
        if let Some(job) = ambient.as_ref().filter(|j| !j.spec.resume) {
            // Newest checkpoint wins: resuming it leaves the least tail
            // to resimulate.
            if let Some((_, bytes)) = checkpoints.last() {
                let path = job.spec.checkpoint_path(&job.key);
                std::fs::create_dir_all(path.parent().expect("checkpoint path has a parent"))
                    .and_then(|()| std::fs::write(&path, bytes))
                    .map_err(|e| {
                        SimError::invalid_config(format!(
                            "cannot write checkpoint {}: {e}",
                            path.display()
                        ))
                    })?;
            }
            if !ladder.entries.is_empty() {
                let path = job.spec.audit_path(&job.key);
                std::fs::create_dir_all(path.parent().expect("audit path has a parent"))
                    .and_then(|()| std::fs::write(&path, ladder.to_text()))
                    .map_err(|e| {
                        SimError::invalid_config(format!(
                            "cannot write audit ladder {}: {e}",
                            path.display()
                        ))
                    })?;
            }
        }
        let mut out = package(key, outcome, explicit_record, checkpoints, &scenario);
        out.audit = ladder;
        Ok(out)
    }

    /// Resumes a checkpoint file previously written by a hooked or
    /// campaign run: rebuilds the embedded scenario, restores the frozen
    /// network state, and simulates the remaining virtual time. The
    /// outcome is identical to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the file is unreadable, corrupt,
    /// or its state does not match the embedded scenario.
    pub fn resume(path: impl AsRef<Path>) -> Result<RunOutcome, SimError> {
        let ckpt = Checkpoint::read(path.as_ref())?;
        let key = ckpt.key.clone();
        let scenario = ckpt.scenario.clone();
        let (outcome, _) = ckpt.resume(RunHooks::default())?;
        Ok(package(key, outcome, false, Vec::new(), &scenario))
    }
}

fn package(
    key: RunKey,
    outcome: ScenarioOutcome,
    explicit_record: bool,
    checkpoints: Vec<(SimTime, Vec<u8>)>,
    _scenario: &Scenario,
) -> RunOutcome {
    let grc = outcome
        .grc_reports
        .iter()
        .map(|(node, handles)| (*node, handles.snapshot()))
        .collect();
    let obs = if explicit_record {
        outcome.obs_report()
    } else {
        None
    };
    RunOutcome {
        key,
        metrics: outcome.metrics,
        flows: outcome.flows,
        probe_flows: outcome.probe_flows,
        senders: outcome.senders,
        receivers: outcome.receivers,
        grc,
        obs,
        audit: snap::audit::Ladder::new(),
        checkpoints,
        duration: outcome.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misbehavior::{GreedyConfig, NavInflationConfig};
    use sim::SimDuration;

    fn scenario() -> Scenario {
        let mut s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(
            NavInflationConfig::cts_only(10_000, 1.0),
        ));
        s.duration = SimDuration::from_millis(500);
        s.grc = Some(false);
        s
    }

    #[test]
    fn keyed_execution_is_a_pure_function_of_the_key() {
        let a = Run::plan(&scenario())
            .keyed(RunKey::new("t", 0, 3))
            .execute()
            .unwrap();
        let b = Run::plan(&scenario())
            .keyed(RunKey::new("t", 0, 3))
            .execute()
            .unwrap();
        assert_eq!(a.goodput_mbps(0), b.goodput_mbps(0));
        assert_eq!(a.goodput_mbps(1), b.goodput_mbps(1));
        assert_eq!(a.nav_detections(), b.nav_detections());
    }

    #[test]
    fn key_overrides_scenario_and_raw_seeds() {
        let a = Run::plan(&scenario())
            .seeded(999) // overridden: the key is the seed source
            .keyed(RunKey::new("t", 1, 2))
            .execute()
            .unwrap();
        let b = Run::plan(&scenario())
            .keyed(RunKey::new("t", 1, 2))
            .execute()
            .unwrap();
        assert_eq!(a.metrics.events_processed, b.metrics.events_processed);
        assert_eq!(a.key, RunKey::new("t", 1, 2));
    }

    #[test]
    fn seeded_matches_scenario_seed_field() {
        // `.seeded(n)` must replay exactly the run `scenario.seed = n`
        // produces — experiments rely on this for byte-stable CSVs.
        let mut s = scenario();
        s.seed = 41;
        let via_field = Run::plan(&s).execute().unwrap();
        let via_builder = Run::plan(&scenario()).seeded(41).execute().unwrap();
        assert_eq!(
            via_field.metrics.events_processed,
            via_builder.metrics.events_processed
        );
        assert_eq!(via_field.goodput_mbps(0), via_builder.goodput_mbps(0));
    }

    #[test]
    fn distinct_seeds_give_distinct_runs() {
        let a = Run::plan(&scenario()).seeded(0).execute().unwrap();
        let b = Run::plan(&scenario()).seeded(1).execute().unwrap();
        // Same topology, different replication: event counts virtually
        // never tie.
        assert_ne!(a.metrics.events_processed, b.metrics.events_processed);
    }

    #[test]
    fn outcome_carries_detached_grc_snapshots() {
        let out = Run::plan(&scenario()).seeded(0).execute().unwrap();
        // 2 senders + 1 honest receiver observed.
        assert_eq!(out.grc.len(), 3);
        assert!(out.nav_detections() > 0, "inflated CTS must be noticed");
    }
}
