//! The one documented way to execute a scenario.
//!
//! [`Run`] is the single facade over building and simulating a
//! [`Scenario`]. It also fronts the checkpoint & audit subsystem:
//! [`Run::checkpoint_every`] /[`Run::audit_every`] arm virtual-time
//! barriers, [`Run::resume`] continues a run from a checkpoint file, and
//! campaign sweeps arm the same hooks through the checkpoint part of
//! their per-job [`net::JobContext`].
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
//! reports arrive as copies read from the finished network, never as
//! live `Rc` handles, so results can cross threads no matter how the run
//! was seeded.
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

use mac::NodeId;
use net::{JobContext, RunHooks, RunMetrics};
use sim::{RunKey, SimDuration, SimError, SimTime};
use snap::SnapValue as _;
use transport::FlowId;

use crate::checkpoint::Checkpoint;
use crate::detect::GrcSnapshot;
use crate::scenario::Scenario;

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
    hooks: RunHooks,
}

impl Run {
    /// Plans a run of `scenario` as it stands (its own `seed` field).
    pub fn plan(scenario: &Scenario) -> Self {
        Run {
            scenario: scenario.clone(),
            key: None,
            hooks: RunHooks::default(),
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
        self.hooks.checkpoint_every = Some(interval);
        self
    }

    /// Records the state-hash audit ladder (one digest per layer) at
    /// every multiple of `interval`. The ladder lands in
    /// [`RunOutcome::audit`].
    pub fn audit_every(mut self, interval: SimDuration) -> Self {
        self.hooks.audit_every = Some(interval);
        self
    }

    /// Injects one extra RNG draw just before the first event at or
    /// after `at` dispatches — a controlled divergence for exercising
    /// the audit ladder and [`crate::audit::pinpoint`].
    pub fn perturb_rng_at(mut self, at: SimTime) -> Self {
        self.hooks.perturb_rng_at = Some(at);
        self
    }

    /// Builds the network, simulates to completion, and snapshots the
    /// result into a plain-data [`RunOutcome`].
    ///
    /// When the thread's [`JobContext`] carries a checkpoint
    /// [`CampaignSpec`](crate::checkpoint::CampaignSpec), the run
    /// additionally records its checkpoint and audit files under the
    /// campaign's artifact root, named by the job's key — or, in resume
    /// mode, restores its own checkpoint and simulates only the tail.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the scenario is malformed
    /// (zero pairs, out-of-range indices, invalid error rates), a
    /// checkpoint or audit interval is zero, or a resumed checkpoint
    /// does not match the planned scenario.
    pub fn execute(self) -> Result<RunOutcome, SimError> {
        let Run {
            mut scenario,
            key,
            hooks,
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
        let job = JobContext::current();
        // Campaign files are named by the job's key, else the run's own.
        let file_key = job.key.unwrap_or_else(|| key.clone());
        let (resume_from, record_to) = match job.checkpoint {
            Some(spec) if spec.resume => (Some(spec), None),
            spec => (None, spec),
        };
        let explicit_hooks = hooks != RunHooks::default();

        // Campaign resume: restore this run's own checkpoint, if one was
        // recorded, and simulate only the remaining virtual time. A
        // missing file, or one frozen under a different scenario (a job
        // that executes several runs records only its last), just means
        // "no checkpoint for this run" — fall through and run it from
        // the start; either way the outcome is identical.
        if let Some(spec) = resume_from.filter(|_| !explicit_hooks) {
            let path = spec.checkpoint_path(&file_key);
            if path.exists() {
                let ckpt = Checkpoint::read(&path)?;
                let mut planned = snap::Enc::new();
                scenario.save(&mut planned);
                let mut frozen = snap::Enc::new();
                ckpt.scenario.save(&mut frozen);
                if planned.bytes() == frozen.bytes() {
                    // The planned scenario differs from the frozen one
                    // only in what the encoding leaves out (`record`).
                    return Checkpoint {
                        key,
                        scenario,
                        ..ckpt
                    }
                    .resume();
                }
            }
        }

        // Hook intervals: explicit builder calls win; otherwise a
        // recording campaign spec supplies them.
        let hooks = match &record_to {
            Some(spec) if !explicit_hooks => RunHooks {
                checkpoint_every: spec.every,
                audit_every: spec.audit_every,
                perturb_rng_at: None,
            },
            _ => hooks,
        };
        hooks.validate()?;

        let mut built = scenario.build()?;
        built.start(hooks);
        // Checkpoint containers carry the file key; the outcome names
        // the run.
        let mut out = built.finish(file_key.clone());
        out.key = key;
        if let Some(spec) = &record_to {
            // Newest checkpoint wins: resuming it leaves the least tail
            // to resimulate.
            if let Some((_, bytes)) = out.checkpoints.last() {
                write_file(&spec.checkpoint_path(&file_key), bytes, "checkpoint")?;
            }
            if !out.audit.entries.is_empty() {
                let text = out.audit.to_text();
                write_file(&spec.audit_path(&file_key), text.as_bytes(), "audit ladder")?;
            }
        }
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
        Checkpoint::read(path.as_ref())?.resume()
    }
}

/// Writes a campaign artifact, creating its directory.
fn write_file(path: &Path, bytes: &[u8], what: &str) -> Result<(), SimError> {
    std::fs::create_dir_all(path.parent().expect("campaign paths have a parent"))
        .and_then(|()| std::fs::write(path, bytes))
        .map_err(|e| {
            SimError::invalid_config(format!("cannot write {what} {}: {e}", path.display()))
        })
}

/// Plain-data result of one run: everything a finished
/// [`BuiltScenario`](crate::BuiltScenario) exposes, minus live handles,
/// so it can move freely between threads. Executing a keyed plan is a
/// pure function of its key, so a sweep of runs can execute in any
/// order, on any thread, and aggregate to bit-identical results.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The key the run was planned under.
    pub key: RunKey,
    /// Metrics of the run.
    pub metrics: RunMetrics,
    /// Data-flow ids, index-aligned with receivers.
    pub flows: Vec<FlowId>,
    /// Probe-flow ids (empty unless the scenario probes).
    pub probe_flows: Vec<FlowId>,
    /// Sender node ids.
    pub senders: Vec<NodeId>,
    /// Receiver node ids, index-aligned with flows.
    pub receivers: Vec<NodeId>,
    /// GRC report copies per observed node, in ascending node id (empty
    /// unless GRC).
    pub grc: Vec<(NodeId, GrcSnapshot)>,
    /// Drained flight-recorder report, if the scenario set `record`.
    pub obs: Option<::obs::ObsReport>,
    /// State-hash audit ladder (empty unless the run armed audit
    /// barriers; see [`Run::audit_every`]).
    pub audit: snap::audit::Ladder,
    /// Encoded [`Checkpoint`] containers captured at each checkpoint
    /// barrier, in virtual-time order (empty unless armed).
    pub checkpoints: Vec<(SimTime, Vec<u8>)>,
    /// Run length (for goodput conversions).
    pub duration: SimDuration,
}

// Outcomes travel from worker threads back to the aggregator.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RunOutcome>();
};

impl RunOutcome {
    /// Goodput of receiver `i`'s flow in Mb/s.
    pub fn goodput_mbps(&self, i: usize) -> f64 {
        self.metrics.goodput_mbps(self.flows[i])
    }

    /// Total NAV-inflation detections across all GRC nodes.
    pub fn nav_detections(&self) -> u64 {
        self.grc.iter().map(|(_, s)| s.nav.total_detections()).sum()
    }

    /// Total spoofed-ACK flags across all GRC nodes.
    pub fn spoof_flags(&self) -> u64 {
        self.grc.iter().map(|(_, s)| s.spoof.flagged).sum()
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
    fn zero_hook_intervals_are_typed_errors() {
        let zero = SimDuration::from_nanos(0);
        for run in [
            Run::plan(&scenario()).checkpoint_every(zero),
            Run::plan(&scenario()).audit_every(zero),
        ] {
            let Err(SimError::InvalidConfig(msg)) = run.execute() else {
                panic!("a zero interval must be rejected");
            };
            assert!(msg.contains("interval must be positive"), "{msg}");
        }
    }

    #[test]
    fn outcome_carries_detached_grc_snapshots() {
        let out = Run::plan(&scenario()).seeded(0).execute().unwrap();
        // 2 senders + 1 honest receiver observed.
        assert_eq!(out.grc.len(), 3);
        assert!(out.nav_detections() > 0, "inflated CTS must be noticed");
    }
}
