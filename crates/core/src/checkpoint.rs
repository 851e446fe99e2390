//! Versioned run checkpoints.
//!
//! A [`Checkpoint`] is a self-contained, resumable description of one
//! run frozen at a virtual-time barrier: the campaign [`RunKey`], the
//! full [`Scenario`] (so a resuming process can rebuild an identically
//! configured network — see the rebuild-then-restore contract on
//! [`snap::SnapState`]), the barrier time, and the network-state blob.
//! Containers carry the `gr-snap` header, so version drift is caught at
//! decode time rather than as silent corruption.
//!
//! Campaigns enable checkpointing the same way they enable flight
//! recording: [`sweep`] installs a per-job [`net::JobContext`] carrying
//! a [`CampaignSpec`], and [`Run::execute`] picks it up without any
//! experiment-signature changes. In record mode each run
//! writes its newest checkpoint to `<dir>/checkpoints/<run>.snap` and
//! its audit ladder to `<dir>/audit/<run>.audit`; in resume mode a run
//! whose checkpoint file exists restores it and simulates only the tail
//! — producing bit-identical metrics, and therefore byte-identical CSV
//! output, at any `--jobs` width.
//!
//! [`sweep`]: ../../gr_bench/fn.sweep.html
//! [`Run::execute`]: crate::Run::execute

use std::fs;
use std::io;
use std::path::Path;

use net::RunHooks;
pub use net::{run_file_stem, CampaignSpec};
use sim::{RunKey, SimError, SimTime};
use snap::SnapValue as _;

use crate::run::RunOutcome;
use crate::scenario::Scenario;

/// One run frozen at a virtual-time barrier, ready to write to disk and
/// resume in another process.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The campaign key the run executes under.
    pub key: RunKey,
    /// Virtual time of the barrier the state was captured at.
    pub at: SimTime,
    /// The scenario, seed already stamped, that built the network. Its
    /// `record` field is not round-tripped (observability is the
    /// resuming process's own choice).
    pub scenario: Scenario,
    /// The network's canonical state encoding at `at`.
    pub net_state: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the container, including the versioned `gr-snap`
    /// header.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = snap::Enc::with_header();
        self.key.save(&mut w);
        self.at.save(&mut w);
        self.scenario.save(&mut w);
        w.bytes_slice(&self.net_state);
        w.into_bytes()
    }

    /// Parses a container produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// [`snap::SnapError`] on a missing/incompatible header or corrupt
    /// body.
    pub fn decode(buf: &[u8]) -> Result<Self, snap::SnapError> {
        let mut r = snap::Dec::with_header(buf)?;
        Ok(Checkpoint {
            key: RunKey::load(&mut r)?,
            at: SimTime::load(&mut r)?,
            scenario: Scenario::load(&mut r)?,
            net_state: r.bytes_slice()?.to_vec(),
        })
    }

    /// Writes the encoded container to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.encode())
    }

    /// Reads and decodes a container from `path`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] describing the filesystem or decode
    /// failure.
    pub fn read(path: &Path) -> Result<Self, SimError> {
        let bytes = fs::read(path).map_err(|e| {
            SimError::invalid_config(format!("cannot read checkpoint {}: {e}", path.display()))
        })?;
        Checkpoint::decode(&bytes).map_err(|e| {
            SimError::invalid_config(format!("corrupt checkpoint {}: {e}", path.display()))
        })
    }

    /// Rebuilds the scenario's network, restores the frozen state and
    /// simulates the remaining virtual time.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the embedded scenario is
    /// malformed or the state blob does not match its topology.
    pub fn resume(self) -> Result<RunOutcome, SimError> {
        let mut built = self.scenario.build()?;
        built.restore(&self.net_state, self.at, RunHooks::default())?;
        Ok(built.finish(self.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misbehavior::{GreedyConfig, NavInflationConfig};
    use sim::SimDuration;

    fn scenario() -> Scenario {
        let mut s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(
            NavInflationConfig::cts_only(10_000, 0.8),
        ));
        s.duration = SimDuration::from_millis(400);
        s.grc = Some(true);
        s.probes = true;
        s.flow_error_overrides = vec![(0, 2e-4)];
        s
    }

    #[test]
    fn scenario_encoding_round_trips() {
        let s = scenario();
        let mut w = snap::Enc::new();
        s.save(&mut w);
        let mut r = snap::Dec::new(w.bytes());
        let back = Scenario::load(&mut r).unwrap();
        assert!(r.is_done(), "trailing bytes after scenario");
        let mut w2 = snap::Enc::new();
        back.save(&mut w2);
        assert_eq!(w.bytes(), w2.bytes(), "re-encoding must be stable");
    }

    #[test]
    fn container_round_trips_with_header() {
        let ckpt = Checkpoint {
            key: RunKey::new("fig6/tcp", 3, 1),
            at: SimTime::from_millis(200),
            scenario: scenario(),
            net_state: vec![1, 2, 3, 4, 5],
        };
        let bytes = ckpt.encode();
        assert_eq!(&bytes[..6], snap::MAGIC);
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back.key, ckpt.key);
        assert_eq!(back.at, ckpt.at);
        assert_eq!(back.net_state, ckpt.net_state);
    }

    #[test]
    fn truncated_container_is_rejected() {
        let ckpt = Checkpoint {
            key: RunKey::new("t", 0, 0),
            at: SimTime::ZERO,
            scenario: scenario(),
            net_state: vec![0; 16],
        };
        let bytes = ckpt.encode();
        assert!(Checkpoint::decode(&bytes[..bytes.len() - 4]).is_err());
        assert!(Checkpoint::decode(&bytes[2..]).is_err(), "header required");
    }
}
