//! `Run::resume` failure modes: every way a checkpoint file can be bad
//! must surface as a typed [`SimError`], never a panic.

use greedy80211_repro::{Checkpoint, Run, Scenario};
use sim::{SimDuration, SimError};

/// Produces a real checkpoint file by running a short scenario with a
/// 20 ms barrier and writing the first frozen state.
fn good_checkpoint(dir: &std::path::Path) -> std::path::PathBuf {
    let s = Scenario {
        duration: SimDuration::from_millis(60),
        ..Scenario::default()
    };
    let out = Run::plan(&s)
        .checkpoint_every(SimDuration::from_millis(20))
        .execute()
        .expect("scenario runs");
    let (_, bytes) = out.checkpoints.first().expect("one checkpoint recorded");
    let path = dir.join("good.snap");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(&path, bytes).unwrap();
    path
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn good_checkpoint_resumes() {
    let dir = temp_dir("gr-resume-ok");
    let path = good_checkpoint(&dir);
    let out = Run::resume(&path).expect("clean resume");
    assert!(out.metrics.events_processed > 0);
}

#[test]
fn truncated_snap_is_a_typed_error() {
    let dir = temp_dir("gr-resume-trunc");
    let path = good_checkpoint(&dir);
    let bytes = std::fs::read(&path).unwrap();
    // Cut at several depths: inside the header, inside the scenario,
    // inside the state blob. All must decode as errors.
    for keep in [3, 10, bytes.len() / 2, bytes.len() - 1] {
        let cut = dir.join(format!("cut-{keep}.snap"));
        std::fs::write(&cut, &bytes[..keep]).unwrap();
        let err = Run::resume(&cut).expect_err("truncated file accepted");
        let SimError::InvalidConfig(msg) = err;
        assert!(
            msg.contains("corrupt checkpoint") || msg.contains("truncated"),
            "keep={keep}: {msg}"
        );
    }
}

#[test]
fn wrong_container_version_is_a_typed_error() {
    let dir = temp_dir("gr-resume-version");
    let path = good_checkpoint(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    // The container header is MAGIC ("GRSNAP") + little-endian u16
    // format version.
    assert_eq!(&bytes[..6], b"GRSNAP");
    bytes[6] = 0xFF;
    bytes[7] = 0xFF;
    let bad = dir.join("future-version.snap");
    std::fs::write(&bad, &bytes).unwrap();
    let err = Run::resume(&bad).expect_err("future version accepted");
    let SimError::InvalidConfig(msg) = err;
    assert!(msg.contains("version 65535"), "{msg}");
}

#[test]
fn bad_magic_is_a_typed_error() {
    let dir = temp_dir("gr-resume-magic");
    let path = good_checkpoint(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'X';
    let bad = dir.join("not-a-snap.snap");
    std::fs::write(&bad, &bytes).unwrap();
    let err = Run::resume(&bad).expect_err("bad magic accepted");
    let SimError::InvalidConfig(msg) = err;
    assert!(msg.contains("bad magic"), "{msg}");
}

#[test]
fn missing_file_is_a_typed_error() {
    let err = Run::resume("/nonexistent/nowhere.snap").expect_err("phantom file accepted");
    let SimError::InvalidConfig(msg) = err;
    assert!(msg.contains("cannot read checkpoint"), "{msg}");
}

#[test]
fn scenario_drift_is_a_typed_error() {
    // Re-encode the container with a *different* scenario around the
    // same frozen state: the restored blob no longer matches the
    // topology the scenario builds (4 nodes instead of the recorded 4
    // with different flows / 6 nodes), which must be rejected when the
    // state is grafted on.
    let dir = temp_dir("gr-resume-drift");
    let path = good_checkpoint(&dir);
    let ckpt = Checkpoint::read(&path).expect("readable");
    let drifted = Checkpoint {
        scenario: Scenario {
            pairs: ckpt.scenario.pairs + 1,
            ..ckpt.scenario.clone()
        },
        ..ckpt
    };
    let bad = dir.join("drift.snap");
    drifted.write(&bad).unwrap();
    let err = Run::resume(&bad).expect_err("drifted scenario accepted");
    let SimError::InvalidConfig(msg) = err;
    assert!(msg.contains("checkpoint state rejected"), "{msg}");
}
