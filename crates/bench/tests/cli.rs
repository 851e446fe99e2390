//! The `repro` command line: one option table, checked per subcommand,
//! and the `scenario` subcommand's output.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh temporary directory for one test's outputs.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gr-repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn arguments_outside_their_subcommand_are_rejected() {
    for (args, offender) in [
        (&["cc", "--cells", "3x3"][..], "--cells"),
        (&["run", "--points", "2"], "--points"),
        (&["fuzz", "1", "--jobs", "2"], "--jobs"),
        (&["roc", "fig2"], "fig2"),
        (&["scenario", "--quick"], "--quick"),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("`{offender}`")) && err.contains(&format!("`repro {}`", args[0])),
            "{args:?}: the error must name `{offender}` and the subcommand: {err}"
        );
    }
}

#[test]
fn scenario_reproduces_the_nav_inflation_example() {
    let out = repro(&[
        "scenario",
        "--pairs",
        "4",
        "--transport",
        "udp",
        "--greedy",
        "3:nav:31000",
        "--grc",
        "mitigate",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let r3 = text
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("R3"))
        .unwrap_or_else(|| panic!("no R3 line:\n{text}"));
    assert_eq!(r3.trim(), "0.618 Mb/s", "{text}");
    assert!(
        text.contains("GRC: 5544 NAV detections, 226 spoofed-ACK flags"),
        "{text}"
    );
}

#[test]
fn scenario_greedy_index_is_checked_by_the_scenario_build() {
    let out = repro(&["scenario", "--greedy", "5:nav"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("greedy receiver index 5 out of range (pairs = 2)"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn experiment_ids_fuzz_seeds_and_audit_files_still_parse() {
    let dir = fresh_dir("ids");
    let out_dir = dir.to_str().expect("utf-8 temp dir");
    let out = repro(&[
        "run",
        "--quick",
        "--jobs",
        "1",
        "--out",
        out_dir,
        "-e",
        "tab01,tab3",
        "fig21",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    for id in ["tab1", "tab3", "fig21"] {
        assert!(dir.join(format!("{id}.csv")).is_file(), "{id}.csv missing");
    }

    let out = repro(&["fuzz", "0", "--seed", "7", "--out", out_dir]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("campaign seed 7"), "{}", stdout(&out));

    // Two ladder files reach the comparison (which fails on missing
    // files); one is a usage error.
    let missing = dir.join("missing.audit");
    let missing = missing.to_str().expect("utf-8 temp dir");
    let out = repro(&["audit", missing, missing]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).starts_with("repro: audit:"),
        "{}",
        stderr(&out)
    );
    let out = repro(&["audit", missing]);
    assert!(
        stderr(&out).contains("usage: repro audit"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
