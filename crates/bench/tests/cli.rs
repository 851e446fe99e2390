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
fn scenario_rejects_a_byte_error_rate_outside_zero_to_one() {
    for ber in ["-1", "nan", "2"] {
        let out = repro(&["scenario", "--ber", ber, "--duration", "1"]);
        assert_eq!(out.status.code(), Some(1), "--ber {ber}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("error rate must be in [0, 1]"),
            "--ber {ber}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn scenario_rejects_out_of_range_greedy_percentages_and_repeated_receivers() {
    for (greedy, message) in [
        (
            &["1:fake:150"][..],
            "fake greedy percentage 1.5 is not in [0, 1]",
        ),
        (
            &["1:spoof:-5"],
            "spoof greedy percentage -0.05 is not in [0, 1]",
        ),
        (
            &["1:nav:31000:nan"],
            "nav greedy percentage NaN is not in [0, 1]",
        ),
        (
            &["1:nav:31000:inf"],
            "nav greedy percentage inf is not in [0, 1]",
        ),
        (&["0:fake", "0:nav"], "greedy receiver index 0 listed twice"),
    ] {
        let mut args = vec!["scenario", "--duration", "1"];
        for g in greedy {
            args.extend(["--greedy", g]);
        }
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(message), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn resuming_from_a_missing_path_is_an_error() {
    let dir = fresh_dir("resume-missing");
    let missing = dir.join("no-such-campaign");
    let missing = missing.to_str().expect("utf-8 temp path");
    let out_dir = dir.to_str().expect("utf-8 temp path");
    for args in [
        &[
            "run", "--quick", "--resume", missing, "--out", out_dir, "fig2",
        ][..],
        &[
            "intensity",
            "--quick",
            "--points",
            "2",
            "--resume",
            missing,
            "--out",
            out_dir,
        ],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("--resume: {missing} does not exist")),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(
            !stdout(&out).contains("resuming"),
            "{args:?}: {}",
            stdout(&out)
        );
        assert!(!dir.exists(), "{args:?} must fail before creating --out");
    }
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

#[test]
fn resumed_checkpoint_replays_under_the_checker() {
    let dir = fresh_dir("resume-conform");
    let out = repro(&[
        "run",
        "--quick",
        "--checkpoint-every",
        "500",
        "--out",
        dir.to_str().unwrap(),
        "fig2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let ckpt = dir.join("checkpoints/fig2-p0000-s0000.snap");
    let out = repro(&["run", "--resume", ckpt.to_str().unwrap(), "--conform"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "resumed fig2 (point 0, seed 0) to 2000 ms of virtual time\n  \
         R0      1.827 Mb/s\n  \
         R1      1.794 Mb/s\n  \
         conform: 1 run(s) clean (0 whitelist exemption(s))\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_hook_intervals_are_rejected_at_once() {
    for option in ["--checkpoint-every", "--audit-every"] {
        let dir = fresh_dir("zero-interval");
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["run", "--quick", "--jobs", "1", option, "0", "--out"])
            .arg(&dir)
            .arg("fig2")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("repro runs");
        // A zero interval used to re-arm its barrier at the same instant
        // forever; kill the child rather than hang the suite.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while child.try_wait().expect("poll repro").is_none() {
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                panic!("{option} 0 did not exit");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("repro exits");
        assert!(!out.status.success(), "{option} 0 must fail");
        assert!(
            stderr(&out).contains(&format!("{option}: expected a positive integer, got `0`")),
            "{}",
            stderr(&out)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn oversized_networks_and_worlds_fail_with_a_typed_error() {
    let dir = fresh_dir("oversized");
    let out_dir = dir.to_str().expect("utf-8 temp path");
    for (args, message) in [
        (
            &["scenario", "--pairs", "40000", "--duration", "1"][..],
            "invalid configuration: 40000 pairs need 80000 stations",
        ),
        (
            &[
                "world",
                "--quick",
                "--cells",
                "20000x20000",
                "--out",
                out_dir,
            ],
            "invalid configuration: a 20000x20000 world exceeds",
        ),
    ] {
        let started = std::time::Instant::now();
        let out = repro(args);
        // Exit code 1, not an allocation-failure abort (134).
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(message), "{args:?}: {}", stderr(&out));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "{args:?} must fail before doing any work"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_absurd_seed_count_is_a_typed_error_in_every_campaign() {
    let dir = fresh_dir("seeds");
    let out_dir = dir.to_str().expect("utf-8 temp path");
    for campaign in [
        &["run", "fig2"][..],
        &["world"],
        &["cc"],
        &["roc"],
        &["intensity"],
    ] {
        let mut args = vec!["--quick", "--seeds", "99999999999", "--out", out_dir];
        args.splice(0..0, campaign.iter().copied());
        let out = repro(&args);
        // Exit code 1, not an allocation-failure abort (134).
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("--seeds: at most 10000 seeds, got 99999999999"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reader_that_quits_early_ends_repro_quietly() {
    use std::io::{BufRead, BufReader, Read};
    let dir = fresh_dir("closed-stdout");
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["run", "--quick", "--jobs", "1", "--out"])
        .arg(&dir)
        .arg("fig3")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("repro runs");
    // Read the header line, then hang up: everything repro prints after
    // it (the table, the CSV path) meets a closed pipe.
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("# greedy80211 reproduction"), "{first}");
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut err)
        .expect("stderr");
    let status = child.wait().expect("repro exits");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.is_empty(), "{err}");
    assert_eq!(status.code(), Some(141), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn time_options_that_overflow_the_clock_are_typed_errors() {
    let dir = fresh_dir("overflow");
    let out_dir = dir.to_str().expect("utf-8 temp path");
    // Each value is the smallest whole count whose nanoseconds exceed
    // u64::MAX; unchecked, it wrapped into a run of a fraction of a
    // second, a sub-millisecond wire or a sub-millisecond interval.
    let run = |option| {
        vec![
            "run",
            "--quick",
            "--jobs",
            "1",
            option,
            "18446744073710",
            "--out",
            out_dir,
            "fig2",
        ]
    };
    for (args, option, value) in [
        (
            vec!["scenario", "--duration", "18446744074"],
            "--duration",
            "18446744074",
        ),
        (
            vec!["scenario", "--duration", "1", "--wire", "18446744073710"],
            "--wire",
            "18446744073710",
        ),
        (
            run("--checkpoint-every"),
            "--checkpoint-every",
            "18446744073710",
        ),
        (run("--audit-every"), "--audit-every", "18446744073710"),
    ] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!(
                "{option}: `{value}` overflows the simulator's 64-bit nanosecond clock"
            )),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "{args:?} must not run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
