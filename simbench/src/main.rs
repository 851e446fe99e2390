//! Seeded end-to-end and per-layer benchmark of the greedy80211 simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload hotspot_udp --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The command generates the workload's pass of jobs from the seed, sets
//! up (generation plus one untimed warm-up job), then repeats whole
//! passes until `--seconds` have gone by. Job times are each job's
//! fastest over the passes (see [`exec::Tally::sim_rate`]). Every job's
//! exact counts are fingerprinted and checked (see [`check`]). With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced passes and prints the per-layer
//! metrics. The last line of standard output is one JSON object; the
//! exit code is 0 only when every output checked out.

mod check;
mod exec;
mod report;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use obs::profile::{self, SpanStat};

use check::{mac_index, pinned_digest, Checker};
use exec::{execute, Mode, Pool, Tally};
use report::{quantile, ratio, Metrics, END_TO_END, PER_LAYER};
use workload::{generate, warm_up, Job, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: simbench --workload <hotspot_udp|paper_sweep|world_cochannel> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 30.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse::<f64>().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err(format!("--seconds must be in (0, 3600], got {value}"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a run found.
struct Outcome {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = runner::available_jobs();
    let pool = Pool {
        workers: if args.workload.pooled() { nproc } else { 1 },
        world_jobs: 1,
    };
    println!(
        "simbench: workload {} seed {} seconds {} trace {} (available parallelism {nproc})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let (jobs, setup_s) = set_up(&args, started);
    let outcome = if args.trace {
        traced(&args, &jobs, pool, nproc)
    } else {
        untraced(&args, &jobs, pool, setup_s)
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    println!(
        "{:<26} {:>16.6} frac ({} of {} jobs)",
        "failed_frac",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks the reference pass digest: against the pinned one for the
/// default seed; otherwise it only has to exist (every job succeeded
/// once), since the checker already compared the repeats with it.
/// Returns `(correct, failed)`.
fn verdict(
    args: &Args,
    checker: &Checker,
    attempted: usize,
    failed: usize,
    passes: usize,
) -> (bool, usize) {
    let Some(digest) = checker.digest() else {
        println!("digest: none, a job never succeeded");
        return (false, failed.max(1));
    };
    if args.seed == DEFAULT_SEED {
        let pinned = pinned_digest(args.workload);
        let ok = digest == pinned;
        println!(
            "digest: {digest:#018x}, pinned {pinned:#018x}: {}",
            if ok { "match" } else { "MISMATCH" }
        );
        if !ok {
            return (false, attempted);
        }
    } else {
        println!("digest: {digest:#018x}, compared across {passes} passes");
    }
    (failed == 0, failed)
}

/// Set-up: generates the pass and runs the untimed warm-up job. Returns
/// the pass and the seconds since `since`.
fn set_up(args: &Args, since: Instant) -> (Vec<Job>, f64) {
    let jobs = generate(args.workload, args.seed);
    execute(&warm_up(args.workload, args.seed), 0, Mode::Facade, 1);
    (jobs, since.elapsed().as_secs_f64())
}

/// Runs whole passes until `--seconds` are up. The set-up is repeated
/// after every pass, so that no single slow spell sets `setup_s`: it is
/// the median of the cold set-up (`setup_s`, counted from process start)
/// and the warm repeats. It therefore measures warm, repeated set-up; a
/// cost paid only on the first call does not move it.
fn untraced(args: &Args, jobs: &[Job], pool: Pool, setup_s: f64) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut checker = Checker::new(jobs.len());
    let mut tally = Tally::default();
    let mut setups = vec![setup_s];
    while tally.passes == 0 || Instant::now() < deadline {
        tally.pass(jobs, pool, Mode::Facade, &mut checker);
        setups.push(set_up(args, Instant::now()).1);
    }
    let (p50, _) = quantile(&tally.best_ms, 0.5);
    let (p90, beyond) = quantile(&tally.best_ms, 0.9);
    println!(
        "job samples: {} jobs, each best of {} passes; {beyond} jobs beyond p90",
        tally.best_ms.len(),
        tally.passes
    );
    let mut m = Metrics::default();
    m.set("sim_rate", tally.sim_rate());
    m.set("job_ms_p50", p50);
    m.set("job_ms_p90", p90);
    m.set("setup_s", quantile(&setups, 0.5).0);
    m.set("peak_rss_mib", report::peak_rss_mib());
    let (correct, failed) = verdict(args, &checker, tally.attempted, tally.failed, tally.passes);
    Outcome {
        attempted: tally.attempted,
        failed,
        correct,
        metrics: m.finish(&END_TO_END),
    }
}

/// Alternates untraced and traced passes until `--seconds` are up; on
/// `world_cochannel` also passes whose worlds run on `nproc` lockstep
/// workers.
fn traced(args: &Args, jobs: &[Job], pool: Pool, nproc: usize) -> Outcome {
    let world = args.workload == Workload::WorldCochannel;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut checker = Checker::new(jobs.len());
    let mut plain = Tally::default();
    let mut wide = Tally::default();
    let mut traced = Tally::default();
    let mut spans: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    while traced.passes == 0 || Instant::now() < deadline {
        plain.pass(jobs, pool, Mode::Split, &mut checker);
        if world {
            let wide_pool = Pool {
                world_jobs: nproc,
                ..pool
            };
            wide.pass(jobs, wide_pool, Mode::Split, &mut checker);
        }
        profile::reset();
        profile::set_enabled(true);
        traced.pass(jobs, pool, Mode::Split, &mut checker);
        profile::set_enabled(false);
        for (label, stat) in profile::snapshot() {
            let sum = spans.entry(label).or_default();
            sum.calls += stat.calls;
            sum.nanos += stat.nanos;
        }
    }
    let passes = traced.passes as f64;
    let span = |label: &str| spans.get(label).copied().unwrap_or_default();
    let per_pass_s = |label: &str| span(label).secs() / passes;
    let net_span_s = per_pass_s("net/run");
    // `transport/tcp` is not subtracted: it runs partly inside
    // `phy/receive`, when a delivered segment drives the TCP sender.
    let self_s = net_span_s - per_pass_s("phy/receive") - per_pass_s("mac/timer");
    let totals = checker.pass_totals().unwrap_or_default();
    let mac = |name: &str| totals.mac[mac_index(name)] as f64;
    // The untraced passes' timer, so span bookkeeping is not counted. A
    // world never calls `BuiltScenario::run`; its cells' `net/run` spans
    // stand in.
    let net_run_s = if world {
        net_span_s
    } else {
        plain.run.as_secs_f64() / plain.passes as f64
    };
    let epochs = totals.epochs as f64;

    let mut m = Metrics::default();
    m.set("core.build_us_p50", quantile(&plain.build_us, 0.5).0);
    m.set("net.run_s", net_run_s);
    m.set("net.events", totals.events as f64);
    m.set(
        "net.ns_per_event",
        ratio(net_run_s * 1e9, totals.events as f64),
    );
    m.set("net.self_s", self_s);
    m.set("net.unattributed_frac", ratio(self_s, net_span_s));
    m.set("phy.receive_s", per_pass_s("phy/receive"));
    m.set(
        "phy.receive_calls",
        span("phy/receive").calls as f64 / passes,
    );
    m.set(
        "phy.ns_per_receive",
        ratio(
            span("phy/receive").nanos as f64,
            span("phy/receive").calls as f64,
        ),
    );
    m.set("mac.timer_s", per_pass_s("mac/timer"));
    m.set("mac.timer_calls", span("mac/timer").calls as f64 / passes);
    m.set("transport.tcp_s", per_pass_s("transport/tcp"));
    m.set(
        "transport.tcp_calls",
        span("transport/tcp").calls as f64 / passes,
    );
    m.set("mac.data_sent", mac("data_sent"));
    m.set("mac.retries", mac("short_retries") + mac("long_retries"));
    m.set("mac.collision_rx", mac("collision_rx"));
    m.set("mac.corrupted_rx", mac("corrupted_rx"));
    m.set("mac.delivered_msdus", mac("delivered_msdus"));
    m.set(
        "mac.delivery_ratio",
        ratio(mac("delivered_msdus"), mac("data_sent")),
    );
    m.set("transport.retransmissions", totals.retransmissions as f64);
    m.set("transport.timeouts", totals.timeouts as f64);
    m.set("grc.nav_detections", totals.nav_detections as f64);
    m.set("grc.spoof_flags", totals.spoof_flags as f64);
    m.set(
        "runner.busy_frac",
        ratio(
            plain.busy.as_secs_f64(),
            plain.wall.as_secs_f64() * pool.workers as f64,
        ),
    );
    m.set(
        "runner.tail_s",
        plain.tail.as_secs_f64() / plain.passes as f64,
    );
    m.set("world.epochs", epochs);
    m.set("world.us_per_epoch", ratio(plain.best_s() * 1e6, epochs));
    m.set(
        "runner.lockstep_speedup",
        if world {
            ratio(plain.best_s(), wide.best_s())
        } else {
            0.0
        },
    );
    m.set(
        "obs.trace_overhead_pct",
        (ratio(plain.sim_rate(), traced.sim_rate()) - 1.0) * 100.0,
    );
    println!(
        "sim_rate: untraced {:.3} s/s, traced {:.3} s/s, over {} rounds",
        plain.sim_rate(),
        traced.sim_rate(),
        traced.passes
    );

    let attempted = plain.attempted + wide.attempted + traced.attempted;
    let failed = plain.failed + wide.failed + traced.failed;
    let (correct, failed) = verdict(args, &checker, attempted, failed, traced.passes);
    Outcome {
        attempted,
        failed,
        correct,
        metrics: m.finish(&PER_LAYER),
    }
}
