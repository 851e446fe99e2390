//! Regenerates the paper's tables and figures, and runs custom scenarios.
//!
//! ```sh
//! repro run all                # every artifact at full fidelity
//! repro run fig1 tab2          # selected artifacts
//! repro run --quick all        # fast low-fidelity pass
//! repro run --jobs 8 all       # shard sweep points across 8 workers
//! repro run --out results all  # CSV output directory (default: results)
//! repro run --record fig6      # flight-record every run into results/obs/
//! repro fuzz 25 --seed 7       # randomized conformance fuzzing
//! repro world [--cells 3x3]    # multi-cell world campaign
//! repro cc                     # congestion-control zoo matrix
//! repro roc                    # detection science: ROC/AUC, adaptive
//!                              # thresholds, CUSUM/SPRT delays
//! repro intensity              # attack-intensity frontiers: sweep every
//!                              # misbehavior knob to its detector's knee
//! repro audit A.audit B.audit  # diff two audit ladders
//! repro --list                 # available experiment ids
//!
//! # Two TCP pairs, receiver 1 inflates CTS NAV by 10 ms, GRC on:
//! repro scenario --pairs 2 --greedy 1:nav:10000 --grc mitigate
//! # Shared AP, four UDP receivers, receiver 3 fakes ACKs, lossy channel:
//! repro scenario --shared-ap --pairs 4 --transport udp --ber 2e-4 \
//!                --greedy 3:fake --duration 20
//! ```
//!
//! The first argument picks the mode: a subcommand, `--list` or
//! `--help`; anything else prints the usage and exits non-zero. Every
//! option is checked against one table ([`OPTS`]) that names the
//! subcommands accepting it: an option outside its subcommand, or a
//! positional argument for a subcommand that takes none, is an error.
//! Zero-padded ids (`fig06`) are accepted anywhere an id is.
//!
//! Outputs are independent of `--jobs`: every simulation run draws from
//! an RNG stream keyed by `(experiment label, sweep point, seed index)`,
//! and sweep results are aggregated in submission order, so the CSVs are
//! byte-identical at any worker count. Alongside the CSVs the campaign
//! writes `bench_summary.json` with per-experiment wall-clock and
//! simulator event throughput.
//!
//! With `--record`, every simulation run additionally drains its flight
//! recorder into `DIR/obs/<experiment>-p<point>-s<seed>/` (JSONL events,
//! per-gauge probe CSVs, histogram summaries — see the `obs` crate), and
//! `bench_summary.json` gains a `profile` section with per-layer wall
//! time. Recording never touches the scheduler or any RNG stream, so the
//! CSVs are byte-identical with and without it, and the obs artifacts
//! themselves are byte-identical at any `--jobs` width.
//! `--record-filter phy,mac,3` narrows recording to the given layers
//! and/or node ids.
//!
//! Checkpoint & audit (see DESIGN.md §12):
//!
//! ```sh
//! repro run --quick --checkpoint-every 100 fig6   # checkpoint every 100 ms vt
//! repro run --quick --audit-every 100 fig6        # record audit ladders too
//! repro run --quick --resume results fig6         # resume a recorded campaign
//! repro run --resume results/checkpoints/RUN.snap # resume one checkpoint file
//! repro audit A.audit B.audit                     # diff two audit ladders
//! ```
//!
//! `--checkpoint-every N` freezes every run at each multiple of N ms of
//! virtual time into `DIR/checkpoints/<run>.snap`; `--audit-every N`
//! additionally records each run's per-layer state-hash ladder into
//! `DIR/audit/<run>.audit`. `--resume DIR` re-runs the selected
//! experiments, restoring each run from its recorded checkpoint and
//! simulating only the tail — the CSVs come out byte-identical to the
//! uninterrupted campaign's, at any `--jobs` width; with `--audit-every`
//! each resumed run writes its tail's rungs (those after its checkpoint)
//! into `DIR/audit/` of `--out`. `repro audit` exits
//! non-zero when the ladders diverge and names the first diverging layer
//! and virtual-time bracket.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use gr_bench::{fuzz, registry, ConformCampaign, ObsCampaign, Quality, RunCtx};
use greedy80211::{
    CampaignSpec, GreedyConfig, InflatedFrames, NavInflationConfig, RunOutcome, Scenario,
    TransportKind,
};
use net::{stats, JobContext};
use phy::PhyStandard;
use sim::{RunKey, SimDuration};

/// Why a subcommand ended early.
enum Stop {
    /// A failure, reported on stderr.
    Failed(String),
    /// Stdout was closed while `repro` wrote to it (a reader such as
    /// `head` quit early). Nobody is left to read a message, so `repro`
    /// ends quietly, with the status a shell reports for a process that
    /// `SIGPIPE` killed: the work did not finish.
    StdoutClosed,
}

impl Stop {
    fn stdout(e: std::io::Error) -> Stop {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => Stop::StdoutClosed,
            _ => Stop::Failed(format!("failed writing to stdout: {e}")),
        }
    }
}

impl From<String> for Stop {
    fn from(e: String) -> Stop {
        Stop::Failed(e)
    }
}

impl From<&str> for Stop {
    fn from(e: &str) -> Stop {
        Stop::Failed(e.into())
    }
}

/// `println!` returning a write failure as a [`Stop`], so a closed stdout
/// ends the subcommand instead of panicking.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(Stop::stdout)
    };
}

/// Per-experiment timing record for `bench_summary.json`.
struct Timing {
    id: String,
    wall_s: f64,
    events: u64,
    runs: u64,
}

fn write_summary(
    out_dir: &Path,
    jobs: usize,
    quick: bool,
    timings: &[Timing],
    total_s: f64,
    profile: Option<&[(&'static str, obs::profile::SpanStat)]>,
) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!(
        "  \"quality\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    s.push_str(&format!("  \"total_wall_s\": {total_s:.3},\n"));
    let total_events: u64 = timings.iter().map(|t| t.events).sum();
    s.push_str(&format!("  \"total_events\": {total_events},\n"));
    s.push_str(&format!(
        "  \"total_events_per_sec\": {:.0},\n",
        total_events as f64 / total_s.max(1e-9)
    ));
    s.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_s\": {:.3}, \"events\": {}, \"runs\": {}, \"events_per_sec\": {:.0}}}{}\n",
            t.id,
            t.wall_s,
            t.events,
            t.runs,
            t.events as f64 / t.wall_s.max(1e-9),
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    match profile {
        None => s.push_str("  ]\n}\n"),
        Some(spans) => {
            s.push_str("  ],\n  \"profile\": [\n");
            for (i, (label, stat)) in spans.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"span\": \"{label}\", \"calls\": {}, \"wall_s\": {:.3}}}{}\n",
                    stat.calls,
                    stat.secs(),
                    if i + 1 < spans.len() { "," } else { "" }
                ));
            }
            s.push_str("  ]\n}\n");
        }
    }
    std::fs::write(out_dir.join("bench_summary.json"), s)
}

/// Canonicalizes a user-supplied experiment id: registry ids carry no
/// zero padding, so `fig06` and `tab02` resolve to `fig6` and `tab2`.
fn normalize_id(id: &str) -> String {
    match id.find(|c: char| c.is_ascii_digit()) {
        Some(i) => {
            let (prefix, digits) = id.split_at(i);
            match digits.parse::<u64>() {
                Ok(n) => format!("{prefix}{n}"),
                Err(_) => id.to_string(),
            }
        }
        None => id.to_string(),
    }
}

/// Exports every report a recording campaign has accumulated so far into
/// `out_dir/obs/<run-key>/`, in deterministic run-key order.
fn export_obs(out_dir: &Path, campaign: &ObsCampaign) -> std::io::Result<usize> {
    let _span = obs::span!("obs/export");
    let reports = campaign.take_reports();
    let n = reports.len();
    for (key, report) in &reports {
        let dir = out_dir.join("obs").join(obs::run_dir_name(key));
        obs::write_artifacts(&dir, key, report)?;
    }
    Ok(n)
}

/// Parses a grid spec like `3x3` into positive `(rows, cols)`.
fn parse_grid(spec: &str) -> Option<(usize, usize)> {
    let (r, c) = spec.split_once('x')?;
    let (r, c) = (r.trim().parse().ok()?, c.trim().parse().ok()?);
    (r > 0 && c > 0).then_some((r, c))
}

/// One command-line option: its spellings (canonical first), whether it
/// takes a value, and the subcommands that accept it.
struct Opt {
    names: &'static [&'static str],
    value: bool,
    modes: &'static [&'static str],
}

const fn opt(names: &'static [&'static str], value: bool, modes: &'static [&'static str]) -> Opt {
    Opt {
        names,
        value,
        modes,
    }
}

const ALL: &[&str] = &[
    "run",
    "fuzz",
    "world",
    "cc",
    "roc",
    "intensity",
    "audit",
    "scenario",
];
const CAMPAIGNS: &[&str] = &["run", "world", "cc", "roc", "intensity"];
const WRITERS: &[&str] = &["run", "fuzz", "world", "cc", "roc", "intensity"];
const HOOKED: &[&str] = &["run", "intensity"];
const CHECKED: &[&str] = &["run", "world"];
const SCENARIO: &[&str] = &["scenario"];

/// Every option `repro` knows. Values are read back through [`Args`].
const OPTS: &[Opt] = &[
    opt(&["--help", "-h"], false, ALL),
    opt(&["--quick", "-q"], false, CAMPAIGNS),
    opt(&["--jobs", "-j"], true, CAMPAIGNS),
    opt(&["--seeds"], true, CAMPAIGNS),
    opt(&["--out", "-o"], true, WRITERS),
    opt(&["--experiment", "-e"], true, &["run"]),
    opt(&["--record"], false, &["run"]),
    opt(&["--record-filter"], true, &["run"]),
    opt(&["--checkpoint-every"], true, HOOKED),
    opt(&["--audit-every"], true, HOOKED),
    opt(&["--resume"], true, HOOKED),
    opt(&["--conform"], false, CHECKED),
    opt(&["--conform-no-whitelist"], false, CHECKED),
    opt(&["--points"], true, &["intensity"]),
    opt(&["--cells"], true, &["world"]),
    opt(&["--seed"], true, &["fuzz", "scenario"]),
    opt(&["--phy"], true, SCENARIO),
    opt(&["--transport"], true, SCENARIO),
    opt(&["--pairs"], true, SCENARIO),
    opt(&["--shared-ap"], false, SCENARIO),
    opt(&["--no-rts"], false, SCENARIO),
    opt(&["--ber"], true, SCENARIO),
    opt(&["--duration"], true, SCENARIO),
    opt(&["--wire"], true, SCENARIO),
    opt(&["--greedy"], true, SCENARIO),
    opt(&["--grc"], true, SCENARIO),
    opt(&["--probes"], false, SCENARIO),
];

/// Subcommands that take positional arguments: experiment ids for `run`,
/// the case count for `fuzz`, the two ladder files for `audit`.
const POSITIONAL: &[&str] = &["run", "fuzz", "audit"];

/// A subcommand's arguments, checked against [`OPTS`]: the options in
/// command-line order under their canonical spelling, and the
/// positional arguments.
struct Args {
    opts: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(mode: &str, mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            opts: Vec::new(),
            positionals: Vec::new(),
        };
        while let Some(arg) = argv.next() {
            if !arg.starts_with('-') {
                if !POSITIONAL.contains(&mode) {
                    return Err(format!("`repro {mode}` takes no argument `{arg}`"));
                }
                args.positionals.push(arg);
                continue;
            }
            let opt = OPTS
                .iter()
                .find(|o| o.names.contains(&arg.as_str()))
                .ok_or_else(|| format!("unknown option `{arg}` (see --help)"))?;
            if !opt.modes.contains(&mode) {
                return Err(format!("option `{arg}` is not accepted by `repro {mode}`"));
            }
            let value = opt
                .value
                .then(|| argv.next().ok_or_else(|| format!("{arg} requires a value")))
                .transpose()?;
            args.opts.push((opt.names[0], value));
        }
        Ok(args)
    }

    /// Whether the option was given.
    fn has(&self, name: &str) -> bool {
        self.opts.iter().any(|(n, _)| *n == name)
    }

    /// Every value given for the option, in command-line order.
    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.opts
            .iter()
            .filter(move |(n, _)| *n == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// The option's last value, parsed by `parse`.
    fn get_with<T>(
        &self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.values(name)
            .last()
            .map(|v| parse(v).map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// The option's last value, parsed with [`FromStr`].
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get_with(name, number)
    }

    /// The option's last value, a count parsed by `count`, as that many
    /// `unit`s of virtual time. A count whose nanoseconds overflow the
    /// simulator's 64-bit clock is an error, not a wrapped (and much
    /// shorter) duration.
    fn time(
        &self,
        name: &str,
        unit: SimDuration,
        count: impl Fn(&str) -> Result<u64, String>,
    ) -> Result<Option<SimDuration>, String> {
        self.get_with(name, |v| {
            count(v)?
                .checked_mul(unit.as_nanos())
                .map(SimDuration::from_nanos)
                .ok_or_else(|| format!("`{v}` overflows the simulator's 64-bit nanosecond clock"))
        })
    }

    /// `--out`, defaulting to `results`.
    fn out_dir(&self) -> Result<PathBuf, String> {
        Ok(self
            .get("--out")?
            .unwrap_or_else(|| PathBuf::from("results")))
    }

    /// `--jobs`, defaulting to the machine's parallelism.
    fn jobs(&self) -> Result<usize, String> {
        Ok(self
            .get_with("--jobs", positive)?
            .unwrap_or_else(runner::available_jobs))
    }

    /// Fidelity selected by `--quick`, with the seed list overridden by
    /// `--seeds N` (seeds 1..=N) when given.
    fn quality(&self) -> Result<Quality, String> {
        let mut q = if self.has("--quick") {
            Quality::quick()
        } else {
            Quality::full()
        };
        if let Some(n) = self.get_with("--seeds", positive::<u64>)? {
            if n > Quality::MAX_SEEDS {
                return Err(format!(
                    "--seeds: at most {} seeds, got {n}",
                    Quality::MAX_SEEDS
                ));
            }
            q.seeds = (1..=n).collect();
        }
        Ok(q)
    }

    /// Whether `--conform` or `--conform-no-whitelist` arms the checker.
    fn conform(&self) -> bool {
        self.has("--conform") || self.has("--conform-no-whitelist")
    }

    /// Applies `--resume DIR`, or `--checkpoint-every`/`--audit-every`
    /// recording under `dir`, to `ctx`; a resumed campaign writes its
    /// `--audit-every` ladders under `dir`. Returns the banner suffix. A
    /// `--resume` path that does not exist is an error; an existing
    /// directory without a checkpoint for some run reruns that run.
    fn hooks(&self, ctx: RunCtx, dir: &Path) -> Result<(RunCtx, &'static str), String> {
        let every = |name| self.time(name, SimDuration::from_millis(1), positive);
        let (ckpt, audit) = (every("--checkpoint-every")?, every("--audit-every")?);
        Ok(if let Some(from) = self.get::<PathBuf>("--resume")? {
            if !from.exists() {
                return Err(format!("--resume: {} does not exist", from.display()));
            }
            (
                ctx.with_checkpoints(CampaignSpec::resume_from(from, dir, audit)),
                ", resuming from checkpoints",
            )
        } else if ckpt.is_some() || audit.is_some() {
            (
                ctx.with_checkpoints(CampaignSpec::record(dir, ckpt, audit)),
                ", checkpointing",
            )
        } else {
            (ctx, "")
        })
    }
}

/// Parses a number.
fn number<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid value `{v}`"))
}

/// Parses a strictly positive number.
fn positive<T: FromStr + PartialOrd + Default>(v: &str) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| format!("expected a positive integer, got `{v}`"))
}

fn create_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("failed to create output directory {}: {e}", dir.display()))
}

/// Prints every violation in `reports`, or one clean line; returns the
/// violation count. `unit` names what one report covers.
fn print_conform(
    reports: &[(Option<RunKey>, conform::ConformReport)],
    unit: &str,
) -> Result<u64, Stop> {
    let violations: u64 = reports.iter().map(|(_, r)| r.violation_count()).sum();
    if violations == 0 {
        let whitelisted: u64 = reports.iter().map(|(_, r)| r.whitelisted).sum();
        say!(
            "  conform: {} {unit}(s) clean ({whitelisted} whitelist exemption(s))",
            reports.len()
        )?;
        return Ok(0);
    }
    say!(
        "  conform: {violations} violation(s) across {} {unit}(s):",
        reports.len()
    )?;
    for (key, report) in reports {
        for v in &report.violations {
            match key {
                Some(k) => say!("    [{} p{} s{}] {v}", k.experiment, k.point, k.seed)?,
                None => say!("    {v}")?,
            }
        }
    }
    Ok(violations)
}

/// Prints a run's per-receiver goodput, then its GRC verdicts and probe
/// losses when the run had them.
fn print_outcome(out: &RunOutcome) -> Result<(), Stop> {
    for i in 0..out.flows.len() {
        say!("  R{i:<3} {:>8.3} Mb/s", out.goodput_mbps(i))?;
    }
    if !out.grc.is_empty() {
        say!(
            "GRC: {} NAV detections, {} spoofed-ACK flags",
            out.nav_detections(),
            out.spoof_flags()
        )?;
    }
    for (i, pf) in out.probe_flows.iter().enumerate() {
        if let Some(loss) = out.metrics.flow(*pf).and_then(|f| f.probe_app_loss) {
            say!("probe loss R{i}: {loss:.3}")?;
        }
    }
    Ok(())
}

const USAGE: &str = "\
usage: repro run [--quick] [--jobs N] [--seeds N] [--out DIR] [--record] [--record-filter SPEC]
                 [--checkpoint-every MS] [--audit-every MS] [--resume PATH]
                 [--conform | --conform-no-whitelist] (all | <id>... | --experiment IDS)
       repro fuzz N [--seed K] [--out DIR]
       repro world [--quick] [--jobs N] [--seeds N] [--out DIR] [--cells RxC]
                   [--conform | --conform-no-whitelist]
       repro cc [--quick] [--jobs N] [--seeds N] [--out DIR]
       repro roc [--quick] [--jobs N] [--seeds N] [--out DIR]
       repro intensity [--quick] [--jobs N] [--seeds N] [--out DIR] [--points N]
                       [--checkpoint-every MS] [--audit-every MS] [--resume DIR]
       repro scenario [--phy 11b|11a] [--transport udp|tcp] [--pairs N] [--shared-ap]
                      [--no-rts] [--ber RATE] [--duration SECS] [--seed N] [--wire MS]
                      [--greedy I:KIND[:ARG]]... [--grc detect|mitigate] [--probes]
       repro audit A.audit B.audit
       repro --list

Each subcommand accepts only the options on its line.

  --experiment IDS      select artifacts: one id or a comma-separated list
                        (same as positional ids; zero-padded forms accepted)
  --record              flight-record every run into DIR/obs/
  --record-filter SPEC  comma-separated layers (phy|mac|transport|net)
                        and/or node ids; implies --record
  --checkpoint-every MS freeze every run at each MS of virtual time
                        into DIR/checkpoints/
  --audit-every MS      record per-layer state-hash ladders into DIR/audit/
                        (with --resume, each resumed run's tail)
  --resume PATH         a campaign directory: resume every selected run from
                        its checkpoint (CSVs byte-identical to an uninterrupted
                        campaign); a .snap file: resume that one run and print it
  --conform             live 802.11 invariant checking on every run; non-zero
                        exit on any violation (also applies to --resume FILE)
  --conform-no-whitelist  same, but declared greedy quirks no longer exempt
                        their rules (greedy scenarios are expected to fail)
  --seeds N             override the seed list with 1..=N, N <= 10000 (default:
                        1 seed with --quick, 5 at full fidelity)

  fuzz N                run N randomized scenarios under the checker; shrink
                        violations to a 10 ms bracket in DIR/conform/;
                        --seed K sets the campaign seed (default 1); same N
                        and K give identical verdicts and byte-identical artifacts
  world                 multi-cell world campaign: sweep greedy density ×
                        grid size, per-cell CSVs into DIR/world-RxC-gK.csv;
                        --cells RxC restricts it to one grid size
  cc                    congestion-control zoo: sweep {newreno,cubic,bbr,
                        newreno+hystart} x {honest,nav,spoof,fake} into
                        DIR/cc_matrix.csv and DIR/cc-<controller>.csv
  roc                   detection science: per-detector ROC frontiers and AUC,
                        load-adaptive threshold validation, CUSUM/SPRT detection
                        delays — CSVs into DIR/roc/
  intensity             attack-intensity frontiers: honest/attacked pairs per
                        (detector, mix, intensity), knees and the windowed-vs-
                        sequential crossover — CSVs into DIR/intensity/;
                        --points N thins the grid to N points, keeping both ends
  scenario              simulate one hotspot and print per-receiver goodput:
    --phy 11b|11a         PHY standard (default 11b)
    --transport udp|tcp   transport for all flows (default tcp)
    --pairs N             sender/receiver pairs (default 2)
    --shared-ap           one AP serves all receivers
    --no-rts              disable RTS/CTS
    --ber RATE            per-byte error rate (default 0)
    --duration SECS       virtual seconds (default 10)
    --seed N              random seed (default 1)
    --wire MS             wired latency behind senders (remote TCP)
    --greedy I:KIND[:ARG] make receiver I greedy, repeatable; kinds:
                          nav[:INFLATE_US[:GP%]], spoof[:GP%], fake[:GP%]
    --grc detect|mitigate arm GRC on honest nodes
    --probes              add ping probes per pair (fake-ACK detector)
  audit A B             diff two audit ladders; non-zero exit on divergence";

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::StdoutClosed) => ExitCode::from(128 + 13),
        Err(Stop::Failed(e)) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(mut argv: impl Iterator<Item = String>) -> Result<(), Stop> {
    let mode = argv.next().unwrap_or_default();
    let subcommand: fn(&Args) -> Result<(), Stop> = match mode.as_str() {
        "--list" | "-l" => {
            for (id, _) in &registry() {
                say!("{id}")?;
            }
            return Ok(());
        }
        "--help" | "-h" => {
            say!("{USAGE}")?;
            return Ok(());
        }
        "run" => run_experiments,
        "fuzz" => fuzz_cases,
        "world" => world,
        "cc" => cc,
        "roc" => roc,
        "intensity" => intensity,
        "audit" => audit,
        "scenario" => scenario,
        _ => return Err(format!("expected a subcommand\n\n{USAGE}").into()),
    };
    let args = Args::parse(&mode, argv)?;
    if args.has("--help") {
        say!("{USAGE}")?;
        return Ok(());
    }
    subcommand(&args)
}

fn audit(args: &Args) -> Result<(), Stop> {
    let [a, b] = args.positionals.as_slice() else {
        return Err("usage: repro audit A.audit B.audit".into());
    };
    let divergence = greedy80211::audit::compare_files(Path::new(a), Path::new(b))
        .map_err(|e| format!("audit: {e}"))?;
    say!("{}", greedy80211::audit::describe(&divergence))?;
    match divergence {
        None => Ok(()),
        Some(_) => Err("audit ladders diverge".into()),
    }
}

/// Fuzz mode: generate + run + shrink, independent of the experiment
/// registry.
fn fuzz_cases(args: &Args) -> Result<(), Stop> {
    let n = match args.positionals.as_slice() {
        [n] => n.parse::<u64>().ok(),
        _ => None,
    }
    .ok_or("usage: repro fuzz N [--seed K] [--out DIR]")?;
    let seed: u64 = args.get("--seed")?.unwrap_or(1);
    let out_dir = args.out_dir()?;
    create_dir(&out_dir)?;
    say!("# conformance fuzz — {n} case(s), campaign seed {seed}\n")?;
    let mut dirty = 0u64;
    for i in 0..n {
        let case = fuzz::generate_case(seed, i);
        let desc = case.desc.clone();
        let v = fuzz::run_case(case, &out_dir).map_err(|e| format!("case {i}: {e}"))?;
        if v.is_clean() {
            say!(
                "  case {i:>3} ok    {desc}  ({} events, {} whitelisted)",
                v.events_checked,
                v.whitelisted
            )?;
            continue;
        }
        dirty += 1;
        say!("  case {i:>3} FAIL  {desc}")?;
        say!(
            "        {} violation(s); first: {}",
            v.violations.len(),
            v.violations[0]
        )?;
        if let Some((lo, hi)) = v.bracket_ms {
            say!(
                "        shrunk to [{lo}, {hi}) ms of virtual time, layer `{}`",
                v.layer.unwrap_or("?")
            )?;
        }
        if let Some((ilo, ihi)) = v.intensity_bracket {
            if ihi == 0.0 {
                say!(
                    "        violates even with the attack scaled to zero \
                     (attack-independent)"
                )?;
            } else {
                say!(
                    "        minimal violating intensity in ({ilo:.4}, {ihi:.4}] \
                     of the case's attack strength"
                )?;
            }
        }
        match &v.artifact {
            Some(p) => say!(
                "        repro: repro run --conform --resume {}",
                p.display()
            )?,
            None => say!(
                "        repro: repro fuzz {} --seed {seed}  \
                 (case {i}; violation inside the first bracket)",
                i + 1
            )?,
        }
    }
    say!("\n{dirty} of {n} case(s) violated an invariant")?;
    if dirty == 0 {
        Ok(())
    } else {
        Err(format!("{dirty} fuzz case(s) violated an invariant").into())
    }
}

/// Resumes one checkpoint file and prints the run. With `--conform` the
/// checker rides along mid-stream (stream-dependent rules disarmed,
/// protocol-timing rules live) — how a fuzz violation artifact is
/// replayed.
fn resume_file(path: &Path, args: &Args) -> Result<(), Stop> {
    let job = args.conform().then(|| {
        let j = ::conform::ConformJob::new();
        if args.has("--conform-no-whitelist") {
            j.without_whitelist()
        } else {
            j
        }
    });
    let out = {
        let _job = JobContext {
            conform: job.clone(),
            ..JobContext::default()
        }
        .install();
        greedy80211::Run::resume(path)
    }
    .map_err(|e| format!("--resume: {e}"))?;
    say!(
        "resumed {} (point {}, seed {}) to {} ms of virtual time",
        out.key.experiment,
        out.key.point,
        out.key.seed,
        out.duration.as_nanos() / 1_000_000
    )?;
    print_outcome(&out)?;
    match job {
        Some(job) if print_conform(&job.drain(), "run")? > 0 => {
            Err("invariant violations found; see the conform lines above".into())
        }
        _ => Ok(()),
    }
}

fn cc(args: &Args) -> Result<(), Stop> {
    let (jobs, out_dir) = (args.jobs()?, args.out_dir()?);
    let campaign = gr_bench::CcCampaign::new(args.quality()?, jobs);
    say!(
        "# congestion-control zoo — {} controller(s) × {} attack(s), {} job(s)\n",
        campaign.ccs.len(),
        gr_bench::cc::ATTACKS.len(),
        jobs,
    )?;
    let t = Instant::now();
    let report = campaign.run(&out_dir).map_err(|e| format!("cc: {e}"))?;
    say!("{}", report.matrix.render().trim_end_matches('\n'))?;
    for path in &report.controller_csvs {
        say!("  -> {}", path.display())?;
    }
    say!(
        "  -> {} ({:.1}s)",
        out_dir.join("cc_matrix.csv").display(),
        t.elapsed().as_secs_f64()
    )?;
    Ok(())
}

fn intensity(args: &Args) -> Result<(), Stop> {
    let (jobs, quality) = (args.jobs()?, args.quality()?);
    let mut campaign = gr_bench::IntensityCampaign::new(quality.clone(), jobs);
    if let Some(n) = args.get_with("--points", positive)? {
        campaign = campaign.with_points(n);
    }
    let int_dir = args.out_dir()?.join("intensity");
    let (ctx, hooks) = args.hooks(RunCtx::with_jobs(quality, jobs), &int_dir)?;
    say!(
        "# attack-intensity frontiers — {} detector cell(s) × {} intensities × 2 classes, {} job(s){hooks}\n",
        gr_bench::roc::CELLS.len(),
        campaign.grid.len(),
        jobs,
    )?;
    let t = Instant::now();
    let report = campaign
        .run_with(&ctx, &int_dir)
        .map_err(|e| format!("intensity: {e}"))?;
    for table in &report.frontiers {
        say!("{}", table.render().trim_end_matches('\n'))?;
    }
    say!("{}", report.knees.render().trim_end_matches('\n'))?;
    for cf in &report.cells {
        match cf.knee {
            Some(k) => say!(
                "  {}/{}: minimal detectable intensity {k:.2}{}",
                cf.cell.detector,
                cf.cell.mix,
                match cf.crossover {
                    Some((lo, hi)) => format!(", sequential-only regime [{lo:.2}, {hi:.2}]"),
                    None => String::new(),
                },
            )?,
            None => say!(
                "  {}/{}: never reliably detectable on this grid",
                cf.cell.detector,
                cf.cell.mix
            )?,
        }
    }
    for path in &report.csvs {
        say!("  -> {}", path.display())?;
    }
    say!("  ({:.1}s)", t.elapsed().as_secs_f64())?;
    Ok(())
}

fn roc(args: &Args) -> Result<(), Stop> {
    let jobs = args.jobs()?;
    let campaign = gr_bench::RocCampaign::new(args.quality()?, jobs);
    say!(
        "# detection science — {} detector cell(s) × {} adaptive load(s), {} job(s)\n",
        gr_bench::roc::CELLS.len(),
        gr_bench::roc::ADAPTIVE_LOADS_BPS.len(),
        jobs,
    )?;
    let t = Instant::now();
    let roc_dir = args.out_dir()?.join("roc");
    let report = campaign.run(&roc_dir).map_err(|e| format!("roc: {e}"))?;
    say!("{}", report.auc.render().trim_end_matches('\n'))?;
    say!("{}", report.adaptive.render().trim_end_matches('\n'))?;
    say!("{}", report.delays.render().trim_end_matches('\n'))?;
    for path in &report.roc_csvs {
        say!("  -> {}", path.display())?;
    }
    say!("  -> {}", report.obs_dir.display())?;
    say!(
        "  -> {} ({:.1}s)",
        roc_dir.join("auc_summary.csv").display(),
        t.elapsed().as_secs_f64()
    )?;
    Ok(())
}

fn world(args: &Args) -> Result<(), Stop> {
    let (jobs, out_dir) = (args.jobs()?, args.out_dir()?);
    let mut campaign = gr_bench::WorldCampaign::new(args.quality()?, jobs);
    let grid = args.get_with("--cells", |v| {
        parse_grid(v).ok_or_else(|| format!("expected a grid like 3x3, got `{v}`"))
    })?;
    if let Some((r, c)) = grid {
        campaign = campaign.with_grid(r, c);
    }
    campaign.conform = args.conform();
    campaign.honor_whitelist = !args.has("--conform-no-whitelist");
    say!(
        "# multi-cell world campaign — {} grid(s) × {} greedy densities, {} job(s){}\n",
        campaign.grids.len(),
        campaign.greedy_fracs.len(),
        jobs,
        if campaign.conform {
            ", conformance-checked"
        } else {
            ""
        },
    )?;
    let t = Instant::now();
    let report = campaign.run(&out_dir).map_err(|e| format!("world: {e}"))?;
    say!("{}", report.summary.render().trim_end_matches('\n'))?;
    report
        .summary
        .write_csv(&out_dir)
        .map_err(|e| format!("failed to write world.csv: {e}"))?;
    for path in &report.cell_csvs {
        say!("  -> {}", path.display())?;
    }
    say!(
        "  -> {} ({:.1}s)",
        out_dir.join("world.csv").display(),
        t.elapsed().as_secs_f64()
    )?;
    if campaign.conform && print_conform(&report.conform_reports, "cell")? > 0 {
        return Err("invariant violations found; see the conform lines above".into());
    }
    Ok(())
}

/// Parses a `--greedy I:KIND[:ARG]` spec. Spoofing victims are left for
/// the caller to resolve.
fn parse_greedy(spec: &str) -> Result<(usize, GreedyConfig), String> {
    let mut parts = spec.split(':');
    let idx = parts
        .next()
        .and_then(|i| i.parse().ok())
        .ok_or_else(|| format!("bad receiver index in `{spec}`"))?;
    let kind = parts
        .next()
        .ok_or("missing misbehavior kind (nav|spoof|fake)")?;
    let rest: Vec<&str> = parts.collect();
    let gp = |i: usize| match rest.get(i) {
        None => Ok(1.0),
        Some(v) => v
            .trim_end_matches('%')
            .parse::<f64>()
            .map(|x| x / 100.0)
            .map_err(|_| format!("bad greedy percentage `{v}`")),
    };
    let cfg = match kind {
        "nav" => GreedyConfig::nav_inflation(NavInflationConfig {
            inflate_us: match rest.first() {
                None => 10_000,
                Some(v) => v.parse().map_err(|_| format!("bad inflation `{v}`"))?,
            },
            gp: gp(1)?,
            frames: InflatedFrames::CTS,
        }),
        "spoof" => GreedyConfig::ack_spoofing(Vec::new(), gp(0)?),
        "fake" => GreedyConfig::fake_acks(gp(0)?),
        other => return Err(format!("unknown misbehavior `{other}`")),
    };
    Ok((idx, cfg))
}

/// Runs one custom hotspot scenario and prints its outcome.
fn scenario(args: &Args) -> Result<(), Stop> {
    let mut s = Scenario::default();
    let phy = args.get_with("--phy", |v| match v {
        "11b" | "b" => Ok(PhyStandard::Dot11b),
        "11a" | "a" => Ok(PhyStandard::Dot11a),
        other => Err(format!("unknown PHY `{other}`")),
    })?;
    s.phy = phy.unwrap_or(s.phy);
    let udp = args.get_with("--transport", |v| match v {
        "udp" => Ok(true),
        "tcp" => Ok(false),
        other => Err(format!("unknown transport `{other}`")),
    })?;
    if udp == Some(true) {
        s.transport = TransportKind::SATURATING_UDP;
    }
    s.pairs = args.get("--pairs")?.unwrap_or(s.pairs);
    s.shared_sender = args.has("--shared-ap");
    s.rts = !args.has("--no-rts");
    s.byte_error_rate = args.get("--ber")?.unwrap_or(s.byte_error_rate);
    if let Some(duration) = args.time("--duration", SimDuration::from_secs(1), number)? {
        s.duration = duration;
    }
    s.seed = args.get("--seed")?.unwrap_or(s.seed);
    s.wire_delay = args.time("--wire", SimDuration::from_millis(1), number)?;
    s.grc = args.get_with("--grc", |v| match v {
        "detect" => Ok(false),
        "mitigate" => Ok(true),
        other => Err(format!("expected detect|mitigate, got `{other}`")),
    })?;
    s.probes = args.has("--probes");
    // Spoofers target every other receiver; a probe build resolves the
    // receivers' node ids, as the fuzzer's case generator does.
    let receivers = s.build().map_err(|e| e.to_string())?.receivers;
    for spec in args.values("--greedy") {
        let (idx, mut cfg) = parse_greedy(spec).map_err(|e| format!("--greedy: {e}"))?;
        if let Some(spoof) = &mut cfg.spoof {
            spoof.victims = receivers
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != idx)
                .map(|(_, &r)| r)
                .collect();
        }
        s.greedy.push((idx, cfg));
    }
    let out = greedy80211::Run::plan(&s)
        .execute()
        .map_err(|e| e.to_string())?;
    let greedy: Vec<String> = s.greedy.iter().map(|(i, _)| format!("R{i}")).collect();
    say!(
        "# {} pairs, {:?}, {}s, seed {}{}",
        s.pairs,
        s.phy,
        s.duration.as_secs_f64(),
        s.seed,
        if greedy.is_empty() {
            String::new()
        } else {
            format!(", greedy {}", greedy.join(" "))
        }
    )?;
    print_outcome(&out)
}

/// Runs the selected registry experiments and writes their CSVs.
fn run_experiments(args: &Args) -> Result<(), Stop> {
    // A .snap file resumes one run directly; a directory switches the
    // whole campaign into resume mode (handled below via RunCtx).
    if let Some(path) = args.get::<PathBuf>("--resume")?.filter(|p| p.is_file()) {
        return resume_file(&path, args);
    }
    let ids: Vec<&str> = args
        .values("--experiment")
        .flat_map(|list| list.split(','))
        .chain(args.positionals.iter().map(String::as_str))
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if ids.is_empty() {
        return Err("no experiments selected; try `repro run all` or `repro --list`".into());
    }
    let reg = registry();
    let selected: Vec<&(&str, gr_bench::Generator)> = if ids.contains(&"all") {
        reg.iter().collect()
    } else {
        ids.iter()
            .map(|id| {
                let canonical = normalize_id(id);
                reg.iter()
                    .find(|(rid, _)| *rid == canonical)
                    .ok_or_else(|| {
                        let valid: Vec<&str> = reg.iter().map(|(rid, _)| *rid).collect();
                        format!(
                            "unknown experiment id `{id}`; valid ids: all, {}",
                            valid.join(", ")
                        )
                    })
            })
            .collect::<Result<_, _>>()?
    };

    let (quick, jobs, out_dir) = (args.has("--quick"), args.jobs()?, args.out_dir()?);
    let filter = args.get_with("--record-filter", obs::Filter::parse)?;
    let record = args.has("--record") || filter.is_some();
    let campaign = record.then(|| {
        obs::profile::reset();
        obs::profile::set_enabled(true);
        ObsCampaign::new(obs::ObsSpec {
            filter: filter.unwrap_or_default(),
            ..obs::ObsSpec::default()
        })
    });
    let mut ctx = RunCtx::with_jobs(args.quality()?, jobs);
    if let Some(camp) = &campaign {
        ctx = ctx.with_record(camp.clone());
    }
    let conform_camp = args.conform().then(|| {
        let c = ConformCampaign::new();
        if args.has("--conform-no-whitelist") {
            c.without_whitelist()
        } else {
            c
        }
    });
    if let Some(c) = &conform_camp {
        ctx = ctx.with_conform(c.clone());
    }
    let (ctx, hooks) = args.hooks(ctx, &out_dir)?;
    create_dir(&out_dir)?;
    say!(
        "# greedy80211 reproduction — {} experiment(s), {} fidelity, {} job(s){}{}{hooks}\n",
        selected.len(),
        if quick { "quick" } else { "full" },
        jobs,
        if record { ", recording" } else { "" },
        if conform_camp.is_some() {
            ", conformance-checked"
        } else {
            ""
        },
    )?;
    let t_all = Instant::now();
    let mut timings = Vec::new();
    let mut conform_failed = false;
    for (id, gen) in selected {
        let t = Instant::now();
        let before = stats::snapshot();
        let experiment = gen(&ctx);
        let used = stats::snapshot().since(before);
        let wall_s = t.elapsed().as_secs_f64();
        say!("{}", experiment.render().trim_end_matches('\n'))?;
        experiment
            .write_csv(&out_dir)
            .map_err(|e| format!("failed to write CSV for {id}: {e}"))?;
        say!(
            "  -> {} ({:.1}s, {:.0} events/s)\n",
            out_dir.join(format!("{id}.csv")).display(),
            wall_s,
            used.events_processed as f64 / wall_s.max(1e-9),
        )?;
        if let Some(camp) = &campaign {
            let n = export_obs(&out_dir, camp)
                .map_err(|e| format!("failed to write obs artifacts for {id}: {e}"))?;
            if n > 0 {
                say!("  -> {} ({n} run(s))\n", out_dir.join("obs").display())?;
            }
        }
        if let Some(camp) = &conform_camp {
            conform_failed |= print_conform(&camp.take_reports(), "run")? > 0;
            say!()?;
        }
        timings.push(Timing {
            id: id.to_string(),
            wall_s,
            events: used.events_processed,
            runs: used.runs_completed,
        });
    }
    let total_s = t_all.elapsed().as_secs_f64();
    say!("total: {total_s:.1}s")?;
    let profile = campaign.as_ref().map(|_| obs::profile::snapshot());
    write_summary(&out_dir, jobs, quick, &timings, total_s, profile.as_deref())
        .map_err(|e| format!("failed to write bench_summary.json: {e}"))?;
    say!("  -> {}", out_dir.join("bench_summary.json").display())?;
    if conform_failed {
        return Err("invariant violations found; see the conform lines above".into());
    }
    Ok(())
}
