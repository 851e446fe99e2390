//! Regenerates the paper's tables and figures.
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
//! ```
//!
//! The first argument picks the mode: a subcommand, `--list` or
//! `--help`; anything else prints the usage and exits non-zero.
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
//! uninterrupted campaign's, at any `--jobs` width. `repro audit` exits
//! non-zero when the ladders diverge and names the first diverging layer
//! and virtual-time bracket.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gr_bench::{fuzz, registry, ConformCampaign, ObsCampaign, Quality, RunCtx};
use net::stats;

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

/// Fidelity selected by `--quick`, with the seed list overridden by
/// `--seeds N` (seeds 1..=N) when given.
fn quality_for(quick: bool, seeds_override: Option<u64>) -> Quality {
    let mut q = if quick {
        Quality::quick()
    } else {
        Quality::full()
    };
    if let Some(n) = seeds_override {
        q.seeds = (1..=n).collect();
    }
    q
}

/// Parses a grid spec like `3x3` into positive `(rows, cols)`.
fn parse_grid(spec: &str) -> Option<(usize, usize)> {
    let (r, c) = spec.split_once('x')?;
    let (r, c) = (r.trim().parse().ok()?, c.trim().parse().ok()?);
    (r > 0 && c > 0).then_some((r, c))
}

/// The mode a subcommand selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Fuzz,
    World,
    Cc,
    Roc,
    Intensity,
    Audit,
}

const USAGE: &str = "\
usage: repro run [--quick] [--jobs N] [--out DIR] [--record] [--record-filter SPEC]
                 [--checkpoint-every MS] [--audit-every MS] [--resume PATH] (all | <id>...)
       repro fuzz N [--seed K]
       repro world [--cells RxC]
       repro cc
       repro roc
       repro intensity [--points N]
       repro audit A.audit B.audit
       repro --list

  --experiment IDS      select artifacts: one id or a comma-separated list
                        (same as positional ids; zero-padded forms accepted)
  --record              flight-record every run into DIR/obs/
  --record-filter SPEC  comma-separated layers (phy|mac|transport|net)
                        and/or node ids; implies --record
  --checkpoint-every MS freeze every run at each MS of virtual time
                        into DIR/checkpoints/
  --audit-every MS      record per-layer state-hash ladders into DIR/audit/
  --resume PATH         a campaign directory: resume every selected run from
                        its checkpoint (CSVs byte-identical to an uninterrupted
                        campaign); a .snap file: resume that one run and print it
  --conform             live 802.11 invariant checking on every run; non-zero
                        exit on any violation (also applies to --resume FILE)
  --conform-no-whitelist  same, but declared greedy quirks no longer exempt
                        their rules (greedy scenarios are expected to fail)
  --seeds N             override the seed list with 1..=N (default: 1 seed
                        with --quick, 5 at full fidelity)

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
                        sequential crossover — CSVs into DIR/intensity/; honors
                        --checkpoint-every / --audit-every / --resume DIR;
                        --points N thins the grid to N points, keeping both ends
  audit A B             diff two audit ladders; non-zero exit on divergence";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mode = match args.next().as_deref() {
        Some("run") => Mode::Run,
        Some("fuzz") => Mode::Fuzz,
        Some("world") => Mode::World,
        Some("cc") => Mode::Cc,
        Some("roc") => Mode::Roc,
        Some("intensity") => Mode::Intensity,
        Some("audit") => Mode::Audit,
        Some("--list" | "-l") => {
            for (id, _) in &registry() {
                println!("{id}");
            }
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut jobs = runner::available_jobs();
    let mut record = false;
    let mut filter = obs::Filter::all();
    let mut checkpoint_every: Option<u64> = None;
    let mut audit_every: Option<u64> = None;
    let mut resume: Option<PathBuf> = None;
    let mut conform = false;
    let mut conform_no_whitelist = false;
    let mut intensity_points: Option<usize> = None;
    let mut seeds_override: Option<u64> = None;
    let mut cells: Option<(usize, usize)> = None;
    let mut fuzz_seed: u64 = 1;
    // Positional arguments: experiment ids for `run`, the case count for
    // `fuzz`, the two ladder files for `audit`.
    let mut ids: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--record" => record = true,
            "--conform" => conform = true,
            "--conform-no-whitelist" => {
                conform = true;
                conform_no_whitelist = true;
            }
            "--points" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) if n > 0 => intensity_points = Some(n),
                _ => {
                    eprintln!("--points requires a positive grid-point count");
                    return ExitCode::FAILURE;
                }
            },
            "--cells" => match args.next().as_deref().and_then(parse_grid) {
                Some(grid) => cells = Some(grid),
                None => {
                    eprintln!("--cells requires a grid like 3x3");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().as_deref().map(str::parse) {
                Some(Ok(k)) => fuzz_seed = k,
                _ => {
                    eprintln!("--seed requires a 64-bit seed");
                    return ExitCode::FAILURE;
                }
            },
            "--record-filter" => match args.next() {
                Some(spec) => match obs::Filter::parse(&spec) {
                    Ok(f) => {
                        filter = f;
                        record = true;
                    }
                    Err(e) => {
                        eprintln!("--record-filter: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--record-filter requires a spec (e.g. phy,mac or 0,3)");
                    return ExitCode::FAILURE;
                }
            },
            "--experiment" | "-e" => match args.next() {
                // Accepts a comma-separated list (`-e fig02,fig06,tab5`);
                // each entry goes through the same zero-padded-id
                // normalization as positional ids.
                Some(list) => ids.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                ),
                None => {
                    eprintln!("--experiment requires an id (see --list)");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-every" => match args.next().as_deref().map(str::parse) {
                Some(Ok(ms)) => checkpoint_every = Some(ms),
                _ => {
                    eprintln!("--checkpoint-every requires an interval in ms of virtual time");
                    return ExitCode::FAILURE;
                }
            },
            "--audit-every" => match args.next().as_deref().map(str::parse) {
                Some(Ok(ms)) => audit_every = Some(ms),
                _ => {
                    eprintln!("--audit-every requires an interval in ms of virtual time");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => match args.next() {
                Some(p) => resume = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--resume requires a checkpoint file or a campaign directory");
                    return ExitCode::FAILURE;
                }
            },
            "--out" | "-o" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--seeds" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) if n > 0 => seeds_override = Some(n),
                _ => {
                    eprintln!("--seeds requires a positive seed count");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" | "-j" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => jobs = n,
                _ => {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
    }

    if mode == Mode::Audit {
        let [a, b] = ids.as_slice() else {
            eprintln!("usage: repro audit A.audit B.audit");
            return ExitCode::FAILURE;
        };
        return match greedy80211::audit::compare_files(Path::new(a), Path::new(b)) {
            Ok(divergence) => {
                println!("{}", greedy80211::audit::describe(&divergence));
                if divergence.is_none() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("repro audit: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Fuzz mode: generate + run + shrink, independent of the experiment
    // registry.
    if mode == Mode::Fuzz {
        let n = match ids.as_slice() {
            [n] => n.parse::<u64>().ok(),
            _ => None,
        };
        let Some(n) = n else {
            eprintln!("usage: repro fuzz N [--seed K]");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!(
                "failed to create output directory {}: {e}",
                out_dir.display()
            );
            return ExitCode::FAILURE;
        }
        println!("# conformance fuzz — {n} case(s), campaign seed {fuzz_seed}\n");
        let mut dirty = 0u64;
        for i in 0..n {
            let case = fuzz::generate_case(fuzz_seed, i);
            let desc = case.desc.clone();
            match fuzz::run_case(case, &out_dir) {
                Ok(v) if v.is_clean() => {
                    println!(
                        "  case {i:>3} ok    {desc}  ({} events, {} whitelisted)",
                        v.events_checked, v.whitelisted
                    );
                }
                Ok(v) => {
                    dirty += 1;
                    println!("  case {i:>3} FAIL  {desc}");
                    println!(
                        "        {} violation(s); first: {}",
                        v.violations.len(),
                        v.violations[0]
                    );
                    if let Some((lo, hi)) = v.bracket_ms {
                        println!(
                            "        shrunk to [{lo}, {hi}) ms of virtual time, layer `{}`",
                            v.layer.unwrap_or("?")
                        );
                    }
                    if let Some((ilo, ihi)) = v.intensity_bracket {
                        if ihi == 0.0 {
                            println!(
                                "        violates even with the attack scaled to zero \
                                 (attack-independent)"
                            );
                        } else {
                            println!(
                                "        minimal violating intensity in ({ilo:.4}, {ihi:.4}] \
                                 of the case's attack strength"
                            );
                        }
                    }
                    match &v.artifact {
                        Some(p) => {
                            println!(
                                "        repro: repro run --conform --resume {}",
                                p.display()
                            )
                        }
                        None => println!(
                            "        repro: repro fuzz {} --seed {fuzz_seed}  \
                             (case {i}; violation inside the first bracket)",
                            i + 1
                        ),
                    }
                }
                Err(e) => {
                    eprintln!("  case {i}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("\n{} of {n} case(s) violated an invariant", dirty);
        return if dirty == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // A .snap file resumes one run directly; a directory switches the
    // whole campaign into resume mode (handled below via RunCtx). With
    // --conform the checker rides along mid-stream (stream-dependent
    // rules disarmed, protocol-timing rules live) — how a fuzz
    // violation artifact is replayed.
    if let Some(path) = resume.as_ref().filter(|p| mode == Mode::Run && p.is_file()) {
        let job = conform.then(|| {
            let j = ::conform::ConformJob::new(None);
            if conform_no_whitelist {
                j.without_whitelist()
            } else {
                j
            }
        });
        let result = {
            let _obs_guard = job.as_ref().map(|_| {
                obs::ambient::install(
                    obs::ObsSpec {
                        capacity: 0,
                        probe_interval: None,
                        filter: obs::Filter::all(),
                    }
                    .recorder(),
                )
            });
            let _cf_guard = job.as_ref().map(|j| ::conform::ambient::install(j.clone()));
            greedy80211::Run::resume(path)
        };
        return match result {
            Ok(out) => {
                println!(
                    "resumed {} (point {}, seed {}) to {} ms of virtual time",
                    out.key.experiment,
                    out.key.point,
                    out.key.seed,
                    out.duration.as_nanos() / 1_000_000
                );
                for i in 0..out.flows.len() {
                    println!("  flow {}: {:.3} Mb/s", i, out.goodput_mbps(i));
                }
                let mut failed = false;
                if let Some(job) = job {
                    for (_, report) in job.drain() {
                        if report.is_clean() {
                            println!(
                                "  conform: clean ({} events, {} whitelisted)",
                                report.events_checked, report.whitelisted
                            );
                        } else {
                            failed = true;
                            for v in &report.violations {
                                println!("  conform: {v}");
                            }
                        }
                    }
                }
                if failed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("--resume: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if mode == Mode::Cc {
        let quality = quality_for(quick, seeds_override);
        let campaign = gr_bench::CcCampaign::new(quality, jobs);
        println!(
            "# congestion-control zoo — {} controller(s) × {} attack(s), {} job(s)\n",
            campaign.ccs.len(),
            gr_bench::cc::ATTACKS.len(),
            jobs,
        );
        let t = Instant::now();
        let report = match campaign.run(&out_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("repro cc: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.matrix.render());
        for path in &report.controller_csvs {
            println!("  -> {}", path.display());
        }
        println!(
            "  -> {} ({:.1}s)",
            out_dir.join("cc_matrix.csv").display(),
            t.elapsed().as_secs_f64()
        );
        return ExitCode::SUCCESS;
    }

    if mode == Mode::Intensity {
        let quality = quality_for(quick, seeds_override);
        let mut campaign = gr_bench::IntensityCampaign::new(quality.clone(), jobs);
        if let Some(n) = intensity_points {
            campaign = campaign.with_points(n);
        }
        let int_dir = out_dir.join("intensity");
        let mut ctx = RunCtx::with_jobs(quality, jobs);
        if let Some(dir) = &resume {
            ctx = ctx.with_checkpoints(greedy80211::CampaignSpec::resume_from(dir));
        } else if checkpoint_every.is_some() || audit_every.is_some() {
            ctx = ctx.with_checkpoints(greedy80211::CampaignSpec::record(
                &int_dir,
                checkpoint_every.map(sim::SimDuration::from_millis),
                audit_every.map(sim::SimDuration::from_millis),
            ));
        }
        println!(
            "# attack-intensity frontiers — {} detector cell(s) × {} intensities × 2 classes, {} job(s){}\n",
            gr_bench::roc::CELLS.len(),
            campaign.grid.len(),
            jobs,
            if resume.is_some() {
                ", resuming from checkpoints"
            } else if ctx.checkpoint.is_some() {
                ", checkpointing"
            } else {
                ""
            },
        );
        let t = Instant::now();
        let report = match campaign.run_with(&ctx, &int_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("repro intensity: {e}");
                return ExitCode::FAILURE;
            }
        };
        for table in &report.frontiers {
            print!("{}", table.render());
        }
        print!("{}", report.knees.render());
        for cf in &report.cells {
            match cf.knee {
                Some(k) => println!(
                    "  {}/{}: minimal detectable intensity {k:.2}{}",
                    cf.cell.detector,
                    cf.cell.mix,
                    match cf.crossover {
                        Some((lo, hi)) => {
                            format!(", sequential-only regime [{lo:.2}, {hi:.2}]")
                        }
                        None => String::new(),
                    },
                ),
                None => println!(
                    "  {}/{}: never reliably detectable on this grid",
                    cf.cell.detector, cf.cell.mix
                ),
            }
        }
        for path in &report.csvs {
            println!("  -> {}", path.display());
        }
        println!("  ({:.1}s)", t.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }

    if mode == Mode::Roc {
        let quality = quality_for(quick, seeds_override);
        let campaign = gr_bench::RocCampaign::new(quality, jobs);
        println!(
            "# detection science — {} detector cell(s) × {} adaptive load(s), {} job(s)\n",
            gr_bench::roc::CELLS.len(),
            gr_bench::roc::ADAPTIVE_LOADS_BPS.len(),
            jobs,
        );
        let t = Instant::now();
        let roc_dir = out_dir.join("roc");
        let report = match campaign.run(&roc_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("repro roc: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.auc.render());
        print!("{}", report.adaptive.render());
        print!("{}", report.delays.render());
        for path in &report.roc_csvs {
            println!("  -> {}", path.display());
        }
        println!("  -> {}", report.obs_dir.display());
        println!(
            "  -> {} ({:.1}s)",
            roc_dir.join("auc_summary.csv").display(),
            t.elapsed().as_secs_f64()
        );
        return ExitCode::SUCCESS;
    }

    if mode == Mode::World {
        let quality = quality_for(quick, seeds_override);
        let mut campaign = gr_bench::WorldCampaign::new(quality, jobs);
        if let Some((r, c)) = cells {
            campaign = campaign.with_grid(r, c);
        }
        campaign.conform = conform;
        campaign.honor_whitelist = !conform_no_whitelist;
        println!(
            "# multi-cell world campaign — {} grid(s) × {} greedy densities, {} job(s){}\n",
            campaign.grids.len(),
            campaign.greedy_fracs.len(),
            jobs,
            if conform { ", conformance-checked" } else { "" },
        );
        let t = Instant::now();
        let report = match campaign.run(&out_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("repro world: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.summary.render());
        if let Err(e) = report.summary.write_csv(&out_dir) {
            eprintln!("failed to write world.csv: {e}");
            return ExitCode::FAILURE;
        }
        for path in &report.cell_csvs {
            println!("  -> {}", path.display());
        }
        println!(
            "  -> {} ({:.1}s)",
            out_dir.join("world.csv").display(),
            t.elapsed().as_secs_f64()
        );
        if conform {
            let runs = report.conform_reports.len();
            let violations = report.conform_violations();
            let whitelisted: u64 = report
                .conform_reports
                .iter()
                .map(|(_, r)| r.whitelisted)
                .sum();
            if violations == 0 {
                println!("  conform: {runs} cell(s) clean ({whitelisted} whitelist exemption(s))");
            } else {
                println!("  conform: {violations} violation(s) across {runs} cell(s):");
                for (key, r) in &report.conform_reports {
                    for v in &r.violations {
                        match key {
                            Some(k) => {
                                println!("    [{} p{} s{}] {v}", k.experiment, k.point, k.seed)
                            }
                            None => println!("    {v}"),
                        }
                    }
                }
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let reg = registry();
    if ids.is_empty() {
        eprintln!("no experiments selected; try `repro run all` or `repro --list`");
        return ExitCode::FAILURE;
    }
    let selected: Vec<&(&str, gr_bench::Generator)> = if ids.iter().any(|i| i == "all") {
        reg.iter().collect()
    } else {
        let mut sel = Vec::new();
        for id in &ids {
            let canonical = normalize_id(id);
            match reg.iter().find(|(rid, _)| *rid == canonical) {
                Some(entry) => sel.push(entry),
                None => {
                    let valid: Vec<&str> = reg.iter().map(|(rid, _)| *rid).collect();
                    eprintln!(
                        "unknown experiment id `{id}`; valid ids: all, {}",
                        valid.join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        sel
    };

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!(
            "failed to create output directory {}: {e}",
            out_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let quality = quality_for(quick, seeds_override);
    let campaign = record.then(|| {
        obs::profile::reset();
        obs::profile::set_enabled(true);
        ObsCampaign::new(obs::ObsSpec {
            filter: filter.clone(),
            ..obs::ObsSpec::default()
        })
    });
    let mut ctx = RunCtx::with_jobs(quality, jobs);
    if let Some(camp) = &campaign {
        ctx = ctx.with_record(camp.clone());
    }
    let conform_camp = conform.then(|| {
        let c = ConformCampaign::new();
        if conform_no_whitelist {
            c.without_whitelist()
        } else {
            c
        }
    });
    if let Some(c) = &conform_camp {
        ctx = ctx.with_conform(c.clone());
    }
    let checkpointing = checkpoint_every.is_some() || audit_every.is_some();
    if let Some(dir) = &resume {
        ctx = ctx.with_checkpoints(greedy80211::CampaignSpec::resume_from(dir));
    } else if checkpointing {
        ctx = ctx.with_checkpoints(greedy80211::CampaignSpec::record(
            &out_dir,
            checkpoint_every.map(sim::SimDuration::from_millis),
            audit_every.map(sim::SimDuration::from_millis),
        ));
    }
    println!(
        "# greedy80211 reproduction — {} experiment(s), {} fidelity, {} job(s){}{}{}\n",
        selected.len(),
        if quick { "quick" } else { "full" },
        jobs,
        if record { ", recording" } else { "" },
        if conform { ", conformance-checked" } else { "" },
        if resume.is_some() {
            ", resuming from checkpoints"
        } else if checkpointing {
            ", checkpointing"
        } else {
            ""
        },
    );
    let t_all = Instant::now();
    let mut timings = Vec::new();
    let mut conform_failed = false;
    for (id, gen) in selected {
        let t = Instant::now();
        let before = stats::snapshot();
        let experiment = gen(&ctx);
        let used = stats::snapshot().since(before);
        let wall_s = t.elapsed().as_secs_f64();
        print!("{}", experiment.render());
        match experiment.write_csv(&out_dir) {
            Ok(()) => println!(
                "  -> {} ({:.1}s, {:.0} events/s)\n",
                out_dir.join(format!("{id}.csv")).display(),
                wall_s,
                used.events_processed as f64 / wall_s.max(1e-9),
            ),
            Err(e) => {
                eprintln!("failed to write CSV for {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(camp) = &campaign {
            match export_obs(&out_dir, camp) {
                Ok(0) => {}
                Ok(n) => println!("  -> {} ({n} run(s))\n", out_dir.join("obs").display()),
                Err(e) => {
                    eprintln!("failed to write obs artifacts for {id}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(camp) = &conform_camp {
            let reports = camp.take_reports();
            let runs = reports.len();
            let violations: u64 = reports.iter().map(|(_, r)| r.violation_count()).sum();
            let whitelisted: u64 = reports.iter().map(|(_, r)| r.whitelisted).sum();
            if violations == 0 {
                println!("  conform: {runs} run(s) clean ({whitelisted} whitelist exemption(s))\n");
            } else {
                conform_failed = true;
                println!("  conform: {violations} violation(s) across {runs} run(s):");
                for (key, report) in &reports {
                    for v in &report.violations {
                        match key {
                            Some(k) => {
                                println!("    [{} p{} s{}] {v}", k.experiment, k.point, k.seed)
                            }
                            None => println!("    {v}"),
                        }
                    }
                }
                println!();
            }
        }
        timings.push(Timing {
            id: id.to_string(),
            wall_s,
            events: used.events_processed,
            runs: used.runs_completed,
        });
    }
    let total_s = t_all.elapsed().as_secs_f64();
    println!("total: {total_s:.1}s");
    let profile = campaign.as_ref().map(|_| obs::profile::snapshot());
    if let Err(e) = write_summary(&out_dir, jobs, quick, &timings, total_s, profile.as_deref()) {
        eprintln!("failed to write bench_summary.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("  -> {}", out_dir.join("bench_summary.json").display());
    if conform_failed {
        eprintln!("invariant violations found; see the conform lines above");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
