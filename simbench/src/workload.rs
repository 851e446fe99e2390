//! Seeded workload generation.
//!
//! A workload is a fixed list of jobs — one *pass* — that a run repeats
//! until its time is up. Every job's scenario is a pure function of
//! `(workload, seed, job index)`: the job's own [`RunKey`] draws its
//! parameters and seeds its simulator, as `fuzz::generate_case` does.
//! Factor levels that set a job's cost (payload, transport, pairs, …)
//! are balanced within a pass, in an order shuffled by the pass key
//! `(workload, seed, ORDER_INDEX)`, so two seeds run the same mix of
//! work and their timings compare.

use greedy80211::{CcConfig, GreedyConfig, NavInflationConfig, Scenario, TransportKind, WorldSpec};
use sim::{RunKey, SimDuration, SimRng};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One AP saturating 8 stations with CBR/UDP: PHY, DCF and scheduler.
    HotspotUdp,
    /// Short runs drawn from the paper's design space on a job pool.
    PaperSweep,
    /// A 3×3 co-channel world advanced in lockstep epochs.
    WorldCochannel,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::HotspotUdp,
        Workload::PaperSweep,
        Workload::WorldCochannel,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotspotUdp => "hotspot_udp",
            Workload::PaperSweep => "paper_sweep",
            Workload::WorldCochannel => "world_cochannel",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's jobs share a pool of `nproc` workers; the
    /// others run one job at a time on one thread.
    pub fn pooled(self) -> bool {
        self == Workload::PaperSweep
    }
}

/// One unit of timed work: a single-network run or a whole world.
#[derive(Debug, Clone)]
pub enum Job {
    /// Executed with `Run::plan(..).execute()`.
    Single(Scenario),
    /// Executed with `Run::world(..).jobs(..).execute()`.
    World(WorldSpec),
}

impl Job {
    /// Virtual seconds simulated, summed over networks (a 3×3 world
    /// counts 9 cells).
    pub fn virtual_secs(&self) -> f64 {
        match self {
            Job::Single(s) => s.duration.as_secs_f64(),
            Job::World(w) => w.cells() as f64 * w.template.duration.as_secs_f64(),
        }
    }
}

/// The seed used when the command line names none; its digests are
/// pinned in [`crate::check::PINNED_DIGESTS`].
pub const DEFAULT_SEED: u64 = 1;

/// Job index of the per-pass order key, outside any real job index.
const ORDER_INDEX: u64 = u64::MAX;
/// Job index of the warm-up job's key, outside any real job index.
const WARM_UP_INDEX: u64 = u64::MAX - 1;

/// `hotspot_udp` payloads with each one's virtual run length in ms. The
/// length shrinks with the payload so every job costs about the same
/// wall time, which keeps the job-time percentiles off the boundaries
/// between payload classes.
pub const HOTSPOT_PAYLOADS: [(usize, u64); 4] = [(64, 375), (256, 625), (1024, 1125), (1500, 1375)];
/// `hotspot_udp` jobs per pass: 25 of each payload, so a pass's p90 has
/// ten jobs beyond it.
pub const HOTSPOT_JOBS: usize = 100;
/// `hotspot_udp` per-byte error rate.
pub const HOTSPOT_BER: f64 = 2e-4;

/// `paper_sweep` transports: NewReno, CUBIC, BBR, saturating UDP.
const SWEEP_TRANSPORTS: usize = 4;
/// `paper_sweep` misbehaviours: honest, NAV inflation, ACK spoofing,
/// fake ACKs.
const SWEEP_MISBEHAVIOURS: usize = 4;
/// `paper_sweep` GRC settings: off, detect, mitigate, windowed.
const SWEEP_GRC: usize = 4;
/// `paper_sweep` pair counts: 1 to 4.
const SWEEP_PAIRS: usize = 4;
/// `paper_sweep` per-byte error rates.
pub const SWEEP_BER: [f64; 2] = [0.0, 2e-4];
/// Attack intensities a greedy `paper_sweep` job draws from.
pub const SWEEP_INTENSITIES: [f64; 4] = [0.05, 0.2, 0.5, 1.0];
/// `paper_sweep` virtual run length.
pub const SWEEP_DURATION: SimDuration = SimDuration::from_secs(1);
/// GRC decision-window width of the windowed setting.
pub const SWEEP_WINDOW: SimDuration = SimDuration::from_millis(200);

/// `world_cochannel` worlds per pass, so a pass's p90 has ten beyond it.
pub const WORLD_JOBS: usize = 100;
/// `world_cochannel` virtual run length per world: 20 epochs, so a run
/// holds many passes.
pub const WORLD_DURATION: SimDuration = SimDuration::from_millis(200);
/// `world_cochannel` lockstep epoch.
pub const WORLD_EPOCH: SimDuration = SimDuration::from_millis(10);

/// The pass of `workload` under `seed` — a pure function of both.
pub fn generate(workload: Workload, seed: u64) -> Vec<Job> {
    match workload {
        Workload::HotspotUdp => hotspot(seed),
        Workload::PaperSweep => sweep(seed),
        Workload::WorldCochannel => world(seed),
    }
}

/// The untimed warm-up job of `workload` under `seed`. Its factor levels
/// are the same under every seed, so set-up costs the same.
pub fn warm_up(workload: Workload, seed: u64) -> Job {
    match workload {
        Workload::HotspotUdp => hotspot_job(seed, WARM_UP_INDEX, 2),
        // NewReno, honest, GRC detecting, 2 pairs, lossy channel.
        Workload::PaperSweep => Job::Single(sweep_scenario(seed, WARM_UP_INDEX, [0, 0, 1, 1, 1])),
        Workload::WorldCochannel => world_job(seed, WARM_UP_INDEX),
    }
}

fn key(workload: Workload, seed: u64, index: u64) -> RunKey {
    RunKey::new(workload.name(), seed, index)
}

fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.uniform_usize(i + 1));
    }
}

fn hotspot(seed: u64) -> Vec<Job> {
    let mut order: Vec<usize> = (0..HOTSPOT_JOBS)
        .map(|i| i % HOTSPOT_PAYLOADS.len())
        .collect();
    shuffle(
        &mut order,
        &mut key(Workload::HotspotUdp, seed, ORDER_INDEX).rng(),
    );
    order
        .into_iter()
        .enumerate()
        .map(|(i, level)| hotspot_job(seed, i as u64, level))
        .collect()
}

/// Job `index` of `hotspot_udp`, with payload level `level`.
fn hotspot_job(seed: u64, index: u64, level: usize) -> Job {
    let (payload, ms) = HOTSPOT_PAYLOADS[level];
    Job::Single(Scenario {
        transport: TransportKind::SATURATING_UDP,
        pairs: 8,
        shared_sender: true,
        rts: true,
        payload,
        byte_error_rate: HOTSPOT_BER,
        duration: SimDuration::from_millis(ms),
        seed: key(Workload::HotspotUdp, seed, index).stream_seed(),
        ..Scenario::default()
    })
}

/// Factor levels of one `paper_sweep` job: transport, misbehaviour,
/// GRC setting, pairs − 1, error-rate index.
type SweepCell = [usize; 5];

fn sweep(seed: u64) -> Vec<Job> {
    // The full factorial: every combination once per pass.
    let mut cells: Vec<SweepCell> = Vec::new();
    for t in 0..SWEEP_TRANSPORTS {
        for m in 0..SWEEP_MISBEHAVIOURS {
            for g in 0..SWEEP_GRC {
                for p in 0..SWEEP_PAIRS {
                    for b in 0..SWEEP_BER.len() {
                        cells.push([t, m, g, p, b]);
                    }
                }
            }
        }
    }
    shuffle(
        &mut cells,
        &mut key(Workload::PaperSweep, seed, ORDER_INDEX).rng(),
    );
    cells
        .into_iter()
        .enumerate()
        .map(|(i, cell)| Job::Single(sweep_scenario(seed, i as u64, cell)))
        .collect()
}

fn sweep_scenario(seed: u64, index: u64, [t, m, g, p, b]: SweepCell) -> Scenario {
    let key = key(Workload::PaperSweep, seed, index);
    let mut rng = key.rng();
    let intensity = SWEEP_INTENSITIES[rng.uniform_usize(SWEEP_INTENSITIES.len())];
    let (transport, cc) = match t {
        0 => (TransportKind::Tcp, CcConfig::newreno()),
        1 => (TransportKind::Tcp, CcConfig::cubic()),
        2 => (TransportKind::Tcp, CcConfig::bbr()),
        _ => (TransportKind::SATURATING_UDP, CcConfig::default()),
    };
    let (grc, grc_windows) = match g {
        0 => (None, None),
        1 => (Some(false), None),
        2 => (Some(true), None),
        _ => (Some(false), Some(SWEEP_WINDOW)),
    };
    // ACK spoofing needs a second receiver to spoof for.
    let pairs = if m == 2 { (p + 1).max(2) } else { p + 1 };
    let mut s = Scenario {
        transport,
        cc,
        pairs,
        grc,
        grc_windows,
        byte_error_rate: SWEEP_BER[b],
        duration: SWEEP_DURATION,
        seed: key.stream_seed(),
        ..Scenario::default()
    };
    let tcp = matches!(transport, TransportKind::Tcp);
    let greedy = match m {
        0 => None,
        1 => Some(GreedyConfig::nav_inflation(if tcp {
            NavInflationConfig::all_frames(10_000, 1.0)
        } else {
            NavInflationConfig::cts_only(10_000, 1.0)
        })),
        2 => {
            // The victim's node id depends on the topology; a probe
            // build resolves it.
            let victim = s.build().expect("generated scenario is valid").receivers[0];
            Some(GreedyConfig::ack_spoofing(vec![victim], 1.0))
        }
        _ => Some(GreedyConfig::fake_acks(1.0)),
    };
    if let Some(cfg) = greedy {
        s.greedy.push((pairs - 1, cfg.at_intensity(intensity)));
    }
    s
}

fn world(seed: u64) -> Vec<Job> {
    (0..WORLD_JOBS as u64).map(|i| world_job(seed, i)).collect()
}

/// Job `index` of `world_cochannel`.
fn world_job(seed: u64, index: u64) -> Job {
    let mut t = Scenario::two_pair_udp(GreedyConfig::nav_inflation(NavInflationConfig::cts_only(
        10_000, 1.0,
    )));
    t.duration = WORLD_DURATION;
    t.grc = Some(false);
    t.seed = key(Workload::WorldCochannel, seed, index).stream_seed();
    let mut spec = WorldSpec::grid(t, 3, 3);
    spec.channels = 1;
    spec.greedy_cells = 3;
    spec.epoch = WORLD_EPOCH;
    spec.label = "simbench/world_cochannel".into();
    Job::World(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn describe(jobs: &[Job]) -> String {
        format!("{jobs:?}")
    }

    #[test]
    fn generation_is_a_pure_function_of_workload_and_seed() {
        for w in Workload::ALL {
            let a = describe(&generate(w, 5));
            assert_eq!(a, describe(&generate(w, 5)), "{}", w.name());
            assert_ne!(a, describe(&generate(w, 6)), "{}", w.name());
        }
    }

    #[test]
    fn workloads_are_distinct_streams() {
        // The key names the workload, so equal seeds do not alias.
        assert_ne!(
            key(Workload::HotspotUdp, 1, 0).stream_seed(),
            key(Workload::PaperSweep, 1, 0).stream_seed()
        );
    }

    #[test]
    fn levels_are_balanced_within_a_pass() {
        for seed in [1, 2, 3] {
            let jobs = generate(Workload::HotspotUdp, seed);
            for (payload, _) in HOTSPOT_PAYLOADS {
                let n = jobs
                    .iter()
                    .filter(|j| matches!(j, Job::Single(s) if s.payload == payload))
                    .count();
                assert_eq!(n, HOTSPOT_JOBS / HOTSPOT_PAYLOADS.len());
            }
            let sweep = generate(Workload::PaperSweep, seed);
            assert_eq!(
                sweep.len(),
                SWEEP_TRANSPORTS * SWEEP_MISBEHAVIOURS * SWEEP_GRC * SWEEP_PAIRS * SWEEP_BER.len()
            );
            let udp = sweep
                .iter()
                .filter(|j| matches!(j, Job::Single(s) if matches!(s.transport, TransportKind::Udp { .. })))
                .count();
            assert_eq!(udp, sweep.len() / SWEEP_TRANSPORTS);
        }
    }

    #[test]
    fn every_generated_scenario_builds() {
        for w in Workload::ALL {
            for job in generate(w, 9) {
                match job {
                    Job::Single(s) => {
                        s.build().expect("valid scenario");
                    }
                    Job::World(spec) => {
                        spec.template.build().expect("valid template");
                    }
                }
            }
        }
    }
}
