//! Multi-cell world: a grid of hotspot cells advanced in lockstep.
//!
//! The paper studies one AP at a time; real deployments tile a floor
//! with co-channel cells whose edge stations interfere. A [`WorldSpec`]
//! places one [`Scenario`] per grid cell, pins each cell to a channel
//! (`(row + col) % channels` — the classic 1/6/11 reuse coloring), and
//! spreads greedy receivers over a configurable fraction of the cells.
//!
//! ## Execution model
//!
//! Every cell is an independent [`net::Network`] advanced in lockstep
//! virtual-time **epochs** by the [`runner::Lockstep`] executor: cell
//! state never crosses threads, only plain-data epoch reports and
//! injections do. At each epoch boundary the coordinator harvests every
//! cell's transmission intervals, maps them through precomputed
//! **coupling maps** (which neighbor-cell nodes hear which local nodes,
//! by world-frame distance on the same channel), and injects them as
//! busy intervals *one epoch later* — conservative lookahead: what a
//! neighbor transmitted during epoch `k` raises carrier sense during
//! epoch `k + 1`. The lag is the price of running cells concurrently
//! without speculative rollback; an epoch is ~10⁴ slot times, so the
//! shifted interference keeps its duty cycle and burst structure, which
//! is what carrier-sense coupling is sensitive to.
//!
//! ## Determinism
//!
//! The exchange runs on one thread over reports indexed by cell id and
//! emits injections in a fixed `(cell, neighbor, report order)` order,
//! so a world run is a pure function of its spec: per-cell results are
//! byte-identical at any `--jobs` count, and a 1×1 world (no neighbors,
//! no injections) reproduces the single-network [`Run`] outcome exactly
//! — epoch-partitioned advancement is hook-for-hook identical to one
//! straight pass (see [`net::HookCursor`]).

use mac::NodeId;
use net::{JobContext, RunHooks, TxInterval, TxRecord};
use phy::{ChannelIndex, ChannelModel, Position};
use runner::{Lockstep, Runner};
use sim::{RunKey, SimDuration, SimError, SimTime};

use crate::run::{Run, RunOutcome};
use crate::scenario::{BuiltScenario, Scenario};

/// A grid of hotspot cells sharing a floor plan.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Per-cell scenario template (topology, traffic, duration, GRC).
    /// Its `greedy` entries are kept in greedy cells and cleared in
    /// honest ones; its `duration` is the world's run length.
    pub template: Scenario,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Grid pitch between cell origins, in meters.
    pub spacing_m: f64,
    /// Number of orthogonal channels in the reuse coloring; cell
    /// `(r, c)` operates on channel `(r + c) % channels`.
    pub channels: u8,
    /// How many cells host the template's greedy receivers, spread
    /// evenly over the grid (cell `i` of `n` is greedy iff
    /// `((i+1)·k)/n > (i·k)/n` — the Bresenham pattern).
    pub greedy_cells: usize,
    /// Lockstep epoch length. Neighbor interference harvested from one
    /// epoch is replayed during the next, so this should be much
    /// shorter than the run (and than traffic timescales of interest)
    /// but long enough to amortize the barrier.
    pub epoch: SimDuration,
    /// Carrier-sense range for *cross-cell* coupling, in meters. Two
    /// nodes of co-channel cells couple when their world-frame distance
    /// is within it. In-cell propagation stays whatever the template
    /// builds.
    pub coupling_range_m: f64,
    /// Campaign label; per-cell seeds and keys derive from
    /// `(label, cell id, seed)`.
    pub label: String,
    /// World master seed. Cell 0 runs the template under this exact
    /// seed (which is what makes a 1×1 world replay a plain [`Run`]);
    /// other cells derive theirs through [`RunKey`].
    pub seed: u64,
}

impl WorldSpec {
    /// A `rows × cols` world of `template` cells with the defaults the
    /// experiments use: 60 m pitch, 3-channel coloring, 10 ms epochs,
    /// 99 m coupling range (the paper's interference range), no greedy
    /// cells.
    pub fn grid(template: Scenario, rows: usize, cols: usize) -> Self {
        let seed = template.seed;
        WorldSpec {
            template,
            rows,
            cols,
            spacing_m: 60.0,
            channels: 3,
            greedy_cells: 0,
            epoch: SimDuration::from_millis(10),
            coupling_range_m: 99.0,
            label: "world".into(),
            seed,
        }
    }

    /// Most cells a world may hold (a 32×32 grid). Committed worlds are
    /// at most 3×3; the bound keeps cell planning and the pairwise
    /// coupling scan far from exhausting memory.
    pub const MAX_CELLS: usize = 1024;

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether cell `id` hosts the template's greedy receivers under
    /// the Bresenham spread.
    pub fn is_greedy_cell(&self, id: usize) -> bool {
        let n = self.cells();
        let k = self.greedy_cells.min(n);
        (id + 1) * k / n > id * k / n
    }

    /// The campaign key of cell `id`.
    pub fn cell_key(&self, id: usize) -> RunKey {
        RunKey::new(self.label.clone(), id as u64, self.seed)
    }
}

/// Result of one cell of a finished world run.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Row-major cell id.
    pub id: usize,
    /// Grid row.
    pub row: usize,
    /// Grid column.
    pub col: usize,
    /// Operating channel.
    pub channel: ChannelIndex,
    /// Whether this cell hosted the template's greedy receivers.
    pub greedy: bool,
    /// The cell's run result — the same plain-data shape a single
    /// [`Run`] produces, including per-cell audit rungs.
    pub outcome: RunOutcome,
}

/// Result of a finished world run, cells in id order.
#[derive(Debug, Clone)]
pub struct WorldOutcome {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Lockstep epochs executed.
    pub epochs: usize,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Per-cell results in cell-id order.
    pub cells: Vec<CellOutcome>,
}

// World results travel from lockstep workers back to the coordinator.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<CellOutcome>();
    assert_send::<WorldOutcome>();
};

impl WorldOutcome {
    /// Mean goodput (Mb/s, all flows) over honest cells, or `None` if
    /// every cell is greedy.
    pub fn honest_goodput_mbps(&self) -> Option<f64> {
        mean_goodput(self.cells.iter().filter(|c| !c.greedy))
    }

    /// Mean goodput (Mb/s, all flows) over greedy cells, or `None` if
    /// no cell is greedy.
    pub fn greedy_goodput_mbps(&self) -> Option<f64> {
        mean_goodput(self.cells.iter().filter(|c| c.greedy))
    }

    /// Total NAV-inflation detections across every cell's GRC nodes.
    pub fn nav_detections(&self) -> u64 {
        self.cells.iter().map(|c| c.outcome.nav_detections()).sum()
    }

    /// Total spoofed-ACK flags across every cell's GRC nodes.
    pub fn spoof_flags(&self) -> u64 {
        self.cells.iter().map(|c| c.outcome.spoof_flags()).sum()
    }
}

fn mean_goodput<'a>(cells: impl Iterator<Item = &'a CellOutcome>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for c in cells {
        for i in 0..c.outcome.flows.len() {
            sum += c.outcome.goodput_mbps(i);
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// A planned world run: spec plus worker count and optional per-cell
/// audit ladders. Build with [`Run::world`], then [`WorldRun::execute`].
#[derive(Debug, Clone)]
pub struct WorldRun {
    spec: WorldSpec,
    jobs: usize,
    audit_every: Option<SimDuration>,
    conform: Option<::conform::ConformJob>,
}

impl Run {
    /// Plans a multi-cell world run. The single-network pipeline stays
    /// [`Run::plan`]; this is its sharded sibling.
    pub fn world(spec: &WorldSpec) -> WorldRun {
        WorldRun {
            spec: spec.clone(),
            jobs: 1,
            audit_every: None,
            conform: None,
        }
    }
}

impl WorldRun {
    /// Shards cells across `jobs` persistent worker threads (clamped to
    /// at least 1). Results are identical at any value.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides the world master seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Records each cell's state-hash audit ladder at every multiple of
    /// `interval`.
    pub fn audit_every(mut self, interval: SimDuration) -> Self {
        self.audit_every = Some(interval);
        self
    }

    /// Arms per-cell conformance checking: every cell is checked against
    /// the 802.11 rule set under its own key (`label`, cell id, seed)
    /// and deposits its report into `job`'s sink.
    pub fn conform(mut self, job: ::conform::ConformJob) -> Self {
        self.conform = Some(job);
        self
    }

    /// Builds every cell on its owning worker, advances the world in
    /// lockstep epochs with the boundary exchange between them, and
    /// returns per-cell outcomes in cell-id order.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty grid, a zero epoch or
    /// audit interval, a non-positive coupling range, or a malformed
    /// cell template.
    pub fn execute(self) -> Result<WorldOutcome, SimError> {
        self.execute_with(Exchange::after_epoch)
    }

    /// [`execute`](WorldRun::execute) with the exchange step supplied:
    /// `exchange(coupling, epoch, reports)` returns each cell's injection
    /// batch for the epoch just completed.
    fn execute_with<X>(self, mut exchange: X) -> Result<WorldOutcome, SimError>
    where
        X: FnMut(&Exchange, usize, &[Vec<TxRecord>]) -> Vec<Vec<TxInterval>>,
    {
        let WorldRun {
            spec,
            jobs,
            audit_every,
            conform,
        } = self;
        let hooks = RunHooks {
            audit_every,
            ..RunHooks::default()
        };
        validate(&spec, &hooks)?;
        let n = spec.cells();
        let duration = spec.template.duration;
        let epoch_ns = spec.epoch.as_nanos();
        let epochs = duration.as_nanos().div_ceil(epoch_ns);
        let epochs = usize::try_from(epochs)
            .map_err(|_| SimError::invalid_config("epoch count overflows usize"))?;

        // --- plan cells ------------------------------------------------
        let plans: Vec<CellPlan> = (0..n)
            .map(|id| {
                let (row, col) = (id / spec.cols, id % spec.cols);
                let greedy = spec.is_greedy_cell(id);
                let mut scenario = spec.template.clone();
                if !greedy {
                    scenario.greedy.clear();
                }
                // Cell 0 replays the template under the world seed
                // itself — the 1×1 world identity — while the rest get
                // key-derived streams.
                scenario.seed = if id == 0 {
                    spec.seed
                } else {
                    spec.cell_key(id).stream_seed()
                };
                CellPlan {
                    id,
                    row,
                    col,
                    channel: ChannelIndex(((row + col) % spec.channels as usize) as u8),
                    origin: Position::new(col as f64 * spec.spacing_m, row as f64 * spec.spacing_m),
                    greedy,
                    key: spec.cell_key(id),
                    scenario,
                }
            })
            .collect();

        // --- static coupling maps --------------------------------------
        // Placement is a pure function of each cell's scenario, so the
        // coordinator derives world-frame positions without building a
        // single network. For every ordered co-channel pair (b → a):
        // which nodes of `a` hear each node of `b`.
        let coupling_model =
            ChannelModel::with_ranges(spec.coupling_range_m, spec.coupling_range_m);
        let world_pos: Vec<Vec<Position>> = plans
            .iter()
            .map(|p| {
                p.scenario
                    .positions()
                    .into_iter()
                    .map(|q| q.offset_by(p.origin))
                    .collect()
            })
            .collect();
        // neighbors[a] = ascending ids of coupled co-channel cells;
        // coupling[a][j] = map from b-node index to the a-nodes it
        // raises carrier sense at, where b = neighbors[a][j].
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut coupling: Vec<Vec<Vec<Vec<NodeId>>>> = vec![Vec::new(); n];
        for a in 0..n {
            for b in 0..n {
                if b == a || plans[b].channel != plans[a].channel {
                    continue;
                }
                let mut map: Vec<Vec<NodeId>> = vec![Vec::new(); world_pos[b].len()];
                let mut any = false;
                for (bi, bp) in world_pos[b].iter().enumerate() {
                    for (ai, ap) in world_pos[a].iter().enumerate() {
                        if coupling_model.couples(*bp, *ap) {
                            map[bi].push(NodeId(ai as u16));
                            any = true;
                        }
                    }
                }
                if any {
                    neighbors[a].push(b);
                    coupling[a].push(map);
                }
            }
        }

        // --- lockstep execution ----------------------------------------
        let proto = WorldProto {
            hooks,
            epoch: spec.epoch,
            duration,
            conform,
        };
        let coupled = Exchange {
            neighbors,
            coupling,
            shift: spec.epoch,
            epochs,
        };
        let outs = Runner::new(jobs).run_lockstep(&proto, plans, epochs, |epoch, reports| {
            exchange(&coupled, epoch, &reports)
        });
        Ok(WorldOutcome {
            rows: spec.rows,
            cols: spec.cols,
            epochs,
            duration,
            cells: outs,
        })
    }
}

/// The boundary exchange: static coupling maps and the one-epoch lag.
struct Exchange {
    /// `neighbors[a]`: ascending ids of the co-channel cells coupled to
    /// cell `a`.
    neighbors: Vec<Vec<usize>>,
    /// `coupling[a][j][bi]`: the nodes of cell `a` that node `bi` of
    /// cell `neighbors[a][j]` raises carrier sense at.
    coupling: Vec<Vec<Vec<Vec<NodeId>>>>,
    /// How late neighbor transmissions are replayed: one epoch.
    shift: SimDuration,
    /// Epochs in the run.
    epochs: usize,
}

impl Exchange {
    /// Every cell's injection batch for the epoch that produced
    /// `reports`: each reported transmission's interval, shifted one
    /// epoch later, at every coupled node, in `(cell, neighbor, report
    /// order)` order.
    fn couple(&self, reports: &[Vec<TxRecord>]) -> Vec<Vec<TxInterval>> {
        let shift = self.shift;
        let mut inject: Vec<Vec<TxInterval>> = vec![Vec::new(); reports.len()];
        for (a, batch) in inject.iter_mut().enumerate() {
            for (map, &b) in self.coupling[a].iter().zip(&self.neighbors[a]) {
                for &TxRecord {
                    src, start, end, ..
                } in &reports[b]
                {
                    for &dst in &map[src.0 as usize] {
                        batch.push((dst, start + shift, end + shift));
                    }
                }
            }
        }
        inject
    }

    /// The exchange after epoch `epoch`. The last epoch's intervals
    /// would start after the run ends and never be dispatched, so its
    /// batches are empty.
    fn after_epoch(&self, epoch: usize, reports: &[Vec<TxRecord>]) -> Vec<Vec<TxInterval>> {
        if epoch + 1 == self.epochs {
            vec![Vec::new(); reports.len()]
        } else {
            self.couple(reports)
        }
    }
}

fn validate(spec: &WorldSpec, hooks: &RunHooks) -> Result<(), SimError> {
    if spec.rows == 0 || spec.cols == 0 {
        return Err(SimError::invalid_config("world grid must be at least 1x1"));
    }
    match spec.rows.checked_mul(spec.cols) {
        Some(n) if n <= WorldSpec::MAX_CELLS => {}
        _ => {
            return Err(SimError::invalid_config(format!(
                "a {}x{} world exceeds the {} cells a world may hold",
                spec.rows,
                spec.cols,
                WorldSpec::MAX_CELLS
            )))
        }
    }
    if spec.channels == 0 {
        return Err(SimError::invalid_config("world needs at least one channel"));
    }
    if spec.epoch.as_nanos() == 0 {
        return Err(SimError::invalid_config("world epoch must be positive"));
    }
    hooks.validate()?;
    if spec.coupling_range_m <= 0.0 || spec.coupling_range_m.is_nan() {
        return Err(SimError::invalid_config("coupling range must be positive"));
    }
    // Every failure path of Scenario::build, so worker-side builds are
    // infallible (Lockstep::build cannot return errors).
    spec.template.validate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misbehavior::{GreedyConfig, NavInflationConfig};

    fn template() -> Scenario {
        let mut s = Scenario::two_pair_udp(GreedyConfig::nav_inflation(
            NavInflationConfig::cts_only(10_000, 1.0),
        ));
        s.duration = SimDuration::from_millis(400);
        s.grc = Some(false);
        s.seed = 11;
        s
    }

    fn spec_1x3() -> WorldSpec {
        let mut spec = WorldSpec::grid(template(), 1, 3);
        spec.channels = 1; // all co-channel: every boundary couples
        spec.greedy_cells = 1;
        spec.label = "world-test".into();
        spec
    }

    fn cell_fingerprint(c: &CellOutcome) -> (usize, u64, String, u64, String) {
        let goodput: String = (0..c.outcome.flows.len())
            .map(|i| format!("{:.12};", c.outcome.goodput_mbps(i)))
            .collect();
        (
            c.id,
            c.outcome.metrics.events_processed,
            goodput,
            c.outcome.nav_detections(),
            c.outcome.audit.to_text(),
        )
    }

    #[test]
    fn per_cell_results_identical_at_every_job_count() {
        let run = |jobs: usize| {
            Run::world(&spec_1x3())
                .jobs(jobs)
                .audit_every(SimDuration::from_millis(100))
                .execute()
                .unwrap()
        };
        let baseline: Vec<_> = run(1).cells.iter().map(cell_fingerprint).collect();
        for jobs in [2, 3, 8] {
            let out: Vec<_> = run(jobs).cells.iter().map(cell_fingerprint).collect();
            assert_eq!(out, baseline, "jobs={jobs}");
        }
    }

    #[test]
    fn co_channel_neighbors_perturb_a_cell() {
        // Same 1×2 world on one shared channel vs. two orthogonal
        // channels: the exchange must inject busy time in the former
        // and nothing in the latter, so the cells evolve differently.
        let run = |channels: u8| {
            let mut spec = WorldSpec::grid(template(), 1, 2);
            spec.channels = channels;
            Run::world(&spec).jobs(2).execute().unwrap()
        };
        let coupled = run(1);
        let isolated = run(2);
        let events = |w: &WorldOutcome| {
            w.cells
                .iter()
                .map(|c| c.outcome.metrics.events_processed)
                .collect::<Vec<_>>()
        };
        assert_ne!(
            events(&coupled),
            events(&isolated),
            "co-channel interference must change cell evolution"
        );
    }

    #[test]
    fn skipping_the_final_exchange_changes_nothing() {
        // The run ends flush with an epoch horizon and with a ragged
        // last epoch.
        for duration_ms in [400, 395] {
            let mut spec = spec_1x3();
            spec.template.duration = SimDuration::from_millis(duration_ms);
            let audited = || Run::world(&spec).audit_every(SimDuration::from_millis(100));
            let skipped = audited().execute().unwrap();
            let mut last_batch = 0;
            let full = audited()
                .execute_with(|x, epoch, reports| {
                    let inject = x.couple(reports);
                    if epoch + 1 == x.epochs {
                        last_batch = inject.iter().map(Vec::len).sum();
                    }
                    inject
                })
                .unwrap();
            assert!(last_batch > 0, "the final exchange must have had work");
            let fingerprints =
                |w: &WorldOutcome| w.cells.iter().map(cell_fingerprint).collect::<Vec<_>>();
            assert_eq!(fingerprints(&skipped), fingerprints(&full));
        }
    }

    #[test]
    fn greedy_cells_spread_evenly() {
        let mut spec = WorldSpec::grid(template(), 3, 3);
        spec.greedy_cells = 3;
        let greedy: Vec<usize> = (0..9).filter(|&i| spec.is_greedy_cell(i)).collect();
        assert_eq!(greedy.len(), 3);
        assert_eq!(greedy, vec![2, 5, 8]);
        spec.greedy_cells = 9;
        assert!((0..9).all(|i| spec.is_greedy_cell(i)));
        spec.greedy_cells = 0;
        assert!(!(0..9).any(|i| spec.is_greedy_cell(i)));
    }

    #[test]
    fn honest_cells_drop_the_template_greedy_config() {
        let mut spec = spec_1x3();
        spec.greedy_cells = 1; // only cell 2 is greedy (Bresenham on 3)
        let out = Run::world(&spec).execute().unwrap();
        assert!(!out.cells[0].greedy && !out.cells[1].greedy && out.cells[2].greedy);
        // Honest cells carry no greedy receiver, so their two flows
        // stay comparable while the greedy cell's diverge.
        assert!(out.honest_goodput_mbps().is_some());
        assert!(out.greedy_goodput_mbps().is_some());
    }

    #[test]
    fn malformed_worlds_are_rejected() {
        let t = template();
        assert!(Run::world(&WorldSpec::grid(t.clone(), 0, 3))
            .execute()
            .is_err());
        let mut zero_epoch = WorldSpec::grid(t.clone(), 1, 1);
        zero_epoch.epoch = SimDuration::from_nanos(0);
        assert!(Run::world(&zero_epoch).execute().is_err());
        assert!(Run::world(&WorldSpec::grid(t.clone(), 1, 1))
            .audit_every(SimDuration::from_nanos(0))
            .execute()
            .is_err());
        let mut bad_template = t;
        bad_template.pairs = 0;
        assert!(Run::world(&WorldSpec::grid(bad_template, 1, 1))
            .execute()
            .is_err());
    }

    #[test]
    fn conform_reports_arrive_per_cell_keyed() {
        let job = ::conform::ConformJob::new();
        let spec = spec_1x3();
        Run::world(&spec)
            .jobs(3)
            .conform(job.clone())
            .execute()
            .unwrap();
        let mut reports = job.drain();
        assert_eq!(reports.len(), 3, "one report per cell");
        reports.sort_by_key(|(k, _)| k.as_ref().map(|k| k.point));
        for (i, (key, _)) in reports.iter().enumerate() {
            assert_eq!(key.as_ref().unwrap(), &spec.cell_key(i));
        }
    }
}

/// Plain-data description of one cell, shipped to its owning worker.
#[derive(Debug, Clone)]
struct CellPlan {
    id: usize,
    row: usize,
    col: usize,
    channel: ChannelIndex,
    origin: Position,
    greedy: bool,
    key: RunKey,
    scenario: Scenario,
}

/// Worker-resident cell state (deliberately not `Send`: the network's
/// recorder and checker handles are `Rc<RefCell<…>>`).
struct CellShard {
    built: BuiltScenario,
    plan: CellPlan,
}

struct WorldProto {
    hooks: RunHooks,
    epoch: SimDuration,
    duration: SimDuration,
    conform: Option<::conform::ConformJob>,
}

impl Lockstep for WorldProto {
    type Seed = CellPlan;
    type Shard = CellShard;
    type Report = Vec<TxRecord>;
    type Inject = Vec<TxInterval>;
    type Out = CellOutcome;

    fn build(&self, _index: usize, plan: CellPlan) -> CellShard {
        // The network arms the checker from the thread's job context
        // when it is built, so install the cell's for exactly the
        // duration of the build.
        let _guard = self.conform.as_ref().map(|job| {
            JobContext {
                conform: Some(job.clone()),
                ..JobContext::keyed(plan.key.clone())
            }
            .install()
        });
        let mut built = plan
            .scenario
            .build()
            .expect("world template validated before dispatch");
        built.net.enable_tx_log();
        built.start(self.hooks);
        CellShard { built, plan }
    }

    fn step(&self, shard: &mut CellShard, epoch: usize) -> Vec<TxRecord> {
        let horizon = SimTime::from_nanos(
            self.epoch
                .as_nanos()
                .saturating_mul(epoch as u64 + 1)
                .min(self.duration.as_nanos()),
        );
        shard.built.advance(horizon);
        shard.built.net.drain_tx_log()
    }

    fn absorb(&self, shard: &mut CellShard, inject: Self::Inject) {
        shard.built.net.inject_busy(&inject);
    }

    fn finish(&self, shard: CellShard) -> CellOutcome {
        let CellShard { built, plan } = shard;
        CellOutcome {
            id: plan.id,
            row: plan.row,
            col: plan.col,
            channel: plan.channel,
            greedy: plan.greedy,
            outcome: built.finish(plan.key),
        }
    }
}
