//! The sweep subsystem: parallel batch experiment runs with deterministic,
//! machine-readable results.
//!
//! A [`Sweep`] declares an instance grid — `(n, k)` pairs × scheduler
//! families × seeds — and expands it into [`BatchJob`]s for the `rr-core`
//! batch driver.  Execution either walks the jobs sequentially or lets a
//! rayon worker pool claim them one at a time, costliest first
//! ([`ExecMode`]); each worker recycles **one** engine allocation through a
//! [`BatchRunner`].  Every job's randomness is derived from the sweep's root
//! seed and the job's grid coordinates alone (never from claim order or
//! thread identity), so **a sharded sweep and a sequential sweep with the
//! same root seed produce byte-identical JSON records** — the property CI's
//! bench-regression gate and the `sweep_determinism` test suite rest on.
//!
//! The `exp_*` binaries are thin grid declarations over this module:
//! they parse the shared [`ExpArgs`] CLI (`--quick`, `--json <path>`,
//! `--seed <u64>`, `--sequential`), run their sweep, print the human table,
//! write the JSON report, and exit non-zero when any instance fails
//! verification (see [`exit_if_failed`]).

use std::cmp::Reverse;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rayon::prelude::*;
use rr_corda::SchedulerKind;
use rr_core::driver::{BatchJob, BatchRunner, TaskTargets};
use rr_core::unified::Task;
use serde::Serialize;

/// Stable short slug for a task, used in records and file names.
#[must_use]
pub fn task_slug(task: Task) -> &'static str {
    match task {
        Task::Exploration => "exploration",
        Task::GraphSearching => "graph-searching",
        Task::Gathering => "gathering",
    }
}

/// How a sweep executes its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One worker, one engine, jobs in declaration order.
    Sequential,
    /// Jobs claimed one at a time by the rayon pool's workers, costliest
    /// (largest step budget) first, each worker recycling one engine;
    /// results are reassembled in declaration order.
    Sharded,
}

/// A per-record progress callback: `(cell_index, record)`.
///
/// Under [`ExecMode::Sharded`] the sink is invoked from worker threads and
/// cell indices arrive out of order (roughly costliest first, so the cheap
/// low-index cells tend to arrive last); sinks that need declaration order
/// reorder on the index — which is exactly what
/// [`Ledger::append`](crate::ledger::Ledger::append) does.
pub type ProgressSink<'a> = &'a (dyn Fn(usize, &RunRecord) + Sync);

/// Options for one [`Sweep::run_with`] call, the single run entry point.
///
/// ```
/// # use rr_bench::sweep::{ExecMode, RunOptions};
/// let opts = RunOptions::new().sharded();
/// # let _ = opts;
/// ```
#[derive(Default)]
pub struct RunOptions<'a> {
    mode: Option<ExecMode>,
    progress: Option<ProgressSink<'a>>,
    skip_cells: usize,
}

impl<'a> RunOptions<'a> {
    /// Sequential execution, no progress sink.
    #[must_use]
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Sets the execution mode explicitly.
    #[must_use]
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Shorthand for [`RunOptions::mode`]`(ExecMode::Sharded)`.
    #[must_use]
    pub fn sharded(self) -> Self {
        self.mode(ExecMode::Sharded)
    }

    /// Streams each completed record to `sink` as `(cell_index, record)`.
    /// This is how the sweep service's ledger observes a run incrementally
    /// instead of waiting for the full record vector.
    #[must_use]
    pub fn progress(mut self, sink: ProgressSink<'a>) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Skips the first `cells` jobs of the declaration order — the resume
    /// primitive.  Because every job's seed derives from the root seed and
    /// the job's grid coordinates alone, the records for cells `cells..` are
    /// byte-identical whether or not the earlier cells were run in the same
    /// process.
    #[must_use]
    pub fn resume_at(mut self, cells: usize) -> Self {
        self.skip_cells = cells;
        self
    }

    fn exec_mode(&self) -> ExecMode {
        self.mode.unwrap_or(ExecMode::Sequential)
    }
}

/// A declarative instance grid: the cross product of `(n, k)` instances,
/// scheduler kinds and per-cell seeds, run as one task with uniform targets
/// and a linear step budget.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Experiment identifier recorded in every run record (e.g. "E6").
    pub experiment: String,
    /// The task every instance runs.
    pub task: Task,
    /// The `(n, k)` grid.
    pub instances: Vec<(usize, usize)>,
    /// Scheduler families to run each instance under.
    pub schedulers: Vec<SchedulerKind>,
    /// Number of seeded repetitions per (instance, scheduler) cell.
    pub seeds_per_cell: u64,
    /// Root seed; every job's randomness is derived from it and the job's
    /// grid coordinates.
    pub root_seed: u64,
    /// Early-stop targets passed to the driver.
    pub targets: TaskTargets,
    /// Scheduler-step budget: `budget_per_n * n + budget_flat`.
    pub budget_per_n: u64,
    /// Flat part of the step budget.
    pub budget_flat: u64,
    /// Extra budget factor for the asynchronous adversary (it interleaves
    /// Look and Move steps, so it needs roughly twice the steps for the same
    /// progress).
    pub async_budget_factor: u64,
}

/// SplitMix64 finalizer: the per-job seed derivation.  Deterministic in the
/// root seed and the job's grid coordinates only.
#[must_use]
fn splitmix64(z: u64) -> u64 {
    rand::RngCore::next_u64(&mut rand::SplitMix64::new(z))
}

/// One measured instance run, as recorded in the JSON report.
///
/// `wall_nanos` is measured but **excluded from serialization** — it is the
/// one field that legitimately differs between a sharded and a sequential
/// execution of the same sweep, and the JSON records are guaranteed
/// byte-identical across execution modes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RunRecord {
    /// Experiment identifier (e.g. "E6").
    pub experiment: String,
    /// Task slug ("graph-searching", "gathering", ...).
    pub task: String,
    /// Ring size.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Scheduler name ("round-robin", "ssync", "async", "fsync").
    pub scheduler: String,
    /// The derived per-job seed the scheduler was built from.
    pub seed: u64,
    /// Scheduler steps (rounds) applied.
    pub rounds: u64,
    /// Completed Look–Compute–Move cycles summed over all robots.
    pub cycles: u64,
    /// Robot moves executed.
    pub moves: u64,
    /// Full ring clearings demonstrated (searching tasks; 0 for gathering).
    pub clearings: u64,
    /// Steady-state clearing period: max moves between consecutive clearings
    /// after the first (searching tasks; 0 otherwise).
    pub steady_period: u64,
    /// Minimum full exploration sweeps completed by any robot (searching
    /// tasks; 0 otherwise).
    pub explorations: u64,
    /// Whether the configuration ended gathered (gathering task only).
    pub gathered: bool,
    /// Whether this run demonstrated the property the experiment verifies.
    pub ok: bool,
    /// Failure detail (empty on success).
    pub detail: String,
    /// Wall-clock nanoseconds for this instance (not serialized).
    #[serde(skip)]
    pub wall_nanos: u128,
}

/// One exhaustively model-checked cell, as recorded in the JSON report
/// (schema `rr-sweep/v1`, experiment `E10`).
///
/// Where a [`RunRecord`] says "this seed succeeded", a `ModelCheckRecord`
/// says "**every** schedule of this interleaving mode succeeds" — `states`/
/// `edges` quantify the exhausted state space, and a non-verified cell
/// carries its minimal counterexample schedule in `counterexample`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ModelCheckRecord {
    /// Experiment identifier (e.g. "E10").
    pub experiment: String,
    /// Task slug ("gathering", "alignment", "graph-searching").
    pub task: String,
    /// Ring size.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Interleaving mode ("ssync" = all activation subsets, "async" = all
    /// Look/Move phase interleavings).
    pub mode: String,
    /// Rigid initial configuration classes checked (one exhaustive search
    /// each).
    pub initial_classes: u64,
    /// Concrete states explored, summed over the initial classes.
    pub states: u64,
    /// Canonical (rotation/reflection/relabeling) engine-state classes among
    /// them (auxiliary contamination state excluded from the class key).
    pub quotient_states: u64,
    /// Edges of the explored state graphs.
    pub edges: u64,
    /// Liveness-target states seen (Reach invariants).
    pub target_states: u64,
    /// Progress edges seen (ReachRepeatedly invariants).
    pub progress_edges: u64,
    /// Peak resident nodes, maximized over the initial classes — the
    /// checker's memory footprint.  Per class it is
    /// [`rr_checker::ExploreReport::peak_resident_nodes`]: one sample per
    /// expansion, the stored states when the expansion begins plus every
    /// successor of that expansion and of the later ones in its batch that
    /// was absent from the visited map when the batch began.
    /// Deterministic.
    pub peak_resident_nodes: u64,
    /// Peak resident packed-state payload bytes at the same sample point,
    /// maximized over the initial classes.  Deterministic and
    /// backend-independent (the spill backend changes where the bytes live,
    /// not how many are live).
    pub peak_resident_bytes: u64,
    /// Packed payload bytes per stored state (`state_bytes / states`,
    /// summed over the initial classes before dividing).  Deterministic.
    pub bytes_per_state: u64,
    /// Bytes written to the spill files (states + edges), summed over the
    /// initial classes; 0 under the in-memory backend.  Deterministic for a
    /// given backend — sealed clusters are always written, whatever the
    /// budget — but naturally differs between backends, so cross-backend
    /// report comparisons normalize it away alongside `store`.
    pub spilled_bytes: u64,
    /// Bytes the visited map sealed to sorted on-disk runs (including
    /// compaction rewrites), summed over the initial classes; 0 under the
    /// in-memory backend.  Deterministic for a given backend *and* memory
    /// budget — the seal schedule is a pure function of the insert sequence
    /// — but budget-dependent, so cross-backend comparisons normalize it
    /// away alongside `store` and `spilled_bytes`.
    pub visited_spilled_bytes: u64,
    /// Storage backend the cell ran under ("mem" or "spill").
    pub store: String,
    /// Exploration throughput in states per second over
    /// [`wall_nanos`](ModelCheckRecord::wall_nanos), the summed wall time of
    /// the cell's class jobs: one thread's throughput, however many of the
    /// cell's classes ran side by side.  **Not deterministic** (machine-
    /// and load-dependent): this is the one record field excluded from
    /// cross-run comparisons; it exists to accumulate the perf trajectory
    /// in the CI artifacts.
    pub states_per_sec: u64,
    /// Whether the paper claims no algorithm for this cell (nothing to
    /// check; `ok` is vacuously true).
    pub vacuous: bool,
    /// Whether every schedule of every initial class was verified.
    pub ok: bool,
    /// Rendered minimal counterexample schedule (empty when `ok`).
    pub counterexample: String,
    /// Wall-clock nanoseconds summed over the cell's class jobs, which may
    /// have run side by side (not serialized).
    #[serde(skip)]
    pub wall_nanos: u128,
}

/// One fault-adversary cell (schema `rr-sweep/v1`, experiment `E14`).
///
/// Written by `exp_faults`: the degradation table behind the "paper vs
/// faults" feasibility matrix.  Model-checked rows (`fault` ∈ `"none"`,
/// `"crash"`, `"corrupt-look"`) quantify over **every** schedule *and*
/// every fault placement within the budget; a cell is `ok` when the checker
/// either proves its invariant or produces a minimal counterexample that
/// replays on the engine (`replayed`) — an unexplained verdict (budget
/// blow-up, non-reproducing trace) fails the cell.  Engine-measured rows
/// (`fault` = `"unfair"`) run the bounded-unfair scheduler and gate on the
/// clearing/gathering latency staying within the `c·B` degradation bound.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FaultRecord {
    /// Experiment identifier (e.g. "E14").
    pub experiment: String,
    /// Task slug ("gathering", "alignment").
    pub task: String,
    /// Ring size.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Interleaving mode for model-checked rows ("ssync"/"async"), scheduler
    /// name ("unfair") for engine-measured rows.
    pub mode: String,
    /// Fault family ("none", "crash", "corrupt-look", "unfair").
    pub fault: String,
    /// Fault parameters ("f=1", "looks=1", "B=64", ...; empty for "none").
    pub fault_detail: String,
    /// The invariant or degradation property the cell was checked against.
    pub property: String,
    /// Rigid initial configuration classes checked.
    pub initial_classes: u64,
    /// Concrete states explored (0 for engine-measured rows).
    pub states: u64,
    /// Edges of the explored state graphs (0 for engine-measured rows).
    pub edges: u64,
    /// Initial classes the invariant was proved for (all schedules, all
    /// fault placements within the budget).
    pub proved: u64,
    /// Initial classes falsified with a minimal counterexample.
    pub falsified: u64,
    /// Whether every counterexample replayed on the engine with its fault
    /// directives honoured (vacuously true when `falsified == 0`).
    pub replayed: bool,
    /// Whether the cell has a valid verdict: proved, degraded-with-replaying-
    /// counterexample, or (unfair rows) latency within the degradation bound.
    pub ok: bool,
    /// Rendered counterexample / failure detail (empty when clean).
    pub counterexample: String,
    /// Wall-clock nanoseconds (not serialized; may differ across execution
    /// modes).
    #[serde(skip)]
    pub wall_nanos: u128,
}

/// One engine-throughput cell (schema `rr-sweep/v1`, experiment `E12`).
///
/// Written by `exp_throughput`.  An E12 cell drives a fixed scheduler-step
/// budget through `Engine::run` once, plus a Look/Execute micro-loop that
/// isolates the Look phase.  Like `states_per_sec` in [`ModelCheckRecord`],
/// the `*_per_sec` and allocation fields are machine-dependent: they
/// accumulate the perf trajectory in the CI artifacts and are excluded from
/// cross-run byte comparisons.
///
/// `baseline_steps_per_sec` and `speedup_x100` belonged to the retired
/// round-leaping experiment (E13: leap against step baseline).  They stay
/// so the schema and its golden bytes stay fixed; E12 writes 0 into both.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ThroughputRecord {
    /// Experiment identifier (e.g. "E12").
    pub experiment: String,
    /// Workload slug ("throughput": greedy walker, exclusivity off).
    pub task: String,
    /// Ring size.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Scheduler name ("round-robin", "ssync", "async", "fsync").
    pub scheduler: String,
    /// The derived per-cell seed the scheduler was built from.
    pub seed: u64,
    /// Scheduler steps applied by the run (the cell's budget).
    pub steps: u64,
    /// Fresh Look + Compute phases performed during the scheduler run.
    pub looks: u64,
    /// Robot moves executed during the scheduler run.
    pub moves: u64,
    /// Scheduler steps per second.
    pub steps_per_sec: u64,
    /// 0 on E12 records: the retired E13's step-baseline steps per second.
    pub baseline_steps_per_sec: u64,
    /// 0 on E12 records: the retired E13's leap / step-baseline ratio, in
    /// hundredths.
    pub speedup_x100: u64,
    /// Looks per second in the Look/Execute micro-loop (Look phase isolated
    /// from scheduler overhead).
    pub looks_per_sec: u64,
    /// Heap allocations per 1000 scheduler steps over the full engine loop,
    /// scheduler included; 0 when the binary's counting allocator is not
    /// installed.
    pub allocs_per_kstep: u64,
    /// Heap allocations per 1000 steps of the Look/Execute micro-loop — the
    /// zero-allocation Look pipeline claim, measured.
    pub look_allocs_per_kstep: u64,
    /// Whether the run used its whole step budget without an engine error.
    pub ok: bool,
    /// Failure detail (empty on success): the engine error.
    pub detail: String,
    /// Wall-clock nanoseconds for the cell (not serialized; machine
    /// dependent).
    #[serde(skip)]
    pub wall_nanos: u128,
}

/// One class-scaling measurement (schema `rr-sweep/v1`, experiment `E16`).
///
/// Written by `exp_modelcheck --scale-bench`: a fixed spill cell's rigid
/// initial classes are explored once on one thread and once on a pool of
/// threads that claim classes as jobs, under the same tight memory budget;
/// the binary gates on every deterministic report field being identical
/// across the two rows (`report_digest` pins what was compared), and the
/// phase timers record where the wall-clock went.  The `*_nanos` and
/// `states_per_sec` fields are machine-dependent perf trajectory, excluded
/// from cross-run byte comparisons like every other throughput figure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScaleRecord {
    /// Experiment identifier (e.g. "E16").
    pub experiment: String,
    /// Task slug ("gathering", "alignment", "graph-searching").
    pub task: String,
    /// Ring size.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Interleaving mode ("ssync" or "async").
    pub mode: String,
    /// Storage backend ("spill" unless `--store` chose another).
    pub store: String,
    /// Threads the row ran the cell's classes on: `1`, or
    /// `min(cores, classes)` for the pool row.
    pub workers: usize,
    /// Cores the machine offered (`available_parallelism`).  Machine
    /// dependent.
    pub cores: usize,
    /// Resident byte budget shared by the packed-state cache and the
    /// visited-map memtables of **each running class**: the pool row keeps
    /// up to `workers` times this resident.
    pub mem_budget: u64,
    /// Concrete states explored (identical across rows, by the gate).
    pub states: u64,
    /// Edges of the explored state graph (identical across rows).
    pub edges: u64,
    /// Peak resident bytes — stored payload, the batch's successors that
    /// were new at its start, and visited entries (identical across rows).
    pub peak_resident_bytes: u64,
    /// Bytes spilled by the state store + edge sink (identical across rows).
    pub spilled_bytes: u64,
    /// Bytes the visited map sealed to disk runs (identical across rows).
    pub visited_spilled_bytes: u64,
    /// Wall nanoseconds spent expanding batches, each successor admitted
    /// as it is generated, summed over the classes.  Machine dependent.
    pub expand_nanos: u64,
    /// Wall nanoseconds spent after each batch's expansion (residency
    /// samples and the visited-map seal), summed over the classes.
    /// Machine dependent.
    pub merge_nanos: u64,
    /// Exploration throughput over the row's wall time.  Machine dependent.
    pub states_per_sec: u64,
    /// FNV-1a digest over the row's deterministic report fields; the
    /// scale-bench gate requires it to be identical across the rows.
    pub report_digest: u64,
    /// Whether this row's digest matched the one-thread row's.
    pub ok: bool,
    /// Wall-clock nanoseconds for the row (not serialized).
    #[serde(skip)]
    pub wall_nanos: u128,
}

/// Most seeds per cell that [`Sweep::jobs`] tells apart: the seed index
/// fills the low 16 bits of the seed coordinate.
pub const MAX_SEEDS_PER_CELL: u64 = 1 << 16;

impl Sweep {
    /// The step budget of a cell on an `n`-node ring under `scheduler`:
    /// `budget_per_n · n + budget_flat`, times `async_budget_factor` (at
    /// least 1) for the asynchronous scheduler.  `None` when it overflows a
    /// `u64`, which [`GridSpec::parse`](crate::grid::GridSpec::parse)
    /// rejects.
    #[must_use]
    pub(crate) fn step_budget(&self, n: usize, scheduler: SchedulerKind) -> Option<u64> {
        let budget = self
            .budget_per_n
            .checked_mul(n as u64)?
            .checked_add(self.budget_flat)?;
        if scheduler == SchedulerKind::Asynchronous {
            budget.checked_mul(self.async_budget_factor.max(1))
        } else {
            Some(budget)
        }
    }

    /// Expands the grid into batch jobs, in deterministic declaration order
    /// (instances outermost, then schedulers, then seeds).  The seed index
    /// fills the low 16 bits of each job's seed coordinate, so at most
    /// [`MAX_SEEDS_PER_CELL`] seeds per cell get distinct seeds;
    /// [`GridSpec::parse`](crate::grid::GridSpec::parse) rejects more.
    ///
    /// # Panics
    ///
    /// Panics if a cell's step budget overflows a `u64`.
    #[must_use]
    pub fn jobs(&self) -> Vec<BatchJob> {
        let mut jobs = Vec::new();
        for &(n, k) in &self.instances {
            for (si, &scheduler) in self.schedulers.iter().enumerate() {
                for rep in 0..self.seeds_per_cell {
                    let coords = (n as u64) << 40 | (k as u64) << 24 | (si as u64) << 16 | rep;
                    let seed = splitmix64(self.root_seed ^ coords);
                    jobs.push(BatchJob {
                        task: self.task,
                        start: crate::rigid_start(n, k),
                        scheduler,
                        seed,
                        targets: self.targets,
                        max_scheduler_steps: self
                            .step_budget(n, scheduler)
                            .expect("the step budget fits a u64"),
                    });
                }
            }
        }
        jobs
    }

    /// Runs one job on `runner` and turns the outcome into a record.
    fn run_job(&self, runner: &mut BatchRunner, job: &BatchJob) -> RunRecord {
        let started = Instant::now();
        let (n, k) = (job.start.n(), job.start.num_robots());
        let mut record = RunRecord {
            experiment: self.experiment.clone(),
            task: task_slug(job.task).to_string(),
            n,
            k,
            scheduler: job.scheduler.name().to_string(),
            seed: job.seed,
            rounds: 0,
            cycles: 0,
            moves: 0,
            clearings: 0,
            steady_period: 0,
            explorations: 0,
            gathered: false,
            ok: false,
            detail: String::new(),
            wall_nanos: 0,
        };
        match runner.run(job) {
            Ok(outcome) => {
                record.rounds = outcome.report.report.steps;
                record.moves = outcome.report.report.moves;
                record.cycles = outcome.cycles;
                match &outcome.report.stats {
                    rr_core::driver::TaskStats::Searching(stats) => {
                        record.clearings = stats.clearings;
                        record.steady_period = stats
                            .clearing_intervals
                            .iter()
                            .skip(1)
                            .copied()
                            .max()
                            .unwrap_or(0);
                        record.explorations = stats.min_exploration_completions;
                        record.ok = outcome.report.report.succeeded();
                        if !record.ok {
                            record.detail =
                                format!("budget exhausted after {} clearings", stats.clearings);
                        }
                    }
                    rr_core::driver::TaskStats::Gathering(stats) => {
                        record.gathered = stats.gathered;
                        record.ok = stats.gathered && !stats.broke_gathering;
                        if !record.ok {
                            record.detail = if stats.broke_gathering {
                                "left a gathered configuration".to_string()
                            } else {
                                "budget exhausted before gathering".to_string()
                            };
                        }
                    }
                }
            }
            Err(e) => {
                record.detail = e.to_string();
            }
        }
        record.wall_nanos = started.elapsed().as_nanos();
        record
    }

    /// **The** run entry point: executes the grid as declared by `options`
    /// and returns one record per executed job, in declaration order.
    ///
    /// With [`RunOptions::resume_at`]`(c)` the first `c` cells are skipped
    /// and the returned vector covers cells `c..` only; their contents are
    /// byte-for-byte what an uninterrupted run would have produced for those
    /// cells (per-cell seeds derive from the root seed and grid coordinates,
    /// never from execution history).  A [`RunOptions::progress`] sink
    /// observes every record as it completes, tagged with its cell index.
    ///
    /// Under [`ExecMode::Sharded`] each worker keeps one [`BatchRunner`] and
    /// claims the next cell until none is left, largest step budget first
    /// (ties in declaration order), so the costliest cells start first and
    /// the cheap ones fill in around them.
    #[must_use]
    pub fn run_with(&self, options: &RunOptions<'_>) -> Vec<RunRecord> {
        let jobs = self.jobs();
        let run_cell = |runner: &mut BatchRunner, cell: usize| {
            let record = self.run_job(runner, &jobs[cell]);
            if let Some(sink) = options.progress {
                sink(cell, &record);
            }
            record
        };
        match options.exec_mode() {
            ExecMode::Sequential => {
                let mut runner = BatchRunner::new();
                (options.skip_cells.min(jobs.len())..jobs.len())
                    .map(|cell| run_cell(&mut runner, cell))
                    .collect()
            }
            ExecMode::Sharded => {
                let mut records: Vec<(usize, RunRecord)> = claim_order(&jobs, options.skip_cells)
                    .into_par_iter()
                    .map_init(BatchRunner::new, |runner, cell| {
                        (cell, run_cell(runner, cell))
                    })
                    .collect();
                records.sort_unstable_by_key(|&(cell, _)| cell);
                records.into_iter().map(|(_, record)| record).collect()
            }
        }
    }

    /// The number of cells (= records) this sweep's grid expands to.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.instances.len() * self.schedulers.len() * self.seeds_per_cell as usize
    }
}

/// The order [`ExecMode::Sharded`] workers claim cells in: cells `skip..`
/// by descending step budget, ties in declaration order.
///
/// The budget (`budget_per_n · n + budget_flat`, times the ASYNC factor) is
/// the cost proxy every job already declares.  Grids list their instances
/// smallest first, so the few largest cells — about 70% of a full E4 or E6
/// run (DESIGN.md §5) — sit at the end of the declaration order; claiming
/// them first lets the cheap cells fill in beside them instead of queueing
/// them behind one worker.
fn claim_order(jobs: &[BatchJob], skip: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (skip.min(jobs.len())..jobs.len()).collect();
    order.sort_by_key(|&cell| Reverse(jobs[cell].max_scheduler_steps));
    order
}

/// An order-preserving parallel (or sequential) map, for experiment grids
/// that do not go through the batch driver (Align statistics, configuration
/// graphs, ...).  Sharded results equal sequential results whenever `f` is a
/// pure function of its item.
pub fn grid_map<T: Send, O: Send>(
    items: Vec<T>,
    mode: ExecMode,
    f: impl Fn(T) -> O + Sync,
) -> Vec<O> {
    match mode {
        ExecMode::Sequential => items.into_iter().map(f).collect(),
        ExecMode::Sharded => items.into_par_iter().map(f).collect(),
    }
}

// ---------------------------------------------------------------------------
// JSON reports.
// ---------------------------------------------------------------------------

/// The grid identity a ledger header is bound to: the grid's
/// content-address and its declared cell count.  See
/// [`SweepHeader::for_grid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridBinding {
    /// The grid's [`cache_key`](crate::cache::cache_key) in zero-padded hex
    /// — the same 16 characters that name the job and its cache entry.
    pub grid: String,
    /// The number of cells (= record lines) the grid declares.
    pub cells: u64,
}

/// The shared `rr-sweep/v1` preamble: schema tag, explicit schema version,
/// the engine's semantic version, the experiment id and the root seed.
///
/// Every producer of `rr-sweep/v1` bytes goes through this one type instead
/// of hand-rolling its own preamble: [`json_report`] opens its envelope with
/// these fields (in this declaration order), and a sweep
/// [`Ledger`](crate::ledger::Ledger) writes [`SweepHeader::to_json_line`] as
/// its first line.  Consumers can therefore dispatch on
/// `(schema, schema_version)` and detect stale cached results on
/// `engine_version` without knowing which record family follows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SweepHeader {
    /// Schema family tag; always `"rr-sweep/v1"`.
    pub schema: &'static str,
    /// Explicit schema version within the family (this is version 1).
    pub schema_version: u32,
    /// [`rr_corda::ENGINE_VERSION`]: the semantic version of the engine that
    /// produced the records.  Part of the result-cache key — two ledgers
    /// with different engine versions are never interchangeable.
    pub engine_version: &'static str,
    /// Experiment identifier (e.g. "E6").
    pub experiment: String,
    /// Root seed every per-cell seed was derived from.
    pub root_seed: u64,
    /// The grid identity a **ledger** header carries (rendered by
    /// [`SweepHeader::to_json_line`] as trailing `"grid"`/`"cells"` fields).
    /// `None` for free-form report envelopes, which are not content-addressed.
    ///
    /// This is what makes ledger resume and cache validation sound: two
    /// grids of the same experiment and root seed but different shapes
    /// (e.g. a `--quick` and a full preset) produce different header lines,
    /// so one can never silently adopt the other's records.
    #[serde(skip)]
    pub grid: Option<GridBinding>,
}

impl SweepHeader {
    /// The header for `experiment` under the current engine.
    #[must_use]
    pub fn new(experiment: &str, root_seed: u64) -> Self {
        SweepHeader {
            schema: "rr-sweep/v1",
            schema_version: 1,
            engine_version: rr_corda::ENGINE_VERSION,
            experiment: experiment.to_string(),
            root_seed,
            grid: None,
        }
    }

    /// Binds this header to a grid's content-address and cell count — the
    /// form every ledger header takes (see [`GridSpec::header`](crate::grid::GridSpec::header)).
    #[must_use]
    pub fn for_grid(mut self, cache_key: u64, cells: u64) -> Self {
        self.grid = Some(GridBinding {
            grid: format!("{cache_key:016x}"),
            cells,
        });
        self
    }

    /// The bound grid's declared cell count, when this is a ledger header.
    #[must_use]
    pub fn grid_cells(&self) -> Option<u64> {
        self.grid.as_ref().map(|b| b.cells)
    }

    /// The header as one JSON object, **without** a trailing newline —
    /// exactly the first line of a sweep ledger.  A grid binding is rendered
    /// as trailing `"grid"` and `"cells"` fields.
    ///
    /// # Panics
    ///
    /// Serialization of this plain struct cannot fail; a panic indicates a
    /// broken vendored serializer.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut doc = serde_json::to_string(self).expect("serializing a SweepHeader");
        if let Some(binding) = &self.grid {
            let closing = doc.pop();
            debug_assert_eq!(closing, Some('}'));
            doc.push_str(&format!(
                ",\"grid\":\"{}\",\"cells\":{}}}",
                binding.grid, binding.cells
            ));
        }
        doc
    }
}

/// Renders a JSON report document (schema `rr-sweep/v1`) for `records`.
///
/// The envelope is the [`SweepHeader`] object with one extra trailing
/// `records` field — the bytes up to that field are literally
/// [`SweepHeader::to_json_line`], so the report envelope and the ledger
/// header cannot drift apart.
pub fn json_report<T: Serialize>(
    experiment: &str,
    root_seed: u64,
    records: &[T],
) -> Result<String, serde_json::Error> {
    let mut doc = SweepHeader::new(experiment, root_seed).to_json_line();
    let closing = doc.pop();
    debug_assert_eq!(closing, Some('}'));
    doc.push_str(",\"records\":");
    doc.push_str(&serde_json::to_string(&records)?);
    doc.push('}');
    Ok(doc)
}

/// Writes a JSON report to `path` (a trailing newline is appended).
///
/// # Panics
///
/// Panics when the file cannot be written or a record fails to serialize —
/// in an experiment binary either is a fatal configuration error.
pub fn write_json_records<T: Serialize>(
    path: &Path,
    experiment: &str,
    root_seed: u64,
    records: &[T],
) {
    let body = json_report(experiment, root_seed, records)
        .unwrap_or_else(|e| panic!("serializing {experiment} records: {e}"));
    let mut file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {}: {e}", path.display()));
    file.write_all(body.as_bytes())
        .and_then(|()| file.write_all(b"\n"))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("# wrote {} records to {}", records.len(), path.display());
}

// ---------------------------------------------------------------------------
// Shared experiment CLI.
// ---------------------------------------------------------------------------

/// The command-line arguments shared by every `exp_*` binary.
///
/// ```text
/// exp_foo [--quick] [--json <path>] [--seed <u64>] [--sequential]
///         [--ledger <path>] [--cache <dir>] [binary-specific flags]
/// exp_foo --help | -h
/// ```
///
/// Each binary's usage text is the one list of the flags it reads: a flag
/// is accepted iff the usage declares it as `[--name]` (a switch) or
/// `[--name <value>]` (any value placeholder).  An undeclared flag, a
/// missing value or a malformed value prints the usage on stderr and exits
/// with status 2 — nothing runs with a silently defaulted setting.
///
/// `--ledger` streams records into a durable, resumable `rr-sweep/v1`
/// ledger and `--cache` consults/feeds a content-addressed result cache —
/// both via [`execute_grid`](crate::grid::execute_grid), the same path the
/// `rr-sweepd` service runs jobs through.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Run the reduced CI-smoke grid instead of the full grid.
    pub quick: bool,
    /// Write the machine-readable JSON report here.
    pub json: Option<PathBuf>,
    /// Root seed for the sweep (each binary sets its own default).
    pub root_seed: u64,
    /// Force sequential execution (the default is sharded).
    pub sequential: bool,
    /// Stream records into this durable ledger file (resuming any durable
    /// prefix left by an interrupted run).
    pub ledger: Option<PathBuf>,
    /// Consult and feed the content-addressed result cache in this
    /// directory.
    pub cache: Option<PathBuf>,
    /// Binary-specific flags, each followed by its value if it takes one.
    rest: Vec<String>,
    usage: &'static str,
}

/// The flags `usage` declares, in order, each with whether it takes a
/// value: `[--name]` is a switch, `[--name <placeholder>]` takes a value.
fn declared_flags(usage: &str) -> impl Iterator<Item = (&str, bool)> {
    usage.match_indices("[--").map(move |(at, _)| {
        let flag = &usage[at + 1..];
        let end = flag.find([' ', ']']).unwrap_or(flag.len());
        (&flag[..end], flag[end..].starts_with(' '))
    })
}

/// Splits a command line by the flags `usage` declares — `[--name]` is a
/// switch, `[--name <placeholder>]` takes a value — into the positional
/// arguments in order and each flag with its value.  A value is the next
/// argument, which must not start with `--`; a flag may be given at most
/// once.  Every command-line parser of the workspace accepts flags by this
/// rule.
///
/// # Errors
///
/// Returns the message for a flag `usage` does not declare, a flag missing
/// its value, or a flag given twice.
#[allow(clippy::type_complexity)]
pub fn split_args(
    args: impl Iterator<Item = String>,
    usage: &str,
) -> Result<(Vec<String>, Vec<(&str, Option<String>)>), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let Some((name, takes_value)) = declared_flags(usage).find(|&(name, _)| name == arg) else {
            return Err(format!("unknown argument {arg:?}"));
        };
        if flags.iter().any(|&(given, _)| given == name) {
            return Err(format!("{name} given twice"));
        }
        let value = if takes_value {
            let value = args.next_if(|value| !value.starts_with("--"));
            Some(value.ok_or_else(|| format!("{name} requires a value"))?)
        } else {
            None
        };
        flags.push((name, value));
    }
    Ok((positional, flags))
}

/// Prints `message` and `usage` on stderr, naming the binary the usage
/// names, and exits with status 2.
pub fn exit_with_usage(usage: &str, message: &str) -> ! {
    let program = usage.split_whitespace().nth(1).unwrap_or("exp");
    eprintln!("{program}: {message}\n{usage}");
    std::process::exit(2);
}

impl ExpArgs {
    /// Parses the process arguments against `usage`, the binary's usage
    /// text and the one list of the flags it accepts.  `--help` or `-h`
    /// prints the usage and exits with status 0 before anything runs; an
    /// undeclared flag, a missing value or a malformed shared value prints
    /// it on stderr and exits with status 2.
    #[must_use]
    pub fn parse(default_seed: u64, usage: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|arg| arg == "--help" || arg == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        Self::from_args(args.into_iter(), default_seed, usage)
            .unwrap_or_else(|message| exit_with_usage(usage, &message))
    }

    /// [`ExpArgs::parse`] over an explicit argument list (testable).
    ///
    /// # Errors
    ///
    /// Returns the message for an argument `usage` does not declare, a
    /// flag missing its value or given twice, or a `--seed` that is not a
    /// `u64`.
    pub fn from_args(
        args: impl Iterator<Item = String>,
        default_seed: u64,
        usage: &'static str,
    ) -> Result<Self, String> {
        let (positional, flags) = split_args(args, usage)?;
        if let Some(arg) = positional.first() {
            return Err(format!("unknown argument {arg:?}"));
        }
        let mut parsed = ExpArgs {
            quick: false,
            json: None,
            root_seed: default_seed,
            sequential: false,
            ledger: None,
            cache: None,
            rest: Vec::new(),
            usage,
        };
        for (name, value) in flags {
            match (name, value) {
                ("--quick", None) => parsed.quick = true,
                ("--sequential", None) => parsed.sequential = true,
                ("--json", Some(path)) => parsed.json = Some(PathBuf::from(path)),
                ("--ledger", Some(path)) => parsed.ledger = Some(PathBuf::from(path)),
                ("--cache", Some(dir)) => parsed.cache = Some(PathBuf::from(dir)),
                ("--seed", Some(seed)) => {
                    parsed.root_seed = seed
                        .parse()
                        .map_err(|_| format!("--seed takes a u64, got {seed:?}"))?;
                }
                (_, value) => {
                    parsed.rest.push(name.to_string());
                    parsed.rest.extend(value);
                }
            }
        }
        Ok(parsed)
    }

    /// Prints `message` and the binary's usage on stderr and exits with
    /// status 2: the answer to a binary-specific value the binary cannot
    /// use.
    pub fn usage_error(&self, message: &str) -> ! {
        exit_with_usage(self.usage, message)
    }

    /// The execution mode implied by the flags.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        if self.sequential {
            ExecMode::Sequential
        } else {
            ExecMode::Sharded
        }
    }

    /// Whether a binary-specific switch was passed.  `name` must be a
    /// switch the usage declares.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        debug_assert!(
            declared_flags(self.usage).any(|flag| flag == (name, false)),
            "{name} is not a switch of the usage"
        );
        self.rest.iter().any(|a| a == name)
    }

    /// The value following a binary-specific `--name value` pair.  `name`
    /// must be a value flag the usage declares.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(
            declared_flags(self.usage).any(|flag| flag == (name, true)),
            "{name} is not a value flag of the usage"
        );
        // Values never start with `--`, so a flag name cannot be mistaken
        // for another flag's value.
        self.rest
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    /// The value of `--name` parsed as a `T`; a malformed value prints the
    /// usage and exits with status 2 ([`ExpArgs::usage_error`]).
    #[must_use]
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|value| {
            value
                .parse()
                .unwrap_or_else(|_| self.usage_error(&format!("{name}: malformed value {value:?}")))
        })
    }

    /// Writes the JSON report if `--json` was passed.
    pub fn write_json<T: Serialize>(&self, experiment: &str, records: &[T]) {
        if let Some(path) = &self.json {
            write_json_records(path, experiment, self.root_seed, records);
        }
    }

    /// Runs `spec` through [`execute_grid`](crate::grid::execute_grid) —
    /// the same path the `rr-sweepd` daemon runs spooled jobs through —
    /// honouring `--sequential`, `--ledger` and `--cache`.  This is the one
    /// grid-execution entry point the `exp_*` binaries share.
    ///
    /// # Panics
    ///
    /// Panics on ledger/cache I/O errors — in an experiment binary these
    /// are fatal configuration errors.
    #[must_use]
    pub fn run_grid(&self, spec: &crate::grid::GridSpec) -> crate::grid::GridRun {
        let cache = self.cache.as_deref().map(|dir| {
            crate::cache::ResultCache::open(dir)
                .unwrap_or_else(|e| panic!("opening cache {}: {e}", dir.display()))
        });
        let options = crate::grid::ExecOptions {
            mode: Some(self.mode()),
            ledger: self.ledger.clone(),
            cache: cache.as_ref(),
        };
        let run = crate::grid::execute_grid(spec, &options)
            .unwrap_or_else(|e| panic!("executing {}: {e}", spec.experiment));
        if run.stats.from_cache {
            println!(
                "# {}: served from result cache ({} cells, key {:016x})",
                spec.experiment,
                run.stats.cells_reused,
                spec.cache_key()
            );
        } else if run.stats.cells_reused > 0 {
            println!(
                "# {}: resumed ledger with {} durable cells, executed {}",
                spec.experiment, run.stats.cells_reused, run.stats.cells_executed
            );
        }
        run
    }

    /// The shared tail of every grid binary: write the `--json` report
    /// (when this invocation executed the full grid — a cache-served or
    /// resumed run's complete artifact is the ledger), then exit non-zero
    /// if any cell of the whole grid failed verification.
    pub fn finish_grid(&self, spec: &crate::grid::GridSpec, run: &crate::grid::GridRun) {
        if run.records.len() == run.stats.cells_total {
            match &run.records {
                crate::grid::GridRecords::Sweep(records) => {
                    self.write_json(&spec.experiment, records);
                }
                crate::grid::GridRecords::Align(records) => {
                    self.write_json(&spec.experiment, records);
                }
            }
        } else if self.json.is_some() {
            println!(
                "# {}: skipping --json ({} of {} cells executed here; the ledger holds the full record stream)",
                spec.experiment,
                run.records.len(),
                run.stats.cells_total
            );
        }
        exit_if_failed(
            &spec.experiment,
            usize::try_from(run.stats.failures).unwrap_or(usize::MAX),
            run.stats.cells_total,
        );
    }
}

/// Parses a byte-size CLI value: a plain integer (bytes) or an integer with
/// a binary suffix — `KiB`/`MiB`/`GiB`, or the shorthands `K`/`M`/`G`
/// (case-insensitive).  `None` on malformed input or overflow.
#[must_use]
pub fn parse_byte_size(input: &str) -> Option<u64> {
    let lower = input.trim().to_ascii_lowercase();
    let units: [(&str, u64); 6] = [
        ("kib", 1 << 10),
        ("mib", 1 << 20),
        ("gib", 1 << 30),
        ("k", 1 << 10),
        ("m", 1 << 20),
        ("g", 1 << 30),
    ];
    for (suffix, mult) in units {
        if let Some(number) = lower.strip_suffix(suffix) {
            let value: u64 = number.trim().parse().ok()?;
            return value.checked_mul(mult);
        }
    }
    lower.parse().ok()
}

/// Exits with status 1 when any record failed verification, printing a
/// summary first — this is what makes the CI smoke job an actual gate.
pub fn exit_if_failed(experiment: &str, failures: usize, total: usize) {
    if failures > 0 {
        eprintln!("{experiment}: {failures}/{total} instances FAILED verification");
        std::process::exit(1);
    }
    println!("# {experiment}: all {total} instances verified");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_depend_on_coordinates_not_order() {
        let sweep = Sweep {
            experiment: "T".into(),
            task: Task::Gathering,
            instances: vec![(8, 4), (10, 3)],
            schedulers: vec![SchedulerKind::RoundRobin, SchedulerKind::SemiSynchronous],
            seeds_per_cell: 2,
            root_seed: 7,
            targets: TaskTargets::open_ended(),
            budget_per_n: 1_000,
            budget_flat: 0,
            async_budget_factor: 2,
        };
        let jobs = sweep.jobs();
        assert_eq!(jobs.len(), 8);
        // All seeds distinct.
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
        // Reversing the instance list permutes jobs but keeps per-cell seeds.
        let mut reversed = sweep.clone();
        reversed.instances.reverse();
        let rjobs = reversed.jobs();
        assert_eq!(jobs[0].seed, rjobs[4].seed);
    }

    #[test]
    fn cells_are_claimed_by_descending_budget_ties_in_declaration_order() {
        // Cells run (round-robin, ssync, async) per instance; the budget is
        // 1000·n, doubled for async when the factor is 2.
        let order = |instances: &[(usize, usize)], async_budget_factor, skip| {
            let sweep = Sweep {
                experiment: "T".into(),
                task: Task::Gathering,
                instances: instances.to_vec(),
                schedulers: SchedulerKind::ALL.to_vec(),
                seeds_per_cell: 1,
                root_seed: 7,
                targets: TaskTargets::open_ended(),
                budget_per_n: 1_000,
                budget_flat: 0,
                async_budget_factor,
            };
            claim_order(&sweep.jobs(), skip)
        };
        // Smallest first, as the presets declare them: the largest
        // instance's async cell leads.
        assert_eq!(order(&[(8, 4), (10, 3)], 2, 0), [5, 2, 3, 4, 0, 1]);
        // (10,3) async ties (20,4) rr and ssync at 20,000 and, declared
        // first, is claimed first.
        assert_eq!(order(&[(10, 3), (20, 4)], 2, 0), [5, 2, 3, 4, 0, 1]);
        assert_eq!(order(&[(20, 4), (10, 3)], 2, 0), [2, 0, 1, 5, 3, 4]);
        // Factor 1: every cell of an instance ties, so instances run
        // largest first and their cells in declaration order.
        assert_eq!(
            order(&[(8, 4), (12, 5), (10, 3)], 1, 0),
            [3, 4, 5, 6, 7, 8, 0, 1, 2]
        );
        // Resume drops the first `skip` cells before sorting, the costliest
        // one included.
        assert_eq!(order(&[(20, 4), (10, 3)], 2, 1), [2, 1, 5, 3, 4]);
        assert_eq!(order(&[(20, 4), (10, 3)], 2, 3), [5, 3, 4]);
        assert!(order(&[(8, 4), (10, 3)], 2, 6).is_empty());
        assert!(order(&[(8, 4), (10, 3)], 2, 99).is_empty());
    }

    const TEST_USAGE: &str = "\
usage: exp_test [--quick] [--json <path>] [--seed <u64>] [--sequential]
                [--ledger <path>] [--cache <dir>] [--max-n <usize>] [--no-validate]";

    fn parse_args(args: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::from_args(args.iter().map(ToString::to_string), 5, TEST_USAGE)
    }

    #[test]
    fn usage_declares_switches_and_value_flags() {
        let flags: Vec<(&str, bool)> = declared_flags(
            "usage: exp_x [--quick] [--store mem|spill] [--only task:n:k[:mode]] [--with-4-7]",
        )
        .collect();
        assert_eq!(
            flags,
            [
                ("--quick", false),
                ("--store", true),
                ("--only", true),
                ("--with-4-7", false)
            ]
        );
    }

    #[test]
    fn exp_args_reject_undeclared_flags_and_missing_or_malformed_values() {
        let cases: [(&[&str], &str); 9] = [
            (&["--worker", "4"], "unknown argument \"--worker\""),
            (&["--quick", "stray"], "unknown argument \"stray\""),
            (&["--json"], "--json requires a value"),
            (&["--max-n", "--quick"], "--max-n requires a value"),
            (&["--seed", "abc"], "--seed takes a u64, got \"abc\""),
            (&["--seed", "-1"], "--seed takes a u64, got \"-1\""),
            (&["--seed", "1", "--seed", "2"], "--seed given twice"),
            (
                &["--quick", "--max-n", "9", "--quick"],
                "--quick given twice",
            ),
            (&["--max-n", "9", "--max-n", "9"], "--max-n given twice"),
        ];
        for (args, message) in cases {
            assert_eq!(parse_args(args).unwrap_err(), message, "{args:?}");
        }
    }

    #[test]
    fn split_args_rejects_a_flag_given_twice_but_not_a_repeated_positional() {
        let usage = "usage: tool <file>... [--seed <u64>] [--quick]";
        let split = |args: &[&str]| split_args(args.iter().map(ToString::to_string), usage);
        let (positional, flags) = split(&["a", "a", "--seed", "3", "--quick"]).unwrap();
        assert_eq!(positional, ["a", "a"]);
        assert_eq!(
            flags,
            [("--seed", Some("3".to_string())), ("--quick", None)]
        );
        for args in [
            &["--seed", "1", "--seed", "2"][..],
            &["--seed", "1", "a", "--seed", "1"],
        ] {
            assert_eq!(split(args).unwrap_err(), "--seed given twice", "{args:?}");
        }
        assert_eq!(
            split(&["--quick", "--quick"]).unwrap_err(),
            "--quick given twice"
        );
    }

    #[test]
    fn exp_args_parse_all_flags() {
        let args = ExpArgs::from_args(
            [
                "--quick",
                "--json",
                "out.json",
                "--seed",
                "99",
                "--max-n",
                "14",
                "--sequential",
                "--ledger",
                "out.jsonl",
                "--cache",
                "cachedir",
            ]
            .iter()
            .map(ToString::to_string),
            5,
            TEST_USAGE,
        )
        .unwrap();
        assert!(args.quick);
        assert!(args.sequential);
        assert_eq!(args.mode(), ExecMode::Sequential);
        assert_eq!(args.root_seed, 99);
        assert_eq!(args.json.as_deref(), Some(Path::new("out.json")));
        assert_eq!(args.ledger.as_deref(), Some(Path::new("out.jsonl")));
        assert_eq!(args.cache.as_deref(), Some(Path::new("cachedir")));
        assert_eq!(args.value("--max-n"), Some("14"));
        assert_eq!(args.parsed::<usize>("--max-n"), Some(14));
        assert!(!args.flag("--no-validate"));
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.root_seed, 5);
        assert_eq!(defaults.parsed::<usize>("--max-n"), None);
    }

    #[test]
    fn byte_sizes_parse_with_and_without_suffixes() {
        assert_eq!(parse_byte_size("0"), Some(0));
        assert_eq!(parse_byte_size("4096"), Some(4096));
        assert_eq!(parse_byte_size("64KiB"), Some(64 << 10));
        assert_eq!(parse_byte_size("64MiB"), Some(64 << 20));
        assert_eq!(parse_byte_size("2gib"), Some(2 << 30));
        assert_eq!(parse_byte_size(" 8 M "), Some(8 << 20));
        assert_eq!(parse_byte_size("1G"), Some(1 << 30));
        assert_eq!(parse_byte_size("banana"), None);
        assert_eq!(parse_byte_size("12.5MiB"), None);
        assert_eq!(parse_byte_size(&format!("{}GiB", u64::MAX)), None);
    }

    #[test]
    fn run_record_json_skips_wall_time() {
        let record = RunRecord {
            experiment: "T".into(),
            task: "gathering".into(),
            n: 8,
            k: 4,
            scheduler: "round-robin".into(),
            seed: 1,
            rounds: 10,
            cycles: 10,
            moves: 5,
            clearings: 0,
            steady_period: 0,
            explorations: 0,
            gathered: true,
            ok: true,
            detail: String::new(),
            wall_nanos: 123_456,
        };
        let json = serde_json::to_string(&record).unwrap();
        assert!(!json.contains("wall"));
        assert!(json.contains("\"task\":\"gathering\""));
        assert!(json.contains("\"ok\":true"));
    }
}
