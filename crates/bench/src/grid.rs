//! Durable grid declarations and the one grid-execution path.
//!
//! A [`GridSpec`] is a [`crate::sweep::Sweep`] (or an Align
//! measurement grid) **as data**: it has a canonical line-oriented text
//! encoding (`rr-sweepd-grid/v1`) that round-trips through
//! [`GridSpec::canonical_encoding`] / [`GridSpec::parse`], lands in the
//! sweep service's spool as a file, and — hashed together with the engine's
//! semantic version — addresses the job's result in the content-addressed
//! [`ResultCache`].
//!
//! [`execute_grid`] is the single execution path: the `rr-sweepd` daemon
//! calls it for every spooled job, and the `exp_*` binaries call it through
//! [`ExpArgs::run_grid`](crate::sweep::ExpArgs::run_grid) — so an
//! experiment run at the shell and a job submitted to the service produce
//! the same ledger bytes by construction.  It consults the cache, resumes a
//! partial ledger at the first missing cell, streams completed records into
//! the ledger (fsync'd per contiguous batch) and publishes the completed
//! ledger back to the cache.
//!
//! The encoding is deliberately *not* JSON: the vendored serde stack is
//! serialize-only, and a line-oriented `key=value` format keeps hand-written
//! spec files reviewable.  Example:
//!
//! ```text
//! rr-sweepd-grid/v1
//! experiment=E6
//! root_seed=230
//! instances=8x4,10x3,12x5
//! kind=sweep
//! task=gathering
//! schedulers=round-robin,ssync,async
//! seeds_per_cell=1
//! clearings=0
//! explorations=0
//! budget_per_n=100000
//! budget_flat=0
//! async_budget_factor=2
//! ```

use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use rr_corda::{RobotSet, SchedulerKind};
use rr_core::driver::TaskTargets;
use rr_core::unified::Task;
use serde::Serialize;

use crate::cache::{cache_key, ResultCache};
use crate::ledger::{self, Ledger, LedgerResume};
use crate::sweep::{
    grid_map, task_slug, ExecMode, RunOptions, RunRecord, Sweep, SweepHeader, MAX_SEEDS_PER_CELL,
};

/// First line of every encoded grid.
pub const GRID_MAGIC: &str = "rr-sweepd-grid/v1";

/// One Align convergence measurement (schema `rr-sweep/v1`, experiment
/// `E3`): moves to reach `C*` over a set of rigid starts.
///
/// Lives here (not in `exp_align`) because Align grids are first-class
/// sweep-service jobs: their records flow through the same ledgers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AlignRecord {
    /// Experiment identifier (e.g. "E3").
    pub experiment: String,
    /// Ring size.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Starting configurations measured.
    pub starts: usize,
    /// Minimum moves to reach `C*`.
    pub min_moves: u64,
    /// Maximum moves to reach `C*`.
    pub max_moves: u64,
    /// Total moves over all starts (for averaging).
    pub total_moves: u64,
    /// Whether every start converged to `C*`.
    pub ok: bool,
}

/// What kind of cells a grid expands to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridKind {
    /// A [`Sweep`] over the batch driver: one [`RunRecord`] per
    /// (instance, scheduler, seed) cell.
    Sweep {
        /// The task every cell runs.
        task: Task,
        /// Scheduler families, in declaration order.
        schedulers: Vec<SchedulerKind>,
        /// Seeded repetitions per (instance, scheduler) cell.
        seeds_per_cell: u64,
        /// Early-stop targets (0/0 = open-ended).
        targets: TaskTargets,
        /// Step budget: `budget_per_n * n + budget_flat`.
        budget_per_n: u64,
        /// Flat part of the step budget.
        budget_flat: u64,
        /// Extra budget factor for the asynchronous adversary.
        async_budget_factor: u64,
    },
    /// An Align convergence grid: one [`AlignRecord`] per `(n, k)` instance
    /// (exhaustive starts for `n <= 14`, `sample_starts` random rigid starts
    /// otherwise — mirroring `measure_align`).
    Align {
        /// Random-start sample size for large rings.
        sample_starts: usize,
    },
}

/// A complete, durable grid declaration: experiment id, root seed, the
/// `(n, k)` instance list and the cell family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    /// Experiment identifier stamped into every record (e.g. "E6").  Also
    /// used in spool file names, so it is restricted to `[A-Za-z0-9._-]`.
    pub experiment: String,
    /// Root seed; all cell randomness derives from it.
    pub root_seed: u64,
    /// The `(n, k)` instance list, in declaration order.
    pub instances: Vec<(usize, usize)>,
    /// The cell family.
    pub kind: GridKind,
}

fn parse_task(slug: &str) -> Option<Task> {
    [Task::Exploration, Task::GraphSearching, Task::Gathering]
        .into_iter()
        .find(|&t| task_slug(t) == slug)
}

fn parse_scheduler(name: &str) -> Option<SchedulerKind> {
    SchedulerKind::ALL.into_iter().find(|k| k.name() == name)
}

impl GridSpec {
    /// The canonical `rr-sweepd-grid/v1` encoding: fixed key order, no
    /// comments, one trailing newline.  These exact bytes are what the
    /// content-addressed cache key hashes, so two specs are interchangeable
    /// iff their canonical encodings are byte-equal.
    #[must_use]
    pub fn canonical_encoding(&self) -> String {
        let mut out = String::new();
        out.push_str(GRID_MAGIC);
        out.push('\n');
        out.push_str(&format!("experiment={}\n", self.experiment));
        out.push_str(&format!("root_seed={}\n", self.root_seed));
        let instances: Vec<String> = self
            .instances
            .iter()
            .map(|(n, k)| format!("{n}x{k}"))
            .collect();
        out.push_str(&format!("instances={}\n", instances.join(",")));
        match &self.kind {
            GridKind::Sweep {
                task,
                schedulers,
                seeds_per_cell,
                targets,
                budget_per_n,
                budget_flat,
                async_budget_factor,
            } => {
                out.push_str("kind=sweep\n");
                out.push_str(&format!("task={}\n", task_slug(*task)));
                let names: Vec<&str> = schedulers.iter().map(|s| s.name()).collect();
                out.push_str(&format!("schedulers={}\n", names.join(",")));
                out.push_str(&format!("seeds_per_cell={seeds_per_cell}\n"));
                out.push_str(&format!("clearings={}\n", targets.clearings));
                out.push_str(&format!("explorations={}\n", targets.explorations));
                out.push_str(&format!("budget_per_n={budget_per_n}\n"));
                out.push_str(&format!("budget_flat={budget_flat}\n"));
                out.push_str(&format!("async_budget_factor={async_budget_factor}\n"));
            }
            GridKind::Align { sample_starts } => {
                out.push_str("kind=align\n");
                out.push_str(&format!("sample_starts={sample_starts}\n"));
            }
        }
        out
    }

    /// Parses an `rr-sweepd-grid/v1` document.  Accepts blank lines and `#`
    /// comments (hand-written spec files), but [`GridSpec::canonical_encoding`]
    /// of the result is canonical regardless of the input formatting.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn parse(text: &str) -> Result<GridSpec, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some(GRID_MAGIC) {
            return Err(format!("missing magic first line `{GRID_MAGIC}`"));
        }
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        for line in lines {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed line `{line}` (expected key=value)"))?;
            pairs.push((key.trim(), value.trim()));
        }
        let get = |key: &str| -> Result<&str, String> {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("missing key `{key}`"))
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            get(key)?.parse().map_err(|e| format!("key `{key}`: {e}"))
        };

        let experiment = get("experiment")?.to_string();
        if experiment.is_empty()
            || !experiment
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
        {
            return Err(format!(
                "experiment id `{experiment}` must be non-empty [A-Za-z0-9._-]"
            ));
        }
        let root_seed = get_u64("root_seed")?;
        let mut instances = Vec::new();
        for item in get("instances")?.split(',').map(str::trim) {
            let (n, k) = item
                .split_once('x')
                .ok_or_else(|| format!("instance `{item}` is not NxK"))?;
            let n: usize = n.parse().map_err(|e| format!("instance `{item}`: {e}"))?;
            let k: usize = k.parse().map_err(|e| format!("instance `{item}`: {e}"))?;
            if k == 0 || k >= n {
                return Err(format!("instance `{item}`: need 1 <= k < n"));
            }
            if k > RobotSet::CAPACITY {
                return Err(format!(
                    "instance `{item}`: the engine runs at most {} robots",
                    RobotSet::CAPACITY
                ));
            }
            instances.push((n, k));
        }
        if instances.is_empty() {
            return Err("empty instance list".to_string());
        }

        let kind = match get("kind")? {
            "sweep" => {
                let task_name = get("task")?;
                let task =
                    parse_task(task_name).ok_or_else(|| format!("unknown task `{task_name}`"))?;
                let mut schedulers = Vec::new();
                for name in get("schedulers")?.split(',').map(str::trim) {
                    schedulers.push(
                        parse_scheduler(name)
                            .ok_or_else(|| format!("unknown scheduler `{name}`"))?,
                    );
                }
                if schedulers.is_empty() {
                    return Err("empty scheduler list".to_string());
                }
                GridKind::Sweep {
                    task,
                    schedulers,
                    seeds_per_cell: get_u64("seeds_per_cell")?.max(1),
                    targets: TaskTargets {
                        clearings: get_u64("clearings")?,
                        explorations: get_u64("explorations")?,
                    },
                    budget_per_n: get_u64("budget_per_n")?,
                    budget_flat: get_u64("budget_flat")?,
                    async_budget_factor: get_u64("async_budget_factor")?,
                }
            }
            "align" => GridKind::Align {
                sample_starts: usize::try_from(get_u64("sample_starts")?)
                    .map_err(|e| e.to_string())?,
            },
            other => return Err(format!("unknown kind `{other}`")),
        };
        let spec = GridSpec {
            experiment,
            root_seed,
            instances,
            kind,
        };
        spec.checked_cells()
            .ok_or("the cell count overflows a usize")?;
        if let GridKind::Sweep {
            schedulers,
            seeds_per_cell,
            ..
        } = &spec.kind
        {
            if *seeds_per_cell > MAX_SEEDS_PER_CELL {
                return Err(format!(
                    "seeds_per_cell = {seeds_per_cell} exceeds {MAX_SEEDS_PER_CELL}, \
                     the most seeds per cell that get distinct seeds"
                ));
            }
            let sweep = spec.to_sweep();
            for &(n, _) in &spec.instances {
                for &scheduler in schedulers {
                    sweep.step_budget(n, scheduler).ok_or_else(|| {
                        format!("the {} step budget of n = {n} overflows", scheduler.name())
                    })?;
                }
            }
        }
        Ok(spec)
    }

    /// The number of cells (= ledger records) this grid expands to.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows a `usize`, which [`GridSpec::parse`]
    /// rejects.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.checked_cells().expect("the cell count fits a usize")
    }

    fn checked_cells(&self) -> Option<usize> {
        match &self.kind {
            GridKind::Sweep {
                schedulers,
                seeds_per_cell,
                ..
            } => self
                .instances
                .len()
                .checked_mul(schedulers.len())?
                .checked_mul(usize::try_from(*seeds_per_cell).ok()?),
            GridKind::Align { .. } => Some(self.instances.len()),
        }
    }

    /// The content-address of this grid's result under the current engine:
    /// FNV-1a over the canonical encoding folded with
    /// [`rr_corda::ENGINE_VERSION`].
    #[must_use]
    pub fn cache_key(&self) -> u64 {
        cache_key(&self.canonical_encoding(), rr_corda::ENGINE_VERSION)
    }

    /// A stable job identifier for spool file names:
    /// `<experiment>-<cache key in hex>`.  Identical grids get identical
    /// ids, which is what makes submission idempotent.
    #[must_use]
    pub fn job_id(&self) -> String {
        format!("{}-{:016x}", self.experiment, self.cache_key())
    }

    /// The `rr-sweep/v1` header every ledger of this grid opens with —
    /// **bound to the grid's content**: the header line carries the grid's
    /// [`cache_key`](GridSpec::cache_key) in hex and its declared cell
    /// count, so two grids sharing an experiment id and root seed but
    /// differing in shape (a `--quick` preset vs the full one, say) can
    /// never byte-match each other's ledgers on resume or in the cache.
    #[must_use]
    pub fn header(&self) -> SweepHeader {
        SweepHeader::new(&self.experiment, self.root_seed)
            .for_grid(self.cache_key(), self.cells() as u64)
    }

    /// The [`Sweep`] this grid declares.
    ///
    /// # Panics
    ///
    /// Panics when called on an Align grid — dispatch on [`GridSpec::kind`]
    /// first.
    #[must_use]
    pub fn to_sweep(&self) -> Sweep {
        let GridKind::Sweep {
            task,
            schedulers,
            seeds_per_cell,
            targets,
            budget_per_n,
            budget_flat,
            async_budget_factor,
        } = &self.kind
        else {
            panic!("to_sweep on an align grid");
        };
        Sweep {
            experiment: self.experiment.clone(),
            task: *task,
            instances: self.instances.clone(),
            schedulers: schedulers.clone(),
            seeds_per_cell: *seeds_per_cell,
            root_seed: self.root_seed,
            targets: *targets,
            budget_per_n: *budget_per_n,
            budget_flat: *budget_flat,
            async_budget_factor: *async_budget_factor,
        }
    }
}

/// The built-in grid presets: exactly the grids the `exp_*` binaries run,
/// by name.  Because the preset and the binary build the same [`GridSpec`]
/// (hence the same canonical encoding), a grid submitted to the sweep
/// service by preset name and an `exp_* --quick` run with a `--cache`
/// share one content-addressed cache entry.
///
/// Recognized names (case-insensitive): `e3`/`align`, `e4`/`clearing`,
/// `e5`/`nminus3`, `e6`/`gathering`.  `quick` applies the binaries'
/// `--quick` instance filter (`n <= 16`); `root_seed: None` uses the
/// experiment's canonical default seed (`0xE3`, `0xE4`, ...).
#[must_use]
pub fn preset(name: &str, quick: bool, root_seed: Option<u64>) -> Option<GridSpec> {
    let filtered = |instances: &[(usize, usize)]| -> Vec<(usize, usize)> {
        if quick {
            instances
                .iter()
                .copied()
                .filter(|&(n, _)| n <= 16)
                .collect()
        } else {
            instances.to_vec()
        }
    };
    let sweep_kind = |task, schedulers: &[SchedulerKind], targets, budget_per_n| GridKind::Sweep {
        task,
        schedulers: schedulers.to_vec(),
        seeds_per_cell: 1,
        targets,
        budget_per_n,
        budget_flat: 0,
        async_budget_factor: 2,
    };
    let spec = |experiment: &str, default_seed, instances, kind| GridSpec {
        experiment: experiment.to_string(),
        root_seed: root_seed.unwrap_or(default_seed),
        instances,
        kind,
    };
    match name.to_ascii_lowercase().as_str() {
        "e3" | "align" => Some(spec(
            "E3",
            0xE3,
            filtered(crate::ALIGN_INSTANCES),
            GridKind::Align { sample_starts: 64 },
        )),
        "e4" | "clearing" => Some(spec(
            "E4",
            0xE4,
            filtered(crate::CLEARING_INSTANCES),
            sweep_kind(
                Task::GraphSearching,
                &SchedulerKind::ALL,
                TaskTargets::demonstrate(10, 1),
                30_000,
            ),
        )),
        "e5" | "nminus3" => Some(spec(
            "E5",
            0xE5,
            crate::NMINUS3_RINGS
                .iter()
                .copied()
                .filter(|&n| !quick || n <= 16)
                .map(|n| (n, n - 3))
                .collect(),
            sweep_kind(
                Task::GraphSearching,
                &[SchedulerKind::RoundRobin],
                TaskTargets::demonstrate(20, 1),
                60_000,
            ),
        )),
        "e6" | "gathering" => Some(spec(
            "E6",
            0xE6,
            filtered(crate::GATHERING_INSTANCES),
            sweep_kind(
                Task::Gathering,
                &SchedulerKind::ALL,
                TaskTargets::open_ended(),
                100_000,
            ),
        )),
        _ => None,
    }
}

/// One executed Align cell (mirrors `exp_align`'s historical behaviour:
/// exhaustive starts on small rings, seeded samples on large ones).
fn run_align_cell(experiment: &str, n: usize, k: usize, sample_starts: usize) -> AlignRecord {
    let max_starts = if n <= 14 { usize::MAX } else { sample_starts };
    let stats = rr_checker::verify::measure_align(n, k, max_starts);
    AlignRecord {
        experiment: experiment.to_string(),
        n,
        k,
        starts: stats.starts,
        min_moves: stats.min_moves,
        max_moves: stats.max_moves,
        total_moves: stats.total_moves,
        ok: stats.all_converged,
    }
}

/// The records produced by one [`execute_grid`] call (executed cells only —
/// cells served from the cache or already durable in a resumed ledger are
/// in the ledger, not here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridRecords {
    /// Records of a [`GridKind::Sweep`] grid.
    Sweep(Vec<RunRecord>),
    /// Records of a [`GridKind::Align`] grid.
    Align(Vec<AlignRecord>),
}

impl GridRecords {
    /// The sweep records, when this was a sweep grid.
    #[must_use]
    pub fn sweep(&self) -> Option<&[RunRecord]> {
        match self {
            GridRecords::Sweep(r) => Some(r),
            GridRecords::Align(_) => None,
        }
    }

    /// The align records, when this was an align grid.
    #[must_use]
    pub fn align(&self) -> Option<&[AlignRecord]> {
        match self {
            GridRecords::Align(r) => Some(r),
            GridRecords::Sweep(_) => None,
        }
    }

    /// Number of records held here.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            GridRecords::Sweep(r) => r.len(),
            GridRecords::Align(r) => r.len(),
        }
    }

    /// Whether no records were executed by this call.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What one [`execute_grid`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Cells the grid declares.
    pub cells_total: usize,
    /// Cells actually run by this call.
    pub cells_executed: usize,
    /// Cells that were already durable (resumed ledger prefix, a cache hit,
    /// or an already-complete ledger).
    pub cells_reused: usize,
    /// Failed cells over the **whole** grid (durable prefix included).
    pub failures: u64,
    /// Whether the result was served from the content-addressed cache.
    pub from_cache: bool,
}

/// Outcome of [`execute_grid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRun {
    /// What happened.
    pub stats: ExecutionStats,
    /// The executed cells' records.
    pub records: GridRecords,
}

/// Options for [`execute_grid`].
#[derive(Debug, Clone, Default)]
pub struct ExecOptions<'a> {
    /// Cell execution mode (sequential by default).
    pub mode: Option<ExecMode>,
    /// Ledger file to stream records into (resuming any durable prefix).
    /// Without one, the run is in-memory only (and the cache, if any, is
    /// consulted but a miss is executed without producing a durable ledger).
    pub ledger: Option<PathBuf>,
    /// Content-addressed result cache to consult and publish to.
    pub cache: Option<&'a ResultCache>,
}

fn empty_records_for(spec: &GridSpec) -> GridRecords {
    match spec.kind {
        GridKind::Sweep { .. } => GridRecords::Sweep(Vec::new()),
        GridKind::Align { .. } => GridRecords::Align(Vec::new()),
    }
}

/// **The** grid-execution path, shared by the `rr-sweepd` daemon and the
/// `exp_*` binaries (via [`ExpArgs::run_grid`](crate::sweep::ExpArgs::run_grid)).
///
/// Order of business: serve the whole grid from the cache if possible;
/// otherwise open (or resume) the ledger, run the cells that are not yet
/// durable — streaming each completed record into the ledger, which fsyncs
/// per contiguous batch — write the completion footer, and publish the
/// completed ledger to the cache.
///
/// # Errors
///
/// Propagates ledger/cache I/O errors.
///
/// # Panics
///
/// Panics when the grid declares an instance no rigid configuration exists
/// for (a spec-validation escape, not a runtime condition), or when a
/// ledger append fails inside a worker thread.
pub fn execute_grid(spec: &GridSpec, opts: &ExecOptions<'_>) -> io::Result<GridRun> {
    let cells_total = spec.cells();
    let mode = opts.mode.unwrap_or(ExecMode::Sequential);
    let header = spec.header();

    // A cache hit serves the whole grid without touching an engine.
    if let Some(cache) = opts.cache {
        let key = spec.cache_key();
        if let Some(ledger_path) = &opts.ledger {
            let existing = ledger::scan(ledger_path)?;
            let dest_complete = existing.is_complete()
                && existing.header.as_deref() == Some(header.to_json_line().as_str())
                && existing.footer.map(|(cells, _)| cells) == Some(cells_total as u64);
            if !dest_complete && cache.serve(key, &header, ledger_path)? {
                let found = ledger::scan(ledger_path)?;
                let (cells, failures) = found.footer.unwrap_or((0, 0));
                return Ok(GridRun {
                    stats: ExecutionStats {
                        cells_total,
                        cells_executed: 0,
                        cells_reused: usize::try_from(cells).unwrap_or(usize::MAX),
                        failures,
                        from_cache: true,
                    },
                    records: empty_records_for(spec),
                });
            }
        } else if cache.lookup(key, &header).is_some() {
            return Ok(GridRun {
                stats: ExecutionStats {
                    cells_total,
                    cells_executed: 0,
                    cells_reused: cells_total,
                    failures: 0,
                    from_cache: true,
                },
                records: empty_records_for(spec),
            });
        }
    }

    match &opts.ledger {
        Some(ledger_path) => {
            let (ledger, resume) = Ledger::open_or_create(ledger_path, &header)?;
            if let LedgerResume::Complete { cells, failures } = resume {
                if cells == cells_total as u64 {
                    // Repair a crash that hit between `Ledger::finish` and
                    // the publish below: the completed ledger enters the
                    // cache now, so the entry is never permanently missing.
                    if let Some(cache) = opts.cache {
                        if cache.lookup(spec.cache_key(), &header).is_none() {
                            cache.publish(spec.cache_key(), ledger_path)?;
                        }
                    }
                    return Ok(GridRun {
                        stats: ExecutionStats {
                            cells_total,
                            cells_executed: 0,
                            cells_reused: usize::try_from(cells).unwrap_or(usize::MAX),
                            failures,
                            from_cache: false,
                        },
                        records: empty_records_for(spec),
                    });
                }
            }
            // The header byte-match already binds the grid's content (cache
            // key + cell count), so a footer or record count disagreeing
            // with the declared shape can only be corruption: restart the
            // ledger rather than adopt foreign records.
            let (ledger, skip) = match resume {
                LedgerResume::Partial { records } if records <= cells_total => (ledger, records),
                LedgerResume::Fresh => (ledger, 0),
                LedgerResume::Partial { .. } | LedgerResume::Complete { .. } => {
                    drop(ledger);
                    (Ledger::create(ledger_path, &header)?, 0)
                }
            };
            let shared = Mutex::new(ledger);
            let records = run_cells(spec, mode, skip, Some(&shared));
            let mut ledger = shared.into_inner().expect("ledger lock");
            ledger.finish()?;
            let failures = ledger.failures();
            if let Some(cache) = opts.cache {
                cache.publish(spec.cache_key(), ledger_path)?;
            }
            Ok(GridRun {
                stats: ExecutionStats {
                    cells_total,
                    cells_executed: records.len(),
                    cells_reused: skip,
                    failures,
                    from_cache: false,
                },
                records,
            })
        }
        None => {
            let records = run_cells(spec, mode, 0, None);
            let failures = match &records {
                GridRecords::Sweep(r) => r.iter().filter(|r| !r.ok).count() as u64,
                GridRecords::Align(r) => r.iter().filter(|r| !r.ok).count() as u64,
            };
            Ok(GridRun {
                stats: ExecutionStats {
                    cells_total,
                    cells_executed: records.len(),
                    cells_reused: 0,
                    failures,
                    from_cache: false,
                },
                records,
            })
        }
    }
}

/// Runs cells `skip..` of the grid, streaming records into `ledger` (when
/// present) in cell order.
fn run_cells(
    spec: &GridSpec,
    mode: ExecMode,
    skip: usize,
    ledger: Option<&Mutex<Ledger>>,
) -> GridRecords {
    let append = |cell: usize, line_of: &dyn Fn() -> String| {
        if let Some(shared) = ledger {
            let mut guard = shared.lock().expect("ledger lock");
            guard
                .append_line(cell, line_of())
                .expect("appending to the sweep ledger");
        }
    };
    match &spec.kind {
        GridKind::Sweep { .. } => {
            let sweep = spec.to_sweep();
            let sink = |cell: usize, record: &RunRecord| {
                append(cell, &|| {
                    serde_json::to_string(record).expect("serializing a RunRecord")
                });
            };
            let options = RunOptions::new().mode(mode).resume_at(skip).progress(&sink);
            GridRecords::Sweep(sweep.run_with(&options))
        }
        GridKind::Align { sample_starts } => {
            let sample_starts = *sample_starts;
            let cells: Vec<(usize, (usize, usize))> = spec
                .instances
                .iter()
                .copied()
                .enumerate()
                .skip(skip)
                .collect();
            let records = grid_map(cells, mode, |(cell, (n, k))| {
                let record = run_align_cell(&spec.experiment, n, k, sample_starts);
                append(cell, &|| {
                    serde_json::to_string(&record).expect("serializing an AlignRecord")
                });
                record
            });
            GridRecords::Align(records)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> GridSpec {
        GridSpec {
            experiment: "E6".into(),
            root_seed: 230,
            instances: vec![(8, 4), (10, 3)],
            kind: GridKind::Sweep {
                task: Task::Gathering,
                schedulers: SchedulerKind::ALL.to_vec(),
                seeds_per_cell: 1,
                targets: TaskTargets::open_ended(),
                budget_per_n: 100_000,
                budget_flat: 0,
                async_budget_factor: 2,
            },
        }
    }

    #[test]
    fn canonical_encoding_roundtrips() {
        let spec = sample_spec();
        let encoded = spec.canonical_encoding();
        let parsed = GridSpec::parse(&encoded).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.canonical_encoding(), encoded);

        let align = GridSpec {
            experiment: "E3".into(),
            root_seed: 0xE3,
            instances: vec![(10, 4), (12, 5)],
            kind: GridKind::Align { sample_starts: 64 },
        };
        let parsed = GridSpec::parse(&align.canonical_encoding()).unwrap();
        assert_eq!(parsed, align);
    }

    #[test]
    fn parse_accepts_comments_and_canonicalizes() {
        let text = "\n# a hand-written spec\nrr-sweepd-grid/v1\n\nexperiment=E3\n\
                    root_seed=5\ninstances=10x4\nkind=align\n# trailing\nsample_starts=8\n";
        let spec = GridSpec::parse(text).unwrap();
        assert_eq!(spec.experiment, "E3");
        assert!(spec.canonical_encoding().starts_with(GRID_MAGIC));
    }

    #[test]
    fn parse_trims_spaces_around_list_items() {
        let encoded = sample_spec().canonical_encoding();
        let spaced = encoded
            .replace("instances=8x4,10x3", "instances=8x4, 10x3 ")
            .replace(
                "schedulers=round-robin,ssync,async",
                "schedulers=round-robin , ssync,  async",
            );
        assert_ne!(spaced, encoded);
        let parsed = GridSpec::parse(&spaced).unwrap();
        assert_eq!(parsed, sample_spec());
        assert_eq!(parsed.canonical_encoding(), encoded, "same cache key");
    }

    #[test]
    fn parse_caps_k_at_the_engine_capacity() {
        let with = |instances: &str| {
            format!(
                "rr-sweepd-grid/v1\nexperiment=E\nroot_seed=1\ninstances={instances}\n\
                 kind=align\nsample_starts=4\n"
            )
        };
        assert_eq!(
            GridSpec::parse(&with("70x64")).unwrap().instances,
            vec![(70, 64)]
        );
        let err = GridSpec::parse(&with("70x65")).unwrap_err();
        assert!(err.contains("at most 64 robots"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(GridSpec::parse("nope").is_err());
        let no_instances = "rr-sweepd-grid/v1\nexperiment=E\nroot_seed=1\ninstances=\nkind=align\nsample_starts=4\n";
        assert!(GridSpec::parse(no_instances).is_err());
        let bad_instance = "rr-sweepd-grid/v1\nexperiment=E\nroot_seed=1\ninstances=4x9\nkind=align\nsample_starts=4\n";
        assert!(
            GridSpec::parse(bad_instance).is_err(),
            "k >= n must be rejected"
        );
        let bad_exp = "rr-sweepd-grid/v1\nexperiment=a/b\nroot_seed=1\ninstances=9x4\nkind=align\nsample_starts=4\n";
        assert!(
            GridSpec::parse(bad_exp).is_err(),
            "path-unsafe experiment id"
        );
        let sweep = sample_spec().canonical_encoding();
        let too_many_cells =
            sweep.replace("seeds_per_cell=1", "seeds_per_cell=18446744073709551615");
        assert!(
            GridSpec::parse(&too_many_cells).is_err(),
            "2 instances x 3 schedulers x u64::MAX seeds"
        );
        let colliding_seeds = sweep.replace("seeds_per_cell=1", "seeds_per_cell=65537");
        assert!(
            GridSpec::parse(&colliding_seeds).is_err(),
            "seed 65536 of one scheduler would reuse seed 0 of the next"
        );
        let most_seeds = sweep.replace("seeds_per_cell=1", "seeds_per_cell=65536");
        assert_eq!(
            GridSpec::parse(&most_seeds).unwrap().cells(),
            2 * 3 * 65_536
        );
        let too_long = sweep.replace(
            "async_budget_factor=2",
            "async_budget_factor=2305843009213693952",
        );
        assert!(
            GridSpec::parse(&too_long).is_err(),
            "100000 x 10 steps x 2^61 overflows the async budget"
        );
    }

    #[test]
    fn cache_key_tracks_content() {
        let spec = sample_spec();
        let mut other = sample_spec();
        assert_eq!(spec.cache_key(), other.cache_key());
        other.root_seed += 1;
        assert_ne!(spec.cache_key(), other.cache_key());
        let mut quick = sample_spec();
        quick.instances.pop();
        assert_ne!(spec.cache_key(), quick.cache_key());
        assert!(spec.job_id().starts_with("E6-"));
    }

    #[test]
    fn cells_counts_both_kinds() {
        assert_eq!(sample_spec().cells(), 6);
        let align = GridSpec {
            experiment: "E3".into(),
            root_seed: 1,
            instances: vec![(10, 4), (12, 5), (14, 6)],
            kind: GridKind::Align { sample_starts: 4 },
        };
        assert_eq!(align.cells(), 3);
    }
}
