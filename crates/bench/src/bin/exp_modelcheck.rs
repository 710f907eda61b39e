//! E10/E11/E15 — exhaustive adversarial model checking over scheduler
//! interleavings.
//!
//! Where E3–E6 *sample* the adversary (64 seeds per cell), this experiment
//! *exhausts* it on small instances: for every rigid initial configuration
//! class of each cell, the checker enumerates **all** SSYNC activation
//! subsets and **all** ASYNC Look-Move phase interleavings, checks the
//! per-task safety invariants on every edge, and decides fair liveness by
//! SCC analysis — upgrading "verified on sampled schedules" to "proved for
//! all schedules".  The checker runs its packed-state engine (experiment
//! E11): states are stored bit-packed, every successor is admitted as it is
//! generated, and the reports are byte-identical for every storage backend.
//! Each rigid class is one independent search, so the binary runs one job
//! per (cell, class): the jobs of the whole grid share one thread pool,
//! claimed in reverse declaration order so that the large searching cells
//! declared last start first, and each cell's reports are folded back in
//! class order.
//!
//! Gathering and alignment cells run on the **canonical symmetry quotient**
//! with σ-threaded liveness (`check_protocol_quotient_with_stats`): states are
//! deduplicated up to ring rotation/reflection *and* robot relabeling, and
//! fairness is re-established over concrete robots by threading the
//! accumulated relabeling along quotient edges.  On the previously-proved
//! `n ≤ 10, k ≤ 5` grid every such cell is *additionally* checked concretely
//! and the two verdicts are compared — a verdict mismatch fails the cell.
//! Graph-searching cells carry auxiliary contamination state, which forces
//! exact keys; for them the quotient entry point degrades to the concrete
//! checker.
//!
//! Grid: gathering and Align on every claimed cell with `n ≤ 12, k ≤ 6`
//! (quick: `n ≤ 6, k ≤ 5`); graph searching additionally at its smallest
//! feasible instances `(n, k) = (11, 5)` (Ring Clearing) and `(10, 7)`
//! (NminusThree), plus the larger `(12, 5)` and `(11, 8)` in the full grid —
//! below `n = 10` searching is impossible (Theorem 5) and those cells are
//! recorded as vacuous.  `--max-n 14 --max-k 8` extends the sweep to the
//! proved `n ≤ 14, k ≤ 8` frontier (millions of states per searching cell —
//! pair it with `--store spill` and a tight `--mem-budget`, see E16).
//! Every record carries the cell's exploration
//! throughput (states/second), its deterministic memory profile
//! (`peak_resident_nodes`/`peak_resident_bytes`/`bytes_per_state`) and, under
//! `--store spill`, the bytes spilled to disk (experiment E15).
//!
//! ```text
//! exp_modelcheck [--quick] [--json <path>] [--seed <u64>] [--sequential]
//!                [--selftest] [--max-n <usize>] [--max-k <usize>]
//!                [--store mem|spill] [--mem-budget <bytes|KiB|MiB|GiB>]
//!                [--only task:n:k[:mode]] [--max-states <usize>] [--scale-bench]
//! ```
//!
//! `--sequential` runs every class job on one thread.  The first failing
//! class in class order decides a cell's verdict and counterexample; its
//! sums cover the classes before it and that class's own figures (none
//! when the engine rejected its initial state or the quotient/concrete
//! cross-check disagreed).  A record's wall time is the sum of its class
//! jobs' wall times, and its states/second is taken over that sum.
//! `--store spill` keeps packed states in delta-compressed clusters on disk
//! with a resident cache bounded by `--mem-budget` (default 64MiB) — the
//! report is byte-identical to `--store mem` minus the `store` and
//! `spilled_bytes` fields, which is exactly what CI's spill-smoke leg gates
//! on.  The budget applies to each running class, so a pool of `c` threads
//! keeps up to `c` budgets resident.  `--only gathering:12:6` (optionally
//! `:ssync`/`:async`) restricts the grid to one cell for targeted
//! out-of-core runs.  `--scale-bench` switches to experiment E16: one fixed
//! cell (default: the largest proved searching cell; override with
//! `--only`) explores its classes twice on the concrete checker, once on
//! one thread and once on a pool of `min(cores, classes)` threads, on the
//! spill backend (override with `--store`) under a tight visited-map budget
//! per running class (default 1 MiB, override with `--mem-budget`); the run
//! **fails unless every deterministic report field is byte-identical across
//! the two rows**, and the per-phase wall time (expansion vs batch end),
//! the row's wall time and the machine's core count are recorded per row.
//! A malformed `--only` or `--store` prints the usage and exits with
//! status 2.
//! `--selftest` checks that
//! a deliberately broken protocol (one decision-table entry mutated) is
//! *falsified* with a counterexample that replays on the engine — a canary
//! for the checker itself.

use std::time::Instant;

use rr_bench::sweep::{
    exit_if_failed, grid_map, parse_byte_size, ExecMode, ExpArgs, ModelCheckRecord, ScaleRecord,
};
use rr_checker::explore::{
    check_protocol_quotient_with_stats, check_protocol_with_stats, replay_counterexample,
    CheckOutcome, ExploreOptions, ExploreReport, MutatedProtocol, ViolationKind,
    DEFAULT_MAX_STATES, DEFAULT_MEM_BUDGET,
};
use rr_checker::{StoreKind, StoreStats};
use rr_corda::{Decision, InterleavingMode, Protocol, SimError, ViewIndex};
use rr_core::invariant::{AlignmentInvariant, GatheringInvariant, Invariant, SearchingInvariant};
use rr_core::unified::{protocol_for, Task};
use rr_core::{AlignProtocol, GatheringProtocol};
use rr_ring::enumerate::enumerate_rigid_configurations;
use rr_ring::Configuration;

/// The tasks of the model-check grid (Align is checked as its own task: it
/// is the shared first phase the other algorithms build on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellTask {
    Gathering,
    Alignment,
    Searching,
}

impl CellTask {
    const ALL: [CellTask; 3] = [
        CellTask::Gathering,
        CellTask::Alignment,
        CellTask::Searching,
    ];

    fn slug(self) -> &'static str {
        match self {
            CellTask::Gathering => "gathering",
            CellTask::Alignment => "alignment",
            CellTask::Searching => "graph-searching",
        }
    }

    fn from_slug(slug: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|task| task.slug() == slug)
    }
}

const USAGE: &str = "\
usage: exp_modelcheck [--quick] [--json <path>] [--seed <u64>] [--sequential]
                      [--selftest] [--max-n <usize>] [--max-k <usize>]
                      [--store mem|spill] [--mem-budget <bytes|KiB|MiB|GiB>]
                      [--only task:n:k[:mode]] [--max-states <usize>] [--scale-bench]
  task: gathering | alignment | graph-searching;  mode: ssync | async";

#[derive(Debug, Clone, Copy)]
struct Cell {
    task: CellTask,
    n: usize,
    k: usize,
    mode: InterleavingMode,
}

/// Per-call checker configuration derived from the CLI.
#[derive(Debug, Clone, Copy)]
struct CheckCfg {
    store: StoreKind,
    mem_budget: u64,
    max_states: usize,
}

impl CheckCfg {
    fn options(&self, mode: InterleavingMode) -> ExploreOptions {
        ExploreOptions::new(mode)
            .with_store(self.store)
            .with_mem_budget(self.mem_budget)
            .with_max_states(self.max_states)
    }
}

/// Whether the paper claims an algorithm for the cell.
fn claimed(task: CellTask, n: usize, k: usize) -> bool {
    match task {
        CellTask::Gathering => protocol_for(Task::Gathering, n, k).is_some(),
        // Align needs k ≥ 3 robots and a rigid configuration to exist.
        CellTask::Alignment => k >= 3 && k + 2 < n,
        CellTask::Searching => protocol_for(Task::GraphSearching, n, k).is_some(),
    }
}

/// The grid PR 8 and earlier proved with the concrete (exact-dedup) checker.
/// Cells inside it are dual-run — quotient *and* concrete — and their
/// verdicts compared; cells beyond it are proved on the quotient alone.
fn previously_proved(cell: &Cell) -> bool {
    cell.n <= 10 && cell.k <= 5
}

/// How a class job calls the checker.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// The grid's call: the quotient checker, cross-checked against the
    /// concrete one on the previously proved grid.
    Grid,
    /// E16's call: the concrete checker alone.
    Concrete,
}

/// One class job's result: the report with its store stats, or why the
/// class has none (the engine rejected its initial state, or the quotient
/// and concrete verdicts disagree).
type ClassRun = Result<(ExploreReport, StoreStats), String>;

/// Runs one (cell, class) job with the cell's protocol and invariant.
fn check_class(cell: &Cell, initial: &Configuration, cfg: &CheckCfg, check: Check) -> ClassRun {
    match cell.task {
        CellTask::Gathering => check_class_with(
            &GatheringProtocol::new(),
            &GatheringInvariant::new(),
            cell,
            initial,
            cfg,
            check,
        ),
        CellTask::Alignment => check_class_with(
            &AlignProtocol::new(),
            &AlignmentInvariant::new(),
            cell,
            initial,
            cfg,
            check,
        ),
        CellTask::Searching => {
            let protocol = protocol_for(Task::GraphSearching, cell.n, cell.k)
                .ok_or_else(|| format!("no searching protocol for ({}, {})", cell.n, cell.k))?;
            check_class_with(
                &protocol,
                &SearchingInvariant::new(),
                cell,
                initial,
                cfg,
                check,
            )
        }
    }
}

fn check_class_with<P: Protocol + Clone>(
    protocol: &P,
    invariant: &dyn Invariant,
    cell: &Cell,
    initial: &Configuration,
    cfg: &CheckCfg,
    check: Check,
) -> ClassRun {
    let options = cfg.options(cell.mode);
    if let Check::Concrete = check {
        return check_protocol_with_stats(protocol, initial, invariant, &options)
            .map_err(|e| format!("engine rejected {initial}: {e}"));
    }
    let rejected = |e: SimError| format!("engine rejected the initial state: {e}");
    let (report, stats) =
        check_protocol_quotient_with_stats(protocol, initial, invariant, &options)
            .map_err(rejected)?;
    if previously_proved(cell) {
        // Cross-check: on the grid the concrete checker already proved,
        // the quotient verdict must agree with the concrete one —
        // verified/falsified, and the violation kind when falsified.
        let concrete = check_protocol_with_stats(protocol, initial, invariant, &options)
            .map_err(rejected)?
            .0;
        let quotient_kind = report.counterexample().map(|ce| ce.kind);
        let concrete_kind = concrete.counterexample().map(|ce| ce.kind);
        if report.verified() != concrete.verified() || quotient_kind != concrete_kind {
            return Err(format!(
                "quotient/concrete verdict mismatch from {initial}: \
                 quotient {:?} vs concrete {:?}",
                report.outcome, concrete.outcome
            ));
        }
    }
    Ok((report, stats))
}

/// Folds a claimed cell's class runs into its record, in class order: the
/// first failing class sets `ok` and the counterexample and ends the fold.
fn fold_classes(record: &mut ModelCheckRecord, initials: &[Configuration], runs: Vec<ClassRun>) {
    record.ok = true;
    // Accumulated packed payload bytes, divided down to `bytes_per_state`
    // once every class is in.
    let mut state_bytes = 0u64;
    for (initial, run) in initials.iter().zip(runs) {
        let (report, stats) = match run {
            Ok(pair) => pair,
            Err(message) => {
                record.ok = false;
                record.counterexample = message;
                return;
            }
        };
        record.states += report.states as u64;
        record.quotient_states += report.quotient_states as u64;
        record.edges += report.edges;
        record.target_states += report.target_states as u64;
        record.progress_edges += report.progress_edges;
        record.peak_resident_nodes = record
            .peak_resident_nodes
            .max(report.peak_resident_nodes as u64);
        record.peak_resident_bytes = record.peak_resident_bytes.max(report.peak_resident_bytes);
        record.spilled_bytes += stats.spilled_bytes;
        record.visited_spilled_bytes += stats.visited_spilled_bytes;
        state_bytes += report.state_bytes;
        match &report.outcome {
            CheckOutcome::Verified => {}
            CheckOutcome::BudgetExceeded {
                discovered,
                completed_expansions,
            } => {
                record.ok = false;
                record.counterexample = format!(
                    "state budget exceeded from {initial}: {discovered} states discovered, \
                     {completed_expansions} expansions completed"
                );
                return;
            }
            CheckOutcome::Falsified(ce) => {
                record.ok = false;
                record.counterexample = format!("from {initial}: {}", ce.render());
                return;
            }
        }
    }
    record.bytes_per_state = state_bytes.checked_div(record.states).unwrap_or(0);
}

/// The record of one cell from its class runs (in class order) and their
/// summed wall time.
fn cell_record(
    cell: &Cell,
    initials: &[Configuration],
    runs: Vec<ClassRun>,
    wall_nanos: u128,
    cfg: &CheckCfg,
) -> ModelCheckRecord {
    let mut record = ModelCheckRecord {
        experiment: "E10".to_string(),
        task: cell.task.slug().to_string(),
        n: cell.n,
        k: cell.k,
        mode: cell.mode.name().to_string(),
        initial_classes: initials.len() as u64,
        states: 0,
        quotient_states: 0,
        edges: 0,
        target_states: 0,
        progress_edges: 0,
        peak_resident_nodes: 0,
        peak_resident_bytes: 0,
        bytes_per_state: 0,
        spilled_bytes: 0,
        visited_spilled_bytes: 0,
        store: cfg.store.to_string(),
        states_per_sec: 0,
        vacuous: false,
        ok: false,
        counterexample: String::new(),
        wall_nanos,
    };
    if initials.is_empty() {
        // Unclaimed, or claimed without a rigid initial class: nothing to
        // check.
        record.vacuous = true;
        record.ok = true;
        return record;
    }
    fold_classes(&mut record, initials, runs);
    record.states_per_sec = (u128::from(record.states) * 1_000_000_000)
        .checked_div(record.wall_nanos)
        .unwrap_or(0) as u64;
    record
}

/// The E10 grid as one job list: every (cell, class) pair runs as its own
/// job through one pool, and each cell's runs are folded back in class
/// order.  Each claimed cell's classes are enumerated once, here.
fn run_grid(cells: &[Cell], mode: ExecMode, cfg: &CheckCfg) -> Vec<ModelCheckRecord> {
    let classes: Vec<Vec<Configuration>> = cells
        .iter()
        .map(|cell| {
            if claimed(cell.task, cell.n, cell.k) {
                enumerate_rigid_configurations(cell.n, cell.k)
            } else {
                Vec::new()
            }
        })
        .collect();
    // Reverse declaration order: the frontier searching cells, declared
    // last and the costliest, start first; small cells fill in beside them.
    let jobs: Vec<(usize, usize)> = (0..cells.len())
        .flat_map(|c| (0..classes[c].len()).map(move |i| (c, i)))
        .rev()
        .collect();
    // Never a parallel map inside a job: each pool call starts its own
    // threads, so nesting would multiply them.
    let mut runs = grid_map(jobs, mode, |(c, i)| {
        let started = Instant::now();
        let run = check_class(&cells[c], &classes[c][i], cfg, Check::Grid);
        (run, started.elapsed().as_nanos())
    });
    runs.reverse();
    let mut runs = runs.into_iter();
    cells
        .iter()
        .zip(&classes)
        .map(|(cell, initials)| {
            let (cell_runs, walls): (Vec<ClassRun>, Vec<u128>) =
                runs.by_ref().take(initials.len()).unzip();
            cell_record(cell, initials, cell_runs, walls.iter().sum(), cfg)
        })
        .collect()
}

/// The canary: a gathering protocol with ONE decision-table entry mutated
/// (the initial class idles → fair no-progress lasso) and an Align protocol
/// with one entry mutated into a move (→ collision).  Both must be falsified
/// with counterexamples that replay on the engine.
fn selftest() -> Result<(), String> {
    // Liveness mutant.
    let initial = enumerate_rigid_configurations(7, 3)
        .into_iter()
        .next()
        .expect("rigid (7,3)");
    let mutant = MutatedProtocol::new(
        GatheringProtocol::new(),
        MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
        Decision::Idle,
    );
    for mode in [
        InterleavingMode::SsyncSubsets,
        InterleavingMode::AsyncPhases,
    ] {
        let report = check_protocol_with_stats(
            &mutant,
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(mode),
        )
        .map_err(|e| e.to_string())?
        .0;
        let Some(ce) = report.counterexample() else {
            return Err(format!("{mode}: idle mutant was NOT falsified"));
        };
        if ce.kind != ViolationKind::Liveness {
            return Err(format!("{mode}: expected a liveness counterexample"));
        }
        let replay = replay_counterexample(&mutant, &initial, &GatheringInvariant::new(), ce)
            .map_err(|e| e.to_string())?;
        if !replay.reproduced {
            return Err(format!("{mode}: lasso did not replay: {}", replay.detail));
        }
        println!("# selftest {mode}: idle mutant falsified: {}", ce.render());
    }
    // Safety mutant: at C* of (8, 4) a robot's clockwise neighbour is
    // occupied; forcing that class to move lets the adversary collide.
    let c_star = Configuration::from_gaps_at_origin(&[0, 0, 1, 3]);
    let mutant = MutatedProtocol::new(
        AlignProtocol::new(),
        MutatedProtocol::<AlignProtocol>::trigger_for(&c_star),
        Decision::Move(ViewIndex::First),
    );
    let report = check_protocol_with_stats(
        &mutant,
        &c_star,
        &AlignmentInvariant::new(),
        &ExploreOptions::new(InterleavingMode::AsyncPhases),
    )
    .map_err(|e| e.to_string())?
    .0;
    let Some(ce) = report.counterexample() else {
        return Err("move mutant was NOT falsified".to_string());
    };
    if ce.kind != ViolationKind::Safety || ce.prefix.len() != 2 {
        return Err(format!(
            "expected a minimal 2-step safety trace, got {}",
            ce.render()
        ));
    }
    let replay = replay_counterexample(&mutant, &c_star, &AlignmentInvariant::new(), ce)
        .map_err(|e| e.to_string())?;
    if !replay.reproduced {
        return Err(format!("safety trace did not replay: {}", replay.detail));
    }
    println!(
        "# selftest: move mutant falsified minimally: {}",
        ce.render()
    );
    Ok(())
}

/// FNV-1a over `bytes`: the digest the scale-bench gate compares across
/// its rows.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One scale-bench row: explores every rigid initial class of `cell` on the
/// **concrete** (exact-dedup) checker with `cfg`'s backend, the classes run
/// as jobs under `mode`, and folds the deterministic report fields in class
/// order into both the record and an FNV digest basis — anything
/// thread-dependent in node ids, edge order, early stops or accounting
/// would change the digest and trip the gate in `main`.
fn run_scale_row(
    cell: &Cell,
    initials: &[Configuration],
    cfg: &CheckCfg,
    mode: ExecMode,
) -> ScaleRecord {
    use std::fmt::Write as _;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let started = Instant::now();
    let runs = grid_map(initials.iter().collect(), mode, |initial| {
        check_class(cell, initial, cfg, Check::Concrete)
    });
    let wall_nanos = started.elapsed().as_nanos();
    let mut record = ScaleRecord {
        experiment: "E16".to_string(),
        task: cell.task.slug().to_string(),
        n: cell.n,
        k: cell.k,
        mode: cell.mode.name().to_string(),
        store: cfg.store.to_string(),
        workers: match mode {
            ExecMode::Sequential => 1,
            ExecMode::Sharded => cores.min(initials.len()).max(1),
        },
        cores,
        mem_budget: cfg.mem_budget,
        states: 0,
        edges: 0,
        peak_resident_bytes: 0,
        spilled_bytes: 0,
        visited_spilled_bytes: 0,
        expand_nanos: 0,
        merge_nanos: 0,
        states_per_sec: 0,
        report_digest: 0,
        ok: !initials.is_empty(),
        wall_nanos,
    };
    if initials.is_empty() {
        eprintln!(
            "E16 workers={}: ({}, {}) has no rigid initial class",
            record.workers, cell.n, cell.k
        );
    }
    let mut basis = String::new();
    for (initial, run) in initials.iter().zip(runs) {
        let (report, stats) = match run {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("E16 workers={}: {e}", record.workers);
                record.ok = false;
                break;
            }
        };
        record.states += report.states as u64;
        record.edges += report.edges;
        record.peak_resident_bytes = record.peak_resident_bytes.max(report.peak_resident_bytes);
        record.spilled_bytes += stats.spilled_bytes;
        record.visited_spilled_bytes += stats.visited_spilled_bytes;
        record.expand_nanos += stats.expand_nanos;
        record.merge_nanos += stats.merge_nanos;
        // Every deterministic report field joins the digest basis — the
        // outcome's Debug form includes the full counterexample when one
        // exists, so falsified runs are compared schedule for schedule.
        let _ = write!(
            basis,
            "{initial}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?};",
            report.states,
            report.quotient_states,
            report.edges,
            report.target_states,
            report.progress_edges,
            report.peak_resident_nodes,
            report.peak_resident_bytes,
            report.state_bytes,
            stats.spilled_bytes,
            stats.visited_spilled_bytes,
            report.outcome
        );
    }
    if record.ok {
        // The cross-row gate in `run_scale_bench` may still clear `ok`.
        record.report_digest = fnv1a(basis.as_bytes());
    }
    record.states_per_sec = (u128::from(record.states) * 1_000_000_000)
        .checked_div(record.wall_nanos)
        .unwrap_or(0) as u64;
    record
}

/// The E16 class-scaling bench: one fixed cell's classes explored on one
/// thread, then on a pool that claims them as jobs, gated on every
/// deterministic report field (via the FNV digest) being identical across
/// the two rows.  `store` and `mem_budget` are the explicit `--store` /
/// `--mem-budget`, if any.
fn run_scale_bench(
    args: &ExpArgs,
    only: Option<&OnlyFilter>,
    store: Option<StoreKind>,
    mem_budget: Option<u64>,
    max_states: usize,
) {
    let cell = match only {
        Some(f) => Cell {
            task: f.task,
            n: f.n,
            k: f.k,
            mode: f.mode.unwrap_or(InterleavingMode::AsyncPhases),
        },
        // Defaults: the biggest proved searching cells — exact dedup (the
        // contamination aux state forces it), millions of states in the
        // full cell, a quick-mode cell small enough for CI.
        None if args.quick => Cell {
            task: CellTask::Searching,
            n: 11,
            k: 5,
            mode: InterleavingMode::SsyncSubsets,
        },
        None => Cell {
            task: CellTask::Searching,
            n: 14,
            k: 8,
            mode: InterleavingMode::AsyncPhases,
        },
    };
    // Spill with a tight budget by default, so the visited map genuinely
    // seals runs: the bench is about the spill path, not the in-RAM one.
    let cfg = CheckCfg {
        store: store.unwrap_or(StoreKind::Spill),
        mem_budget: mem_budget.unwrap_or(1 << 20),
        max_states,
    };
    let initials = enumerate_rigid_configurations(cell.n, cell.k);
    let mut records: Vec<ScaleRecord> = [ExecMode::Sequential, ExecMode::Sharded]
        .into_iter()
        .map(|mode| run_scale_row(&cell, &initials, &cfg, mode))
        .collect();
    let reference = records[0].report_digest;
    for record in &mut records {
        record.ok = record.ok && record.report_digest == reference;
    }

    println!(
        "# E16 — class scaling: {}:{}:{} {} classes={} store={} budget={}B per class cores={}",
        cell.task.slug(),
        cell.n,
        cell.k,
        cell.mode.name(),
        initials.len(),
        cfg.store,
        cfg.mem_budget,
        records[0].cores
    );
    println!(
        "# workers    states     edges  visited-spill   expand-ms  merge-ms   wall-ms   st/sec  digest"
    );
    for r in &records {
        println!(
            "  {:>7} {:>9} {:>9} {:>14} {:>11} {:>9} {:>9} {:>8}  {:016x}{}",
            r.workers,
            r.states,
            r.edges,
            r.visited_spilled_bytes,
            r.expand_nanos / 1_000_000,
            r.merge_nanos / 1_000_000,
            r.wall_nanos / 1_000_000,
            r.states_per_sec,
            r.report_digest,
            if r.ok { "" } else { "  MISMATCH" }
        );
    }

    args.write_json("E16", &records);
    let failures = records.iter().filter(|r| !r.ok).count();
    exit_if_failed("E16", failures, records.len());
}

/// A `--only task:n:k[:mode]` cell filter for targeted out-of-core runs.
struct OnlyFilter {
    task: CellTask,
    n: usize,
    k: usize,
    mode: Option<InterleavingMode>,
}

impl OnlyFilter {
    fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if !(3..=4).contains(&parts.len()) {
            return Err(format!("--only takes task:n:k[:mode], got {spec:?}"));
        }
        let task = CellTask::from_slug(parts[0])
            .ok_or_else(|| format!("--only: unknown task {:?}", parts[0]))?;
        let size = |part: &str, name: &str| {
            part.parse::<usize>()
                .map_err(|_| format!("--only: {name} must be a usize, got {part:?}"))
        };
        let mode = match parts.get(3) {
            None => None,
            Some(&"ssync") => Some(InterleavingMode::SsyncSubsets),
            Some(&"async") => Some(InterleavingMode::AsyncPhases),
            Some(other) => {
                return Err(format!(
                    "--only: mode must be ssync or async, got {other:?}"
                ))
            }
        };
        Ok(OnlyFilter {
            task,
            n: size(parts[1], "n")?,
            k: size(parts[2], "k")?,
            mode,
        })
    }

    fn matches(&self, cell: &Cell) -> bool {
        cell.task == self.task
            && cell.n == self.n
            && cell.k == self.k
            && self.mode.is_none_or(|mode| cell.mode == mode)
    }
}

fn main() {
    let args = ExpArgs::parse(0, USAGE);
    let max_n: usize = args
        .parsed("--max-n")
        .unwrap_or(if args.quick { 6 } else { 12 });
    let max_k: usize = args
        .parsed("--max-k")
        .unwrap_or(if args.quick { 5 } else { 6 });
    let store_arg = args.value("--store").map(|v| match v {
        "mem" => StoreKind::Mem,
        "spill" => StoreKind::Spill,
        other => args.usage_error(&format!("--store takes mem or spill, got {other:?}")),
    });
    let mem_budget_arg = args.value("--mem-budget").map(|v| {
        parse_byte_size(v)
            .unwrap_or_else(|| args.usage_error(&format!("--mem-budget: malformed size {v:?}")))
    });
    let mem_budget = mem_budget_arg.unwrap_or(DEFAULT_MEM_BUDGET);
    let max_states: usize = args.parsed("--max-states").unwrap_or(DEFAULT_MAX_STATES);
    let only = args
        .value("--only")
        .map(|spec| OnlyFilter::parse(spec).unwrap_or_else(|e| args.usage_error(&e)));

    if args.flag("--scale-bench") {
        run_scale_bench(&args, only.as_ref(), store_arg, mem_budget_arg, max_states);
        return;
    }
    let store = store_arg.unwrap_or(StoreKind::Mem);
    let cfg = CheckCfg {
        store,
        mem_budget,
        max_states,
    };

    if args.flag("--selftest") {
        if let Err(e) = selftest() {
            eprintln!("E10 selftest FAILED: {e}");
            std::process::exit(1);
        }
    }

    let both_modes = [
        InterleavingMode::SsyncSubsets,
        InterleavingMode::AsyncPhases,
    ];
    let mut cells = Vec::new();
    for task in CellTask::ALL {
        for n in 4..=max_n {
            for k in 2..=max_k.min(n) {
                for mode in both_modes {
                    cells.push(Cell { task, n, k, mode });
                }
            }
        }
    }
    // The smallest *feasible* searching instances (Ring Clearing and
    // NminusThree) sit beyond the gathering/Align grid; the quick CI grid
    // proves them under every SSYNC subset (small graphs, real liveness),
    // the full grid adds the ASYNC interleavings and the larger (12,5) and
    // (11,8) cells.
    let searching_frontier: &[(usize, usize, &[InterleavingMode])] = if args.quick {
        &[
            (11, 5, &[InterleavingMode::SsyncSubsets]),
            (10, 7, &[InterleavingMode::SsyncSubsets]),
        ]
    } else {
        &[
            (11, 5, &both_modes),
            (10, 7, &both_modes),
            (12, 5, &both_modes),
            (11, 8, &both_modes),
        ]
    };
    for &(n, k, modes) in searching_frontier {
        if n <= max_n && k <= max_k {
            continue; // already in the grid above (custom --max-n/--max-k runs)
        }
        for &mode in modes {
            cells.push(Cell {
                task: CellTask::Searching,
                n,
                k,
                mode,
            });
        }
    }
    if let Some(filter) = &only {
        cells.retain(|cell| filter.matches(cell));
        if cells.is_empty() {
            args.usage_error("--only matched no cell of the grid");
        }
    }

    let records = run_grid(&cells, args.mode(), &cfg);

    println!(
        "# E10 — exhaustive model check (all schedules), {} cells, store={store}",
        records.len()
    );
    println!(
        "# task            n   k  mode   classes    states  quotient     edges  b/st   spilled   st/sec  verdict"
    );
    for r in &records {
        let verdict = if r.vacuous {
            "vacuous".to_string()
        } else if r.ok {
            "PROVED".to_string()
        } else {
            format!("FALSIFIED {}", r.counterexample)
        };
        println!(
            "  {:<14} {:>2}  {:>2}  {:<5} {:>8} {:>9} {:>9} {:>9} {:>5} {:>9} {:>8}  {verdict}",
            r.task,
            r.n,
            r.k,
            r.mode,
            r.initial_classes,
            r.states,
            r.quotient_states,
            r.edges,
            r.bytes_per_state,
            r.spilled_bytes,
            r.states_per_sec
        );
    }

    args.write_json("E10", &records);
    let failures = records.iter().filter(|r| !r.ok).count();
    exit_if_failed("E10", failures, records.len());
}
