//! E14 — the fault-adversary degradation table: what survives crashes,
//! corrupted Looks and bounded unfairness.
//!
//! E10 proves the paper's algorithms correct against every *fault-free*
//! schedule.  This experiment re-runs the same exhaustive checker with the
//! fault frontier enabled and asks the degradation questions the paper's
//! model leaves open:
//!
//! * **crash** (`f = 1`): the adversary may crash-stop any one robot at any
//!   step.  Plain gathering is unachievable (the corpse cannot move), so the
//!   cell checks the degraded invariant — *all non-crashed robots gather* —
//!   for every schedule **and** every crash placement.  Alignment cells
//!   check that exclusivity survives (no collision is *caused* by a crash).
//! * **corrupt-look** (one corrupted Snapshot per path): a single Look may
//!   return a snapshot with a phantom or suppressed multiplicity.  Gathering
//!   cells check eventual gathering (a transient lie may cost safety-shaped
//!   detours but not convergence); alignment cells check exclusivity.
//! * **unfair** (budget `B`): the bounded-unfair scheduler starves one
//!   victim for up to `B` steps.  These rows are engine-measured: the run
//!   must still gather within the fair budget plus `c·B` extra steps.
//!
//! A model-checked cell is `ok` when the checker either **proves** the
//! property or **falsifies** it with a minimal counterexample that *replays
//! on the engine with its fault directives honoured* — a verdict without a
//! certificate (state-budget blow-up, non-reproducing trace) fails the cell
//! and the binary exits non-zero, which is what the CI faultcheck-smoke job
//! gates on.
//!
//! ```text
//! exp_faults [--quick] [--json <path>] [--seed <u64>] [--sequential]
//!            [--selftest] [--max-n <usize>] [--max-k <usize>]
//! ```
//!
//! Cells run in parallel (`--sequential`: on one thread); each checker call
//! runs on the thread of its cell.
//!
//! `--selftest` is the checker-of-the-checker canary: it asserts that an
//! empty fault budget explores byte-identically to the fault-free checker,
//! and that one crash *does* falsify plain gathering with a crash directive
//! that replays.

use std::time::Instant;

use rr_bench::sweep::{exit_if_failed, grid_map, ExpArgs, FaultRecord};
use rr_checker::explore::{
    check_protocol_with_stats, replay_counterexample, CheckOutcome, ExploreOptions, FaultBudget,
};
use rr_corda::{BoundedUnfairScheduler, InterleavingMode, Protocol};
use rr_core::driver::{run_task, TaskTargets};
use rr_core::invariant::{
    AlignmentInvariant, CrashTolerantGatheringInvariant, EventualGatheringInvariant,
    GatheringInvariant, Invariant,
};
use rr_core::unified::{protocol_for, Task};
use rr_core::{AlignProtocol, GatheringProtocol};
use rr_ring::enumerate::enumerate_rigid_configurations;

/// The fault families of the degradation table, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultRow {
    None,
    Crash,
    CorruptLook,
}

impl FaultRow {
    fn family(self) -> &'static str {
        match self {
            FaultRow::None => "none",
            FaultRow::Crash => "crash",
            FaultRow::CorruptLook => "corrupt-look",
        }
    }

    fn detail(self) -> &'static str {
        match self {
            FaultRow::None => "",
            FaultRow::Crash => "f=1",
            FaultRow::CorruptLook => "looks=1",
        }
    }

    fn budget(self) -> FaultBudget {
        match self {
            FaultRow::None => FaultBudget::none(),
            FaultRow::Crash => FaultBudget::none().with_crashes(1),
            FaultRow::CorruptLook => FaultBudget::none().with_corrupt_looks(1),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum CellKind {
    Checked {
        task: CheckTask,
        mode: InterleavingMode,
        fault: FaultRow,
    },
    Unfair {
        n_budget: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckTask {
    Gathering,
    Alignment,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    kind: CellKind,
    n: usize,
    k: usize,
}

/// Whether the paper claims an algorithm for the cell (same predicate as
/// E10's grid: the degradation table only covers claimed cells).
fn claimed(task: CheckTask, n: usize, k: usize) -> bool {
    match task {
        CheckTask::Gathering => protocol_for(Task::Gathering, n, k).is_some(),
        CheckTask::Alignment => k >= 3 && k + 2 < n,
    }
}

/// The degraded property a (task, fault) pair is checked against.
fn property_of(task: CheckTask, fault: FaultRow) -> (&'static str, Box<dyn Invariant>) {
    match (task, fault) {
        (CheckTask::Gathering, FaultRow::None) => (
            "gathering on all schedules",
            Box::new(GatheringInvariant::new()),
        ),
        (CheckTask::Gathering, FaultRow::Crash) => (
            "all non-crashed robots gather",
            Box::new(CrashTolerantGatheringInvariant::new()),
        ),
        (CheckTask::Gathering, FaultRow::CorruptLook) => (
            "eventual gathering despite one corrupted Look",
            Box::new(EventualGatheringInvariant::new()),
        ),
        (CheckTask::Alignment, FaultRow::None) => (
            "alignment on all schedules",
            Box::new(AlignmentInvariant::new()),
        ),
        (CheckTask::Alignment, FaultRow::Crash) => (
            "exclusivity + alignment under one crash",
            Box::new(AlignmentInvariant::new()),
        ),
        (CheckTask::Alignment, FaultRow::CorruptLook) => (
            "exclusivity + alignment under one corrupted Look",
            Box::new(AlignmentInvariant::new()),
        ),
    }
}

/// Exhausts every schedule and fault placement of one cell, demanding a
/// certificate either way: proofs stand on their own, falsifications must
/// replay on the engine with their fault directives honoured.
fn check_faulted_cell<P: Protocol + Clone>(
    protocol: &P,
    invariant: &dyn Invariant,
    cell: &Cell,
    mode: InterleavingMode,
    fault: FaultRow,
    record: &mut FaultRecord,
) {
    let initials = enumerate_rigid_configurations(cell.n, cell.k);
    record.initial_classes = initials.len() as u64;
    record.ok = true;
    let options = ExploreOptions::new(mode).with_faults(fault.budget());
    for initial in &initials {
        let report = match check_protocol_with_stats(protocol, initial, invariant, &options) {
            Ok((report, _)) => report,
            Err(e) => {
                record.ok = false;
                record.counterexample = format!("engine rejected the initial state: {e}");
                return;
            }
        };
        record.states += report.states as u64;
        record.edges += report.edges;
        match &report.outcome {
            CheckOutcome::Verified => record.proved += 1,
            CheckOutcome::BudgetExceeded { discovered, .. } => {
                record.ok = false;
                record.counterexample =
                    format!("state budget exceeded from {initial}: {discovered} states");
                return;
            }
            CheckOutcome::Falsified(ce) => {
                record.falsified += 1;
                let replay = match replay_counterexample(protocol, initial, invariant, ce) {
                    Ok(replay) => replay,
                    Err(e) => {
                        record.ok = false;
                        record.replayed = false;
                        record.counterexample = format!("replay from {initial} errored: {e}");
                        return;
                    }
                };
                if !replay.reproduced {
                    record.ok = false;
                    record.replayed = false;
                    record.counterexample = format!(
                        "counterexample from {initial} did not replay: {}",
                        replay.detail
                    );
                    return;
                }
                if record.counterexample.is_empty() {
                    record.counterexample = format!("from {initial}: {}", ce.render());
                }
            }
        }
    }
}

/// Engine-measured unfair row: starve robot 0 for `B` steps; the run must
/// still gather within the fair budget plus `3·B` extra scheduler steps.
fn run_unfair_cell(cell: &Cell, seed: u64, n_budget: u64, record: &mut FaultRecord) {
    let initial = rr_bench::rigid_start(cell.n, cell.k);
    let fair_budget = 100_000u64;
    let max_steps = fair_budget + 3 * n_budget;
    let mut scheduler = BoundedUnfairScheduler::seeded(seed, 0, n_budget);
    let Some(protocol) = protocol_for(Task::Gathering, cell.n, cell.k) else {
        record.counterexample = "no protocol for claimed cell".to_string();
        return;
    };
    record.initial_classes = 1;
    match run_task(
        Task::Gathering,
        protocol,
        &initial,
        &mut scheduler,
        TaskTargets::open_ended(),
        max_steps,
    ) {
        Ok(outcome) => {
            let gathered = outcome
                .gathering()
                .is_some_and(|s| s.gathered && !s.broke_gathering);
            record.ok = gathered;
            if gathered {
                record.proved = 1;
            } else {
                record.counterexample =
                    format!("not gathered within {max_steps} steps under B={n_budget}");
            }
        }
        Err(e) => {
            record.counterexample = e.to_string();
        }
    }
}

fn run_cell(cell: Cell, experiment: &str, root_seed: u64) -> FaultRecord {
    let started = Instant::now();
    let (mode_name, family, detail, property): (String, &str, String, String) = match cell.kind {
        CellKind::Checked { task, mode, fault } => (
            mode.name().to_string(),
            fault.family(),
            fault.detail().to_string(),
            property_of(task, fault).0.to_string(),
        ),
        CellKind::Unfair { n_budget } => (
            "unfair".to_string(),
            "unfair",
            format!("B={n_budget}"),
            "gathered within fair budget + 3·B steps".to_string(),
        ),
    };
    let mut record = FaultRecord {
        experiment: experiment.to_string(),
        task: match cell.kind {
            CellKind::Checked {
                task: CheckTask::Alignment,
                ..
            } => "alignment".to_string(),
            _ => "gathering".to_string(),
        },
        n: cell.n,
        k: cell.k,
        mode: mode_name,
        fault: family.to_string(),
        fault_detail: detail,
        property,
        initial_classes: 0,
        states: 0,
        edges: 0,
        proved: 0,
        falsified: 0,
        replayed: true,
        ok: false,
        counterexample: String::new(),
        wall_nanos: 0,
    };
    match cell.kind {
        CellKind::Checked { task, mode, fault } => {
            let invariant = property_of(task, fault).1;
            match task {
                CheckTask::Gathering => check_faulted_cell(
                    &GatheringProtocol::new(),
                    invariant.as_ref(),
                    &cell,
                    mode,
                    fault,
                    &mut record,
                ),
                CheckTask::Alignment => check_faulted_cell(
                    &AlignProtocol::new(),
                    invariant.as_ref(),
                    &cell,
                    mode,
                    fault,
                    &mut record,
                ),
            }
        }
        CellKind::Unfair { n_budget } => {
            // Per-cell seed: deterministic in the root seed and grid
            // coordinates only (same discipline as Sweep::jobs).
            let coords = (cell.n as u64) << 40 | (cell.k as u64) << 24 | n_budget;
            let mut z = root_seed ^ coords ^ 0x9E37_79B9_7F4A_7C15;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            run_unfair_cell(&cell, z ^ (z >> 31), n_budget, &mut record);
        }
    }
    record.wall_nanos = started.elapsed().as_nanos();
    record
}

/// The canary: (1) an empty fault budget explores byte-identically to the
/// fault-free checker; (2) one crash fault falsifies *plain* gathering with
/// a counterexample that carries a crash directive and replays.
fn selftest() -> Result<(), String> {
    let initial = enumerate_rigid_configurations(6, 3)
        .into_iter()
        .next()
        .expect("rigid (6,3)");
    let protocol = GatheringProtocol::new();
    let invariant = GatheringInvariant::new();
    for mode in [
        InterleavingMode::SsyncSubsets,
        InterleavingMode::AsyncPhases,
    ] {
        let plain =
            check_protocol_with_stats(&protocol, &initial, &invariant, &ExploreOptions::new(mode))
                .map_err(|e| e.to_string())?
                .0;
        let empty = check_protocol_with_stats(
            &protocol,
            &initial,
            &invariant,
            &ExploreOptions::new(mode).with_faults(FaultBudget::none()),
        )
        .map_err(|e| e.to_string())?
        .0;
        if plain != empty {
            return Err(format!(
                "{mode}: empty fault budget drifted from fault-free checker"
            ));
        }
        let crashed = check_protocol_with_stats(
            &protocol,
            &initial,
            &invariant,
            &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
        )
        .map_err(|e| e.to_string())?
        .0;
        let Some(ce) = crashed.counterexample() else {
            return Err(format!("{mode}: one crash did NOT falsify plain gathering"));
        };
        if ce.faults.is_empty() {
            return Err(format!("{mode}: counterexample carries no fault directive"));
        }
        let replay = replay_counterexample(&protocol, &initial, &invariant, ce)
            .map_err(|e| e.to_string())?;
        if !replay.reproduced {
            return Err(format!(
                "{mode}: crash lasso did not replay: {}",
                replay.detail
            ));
        }
        println!(
            "# selftest {mode}: crash falsifies plain gathering: {}",
            ce.render()
        );
    }
    Ok(())
}

const USAGE: &str = "\
usage: exp_faults [--quick] [--json <path>] [--seed <u64>] [--sequential]
                  [--selftest] [--max-n <usize>] [--max-k <usize>]";

fn main() {
    let args = ExpArgs::parse(0xE14, USAGE);
    let max_n: usize = args
        .parsed("--max-n")
        .unwrap_or(if args.quick { 6 } else { 8 });
    let max_k: usize = args.parsed("--max-k").unwrap_or(4);

    if args.flag("--selftest") {
        if let Err(e) = selftest() {
            eprintln!("E14 selftest FAILED: {e}");
            std::process::exit(1);
        }
    }

    let mut cells = Vec::new();
    for task in [CheckTask::Gathering, CheckTask::Alignment] {
        for n in 4..=max_n {
            for k in 2..=max_k.min(n) {
                if !claimed(task, n, k) {
                    continue;
                }
                for mode in [
                    InterleavingMode::SsyncSubsets,
                    InterleavingMode::AsyncPhases,
                ] {
                    for fault in [FaultRow::None, FaultRow::Crash, FaultRow::CorruptLook] {
                        cells.push(Cell {
                            kind: CellKind::Checked { task, mode, fault },
                            n,
                            k,
                        });
                    }
                }
            }
        }
    }
    let unfair_budgets: &[u64] = if args.quick { &[1, 16] } else { &[1, 64, 1024] };
    for n in 4..=max_n {
        for k in 2..=max_k.min(n) {
            if !claimed(CheckTask::Gathering, n, k) {
                continue;
            }
            for &b in unfair_budgets {
                cells.push(Cell {
                    kind: CellKind::Unfair { n_budget: b },
                    n,
                    k,
                });
            }
        }
    }

    let records = grid_map(cells, args.mode(), |cell| {
        run_cell(cell, "E14", args.root_seed)
    });

    println!(
        "# E14 — fault-adversary degradation table, {} cells",
        records.len()
    );
    println!(
        "# task        n   k  mode    fault         detail   classes    states  proved  falsified  verdict"
    );
    for r in &records {
        let verdict = if r.ok && r.falsified == 0 {
            "PROVED".to_string()
        } else if r.ok {
            format!("DEGRADES (replayed): {}", r.counterexample)
        } else {
            format!("UNEXPLAINED {}", r.counterexample)
        };
        println!(
            "  {:<10} {:>2}  {:>2}  {:<6} {:<13} {:<8} {:>7} {:>9} {:>7} {:>10}  {verdict}",
            r.task,
            r.n,
            r.k,
            r.mode,
            r.fault,
            r.fault_detail,
            r.initial_classes,
            r.states,
            r.proved,
            r.falsified
        );
    }

    args.write_json("E14", &records);
    let failures = records.iter().filter(|r| !r.ok).count();
    exit_if_failed("E14", failures, records.len());
}
