//! E12 — engine-wide throughput of the CORDA stepping pipeline.
//!
//! Where E3–E6 verify *what* the protocols do and E10/E11 prove it, this
//! experiment measures *how fast* the engine does it: scheduler steps per
//! second of `Engine::run` across ring sizes, team sizes and scheduler
//! families (the three of `SchedulerKind::ALL`, then fully synchronous).
//! A Look reads its view's key off the configuration's maintained
//! occupancy cycle and probes the engine's Look memo; only a miss captures
//! the snapshot into engine-owned scratch buffers and computes.  Rings of
//! up to 62 nodes (the `n = 16` cells) are memoized, larger ones (`n ≥ 64`)
//! bypass the memo, so both paths are measured.  A cell is `ok` when its
//! run uses the whole step budget without an engine error.
//!
//! A second measurement per cell — a Look/Execute micro-loop over prebuilt
//! scheduler steps and a reused `StepReport` — isolates the Look phase from
//! scheduler overhead.  The counting global allocator installed by this
//! binary turns the "no allocation per step" claims into measured numbers:
//! `allocs_per_kstep` for the scheduler-driven run, `look_allocs_per_kstep`
//! for the micro-loop.
//!
//! The workload is the `GreedyGapWalker` with exclusivity off and traces
//! disabled: every robot keeps moving forever, so the engine is saturated
//! with fresh Look + Move work on every cell.
//!
//! ```text
//! exp_throughput [--quick] [--json <path>] [--seed <u64>] [--steps <u64>]
//! ```
//!
//! Cells always run sequentially: parallel timing would distort the
//! per-second figures.  Records go to the JSON report in `rr-sweep/v1`
//! schema (`ThroughputRecord`); the `*_per_sec` fields are
//! machine-dependent and exist to accumulate the perf trajectory in the CI
//! artifacts.

// The counting allocator is the one purposeful use of `unsafe` in the
// workspace: it forwards to `System` verbatim and only bumps a counter.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rr_bench::rigid_start;
use rr_bench::sweep::{exit_if_failed, ExpArgs, ThroughputRecord};
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::{
    Engine, EngineOptions, MultiplicityCapability, RunOutcome, SchedulerKind, SchedulerStep,
    StepReport, ViewOrder,
};

/// Global allocator that counts allocation calls (alloc, alloc_zeroed,
/// realloc) and otherwise forwards to [`System`].  `allocs_per_kstep` and
/// `look_allocs_per_kstep` in the records are read off this counter.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards the exact arguments to `System`, whose
// `GlobalAlloc` contract we inherit unchanged; the counter update has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds `layout` validity.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds `layout` validity.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the realloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller upholds the dealloc contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The `(n, k)` grid: every cross product cell with room for a rigid
/// configuration (`k + 2 < n`).
fn grid(quick: bool) -> Vec<(usize, usize)> {
    let (ns, ks): (&[usize], &[usize]) = if quick {
        (&[16, 256], &[4, 8])
    } else {
        (&[16, 64, 256, 1024], &[4, 8, 16])
    };
    let mut cells = Vec::new();
    for &n in ns {
        for &k in ks {
            if k + 2 < n {
                cells.push((n, k));
            }
        }
    }
    cells
}

/// Engine options of the throughput workload.
fn workload_options() -> EngineOptions {
    EngineOptions {
        capability: MultiplicityCapability::None,
        enforce_exclusivity: false,
        view_order: ViewOrder::CwFirst,
    }
}

/// The scheduler families, in `cell_seed` index order: the adversarial
/// ones of `SchedulerKind::ALL`, then the fully synchronous one (index 3),
/// so the first three keep their seeds and records.
const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::RoundRobin,
    SchedulerKind::SemiSynchronous,
    SchedulerKind::Asynchronous,
    SchedulerKind::FullySynchronous,
];

/// Deterministic per-cell seed, derived from the root seed and the cell
/// coordinates exactly like `Sweep::jobs` derives job seeds.
fn cell_seed(root: u64, n: usize, k: usize, scheduler_index: usize) -> u64 {
    let coords = (n as u64) << 40 | (k as u64) << 24 | (scheduler_index as u64) << 16;
    rand::RngCore::next_u64(&mut rand::SplitMix64::new(root ^ coords))
}

/// One timed scheduler-driven engine run.
struct PipelineRun {
    outcome: RunOutcome,
    steps: u64,
    looks: u64,
    moves: u64,
    nanos: u128,
    allocs: u64,
}

fn run_pipeline(n: usize, k: usize, kind: SchedulerKind, seed: u64, budget: u64) -> PipelineRun {
    let start = rigid_start(n, k);
    let mut engine =
        Engine::new(GreedyGapWalker, start, workload_options()).expect("valid workload");
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let started = Instant::now();
    let report = kind.with(seed, |scheduler| {
        engine.run_until(scheduler, budget, |_| false)
    });
    let nanos = started.elapsed().as_nanos();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    PipelineRun {
        outcome: report.outcome,
        steps: report.steps,
        looks: engine.look_count(),
        moves: engine.move_count(),
        nanos,
        allocs,
    }
}

/// The Look/Execute micro-loop: alternating `SchedulerStep::Look` /
/// `SchedulerStep::Execute` over prebuilt steps and a reused report, so the
/// measured loop contains nothing but the Look pipeline and the move
/// executor.  Returns (steps, looks, nanos, allocs) measured *after* one
/// warm-up round has grown every scratch buffer to its final capacity.
fn run_look_microloop(n: usize, k: usize, budget: u64) -> (u64, u64, u128, u64) {
    let start = rigid_start(n, k);
    let mut engine =
        Engine::new(GreedyGapWalker, start, workload_options()).expect("valid workload");
    let look_steps: Vec<SchedulerStep> = (0..k).map(SchedulerStep::Look).collect();
    let exec_steps: Vec<SchedulerStep> = (0..k).map(SchedulerStep::Execute).collect();
    let mut report = StepReport::default();
    let step_pair = |engine: &mut Engine<GreedyGapWalker>, report: &mut StepReport, r: usize| {
        engine
            .step_into(&look_steps[r], &mut (), report)
            .expect("look step");
        engine
            .step_into(&exec_steps[r], &mut (), report)
            .expect("execute step");
    };
    // Warm-up round: grows the scratch views, the report's move vector and
    // the per-robot bookkeeping to their steady-state capacities.
    for r in 0..k {
        step_pair(&mut engine, &mut report, r);
    }
    let looks_before = engine.look_count();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let started = Instant::now();
    let mut steps = 0u64;
    'driving: loop {
        for r in 0..k {
            step_pair(&mut engine, &mut report, r);
            steps += 2;
            if steps >= budget {
                break 'driving;
            }
        }
    }
    let nanos = started.elapsed().as_nanos();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    (steps, engine.look_count() - looks_before, nanos, allocs)
}

fn per_sec(count: u64, nanos: u128) -> u64 {
    u64::try_from(u128::from(count) * 1_000_000_000 / nanos.max(1)).unwrap_or(u64::MAX)
}

const USAGE: &str = "\
usage: exp_throughput [--quick] [--json <path>] [--seed <u64>] [--steps <u64>]";

fn main() {
    let args = ExpArgs::parse(0xE12, USAGE);
    let budget: u64 = args
        .parsed("--steps")
        .unwrap_or(if args.quick { 20_000 } else { 100_000 });

    let mut records = Vec::new();
    for (n, k) in grid(args.quick) {
        for (si, &kind) in SCHEDULERS.iter().enumerate() {
            let seed = cell_seed(args.root_seed, n, k, si);
            let cell_started = Instant::now();
            let run = run_pipeline(n, k, kind, seed, budget);
            let (micro_steps, micro_looks, micro_nanos, micro_allocs) =
                run_look_microloop(n, k, budget);
            records.push(ThroughputRecord {
                experiment: "E12".to_string(),
                task: "throughput".to_string(),
                n,
                k,
                scheduler: kind.name().to_string(),
                seed,
                steps: run.steps,
                looks: run.looks,
                moves: run.moves,
                steps_per_sec: per_sec(run.steps, run.nanos),
                baseline_steps_per_sec: 0,
                speedup_x100: 0,
                looks_per_sec: per_sec(micro_looks, micro_nanos),
                allocs_per_kstep: run.allocs * 1000 / run.steps.max(1),
                look_allocs_per_kstep: micro_allocs * 1000 / micro_steps.max(1),
                ok: run.outcome == RunOutcome::StepBudgetExhausted,
                detail: match run.outcome {
                    RunOutcome::Failed(e) => e.to_string(),
                    _ => String::new(),
                },
                wall_nanos: cell_started.elapsed().as_nanos(),
            });
        }
    }

    println!("# E12 — engine throughput: scheduler-driven runs on the O(k) Look pipeline");
    println!("# budget {budget} scheduler steps per run");
    println!(
        "{:>5} {:>3} {:>12} {:>12} {:>11} {:>9} {:>10}",
        "n", "k", "scheduler", "steps/s", "looks/s", "allocs/k", "lk-alloc/k"
    );
    for r in &records {
        println!(
            "{:>5} {:>3} {:>12} {:>12} {:>11} {:>9} {:>10}",
            r.n,
            r.k,
            r.scheduler,
            r.steps_per_sec,
            r.looks_per_sec,
            r.allocs_per_kstep,
            r.look_allocs_per_kstep,
        );
    }
    let zero_alloc = records
        .iter()
        .all(|r| r.allocs_per_kstep == 0 && r.look_allocs_per_kstep == 0);
    println!(
        "# run-loop and look micro-loop allocations: {}",
        if zero_alloc {
            "0 per step on every cell"
        } else {
            "NON-ZERO on some cell — see allocs/k and lk-alloc/k"
        }
    );

    args.write_json("E12", &records);
    let failures = records.iter().filter(|r| !r.ok).count();
    exit_if_failed("E12", failures, records.len());
}
