//! Packing a state whose bit stream fits the inline words allocates nothing:
//! `Engine::pack_behavior`, which is what the model checker stores for every
//! discovered state, and `Engine::pack_state` of a shallow state.  Nor does
//! a step of `Engine::run` under any scheduler: scheduler views and steps
//! are `Copy`, and the run loop keeps its step report for the whole run.
//! Nor does a recycled engine's run: `Engine::reset` keeps the Look memo's
//! table that `Engine::new` allocated.  A counting global allocator, enabled
//! only around the calls under test and only on the calling thread, pins
//! all three.  This is a test binary of its own, so that no other test
//! shares the allocator.

// The counting allocator is the one purposeful use of `unsafe` here: it
// forwards to `System` verbatim and only bumps a counter.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rr_corda::packed::INLINE_WORDS;
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::{
    Engine, EngineOptions, MultiplicityCapability, RobotSet, SchedulerKind, SchedulerStep,
    ViewOrder,
};
use rr_ring::Configuration;

struct CountingAllocator;

thread_local! {
    /// Allocations made on this thread inside `allocations_of`; `None`
    /// outside it.  Per thread, so tests running in parallel do not count
    /// each other's allocations.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = COUNTED.try_with(|counted| {
        if let Some(n) = counted.get() {
            counted.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards the exact arguments to `System`, whose
// `GlobalAlloc` contract we inherit unchanged; the counter update has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; caller upholds `layout` validity.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; caller upholds `layout` validity.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Allocations `f` makes on this thread, and its result.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNTED.with(|counted| counted.set(Some(0)));
    let value = f();
    let allocations = COUNTED.with(|counted| counted.replace(None));
    (allocations.unwrap_or(0), value)
}

#[test]
fn packing_inline_sized_states_allocates_nothing() {
    // A few steps from a rigid (9, 4) configuration: pending phases and
    // small, non-zero counters — a shallow state, as exploration meets.
    let initial = Configuration::from_gaps_at_origin(&[0, 1, 2, 2]);
    let mut engine = Engine::with_default_options(GreedyGapWalker, initial).unwrap();
    for step in [
        SchedulerStep::Look(0),
        SchedulerStep::Look(2),
        SchedulerStep::Execute(0),
        SchedulerStep::SsyncRound(RobotSet::from_bits(0b1010)),
    ] {
        engine.step(&step, &mut ()).unwrap();
    }

    // The probe must see an allocation when there is one.
    let (boxed, _) = allocations_of(|| Box::new(7u64));
    assert_eq!(boxed, 1, "the counting allocator is not counting");

    let (allocs, behavior) = allocations_of(|| engine.pack_behavior());
    assert_eq!(allocs, 0, "pack_behavior allocated");
    assert!(behavior.words().len() <= INLINE_WORDS);
    assert_eq!(behavior.heap_bytes(), 0);

    let (allocs, full) = allocations_of(|| engine.pack_state());
    assert_eq!(allocs, 0, "pack_state of a shallow state allocated");
    assert!(full.words().len() <= INLINE_WORDS);
    assert_eq!(full.heap_bytes(), 0);

    // Same bytes as the reference pack of the saved state.
    assert_eq!(full, engine.save_state().pack());
}

/// The engine-throughput workload (E12): the greedy walker keeps every
/// robot moving, with exclusivity off.
const WALKER: EngineOptions = EngineOptions {
    capability: MultiplicityCapability::None,
    enforce_exclusivity: false,
    view_order: ViewOrder::CwFirst,
};

/// Every scheduler family, fully synchronous included.
const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::RoundRobin,
    SchedulerKind::SemiSynchronous,
    SchedulerKind::Asynchronous,
    SchedulerKind::FullySynchronous,
];

#[test]
fn every_scheduler_allocates_the_same_for_any_number_of_steps() {
    let initial = Configuration::from_gaps_at_origin(&[0, 1, 3, 2, 0, 4, 1, 5]);
    for kind in SCHEDULERS {
        let run_allocations = |steps: u64| {
            let mut engine = Engine::new(GreedyGapWalker, initial.clone(), WALKER).unwrap();
            let (allocs, report) = allocations_of(|| {
                kind.with(7, |scheduler| engine.run_until(scheduler, steps, |_| false))
            });
            assert_eq!(report.steps, steps, "{kind}");
            assert!(
                report.moves > steps / 4,
                "{kind}: the walkers stalled: {report:?}"
            );
            allocs
        };
        let short = run_allocations(1_000);
        let long = run_allocations(10_000);
        assert_eq!(
            short, long,
            "Engine::run under {kind} allocated per step: \
             {short} allocations for 1,000 steps, {long} for 10,000"
        );
    }
}

#[test]
fn a_run_after_reset_allocates_nothing() {
    // A 24-node ring, which the Look memo serves.  The first run grows the
    // step report; after it, a reset and a whole run allocate nothing under
    // any scheduler.  The scheduler is built before the count and kept:
    // the asynchronous one sizes its per-robot ages on its first step.
    let initial = Configuration::from_gaps_at_origin(&[0, 1, 3, 2, 0, 4, 1, 5]);
    for kind in SCHEDULERS {
        kind.with(7, |scheduler| {
            let mut engine = Engine::new(GreedyGapWalker, initial.clone(), WALKER).unwrap();
            engine.run_until(scheduler, 1_000, |_| false);
            let (allocs, report) = allocations_of(|| {
                engine.reset(GreedyGapWalker, &initial, WALKER).unwrap();
                engine.run_until(scheduler, 1_000, |_| false)
            });
            assert_eq!(report.steps, 1_000, "{kind}");
            assert!(report.moves > 250, "{kind}: the walkers stalled");
            assert_eq!(allocs, 0, "{kind}: a run after reset allocated");
        });
    }
}
