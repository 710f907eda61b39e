//! Packing a state whose bit stream fits the inline words allocates nothing:
//! `Engine::pack_behavior`, which is what the model checker stores for every
//! discovered state, and `Engine::pack_state` of a shallow state.  A
//! counting global allocator, enabled only around the calls under test and
//! only on the calling thread, pins it.  This is a test binary of its own,
//! so that no other test shares the allocator.

// The counting allocator is the one purposeful use of `unsafe` here: it
// forwards to `System` verbatim and only bumps a counter.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rr_corda::packed::INLINE_WORDS;
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::{Engine, SchedulerStep};
use rr_ring::Configuration;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let value = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, value)
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
        SchedulerStep::SsyncRound(vec![1, 3]),
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
