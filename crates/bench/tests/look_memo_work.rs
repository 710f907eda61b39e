//! How much Compute work the engine's Look memo leaves, pinned exactly.
//!
//! A protocol's decision is a pure function of the robot's snapshot, so the
//! engine computes it once per distinct view and reuses it.  A counting
//! wrapper around the protocol pins the number of `Protocol::compute` calls
//! against the number of Looks in three deterministic runs: the full E4 and
//! E6 presets at their default seeds, job by job on one recycled engine as
//! a `BatchRunner` runs them, and one model-checker call.  A change to the
//! memo's key, table or bypass rules moves the compute counts; a change to
//! what the runs do moves the Look counts too (and `preset_ledgers.rs`
//! flags it).

use std::cell::Cell;
use std::rc::Rc;

use rr_bench::grid::preset;
use rr_checker::explore::{check_protocol_with_stats, ExploreOptions};
use rr_corda::{
    Decision, Engine, EngineOptions, InterleavingMode, MultiplicityCapability, Protocol, Snapshot,
};
use rr_core::driver::run_task_on_engine;
use rr_core::invariant::SearchingInvariant;
use rr_core::unified::{protocol_for, Task, UnifiedProtocol};
use rr_ring::enumerate::enumerate_rigid_configurations;

/// A protocol that counts its `compute` calls.  Clones share the count: the
/// checker clones its protocol but never sends it to another thread.
#[derive(Debug, Clone)]
struct Counted<P> {
    inner: P,
    computes: Rc<Cell<u64>>,
}

impl<P: Protocol> Protocol for Counted<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capability(&self) -> MultiplicityCapability {
        self.inner.capability()
    }

    fn requires_exclusivity(&self) -> bool {
        self.inner.requires_exclusivity()
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        self.computes.set(self.computes.get() + 1);
        self.inner.compute(snapshot)
    }
}

/// `(looks, computes)` of a preset's full grid at its default seed.
fn preset_work(name: &str) -> (u64, u64) {
    let sweep = preset(name, false, None).expect("known preset").to_sweep();
    let computes = Rc::new(Cell::new(0));
    let mut engine: Option<Engine<Counted<UnifiedProtocol>>> = None;
    let mut looks = 0;
    for job in sweep.jobs() {
        let (n, k) = (job.start.n(), job.start.num_robots());
        let protocol = Counted {
            inner: protocol_for(job.task, n, k).expect("a preset cell has a protocol"),
            computes: Rc::clone(&computes),
        };
        let options = EngineOptions::for_protocol(&protocol);
        let engine = match &mut engine {
            Some(engine) => {
                engine.reset(protocol, &job.start, options).unwrap();
                engine
            }
            slot @ None => slot.insert(Engine::new(protocol, job.start.clone(), options).unwrap()),
        };
        job.scheduler
            .with(job.seed, |scheduler| {
                run_task_on_engine(
                    job.task,
                    engine,
                    scheduler,
                    job.targets,
                    job.max_scheduler_steps,
                )
            })
            .unwrap();
        looks += engine.look_count();
    }
    (looks, computes.get())
}

#[test]
fn e4_computes_once_per_distinct_view_of_each_run() {
    // Ring Clearing's phase-2 pattern travels round the ring, so most
    // Looks read a view already seen at another node: 13% compute.
    assert_eq!(preset_work("e4"), (86_049, 11_148));
}

#[test]
fn e6_computes_once_per_distinct_view_of_each_run() {
    assert_eq!(preset_work("e6"), (17_489, 11_536));
}

#[test]
fn a_checker_call_computes_once_per_distinct_view() {
    // Graph searching at (11, 8) under ASYNC, first rigid class: 351,680
    // Looks over the graph's states, but only 32 distinct views.
    let computes = Rc::new(Cell::new(0));
    let protocol = Counted {
        inner: protocol_for(Task::GraphSearching, 11, 8).expect("a claimed cell"),
        computes: Rc::clone(&computes),
    };
    let initial = &enumerate_rigid_configurations(11, 8)[0];
    let options = ExploreOptions::new(InterleavingMode::AsyncPhases);
    let report =
        check_protocol_with_stats(&protocol, initial, &SearchingInvariant::new(), &options)
            .unwrap()
            .0;
    assert!(report.verified(), "{:?}", report.outcome);
    assert_eq!((report.states, report.edges), (90_752, 726_016));
    assert_eq!(computes.get(), 32);
}
