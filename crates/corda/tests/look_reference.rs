//! The Look pipeline against its O(n)-scan reference, step by step.
//!
//! The engine reads every view off the configuration's incrementally
//! maintained occupancy cycle (`Snapshot::capture_into`).  This property
//! drives the engine-throughput workload — the greedy walker with
//! exclusivity off, so robots merge into and split out of multiplicities —
//! from random starts under every scheduler family, and after every step
//! requires the incremental snapshot, fresh and in a reused buffer, to equal
//! the scan reference at every occupied node, in both directions, for all
//! three multiplicity capabilities.

use proptest::prelude::*;
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::{Engine, EngineOptions, MultiplicityCapability, SchedulerKind, Snapshot, ViewOrder};
use rr_ring::{Configuration, Direction, NodeId, Ring, View};

include!("common/scan_snapshot.rs");

/// Scheduler steps per run.
const STEPS: usize = 40;

/// A random start: 0–2 robots on each node of a ring of 3–16 nodes, with at
/// least one robot and one empty node (on a full ring every walker idles).
fn start() -> impl Strategy<Value = Configuration> {
    proptest::collection::vec(0u32..3, 3..=16)
        .prop_filter("no empty node", |counts| counts.contains(&0))
        .prop_filter_map("no robot", |counts| {
            Configuration::from_counts(Ring::new(counts.len()), counts).ok()
        })
}

/// Every snapshot of `config` equals the scan reference's.
fn assert_snapshots_match(config: &Configuration, scratch: &mut Snapshot) {
    for node in config.occupied_nodes() {
        for dir in Direction::BOTH {
            for capability in [
                MultiplicityCapability::None,
                MultiplicityCapability::Local,
                MultiplicityCapability::Global,
            ] {
                let scan = capture_scan(config, node, capability, dir);
                let at = format!("node {node}, {dir:?} first, {capability:?}, in {config:?}");
                assert_eq!(
                    Snapshot::capture(config, node, capability, dir),
                    scan,
                    "{at}"
                );
                scratch.capture_into(config, node, capability, dir);
                assert_eq!(*scratch, scan, "reused buffer: {at}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_step_leaves_snapshots_equal_to_the_scan_reference(
        initial in start(),
        seed in 0u64..1_000,
    ) {
        let options = EngineOptions {
            capability: MultiplicityCapability::None,
            enforce_exclusivity: false,
            view_order: ViewOrder::CwFirst,
        };
        let mut scratch = Snapshot::empty();
        assert_snapshots_match(&initial, &mut scratch);
        let mut moves = 0;
        for kind in [
            SchedulerKind::RoundRobin,
            SchedulerKind::SemiSynchronous,
            SchedulerKind::Asynchronous,
            SchedulerKind::FullySynchronous,
        ] {
            let mut engine = Engine::new(GreedyGapWalker, initial.clone(), options).unwrap();
            kind.with(seed, |scheduler| {
                for _ in 0..STEPS {
                    let step = scheduler.next(&engine.scheduler_view());
                    engine.step(&step, &mut ()).unwrap();
                    assert_snapshots_match(engine.configuration(), &mut scratch);
                }
            });
            moves += engine.move_count();
        }
        prop_assert!(moves > 0, "nothing moved");
    }
}
