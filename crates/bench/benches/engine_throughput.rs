//! E12 (micro): the CORDA stepping pipeline and its Look hot path.
//!
//! Two groups:
//!
//! * `engine_throughput` — scheduler-driven `Engine::step` loops across
//!   ring/team sizes, memoized Looks at `n = 16` and the memo's bypass on
//!   larger rings (the criterion counterpart of the `exp_throughput`
//!   binary);
//! * `look_pipeline` — the snapshot capture alone: `capture_into` on a
//!   reused scratch snapshot (zero-allocation path) vs the allocating
//!   `capture` wrapper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rr_bench::rigid_start;
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::scheduler::RoundRobinScheduler;
use rr_corda::{Engine, EngineOptions, MultiplicityCapability, Snapshot, ViewOrder};
use rr_ring::Direction;
use std::hint::black_box;

const CELLS: &[(usize, usize)] = &[(16, 4), (64, 8), (256, 8), (1024, 16)];

fn workload_options() -> EngineOptions {
    EngineOptions {
        capability: MultiplicityCapability::None,
        enforce_exclusivity: false,
        view_order: ViewOrder::CwFirst,
    }
}

/// 256 scheduler steps per iteration on a long-lived engine (the
/// configuration keeps evolving; the per-step cost is stationary).
fn bench_engine_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    for &(n, k) in CELLS {
        let mut engine = Engine::new(GreedyGapWalker, rigid_start(n, k), workload_options())
            .expect("valid workload");
        let mut scheduler = RoundRobinScheduler::new();
        group.bench_with_input(
            BenchmarkId::new("steps_incremental", format!("n{n}_k{k}")),
            &(),
            move |b, ()| b.iter(|| black_box(engine.run_until(&mut scheduler, 256, |_| false))),
        );
    }
    group.finish();
}

/// One snapshot capture per iteration, at a fixed node of a fixed
/// configuration: the pure Look-phase cost.
fn bench_look_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("look_pipeline");
    for &(n, k) in CELLS {
        let config = rigid_start(n, k);
        let node = config.occupied_anchor();
        let mut scratch = Snapshot::empty();
        group.bench_with_input(
            BenchmarkId::new("capture_into", format!("n{n}_k{k}")),
            &config,
            move |b, cfg| {
                b.iter(|| {
                    scratch.capture_into(
                        black_box(cfg),
                        node,
                        MultiplicityCapability::None,
                        Direction::Cw,
                    );
                    black_box(scratch.views[0].len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("capture_alloc", format!("n{n}_k{k}")),
            &config,
            move |b, cfg| {
                b.iter(|| {
                    black_box(Snapshot::capture(
                        black_box(cfg),
                        node,
                        MultiplicityCapability::None,
                        Direction::Cw,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_steps, bench_look_pipeline);
criterion_main!(benches);
