//! E13 (micro): round leaping vs stepping on the gathering endgame.
//!
//! Two groups:
//!
//! * `engine_leap` — the full gathering endgame (a multiplicity of `k-1`
//!   robots plus one walker half a ring away) run to completion under the
//!   fully synchronous scheduler, in `StepPath::Leap` vs
//!   `StepPath::StepBaseline` mode.  The leap mode collapses the whole
//!   approach into O(k) work; the baseline pays one full round per walker
//!   move.
//! * `leap_plan` — the certificate computation alone: one
//!   `Protocol::leap_plan` call on a reused plan buffer (the O(k) analysis
//!   the Leap mode performs per configuration change).
//!
//! The binary counterpart with verified equivalence and JSON records is
//! `exp_throughput` (its E13 section).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rr_corda::scheduler::FullySynchronousScheduler;
use rr_corda::{
    Engine, EngineOptions, LeapPlan, MultiplicityCapability, Protocol, StepPath, ViewOrder,
};
use rr_core::gathering::GatheringProtocol;
use rr_ring::{Configuration, Direction, Ring};
use std::hint::black_box;

const CELLS: &[(usize, usize)] = &[(256, 8), (1024, 16), (4096, 16)];

fn endgame(n: usize, k: usize) -> Configuration {
    let mut counts = vec![0u32; n];
    counts[0] = u32::try_from(k - 1).expect("k fits u32");
    counts[n / 2] = 1;
    Configuration::from_counts(Ring::new(n), counts).expect("valid endgame")
}

fn options(path: StepPath) -> EngineOptions {
    EngineOptions {
        capability: MultiplicityCapability::Local,
        enforce_exclusivity: false,
        view_order: ViewOrder::CwFirst,
        step_path: path,
    }
}

/// One full endgame run per iteration on a recycled engine: reset to the
/// start, run until gathered.
fn bench_endgame_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_leap");
    for &(n, k) in CELLS {
        for (label, path) in [
            ("gather_leap", StepPath::Leap),
            ("gather_step_baseline", StepPath::StepBaseline),
        ] {
            let start = endgame(n, k);
            let mut engine = Engine::new(GatheringProtocol, start.clone(), options(path))
                .expect("valid endgame");
            let budget = (n as u64) * 4;
            group.bench_with_input(
                BenchmarkId::new(label, format!("n{n}_k{k}")),
                &(),
                move |b, ()| {
                    b.iter(|| {
                        engine
                            .reset(GatheringProtocol, &start, options(path))
                            .expect("reset endgame");
                        let report =
                            engine.run_until(&mut FullySynchronousScheduler, budget, |e| {
                                e.configuration().is_gathered()
                            });
                        black_box(report.steps)
                    })
                },
            );
        }
    }
    group.finish();
}

/// One certificate computation per iteration, on a reused plan buffer.
fn bench_leap_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("leap_plan");
    for &(n, k) in CELLS {
        let config = endgame(n, k);
        let mut plan = LeapPlan::default();
        group.bench_with_input(
            BenchmarkId::new("gathering_endgame", format!("n{n}_k{k}")),
            &config,
            move |b, cfg| {
                b.iter(|| {
                    black_box(GatheringProtocol.leap_plan(
                        black_box(cfg),
                        Direction::Cw,
                        MultiplicityCapability::Local,
                        &mut plan,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_endgame_runs, bench_leap_plan);
criterion_main!(benches);
