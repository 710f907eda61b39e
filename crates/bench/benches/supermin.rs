//! E8 (micro): supermin view computation and symmetry classification
//! (Property 1 / Lemma 1 machinery of Section 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rr_bench::rigid_start;
use rr_ring::{supermin_intervals, supermin_view, symmetry, View};
use std::hint::black_box;
use std::time::Duration;

/// The all-rotations reference: the minimum over every materialized
/// rotation of `w`.
fn min_rotation_naive(w: &View) -> View {
    w.all_rotations()
        .into_iter()
        .min()
        .expect("bench views are non-empty")
}

/// The all-rotations reference of the supermin: the smaller of the two
/// reading directions' naive minimal rotations.
fn supermin_naive(w: &View) -> View {
    min_rotation_naive(w).min(min_rotation_naive(&w.opposite_direction()))
}

/// Booth's least-rotation vs the all-rotations reference (the minimum of
/// `all_rotations()`) — the regression guard for the Booth scan that
/// replaced the Vec-of-Vecs materialization.
fn bench_booth_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("booth_vs_naive");
    for &(n, k) in &[(32usize, 12usize), (64, 16), (256, 64), (1024, 128)] {
        let view = View::new(rigid_start(n, k).gap_sequence());
        group.bench_with_input(
            BenchmarkId::new("min_rotation_booth", format!("n{n}_k{k}")),
            &view,
            |b, w| b.iter(|| black_box(black_box(w).min_rotation())),
        );
        group.bench_with_input(
            BenchmarkId::new("min_rotation_naive", format!("n{n}_k{k}")),
            &view,
            |b, w| b.iter(|| black_box(min_rotation_naive(black_box(w)))),
        );
        group.bench_with_input(
            BenchmarkId::new("supermin_booth", format!("n{n}_k{k}")),
            &view,
            |b, w| b.iter(|| black_box(black_box(w).supermin())),
        );
        group.bench_with_input(
            BenchmarkId::new("supermin_naive", format!("n{n}_k{k}")),
            &view,
            |b, w| b.iter(|| black_box(supermin_naive(black_box(w)))),
        );
    }
    group.finish();
}

fn bench_supermin(c: &mut Criterion) {
    let mut group = c.benchmark_group("supermin");
    for &(n, k) in &[(16usize, 7usize), (64, 16), (256, 64), (1024, 128)] {
        let config = rigid_start(n, k);
        group.bench_with_input(
            BenchmarkId::new("supermin_view", format!("n{n}_k{k}")),
            &config,
            |b, cfg| {
                b.iter(|| black_box(supermin_view(black_box(cfg))));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("supermin_intervals", format!("n{n}_k{k}")),
            &config,
            |b, cfg| {
                b.iter(|| black_box(supermin_intervals(black_box(cfg))));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("classify", format!("n{n}_k{k}")),
            &config,
            |b, cfg| {
                b.iter(|| black_box(symmetry::classify(black_box(cfg))));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    targets = bench_supermin, bench_booth_vs_naive
}
criterion_main!(benches);
