//! Re-running an identical grid against the result cache performs **zero**
//! engine work (no `Engine::step_into` calls, counted by the engine's debug
//! step probe) and serves byte-identical ledger bytes.
//!
//! The probe counts steps across the whole process, so this is the only
//! test in its binary: a concurrently running test stepping its own
//! engines would otherwise show up as engine work on the cache hit.

use rr_bench::cache::ResultCache;
use rr_bench::grid::{execute_grid, ExecOptions, GridKind, GridSpec};
use rr_bench::sweep::ExecMode;
use rr_corda::SchedulerKind;
use rr_core::driver::TaskTargets;
use rr_core::unified::Task;

/// A small but non-trivial grid: 2 instances × 3 schedulers = 6 cells.
fn small_spec(root_seed: u64) -> GridSpec {
    GridSpec {
        experiment: "T-resume".to_string(),
        root_seed,
        instances: vec![(8, 4), (10, 3)],
        kind: GridKind::Sweep {
            task: Task::Gathering,
            schedulers: SchedulerKind::ALL.to_vec(),
            seeds_per_cell: 1,
            targets: TaskTargets::open_ended(),
            budget_per_n: 20_000,
            budget_flat: 0,
            async_budget_factor: 2,
        },
    }
}

#[test]
fn cache_hit_runs_zero_engine_steps() {
    let dir = std::env::temp_dir().join(format!("rr-cache-hit-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = small_spec(99);
    let cache = ResultCache::open(&dir.join("cache")).unwrap();

    // First run executes and publishes.
    let first_path = dir.join("first.jsonl");
    let options = ExecOptions {
        mode: Some(ExecMode::Sequential),
        ledger: Some(first_path.clone()),
        cache: Some(&cache),
    };
    let first = execute_grid(&spec, &options).unwrap();
    assert!(!first.stats.from_cache);
    assert_eq!(first.stats.cells_executed, spec.cells());
    assert!(
        cache.lookup(spec.cache_key(), &spec.header()).is_some(),
        "published"
    );

    // Second run of the identical grid into a fresh ledger path: served
    // entirely from the cache, with zero engine work.
    let probe_before = rr_corda::debug_step_probe();
    let second_path = dir.join("second.jsonl");
    let options = ExecOptions {
        mode: Some(ExecMode::Sequential),
        ledger: Some(second_path.clone()),
        cache: Some(&cache),
    };
    let second = execute_grid(&spec, &options).unwrap();
    let probe_after = rr_corda::debug_step_probe();

    assert!(second.stats.from_cache, "identical grid must hit the cache");
    assert_eq!(second.stats.cells_executed, 0);
    assert_eq!(second.stats.cells_reused, spec.cells());
    if cfg!(debug_assertions) {
        assert_eq!(
            probe_after - probe_before,
            0,
            "a cache hit must not call Engine::step_into"
        );
    }
    assert_eq!(
        std::fs::read(&first_path).unwrap(),
        std::fs::read(&second_path).unwrap(),
        "served bytes must equal executed bytes"
    );

    // A different root seed is a different content address: cache miss.
    let other = small_spec(100);
    assert!(cache.lookup(other.cache_key(), &other.header()).is_none());
}
