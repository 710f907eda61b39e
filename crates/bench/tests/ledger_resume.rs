//! The sweep service's durability contract, proven at the byte level: kill
//! a grid execution at **any** point — any byte prefix of its ledger, torn
//! lines included — and resuming produces a ledger byte-identical to an
//! uninterrupted run.  (That a cache hit performs zero engine work is
//! pinned in `cache_hit_zero_engine_steps.rs`, a test binary of its own:
//! the engine's step probe counts every engine in the process.)

use std::path::PathBuf;

use proptest::prelude::*;
use rr_bench::cache::ResultCache;
use rr_bench::grid::{execute_grid, ExecOptions, GridKind, GridSpec};
use rr_bench::sweep::ExecMode;
use rr_corda::SchedulerKind;
use rr_core::driver::TaskTargets;
use rr_core::unified::Task;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rr-resume-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn run_to_ledger(spec: &GridSpec, path: &PathBuf, mode: ExecMode) -> Vec<u8> {
    let options = ExecOptions {
        mode: Some(mode),
        ledger: Some(path.clone()),
        cache: None,
    };
    let run = execute_grid(spec, &options).unwrap();
    assert!(!run.stats.from_cache);
    std::fs::read(path).unwrap()
}

#[test]
fn resume_at_every_record_boundary_is_byte_identical() {
    let dir = tmp_dir("boundaries");
    let spec = small_spec(42);
    let full = run_to_ledger(
        &spec,
        &dir.join("uninterrupted.jsonl"),
        ExecMode::Sequential,
    );

    // Cut after the header and after each record line (the footer boundary
    // makes the last iteration a resume-of-complete no-op check).
    let newline_offsets: Vec<usize> = full
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(
        newline_offsets.len(),
        1 + spec.cells() + 1,
        "header + records + footer"
    );
    for (i, &cut) in newline_offsets.iter().enumerate() {
        let path = dir.join(format!("cut-{i}.jsonl"));
        std::fs::write(&path, &full[..cut]).unwrap();
        let resumed = run_to_ledger(&spec, &path, ExecMode::Sequential);
        assert_eq!(
            resumed, full,
            "ledger resumed from record boundary {i} must be byte-identical"
        );
    }
}

/// Sharded workers claim cells costliest first, so on this grid — whose
/// costliest cell, (10,3) async, is the last one declared — the ledger's
/// durable prefix fills out of claim order.  Resuming a sharded run from
/// every record boundary must still reproduce the sequential bytes.
#[test]
fn sharded_resume_is_byte_identical_to_sequential() {
    let dir = tmp_dir("sharded");
    let spec = small_spec(7);
    let budgets: Vec<u64> = spec
        .to_sweep()
        .jobs()
        .iter()
        .map(|job| job.max_scheduler_steps)
        .collect();
    let (last, earlier) = budgets.split_last().unwrap();
    assert!(
        earlier.iter().all(|budget| budget < last),
        "the costliest cell must be declared last: {budgets:?}"
    );
    let full = run_to_ledger(&spec, &dir.join("sequential.jsonl"), ExecMode::Sequential);
    assert_eq!(
        run_to_ledger(&spec, &dir.join("sharded.jsonl"), ExecMode::Sharded),
        full,
        "an uninterrupted sharded run writes the sequential bytes"
    );

    let newline_offsets: Vec<usize> = full
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(newline_offsets.len(), 1 + spec.cells() + 1);
    for (i, &cut) in newline_offsets.iter().enumerate() {
        let path = dir.join(format!("resume-sharded-{i}.jsonl"));
        std::fs::write(&path, &full[..cut]).unwrap();
        let resumed = run_to_ledger(&spec, &path, ExecMode::Sharded);
        assert_eq!(
            resumed, full,
            "sharded resume from record boundary {i} must be byte-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full kill-at-ANY-byte property: truncating the ledger at an
    /// arbitrary byte offset — torn lines, a torn header, an empty file, a
    /// torn footer — and resuming reproduces the uninterrupted bytes.
    #[test]
    fn resume_from_any_byte_prefix_is_byte_identical(permille in 0usize..=1000) {
        let dir = tmp_dir("anybyte");
        let spec = small_spec(1234);
        let full_path = dir.join("full.jsonl");
        let full = if full_path.exists() {
            std::fs::read(&full_path).unwrap()
        } else {
            run_to_ledger(&spec, &full_path, ExecMode::Sequential)
        };
        let cut = (full.len() * permille / 1000).min(full.len());
        let path = dir.join(format!("cut-{cut}.jsonl"));
        std::fs::write(&path, &full[..cut]).unwrap();
        let resumed = run_to_ledger(&spec, &path, ExecMode::Sequential);
        prop_assert_eq!(resumed, full, "cut at byte {}", cut);
    }
}

/// The conflation regression: two grids of the same experiment and root
/// seed but different shapes (think `--quick` vs the full preset, whose
/// default seeds are identical) sharing one `--ledger` path must never
/// adopt each other's records — the ledger header binds the grid's
/// content-address and cell count, so the shape mismatch restarts the
/// ledger instead of silently serving or extending the wrong grid.
#[test]
fn same_seed_different_shape_grids_never_share_a_ledger() {
    let dir = tmp_dir("shape");
    let quick = small_spec(42);
    let mut full = small_spec(42);
    // Differ at the *front* so adopted-prefix bytes could never coincide.
    full.instances.insert(0, (12, 5));
    assert_eq!(quick.experiment, full.experiment);
    assert_eq!(quick.root_seed, full.root_seed);
    assert_ne!(quick.cache_key(), full.cache_key());
    assert_ne!(
        quick.header().to_json_line(),
        full.header().to_json_line(),
        "ledger headers must bind the grid shape"
    );

    // The quick grid completes into the shared ledger path...
    let shared = dir.join("shared.jsonl");
    let quick_bytes = run_to_ledger(&quick, &shared, ExecMode::Sequential);

    // ...and the full grid at the same path must NOT resume it as complete:
    // it restarts and executes every one of its own cells.
    let options = ExecOptions {
        mode: Some(ExecMode::Sequential),
        ledger: Some(shared.clone()),
        cache: None,
    };
    let run = execute_grid(&full, &options).unwrap();
    assert_eq!(run.stats.cells_executed, full.cells());
    assert_eq!(run.stats.cells_reused, 0);
    let full_bytes = std::fs::read(&shared).unwrap();
    let reference = run_to_ledger(&full, &dir.join("full-fresh.jsonl"), ExecMode::Sequential);
    assert_eq!(full_bytes, reference, "restarted ledger = fresh full run");

    // The reverse direction: a partial full-grid ledger is not a resumable
    // prefix for the quick grid — the quick run restarts it and reproduces
    // exactly the fresh quick bytes (no foreign records adopted).
    let cut = reference
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .nth(2)
        .unwrap(); // header + 2 full-grid records
    let partial = dir.join("partial-full.jsonl");
    std::fs::write(&partial, &reference[..cut]).unwrap();
    let resumed = run_to_ledger(&quick, &partial, ExecMode::Sequential);
    assert_eq!(
        resumed, quick_bytes,
        "quick grid must restart a foreign partial ledger, not extend it"
    );
}

/// A crash between `Ledger::finish` and the cache publish leaves a complete
/// ledger with no cache entry; the next run over that ledger must repair
/// the publish instead of skipping it forever.
#[test]
fn complete_ledger_resume_publishes_to_the_cache() {
    let dir = tmp_dir("late-publish");
    let spec = small_spec(55);
    let path = dir.join("ledger.jsonl");
    // Completes without a cache configured — as if the publish was lost.
    run_to_ledger(&spec, &path, ExecMode::Sequential);

    let cache = ResultCache::open(&dir.join("cache")).unwrap();
    assert!(cache.lookup(spec.cache_key(), &spec.header()).is_none());
    let options = ExecOptions {
        mode: Some(ExecMode::Sequential),
        ledger: Some(path.clone()),
        cache: Some(&cache),
    };
    let run = execute_grid(&spec, &options).unwrap();
    assert!(!run.stats.from_cache);
    assert_eq!(run.stats.cells_executed, 0);
    assert_eq!(run.stats.cells_reused, spec.cells());
    assert!(
        cache.lookup(spec.cache_key(), &spec.header()).is_some(),
        "resuming a complete ledger must publish the missing cache entry"
    );
}

#[test]
fn engine_version_partitions_the_cache_key() {
    let spec = small_spec(5);
    let enc = spec.canonical_encoding();
    let current = rr_bench::cache::cache_key(&enc, rr_corda::ENGINE_VERSION);
    let future = rr_bench::cache::cache_key(&enc, "999.0.0");
    assert_ne!(
        current, future,
        "an engine version bump must invalidate cached ledgers"
    );
    assert_eq!(spec.cache_key(), current);
}
