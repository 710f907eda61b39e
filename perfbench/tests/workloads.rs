//! The benchmark's own checks: the seed changes only the order of the
//! proof workloads, their digests are pinned, and the metric tables agree
//! with `BENCHMARK.json`.

use rr_checker::StoreKind;
use rr_corda::InterleavingMode;
use rr_perfbench::proof::{Cell, CellTask, ProofSpec, ProofWorkload};
use rr_perfbench::trace::Tracer;
use rr_perfbench::{PassRecord, END_TO_END, PER_LAYER};

/// `ProofSpec::grid(7, 4)`'s digest, pinned like the workloads' digests.
const SMALL_GRID_DIGEST: u64 = 0x616b_8c46_72de_d41a;

/// One traced pass; leftover spill files are looked for where the checker
/// writes them.
fn one_pass(spec: ProofSpec, seed: u64) -> PassRecord {
    let tmp = std::env::temp_dir();
    let mut workload = ProofWorkload::new(spec, seed, &tmp);
    let mut tracer = Tracer::new(true);
    workload.setup(&mut tracer);
    let record = workload.pass(0, &mut tracer);
    assert_eq!(record.failed, 0, "{:?}", record.notes);
    record
}

#[test]
fn proof_workload_sizes() {
    let grid = ProofSpec::proof_grid();
    assert_eq!(grid.cells.len(), 256);
    assert_eq!((grid.workers, grid.store), (1, StoreKind::Mem));
    assert_eq!(ProofSpec::cell_spill(1).workers, 1);
    assert_eq!(ProofSpec::cell_spill(2).workers, 2);
    assert_eq!(ProofSpec::cell_spill(64).workers, 2);
}

/// One test, so that no other pass of this process has spill files open
/// while a pass checks for leftovers.
#[test]
fn digests_and_counts_do_not_depend_on_the_seed() {
    let a = one_pass(ProofSpec::grid(7, 4), 1);
    let b = one_pass(ProofSpec::grid(7, 4), 2);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.digest, SMALL_GRID_DIGEST, "digest {:016x}", a.digest);
    for key in ["checker.calls", "checker.states", "checker.edges"] {
        assert_eq!(a.counters[key], b.counters[key], "{key}");
    }
    assert!(a.counters["checker.states"] > 0.0);
    assert_eq!(a.counters["store.spilled_bytes"], 0.0);

    let spill = ProofSpec {
        cells: vec![Cell {
            task: CellTask::Searching,
            n: 11,
            k: 5,
            mode: InterleavingMode::SsyncSubsets,
        }],
        quotient: false,
        workers: 1,
        store: StoreKind::Spill,
        mem_budget: 16 << 10,
    };
    let a = one_pass(spill.clone(), 5);
    let b = one_pass(spill, 6);
    assert_eq!(a.digest, b.digest);
    for key in ["checker.states", "checker.edges", "store.spilled_bytes"] {
        assert_eq!(a.counters[key], b.counters[key], "{key}");
    }
    assert!(a.counters["store.spilled_bytes"] > 0.0);
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"name\":").count(),
        END_TO_END.len() + PER_LAYER.len() + 3,
        "metrics plus three workloads"
    );
}
