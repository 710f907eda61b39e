//! What the real grids compute, pinned byte for byte.
//!
//! The `rr_sweep_v1_*` goldens hold hand-written sample records and
//! `sweep_determinism.rs` compares two execution modes of the same build,
//! so neither notices a kernel edit that flips one decision of an actual
//! grid.  This test runs the full E4, E5 and E6 presets and the quick E3
//! preset at their default seeds through [`execute_grid`], exactly as the
//! sweep service does, and pins an FNV-1a digest of each grid's
//! `rr-sweep/v1` ledger bytes (header, records and completion footer).
//!
//! One more input runs E6's instances, targets, budget and default seed
//! under the fully synchronous scheduler alone, the one scheduler no preset
//! runs.  `GridSpec::parse` admits only `SchedulerKind::ALL`, so that input
//! is a [`Sweep`](rr_bench::sweep::Sweep) run directly, and its pin covers
//! its `rr-sweep/v1` report bytes.
//!
//! A digest may change only together with a deliberate change of what a
//! grid computes (a protocol fix, a new record field); such a change also
//! bumps `rr_corda::ENGINE_VERSION`, which the ledger header carries.

use std::path::PathBuf;

use rr_bench::grid::{execute_grid, preset, ExecOptions};
use rr_bench::sweep::{json_report, ExecMode, RunOptions};
use rr_corda::SchedulerKind;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The ledger bytes of one preset grid at its default seed.
fn ledger_bytes(name: &str, quick: bool) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "rr-preset-ledgers-{}-{name}-{quick}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("ledger.jsonl");
    let spec = preset(name, quick, None).expect("known preset");
    let options = ExecOptions {
        mode: Some(ExecMode::Sequential),
        ledger: Some(path.clone()),
        cache: None,
    };
    let run = execute_grid(&spec, &options).unwrap();
    assert_eq!(run.stats.cells_executed, spec.cells(), "{name}");
    assert_eq!(run.stats.failures, 0, "{name}: a cell failed");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

/// The `rr-sweep/v1` report bytes of E6's grid under the fully synchronous
/// scheduler alone.
fn fsync_e6_report_bytes() -> Vec<u8> {
    let mut sweep = preset("e6", false, None).expect("known preset").to_sweep();
    sweep.schedulers = vec![SchedulerKind::FullySynchronous];
    let records = sweep.run_with(&RunOptions::new());
    assert!(
        records.iter().all(|r| r.ok),
        "e6 under fsync: a cell failed"
    );
    json_report(&sweep.experiment, sweep.root_seed, &records)
        .unwrap()
        .into_bytes()
}

#[test]
fn preset_grids_write_the_pinned_ledger_bytes() {
    let pinned: [(&str, bool, u64); 4] = [
        ("e3", true, 0x7032_93ca_d467_bdf5),
        ("e4", false, 0x83a7_09a6_b7fe_144b),
        ("e5", false, 0x20da_839f_2e1d_5d13),
        ("e6", false, 0x033c_f4ed_4562_80f0),
    ];
    let mut mismatches = Vec::new();
    for (name, quick, digest) in pinned {
        let actual = fnv1a(&ledger_bytes(name, quick));
        if actual != digest {
            mismatches.push(format!("{name} (quick: {quick}): {actual:#018x}"));
        }
    }
    let actual = fnv1a(&fsync_e6_report_bytes());
    if actual != 0x2414_3ce8_e3bf_2c1b {
        mismatches.push(format!("e6 under fsync alone: {actual:#018x}"));
    }
    assert!(
        mismatches.is_empty(),
        "ledger digests moved: {mismatches:?}"
    );
}
