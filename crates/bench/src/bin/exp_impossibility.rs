//! Experiment E7 (Theorems 2–5, Lemmas 6–8): the impossibility side.
//!
//! * structural reasons for every impossible cell in a band of parameters;
//! * the adversarial demonstration that two robots never clear a ring;
//! * the exhaustive protocol-synthesis search for the smallest cases
//!   (all protocols defeated for k ∈ {1,2}; SSYNC-surviving candidates are
//!   counted for k = 3 and, budget permitting, (k,n) = (4,7)).
//!
//! ```text
//! cargo run --release -p rr-bench --bin exp_impossibility -- \
//!     [--quick] [--json <path>] [--sequential] [--with-4-7]
//! ```

use rr_bench::sweep::{grid_map, ExpArgs};
use rr_checker::game::{exhaustive_impossibility, search_space};
use rr_checker::impossibility::{demonstrate_two_robot_failure, structural_reason};
use serde::Serialize;

/// One synthesis-search case, as recorded in the JSON report.
#[derive(Debug, Clone, Serialize)]
struct ImpossibilityRecord {
    experiment: String,
    n: usize,
    k: usize,
    view_classes: u64,
    protocols_checked: u64,
    surviving_protocols: u64,
    confirmed: bool,
    skipped: bool,
    ok: bool,
}

const USAGE: &str = "\
usage: exp_impossibility [--quick] [--json <path>] [--sequential] [--with-4-7]";

fn main() {
    let args = ExpArgs::parse(0xE7, USAGE);
    let with_4_7 = args.flag("--with-4-7");

    println!("# E7a — structural impossibility reasons (n <= 12)");
    for n in 3..=12usize {
        for k in 1..=n {
            if let Some(reason) = structural_reason(n, k) {
                println!("  n={n:>2} k={k:>2}: {reason}");
            }
        }
    }

    println!();
    println!("# E7b — the alternating adversary vs the two-robot baseline (Theorem 2)");
    let mut adversary_failures = 0usize;
    for n in [6usize, 9, 12, 20] {
        let rounds = 500;
        let survived = demonstrate_two_robot_failure(n, rounds);
        if survived != rounds {
            adversary_failures += 1;
        }
        println!("  n={n:>2}: ring never cleared within {survived}/{rounds} adversarial rounds");
    }

    println!();
    println!("# E7c — exhaustive protocol-synthesis search (semi-synchronous adversary)");
    println!(
        "{:>4} {:>4} {:>14} {:>14} {:>12} {:>12}",
        "n", "k", "view classes", "protocols", "survivors", "confirmed"
    );
    let mut cases: Vec<(usize, usize, u64)> = vec![
        (4, 2, 1_000_000),
        (5, 2, 1_000_000),
        (6, 2, 1_000_000),
        (7, 2, 1_000_000),
        (8, 2, 1_000_000),
        (4, 1, 1_000_000),
    ];
    if !args.quick {
        cases.push((5, 3, 10_000_000));
        cases.push((6, 3, 10_000_000));
    }
    if with_4_7 {
        cases.push((7, 4, 50_000_000));
    }
    let records: Vec<ImpossibilityRecord> = grid_map(cases, args.mode(), |(n, k, cap)| {
        let (classes, count) = search_space(n, k);
        match exhaustive_impossibility(n, k, cap) {
            Some(result) => ImpossibilityRecord {
                experiment: "E7".to_string(),
                n,
                k,
                view_classes: result.view_classes as u64,
                protocols_checked: result.protocols_checked,
                surviving_protocols: result.surviving_protocols,
                confirmed: result.impossibility_confirmed(),
                skipped: false,
                // k <= 2 must be fully confirmed; the k >= 3 survivors are
                // only defeated by asynchronous schedules the SSYNC search
                // does not model (see the closing note), so a survivor there
                // is expected, not a failure.
                ok: k > 2 || result.impossibility_confirmed(),
            },
            None => ImpossibilityRecord {
                experiment: "E7".to_string(),
                n,
                k,
                view_classes: classes as u64,
                protocols_checked: count,
                surviving_protocols: 0,
                confirmed: false,
                skipped: true,
                ok: true,
            },
        }
    });
    for r in &records {
        if r.skipped {
            println!(
                "{:>4} {:>4} {:>14} {:>14} {:>12} {:>12}",
                r.n, r.k, r.view_classes, r.protocols_checked, "-", "skipped (cap)"
            );
        } else {
            println!(
                "{:>4} {:>4} {:>14} {:>14} {:>12} {:>12}",
                r.n, r.k, r.view_classes, r.protocols_checked, r.surviving_protocols, r.confirmed
            );
        }
    }
    println!();
    println!("# note: k <= 2 is fully confirmed; the k = 3 survivors are only defeated by the");
    println!("# pending-move (asynchronous) schedules of Theorem 3, which the exhaustive");
    println!("# SSYNC search does not model (documented in DESIGN.md).");

    args.write_json("E7", &records);
    let failures = adversary_failures + records.iter().filter(|r| !r.ok).count();
    rr_bench::sweep::exit_if_failed("E7", failures, records.len() + 4);
}
