//! Experiment E6 (Theorem 8): gathering — moves to gather under three
//! scheduler models across ring sizes and team sizes.
//!
//! ```text
//! cargo run --release -p rr-bench --bin exp_gathering -- [--quick] [--json <path>] [--seed <u64>] [--sequential] [--ledger <path>] [--cache <dir>]
//! ```

use rr_bench::grid::preset;
use rr_bench::sweep::ExpArgs;
use rr_corda::SchedulerKind;

const USAGE: &str = "\
usage: exp_gathering [--quick] [--json <path>] [--seed <u64>] [--sequential]
                     [--ledger <path>] [--cache <dir>]";

fn main() {
    let args = ExpArgs::parse(0xE6, USAGE);
    let spec = preset("gathering", args.quick, Some(args.root_seed)).expect("builtin preset");
    let run = args.run_grid(&spec);

    println!("# E6 — Gathering with local multiplicity detection (2 < k < n-2)");
    if let Some(records) = run.records.sweep().filter(|r| r.len() == spec.cells()) {
        println!(
            "{:>4} {:>4} {:>16} {:>16} {:>16}",
            "n", "k", "rr moves", "ssync moves", "async moves"
        );
        for row in records.chunks(SchedulerKind::ALL.len()) {
            let fmt = |r: &rr_bench::sweep::RunRecord| {
                if r.ok {
                    r.moves.to_string()
                } else {
                    "FAILED".to_string()
                }
            };
            println!(
                "{:>4} {:>4} {:>16} {:>16} {:>16}",
                row[0].n,
                row[0].k,
                fmt(&row[0]),
                fmt(&row[1]),
                fmt(&row[2])
            );
        }
        println!();
        println!("# shape check: the move count is dominated by the Align phase plus roughly one");
        println!("# move per robot for the contraction, and is identical in order of magnitude");
        println!("# across schedulers (the adversary cannot inflate the number of moves, only the");
        println!("# number of activations).");
    }

    args.finish_grid(&spec, &run);
}
