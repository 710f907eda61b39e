//! Experiment E3 (Theorem 1): Align convergence — number of moves to reach
//! `C*` from rigid configurations, exhaustively for small rings and sampled
//! for larger ones.
//!
//! ```text
//! cargo run --release -p rr-bench --bin exp_align -- [--quick] [--json <path>] [--sequential] [--ledger <path>] [--cache <dir>]
//! ```

use rr_bench::grid::preset;
use rr_bench::mean;
use rr_bench::sweep::ExpArgs;

const USAGE: &str = "\
usage: exp_align [--quick] [--json <path>] [--seed <u64>] [--sequential]
                 [--ledger <path>] [--cache <dir>]";

fn main() {
    let args = ExpArgs::parse(0xE3, USAGE);
    let spec = preset("align", args.quick, Some(args.root_seed)).expect("builtin preset");
    let run = args.run_grid(&spec);

    println!("# E3 — Align convergence to C* (round-robin scheduler)");
    if let Some(records) = run.records.align().filter(|r| !r.is_empty()) {
        println!(
            "{:>4} {:>4} {:>8} {:>10} {:>10} {:>10} {:>12}",
            "n", "k", "starts", "min moves", "avg moves", "max moves", "all reached"
        );
        for r in records {
            println!(
                "{:>4} {:>4} {:>8} {:>10} {:>10.1} {:>10} {:>12}",
                r.n,
                r.k,
                r.starts,
                r.min_moves,
                mean(r.total_moves, r.starts as u64),
                r.max_moves,
                r.ok
            );
        }
        println!();
        println!("# shape check: max moves grows roughly like n*k (the supermin view decreases");
        println!("# lexicographically and each of its k entries is bounded by n).");
    }

    args.finish_grid(&spec, &run);
}
