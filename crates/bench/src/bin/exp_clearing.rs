//! Experiment E4 (Theorem 6 / Figure 12): Ring Clearing — perpetual clearing
//! and exploration statistics across the supported parameter band, under
//! three scheduler models.
//!
//! ```text
//! cargo run --release -p rr-bench --bin exp_clearing -- [--quick] [--json <path>] [--seed <u64>] [--sequential] [--ledger <path>] [--cache <dir>]
//! ```

use rr_bench::grid::preset;
use rr_bench::sweep::ExpArgs;

const USAGE: &str = "\
usage: exp_clearing [--quick] [--json <path>] [--seed <u64>] [--sequential]
                    [--ledger <path>] [--cache <dir>]";

fn main() {
    let args = ExpArgs::parse(0xE4, USAGE);
    let spec = preset("clearing", args.quick, Some(args.root_seed)).expect("builtin preset");
    let run = args.run_grid(&spec);

    println!("# E4 — Ring Clearing (5 <= k < n-3): clearings, steady period, exploration");
    if let Some(records) = run.records.sweep().filter(|r| !r.is_empty()) {
        println!(
            "{:>4} {:>4} {:>12} {:>10} {:>14} {:>12} {:>10}",
            "n", "k", "scheduler", "clearings", "steady period", "exploration", "moves"
        );
        for r in records {
            println!(
                "{:>4} {:>4} {:>12} {:>10} {:>14} {:>12} {:>10}",
                r.n, r.k, r.scheduler, r.clearings, r.steady_period, r.explorations, r.moves
            );
        }
        println!();
        println!(
            "# shape check: the steady clearing period equals n-k moves per cycle, independent"
        );
        println!(
            "# of the scheduler (the adversary changes how many activations it takes, not the"
        );
        println!("# number of moves).");
    }

    args.finish_grid(&spec, &run);
}
