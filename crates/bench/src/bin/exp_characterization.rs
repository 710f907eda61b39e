//! Experiment E1: regenerate the feasibility characterization of exclusive
//! perpetual graph searching (the paper's headline contribution summary) and
//! cross-validate every solvable cell by simulation.
//!
//! ```text
//! cargo run --release -p rr-bench --bin exp_characterization -- \
//!     [--quick] [--json <path>] [--seed <u64>] [--max-n 24] [--no-validate]
//! ```

use rr_bench::sweep::ExpArgs;
use rr_checker::characterization::{build_characterization, render_table, CellStatus};

const USAGE: &str = "\
usage: exp_characterization [--quick] [--json <path>] [--seed <u64>] [--max-n <usize>]
                            [--no-validate]";

fn main() {
    let args = ExpArgs::parse(17, USAGE);
    let validate = !args.flag("--no-validate");
    let max_n: usize = args
        .parsed("--max-n")
        .unwrap_or(if args.quick { 12 } else { 20 });

    println!("# E1 — characterization of exclusive perpetual graph searching (3 <= n <= {max_n})");
    println!(
        "# validation: {}",
        if validate {
            "every solvable cell simulated under 3 schedulers"
        } else {
            "claims only"
        }
    );
    let cells = build_characterization(3..=max_n, validate, args.root_seed);
    println!("{}", render_table(&cells));

    let mut solvable = 0usize;
    let mut validated = 0usize;
    let mut failed: Vec<(usize, usize)> = Vec::new();
    let mut impossible = 0usize;
    let mut open = 0usize;
    for cell in &cells {
        match &cell.status {
            CellStatus::Solvable { validated: v, .. } => {
                solvable += 1;
                match v {
                    Some(true) | None => validated += 1,
                    Some(false) => failed.push((cell.n, cell.k)),
                }
            }
            CellStatus::Impossible { .. } => impossible += 1,
            CellStatus::Open => open += 1,
            CellStatus::OutOfModel => {}
        }
    }
    println!("solvable cells   : {solvable} ({validated} validated)");
    println!("impossible cells : {impossible}");
    println!("open cells       : {open}");
    if failed.is_empty() {
        println!("validation failures: none");
    } else {
        println!("validation failures: {failed:?}");
    }

    args.write_json("E1", &cells);
    if validate {
        rr_bench::sweep::exit_if_failed("E1", failed.len(), solvable);
    } else {
        println!("# E1: claims only — nothing was verified (--no-validate)");
    }
}
