//! Experiment E2: regenerate the configuration counts and transition graphs of
//! Figures 4–9 of the paper (the case analysis of Theorem 5).
//!
//! ```text
//! cargo run --release -p rr-bench --bin exp_config_graphs -- [--quick] [--json <path>] [--sequential]
//! ```

use rr_bench::sweep::{grid_map, ExpArgs};
use rr_bench::THEOREM5_CASES;
use rr_checker::enumeration::configuration_graph;
use serde::Serialize;

/// One regenerated configuration graph, as recorded in the JSON report.
#[derive(Debug, Clone, Serialize)]
struct GraphRecord {
    experiment: String,
    figure: String,
    k: usize,
    n: usize,
    classes: usize,
    rigid: usize,
    edges: usize,
    ok: bool,
}

const USAGE: &str = "usage: exp_config_graphs [--quick] [--json <path>] [--sequential]";

fn main() {
    let args = ExpArgs::parse(0xE2, USAGE);
    let figures = ["Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9"];
    let cases: Vec<((usize, usize), &str)> = THEOREM5_CASES
        .iter()
        .copied()
        .zip(figures)
        .take(if args.quick { 3 } else { THEOREM5_CASES.len() })
        .collect();

    let records: Vec<GraphRecord> = grid_map(cases, args.mode(), |((k, n), figure)| {
        let graph = configuration_graph(n, k);
        GraphRecord {
            experiment: "E2".to_string(),
            figure: figure.to_string(),
            k,
            n,
            classes: graph.num_classes(),
            rigid: graph.num_rigid(),
            edges: graph.edges.len(),
            // Every figure of the paper has at least one rigid class and a
            // non-empty transition relation; an empty graph means the
            // enumeration or the move relation broke.
            ok: graph.num_classes() > 0 && graph.num_rigid() > 0 && !graph.edges.is_empty(),
        }
    });

    println!("# E2 — configuration graphs for the small cases of Theorem 5 (Figures 4-9)");
    println!(
        "{:>4} {:>4} {:>10} {:>8} {:>8} {:>8}",
        "k", "n", "figure", "classes", "rigid", "edges"
    );
    for r in &records {
        println!(
            "{:>4} {:>4} {:>10} {:>8} {:>8} {:>8}",
            r.k, r.n, r.figure, r.classes, r.rigid, r.edges
        );
    }

    println!();
    println!("# per-class details for (k=4, n=7) — the four configurations A1..A4 of Figure 4");
    let graph = configuration_graph(7, 4);
    for (i, node) in graph.nodes.iter().enumerate() {
        println!(
            "  class {i}: gaps {} ({:?}), successors {:?}",
            node.canonical,
            node.class,
            graph.successors(i)
        );
    }

    args.write_json("E2", &records);
    let failures = records.iter().filter(|r| !r.ok).count();
    rr_bench::sweep::exit_if_failed("E2", failures, records.len());
}
