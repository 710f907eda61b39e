//! # rr-perfbench — the repository's benchmark
//!
//! A client of the workspace crates' public API that runs one named
//! workload for a fixed time, checks every result, and reports end-to-end
//! metrics (untraced) or per-layer metrics (traced).  See `README.md` in
//! this directory for the workloads and the metric map.

#![forbid(unsafe_code)]

pub mod proof;
pub mod run;
pub mod service;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::ops::Range;

use stats::Latencies;

/// What one pass over a workload produced.
#[derive(Debug, Clone, Default)]
pub struct PassRecord {
    /// Wall time from the first timed call to the last result.
    pub verdict_s: f64,
    /// Per-job latency in milliseconds (a job is one verdict on the proof
    /// workloads and one spool job on `sweep-service`).
    pub jobs: Latencies,
    /// Operations attempted: checker calls, jobs and cache requests.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why each failure failed.
    pub notes: Vec<String>,
    /// FNV digest of the deterministic report fields (proof workloads).
    pub digest: u64,
    /// Per-pass work counters by per-layer metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Whether spans were recorded during the pass.
    pub traced: bool,
    /// The pass's spans in the tracer.
    pub spans: Range<usize>,
}

impl PassRecord {
    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }
}

/// A metric's name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("verdict_s", "s", "lower"),
    def("job_p50_ms", "ms", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
];

/// The per-layer metrics, measured by the traced run.  `job_p90_ms` is an
/// end-to-end quantity whose run-to-run spread on a shared two-core box is
/// wider than any bound the benchmark may set, so it is reported here.
pub const PER_LAYER: &[MetricDef] = &[
    def("job_p90_ms", "ms", "lower"),
    def("ring.enumerate_s", "s", "lower"),
    def("ring.classes", "count", "lower"),
    def("checker.calls", "count", "lower"),
    def("checker.call_p50_ms", "ms", "lower"),
    def("checker.call_p90_ms", "ms", "lower"),
    def("checker.expand_s", "s", "lower"),
    def("checker.merge_s", "s", "lower"),
    def("checker.rest_s", "s", "lower"),
    def("checker.crosscheck_s", "s", "lower"),
    def("checker.states", "count", "lower"),
    def("checker.edges", "count", "lower"),
    def("checker.expand_ns_per_edge", "ns", "lower"),
    def("checker.merge_ns_per_state", "ns", "lower"),
    def("checker.span_share", "ratio", "higher"),
    def("store.spilled_bytes", "B", "lower"),
    def("store.visited_spilled_bytes", "B", "lower"),
    def("store.peak_resident_bytes", "B", "lower"),
    def("store.bytes_per_state", "B", "lower"),
    def("corda.rounds", "count", "lower"),
    def("corda.moves", "count", "lower"),
    def("corda.ns_per_round", "ns", "lower"),
    def("spool.submit_p50_ms", "ms", "lower"),
    def("spool.claim_p50_ms", "ms", "lower"),
    def("daemon.execute_p50_ms", "ms", "lower"),
    def("daemon.execute_p90_ms", "ms", "lower"),
    def("grid.cells_executed", "count", "lower"),
    def("ledger.bytes", "B", "lower"),
    def("cache.hits", "count", "higher"),
    def("cache.hit_ratio", "ratio", "higher"),
    def("cache.serve_p50_ms", "ms", "lower"),
    def("bench.self_s", "s", "lower"),
    def("checker.self_s", "s", "lower"),
    def("spool.self_s", "s", "lower"),
    def("daemon.self_s", "s", "lower"),
    def("cache.self_s", "s", "lower"),
    def("ledger.self_s", "s", "lower"),
    def("trace.overhead_s", "s", "lower"),
    def("trace.spans", "count", "lower"),
    def("error_rate", "ratio", "lower"),
];
