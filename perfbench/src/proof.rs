//! The proof workloads: exhaustive checker calls over rigid initial classes.
//!
//! `proof-grid` is the default E10/E15 model-check grid run cell after cell
//! on one thread with the in-memory store; `cell-spill` is the one large
//! searching cell on the spill store with a tight budget.  Both check every
//! verdict and fold the deterministic report fields into an FNV digest that
//! must equal the value pinned for the workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use rr_checker::explore::{
    check_protocol_quotient_with_stats, check_protocol_with_stats, ExploreOptions, ExploreReport,
};
use rr_checker::{StoreKind, StoreStats};
use rr_corda::{InterleavingMode, Protocol, SimError};
use rr_core::invariant::{AlignmentInvariant, GatheringInvariant, Invariant, SearchingInvariant};
use rr_core::unified::{protocol_for, Task, UnifiedProtocol};
use rr_core::{AlignProtocol, GatheringProtocol};
use rr_ring::enumerate::enumerate_rigid_configurations;
use rr_ring::Configuration;

use crate::stats::{fnv1a, SeedStream};
use crate::trace::Tracer;
use crate::PassRecord;

/// A task of the model-check grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellTask {
    /// Gathering.
    Gathering,
    /// Align, checked as its own task.
    Alignment,
    /// Graph searching.
    Searching,
}

impl CellTask {
    /// The slug `exp_modelcheck` prints.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            CellTask::Gathering => "gathering",
            CellTask::Alignment => "alignment",
            CellTask::Searching => "graph-searching",
        }
    }

    /// Whether the paper claims an algorithm for `(n, k)`.
    fn claimed(self, n: usize, k: usize) -> bool {
        match self {
            CellTask::Gathering => protocol_for(Task::Gathering, n, k).is_some(),
            CellTask::Alignment => k >= 3 && k + 2 < n,
            CellTask::Searching => protocol_for(Task::GraphSearching, n, k).is_some(),
        }
    }
}

/// One grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The task.
    pub task: CellTask,
    /// Ring size.
    pub n: usize,
    /// Robots.
    pub k: usize,
    /// The interleavings branched over.
    pub mode: InterleavingMode,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}:{}",
            self.task.slug(),
            self.n,
            self.k,
            self.mode.name()
        )
    }
}

/// What a proof workload checks, and how.
#[derive(Debug, Clone)]
pub struct ProofSpec {
    /// Every cell, vacuous ones included.
    pub cells: Vec<Cell>,
    /// Quotient calls plus concrete cross-checks (`true`), or concrete
    /// calls only (`false`).
    pub quotient: bool,
    /// Checker worker threads, already clamped to the core count.
    pub workers: usize,
    /// Storage backend.
    pub store: StoreKind,
    /// Spill-cache budget in bytes.
    pub mem_budget: u64,
}

const BOTH_MODES: [InterleavingMode; 2] = [
    InterleavingMode::SsyncSubsets,
    InterleavingMode::AsyncPhases,
];

impl ProofSpec {
    /// Every task on `4 <= n <= max_n`, `2 <= k <= min(max_k, n)`, both
    /// modes, in `exp_modelcheck`'s order, on one worker with the mem store.
    #[must_use]
    pub fn grid(max_n: usize, max_k: usize) -> Self {
        let mut cells = Vec::new();
        for task in [
            CellTask::Gathering,
            CellTask::Alignment,
            CellTask::Searching,
        ] {
            for n in 4..=max_n {
                for k in 2..=max_k.min(n) {
                    for mode in BOTH_MODES {
                        cells.push(Cell { task, n, k, mode });
                    }
                }
            }
        }
        ProofSpec {
            cells,
            quotient: true,
            workers: 1,
            store: StoreKind::Mem,
            mem_budget: rr_checker::explore::DEFAULT_MEM_BUDGET,
        }
    }

    /// `proof-grid`: the default E10/E15 grid (`n <= 12`, `k <= 6`) plus
    /// the searching frontier cells beyond it, 256 cells in all.
    #[must_use]
    pub fn proof_grid() -> Self {
        let mut spec = Self::grid(12, 6);
        for (n, k) in [(10, 7), (11, 8)] {
            for mode in BOTH_MODES {
                spec.cells.push(Cell {
                    task: CellTask::Searching,
                    n,
                    k,
                    mode,
                });
            }
        }
        spec
    }

    /// `cell-spill`: `graph-searching:13:6:async`, concrete calls on the
    /// spill store with a 1 MiB budget and `min(2, nproc)` workers.
    #[must_use]
    pub fn cell_spill(nproc: usize) -> Self {
        ProofSpec {
            cells: vec![Cell {
                task: CellTask::Searching,
                n: 13,
                k: 6,
                mode: InterleavingMode::AsyncPhases,
            }],
            quotient: false,
            workers: 2.min(nproc).max(1),
            store: StoreKind::Spill,
            mem_budget: 1 << 20,
        }
    }

    fn options(&self, mode: InterleavingMode) -> ExploreOptions {
        ExploreOptions::new(mode)
            .with_workers(self.workers)
            .with_store(self.store)
            .with_mem_budget(self.mem_budget)
    }
}

/// The protocol of a claimed cell.
enum CellProtocol {
    Gathering(GatheringProtocol),
    Align(AlignProtocol),
    Searching(UnifiedProtocol),
}

fn check_with<P: Protocol + Clone + Send>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    options: &ExploreOptions,
    quotient: bool,
) -> Result<(ExploreReport, StoreStats), SimError> {
    if quotient {
        check_protocol_quotient_with_stats(protocol, initial, invariant, options)
    } else {
        check_protocol_with_stats(protocol, initial, invariant, options)
    }
}

impl CellProtocol {
    fn check(
        &self,
        initial: &Configuration,
        invariant: &dyn Invariant,
        options: &ExploreOptions,
        quotient: bool,
    ) -> Result<(ExploreReport, StoreStats), SimError> {
        match self {
            CellProtocol::Gathering(p) => check_with(p, initial, invariant, options, quotient),
            CellProtocol::Align(p) => check_with(p, initial, invariant, options, quotient),
            CellProtocol::Searching(p) => check_with(p, initial, invariant, options, quotient),
        }
    }
}

/// A claimed cell with its protocol, invariant and rigid classes.
struct PreparedCell {
    index: usize,
    cell: Cell,
    protocol: CellProtocol,
    invariant: Box<dyn Invariant>,
    classes: Vec<Configuration>,
    crosscheck: bool,
}

/// The cross-checked subgrid: cells the concrete checker proved before the
/// quotient existed.
fn crosschecked(cell: &Cell) -> bool {
    cell.n <= 10 && cell.k <= 5
}

fn prepare(index: usize, cell: Cell, tracer: &mut Tracer) -> Option<PreparedCell> {
    if !cell.task.claimed(cell.n, cell.k) {
        return None;
    }
    let (classes, _) = tracer.span("ring.enumerate", || {
        enumerate_rigid_configurations(cell.n, cell.k)
    });
    if classes.is_empty() {
        return None;
    }
    let (protocol, invariant): (CellProtocol, Box<dyn Invariant>) = match cell.task {
        CellTask::Gathering => (
            CellProtocol::Gathering(GatheringProtocol::new()),
            Box::new(GatheringInvariant::new()),
        ),
        CellTask::Alignment => (
            CellProtocol::Align(AlignProtocol::new()),
            Box::new(AlignmentInvariant::new()),
        ),
        CellTask::Searching => (
            CellProtocol::Searching(protocol_for(Task::GraphSearching, cell.n, cell.k)?),
            Box::new(SearchingInvariant::new()),
        ),
    };
    Some(PreparedCell {
        index,
        cell,
        protocol,
        invariant,
        classes,
        crosscheck: crosschecked(&cell),
    })
}

/// The digest basis of one call, in `exp_modelcheck --scale-bench`'s
/// format: every deterministic report field, the store's deterministic
/// byte counts and the outcome.
fn basis_entry(initial: &Configuration, report: &ExploreReport, stats: &StoreStats) -> String {
    format!(
        "{initial}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?};",
        report.states,
        report.quotient_states,
        report.edges,
        report.target_states,
        report.progress_edges,
        report.peak_resident_nodes,
        report.peak_resident_bytes,
        report.state_bytes,
        stats.spilled_bytes,
        stats.visited_spilled_bytes,
        report.outcome
    )
}

/// A proof workload: its spec, its prepared cells and its seed.
pub struct ProofWorkload {
    spec: ProofSpec,
    seed: u64,
    prepared: Vec<PreparedCell>,
    temp_dir: std::path::PathBuf,
}

impl ProofWorkload {
    /// A workload over `spec`, ordered by `seed`, whose spill files land in
    /// `temp_dir`.
    #[must_use]
    pub fn new(spec: ProofSpec, seed: u64, temp_dir: &Path) -> Self {
        ProofWorkload {
            spec,
            seed,
            prepared: Vec::new(),
            temp_dir: temp_dir.to_path_buf(),
        }
    }

    /// Enumerates the rigid classes and builds the protocols, returning how
    /// long that took.
    pub fn setup(&mut self, tracer: &mut Tracer) -> Duration {
        let started = Instant::now();
        let cells = self.spec.cells.clone();
        self.prepared = cells
            .into_iter()
            .enumerate()
            .filter_map(|(index, cell)| prepare(index, cell, tracer))
            .collect();
        started.elapsed()
    }

    /// Rigid classes over all claimed cells.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.prepared.iter().map(|p| p.classes.len()).sum()
    }

    /// Checker calls one pass makes.
    #[must_use]
    pub fn calls(&self) -> usize {
        self.prepared
            .iter()
            .map(|p| p.classes.len() * (1 + usize::from(p.crosscheck && self.spec.quotient)))
            .sum()
    }

    /// The parameters a result must be read with.
    #[must_use]
    pub fn describe(&self) -> Vec<String> {
        vec![
            format!(
                "cells={} claimed={} jobs_per_pass={} (one per rigid class) calls_per_pass={}",
                self.spec.cells.len(),
                self.prepared.len(),
                self.classes(),
                self.calls()
            ),
            format!(
                "checker: {} workers={} store={} mem_budget={}B",
                if self.spec.quotient {
                    "quotient + concrete cross-check on n<=10,k<=5"
                } else {
                    "concrete"
                },
                self.spec.workers,
                self.spec.store,
                self.spec.mem_budget
            ),
        ]
    }

    /// One pass over every class in a seed-determined order (`pass` picks a
    /// fresh order per pass).
    pub fn pass(&mut self, pass: u64, tracer: &mut Tracer) -> PassRecord {
        let mut order = SeedStream::new(self.seed, pass);
        let cell_order = order.permutation(self.prepared.len());
        let mut record = PassRecord::default();
        let mut basis: Vec<(usize, usize, String)> = Vec::new();
        let mut counters = Counters::default();
        let started = Instant::now();
        for &ci in &cell_order {
            let prepared = &self.prepared[ci];
            let options = self.spec.options(prepared.cell.mode);
            for class in order.permutation(prepared.classes.len()) {
                let initial = &prepared.classes[class];
                let job_started = Instant::now();
                tracer.open("bench.verdict");
                let outcome = self.verdict(prepared, initial, &options, tracer, &mut counters);
                tracer.close();
                record.jobs.push(job_started.elapsed().as_secs_f64() * 1e3);
                match outcome {
                    Ok(entry) => basis.push((prepared.index, class, entry)),
                    Err(why) => record.fail(format!("{} from {initial}: {why}", prepared.cell)),
                }
            }
        }
        record.verdict_s = started.elapsed().as_secs_f64();
        record.attempted = counters.calls;

        let leftovers = leftover_spill_files(&self.temp_dir);
        if leftovers > 0 {
            record.attempted += 1;
            record.fail(format!("{leftovers} rr-checker-* temp files left behind"));
        }

        basis.sort_by_key(|entry| (entry.0, entry.1));
        let several = self.spec.cells.len() > 1;
        let mut text = String::new();
        for (index, _, entry) in &basis {
            if several {
                let _ = write!(text, "{}|", self.spec.cells[*index]);
            }
            text.push_str(entry);
        }
        record.digest = fnv1a(text.as_bytes());
        counters.fill(&mut record.counters);
        record
    }

    /// Checks one class: the main call, plus the concrete cross-check on
    /// the cross-checked subgrid.  Returns the digest basis entry.
    fn verdict(
        &self,
        prepared: &PreparedCell,
        initial: &Configuration,
        options: &ExploreOptions,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> Result<String, String> {
        let quotient = self.spec.quotient;
        let name = if quotient {
            "checker.quotient"
        } else {
            "checker.concrete"
        };
        let invariant = prepared.invariant.as_ref();
        let (result, _) = tracer.span(name, || {
            prepared
                .protocol
                .check(initial, invariant, options, quotient)
        });
        counters.calls += 1;
        let (report, stats) =
            result.map_err(|e| format!("engine rejected the initial state: {e}"))?;
        counters.add(&report, &stats);
        if !report.verified() {
            return Err(format!("not PROVED: {:?}", report.outcome));
        }
        if quotient && prepared.crosscheck {
            let (result, _) = tracer.span("checker.crosscheck", || {
                prepared.protocol.check(initial, invariant, options, false)
            });
            counters.calls += 1;
            let (concrete, concrete_stats) =
                result.map_err(|e| format!("cross-check rejected the initial state: {e}"))?;
            counters.add(&concrete, &concrete_stats);
            if !concrete.verified() {
                return Err(format!("concrete cross-check: {:?}", concrete.outcome));
            }
        }
        Ok(basis_entry(initial, &report, &stats))
    }
}

/// Per-pass work counters summed over every call.
#[derive(Debug, Default)]
struct Counters {
    calls: u64,
    states: u64,
    edges: u64,
    state_bytes: u64,
    expand_ns: u64,
    merge_ns: u64,
    spilled_bytes: u64,
    visited_spilled_bytes: u64,
    peak_resident_bytes: u64,
}

impl Counters {
    fn add(&mut self, report: &ExploreReport, stats: &StoreStats) {
        self.states += report.states as u64;
        self.edges += report.edges;
        self.state_bytes += report.state_bytes;
        self.expand_ns += stats.expand_nanos;
        self.merge_ns += stats.merge_nanos;
        self.spilled_bytes += stats.spilled_bytes;
        self.visited_spilled_bytes += stats.visited_spilled_bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(report.peak_resident_bytes);
    }

    fn fill(&self, out: &mut BTreeMap<&'static str, f64>) {
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        out.insert("checker.calls", self.calls as f64);
        out.insert("checker.states", self.states as f64);
        out.insert("checker.edges", self.edges as f64);
        out.insert("checker.expand_s", self.expand_ns as f64 * 1e-9);
        out.insert("checker.merge_s", self.merge_ns as f64 * 1e-9);
        out.insert(
            "checker.expand_ns_per_edge",
            per(self.expand_ns, self.edges),
        );
        out.insert(
            "checker.merge_ns_per_state",
            per(self.merge_ns, self.states),
        );
        out.insert("store.spilled_bytes", self.spilled_bytes as f64);
        out.insert(
            "store.visited_spilled_bytes",
            self.visited_spilled_bytes as f64,
        );
        out.insert("store.peak_resident_bytes", self.peak_resident_bytes as f64);
        out.insert("store.bytes_per_state", per(self.state_bytes, self.states));
    }
}

/// This process's checker spill files (`rr-checker-<tag>-<pid>-<seq>.spill`)
/// still present in `dir`.
fn leftover_spill_files(dir: &Path) -> usize {
    let pid = format!("-{}-", std::process::id());
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with("rr-checker-") && name.contains(&pid)
            })
            .count()
    })
}
