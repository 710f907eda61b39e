//! One benchmark run: set up several times, run whole passes for the given
//! time, check every result and compute the metrics.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::proof::{ProofSpec, ProofWorkload};
use crate::service::ServiceWorkload;
use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::{MetricDef, PassRecord, END_TO_END, PER_LAYER};

/// `proof-grid`'s digest of every deterministic report field, over the
/// cells and classes in grid order (independent of the seed's order).
pub const PROOF_GRID_DIGEST: u64 = 0x639d_6c3b_b449_d08d;

/// `cell-spill`'s digest.  It equals the `report_digest` that
/// `exp_modelcheck --scale-bench --only graph-searching:13:6:async
/// --mem-budget 1MiB` prints for every worker count.
pub const CELL_SPILL_DIGEST: u64 = 0xf2ec_b1b4_827d_9fa4;

/// A run sets up at least `MIN_SETUPS` times and until the set-ups took
/// `SETUP_SECONDS` in all (at most `MAX_SETUPS` times); `setup_s` is their
/// median, which many repetitions make steady even for a set-up of a
/// fraction of a millisecond.
const MIN_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 0.5;
const MAX_SETUPS: usize = 2000;

/// Job samples a run collects at least, so that the 90th percentile has
/// ten samples beyond it.
pub const MIN_JOB_SAMPLES: usize = 100;

/// Untraced passes a run makes at least, so that the median pass ignores
/// one pass slowed by the machine.
pub const MIN_PASSES: usize = 3;

/// Passes run until `--seconds` have passed, but once the minimums are met
/// no pass starts that would end after `OVERSHOOT` times `--seconds`.
const OVERSHOOT: f64 = 1.5;

/// No pass starts that would end after this many seconds of measuring,
/// whatever the minimums, so that a run ends well within three minutes.
const HARD_STOP_S: f64 = 120.0;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// The default E10/E15 model-check grid on one thread.
    ProofGrid,
    /// One large searching cell on the spill store.
    CellSpill,
    /// A closed-loop client of the sweep service.
    SweepService,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::ProofGrid,
        WorkloadName::CellSpill,
        WorkloadName::SweepService,
    ];

    /// The name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::ProofGrid => "proof-grid",
            WorkloadName::CellSpill => "cell-spill",
            WorkloadName::SweepService => "sweep-service",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadName,
    /// The only source of variation between runs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug)]
pub struct RunOutput {
    /// Human-readable lines: parameters, machine, checks, metrics.
    pub lines: Vec<String>,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The reported metrics with their values.
    pub metrics: Vec<(MetricDef, f64)>,
    /// The spans as JSON lines (traced runs).
    pub spans_jsonl: Option<String>,
}

impl RunOutput {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    def.name,
                    json_number(*value),
                    def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with every digit Rust prints (`-0` reads `0`).
fn json_number(value: f64) -> String {
    if value.is_finite() && value != 0.0 {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

enum Workload {
    Proof(ProofWorkload),
    Service(ServiceWorkload),
}

impl Workload {
    fn new(name: WorkloadName, seed: u64, nproc: usize, work: &Path, tmp: &Path) -> Self {
        match name {
            WorkloadName::ProofGrid => {
                Workload::Proof(ProofWorkload::new(ProofSpec::proof_grid(), seed, tmp))
            }
            WorkloadName::CellSpill => {
                Workload::Proof(ProofWorkload::new(ProofSpec::cell_spill(nproc), seed, tmp))
            }
            WorkloadName::SweepService => Workload::Service(ServiceWorkload::new(seed, work)),
        }
    }

    fn setup(&mut self, tracer: &mut Tracer) -> io::Result<Duration> {
        match self {
            Workload::Proof(w) => Ok(w.setup(tracer)),
            Workload::Service(w) => w.setup(tracer),
        }
    }

    fn pass(&mut self, index: u64, tracer: &mut Tracer) -> io::Result<PassRecord> {
        match self {
            Workload::Proof(w) => Ok(w.pass(index, tracer)),
            Workload::Service(w) => w.pass(tracer),
        }
    }

    fn describe(&self, nproc: usize) -> Vec<String> {
        match self {
            Workload::Proof(w) => w.describe(),
            Workload::Service(w) => w.describe(nproc),
        }
    }

    fn classes(&self) -> usize {
        match self {
            Workload::Proof(w) => w.classes(),
            Workload::Service(_) => 0,
        }
    }
}

fn expected_digest(name: WorkloadName) -> Option<u64> {
    match name {
        WorkloadName::ProofGrid => Some(PROOF_GRID_DIGEST),
        WorkloadName::CellSpill => Some(CELL_SPILL_DIGEST),
        WorkloadName::SweepService => None,
    }
}

/// The counters that must read the same on every pass of a proof workload.
const DETERMINISTIC: [&str; 5] = [
    "checker.calls",
    "checker.states",
    "checker.edges",
    "store.spilled_bytes",
    "store.visited_spilled_bytes",
];

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `cfg.workload`; spool and spill files go under `work` and `tmp`.
///
/// # Errors
///
/// Propagates I/O errors of the workload's set-up.
pub fn run(
    cfg: &RunConfig,
    nproc: usize,
    work: &Path,
    tmp: &Path,
    process_start: Instant,
) -> io::Result<RunOutput> {
    let mut lines = vec![
        format!(
            "workload={} seed={} seconds={} trace={}",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        ),
        format!("machine: nproc={nproc} (threads are clamped to it)"),
    ];
    let mut tracer = Tracer::new(cfg.trace);
    let mut workload = Workload::new(cfg.workload, cfg.seed, nproc, work, tmp);

    let first_call_s = process_start.elapsed().as_secs_f64();
    let mut setup_s = Vec::new();
    let mut enumerate_s = Vec::new();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        let first_span = tracer.spans().len();
        setup_s.push(workload.setup(&mut tracer)?.as_secs_f64());
        let spans = &tracer.spans()[first_span..];
        enumerate_s.push(
            spans
                .iter()
                .filter(|s| s.name == "ring.enumerate")
                .map(|s| s.seconds())
                .sum::<f64>(),
        );
    }
    lines.extend(workload.describe(nproc));
    lines.push(format!(
        "setup: {} reps, median {:.6} s; process start to first set-up call {first_call_s:.6} s",
        setup_s.len(),
        median(&setup_s)
    ));

    let measuring = Instant::now();
    let mut passes: Vec<PassRecord> = Vec::new();
    let mut pass_wall = Vec::new();
    loop {
        let traced = cfg.trace && !passes.is_empty();
        tracer.set_enabled(traced);
        let first_span = tracer.spans().len();
        let started = Instant::now();
        let mut record = workload.pass(passes.len() as u64, &mut tracer)?;
        pass_wall.push(started.elapsed().as_secs_f64());
        record.traced = traced;
        record.spans = first_span..tracer.spans().len();
        passes.push(record);

        let elapsed = measuring.elapsed().as_secs_f64();
        let next_end = elapsed + pass_wall.last().copied().unwrap_or(0.0);
        let counted = passes.iter().filter(|p| p.traced == cfg.trace);
        let samples: usize = counted.clone().map(|p| p.jobs.len()).sum();
        let enough = counted.count() >= if cfg.trace { 1 } else { MIN_PASSES }
            && samples >= MIN_JOB_SAMPLES
            && passes.iter().any(|p| !p.traced);
        let seconds = cfg.seconds as f64;
        if (enough && (elapsed >= seconds || next_end > OVERSHOOT * seconds))
            || next_end > HARD_STOP_S
        {
            break;
        }
    }
    tracer.set_enabled(false);
    workload_checks(cfg.workload, &mut passes);

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let traced_count = passes.iter().filter(|p| p.traced).count();
    lines.push(format!(
        "passes: {} ({} untraced, {traced_count} traced), wall s {:?}",
        passes.len(),
        passes.len() - traced_count,
        pass_wall
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
    ));
    if let Some(digest) = passes.first().map(|p| p.digest) {
        if expected_digest(cfg.workload).is_some() {
            lines.push(format!("report digest: {digest:016x}"));
        }
    }
    for note in passes.iter().flat_map(|p| &p.notes).take(20) {
        lines.push(format!("FAILED: {note}"));
    }
    lines.push(format!(
        "error_rate: {} ({failed} failed of {attempted} operations)",
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    ));

    let metrics = if cfg.trace {
        per_layer(
            &passes,
            &tracer,
            &enumerate_s,
            workload.classes(),
            &mut lines,
        )
    } else {
        end_to_end(&passes, &setup_s, &mut lines)
    };
    for (def, value) in &metrics {
        lines.push(format!(
            "{} = {} {}",
            def.name,
            json_number(*value),
            def.unit
        ));
    }
    Ok(RunOutput {
        lines,
        correct: failed == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        spans_jsonl: cfg.trace.then(|| tracer.to_jsonl()),
    })
}

/// Cross-pass checks: the digest equals the pinned value and the
/// deterministic counters repeat on every pass.
fn workload_checks(name: WorkloadName, passes: &mut [PassRecord]) {
    let Some(expected) = expected_digest(name) else {
        return;
    };
    let reference = passes[0].counters.clone();
    for pass in passes.iter_mut() {
        if pass.digest != expected {
            let why = format!(
                "report digest {:016x}, expected {expected:016x}",
                pass.digest
            );
            pass.fail(why);
        }
        for key in DETERMINISTIC {
            if pass.counters.get(key) != reference.get(key) {
                let why = format!(
                    "{key} {:?} differs from the first pass's {:?}",
                    pass.counters.get(key),
                    reference.get(key)
                );
                pass.fail(why);
            }
        }
    }
}

fn end_to_end(
    passes: &[PassRecord],
    setup_s: &[f64],
    lines: &mut Vec<String>,
) -> Vec<(MetricDef, f64)> {
    let untraced: Vec<&PassRecord> = passes.iter().filter(|p| !p.traced).collect();
    let mut jobs = Latencies::default();
    for pass in &untraced {
        jobs.extend(&pass.jobs);
    }
    lines.push(format!("job latency: {}", jobs.describe()));
    let verdicts: Vec<f64> = untraced.iter().map(|p| p.verdict_s).collect();
    let values = [
        median(setup_s),
        median(&verdicts),
        jobs.percentile(50),
        peak_rss_mib(),
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

fn per_layer(
    passes: &[PassRecord],
    tracer: &Tracer,
    enumerate_s: &[f64],
    classes: usize,
    lines: &mut Vec<String>,
) -> Vec<(MetricDef, f64)> {
    let traced: Vec<&PassRecord> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&PassRecord> = passes.iter().filter(|p| !p.traced).collect();
    let n = traced.len().max(1) as f64;
    let spans = tracer.spans();
    let is_call = |name: &str| {
        matches!(
            name,
            "checker.quotient" | "checker.concrete" | "checker.crosscheck"
        )
    };
    // Pooled span latencies, in milliseconds, over the traced passes.
    let pooled = |pred: &dyn Fn(&str) -> bool| {
        let mut lat = Latencies::default();
        for pass in &traced {
            for span in &spans[pass.spans.clone()] {
                if pred(span.name) {
                    lat.push(span.seconds() * 1e3);
                }
            }
        }
        lat
    };
    // Per-pass sum of span seconds, median over the traced passes.
    let per_pass_sum = |pred: &dyn Fn(&str) -> bool| {
        let sums: Vec<f64> = traced
            .iter()
            .map(|pass| {
                spans[pass.spans.clone()]
                    .iter()
                    .filter(|s| pred(s.name))
                    .map(|s| s.seconds())
                    .sum()
            })
            .collect();
        median(&sums)
    };
    let counter = |key: &str| {
        let values: Vec<f64> = traced
            .iter()
            .map(|p| p.counters.get(key).copied().unwrap_or(0.0))
            .collect();
        median(&values)
    };
    let calls = pooled(&is_call);
    let executes = pooled(&|name| name == "daemon.execute");
    let mut jobs = Latencies::default();
    for pass in &traced {
        jobs.extend(&pass.jobs);
    }
    for (what, lat) in [
        ("job latency", &jobs),
        ("checker call spans", &calls),
        ("daemon.execute spans", &executes),
    ] {
        if !lat.is_empty() {
            lines.push(format!("{what}: {}", lat.describe()));
        }
    }

    let call_s = per_pass_sum(&is_call);
    let verdict_traced: Vec<f64> = traced.iter().map(|p| p.verdict_s).collect();
    let verdict_untraced: Vec<f64> = untraced.iter().map(|p| p.verdict_s).collect();
    let share = if median(&verdict_traced) > 0.0 {
        call_s / median(&verdict_traced)
    } else {
        0.0
    };
    if !calls.is_empty() {
        lines.push(format!(
            "checker call spans cover {:.2}% of the traced verdict_s",
            share * 100.0
        ));
    }
    let mut self_s = std::collections::BTreeMap::new();
    for pass in &traced {
        for (layer, seconds) in tracer.self_seconds_by_layer(pass.spans.clone()) {
            *self_s.entry(layer).or_insert(0.0) += seconds / n;
        }
    }
    let own = |layer: &str| self_s.get(layer).copied().unwrap_or(0.0);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let spans_per_pass: Vec<f64> = traced.iter().map(|p| p.spans.len() as f64).collect();

    let value = |name: &str| -> f64 {
        match name {
            "job_p90_ms" => jobs.percentile(90),
            "ring.enumerate_s" => median(enumerate_s),
            "ring.classes" => classes as f64,
            "checker.call_p50_ms" => calls.percentile(50),
            "checker.call_p90_ms" => calls.percentile(90),
            "checker.rest_s" => call_s - counter("checker.expand_s") - counter("checker.merge_s"),
            "checker.crosscheck_s" => per_pass_sum(&|name| name == "checker.crosscheck"),
            "checker.span_share" => share,
            "spool.submit_p50_ms" => pooled(&|name| name == "spool.submit").percentile(50),
            "spool.claim_p50_ms" => pooled(&|name| name == "spool.claim").percentile(50),
            "daemon.execute_p50_ms" => executes.percentile(50),
            "daemon.execute_p90_ms" => executes.percentile(90),
            "cache.serve_p50_ms" => pooled(&|name| name == "cache.serve").percentile(50),
            "bench.self_s" => own("bench"),
            "checker.self_s" => own("checker"),
            "spool.self_s" => own("spool"),
            "daemon.self_s" => own("daemon"),
            "cache.self_s" => own("cache"),
            "ledger.self_s" => own("ledger"),
            "trace.overhead_s" => median(&verdict_traced) - median(&verdict_untraced),
            "trace.spans" => median(&spans_per_pass),
            "error_rate" => {
                if attempted == 0 {
                    0.0
                } else {
                    failed as f64 / attempted as f64
                }
            }
            counted => counter(counted),
        }
    };
    PER_LAYER
        .iter()
        .map(|def| (*def, value(def.name)))
        .collect()
}
