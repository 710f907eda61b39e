//! The `sweep-service` workload: one closed-loop client of the sweep
//! service.
//!
//! The client submits one grid at a time to a fresh spool, claims it and
//! executes it with the daemon's default options, and waits for it to land
//! in `done/` before it submits the next.  It then re-requests every grid
//! through `execute_grid` into a fresh ledger against the warm result
//! cache, which must serve each one byte for byte.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rr_bench::cache::ResultCache;
use rr_bench::grid::{execute_grid, preset, ExecOptions, GridSpec};
use rr_bench::ledger;
use rr_bench::sweep::ExecMode;
use rr_sweepd::daemon::execute_claimed;
use rr_sweepd::{DaemonOptions, JobState, Spool};

use crate::stats::SeedStream;
use crate::trace::Tracer;
use crate::PassRecord;

/// Grids per pass.
pub const JOBS: usize = 200;

/// The presets the jobs alternate between.
const PRESETS: [&str; 2] = ["e4", "e6"];

/// The spool, its cache and the grids of one pass.
struct Prepared {
    spool: Spool,
    cache: ResultCache,
    specs: Vec<GridSpec>,
}

/// The sweep-service workload.
pub struct ServiceWorkload {
    seed: u64,
    work: PathBuf,
    prepared: Option<Prepared>,
    passes: u64,
}

impl ServiceWorkload {
    /// A workload whose spools live under `work`, with job seeds derived
    /// from `seed`.
    #[must_use]
    pub fn new(seed: u64, work: &Path) -> Self {
        ServiceWorkload {
            seed,
            work: work.to_path_buf(),
            prepared: None,
            passes: 0,
        }
    }

    /// The grids of pass `pass`: full E4 and E6 presets in turn, root
    /// seeds drawn from the workload seed.
    #[must_use]
    pub fn grids(seed: u64, pass: u64) -> Vec<GridSpec> {
        let mut stream = SeedStream::new(seed, pass);
        (0..JOBS)
            .map(|i| {
                let name = PRESETS[i % PRESETS.len()];
                preset(name, false, Some(stream.next_u64())).expect("built-in preset")
            })
            .collect()
    }

    /// Opens the spool the next pass runs on (creating it the first time)
    /// and its cache, and builds that pass's grids; returns how long that
    /// took.
    ///
    /// # Errors
    ///
    /// Propagates spool creation errors.
    pub fn setup(&mut self, tracer: &mut Tracer) -> io::Result<Duration> {
        let started = Instant::now();
        let root = self.work.join(format!("spool-{}", self.passes));
        let (spool, _) = tracer.span("spool.open", || Spool::open(&root));
        let spool = spool?;
        let cache = ResultCache::open(&spool.cache_dir())?;
        let specs = Self::grids(self.seed, self.passes);
        self.prepared = Some(Prepared {
            spool,
            cache,
            specs,
        });
        Ok(started.elapsed())
    }

    /// Removes the spool the last pass used and sets up the next one.
    fn next_spool(&mut self) -> io::Result<()> {
        if let Some(prepared) = self.prepared.take() {
            std::fs::remove_dir_all(prepared.spool.root())?;
        }
        self.passes += 1;
        self.setup(&mut Tracer::new(false)).map(|_| ())
    }

    /// The parameters a result must be read with.
    #[must_use]
    pub fn describe(&self, nproc: usize) -> Vec<String> {
        let cells: usize = Self::grids(self.seed, 0).iter().map(GridSpec::cells).sum();
        vec![format!(
            "jobs_per_pass={JOBS} (full e4/e6 presets, {cells} cells) closed loop, 1 client; \
             daemon defaults: sharded over {nproc} threads; then {JOBS} cache re-requests"
        )]
    }

    /// One pass: every job submit-to-done, then every cache re-request.
    /// The spool is set up afresh for the next pass.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the spool set-up for the next pass.
    pub fn pass(&mut self, tracer: &mut Tracer) -> io::Result<PassRecord> {
        let mut record = PassRecord::default();
        let mut counters = Counters::default();
        let prepared = self.prepared.as_ref().expect("set up before a pass");
        let started = Instant::now();
        for spec in &prepared.specs {
            let job_started = Instant::now();
            tracer.open("bench.job");
            let done = submit_to_done(&prepared.spool, spec, tracer, &mut counters);
            record.jobs.push(job_started.elapsed().as_secs_f64() * 1e3);
            let outcome =
                done.and_then(|id| check_ledger(&prepared.spool, spec, &id, tracer, &mut counters));
            tracer.close();
            record.attempted += 1;
            if let Err(why) = outcome {
                record.fail(format!("job {}: {why}", spec.job_id()));
            }
        }
        let served = prepared.spool.root().join("served");
        std::fs::create_dir_all(&served)?;
        for spec in &prepared.specs {
            tracer.open("bench.rerequest");
            let outcome = rerequest(prepared, spec, &served, tracer, &mut counters);
            tracer.close();
            record.attempted += 1;
            if let Err(why) = outcome {
                record.fail(format!("re-request {}: {why}", spec.job_id()));
            }
        }
        record.verdict_s = started.elapsed().as_secs_f64();
        counters.fill(&mut record.counters);
        self.next_spool()?;
        Ok(record)
    }
}

/// Submits, claims and executes `spec`, returning its job id once the job
/// is in `done/`.
fn submit_to_done(
    spool: &Spool,
    spec: &GridSpec,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<String, String> {
    let (submitted, _) = tracer.span("spool.submit", || spool.submit(spec));
    let submitted = submitted.map_err(|e| format!("submit: {e}"))?;
    if !submitted.fresh || submitted.state != JobState::Queued {
        return Err(format!("submit was not fresh: {submitted:?}"));
    }
    let (claimed, _) = tracer.span("spool.claim", || spool.claim_next());
    let claimed = claimed.map_err(|e| format!("claim: {e}"))?;
    if claimed.as_deref() != Some(submitted.job_id.as_str()) {
        return Err(format!("claimed {claimed:?}"));
    }
    let options = DaemonOptions::default();
    let (executed, took) = tracer.span("daemon.execute", || {
        execute_claimed(spool, &submitted.job_id, &options)
    });
    executed.map_err(|e| format!("execute: {e}"))?;
    counters.execute_ns += took.as_nanos() as f64;
    // The daemon consulted the cache once before executing: a miss.
    counters.lookups += 1.0;
    if spool.job_state(&submitted.job_id) != Some(JobState::Done) {
        return Err(format!(
            "ended {:?}, not done",
            spool.job_state(&submitted.job_id)
        ));
    }
    Ok(submitted.job_id)
}

/// Checks that a done job's ledger is complete and failure-free, and counts
/// the engine work it records.
fn check_ledger(
    spool: &Spool,
    spec: &GridSpec,
    job_id: &str,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<(), String> {
    let path = spool.ledger_path(job_id);
    let (scan, _) = tracer.span("ledger.scan", || ledger::scan(&path));
    let scan = scan.map_err(|e| format!("ledger scan: {e}"))?;
    if scan.footer != Some((spec.cells() as u64, 0)) || scan.failures != 0 {
        return Err(format!(
            "ledger footer {:?}, {} failed records",
            scan.footer, scan.failures
        ));
    }
    let bytes = std::fs::read_to_string(&path).map_err(|e| format!("ledger read: {e}"))?;
    counters.cells_executed += scan.records as f64;
    counters.ledger_bytes += bytes.len() as f64;
    for line in bytes.lines().skip(1) {
        counters.rounds += field(line, "\"rounds\":");
        counters.moves += field(line, "\"moves\":");
    }
    Ok(())
}

/// Re-requests `spec` into a fresh ledger; the cache must serve it with the
/// executed ledger's bytes.
fn rerequest(
    prepared: &Prepared,
    spec: &GridSpec,
    served: &Path,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<(), String> {
    let dest = served.join(format!("{}.jsonl", spec.job_id()));
    let options = ExecOptions {
        mode: Some(ExecMode::Sharded),
        ledger: Some(dest.clone()),
        cache: Some(&prepared.cache),
    };
    let (run, _) = tracer.span("cache.serve", || execute_grid(spec, &options));
    let run = run.map_err(|e| format!("execute_grid: {e}"))?;
    counters.lookups += 1.0;
    if !run.stats.from_cache || run.stats.cells_executed != 0 {
        return Err(format!("not served from the cache: {:?}", run.stats));
    }
    counters.hits += 1.0;
    let executed = std::fs::read(prepared.spool.ledger_path(&spec.job_id()));
    let served = std::fs::read(&dest);
    match (executed, served) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Ok(_), Ok(_)) => Err("served ledger differs from the executed one".to_string()),
        (a, b) => Err(format!("reading ledgers: {:?} / {:?}", a.err(), b.err())),
    }
}

/// The unsigned integer after `key` in a JSON record line, or 0.
fn field(line: &str, key: &str) -> f64 {
    line.find(key).map_or(0.0, |at| {
        let digits: String = line[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse::<u64>().map_or(0.0, |v| v as f64)
    })
}

/// Per-pass service counters.
#[derive(Debug, Default)]
struct Counters {
    cells_executed: f64,
    ledger_bytes: f64,
    rounds: f64,
    moves: f64,
    execute_ns: f64,
    lookups: f64,
    hits: f64,
}

impl Counters {
    fn fill(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("grid.cells_executed", self.cells_executed);
        out.insert("ledger.bytes", self.ledger_bytes);
        out.insert("corda.rounds", self.rounds);
        out.insert("corda.moves", self.moves);
        out.insert(
            "corda.ns_per_round",
            if self.rounds > 0.0 {
                self.execute_ns / self.rounds
            } else {
                0.0
            },
        );
        out.insert("cache.hits", self.hits);
        out.insert(
            "cache.hit_ratio",
            if self.lookups > 0.0 {
                self.hits / self.lookups
            } else {
                0.0
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_reads_integers_after_the_key() {
        let line = "{\"experiment\":\"E6\",\"rounds\":1234,\"moves\":56,\"ok\":true}";
        assert_eq!(field(line, "\"rounds\":"), 1234.0);
        assert_eq!(field(line, "\"moves\":"), 56.0);
        assert_eq!(field(line, "\"cycles\":"), 0.0);
    }

    #[test]
    fn job_grids_come_from_the_seed_alone() {
        let a = ServiceWorkload::grids(11, 0);
        assert_eq!(a.len(), JOBS);
        let ids: Vec<String> = a.iter().map(GridSpec::job_id).collect();
        let again: Vec<String> = ServiceWorkload::grids(11, 0)
            .iter()
            .map(GridSpec::job_id)
            .collect();
        assert_eq!(ids, again);
        let mut distinct = ids.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), JOBS, "every job is a distinct grid");
        let other: Vec<String> = ServiceWorkload::grids(12, 0)
            .iter()
            .map(GridSpec::job_id)
            .collect();
        assert!(ids.iter().all(|id| !other.contains(id)));
        assert_eq!(a[0].experiment, "E4");
        assert_eq!(a[1].experiment, "E6");
    }
}
