//! The daemon loop: claim, execute, publish — and survive `kill -9`.
//!
//! The daemon is deliberately boring: a single-threaded claim loop around
//! [`execute_grid`] (cell-level parallelism lives inside the sweep, whose
//! rayon workers claim a grid's cells costliest first, not here).
//! Durability does all the heavy lifting:
//!
//! * a job is **claimed** by one atomic rename, so a crash never loses the
//!   grid file — it just leaves it in `jobs/`;
//! * every completed record batch is fsync'd into the job's ledger before
//!   the daemon considers it done, so a crash loses at most the torn tail
//!   of one line;
//! * on startup the daemon first re-executes everything in `jobs/`, which
//!   [`execute_grid`] resumes from the ledger's durable prefix — the
//!   resumed ledger is byte-identical to an uninterrupted one.
//!
//! A panicking job (an infeasible grid that escaped validation) is caught,
//! moved to `failed/` with its panic message, and the daemon keeps serving
//! the queue.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rr_bench::cache::ResultCache;
use rr_bench::grid::{execute_grid, ExecOptions, GridSpec};
use rr_bench::sweep::ExecMode;

use crate::spool::Spool;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Run each grid's cells sequentially instead of claimed by rayon
    /// workers (costliest first).
    pub sequential: bool,
    /// Queue poll interval in milliseconds when idle.
    pub poll_ms: u64,
    /// Exit once the queue and the claimed-job backlog are empty, instead
    /// of polling forever — the mode CI and the integration tests run in.
    pub drain: bool,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            sequential: false,
            poll_ms: 200,
            drain: false,
        }
    }
}

/// Executes one claimed job end to end: parse, run (resuming any durable
/// ledger prefix, serving from the cache when possible), publish, and move
/// the grid file to its final state.  Panics inside the grid are caught and
/// turned into a `failed/` record.
///
/// # Errors
///
/// Propagates spool I/O errors (not job-level failures, which land in
/// `failed/`).
pub fn execute_claimed(spool: &Spool, job_id: &str, options: &DaemonOptions) -> io::Result<()> {
    let grid_path = spool.grid_path(job_id, crate::JobState::Running);
    let text = std::fs::read_to_string(&grid_path)?;
    let spec = match GridSpec::parse(&text) {
        Ok(spec) => spec,
        Err(why) => {
            eprintln!("[rr-sweepd] {job_id}: rejected: {why}");
            return spool.mark_failed(job_id, &format!("rejected: {why}"));
        }
    };
    let cache = ResultCache::open(&spool.cache_dir())?;
    let exec = ExecOptions {
        mode: Some(if options.sequential {
            ExecMode::Sequential
        } else {
            ExecMode::Sharded
        }),
        ledger: Some(spool.ledger_path(job_id)),
        cache: Some(&cache),
    };
    match catch_unwind(AssertUnwindSafe(|| execute_grid(&spec, &exec))) {
        Ok(Ok(run)) => {
            println!(
                "[rr-sweepd] {job_id}: complete ({} cells: {} executed, {} reused{}, {} failures)",
                run.stats.cells_total,
                run.stats.cells_executed,
                run.stats.cells_reused,
                if run.stats.from_cache {
                    ", from cache"
                } else {
                    ""
                },
                run.stats.failures,
            );
            spool.mark_done(job_id)
        }
        Ok(Err(e)) => {
            eprintln!("[rr-sweepd] {job_id}: i/o error: {e}");
            spool.mark_failed(job_id, &format!("i/o error: {e}"))
        }
        Err(panic) => {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic (no message)");
            eprintln!("[rr-sweepd] {job_id}: panicked: {why}");
            spool.mark_failed(job_id, &format!("panicked: {why}"))
        }
    }
}

/// The daemon main loop: resume orphaned `jobs/`, then claim from `queue/`,
/// then (in drain mode) exit — or poll.
///
/// # Errors
///
/// Propagates spool I/O errors.
pub fn run_daemon(spool: &Spool, options: &DaemonOptions) -> io::Result<()> {
    println!(
        "[rr-sweepd] serving spool {} ({}, poll {}ms)",
        spool.root().display(),
        if options.drain { "drain" } else { "daemon" },
        options.poll_ms
    );
    loop {
        let mut worked = false;
        // Orphans first: a killed daemon's half-done jobs resume before new
        // work is claimed.
        for job_id in spool.claimed_jobs()? {
            println!("[rr-sweepd] {job_id}: resuming claimed job");
            execute_claimed(spool, &job_id, options)?;
            worked = true;
        }
        while let Some(job_id) = spool.claim_next()? {
            println!("[rr-sweepd] {job_id}: claimed");
            execute_claimed(spool, &job_id, options)?;
            worked = true;
        }
        if !worked {
            if options.drain {
                println!("[rr-sweepd] queue drained, exiting");
                return Ok(());
            }
            std::thread::sleep(std::time::Duration::from_millis(options.poll_ms.max(1)));
        }
    }
}
