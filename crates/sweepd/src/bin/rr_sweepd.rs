//! The sweep-job daemon.
//!
//! ```text
//! rr-sweepd --spool <dir> [--drain] [--poll-ms <n>] [--sequential]
//! ```
//!
//! Serves the spool forever (or until the queue drains, with `--drain`):
//! resumes any job a killed daemon left in `jobs/`, then claims queued
//! grids and executes them into durable, resumable ledgers.  Safe to
//! `kill -9` at any moment — see `rr_sweepd::daemon`.
//!
//! The command line is checked like `rr-sweep`'s: an undeclared flag, a
//! missing or malformed value, a stray argument or a missing `--spool`
//! prints the usage on stderr and exits with status 2 before any spool is
//! opened.

use std::path::PathBuf;
use std::process::exit;

use rr_bench::sweep::{exit_with_usage, split_args};
use rr_sweepd::{run_daemon, DaemonOptions, Spool};

/// The flags the daemon accepts, one list for the parser and the reader.
const USAGE: &str = "\
usage: rr-sweepd [--spool <dir>] [--drain] [--poll-ms <n>] [--sequential]
  --spool is required: the spool directory to serve";

fn usage_error(message: &str) -> ! {
    exit_with_usage(USAGE, message)
}

fn main() {
    let (positional, flags) =
        split_args(std::env::args().skip(1), USAGE).unwrap_or_else(|message| usage_error(&message));
    if let Some(arg) = positional.first() {
        usage_error(&format!("unknown argument {arg:?}"));
    }
    let mut spool_dir: Option<PathBuf> = None;
    let mut options = DaemonOptions::default();
    for (name, value) in flags {
        match (name, value) {
            ("--spool", Some(dir)) => spool_dir = Some(PathBuf::from(dir)),
            ("--drain", None) => options.drain = true,
            ("--sequential", None) => options.sequential = true,
            ("--poll-ms", Some(ms)) => {
                options.poll_ms = ms
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--poll-ms takes a u64, got {ms:?}")));
            }
            (name, _) => unreachable!("{name} is declared in USAGE but not handled"),
        }
    }
    let Some(spool_dir) = spool_dir else {
        usage_error("--spool <dir> is required");
    };
    let spool = Spool::open(&spool_dir).unwrap_or_else(|e| {
        eprintln!("opening spool {}: {e}", spool_dir.display());
        exit(1);
    });
    if let Err(e) = run_daemon(&spool, &options) {
        eprintln!("[rr-sweepd] fatal: {e}");
        exit(1);
    }
}
