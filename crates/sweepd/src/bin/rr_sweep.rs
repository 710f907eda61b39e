//! The thin sweep-service client.
//!
//! ```text
//! rr-sweep --spool <dir> submit <grid-file>...     queue grid files (idempotent)
//! rr-sweep --spool <dir> submit [--preset <name>] [--quick] [--seed <u64>]
//! rr-sweep --spool <dir> status                    one row per job
//! rr-sweep --spool <dir> tail <job-id> [--follow]  stream a job's ledger
//! rr-sweep --spool <dir> gc                        prune stale spool state
//! rr-sweep grid <preset> [--quick] [--seed <u64>]  print a canonical grid file
//! ```
//!
//! A command accepts exactly the flags its usage lines declare: an
//! undeclared flag, a missing or malformed value, or a stray argument
//! prints the usage on stderr and exits with status 2.
//!
//! The client never executes cells — it only moves grid files and reads
//! ledgers, so it is safe to run while a daemon is serving the same spool.

use std::path::PathBuf;
use std::process::exit;

use rr_bench::grid::{preset, GridSpec};
use rr_bench::ledger;
use rr_bench::sweep::{exit_with_usage, split_args};
use rr_sweepd::{JobState, Spool};

/// One line per command form; the flags a command accepts are the ones its
/// lines declare.
const USAGE: &str = "\
usage: rr-sweep --spool <dir> submit <grid-file>...
       rr-sweep --spool <dir> submit [--preset <name>] [--quick] [--seed <u64>]
       rr-sweep --spool <dir> status
       rr-sweep --spool <dir> tail <job-id> [--follow]
       rr-sweep --spool <dir> gc
       rr-sweep grid <preset> [--quick] [--seed <u64>]
presets: e3/align, e4/clearing, e5/nminus3, e6/gathering";

fn usage_error(message: &str) -> ! {
    exit_with_usage(USAGE, message)
}

fn fatal(message: &str) -> ! {
    eprintln!("rr-sweep: {message}");
    exit(1)
}

/// A command line checked against [`USAGE`].
struct Invocation {
    spool: Option<PathBuf>,
    command: String,
    positional: Vec<String>,
    /// Each flag given, with its value if it takes one.
    flags: Vec<(String, Option<String>)>,
}

impl Invocation {
    /// Splits `args` into the optional leading `--spool <dir>`, the command
    /// and its arguments, accepting only the flags the command's usage
    /// lines declare.
    fn parse(args: Vec<String>) -> Result<Self, String> {
        let mut args = args.into_iter().peekable();
        let spool = match args.next_if(|arg| arg == "--spool") {
            Some(_) => Some(PathBuf::from(
                args.next().ok_or("--spool requires a value")?,
            )),
            None => None,
        };
        let command = args.next().ok_or("missing command")?;
        let usage: Vec<&str> = USAGE
            .lines()
            .filter(|line| {
                // The command follows the program name and `--spool <dir>`.
                let mut words = line.split_whitespace().skip_while(|w| *w != "rr-sweep");
                let mut word = words.nth(1);
                if word == Some("--spool") {
                    word = words.nth(1);
                }
                word == Some(command.as_str())
            })
            .collect();
        if usage.is_empty() {
            return Err(format!("unknown command {command:?}"));
        }
        let usage = usage.join("\n");
        let (positional, flags) = split_args(args, &usage)?;
        Ok(Invocation {
            spool,
            command,
            positional,
            flags: flags
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        })
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(flag, _)| *flag == name)
            .and_then(|(_, value)| value.as_deref())
    }

    /// The positional arguments, which must number exactly `count`.
    fn exactly(&self, count: usize) -> &[String] {
        if self.positional.len() != count {
            usage_error(&format!(
                "{} takes {count} argument(s), got {:?}",
                self.command, self.positional
            ));
        }
        &self.positional
    }

    /// The preset grid `name` with the `--quick` and `--seed` flags.
    fn preset(&self, name: &str) -> GridSpec {
        let seed = self.value("--seed").map(|seed| {
            seed.parse()
                .unwrap_or_else(|_| usage_error(&format!("--seed takes a u64, got {seed:?}")))
        });
        preset(name, self.flag("--quick"), seed)
            .unwrap_or_else(|| usage_error(&format!("unknown preset {name:?}")))
    }
}

fn open_spool(dir: Option<&PathBuf>) -> Spool {
    let Some(dir) = dir else {
        fatal("--spool <dir> is required for this command");
    };
    Spool::open(dir).unwrap_or_else(|e| fatal(&format!("opening spool {}: {e}", dir.display())))
}

fn cmd_submit(args: &Invocation) {
    let specs: Vec<GridSpec> = if let Some(name) = args.value("--preset") {
        args.exactly(0);
        vec![args.preset(name)]
    } else {
        if args.positional.is_empty() || !args.flags.is_empty() {
            usage_error("submit takes grid files, or --preset <name> and its flags");
        }
        args.positional
            .iter()
            .map(|file| {
                let text = std::fs::read_to_string(file)
                    .unwrap_or_else(|e| fatal(&format!("reading {file}: {e}")));
                GridSpec::parse(&text)
                    .unwrap_or_else(|why| fatal(&format!("{file}: invalid grid: {why}")))
            })
            .collect()
    };
    let spool = open_spool(args.spool.as_ref());
    for spec in &specs {
        let outcome = spool
            .submit(spec)
            .unwrap_or_else(|e| fatal(&format!("submitting {}: {e}", spec.experiment)));
        println!(
            "{}\t{}\t{}\tledger {}",
            outcome.job_id,
            outcome.state.name(),
            if outcome.fresh {
                "submitted"
            } else {
                "existing"
            },
            spool.ledger_path(&outcome.job_id).display()
        );
    }
}

fn cmd_status(spool: &Spool) {
    let rows = spool
        .list()
        .unwrap_or_else(|e| fatal(&format!("listing spool: {e}")));
    println!(
        "{:<40} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "job", "state", "records", "cells", "failures", "complete"
    );
    for row in rows {
        println!(
            "{:<40} {:>8} {:>8} {:>8} {:>9} {:>9}",
            row.id,
            row.state.name(),
            row.records,
            row.cells_total
                .map_or_else(|| "?".to_string(), |c| c.to_string()),
            row.failures,
            row.complete
        );
    }
}

fn cmd_tail(spool: &Spool, job_id: &str, follow: bool) {
    let path = spool.ledger_path(job_id);
    let mut offset = 0u64;
    loop {
        let (lines, new_offset) = ledger::read_new_lines(&path, offset)
            .unwrap_or_else(|e| fatal(&format!("reading {}: {e}", path.display())));
        offset = new_offset;
        let mut complete = false;
        for line in lines {
            println!("{line}");
            complete = complete || ledger::parse_footer(&line).is_some();
        }
        if complete || !follow {
            return;
        }
        // A failed job's ledger never gains its footer — stop following
        // instead of polling forever, and say why the job died.
        match spool.job_state(job_id) {
            Some(JobState::Failed) => {
                let why = std::fs::read_to_string(spool.error_path(job_id))
                    .unwrap_or_else(|_| "unknown failure (no .error file)".to_string());
                eprintln!("rr-sweep: job {job_id} failed: {}", why.trim_end());
                exit(1);
            }
            None => fatal(&format!("job {job_id} does not exist in this spool")),
            Some(JobState::Queued | JobState::Running | JobState::Done) => {}
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

fn cmd_gc(spool: &Spool) {
    let removed = spool.gc().unwrap_or_else(|e| fatal(&format!("gc: {e}")));
    println!("removed {removed} files");
}

fn main() {
    let args = Invocation::parse(std::env::args().skip(1).collect())
        .unwrap_or_else(|message| usage_error(&message));
    let spool = || open_spool(args.spool.as_ref());
    match args.command.as_str() {
        "grid" => {
            let name = &args.exactly(1)[0];
            print!("{}", args.preset(name).canonical_encoding());
        }
        "submit" => cmd_submit(&args),
        "status" => {
            args.exactly(0);
            cmd_status(&spool());
        }
        "tail" => {
            let job_id = &args.exactly(1)[0];
            cmd_tail(&spool(), job_id, args.flag("--follow"));
        }
        "gc" => {
            args.exactly(0);
            cmd_gc(&spool());
        }
        _ => unreachable!("parsing accepts only the commands of the usage"),
    }
}
