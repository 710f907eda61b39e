//! `rr-perfbench --workload <name> --seed <u64> --seconds <u64> --trace <0|1>`
//!
//! Runs one workload, prints what it ran and measured, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`.  Spool
//! directories and spill files live under `.bench_out/` in the working
//! directory and are removed before exit; a traced run leaves its spans in
//! `.bench_out/spans-<workload>-<seed>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rr_perfbench::run::{run, RunConfig, WorkloadName};

const USAGE: &str = "usage: rr-perfbench --workload proof-grid|cell-spill|sweep-service \
                     --seed <u64> --seconds <1..=60> --trace <0|1>";

fn parse(args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!(
        "work-{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    let tmp = work.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("creating {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // The checker puts its spill files in the temp dir; keep them inside the
    // working directory.  No other thread exists yet.
    std::env::set_var("TMPDIR", std::fs::canonicalize(&tmp).unwrap_or(tmp.clone()));

    let result = run(&cfg, nproc, &work, &tmp, process_start);
    if let Err(e) = std::fs::remove_dir_all(&work) {
        eprintln!("removing {}: {e}", work.display());
    }
    let output = match result {
        Ok(output) => output,
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for line in &output.lines {
        println!("# {line}");
    }
    if let Some(spans) = &output.spans_jsonl {
        let path = out_dir.join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        match std::fs::write(&path, spans) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    println!("{}", output.json());
    ExitCode::SUCCESS
}
