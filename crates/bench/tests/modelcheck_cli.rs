//! `exp_modelcheck`'s cell and store flags: malformed values print the usage
//! and exit with status 2 instead of panicking, and `--scale-bench` runs the
//! backend `--store` names instead of silently keeping its default.  A flag
//! the usage does not declare is an error too, not a silently ignored
//! argument.  Every `exp_*` binary answers `--help` with its usage alone.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn exp_modelcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_modelcheck"))
        .args(args)
        .output()
        .expect("spawn exp_modelcheck")
}

#[test]
fn malformed_cell_and_store_flags_print_usage_and_exit_2() {
    let cases: [&[&str]; 6] = [
        &["--scale-bench", "--only", "gatherin:13:7:async"],
        &["--only", "gathering:13:7:bogus"],
        &["--only", "gathering:x:7"],
        &["--only", "gathering:13"],
        &["--scale-bench", "--store", "disk"],
        &["--quick", "--only", "gathering:3:2"],
    ];
    for args in cases {
        let out = exp_modelcheck(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: exp_modelcheck"),
            "{args:?}: {stderr}"
        );
    }
}

/// `--worker 4` (a typo of `--workers`) used to run the default worker
/// count, and `--seed abc` to panic; a value flag at the end of the line
/// has no value, and a flag cannot be another flag's value.
#[test]
fn unknown_flags_and_missing_or_malformed_values_print_usage_and_exit_2() {
    let cases: [(&[&str], &str); 5] = [
        (&["--worker", "4"], "unknown argument \"--worker\""),
        (&["--seed", "abc"], "--seed takes a u64, got \"abc\""),
        (&["--quick", "--max-n"], "--max-n requires a value"),
        (&["--workers", "--quick"], "--workers requires a value"),
        (
            &["--max-states", "many"],
            "--max-states: malformed value \"many\"",
        ),
    ];
    for (args, message) in cases {
        let out = exp_modelcheck(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!(
                "exp_modelcheck: {message}\nusage: exp_modelcheck "
            )),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran: {stderr}");
    }
}

#[test]
fn scale_bench_runs_the_store_it_is_given() {
    let json = std::env::temp_dir().join(format!("exp_modelcheck_cli_{}.json", std::process::id()));
    let json_arg = json.to_str().expect("utf-8 temp path");
    let cell = ["--scale-bench", "--quick", "--only", "gathering:6:3:async"];
    for (store_args, store) in [(&[][..], "spill"), (&["--store", "mem"][..], "mem")] {
        let out = exp_modelcheck(&[&cell[..], store_args, &["--json", json_arg]].concat());
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = std::fs::read_to_string(&json).expect("scale report written");
        // One record per quick worker count (1 and 4), each on `store`.
        let rows = report.matches(&format!("\"store\":\"{store}\"")).count();
        assert_eq!(rows, 2, "{store_args:?}: {report}");
    }
    std::fs::remove_file(&json).expect("remove scale report");
}

/// `--help` and `-h` print the binary's usage and exit 0 before anything
/// runs — on every `exp_*` binary, so `exp_modelcheck --help` no longer
/// starts the full 256-cell grid.  A binary still running after the
/// deadline started work and fails the test instead of hanging it.
#[test]
fn help_prints_usage_and_exits_0_before_anything_runs() {
    let binaries = [
        ("exp_ablation", env!("CARGO_BIN_EXE_exp_ablation")),
        ("exp_align", env!("CARGO_BIN_EXE_exp_align")),
        (
            "exp_characterization",
            env!("CARGO_BIN_EXE_exp_characterization"),
        ),
        ("exp_clearing", env!("CARGO_BIN_EXE_exp_clearing")),
        ("exp_config_graphs", env!("CARGO_BIN_EXE_exp_config_graphs")),
        ("exp_faults", env!("CARGO_BIN_EXE_exp_faults")),
        ("exp_gathering", env!("CARGO_BIN_EXE_exp_gathering")),
        ("exp_impossibility", env!("CARGO_BIN_EXE_exp_impossibility")),
        ("exp_modelcheck", env!("CARGO_BIN_EXE_exp_modelcheck")),
        ("exp_nminus_three", env!("CARGO_BIN_EXE_exp_nminus_three")),
        ("exp_throughput", env!("CARGO_BIN_EXE_exp_throughput")),
    ];
    let cases: [&[&str]; 3] = [&["--help"], &["-h"], &["--quick", "--help"]];
    for (name, path) in binaries {
        for args in cases {
            let mut child = Command::new(path)
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn exp binary");
            let deadline = Instant::now() + Duration::from_secs(30);
            while child.try_wait().expect("poll exp binary").is_none() {
                if Instant::now() > deadline {
                    child.kill().expect("kill exp binary");
                    panic!("{name} {args:?} still running after 30 s");
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let out = child.wait_with_output().expect("collect exp binary output");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{name} {args:?}: {stdout}");
            assert!(
                stdout.starts_with(&format!("usage: {name} ")),
                "{name} {args:?}: {stdout}"
            );
            // Only the usage: its first line and indented continuations.
            assert!(
                stdout.lines().skip(1).all(|line| line.starts_with(' ')),
                "{name} {args:?} printed more than its usage: {stdout}"
            );
            assert!(out.stderr.is_empty(), "{name} {args:?}");
        }
    }
}
