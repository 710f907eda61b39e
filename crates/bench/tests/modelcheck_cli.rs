//! `exp_modelcheck`'s cell and store flags: malformed values print the usage
//! and exit with status 2 instead of panicking, and `--scale-bench` runs the
//! backend `--store` names instead of silently keeping its default.  A flag
//! the usage does not declare is an error too, not a silently ignored
//! argument.  Every `exp_*` binary answers `--help` with its usage alone.
//! `exp_throughput`, which always runs its cells on one thread, declares no
//! `--sequential` and rejects it.

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

/// `--worker 4` used to run with the default settings, and `--seed abc`
/// to panic; a value flag at the end of the line has no value, and a flag
/// cannot be another flag's value.  `--workers` is gone: a checker call
/// starts no threads, and the grid runs its class jobs on one pool.
#[test]
fn unknown_flags_and_missing_or_malformed_values_print_usage_and_exit_2() {
    let cases: [(&[&str], &str); 6] = [
        (&["--worker", "4"], "unknown argument \"--worker\""),
        (&["--workers", "2"], "unknown argument \"--workers\""),
        (&["--seed", "abc"], "--seed takes a u64, got \"abc\""),
        (&["--quick", "--max-n"], "--max-n requires a value"),
        (&["--max-k", "--quick"], "--max-k requires a value"),
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
        // One record per row (one thread, then the pool), each on `store`.
        let rows = report.matches(&format!("\"store\":\"{store}\"")).count();
        assert_eq!(rows, 2, "{store_args:?}: {report}");
    }
    std::fs::remove_file(&json).expect("remove scale report");
}

/// A cell's class jobs may finish in any order, but its record folds them
/// in class order: the first failing class names the counterexample, and
/// the sums stop with its figures.  Both (8, 4) classes trip a 20-state
/// budget, so a fold that took whichever class finished first could name
/// `[oo.o.o..]` instead of `[ooo.o...]`.
#[test]
fn a_failing_cell_folds_its_classes_in_class_order() {
    let json =
        std::env::temp_dir().join(format!("exp_modelcheck_fold_{}.json", std::process::id()));
    let json_arg = json.to_str().expect("utf-8 temp path");
    let out = exp_modelcheck(&[
        "--only",
        "gathering:8:4:async",
        "--max-states",
        "20",
        "--json",
        json_arg,
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).expect("remove report");
    // Drop the one machine-dependent field, then compare the whole record.
    let (head, rest) = report
        .split_once("\"states_per_sec\":")
        .expect("states_per_sec field");
    let rest = rest.trim_start_matches(|c: char| c.is_ascii_digit());
    let record = format!("{head}{}", rest.strip_prefix(',').expect("a field follows"));
    let expected = concat!(
        "\"records\":[{\"experiment\":\"E10\",\"task\":\"gathering\",\"n\":8,\"k\":4,",
        "\"mode\":\"async\",\"initial_classes\":2,\"states\":20,\"quotient_states\":20,",
        "\"edges\":48,\"target_states\":0,\"progress_edges\":0,\"peak_resident_nodes\":40,",
        "\"peak_resident_bytes\":1680,\"bytes_per_state\":0,\"spilled_bytes\":0,",
        "\"visited_spilled_bytes\":0,\"store\":\"mem\",\"vacuous\":false,\"ok\":false,",
        "\"counterexample\":\"state budget exceeded from [ooo.o...]: 20 states discovered, ",
        "12 expansions completed\"}]}",
    );
    assert!(record.trim_end().ends_with(expected), "{report}");
}

#[test]
fn exp_throughput_rejects_sequential_and_writes_nothing() {
    let json = std::env::temp_dir().join(format!("exp_throughput_cli_{}.json", std::process::id()));
    let json_arg = json.to_str().expect("utf-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_exp_throughput"))
        .args(["--quick", "--sequential", "--json", json_arg])
        .output()
        .expect("spawn exp_throughput");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with(
            "exp_throughput: unknown argument \"--sequential\"\nusage: exp_throughput "
        ),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "ran: {stderr}");
    assert!(!json.exists(), "wrote a report");
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
