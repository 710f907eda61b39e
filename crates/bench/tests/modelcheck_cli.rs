//! `exp_modelcheck`'s cell and store flags: malformed values print the usage
//! and exit with status 2 instead of panicking, and `--scale-bench` runs the
//! backend `--store` names instead of silently keeping its default.

use std::process::{Command, Output};

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
