//! End-to-end tests of the sweep-job service: submit → drain → done,
//! orphaned-job resume after a simulated crash, rejected jobs, gc — and a
//! real `kill -9` of the daemon binary mid-job followed by a resume that
//! must reproduce the uninterrupted ledger bytes.  Cache-served
//! resubmission is pinned in `cache_serve.rs`, a test binary of its own.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rr_bench::grid::{GridKind, GridSpec};
use rr_bench::ledger;
use rr_corda::SchedulerKind;
use rr_core::driver::TaskTargets;
use rr_core::unified::Task;
use rr_sweepd::{run_daemon, DaemonOptions, JobState, Spool};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rr-sweepd-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fast 6-cell gathering grid.
fn small_spec(root_seed: u64) -> GridSpec {
    GridSpec {
        experiment: "T-svc".to_string(),
        root_seed,
        instances: vec![(8, 4), (10, 3)],
        kind: GridKind::Sweep {
            task: Task::Gathering,
            schedulers: SchedulerKind::ALL.to_vec(),
            seeds_per_cell: 1,
            targets: TaskTargets::open_ended(),
            budget_per_n: 20_000,
            budget_flat: 0,
            async_budget_factor: 2,
        },
    }
}

fn drain_opts() -> DaemonOptions {
    DaemonOptions {
        sequential: true,
        poll_ms: 10,
        drain: true,
    }
}

/// Runs the grid through a throwaway spool and returns the ledger bytes an
/// uninterrupted service run produces.
fn uninterrupted_ledger(spec: &GridSpec, dir: &Path) -> Vec<u8> {
    let spool = Spool::open(dir).unwrap();
    let outcome = spool.submit(spec).unwrap();
    run_daemon(&spool, &drain_opts()).unwrap();
    std::fs::read(spool.ledger_path(&outcome.job_id)).unwrap()
}

#[test]
fn submit_drain_status_roundtrip() {
    let spool = Spool::open(&tmp_dir("roundtrip")).unwrap();
    let spec = small_spec(42);

    let outcome = spool.submit(&spec).unwrap();
    assert!(outcome.fresh);
    assert_eq!(outcome.state, JobState::Queued);
    assert_eq!(outcome.job_id, spec.job_id());

    // Submission is idempotent.
    let again = spool.submit(&spec).unwrap();
    assert!(!again.fresh);
    assert_eq!(again.state, JobState::Queued);

    run_daemon(&spool, &drain_opts()).unwrap();

    assert_eq!(spool.job_state(&outcome.job_id), Some(JobState::Done));
    let rows = spool.list().unwrap();
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(row.state, JobState::Done);
    assert_eq!(row.cells_total, Some(spec.cells()));
    assert_eq!(row.records, spec.cells());
    assert_eq!(row.failures, 0);
    assert!(row.complete);

    let found = ledger::scan(&spool.ledger_path(&outcome.job_id)).unwrap();
    assert_eq!(found.footer, Some((spec.cells() as u64, 0)));

    // Resubmitting a done job stays a no-op.
    let done = spool.submit(&spec).unwrap();
    assert!(!done.fresh);
    assert_eq!(done.state, JobState::Done);
}

#[test]
fn orphaned_job_resumes_to_identical_bytes() {
    let spec = small_spec(7);
    let full = uninterrupted_ledger(&spec, &tmp_dir("orphan-ref"));

    // Simulate a daemon killed mid-job: the grid is claimed (in jobs/) and
    // the ledger holds a durable prefix ending in a torn line.
    let spool = Spool::open(&tmp_dir("orphan")).unwrap();
    let outcome = spool.submit(&spec).unwrap();
    let claimed = spool.claim_next().unwrap();
    assert_eq!(claimed.as_deref(), Some(outcome.job_id.as_str()));
    assert_eq!(spool.job_state(&outcome.job_id), Some(JobState::Running));
    let newline_offsets: Vec<usize> = full
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    let cut = newline_offsets[2] + 17; // 2 durable records + a torn third
    std::fs::write(spool.ledger_path(&outcome.job_id), &full[..cut]).unwrap();

    // A restarted daemon picks the orphan up before touching the queue.
    run_daemon(&spool, &drain_opts()).unwrap();
    assert_eq!(spool.job_state(&outcome.job_id), Some(JobState::Done));
    let resumed = std::fs::read(spool.ledger_path(&outcome.job_id)).unwrap();
    assert_eq!(resumed, full, "resumed ledger must be byte-identical");
}

#[test]
fn unparseable_grid_lands_in_failed_with_reason() {
    let spool = Spool::open(&tmp_dir("reject")).unwrap();
    std::fs::write(
        spool.grid_path("bogus", JobState::Queued),
        "not a grid at all\n",
    )
    .unwrap();
    run_daemon(&spool, &drain_opts()).unwrap();
    assert_eq!(spool.job_state("bogus"), Some(JobState::Failed));
    let why = std::fs::read_to_string(spool.error_path("bogus")).unwrap();
    assert!(why.contains("rejected"), "{why}");

    // gc clears failed records and their orphaned ledgers.
    let removed = spool.gc().unwrap();
    assert!(removed >= 2, "grid + error file, got {removed}");
    assert_eq!(spool.job_state("bogus"), None);
}

#[test]
fn gc_spares_fresh_submit_tempfiles() {
    let spool = Spool::open(&tmp_dir("gc-tmp")).unwrap();
    // A submit in flight: written to queue/ but not yet renamed.
    let tmp = spool.root().join("queue").join(".tmp-inflight-1");
    std::fs::write(&tmp, "half a grid").unwrap();
    spool.gc().unwrap();
    assert!(
        tmp.exists(),
        "gc must not race a concurrent submit's rename"
    );
    // With the grace forced to zero the abandoned tempfile is collected.
    let removed = spool.gc_with_grace(std::time::Duration::ZERO).unwrap();
    assert!(removed >= 1);
    assert!(!tmp.exists());
}

/// `tail --follow` of a job that lands in `failed/` must terminate with the
/// failure reason instead of polling forever for a footer that will never
/// be written.
#[test]
fn tail_follow_stops_on_failed_job() {
    let spool = Spool::open(&tmp_dir("tail-failed")).unwrap();
    std::fs::write(
        spool.grid_path("bogus-tail", JobState::Queued),
        "not a grid at all\n",
    )
    .unwrap();
    run_daemon(&spool, &drain_opts()).unwrap();
    assert_eq!(spool.job_state("bogus-tail"), Some(JobState::Failed));

    let tail = Command::new(env!("CARGO_BIN_EXE_rr-sweep"))
        .args(["--spool"])
        .arg(spool.root())
        .args(["tail", "bogus-tail", "--follow"])
        .output()
        .unwrap();
    assert!(!tail.status.success(), "a failed job's tail must exit 1");
    let err = String::from_utf8(tail.stderr).unwrap();
    assert!(err.contains("failed"), "{err}");
    assert!(err.contains("rejected"), "{err}");
}

#[test]
fn gc_keeps_done_jobs_and_their_artifacts() {
    let spool = Spool::open(&tmp_dir("gc-keep")).unwrap();
    let spec = small_spec(5);
    let outcome = spool.submit(&spec).unwrap();
    run_daemon(&spool, &drain_opts()).unwrap();
    spool.gc().unwrap();
    assert_eq!(spool.job_state(&outcome.job_id), Some(JobState::Done));
    assert!(spool.ledger_path(&outcome.job_id).is_file());
    let found = ledger::scan(&spool.ledger_path(&outcome.job_id)).unwrap();
    assert!(found.is_complete());
}

/// The real thing: `kill -9` the daemon binary mid-job, restart it with
/// `--drain`, and require the resumed ledger to be byte-identical to an
/// uninterrupted service run of the same grid.
#[test]
fn killed_daemon_binary_resumes_to_identical_bytes() {
    let spec = small_spec(1234);
    let full = uninterrupted_ledger(&spec, &tmp_dir("kill-ref"));

    let dir = tmp_dir("kill");
    let spool = Spool::open(&dir).unwrap();

    // Submit through the client binary (exercises the CLI path).
    let grid_file = dir.join("job.grid");
    std::fs::write(&grid_file, spec.canonical_encoding()).unwrap();
    let submit = Command::new(env!("CARGO_BIN_EXE_rr-sweep"))
        .args(["--spool"])
        .arg(&dir)
        .arg("submit")
        .arg(&grid_file)
        .output()
        .unwrap();
    assert!(submit.status.success(), "{submit:?}");

    // Start the daemon (no --drain: it would only exit when killed),
    // let it get into the job, then SIGKILL it.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_rr-sweepd"))
        .args(["--spool"])
        .arg(&dir)
        .args(["--sequential", "--poll-ms", "10"])
        .spawn()
        .unwrap();
    let ledger_path = spool.ledger_path(&spec.job_id());
    for _ in 0..600 {
        if ledger_path.is_file() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    daemon.kill().unwrap();
    daemon.wait().unwrap();

    // The grid must not be lost: it is either still claimed (killed
    // mid-job) or already done (the job won the race).
    let state = spool.job_state(&spec.job_id());
    assert!(
        matches!(state, Some(JobState::Running | JobState::Done)),
        "job lost after kill: {state:?}"
    );

    // Restart in drain mode: resumes the orphan and exits.
    let restart = Command::new(env!("CARGO_BIN_EXE_rr-sweepd"))
        .args(["--spool"])
        .arg(&dir)
        .args(["--sequential", "--drain"])
        .output()
        .unwrap();
    assert!(restart.status.success(), "{restart:?}");

    assert_eq!(spool.job_state(&spec.job_id()), Some(JobState::Done));
    let resumed = std::fs::read(&ledger_path).unwrap();
    assert_eq!(
        resumed, full,
        "ledger after kill -9 + resume must be byte-identical to an uninterrupted run"
    );

    // And the client can stream it back.
    let tail = Command::new(env!("CARGO_BIN_EXE_rr-sweep"))
        .args(["--spool"])
        .arg(&dir)
        .args(["tail", &spec.job_id()])
        .output()
        .unwrap();
    assert!(tail.status.success());
    let text = String::from_utf8(tail.stdout).unwrap();
    assert_eq!(text.lines().count(), 1 + spec.cells() + 1);
    assert!(text
        .lines()
        .next()
        .unwrap()
        .contains("\"schema\":\"rr-sweep/v1\""));
    assert!(text
        .lines()
        .last()
        .unwrap()
        .starts_with(ledger::FOOTER_PREFIX));
}

#[test]
fn client_grid_preset_roundtrips_through_submit() {
    let output = Command::new(env!("CARGO_BIN_EXE_rr-sweep"))
        .args(["grid", "e6", "--quick", "--seed", "7"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    let spec = GridSpec::parse(&text).unwrap();
    assert_eq!(spec.experiment, "E6");
    assert_eq!(spec.root_seed, 7);
    assert_eq!(
        spec,
        rr_bench::grid::preset("e6", true, Some(7)).unwrap(),
        "client preset must equal the in-process preset"
    );
}

#[test]
fn client_rejects_undeclared_flags_and_missing_or_malformed_values() {
    // Each of these used to run with a silently defaulted setting (or, for
    // `--seed abc`, fail without the usage); now each prints the usage and
    // exits 2 before touching a spool.
    let spool = tmp_dir("client-flags");
    let spool_arg = spool.to_str().unwrap();
    let cases: [&[&str]; 8] = [
        &["grid", "e4", "--quik"],
        &["grid", "e4", "--quick", "--seed"],
        &["grid", "e4", "--quick", "--sead", "7"],
        &["grid", "e4", "--seed", "abc"],
        &["--spool", spool_arg, "submit", "grid.txt", "--quick"],
        // A repeated flag used to run with one of its values silently.
        &["grid", "e4", "--seed", "1", "--seed", "2"],
        &["grid", "e4", "--quick", "--quick"],
        &[
            "--spool", spool_arg, "submit", "--preset", "e4", "--preset", "e6",
        ],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_rr-sweep"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains("usage: rr-sweep"), "{args:?}: {stderr}");
    }
    assert_eq!(
        std::fs::read_dir(&spool).unwrap().count(),
        0,
        "nothing queued"
    );
    std::fs::remove_dir_all(&spool).unwrap();
}

#[test]
fn daemon_rejects_bad_command_lines_before_opening_a_spool() {
    // `--spool --drain` used to take `--drain` as the spool path, create a
    // directory of that name and serve it forever; `--poll-ms abc` failed
    // without the usage.  Each case now prints the usage and exits 2, and
    // leaves the working directory empty.  A daemon still running after
    // the deadline started serving and fails the test instead of hanging
    // it.
    let cases: [&[&str]; 7] = [
        &["--spool", "--drain"],
        &["--spool"],
        &["--spool", "spool", "--poll-ms", "abc"],
        &["--spool", "spool", "--pol-ms", "5"],
        &["--spool", "spool", "stray"],
        &["--spool", "spool", "--spool", "other"],
        &["--spool", "spool", "--drain", "--drain"],
    ];
    for (i, args) in cases.into_iter().enumerate() {
        let cwd = tmp_dir(&format!("daemon-args-{i}"));
        let mut child = Command::new(env!("CARGO_BIN_EXE_rr-sweepd"))
            .args(args)
            .current_dir(&cwd)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().unwrap().is_none() {
            if Instant::now() > deadline {
                child.kill().unwrap();
                panic!("rr-sweepd {args:?} still running after 30 s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let output = child.wait_with_output().unwrap();
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("\nusage: rr-sweepd "), "{args:?}: {stderr}");
        assert_eq!(
            std::fs::read_dir(&cwd).unwrap().count(),
            0,
            "{args:?} created a directory"
        );
        std::fs::remove_dir(&cwd).unwrap();
    }
}
