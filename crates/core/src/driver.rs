//! The generic task driver: **one** run loop for every task of the paper.
//!
//! Historically each task had its own copy of the same loop (build a
//! simulator, hook up its observers through a `RefCell`, run, unpack the
//! statistics).  This module replaces them with two functions:
//!
//! * [`drive`] — the single engine-driving loop: construct an [`Engine`]
//!   with the options declared by the protocol, run it under a scheduler
//!   with an observer, and surface simulation failures as errors;
//! * [`run_task`] — the task-level driver: given a [`Task`] and a protocol it
//!   picks the right monitor and stop condition and returns per-task
//!   statistics.  The public wrappers `run_searching`, `run_gathering` and
//!   `run_to_c_star` are thin shims over these two functions, and
//!   [`run_dispatched`] composes `run_task` with the unified dispatcher
//!   [`protocol_for`](crate::unified::protocol_for()) (one call from
//!   `(task, start)` to verified statistics — this is what `rr-checker` and
//!   the `exp_*` binaries use).

use rr_corda::{
    Engine, EngineOptions, Monitor, Protocol, RunOutcome, RunReport, Scheduler, SchedulerKind,
    SimError,
};
use rr_ring::Configuration;
use rr_search::{GatheringMonitor, SearchMonitors};

use crate::clearing::SearchingRunStats;
use crate::gathering::GatheringRunStats;
use crate::unified::{protocol_for, Task, UnifiedProtocol};

/// The single engine-driving loop shared by every harness in this crate.
///
/// Builds an [`Engine`] for `protocol` (options from the protocol's own
/// declaration), then runs it under `scheduler` with `monitor` observing,
/// for at most `max_scheduler_steps` scheduler steps, stopping early when
/// `stop` holds.  A failed simulation (exclusivity violation, invalid move)
/// is returned as `Err`; budget exhaustion is not an error — inspect the
/// returned [`RunReport`].
pub fn drive<P, S, M, F>(
    protocol: P,
    initial: &Configuration,
    scheduler: &mut S,
    monitor: &mut M,
    max_scheduler_steps: u64,
    stop: F,
) -> Result<(Engine<P>, RunReport), SimError>
where
    P: Protocol,
    S: Scheduler + ?Sized,
    M: Monitor + ?Sized,
    F: FnMut(&Engine<P>, &M) -> bool,
{
    let options = EngineOptions::for_protocol(&protocol);
    let mut engine = Engine::new(protocol, initial.clone(), options)?;
    let report = engine.run(scheduler, monitor, max_scheduler_steps, stop);
    if let RunOutcome::Failed(e) = report.outcome {
        return Err(e);
    }
    Ok((engine, report))
}

/// Success thresholds for a [`run_task`] call.
///
/// Only meaningful for the searching/exploration tasks: the run stops once it
/// has demonstrated `clearings` full ring clearings **and** `explorations`
/// full sweeps by every robot.  With `clearings == 0` the run never stops
/// early (it spends the whole step budget), which is how open-ended
/// experiment runs are expressed.  Gathering always stops at the gathered
/// configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskTargets {
    /// Required number of full ring clearings.
    pub clearings: u64,
    /// Required number of full exploration sweeps per robot.
    pub explorations: u64,
}

impl TaskTargets {
    /// Targets requiring `clearings` clearings and `explorations` sweeps.
    #[must_use]
    pub fn demonstrate(clearings: u64, explorations: u64) -> Self {
        TaskTargets {
            clearings,
            explorations,
        }
    }

    /// Open-ended run: never stop early, spend the whole step budget.
    #[must_use]
    pub fn open_ended() -> Self {
        TaskTargets::default()
    }
}

/// Per-task statistics produced by [`run_task`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStats {
    /// Statistics of a searching/exploration run.
    Searching(SearchingRunStats),
    /// Statistics of a gathering run.
    Gathering(GatheringRunStats),
}

/// Outcome of one [`run_task`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRunReport {
    /// The task that was run.
    pub task: Task,
    /// The engine-level run report (outcome, steps, moves).
    pub report: RunReport,
    /// The task-level statistics.
    pub stats: TaskStats,
}

impl TaskRunReport {
    /// The searching statistics, if this was a searching/exploration run.
    #[must_use]
    pub fn searching(self) -> Option<SearchingRunStats> {
        match self.stats {
            TaskStats::Searching(s) => Some(s),
            TaskStats::Gathering(_) => None,
        }
    }

    /// The gathering statistics, if this was a gathering run.
    #[must_use]
    pub fn gathering(self) -> Option<GatheringRunStats> {
        match self.stats {
            TaskStats::Gathering(s) => Some(s),
            TaskStats::Searching(_) => None,
        }
    }
}

/// Runs `protocol` on `task` from `initial` under `scheduler`: the generic
/// driver behind `run_searching` and `run_gathering`.
///
/// The task decides how the run is observed and when it may stop early:
///
/// | task | monitor | stop condition |
/// |------|---------|----------------|
/// | [`Task::GraphSearching`] / [`Task::Exploration`] | [`SearchMonitors`] | `targets` demonstrated (never, if `targets.clearings == 0`) |
/// | [`Task::Gathering`] | [`GatheringMonitor`] | configuration gathered |
pub fn run_task<P, S>(
    task: Task,
    protocol: P,
    initial: &Configuration,
    scheduler: &mut S,
    targets: TaskTargets,
    max_scheduler_steps: u64,
) -> Result<TaskRunReport, SimError>
where
    P: Protocol,
    S: Scheduler + ?Sized,
{
    let options = EngineOptions::for_protocol(&protocol);
    let mut engine = Engine::new(protocol, initial.clone(), options)?;
    run_task_on_engine(task, &mut engine, scheduler, targets, max_scheduler_steps)
}

/// The body of [`run_task`], operating on an already-prepared engine (fresh
/// from [`Engine::new`] or rewound with [`Engine::reset`]).  This is what
/// lets [`BatchRunner`] reuse one engine allocation across a whole batch.
pub fn run_task_on_engine<P, S>(
    task: Task,
    engine: &mut Engine<P>,
    scheduler: &mut S,
    targets: TaskTargets,
    max_scheduler_steps: u64,
) -> Result<TaskRunReport, SimError>
where
    P: Protocol,
    S: Scheduler + ?Sized,
{
    match task {
        Task::Exploration | Task::GraphSearching => {
            let initial = engine.configuration().clone();
            let mut monitors = SearchMonitors::new(&initial, &engine.positions());
            let report = engine.run(
                scheduler,
                &mut monitors,
                max_scheduler_steps,
                |_, m: &SearchMonitors| {
                    targets.clearings > 0 && m.demonstrated(targets.clearings, targets.explorations)
                },
            );
            if let RunOutcome::Failed(e) = report.outcome {
                return Err(e);
            }
            let stats = SearchingRunStats {
                clearings: monitors.clearings(),
                clearing_intervals: monitors.clearing_intervals().to_vec(),
                min_exploration_completions: monitors.min_exploration_completions(),
                moves: monitors.moves_observed(),
                steps: report.steps,
            };
            Ok(TaskRunReport {
                task,
                report,
                stats: TaskStats::Searching(stats),
            })
        }
        Task::Gathering => {
            let mut monitor = GatheringMonitor::new();
            let report = engine.run(
                scheduler,
                &mut monitor,
                max_scheduler_steps,
                |e, _: &GatheringMonitor| e.configuration().is_gathered(),
            );
            if let RunOutcome::Failed(e) = report.outcome {
                return Err(e);
            }
            let stats = GatheringRunStats {
                gathered: engine.configuration().is_gathered(),
                moves: report.moves,
                steps: report.steps,
                broke_gathering: monitor.broke_gathering(),
            };
            Ok(TaskRunReport {
                task,
                report,
                stats: TaskStats::Gathering(stats),
            })
        }
    }
}

/// Why a [`run_dispatched`] call could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The paper claims no algorithm for these parameters (impossible, open,
    /// or out of the model).
    NoProtocol {
        /// The requested task.
        task: Task,
        /// Ring size.
        n: usize,
        /// Number of robots.
        k: usize,
    },
    /// The simulation itself failed.
    Sim(SimError),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::NoProtocol { task, n, k } => {
                write!(f, "no algorithm claimed for {task} with n={n}, k={k}")
            }
            TaskError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for TaskError {}

impl From<SimError> for TaskError {
    fn from(e: SimError) -> Self {
        TaskError::Sim(e)
    }
}

/// Composes [`run_task`] with the unified dispatcher: picks the protocol the
/// paper prescribes for `(task, n, k)` and runs it.
pub fn run_dispatched<S>(
    task: Task,
    initial: &Configuration,
    scheduler: &mut S,
    targets: TaskTargets,
    max_scheduler_steps: u64,
) -> Result<TaskRunReport, TaskError>
where
    S: Scheduler + ?Sized,
{
    let (n, k) = (initial.n(), initial.num_robots());
    let protocol = protocol_for(task, n, k).ok_or(TaskError::NoProtocol { task, n, k })?;
    Ok(run_task(
        task,
        protocol,
        initial,
        scheduler,
        targets,
        max_scheduler_steps,
    )?)
}

/// One instance of a batch run: everything needed to reproduce a single
/// dispatched task run, as data.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The task to run.
    pub task: Task,
    /// Starting configuration.
    pub start: Configuration,
    /// Scheduler family.
    pub scheduler: SchedulerKind,
    /// Seed for the scheduler's randomness (ignored by round-robin).
    pub seed: u64,
    /// Early-stop targets.
    pub targets: TaskTargets,
    /// Scheduler-step budget.
    pub max_scheduler_steps: u64,
}

/// Outcome of one [`BatchJob`].
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The task-level report (engine outcome + per-task statistics).
    pub report: TaskRunReport,
    /// Total completed Look–Compute–Move cycles across all robots.
    pub cycles: u64,
}

/// Runs [`BatchJob`]s back to back while reusing **one** engine allocation:
/// the robot vector, configuration storage (including its incremental
/// occupancy index), Look-scratch snapshot, Look memo table and run-loop
/// step report are recycled via [`Engine::reset`] between jobs, so a
/// worker allocates the memo table once (each job starts with it empty:
/// its decisions belong to the job's protocol).  Sweep runners hold one
/// `BatchRunner` per worker.
#[derive(Debug, Default)]
pub struct BatchRunner {
    engine: Option<Engine<UnifiedProtocol>>,
}

impl BatchRunner {
    /// Creates an empty runner (the engine is allocated by the first job).
    #[must_use]
    pub fn new() -> Self {
        BatchRunner::default()
    }

    /// Runs one job, reusing the engine left behind by the previous job.
    pub fn run(&mut self, job: &BatchJob) -> Result<BatchOutcome, TaskError> {
        let (n, k) = (job.start.n(), job.start.num_robots());
        let protocol = protocol_for(job.task, n, k).ok_or(TaskError::NoProtocol {
            task: job.task,
            n,
            k,
        })?;
        let options = EngineOptions::for_protocol(&protocol);
        let engine = match &mut self.engine {
            Some(engine) => {
                engine.reset(protocol, &job.start, options)?;
                engine
            }
            slot @ None => slot.insert(Engine::new(protocol, job.start.clone(), options)?),
        };
        let report = job.scheduler.with(job.seed, |scheduler| {
            run_task_on_engine(
                job.task,
                engine,
                scheduler,
                job.targets,
                job.max_scheduler_steps,
            )
        })?;
        let cycles = engine.robots().iter().map(|r| r.cycles).sum();
        Ok(BatchOutcome { report, cycles })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clearing::RingClearingProtocol;
    use crate::gathering::GatheringProtocol;
    use rr_corda::scheduler::RoundRobinScheduler;

    fn cfg(gaps: &[usize]) -> Configuration {
        Configuration::from_gaps_at_origin(gaps)
    }

    #[test]
    fn run_task_searching_produces_stats() {
        let initial = cfg(&[0, 2, 1, 0, 4]); // rigid, n = 12, k = 5
        let mut sched = RoundRobinScheduler::new();
        let report = run_task(
            Task::GraphSearching,
            RingClearingProtocol::new(),
            &initial,
            &mut sched,
            TaskTargets::demonstrate(2, 0),
            60_000,
        )
        .unwrap();
        assert!(report.report.succeeded());
        let stats = report.searching().expect("searching stats");
        assert!(stats.clearings >= 2);
    }

    #[test]
    fn run_task_gathering_produces_stats() {
        let initial = cfg(&[0, 0, 0, 1, 6]); // C*, n = 12, k = 5
        let mut sched = RoundRobinScheduler::new();
        let report = run_task(
            Task::Gathering,
            GatheringProtocol::new(),
            &initial,
            &mut sched,
            TaskTargets::open_ended(),
            50_000,
        )
        .unwrap();
        let stats = report.gathering().expect("gathering stats");
        assert!(stats.gathered);
        assert!(!stats.broke_gathering);
    }

    #[test]
    fn run_dispatched_rejects_unclaimed_cells() {
        let initial = cfg(&[0, 1, 2, 2]); // n = 9, k = 4: open/impossible band
        let mut sched = RoundRobinScheduler::new();
        let err = run_dispatched(
            Task::GraphSearching,
            &initial,
            &mut sched,
            TaskTargets::demonstrate(1, 0),
            1_000,
        )
        .unwrap_err();
        assert!(
            matches!(err, TaskError::NoProtocol { n: 9, k: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn batch_runner_matches_individual_runs() {
        // A mixed batch: searching and gathering instances, all three
        // scheduler families.  The recycled-engine batch path must produce
        // exactly the reports of fresh individual runs.
        use rr_corda::SchedulerKind;
        let mut jobs = Vec::new();
        for (task, gaps, targets) in [
            (
                Task::GraphSearching,
                vec![0usize, 2, 1, 0, 4],
                TaskTargets::demonstrate(2, 0),
            ),
            (
                Task::Gathering,
                vec![0, 0, 0, 1, 6],
                TaskTargets::open_ended(),
            ),
            (
                Task::Gathering,
                vec![0, 2, 1, 0, 4],
                TaskTargets::open_ended(),
            ),
        ] {
            for scheduler in SchedulerKind::ALL {
                jobs.push(BatchJob {
                    task,
                    start: cfg(&gaps),
                    scheduler,
                    seed: 11,
                    targets,
                    max_scheduler_steps: 200_000,
                });
            }
        }
        let mut runner = BatchRunner::new();
        for job in &jobs {
            let outcome = runner.run(job).expect("batch job runs");
            let individual = job
                .scheduler
                .with(job.seed, |s| {
                    run_dispatched(
                        job.task,
                        &job.start,
                        s,
                        job.targets,
                        job.max_scheduler_steps,
                    )
                })
                .expect("individual run");
            assert_eq!(outcome.report.report, individual.report);
            assert_eq!(outcome.report.stats, individual.stats);
            assert!(outcome.cycles > 0);
        }
    }

    #[test]
    fn batch_runner_reports_unclaimed_cells() {
        let job = BatchJob {
            task: Task::GraphSearching,
            start: cfg(&[0, 1, 2, 2]), // n = 9, k = 4: unclaimed
            scheduler: rr_corda::SchedulerKind::RoundRobin,
            seed: 0,
            targets: TaskTargets::demonstrate(1, 0),
            max_scheduler_steps: 100,
        };
        let mut runner = BatchRunner::new();
        assert!(matches!(
            runner.run(&job),
            Err(TaskError::NoProtocol { n: 9, k: 4, .. })
        ));
        // The runner stays usable after a dispatch failure.
        let ok_job = BatchJob {
            start: cfg(&[0, 2, 1, 0, 4]),
            targets: TaskTargets::demonstrate(1, 0),
            max_scheduler_steps: 60_000,
            ..job
        };
        assert!(runner.run(&ok_job).is_ok());
    }

    #[test]
    fn run_dispatched_solves_claimed_cells() {
        let initial = cfg(&[0, 2, 1, 0, 4]); // n = 12, k = 5
        let mut sched = RoundRobinScheduler::new();
        let report = run_dispatched(
            Task::GraphSearching,
            &initial,
            &mut sched,
            TaskTargets::demonstrate(3, 1),
            200_000,
        )
        .unwrap();
        let stats = report.searching().unwrap();
        assert!(stats.clearings >= 3);
        assert!(stats.min_exploration_completions >= 1);
    }
}
