//! Run-and-verify harnesses: execute the paper's algorithms on concrete
//! instances under several schedulers and report whether the claimed
//! properties were observed.
//!
//! These harnesses power the characterization sweep (experiment E1), the
//! integration tests and the experiment binaries.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rr_corda::scheduler::RoundRobinScheduler;
use rr_corda::SchedulerKind;
use rr_core::align::run_to_c_star;
use rr_core::clearing::SearchingRunStats;
use rr_core::driver::{run_dispatched, TaskError, TaskTargets};
use rr_core::gathering::GatheringRunStats;
use rr_core::unified::{protocol_for, Task};
use rr_ring::enumerate::{enumerate_rigid_configurations, random_rigid_configuration};
use rr_ring::{supermin_view, Configuration};
use serde::{Deserialize, Serialize};

/// Outcome of one verification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Ring size.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Task verified.
    pub task: String,
    /// Whether the claimed property was observed on every run.
    pub verified: bool,
    /// Number of distinct runs performed.
    pub runs: usize,
    /// Free-form details (counts, move totals, ...).
    pub details: String,
}

fn scheduler_run_searching(
    config: &Configuration,
    kind: SchedulerKind,
    seed: u64,
    budget: u64,
) -> Result<SearchingRunStats, TaskError> {
    let report = kind.with(seed, |s| {
        run_dispatched(
            Task::GraphSearching,
            config,
            s,
            TaskTargets::demonstrate(3, 1),
            budget,
        )
    })?;
    Ok(report.searching().expect("searching stats"))
}

fn scheduler_run_gathering(
    config: &Configuration,
    kind: SchedulerKind,
    seed: u64,
    budget: u64,
) -> Result<GatheringRunStats, TaskError> {
    let report = kind.with(seed, |s| {
        run_dispatched(
            Task::Gathering,
            config,
            s,
            TaskTargets::open_ended(),
            budget,
        )
    })?;
    Ok(report.gathering().expect("gathering stats"))
}

/// Verifies exclusive perpetual graph searching (and exploration) for
/// `(n, k)`: runs the dispatched algorithm from `samples` rigid starting
/// configurations under every scheduler kind and requires at least 3 full
/// clearings (and at least one full exploration sweep under the round-robin
/// scheduler) in each run.
#[must_use]
pub fn verify_searching(n: usize, k: usize, samples: usize, seed: u64) -> VerificationReport {
    if protocol_for(Task::GraphSearching, n, k).is_none() {
        return VerificationReport {
            n,
            k,
            task: "graph-searching".into(),
            verified: false,
            runs: 0,
            details: "no algorithm claimed for these parameters".into(),
        };
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut starts: Vec<Configuration> = Vec::new();
    for _ in 0..samples {
        if let Some(c) = random_rigid_configuration(n, k, &mut rng) {
            starts.push(c);
        }
    }
    if starts.is_empty() {
        starts = enumerate_rigid_configurations(n, k)
            .into_iter()
            .take(samples.max(1))
            .collect();
    }
    let budget = 4_000 * (n as u64) + 40_000;
    let mut runs = 0;
    let mut clearings_total = 0u64;
    let mut ok = true;
    for (i, start) in starts.iter().enumerate() {
        for kind in SchedulerKind::ALL {
            let stats = match scheduler_run_searching(start, kind, seed ^ (i as u64), budget) {
                Ok(s) => s,
                Err(e) => {
                    return VerificationReport {
                        n,
                        k,
                        task: "graph-searching".into(),
                        verified: false,
                        runs,
                        details: format!("simulation error: {e}"),
                    }
                }
            };
            runs += 1;
            clearings_total += stats.clearings;
            if stats.clearings < 3 {
                ok = false;
            }
            if kind == SchedulerKind::RoundRobin && stats.min_exploration_completions < 1 {
                ok = false;
            }
        }
    }
    VerificationReport {
        n,
        k,
        task: "graph-searching".into(),
        verified: ok,
        runs,
        details: format!("{clearings_total} clearings over {runs} runs"),
    }
}

/// Verifies gathering for `(n, k)` from `samples` rigid starting
/// configurations under every scheduler kind.
#[must_use]
pub fn verify_gathering(n: usize, k: usize, samples: usize, seed: u64) -> VerificationReport {
    if protocol_for(Task::Gathering, n, k).is_none() {
        return VerificationReport {
            n,
            k,
            task: "gathering".into(),
            verified: false,
            runs: 0,
            details: "no algorithm claimed for these parameters".into(),
        };
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut starts: Vec<Configuration> = Vec::new();
    for _ in 0..samples {
        if let Some(c) = random_rigid_configuration(n, k, &mut rng) {
            starts.push(c);
        }
    }
    if starts.is_empty() {
        starts = enumerate_rigid_configurations(n, k)
            .into_iter()
            .take(samples.max(1))
            .collect();
    }
    let budget = 6_000 * (n as u64) + 60_000;
    let mut runs = 0;
    let mut moves_total = 0u64;
    let mut ok = !starts.is_empty();
    for (i, start) in starts.iter().enumerate() {
        for kind in SchedulerKind::ALL {
            // The asynchronous adversary interleaves Look and Move steps, so
            // it needs roughly twice the budget for the same progress.
            let kind_budget = if kind == SchedulerKind::Asynchronous {
                budget * 2
            } else {
                budget
            };
            match scheduler_run_gathering(start, kind, seed ^ (i as u64), kind_budget) {
                Ok(stats) => {
                    runs += 1;
                    moves_total += stats.moves;
                    if !stats.gathered || stats.broke_gathering {
                        ok = false;
                    }
                }
                Err(e) => {
                    return VerificationReport {
                        n,
                        k,
                        task: "gathering".into(),
                        verified: false,
                        runs,
                        details: format!("simulation error: {e}"),
                    }
                }
            }
        }
    }
    VerificationReport {
        n,
        k,
        task: "gathering".into(),
        verified: ok,
        runs,
        details: format!(
            "average moves {}",
            if runs > 0 {
                moves_total / runs as u64
            } else {
                0
            }
        ),
    }
}

/// Statistics about Align convergence for experiment E3.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlignStats {
    /// Ring size.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Number of starting configurations measured.
    pub starts: usize,
    /// Minimum number of moves to reach `C*`.
    pub min_moves: u64,
    /// Maximum number of moves to reach `C*`.
    pub max_moves: u64,
    /// Total moves over all starts (for averaging).
    pub total_moves: u64,
    /// Whether every run reached `C*`.
    pub all_converged: bool,
}

/// Measures Align convergence over up to `max_starts` rigid starting
/// configurations: exhaustive over the isomorphism classes for small rings
/// (`n <= 14`), random rigid samples otherwise (exhaustive enumeration is
/// exponential in `n`).
#[must_use]
pub fn measure_align(n: usize, k: usize, max_starts: usize) -> AlignStats {
    let starts: Vec<Configuration> = if n <= 14 {
        enumerate_rigid_configurations(n, k)
            .into_iter()
            .take(max_starts)
            .collect()
    } else {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA11C0 ^ ((n as u64) << 8) ^ k as u64);
        let cap = max_starts.min(256);
        (0..cap)
            .filter_map(|_| random_rigid_configuration(n, k, &mut rng))
            .collect()
    };
    let mut min_moves = u64::MAX;
    let mut max_moves = 0u64;
    let mut total = 0u64;
    let mut all_converged = !starts.is_empty();
    let goal = {
        let mut gaps = vec![0; k.saturating_sub(2)];
        gaps.push(1);
        gaps.push(n - k - 1);
        rr_ring::View::new(gaps)
    };
    for start in &starts {
        let mut sched = RoundRobinScheduler::new();
        match run_to_c_star(start, &mut sched, 1_000_000) {
            Ok((final_config, moves)) => {
                if supermin_view(&final_config) != goal {
                    all_converged = false;
                }
                min_moves = min_moves.min(moves);
                max_moves = max_moves.max(moves);
                total += moves;
            }
            Err(_) => all_converged = false,
        }
    }
    AlignStats {
        n,
        k,
        starts: starts.len(),
        min_moves: if min_moves == u64::MAX { 0 } else { min_moves },
        max_moves,
        total_moves: total,
        all_converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_searching_on_a_solvable_cell() {
        let report = verify_searching(12, 5, 1, 7);
        assert!(report.verified, "{report:?}");
        assert_eq!(report.runs, 3);
    }

    #[test]
    fn verify_searching_rejects_unclaimed_cells() {
        let report = verify_searching(9, 4, 1, 7);
        assert!(!report.verified);
        assert_eq!(report.runs, 0);
    }

    #[test]
    fn verify_gathering_on_a_solvable_cell() {
        let report = verify_gathering(10, 4, 1, 3);
        assert!(report.verified, "{report:?}");
        assert!(report.runs >= 3);
    }

    #[test]
    fn verify_gathering_rejects_unclaimed_cells() {
        let report = verify_gathering(8, 7, 1, 3);
        assert!(!report.verified);
    }

    #[test]
    fn align_statistics_are_consistent() {
        let stats = measure_align(10, 4, 25);
        assert!(stats.all_converged);
        assert!(stats.starts > 0);
        assert!(stats.min_moves <= stats.max_moves);
        assert!(stats.total_moves >= stats.max_moves);
    }
}
