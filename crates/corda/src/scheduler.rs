//! Schedulers: the adversary of the CORDA model.
//!
//! A scheduler decides, at every step, which robots are activated and whether
//! they perform a complete Look–Compute–Move cycle or only part of it.  The
//! paper's correctness proofs hold against the fully asynchronous adversary;
//! its impossibility proofs construct specific adversarial schedules.  This
//! module provides:
//!
//! * [`FullySynchronousScheduler`] — every robot performs a complete cycle in
//!   every round (FSYNC);
//! * [`SemiSynchronousScheduler`] — a random non-empty subset performs a
//!   complete cycle in every round (SSYNC);
//! * [`RoundRobinScheduler`] — a centralized/sequential scheduler activating
//!   one robot at a time in cyclic order;
//! * [`AsynchronousScheduler`] — interleaves Look and Move operations of
//!   different robots at random, creating *pending moves* computed on outdated
//!   snapshots (ASYNC, the model of the paper).
//!
//! All randomized schedulers are fair with probability one; for bounded runs
//! the fairness window can be bounded explicitly with
//! [`AsynchronousScheduler::with_fairness_window`].

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::robot::{RobotId, RobotSet};

/// Scheduler-facing summary of the simulator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerView {
    /// Global step counter.
    pub step: u64,
    /// The robots with a pending action (move or idle).
    pub pending: RobotSet,
    /// Number of robots.
    pub num_robots: usize,
}

/// One scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerStep {
    /// The robots in the set all Look + Compute on the current configuration
    /// and then all execute their action, both in ascending id order (a
    /// semi-synchronous round; with a single robot this is an atomic
    /// Look–Compute–Move cycle).
    SsyncRound(RobotSet),
    /// The robot performs only its Look + Compute phases.
    Look(RobotId),
    /// The robot executes its pending action (if any).
    Execute(RobotId),
}

impl SchedulerStep {
    /// The robots the step activates, in any phase — the edge label the
    /// model checker's fairness analysis is built on.  A `Look` or
    /// `Execute` of an id at or above [`RobotSet::CAPACITY`] activates no
    /// robot: no engine has one (stepping it is a
    /// [`SimError::UnknownRobot`](crate::error::SimError::UnknownRobot)).
    #[must_use]
    pub fn activated(&self) -> RobotSet {
        match *self {
            SchedulerStep::SsyncRound(robots) => robots,
            SchedulerStep::Look(r) | SchedulerStep::Execute(r) if r < RobotSet::CAPACITY => {
                RobotSet::single(r)
            }
            SchedulerStep::Look(_) | SchedulerStep::Execute(_) => RobotSet::EMPTY,
        }
    }
}

/// The adversary: decides which robots do what, when.
pub trait Scheduler {
    /// Produces the next scheduling decision.
    fn next(&mut self, view: &SchedulerView) -> SchedulerStep;

    /// Human-readable name, used in experiment output.
    fn name(&self) -> &str {
        "scheduler"
    }
}

/// FSYNC: every robot performs a complete cycle in every round.
#[derive(Debug, Default, Clone, Copy)]
pub struct FullySynchronousScheduler;

impl Scheduler for FullySynchronousScheduler {
    fn next(&mut self, view: &SchedulerView) -> SchedulerStep {
        SchedulerStep::SsyncRound(RobotSet::first(view.num_robots))
    }

    fn name(&self) -> &str {
        "fsync"
    }
}

/// SSYNC: a uniformly random non-empty subset of robots performs a complete
/// cycle in every round.
#[derive(Debug, Clone)]
pub struct SemiSynchronousScheduler {
    rng: ChaCha8Rng,
}

impl SemiSynchronousScheduler {
    /// Creates the scheduler from a seed (deterministic given the seed).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        SemiSynchronousScheduler {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for SemiSynchronousScheduler {
    fn next(&mut self, view: &SchedulerView) -> SchedulerStep {
        let k = view.num_robots;
        loop {
            let subset: RobotSet = (0..k).filter(|_| self.rng.gen_bool(0.5)).collect();
            if !subset.is_empty() {
                return SchedulerStep::SsyncRound(subset);
            }
        }
    }

    fn name(&self) -> &str {
        "ssync"
    }
}

/// A centralized sequential scheduler: robots are activated one at a time in
/// cyclic id order, each performing a complete Look–Compute–Move cycle.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundRobinScheduler {
    next: usize,
}

impl RoundRobinScheduler {
    /// Creates the scheduler starting from robot 0.
    #[must_use]
    pub fn new() -> Self {
        RoundRobinScheduler { next: 0 }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn next(&mut self, view: &SchedulerView) -> SchedulerStep {
        let r = self.next % view.num_robots.max(1);
        self.next = (r + 1) % view.num_robots.max(1);
        SchedulerStep::SsyncRound(RobotSet::single(r))
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// ASYNC: Look and Move operations of different robots are interleaved at
/// random, so moves routinely execute on snapshots that are out of date.
///
/// Fairness: the scheduler guarantees that no pending move stays unexecuted
/// for more than `fairness_window` scheduler steps, and that every robot is
/// given a Look at least once every `fairness_window * k` steps.
#[derive(Debug, Clone)]
pub struct AsynchronousScheduler {
    rng: ChaCha8Rng,
    fairness_window: u64,
    /// Step at which each robot last completed (or was created), used to
    /// enforce the fairness window.
    ages: Vec<u64>,
}

impl AsynchronousScheduler {
    /// Creates the scheduler from a seed (deterministic given the seed).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        AsynchronousScheduler {
            rng: ChaCha8Rng::seed_from_u64(seed),
            fairness_window: 64,
            ages: Vec::new(),
        }
    }

    /// Sets the fairness window (maximum delay, in scheduler steps, before a
    /// pending action is forcibly executed).
    #[must_use]
    pub fn with_fairness_window(mut self, window: u64) -> Self {
        self.fairness_window = window.max(1);
        self
    }
}

impl Scheduler for AsynchronousScheduler {
    fn next(&mut self, view: &SchedulerView) -> SchedulerStep {
        let k = view.num_robots;
        if self.ages.len() != k {
            self.ages = vec![view.step; k];
        }
        // Forcibly flush actions that have been pending too long, then wake
        // robots that have been silent too long, most overdue first.
        let (pending, silent) = most_overdue(view, &self.ages, self.fairness_window, |_| false);
        if let Some(r) = pending {
            self.ages[r] = view.step;
            return SchedulerStep::Execute(r);
        }
        if let Some(r) = silent {
            self.ages[r] = view.step;
            return SchedulerStep::Look(r);
        }
        // Otherwise pick a random robot and advance whatever phase it is in.
        let r = self.rng.gen_range(0..k);
        self.ages[r] = view.step;
        if view.pending.contains(r) {
            SchedulerStep::Execute(r)
        } else {
            SchedulerStep::Look(r)
        }
    }

    fn name(&self) -> &str {
        "async"
    }
}

/// The robots the forced-fairness branches of the asynchronous schedulers
/// serve, found in one pass: the most overdue *pending* robot (its action
/// has waited at least `window` steps) and the most overdue *silent* robot
/// (no pending action for at least `window * k` steps).  Within each
/// branch the oldest age wins and the lowest id breaks exact ties; robots
/// `skip` rejects take part in neither.
///
/// Serving the *most* overdue robot matters: picking the first overdue id
/// would let small ids win every tie and starve the largest id outright
/// once the window is tight enough for the forced branches to dominate the
/// random one.
fn most_overdue(
    view: &SchedulerView,
    ages: &[u64],
    window: u64,
    skip: impl Fn(RobotId) -> bool,
) -> (Option<RobotId>, Option<RobotId>) {
    let silent_window = window * ages.len() as u64;
    let (mut pending, mut silent) = (None, None);
    for (r, &age) in ages.iter().enumerate() {
        if skip(r) {
            continue;
        }
        let (best, limit): (&mut Option<RobotId>, u64) = if view.pending.contains(r) {
            (&mut pending, window)
        } else {
            (&mut silent, silent_window)
        };
        if view.step.saturating_sub(age) >= limit && best.is_none_or(|b| age < ages[b]) {
            *best = Some(r);
        }
    }
    (pending, silent)
}

/// The bounded-unfair fault adversary: behaves like
/// [`AsynchronousScheduler`], except one *victim* robot is
/// withheld for the first `budget` scheduler steps (`u64::MAX`: forever).
///
/// While the budget lasts, the victim is excluded from the forced-fairness
/// branches *and* from the random pick — its fairness window is effectively
/// stretched by the budget, exactly the "starve one robot up to B rounds"
/// adversary.  Once the budget is exhausted the scheduler is the standard
/// fair asynchronous scheduler again, and since the victim is by then the
/// most overdue robot, the forced branches serve it promptly: the victim's
/// activation gap is bounded by `budget + window·k + O(k)` for finite
/// budgets.  With `budget == 1`, the single withheld step is absorbed by the
/// ordinary fairness slack, so the PR-3 starvation bounds still hold
/// (pinned by `crates/corda/tests/fairness_window.rs`).
///
/// Degenerate cases: with a single robot, or a victim id out of range, there
/// is nobody to starve and the scheduler is simply fair.
#[derive(Debug, Clone)]
pub struct BoundedUnfairScheduler {
    rng: ChaCha8Rng,
    fairness_window: u64,
    ages: Vec<u64>,
    victim: RobotId,
    budget: u64,
    issued: u64,
}

impl BoundedUnfairScheduler {
    /// Creates the scheduler from a seed (deterministic given the seed),
    /// withholding `victim` for the first `budget` scheduler steps.
    #[must_use]
    pub fn seeded(seed: u64, victim: RobotId, budget: u64) -> Self {
        BoundedUnfairScheduler {
            rng: ChaCha8Rng::seed_from_u64(seed),
            fairness_window: 64,
            ages: Vec::new(),
            victim,
            budget,
            issued: 0,
        }
    }

    /// Sets the fairness window applied to the non-starved robots (and to
    /// everybody once the budget is exhausted).
    #[must_use]
    pub fn with_fairness_window(mut self, window: u64) -> Self {
        self.fairness_window = window.max(1);
        self
    }

    /// The starved robot.
    #[must_use]
    pub fn victim(&self) -> RobotId {
        self.victim
    }

    /// Whether the victim is still being withheld.
    #[must_use]
    pub fn starving(&self) -> bool {
        self.issued < self.budget
    }
}

impl Scheduler for BoundedUnfairScheduler {
    fn next(&mut self, view: &SchedulerView) -> SchedulerStep {
        let k = view.num_robots;
        if self.ages.len() != k {
            self.ages = vec![view.step; k];
        }
        let starve = self.issued < self.budget && self.victim < k && k > 1;
        self.issued = self.issued.saturating_add(1);
        let victim = self.victim;
        let skip = |r: usize| starve && r == victim;
        // Forced branches mirror AsynchronousScheduler, minus the victim.
        let (pending, silent) = most_overdue(view, &self.ages, self.fairness_window, skip);
        if let Some(r) = pending {
            self.ages[r] = view.step;
            return SchedulerStep::Execute(r);
        }
        if let Some(r) = silent {
            self.ages[r] = view.step;
            return SchedulerStep::Look(r);
        }
        // Random pick over the eligible robots (one draw, no rejection loop,
        // so the schedule is a deterministic function of the seed).
        let r = if starve {
            let idx = self.rng.gen_range(0..k - 1);
            if idx >= victim {
                idx + 1
            } else {
                idx
            }
        } else {
            self.rng.gen_range(0..k)
        };
        self.ages[r] = view.step;
        if view.pending.contains(r) {
            SchedulerStep::Execute(r)
        } else {
            SchedulerStep::Look(r)
        }
    }

    fn name(&self) -> &str {
        "unfair"
    }
}

/// Which space of adversarial interleavings the exhaustive checker
/// (`rr_checker::explore`) branches over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterleavingMode {
    /// Semi-synchronous rounds: every non-empty subset of robots performs a
    /// complete Look–Compute–Move cycle simultaneously.
    SsyncSubsets,
    /// Asynchronous phase interleavings: at every step the adversary advances
    /// exactly one robot by one phase (a fresh Look, or the Execute of its
    /// pending action).  Sequential Looks on an unchanged configuration are
    /// indistinguishable from simultaneous ones, so this frontier generates
    /// every CORDA interleaving of Look and Move operations — including all
    /// pending-move executions on outdated snapshots.
    AsyncPhases,
}

impl InterleavingMode {
    /// Stable lower-case name, used in experiment records and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InterleavingMode::SsyncSubsets => "ssync",
            InterleavingMode::AsyncPhases => "async",
        }
    }
}

impl std::fmt::Display for InterleavingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The scheduler families used by verification and sweep runs, as data.
///
/// This is the declarative counterpart of the concrete scheduler types above:
/// batch runners and experiment grids carry a `SchedulerKind` (+ seed) in
/// their job descriptions and construct the scheduler at run time with
/// [`SchedulerKind::with`].  Lives here (not in `rr-checker`) so that every
/// layer — driver, checker, bench — can share the one vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Sequential round-robin (one robot per step).
    RoundRobin,
    /// Random semi-synchronous (random non-empty subset per round).
    SemiSynchronous,
    /// Random asynchronous with pending moves.
    Asynchronous,
    /// Deterministic fully synchronous (every robot, every round).  Not part
    /// of [`SchedulerKind::ALL`]: the verification grids adversarially
    /// subsume it.  E12's throughput column and the E9b ablation run it
    /// explicitly.
    FullySynchronous,
}

impl SchedulerKind {
    /// The adversarial scheduler kinds the verification sweeps run under.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::RoundRobin,
        SchedulerKind::SemiSynchronous,
        SchedulerKind::Asynchronous,
    ];

    /// Stable lower-case name, used in experiment records and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::SemiSynchronous => "ssync",
            SchedulerKind::Asynchronous => "async",
            SchedulerKind::FullySynchronous => "fsync",
        }
    }

    /// Builds the scheduler this kind describes (seeded where randomized) and
    /// hands it to `f`.
    pub fn with<R>(self, seed: u64, f: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        match self {
            SchedulerKind::RoundRobin => f(&mut RoundRobinScheduler::new()),
            SchedulerKind::SemiSynchronous => f(&mut SemiSynchronousScheduler::seeded(seed)),
            SchedulerKind::Asynchronous => f(&mut AsynchronousScheduler::seeded(seed)),
            SchedulerKind::FullySynchronous => f(&mut FullySynchronousScheduler),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(k: usize, pending: &[RobotId]) -> SchedulerView {
        SchedulerView {
            step: 0,
            pending: pending.iter().copied().collect(),
            num_robots: k,
        }
    }

    #[test]
    fn fsync_activates_everyone() {
        let mut s = FullySynchronousScheduler;
        let step = s.next(&view(4, &[]));
        assert_eq!(step, SchedulerStep::SsyncRound(RobotSet::from_bits(0b1111)));
        assert_eq!(s.name(), "fsync");
    }

    #[test]
    fn ssync_subsets_are_nonempty_and_vary() {
        let mut s = SemiSynchronousScheduler::seeded(3);
        let mut sizes = std::collections::HashSet::new();
        for _ in 0..50 {
            match s.next(&view(5, &[])) {
                SchedulerStep::SsyncRound(set) => {
                    assert!(!set.is_empty());
                    assert!(set.len() <= 5);
                    sizes.insert(set.len());
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
        assert!(sizes.len() > 1, "subsets should vary in size");
    }

    #[test]
    fn round_robin_cycles_through_robots() {
        let mut s = RoundRobinScheduler::new();
        let ids: Vec<_> = (0..6)
            .map(|_| match s.next(&view(3, &[])) {
                SchedulerStep::SsyncRound(set) if set.len() == 1 => set.iter().next().unwrap(),
                other => panic!("unexpected step {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn async_scheduler_executes_pending_and_looks_otherwise() {
        let mut s = AsynchronousScheduler::seeded(9);
        for _ in 0..100 {
            match s.next(&view(4, &[1, 3])) {
                SchedulerStep::Execute(r) => assert!(r == 1 || r == 3),
                SchedulerStep::Look(r) => assert!(r == 0 || r == 2),
                other => panic!("unexpected step {other:?}"),
            }
        }
    }

    #[test]
    fn async_scheduler_flushes_old_pending_moves() {
        let mut s = AsynchronousScheduler::seeded(1).with_fairness_window(4);
        // Robot 2 has been pending since step 0; by step >= 4 it must be flushed.
        let v = SchedulerView {
            step: 100,
            ..view(3, &[2])
        };
        // First call initializes ages at step 100; simulate later call.
        let _ = s.next(&v);
        let v2 = SchedulerView { step: 200, ..v };
        let step = s.next(&v2);
        assert_eq!(step, SchedulerStep::Execute(2));
    }

    #[test]
    fn bounded_unfair_withholds_the_victim_then_recovers() {
        // Infinite budget: the victim is never activated.
        let mut s = BoundedUnfairScheduler::seeded(7, 1, u64::MAX);
        for step in 0..500 {
            let v = SchedulerView {
                step,
                ..view(3, &[1])
            };
            match s.next(&v) {
                SchedulerStep::Look(r) | SchedulerStep::Execute(r) => {
                    assert_ne!(r, 1, "victim activated at step {step}");
                }
                other => panic!("unexpected step {other:?}"),
            }
            assert!(s.starving());
        }
        // Finite budget: once exhausted, the overdue victim is served by the
        // forced branches within the ordinary fairness slack.
        let mut s = BoundedUnfairScheduler::seeded(7, 1, 10).with_fairness_window(4);
        let mut first_victim_activation = None;
        for step in 0..200 {
            let v = SchedulerView {
                step,
                ..view(3, &[1])
            };
            match s.next(&v) {
                SchedulerStep::Look(r) | SchedulerStep::Execute(r) => {
                    if r == 1 && first_victim_activation.is_none() {
                        first_victim_activation = Some(step);
                    }
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
        let first = first_victim_activation.expect("victim served after budget");
        assert!(first >= 10, "victim activated during its budget: {first}");
        assert!(first <= 10 + 4 * 3 + 6, "victim served late: {first}");
        assert!(!s.starving());
        assert_eq!(s.victim(), 1);
        assert_eq!(s.name(), "unfair");
    }

    #[test]
    fn bounded_unfair_with_one_robot_cannot_starve() {
        let mut s = BoundedUnfairScheduler::seeded(3, 0, u64::MAX);
        match s.next(&view(1, &[])) {
            SchedulerStep::Look(0) => {}
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn interleaving_mode_names() {
        assert_eq!(InterleavingMode::SsyncSubsets.name(), "ssync");
        assert_eq!(InterleavingMode::AsyncPhases.to_string(), "async");
    }
}
