//! Edge-case tests for `AsynchronousScheduler::with_fairness_window`.
//!
//! * `window = 1` — every pending action is flushed on the very next step, so
//!   the asynchronous adversary degenerates to a centralized sequential
//!   scheduler: atomic Look–Execute cycles, never a stale snapshot;
//! * bounded windows — no robot is ever starved: the gap between consecutive
//!   activations of a robot is bounded by the documented
//!   `fairness_window * k` (plus the slack of serving one forced action per
//!   step), even for huge windows where the bound, not the randomness, is
//!   the only guarantee;
//! * bounded-unfair edges — the `BoundedUnfairScheduler` fault adversary at
//!   `B = 1` degenerates to the fair bounds above (the single withheld step
//!   is absorbed by the ordinary slack), while `B = ∞` starves its victim
//!   forever without compromising fairness among the survivors.

use rr_corda::protocol::GreedyGapWalker;
use rr_corda::scheduler::AsynchronousScheduler;
use rr_corda::{
    BoundedUnfairScheduler, Engine, EngineOptions, RobotSet, Scheduler, SchedulerStep,
    SchedulerView,
};
use rr_ring::Configuration;

/// Drives `scheduler` against a synthetic pending-flag state machine that
/// mirrors the engine's bookkeeping (one step-counter tick per Look and per
/// Execute), returning the emitted steps.
fn drive_synthetic<S: Scheduler>(scheduler: &mut S, k: usize, ops: usize) -> Vec<SchedulerStep> {
    let mut pending = RobotSet::EMPTY;
    let mut out = Vec::with_capacity(ops);
    for step in 0..ops as u64 {
        let view = SchedulerView {
            step,
            pending,
            num_robots: k,
        };
        let s = scheduler.next(&view);
        match s {
            SchedulerStep::Look(r) => {
                assert!(
                    !pending.contains(r),
                    "scheduler asked a pending robot to look"
                );
                pending.insert(r);
            }
            SchedulerStep::Execute(r) => {
                assert!(
                    pending.contains(r),
                    "scheduler executed a robot with nothing pending"
                );
                pending = pending.without(r);
            }
            SchedulerStep::SsyncRound(_) => panic!("the async scheduler never emits rounds"),
        }
        out.push(s);
    }
    out
}

#[test]
fn window_one_forces_atomic_sequential_cycles() {
    // With fairness window 1 a Look is always followed immediately by the
    // same robot's Execute: the adversary cannot interleave, i.e. cannot
    // create a single stale snapshot — ASYNC collapses to a centralized
    // sequential (round-robin-like) scheduler.
    for seed in [0u64, 1, 42] {
        let mut s = AsynchronousScheduler::seeded(seed).with_fairness_window(1);
        let steps = drive_synthetic(&mut s, 4, 2_000);
        for pair in steps.windows(2) {
            if let SchedulerStep::Look(r) = pair[0] {
                assert_eq!(
                    pair[1],
                    SchedulerStep::Execute(r),
                    "seed {seed}: a look must be flushed on the next step"
                );
            }
        }
        // With atomic 2-step cycles and a look deadline of `window * k = 4`
        // steps, some robot is always overdue after warm-up, so the forced
        // oldest-first branch dominates: the tail of the run is a strict
        // round-robin — every 4 consecutive Looks touch all 4 robots.
        let looks: Vec<usize> = steps
            .iter()
            .filter_map(|s| match s {
                SchedulerStep::Look(r) => Some(*r),
                _ => None,
            })
            .collect();
        let tail = &looks[looks.len() - 400..];
        for w in tail.windows(4) {
            let distinct: std::collections::HashSet<&usize> = w.iter().collect();
            assert_eq!(
                distinct.len(),
                4,
                "seed {seed}: window {w:?} is not round-robin"
            );
        }
    }
}

/// Max gap (in scheduler steps) between consecutive activations of any robot.
fn max_activation_gap(steps: &[SchedulerStep], k: usize) -> u64 {
    let mut last = vec![0u64; k];
    let mut max_gap = 0u64;
    for (i, s) in steps.iter().enumerate() {
        let i = i as u64 + 1;
        let r = match s {
            SchedulerStep::Look(r) | SchedulerStep::Execute(r) => *r,
            SchedulerStep::SsyncRound(_) => unreachable!(),
        };
        max_gap = max_gap.max(i - last[r]);
        last[r] = i;
    }
    let total = steps.len() as u64;
    for &seen in &last {
        max_gap = max_gap.max(total - seen);
    }
    max_gap
}

#[test]
fn bounded_window_never_starves_a_robot() {
    // The scheduler promises a Look at least once every `window * k` steps
    // and a flush within `window`; with at most one forced action served per
    // step, `2k` extra steps of queueing slack cover simultaneous deadlines.
    let k = 4usize;
    for (seed, window) in [(7u64, 7u64), (9, 16), (3, 64)] {
        let mut s = AsynchronousScheduler::seeded(seed).with_fairness_window(window);
        let steps = drive_synthetic(&mut s, k, 20_000);
        let bound = window * k as u64 + 2 * k as u64;
        let gap = max_activation_gap(&steps, k);
        assert!(
            gap <= bound,
            "seed {seed} window {window}: observed gap {gap} > bound {bound}"
        );
    }
}

#[test]
fn huge_window_is_still_fair_by_the_bound() {
    // A "huge" window (far larger than the run) means forced wake-ups almost
    // never fire — fairness then rests on the `window * k` bound alone, and
    // the bound must still hold.
    let k = 3usize;
    let window = 1_000u64;
    let mut s = AsynchronousScheduler::seeded(11).with_fairness_window(window);
    let steps = drive_synthetic(&mut s, k, 30_000);
    let gap = max_activation_gap(&steps, k);
    assert!(gap <= window * k as u64 + 2 * k as u64, "gap {gap}");
    // Every robot is activated many times over the run.
    for r in 0..k {
        let count = steps
            .iter()
            .filter(|s| matches!(s, SchedulerStep::Look(x) | SchedulerStep::Execute(x) if *x == r))
            .count();
        assert!(count > 100, "robot {r} activated only {count} times");
    }
}

#[test]
fn budget_one_unfair_degenerates_to_the_fair_bounds() {
    // Satellite pin: `B = 1` withholds the victim for a single scheduler
    // step, which the ordinary fairness slack absorbs — the starvation
    // bounds of the fair asynchronous scheduler (pinned above against the
    // PR-3 tests) hold unchanged, victim included.
    let k = 4usize;
    for (seed, window) in [(7u64, 7u64), (9, 16), (3, 64)] {
        for victim in 0..k {
            let mut s =
                BoundedUnfairScheduler::seeded(seed, victim, 1).with_fairness_window(window);
            let steps = drive_synthetic(&mut s, k, 20_000);
            let bound = window * k as u64 + 2 * k as u64;
            let gap = max_activation_gap(&steps, k);
            assert!(
                gap <= bound,
                "seed {seed} window {window} victim {victim}: gap {gap} > fair bound {bound}"
            );
            assert!(!s.starving(), "a B=1 budget must be spent immediately");
        }
    }
}

#[test]
fn infinite_budget_starves_the_victim_and_nobody_else() {
    // `B = ∞`: the victim is never activated — the engine-side half of the
    // starvation story (the checker half, `starving_one_robot_yields_an_
    // unfair_lasso_that_replays`, shows gathering liveness then fails with a
    // fair-modulo-starvation lasso).  The survivors keep their fair bound
    // with the victim's share of the schedule redistributed.
    let k = 4usize;
    let victim = 2usize;
    let window = 16u64;
    let mut s = BoundedUnfairScheduler::seeded(9, victim, u64::MAX).with_fairness_window(window);
    let steps = drive_synthetic(&mut s, k, 20_000);
    assert!(s.starving(), "an infinite budget never runs out");
    let mut last = vec![0u64; k];
    for (i, step) in steps.iter().enumerate() {
        let r = match step {
            SchedulerStep::Look(r) | SchedulerStep::Execute(r) => *r,
            SchedulerStep::SsyncRound(_) => unreachable!(),
        };
        assert_ne!(r, victim, "starved victim activated at step {i}");
        last[r] = i as u64 + 1;
    }
    // Every survivor is served within the fair bound right up to the end.
    let bound = window * k as u64 + 2 * k as u64;
    for (r, &seen) in last.iter().enumerate() {
        if r != victim {
            assert!(
                steps.len() as u64 - seen <= bound,
                "survivor {r} starved at the tail"
            );
        }
    }
}

#[test]
fn fairness_bound_holds_against_a_real_engine() {
    // Same bound, measured through the engine instead of the synthetic state
    // machine: every robot keeps completing Look–Compute–Move cycles.
    let config = Configuration::from_gaps_at_origin(&[0, 2, 1, 0, 4]); // n=12, k=5
    let k = config.num_robots();
    let options = EngineOptions {
        enforce_exclusivity: false,
        ..EngineOptions::for_protocol(&GreedyGapWalker)
    };
    let mut engine = Engine::new(GreedyGapWalker, config, options).unwrap();
    let window = 8u64;
    let mut scheduler = AsynchronousScheduler::seeded(5).with_fairness_window(window);
    let mut last_activated = vec![0u64; k];
    let bound = window * k as u64 + 2 * k as u64;
    for i in 1..=30_000u64 {
        let step = scheduler.next(&engine.scheduler_view());
        let r = match &step {
            SchedulerStep::Look(r) | SchedulerStep::Execute(r) => *r,
            SchedulerStep::SsyncRound(_) => unreachable!(),
        };
        assert!(
            i - last_activated[r] <= bound,
            "robot {r} starved for {} scheduler steps",
            i - last_activated[r]
        );
        last_activated[r] = i;
        engine.step(&step, &mut ()).unwrap();
    }
    for (r, robot) in engine.robots().iter().enumerate() {
        assert!(robot.cycles > 100, "robot {r}: {} cycles", robot.cycles);
    }
}
