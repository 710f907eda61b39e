//! Composable run observation: the [`Monitor`] trait.
//!
//! A monitor receives hooks from the [`Engine`](crate::engine::Engine)'s
//! single stepping pipeline — one per Look, one per executed move, one per
//! completed scheduler step — and accumulates whatever the caller wants to
//! know about a run (contamination state, exploration coverage, gathering
//! status, statistics).  Monitors never influence the execution; they only
//! observe it, and they are the engine's only observation path.
//!
//! Monitors compose structurally: `()` is the null monitor, `&mut M` and
//! tuples of monitors are monitors, so a driver can bolt several observers
//! onto one run without writing glue.  The task-specific monitors
//! (`Contamination`, `ExplorationTracker`, `GatheringMonitor`, composed as
//! `SearchMonitors`) live in the `rr-search` crate and implement this trait.

use rr_ring::Configuration;

use crate::engine::{MoveRecord, StepReport};
use crate::fault::FaultEvent;
use crate::protocol::Decision;
use crate::robot::RobotId;

/// Observer hooks called by [`Engine::step`](crate::engine::Engine::step).
///
/// All hooks have empty default bodies: implement only what you need.
pub trait Monitor {
    /// Called after a robot completes a *fresh* Look + Compute (not for
    /// pending decisions that are merely re-reported).  `config` is the
    /// configuration the snapshot was taken from.
    fn on_look(&mut self, robot: RobotId, decision: Decision, config: &Configuration) {
        let _ = (robot, decision, config);
    }

    /// Called once per executed move after the enclosing scheduler step has
    /// completed, with the *post-step* configuration (moves within a
    /// semi-synchronous round are simultaneous in the model, so observers
    /// never see a half-completed round).
    fn on_move(&mut self, record: &MoveRecord, after: &Configuration) {
        let _ = (record, after);
    }

    /// Called once per completed scheduler step (an entire SSYNC round, a
    /// single Look, or a single Execute), after all of the step's moves.
    fn on_step(&mut self, report: &StepReport, config: &Configuration) {
        let _ = (report, config);
    }

    /// Called when an armed [`FaultModel`](crate::fault::FaultModel) takes
    /// observable effect: once per corrupted Look, immediately before the
    /// corrupted decision's `on_look`.  `config` is the configuration at the
    /// moment the fault fired.  Never called while `FaultModel::None` is
    /// armed.
    fn on_fault(&mut self, event: &FaultEvent, config: &Configuration) {
        let _ = (event, config);
    }
}

/// The null monitor: observes nothing.
impl Monitor for () {}

impl<M: Monitor + ?Sized> Monitor for &mut M {
    fn on_look(&mut self, robot: RobotId, decision: Decision, config: &Configuration) {
        (**self).on_look(robot, decision, config);
    }

    fn on_move(&mut self, record: &MoveRecord, after: &Configuration) {
        (**self).on_move(record, after);
    }

    fn on_step(&mut self, report: &StepReport, config: &Configuration) {
        (**self).on_step(report, config);
    }

    fn on_fault(&mut self, event: &FaultEvent, config: &Configuration) {
        (**self).on_fault(event, config);
    }
}

macro_rules! tuple_monitors {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Monitor),+> Monitor for ($($name,)+) {
            fn on_look(&mut self, robot: RobotId, decision: Decision, config: &Configuration) {
                $(self.$idx.on_look(robot, decision, config);)+
            }

            fn on_move(&mut self, record: &MoveRecord, after: &Configuration) {
                $(self.$idx.on_move(record, after);)+
            }

            fn on_step(&mut self, report: &StepReport, config: &Configuration) {
                $(self.$idx.on_step(report, config);)+
            }

            fn on_fault(&mut self, event: &FaultEvent, config: &Configuration) {
                $(self.$idx.on_fault(event, config);)+
            }
        }
    )*};
}

tuple_monitors! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        looks: usize,
        moves: usize,
        steps: usize,
    }

    impl Monitor for Counter {
        fn on_look(&mut self, _r: RobotId, _d: Decision, _c: &Configuration) {
            self.looks += 1;
        }

        fn on_move(&mut self, _rec: &MoveRecord, _c: &Configuration) {
            self.moves += 1;
        }

        fn on_step(&mut self, _rep: &StepReport, _c: &Configuration) {
            self.steps += 1;
        }
    }

    #[test]
    fn tuples_fan_out_to_both_members() {
        let config = Configuration::from_gaps_at_origin(&[1, 2]);
        let record = MoveRecord {
            robot: 0,
            from: 0,
            to: 1,
            step: 1,
        };
        let report = StepReport::default();
        let mut pair = (Counter::default(), Counter::default());
        pair.on_look(0, Decision::Idle, &config);
        pair.on_move(&record, &config);
        pair.on_step(&report, &config);
        assert_eq!((pair.0.looks, pair.0.moves, pair.0.steps), (1, 1, 1));
        assert_eq!((pair.1.looks, pair.1.moves, pair.1.steps), (1, 1, 1));
    }
}
