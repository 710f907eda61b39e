//! Fault injection: transient sensor corruption, armed on an engine.
//!
//! The paper's correctness claims are proved under *clean* adversaries: every
//! robot eventually acts, and every Look observes the true configuration.
//! The engine arms one fault as a deterministic [`FaultModel`]
//! ([`Engine::arm_fault`](crate::engine::Engine::arm_fault)): **transient
//! sensor corruption** ([`FaultModel::CorruptLook`]) — exactly one fresh
//! Look (identified by its global look ordinal) observes a snapshot with one
//! bounded perturbation, a phantom or a missing multiplicity flag
//! ([`CorruptionKind`], applied by
//! [`Snapshot::corrupt`](crate::snapshot::Snapshot::corrupt)).
//!
//! The other fault adversaries live where they act.  Crash-stop robots are
//! modelled by the exhaustive checker (`rr_checker::explore`), which
//! branches over which robot crashes and when, drops crashed robots from its
//! frontier, and arms one-shot corrupted Looks per edge.  Bounded-unfair
//! scheduling is a scheduler
//! ([`BoundedUnfairScheduler`](crate::scheduler::BoundedUnfairScheduler)):
//! the engine executes whatever it is handed.
//!
//! [`FaultModel::None`] is the contract that makes faults safe to thread
//! through the hot paths: an engine with no fault armed is **byte-identical**
//! to the pre-fault engine — same reports, same monitor hooks, same
//! counters, same `rr-sweep/v1` record bytes (pinned by
//! `crates/corda/tests/fault_lockstep.rs` and the bench golden files, which
//! is why arming `None` does not bump [`crate::ENGINE_VERSION`]).

use serde::{Deserialize, Serialize};

use crate::robot::RobotId;

/// The bounded perturbation a corrupted Look applies to its snapshot.
///
/// Both perturbations touch only the multiplicity channel — the gap views
/// stay truthful, so the corruption is *bounded* in the sense of the fault
/// model: a single sensor bit lies, once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// The robot's own node is reported as a multiplicity even if it is not
    /// (and, under global detection, the own-node flag is raised too).
    PhantomMultiplicity,
    /// A real multiplicity on the robot's own node is hidden.
    MissingMultiplicity,
}

impl CorruptionKind {
    /// Both corruption kinds, in the deterministic order the model checker
    /// branches over them.
    pub const ALL: [CorruptionKind; 2] = [
        CorruptionKind::PhantomMultiplicity,
        CorruptionKind::MissingMultiplicity,
    ];

    /// Stable lower-case name, used in experiment records and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CorruptionKind::PhantomMultiplicity => "phantom",
            CorruptionKind::MissingMultiplicity => "missing",
        }
    }
}

/// A deterministic fault schedule, armed on an engine.
///
/// The model is deliberately a *schedule*, not a probability: given the same
/// `FaultModel`, the same initial configuration and the same scheduler steps,
/// the faulted run is bit-for-bit reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FaultModel {
    /// No fault.  The engine's behaviour — reports, monitor hooks, counters,
    /// record bytes — is identical to an engine that never heard of faults.
    #[default]
    None,
    /// Transient sensor corruption: the fresh Look whose global look ordinal
    /// (the engine's [`look_count`](crate::engine::Engine::look_count) at the
    /// moment of the Look) equals `look` observes a snapshot perturbed by
    /// `kind`.  All other Looks are truthful.
    CorruptLook {
        /// Global look ordinal of the corrupted Look (0-based).
        look: u64,
        /// The perturbation applied.
        kind: CorruptionKind,
    },
}

impl FaultModel {
    /// Whether this is [`FaultModel::None`].
    #[must_use]
    pub fn is_none(self) -> bool {
        matches!(self, FaultModel::None)
    }

    /// The corruption to apply to the fresh Look with global ordinal
    /// `look_ordinal`, if any.
    #[must_use]
    pub fn corruption_at(self, look_ordinal: u64) -> Option<CorruptionKind> {
        match self {
            FaultModel::CorruptLook { look, kind } if look == look_ordinal => Some(kind),
            _ => None,
        }
    }
}

/// One observable fault occurrence, delivered to
/// [`Monitor::on_fault`](crate::monitor::Monitor::on_fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A fresh Look observed a corrupted snapshot.
    CorruptedLook {
        /// The robot whose Look was corrupted.
        robot: RobotId,
        /// Global step counter after the corrupted Look.
        step: u64,
        /// The perturbation applied.
        kind: CorruptionKind,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_the_default_and_unarmed() {
        assert_eq!(FaultModel::default(), FaultModel::None);
        assert!(FaultModel::None.is_none());
        assert_eq!(FaultModel::None.corruption_at(0), None);
    }

    #[test]
    fn corruption_fires_at_exactly_one_look() {
        let f = FaultModel::CorruptLook {
            look: 7,
            kind: CorruptionKind::PhantomMultiplicity,
        };
        assert!(!f.is_none());
        assert_eq!(f.corruption_at(6), None);
        assert_eq!(
            f.corruption_at(7),
            Some(CorruptionKind::PhantomMultiplicity)
        );
        assert_eq!(f.corruption_at(8), None);
    }

    #[test]
    fn corruption_kind_names() {
        assert_eq!(CorruptionKind::PhantomMultiplicity.name(), "phantom");
        assert_eq!(CorruptionKind::MissingMultiplicity.name(), "missing");
    }
}
