//! # rr-corda — the min-CORDA execution model
//!
//! This crate implements the Look–Compute–Move execution model of
//! Section 2.1 of the paper (the *minimalist CORDA* model):
//!
//! * robots are anonymous, uniform, oblivious and disoriented — a protocol is
//!   a pure function of the robot's local [`Snapshot`] (its two unoriented
//!   interval views plus, when the capability is granted, a local multiplicity
//!   bit);
//! * cycles are asynchronous: a robot may *Look* (take a snapshot and compute
//!   a pending move) and only later *Move*, by which time the configuration
//!   may have changed — the pending move is executed regardless, exactly as in
//!   the CORDA model;
//! * the adversary is modelled by [`scheduler::Scheduler`] implementations:
//!   fully-synchronous, semi-synchronous, sequential round-robin and
//!   randomized asynchronous with pending moves.
//!
//! The [`Engine`] owns the global configuration and robot bookkeeping (ids,
//! pending moves); protocols never see any of it.  Every way of advancing a
//! run goes through the single [`Engine::step`] pipeline, and observation is
//! composed from [`Monitor`] implementations rather than hard-wired per task.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod fault;
pub mod monitor;
pub mod packed;
pub mod protocol;
pub mod robot;
pub mod scheduler;
pub mod snapshot;

pub use engine::{
    debug_step_probe, Engine, EngineOptions, EngineState, MoveRecord, RunOutcome, RunReport,
    StepReport, ViewOrder,
};
pub use error::SimError;
pub use fault::{CorruptionKind, FaultEvent, FaultModel};
pub use monitor::Monitor;
pub use packed::{CanonicalTransform, PackedState, StateSig, MAX_CANONICAL_N, SIG_WORDS};
pub use protocol::{Decision, Protocol, ViewIndex};
pub use robot::{RobotId, RobotSet, RobotState};
pub use scheduler::{
    BoundedUnfairScheduler, InterleavingMode, Scheduler, SchedulerKind, SchedulerStep,
    SchedulerView,
};
pub use snapshot::{MultiplicityCapability, Snapshot};

/// The engine's **semantic** version, stamped into every `rr-sweep/v1`
/// report header and folded into the sweep service's content-addressed
/// cache key.
///
/// This is deliberately *not* the Cargo package version: it is bumped if
/// and only if a change can alter the **observable record stream** of a
/// seeded run — protocol decision tables, scheduler randomness derivation,
/// per-cell seed derivation, or the record serialization itself.  Pure
/// performance work (packed codecs, allocation reuse) keeps the version,
/// because the lockstep harnesses and the pinned preset ledgers prove it
/// byte-identical.  Bumping it invalidates every cached sweep ledger, which
/// is exactly the intended effect.
pub const ENGINE_VERSION: &str = "1.0.0";
