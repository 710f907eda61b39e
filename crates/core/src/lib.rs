//! # rr-core — the paper's algorithms
//!
//! This crate implements the algorithms of
//! *"A unified approach for different tasks on rings in robot-based computing
//! systems"* (D'Angelo, Di Stefano, Navarra, Nisse, Suchan) as
//! [`rr_corda::Protocol`]s:
//!
//! * [`align`] — Algorithm **Align** (Section 3): starting from any rigid
//!   exclusive configuration, reach the special configuration `C*` by
//!   repeatedly reducing the supermin configuration view with the four
//!   reduction rules;
//! * [`clearing`] — Algorithm **Ring Clearing** (Section 4.3): perpetual
//!   exclusive graph searching *and* perpetual exclusive exploration for
//!   `5 ≤ k < n-3`, `n ≥ 10` (except `k = 5, n = 10`), by cycling through the
//!   configuration classes A-a … A-f after a first Align phase;
//! * [`nminus_three`] — Algorithm **NminusThree** (Section 4.4): perpetual
//!   exclusive graph searching and exploration with `k = n - 3` robots;
//! * [`gathering`] — Algorithm **Gathering** (Section 5): gathering with local
//!   multiplicity detection for `2 < k < n - 2`, by contracting `C*`-type
//!   configurations;
//! * [`unified`] — the unified dispatcher mapping a task and parameters to the
//!   protocol that solves it;
//! * [`driver`] — the generic engine loop ([`driver::drive`]) and the task
//!   driver ([`driver::run_task`]) that every run harness in this workspace
//!   is a thin wrapper over;
//! * [`feasibility`] — the (almost complete) characterization of exclusive
//!   perpetual graph searching on rings, plus the feasibility maps for the
//!   other two tasks;
//! * [`invariant`] — the per-task safety/liveness [`Invariant`]s the
//!   exhaustive model checker (`rr_checker::explore`) enforces along every
//!   scheduler interleaving;
//! * [`baselines`] — simple comparison protocols used in the paper's
//!   discussion and in the ablation experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod analysis;
pub mod baselines;
pub mod clearing;
pub mod driver;
pub mod feasibility;
pub mod gathering;
pub mod invariant;
pub mod nminus_three;
pub mod relabel;
pub mod unified;

pub use align::AlignProtocol;
pub use clearing::RingClearingProtocol;
pub use driver::{
    drive, run_dispatched, run_task, TaskError, TaskRunReport, TaskStats, TaskTargets,
};
pub use feasibility::{searching_feasibility, Feasibility, ImpossibilityReason};
pub use gathering::GatheringProtocol;
pub use invariant::{
    AlignmentInvariant, AugState, CrashTolerantGatheringInvariant, EventualGatheringInvariant,
    GatheringInvariant, Invariant, LivenessMode, SearchingInvariant, StateView,
};
pub use nminus_three::NminusThreeProtocol;
pub use relabel::{relabel_onto, RobotPerm};
pub use unified::{protocol_for, Task, UnifiedProtocol};
