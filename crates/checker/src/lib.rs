//! # rr-checker — exhaustive verification and impossibility checking
//!
//! This crate regenerates the paper's "evaluation": its configuration figures,
//! its impossibility results and its feasibility characterization.
//!
//! * [`enumeration`] — configuration graphs for the small cases of Theorem 5
//!   (Figures 4–9 of the paper): one node per configuration class, one edge
//!   per possible single-robot move;
//! * [`impossibility`] — the structural impossibility predicates (Lemmas 7
//!   and 8) and machine-checked demonstrations of the adversarial arguments;
//! * [`game`] — an exhaustive search over *all* oblivious min-CORDA protocols
//!   for small `(k, n)`, showing that none of them perpetually clears the ring
//!   against a fair semi-synchronous adversary (a machine-checked form of the
//!   impossibility theorems for the smallest parameters);
//! * [`characterization`] — the full feasibility table (experiment E1),
//!   optionally cross-validated by actually running the algorithms;
//! * [`verify`] — run-and-verify harnesses used by the characterization, the
//!   integration tests and the experiment binaries;
//! * [`explore`] — the exhaustive adversarial model checker: enumerates
//!   *every* SSYNC activation subset / ASYNC Look–Move interleaving of a
//!   protocol on a small ring, deduplicates states up to ring symmetry, and
//!   checks pluggable safety/liveness invariants, upgrading "tested on 64
//!   seeds" to "proved for all schedules" on small instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterization;
pub mod enumeration;
pub mod explore;
pub mod game;
pub mod impossibility;
pub mod store;
pub mod verify;
mod visited;

pub use characterization::{build_characterization, CellStatus, CharacterizationCell};
pub use enumeration::{configuration_graph, ConfigurationGraph};
pub use explore::{
    check_protocol_quotient_with_stats, check_protocol_with_stats, replay_counterexample,
    CheckOutcome, Counterexample, ExploreOptions, ExploreReport, FaultBudget, FaultDirective,
    MutatedProtocol, ReplayReport, ViolationKind,
};
pub use game::{exhaustive_impossibility, GameOutcome};
pub use store::{StoreKind, StoreStats};
pub use verify::{verify_gathering, verify_searching, VerificationReport};
