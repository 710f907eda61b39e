//! # rr-search — graph searching and exploration substrate
//!
//! This crate implements the verification oracles for the three tasks of the
//! paper:
//!
//! * [`contamination`] — the mixed graph-searching semantics of Section 4.1:
//!   every edge starts contaminated, an edge is cleared when a robot traverses
//!   it or when both its endpoints are occupied, and a cleared edge is
//!   instantaneously recontaminated if it can reach a contaminated edge
//!   through unoccupied nodes;
//! * [`exploration`] — per-robot node-visit tracking for the exclusive
//!   perpetual exploration task (every robot must visit every node infinitely
//!   often);
//! * [`monitor`] — implementations of the `rr_corda::Monitor` trait that plug
//!   into the `rr_corda::Engine` stepping pipeline and count how often the
//!   perpetual properties (full clearing, full exploration, gathering) are
//!   achieved.
//!
//! Nothing in this crate makes decisions; it only observes runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contamination;
pub mod exploration;
pub mod monitor;

pub use contamination::{occupied_mask, Contamination};
pub use exploration::ExplorationTracker;
pub use monitor::{GatheringMonitor, SearchMonitors};
