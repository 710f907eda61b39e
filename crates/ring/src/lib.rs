//! # rr-ring — anonymous ring substrate
//!
//! This crate implements the combinatorial substrate of the paper
//! *"A unified approach for different tasks on rings in robot-based computing systems"*
//! (D'Angelo, Di Stefano, Navarra, Nisse, Suchan — IPPS 2013 / INRIA RR-8013):
//!
//! * the anonymous, unoriented ring topology ([`Ring`], [`Direction`], edges);
//! * configurations of robots on the ring, with or without multiplicities
//!   ([`Configuration`]);
//! * interval *views* as perceived by a robot during its Look phase ([`View`]),
//!   together with the rotation / reflection algebra of Section 2 of the paper;
//! * the *supermin configuration view* and the set of supermin intervals
//!   ([`supermin`]) used by Lemma 1;
//! * symmetry, periodicity and rigidity detection ([`symmetry`], Property 1 and
//!   Lemma 1 of the paper);
//! * the small pattern language used by Lemmas 3–5 ([`pattern`]);
//! * exhaustive enumeration of configurations up to ring isomorphism
//!   ([`enumerate`]), used to regenerate the configuration counts of
//!   Figures 4–9 of the paper.
//!
//! Everything in this crate is purely combinatorial and deterministic; the
//! Look–Compute–Move execution model lives in `rr-corda` and the algorithms in
//! `rr-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod enumerate;
pub mod node;
pub mod pattern;
pub mod ring;
pub mod supermin;
pub mod symmetry;
pub mod view;

pub use config::Configuration;
pub use node::{Direction, EdgeId, NodeId};
pub use ring::Ring;
pub use supermin::{supermin_intervals, supermin_view, SuperminInfo};
pub use symmetry::{ConfigurationClass, SymmetryInfo};
pub use view::View;
