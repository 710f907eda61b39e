//! Exhaustive adversarial model checking over scheduler interleavings.
//!
//! The paper's correctness statements quantify over *every* activation
//! schedule of the adversary; the randomized verification harnesses in
//! [`crate::verify`] only sample that space (64 seeds per cell).  This module
//! closes the gap for small instances: it enumerates the **complete**
//! reachable state graph of a protocol under the adversary's whole
//! branching frontier ([`InterleavingMode`]) — every SSYNC activation
//! subset, or every ASYNC Look/Move interleaving with pending moves — and
//! checks a pluggable [`Invariant`] on it:
//!
//! * **safety** is checked on every edge (collisions raised by the engine,
//!   plus the invariant's own edge conditions), and a breadth-first search
//!   order guarantees a *minimal* counterexample trace;
//! * **liveness** is decided on the explored graph by SCC analysis under the
//!   weak-fairness assumption (every robot is activated infinitely often): a
//!   violation is a reachable strongly connected subgraph, free of
//!   target/progress, whose internal edges activate *every* robot — from
//!   which a concrete fair lasso (prefix + cycle) is extracted.
//!
//! # The compact exploration engine
//!
//! The state graph is held in a memory-compact form: each discovered state is
//! stored as a bit-packed [`PackedState`] plus the 64-bit key of its
//! auxiliary invariant state ([`AugState::key_bits`], rebuilt exactly on
//! expansion via [`AugState::from_key_bits`]); edges carry a `u32` step code
//! instead of a materialized [`SchedulerStep`], in a CSR layout; and the
//! visited map keys on fixed-size inline signatures
//! ([`PackedState::behavior_sig`] / [`PackedState::canonical_sig`]) sharded
//! by hash.  Nothing in the hot loop allocates per discovered state.
//!
//! The BFS order of node ids is a sequence of contiguous index windows
//! (batches), expanded on the calling thread by one reusable [`Engine`],
//! driven through [`Engine::restore_packed`] / `save_state`/`restore_state`.
//! Every successor enters the graph through one **admission** step the
//! moment it is generated: one probe of the visited map; on a miss the state
//! is packed, stored, and given the next node id; on a hit the id is reused,
//! so a duplicate is never packed.  Node ids, edge order, every
//! [`ExploreReport`] field and every extracted counterexample are those of a
//! sequential breadth-first sweep, identical for every storage backend.
//!
//! One call explores one initial configuration and starts no thread.  The
//! unit of parallelism is the call: a cell's rigid initial classes are
//! independent searches, so callers run them side by side (as
//! `exp_modelcheck` does) and fold their reports in class order.
//!
//! Two deduplication regimes are offered, one entry point each, and both
//! always decide safety *and* liveness.  [`check_protocol_with_stats`] keys
//! states by their exact behavioural identity
//! ([`PackedState::behavior_sig`]: robot nodes and phases, counters
//! excluded) — robot identities preserved, as per-robot fairness is **not**
//! invariant under relabeling — and reports, as a statistic, how many
//! canonical classes ([`PackedState::canonical_sig`], the Booth
//! least-rotation quotient by ring rotation/reflection + robot relabeling)
//! the concrete states collapse to.  [`check_protocol_quotient_with_stats`]
//! dedups directly on canonical classes, which is sound for safety (a bad
//! state is reachable iff an isomorphic one is), explores the `≈ 2n`-fold
//! smaller quotient graph, and decides liveness on it by threading robot
//! relabelings (below); the two regimes must agree on every verdict, which
//! the test suite pins.
//!
//! Counterexamples [`replay`](replay_counterexample) on a fresh [`Engine`]:
//! a safety trace reproduces its violation at the final step, a liveness
//! lasso closes back on the exact state it entered the cycle with, making no
//! progress — so the reported schedule is a certificate, not a search
//! artifact.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use rr_corda::packed::SigHashBuilder;
use rr_corda::{
    CorruptionKind, Decision, Engine, EngineOptions, EngineState, FaultModel, InterleavingMode,
    PackedState, Protocol, RobotId, RobotSet, RobotState, SchedulerStep, SimError, Snapshot,
    StateSig, ViewOrder, MAX_CANONICAL_N,
};
use rr_core::invariant::{AugState, Invariant, LivenessMode, StateView};
use rr_core::relabel::{relabel_onto, RobotPerm, MAX_PERM_ROBOTS};
use rr_ring::{Configuration, View};

use crate::store::{
    Edge, EdgeSink, MemEdges, MemStore, SpillEdges, SpillStore, StateStore, StoreKind, StoreStats,
};
use crate::visited::{Key, Visited, VISITED_ENTRY_BYTES};

/// Default state budget: generous for every cell of the acceptance grid, a
/// guard rail against accidentally pointing the checker at a huge instance.
pub const DEFAULT_MAX_STATES: usize = 4_000_000;

/// Nodes expanded per batch: the window the residency samples and the
/// visited map's seal points are taken over, so reported peak memory and
/// spilled bytes depend on it.
const BATCH: usize = 4096;

/// The fault adversary's powers during one exhaustive check: how many fault
/// choices the branching frontier may enumerate along any single execution.
///
/// The default ([`FaultBudget::none`]) grants nothing — exploration is then
/// byte-identical to the fault-free checker (same state ids, edges, reports
/// and counterexamples), which the fault tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultBudget {
    /// Robots the adversary may crash-stop along one execution.  Each crash
    /// is a branch point: *which* alive robot, *when* (at any reachable
    /// state).  A crashed robot is removed from every later frontier; its
    /// position and any pending action freeze forever.
    pub crash_budget: u32,
    /// Fresh Looks the adversary may corrupt along one execution.  Each
    /// corruption is a branch point: which Look opportunity (robot, and
    /// under SSYNC which activation subset) observes which
    /// [`CorruptionKind`] perturbation.
    pub corrupt_budget: u32,
    /// Robots a bounded-unfair scheduler with `B = ∞` may starve forever:
    /// the liveness analysis drops them from its fairness obligation, so a
    /// lasso needs to activate only the non-starved robots.  (The frontier
    /// still offers their activations — the adversary *may* starve, not
    /// must.)
    pub starve_mask: u32,
}

impl FaultBudget {
    /// No fault powers: the fault-free adversary.
    #[must_use]
    pub fn none() -> Self {
        FaultBudget::default()
    }

    /// Whether this budget grants no fault powers at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == FaultBudget::none()
    }

    /// Grants `f` crash-stop faults.
    #[must_use]
    pub fn with_crashes(mut self, f: u32) -> Self {
        self.crash_budget = f;
        self
    }

    /// Grants `b` corrupted Looks.
    #[must_use]
    pub fn with_corrupt_looks(mut self, b: u32) -> Self {
        self.corrupt_budget = b;
        self
    }

    /// Exempts the robots in `mask` from the fairness obligation (starved
    /// forever by a bounded-unfair scheduler with `B = ∞`).
    #[must_use]
    pub fn with_starved(mut self, mask: u32) -> Self {
        self.starve_mask = mask;
        self
    }
}

/// Options for one exhaustive check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Which space of adversarial interleavings to branch over.
    pub interleaving: InterleavingMode,
    /// State budget; exceeding it yields [`CheckOutcome::BudgetExceeded`]
    /// instead of a verdict.
    pub max_states: usize,
    /// The fault adversary's powers (default: none — fault-free checking).
    pub faults: FaultBudget,
    /// Where discovered states and edges live during the search (default:
    /// [`StoreKind::Mem`]).  The verdict, the report and any counterexample
    /// are identical for every backend.
    pub store: StoreKind,
    /// Resident-byte budget of the spill backend's cluster cache (ignored by
    /// the mem backend).  Smaller budgets trade window-read speed for
    /// memory; they never change any reported value.
    pub mem_budget: u64,
}

/// Default spill-cache budget: 64 MiB of encoded resident clusters.
pub const DEFAULT_MEM_BUDGET: u64 = 64 << 20;

impl ExploreOptions {
    /// Full checking (safety + liveness) under the given interleavings with
    /// the default state budget.
    #[must_use]
    pub fn new(interleaving: InterleavingMode) -> Self {
        ExploreOptions {
            interleaving,
            max_states: DEFAULT_MAX_STATES,
            faults: FaultBudget::none(),
            store: StoreKind::Mem,
            mem_budget: DEFAULT_MEM_BUDGET,
        }
    }

    /// Replaces the storage backend.
    #[must_use]
    pub fn with_store(mut self, store: StoreKind) -> Self {
        self.store = store;
        self
    }

    /// Replaces the spill backend's resident-byte budget.
    #[must_use]
    pub fn with_mem_budget(mut self, mem_budget: u64) -> Self {
        self.mem_budget = mem_budget;
        self
    }

    /// Replaces the fault adversary's powers.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultBudget) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the state budget.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Does nothing: returns `self` unchanged, whatever `workers` is.
    ///
    /// A call runs on the calling thread and starts no thread, so there is
    /// no worker count to set; run independent calls (one per initial
    /// class) side by side instead.  The method stays so that code written
    /// against the earlier per-call worker pool keeps compiling.
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }
}

/// Which kind of property a counterexample violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A bad edge: collision, invariant breach.
    Safety,
    /// A fair schedule making no progress: a lasso avoiding the target.
    Liveness,
}

/// One fault choice of the adversary along a counterexample schedule,
/// positioned by `at`: an index into the combined `prefix ++ cycle` step
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirective {
    /// Robot `robot` crash-stops immediately **before** the step at index
    /// `at` executes: no later step activates it (the explorer removes it
    /// from every frontier; the replay rejects schedules that do).
    Crash {
        /// Index into `prefix ++ cycle` before which the crash takes effect.
        at: usize,
        /// The crashed robot.
        robot: RobotId,
    },
    /// The step at index `at` (a Look, or an SSYNC round containing the
    /// robot) delivers a corrupted snapshot to `robot`'s fresh Look.
    Corrupt {
        /// Index into `prefix ++ cycle` of the corrupted step.
        at: usize,
        /// The robot whose Look is corrupted.
        robot: RobotId,
        /// The perturbation applied.
        kind: CorruptionKind,
    },
}

impl FaultDirective {
    /// The schedule position this directive attaches to.
    #[must_use]
    pub fn at(&self) -> usize {
        match self {
            FaultDirective::Crash { at, .. } | FaultDirective::Corrupt { at, .. } => *at,
        }
    }
}

/// A concrete adversarial schedule demonstrating a violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// What is violated.
    pub kind: ViolationKind,
    /// Human-readable description of the violation.
    pub message: String,
    /// Schedule from the initial configuration to the violation (safety: the
    /// last step *is* the violation) or to the entry of the lasso cycle.
    pub prefix: Vec<SchedulerStep>,
    /// For liveness: the fair cycle (activating every robot the fairness
    /// obligation covers, making no progress) that the adversary repeats
    /// forever.  Empty for safety.
    pub cycle: Vec<SchedulerStep>,
    /// The adversary's fault choices along the schedule (empty for
    /// fault-free checking).
    pub faults: Vec<FaultDirective>,
    /// Robots the fairness obligation exempts because a bounded-unfair
    /// scheduler starves them forever ([`FaultBudget::starve_mask`]); zero
    /// outside starvation checking.
    pub starved: u32,
}

impl Counterexample {
    /// Compact single-line rendering (`L2` = Look robot 2, `E0` = Execute
    /// robot 0, `R{0,2}` = SSYNC round of robots 0 and 2); fault directives
    /// and starvation exemptions are appended in brackets.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{}: {}", self.message, render_steps(&self.prefix));
        if !self.cycle.is_empty() {
            out.push_str(" (");
            out.push_str(&render_steps(&self.cycle));
            out.push_str(")*");
        }
        for fault in &self.faults {
            match fault {
                FaultDirective::Crash { at, robot } => {
                    out.push_str(&format!(" [crash {robot} @{at}]"));
                }
                FaultDirective::Corrupt { at, robot, kind } => {
                    out.push_str(&format!(" [corrupt {robot} {} @{at}]", kind.name()));
                }
            }
        }
        if self.starved != 0 {
            let ids: Vec<String> = (0..32)
                .filter(|r| self.starved & (1 << r) != 0)
                .map(|r: u32| r.to_string())
                .collect();
            out.push_str(&format!(" [starved {{{}}}]", ids.join(",")));
        }
        out
    }
}

fn render_steps(steps: &[SchedulerStep]) -> String {
    let rendered: Vec<String> = steps
        .iter()
        .map(|s| match s {
            SchedulerStep::Look(r) => format!("L{r}"),
            SchedulerStep::Execute(r) => format!("E{r}"),
            SchedulerStep::SsyncRound(robots) => {
                let ids: Vec<String> = robots.iter().map(|r| r.to_string()).collect();
                format!("R{{{}}}", ids.join(","))
            }
        })
        .collect();
    rendered.join(" ")
}

/// The verdict of one exhaustive check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every reachable edge is safe and every fair schedule makes the
    /// required progress.
    Verified,
    /// A violation was found, with its concrete schedule.
    Falsified(Box<Counterexample>),
    /// The state budget was exhausted before the graph was covered.
    ///
    /// The two counts differ in general: the budget trips in the middle of a
    /// node's frontier, so the last expansion is incomplete — its
    /// already-recorded edges reference discovered states, but the node does
    /// not count as expanded.
    BudgetExceeded {
        /// States discovered (= stored) before giving up.
        discovered: usize,
        /// Nodes whose full frontier was expanded and recorded; always less
        /// than `discovered`.
        completed_expansions: usize,
    },
}

/// Result of one exhaustive check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// The invariant that was checked.
    pub invariant: &'static str,
    /// The interleaving space that was branched over.
    pub interleaving: InterleavingMode,
    /// Concrete states explored (canonical classes when the quotient
    /// explorer was used).
    pub states: usize,
    /// Distinct canonical (rotation/reflection/relabeling) classes among the
    /// explored *engine* states (auxiliary path state, e.g. contamination, is
    /// not part of the class key — for invariants carrying one, this counts
    /// the engine-state classes the full states project onto).
    pub quotient_states: usize,
    /// Edges of the explored graph.
    pub edges: u64,
    /// States satisfying the liveness target ([`LivenessMode::Reach`]).
    pub target_states: usize,
    /// Edges on which liveness progress happened
    /// ([`LivenessMode::ReachRepeatedly`]).
    pub progress_edges: u64,
    /// Peak resident node count, maximized over one sample per expansion:
    /// the stored states when the expansion begins, plus every successor of
    /// that expansion and of the later ones in its batch that was absent
    /// from the visited map when the batch began.  Expansions that begin
    /// after the search stopped take no sample.  Deterministic: independent
    /// of the storage backend.
    pub peak_resident_nodes: usize,
    /// The byte-valued analog of [`peak_resident_nodes`]: packed payload
    /// bytes of the same states at the same sample points, plus the visited
    /// map's logical bytes for the stored states.  Counts state payloads,
    /// not backend overhead, so the value is identical across backends (the
    /// spill backend's *actual* residency is bounded by
    /// [`ExploreOptions::mem_budget`] instead).
    ///
    /// [`peak_resident_nodes`]: ExploreReport::peak_resident_nodes
    pub peak_resident_bytes: u64,
    /// Total packed payload bytes over all stored states — `bytes_per_state`
    /// is `state_bytes / states`.  Backend-independent.
    pub state_bytes: u64,
    /// The verdict.
    pub outcome: CheckOutcome,
}

impl ExploreReport {
    /// Whether the check completed and found no violation.
    #[must_use]
    pub fn verified(&self) -> bool {
        matches!(self.outcome, CheckOutcome::Verified)
    }

    /// The counterexample, if the check falsified the invariant.
    #[must_use]
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match &self.outcome {
            CheckOutcome::Falsified(ce) => Some(ce),
            _ => None,
        }
    }
}

/// How explored states are deduplicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dedup {
    /// Exact behavioural identity (robot ids preserved).
    Exact,
    /// Canonical class (quotient by ring automorphism + robot relabeling).
    /// Falls back to exact keys for invariants carrying auxiliary path state,
    /// whose canonicalization would have to be joint to stay sound.
    Canonical,
}

// ---------------------------------------------------------------------------
// Compact step codes: a SchedulerStep as one u32 edge label.
// ---------------------------------------------------------------------------

/// Low 2 bits: the step kind; upper bits: the activation subset bitmask
/// (SSYNC round) or the robot id (Look / Execute).  Kind 3 marks a fault
/// edge; its payload's low 2 bits select the fault subkind.
const STEP_SSYNC: u32 = 0;
const STEP_LOOK: u32 = 1;
const STEP_EXECUTE: u32 = 2;
const STEP_FAULT: u32 = 3;

/// Fault subkinds (payload bits 0..2 of a [`STEP_FAULT`] code).  Crash edges
/// step nothing (pure adversary bookkeeping); corrupt edges drive their
/// underlying Look / SSYNC round with a one-shot [`FaultModel::CorruptLook`]
/// armed.  Payload layout: subkind (2 bits) | robot (5 bits) | corruption
/// kind (1 bit) | SSYNC activation mask (20 bits) — 28 payload bits, so the
/// full code fits a `u32` for every `k ≤ 20`.
const FAULT_CRASH: u32 = 0;
const FAULT_LOOK: u32 = 1;
const FAULT_ROUND: u32 = 2;

/// The per-path fault word stored on every node and mixed into its dedup
/// key: crashed-robot bitmask in the low 24 bits, corrupted-Look count used
/// so far in the high 8.
fn fault_word(crashed: u32, corrupts: u32) -> u32 {
    debug_assert!(crashed < 1 << 24 && corrupts < 1 << 8);
    crashed | corrupts << 24
}

fn fault_crashed(word: u32) -> u32 {
    word & 0x00FF_FFFF
}

fn fault_corrupts(word: u32) -> u32 {
    word >> 24
}

fn corruption_bit(kind: CorruptionKind) -> u32 {
    match kind {
        CorruptionKind::PhantomMultiplicity => 0,
        CorruptionKind::MissingMultiplicity => 1,
    }
}

fn corruption_from_bit(bit: u32) -> CorruptionKind {
    if bit == 0 {
        CorruptionKind::PhantomMultiplicity
    } else {
        CorruptionKind::MissingMultiplicity
    }
}

fn crash_code(robot: usize) -> u32 {
    (FAULT_CRASH | (robot as u32) << 2) << 2 | STEP_FAULT
}

fn corrupt_look_code(robot: usize, kind: CorruptionKind) -> u32 {
    (FAULT_LOOK | (robot as u32) << 2 | corruption_bit(kind) << 7) << 2 | STEP_FAULT
}

fn corrupt_round_code(mask: u32, victim: usize, kind: CorruptionKind) -> u32 {
    (FAULT_ROUND | (victim as u32) << 2 | corruption_bit(kind) << 7 | mask << 8) << 2 | STEP_FAULT
}

/// Crash codes: the robot the adversary crashes; `None` for every other
/// code.
fn crash_code_robot(code: u32) -> Option<RobotId> {
    if code & 3 == STEP_FAULT && (code >> 2) & 3 == FAULT_CRASH {
        Some(((code >> 4) & 31) as RobotId)
    } else {
        None
    }
}

/// Corrupt codes: the victim, the perturbation, and the victim's fresh-Look
/// offset within the step (0 for a solo Look; its rank within the
/// activation mask for an SSYNC round — sound because SSYNC exploration
/// only rounds Ready robots, so every member Looks freshly in id order).
fn corrupt_code_parts(code: u32) -> Option<(RobotId, CorruptionKind, u64)> {
    if code & 3 != STEP_FAULT {
        return None;
    }
    let payload = code >> 2;
    let victim = ((payload >> 2) & 31) as RobotId;
    let kind = corruption_from_bit((payload >> 7) & 1);
    match payload & 3 {
        FAULT_LOOK => Some((victim, kind, 0)),
        FAULT_ROUND => {
            let mask = payload >> 8;
            let offset = u64::from((mask & ((1 << victim) - 1)).count_ones());
            Some((victim, kind, offset))
        }
        _ => None,
    }
}

/// The engine step a code drives: the decoded step for regular codes, the
/// underlying Look / SSYNC round for corrupt codes, `None` for crash codes
/// (which step nothing).
fn code_engine_step(code: u32) -> Option<SchedulerStep> {
    if code & 3 != STEP_FAULT {
        return Some(decode_step(code));
    }
    let payload = code >> 2;
    match payload & 3 {
        FAULT_LOOK => Some(SchedulerStep::Look(((payload >> 2) & 31) as usize)),
        FAULT_ROUND => {
            let robots = RobotSet::from_bits(u64::from(payload >> 8));
            Some(SchedulerStep::SsyncRound(robots))
        }
        _ => None,
    }
}

/// Materializes the [`SchedulerStep`] a regular code stands for.  Fault
/// codes never reach this (they are realized via [`realize_codes`]).
fn decode_step(code: u32) -> SchedulerStep {
    debug_assert_ne!(code & 3, STEP_FAULT, "fault codes have no direct step");
    let payload = code >> 2;
    match code & 3 {
        STEP_LOOK => SchedulerStep::Look(payload as usize),
        STEP_EXECUTE => SchedulerStep::Execute(payload as usize),
        _ => SchedulerStep::SsyncRound(RobotSet::from_bits(u64::from(payload))),
    }
}

/// The robots a coded step activates, as a bitmask — the edge label the
/// fairness analysis is built on (the bits of
/// [`SchedulerStep::activated`] of the decoded step; for corrupt codes, of
/// their underlying step; crash codes activate nobody).
fn step_activation_mask(code: u32) -> u32 {
    match code & 3 {
        STEP_SSYNC => code >> 2,
        STEP_LOOK | STEP_EXECUTE => 1 << (code >> 2),
        _ => {
            let payload = code >> 2;
            match payload & 3 {
                FAULT_LOOK => 1 << ((payload >> 2) & 31),
                FAULT_ROUND => payload >> 8,
                _ => 0,
            }
        }
    }
}

/// The branching frontier of the adversary from a state with the given
/// per-robot pending status, as step codes, in a fixed order (subset
/// bitmask order for SSYNC, robot id order for ASYNC), with crash-stopped
/// robots removed from every step.  This is the whole adversary at once:
/// a protocol verified against this frontier is verified against **all**
/// schedules of the mode, not a seed sample of them.
fn frontier_codes(mode: InterleavingMode, robots: &[RobotState], crashed: u32, out: &mut Vec<u32>) {
    out.clear();
    let k = robots.len();
    match mode {
        InterleavingMode::SsyncSubsets => {
            out.extend(
                (1u32..1 << k)
                    .filter(|mask| mask & crashed == 0)
                    .map(|mask| mask << 2 | STEP_SSYNC),
            );
        }
        InterleavingMode::AsyncPhases => {
            out.extend(
                robots
                    .iter()
                    .enumerate()
                    .filter(|(r, _)| crashed & 1 << r == 0)
                    .map(|(r, robot)| {
                        let kind = if robot.has_pending() {
                            STEP_EXECUTE
                        } else {
                            STEP_LOOK
                        };
                        (r as u32) << 2 | kind
                    }),
            );
        }
    }
}

/// Appends the adversary's fault-choice edges to a node's frontier: crash
/// edges (one per alive robot while the crash budget lasts) followed by
/// corrupted-Look edges (one per fresh-Look opportunity × perturbation kind
/// while the corruption budget lasts), in a fixed order so exploration stays
/// deterministic.
fn fault_codes(
    mode: InterleavingMode,
    robots: &[RobotState],
    fault: u32,
    budget: &FaultBudget,
    out: &mut Vec<u32>,
) {
    let k = robots.len();
    let crashed = fault_crashed(fault);
    if crashed.count_ones() < budget.crash_budget {
        out.extend((0..k).filter(|&r| crashed & 1 << r == 0).map(crash_code));
    }
    if fault_corrupts(fault) < budget.corrupt_budget {
        match mode {
            InterleavingMode::AsyncPhases => {
                for (r, robot) in robots.iter().enumerate() {
                    if crashed & 1 << r != 0 || robot.has_pending() {
                        continue;
                    }
                    for kind in CorruptionKind::ALL {
                        out.push(corrupt_look_code(r, kind));
                    }
                }
            }
            InterleavingMode::SsyncSubsets => {
                for mask in 1u32..1 << k {
                    if mask & crashed != 0 {
                        continue;
                    }
                    for victim in (0..k).filter(|&r| mask & 1 << r != 0) {
                        if robots[victim].has_pending() {
                            // A pending robot re-reports without a fresh
                            // Look — nothing to corrupt (unreachable in
                            // SSYNC exploration, where every robot is
                            // Ready, but kept for robustness).
                            continue;
                        }
                        for kind in CorruptionKind::ALL {
                            out.push(corrupt_round_code(mask, victim, kind));
                        }
                    }
                }
            }
        }
    }
}

/// Converts a path of edge codes into real scheduler steps plus the fault
/// directives annotating them: crash edges become [`FaultDirective::Crash`]
/// markers (they step nothing), corrupt edges emit their underlying step
/// plus a [`FaultDirective::Corrupt`] marker, regular codes decode as-is.
fn realize_codes(
    codes: &[u32],
    step_offset: usize,
    steps: &mut Vec<SchedulerStep>,
    faults: &mut Vec<FaultDirective>,
) {
    for &code in codes {
        let at = step_offset + steps.len();
        if let Some(robot) = crash_code_robot(code) {
            faults.push(FaultDirective::Crash { at, robot });
            continue;
        }
        if let Some((robot, kind, _)) = corrupt_code_parts(code) {
            faults.push(FaultDirective::Corrupt { at, robot, kind });
        }
        steps.push(code_engine_step(code).expect("non-crash codes drive a step"));
    }
}

// ---------------------------------------------------------------------------
// Compact state keys and the sharded visited map.
// ---------------------------------------------------------------------------

// The key type and the visited map itself (memtable shards + the disk-backed
// sorted-run backend) live in `crate::visited`; this module computes keys and
// drives the map from its admission step.

/// Computes the dedup key straight from the live engine (no codec round
/// trip); equals `make_key(&engine.pack_state(), aug_bits, dedup, fault)`.
fn make_key_from_engine<P: Protocol>(
    engine: &Engine<P>,
    aug_bits: u64,
    dedup: Dedup,
    fault: u32,
) -> Key {
    let sig = match dedup {
        Dedup::Exact => engine.behavior_sig(),
        Dedup::Canonical => engine.canonical_sig(),
    };
    Key {
        sig,
        aug: aug_bits,
        fault,
    }
}

fn make_key(packed: &PackedState, aug_bits: u64, dedup: Dedup, fault: u32) -> Key {
    let sig = match dedup {
        Dedup::Exact => packed.behavior_sig(),
        Dedup::Canonical => packed.canonical_sig(),
    };
    Key {
        sig,
        aug: aug_bits,
        fault,
    }
}

// ---------------------------------------------------------------------------
// The compact state graph.
// ---------------------------------------------------------------------------

const NO_PARENT: u32 = u32::MAX;

/// The always-resident metadata of one stored state: the 64-bit auxiliary
/// key, the per-path fault word, the BFS parent pointer (node + step code)
/// and the liveness-target flag.  The packed engine state itself lives in
/// the run's [`StateStore`], addressed by the same node id — splitting the
/// two is what lets the spill backend move the (much larger) state payloads
/// out of RAM while the graph analyses keep O(1) access to the metadata.
#[derive(Clone, Copy)]
struct NodeMeta {
    aug_bits: u64,
    fault: u32,
    parent: u32,
    parent_code: u32,
    target: bool,
}

/// CSR view of the (fully explored) graph for the liveness analysis.
struct Graph<'a> {
    meta: &'a [NodeMeta],
    offsets: &'a [u32],
    edges: &'a [Edge],
}

impl Graph<'_> {
    fn out(&self, u: usize) -> &[Edge] {
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

fn state_view(state: &EngineState, crashed: u32) -> StateView<'_> {
    StateView::new(state.configuration(), state.robots()).with_crashed(crashed)
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

/// Exhaustively checks `protocol` against `invariant` from `initial` —
/// safety on every edge, then liveness on the explored graph —
/// deduplicating on exact behavioural state identity (sound for safety *and*
/// per-robot fairness liveness).
///
/// Returns the report together with the storage backend's [`StoreStats`]
/// (spilled bytes, phase timings and the like); everything in the report
/// itself is backend-independent by design.
///
/// # Errors
///
/// Returns `Err` only when the initial configuration is rejected by the
/// engine; violations found during the search are reported as
/// [`CheckOutcome::Falsified`].
pub fn check_protocol_with_stats<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    options: &ExploreOptions,
) -> Result<(ExploreReport, StoreStats), SimError> {
    let (report, stats, _) = explore(protocol, initial, invariant, options, Dedup::Exact)?;
    Ok((report, stats))
}

/// Exhaustive check — safety *and* liveness — on the canonical symmetry
/// quotient: states are deduplicated up to ring rotation/reflection and
/// robot relabeling, the `≈ 2n`-fold smaller graph.  This is sound and
/// complete for safety (a violating edge exists iff an isomorphic one
/// does).  Liveness is decided soundly on the same quotient by threading
/// the accumulated robot relabeling ([`rr_core::relabel::RobotPerm`])
/// along quotient edges, so that fairness — a per-robot property the
/// quotient forgets — is re-established over *concrete* robots.  The
/// verdict equals [`check_protocol_with_stats`]'s on every instance;
/// `tests/exhaustive_small_instances.rs` pins that equality over the proved
/// grid.  Returns the report with the storage backend's [`StoreStats`].
///
/// Only invariants without auxiliary path state get the quotient: for an
/// invariant carrying one (the searching contamination state), a sound
/// class key would have to canonicalize the engine state and the auxiliary
/// state *jointly*, so the exploration falls back to exact keys and decides
/// liveness concretely — same verdict and cost as
/// [`check_protocol_with_stats`], no quotient savings.  Fault budgets fall
/// back the same way: crashed masks and fairness exemptions name robot ids,
/// which relabeling does not preserve.  When the threaded analysis exceeds
/// its internal state cap (astronomically unlikely), or finds a lasso that
/// does not close concretely (a protocol whose steps are not equivariant
/// under the merged symmetries), the checker transparently re-runs the
/// exact exploration, so the verdict is always complete.
///
/// # Errors
///
/// Returns `Err` only when the initial configuration is rejected by the
/// engine.
pub fn check_protocol_quotient_with_stats<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    options: &ExploreOptions,
) -> Result<(ExploreReport, StoreStats), SimError> {
    let (report, stats, gave_up) =
        explore(protocol, initial, invariant, options, Dedup::Canonical)?;
    if gave_up {
        // The threaded quotient-liveness analysis gave up: fall back to the
        // exact explorer, whose liveness analysis needs no relabeling
        // bookkeeping.
        return check_protocol_with_stats(protocol, initial, invariant, options);
    }
    Ok((report, stats))
}

// ---------------------------------------------------------------------------
// The exploration engine.
// ---------------------------------------------------------------------------

/// Everything the expansion loop reads.
struct ExploreCtx<'a> {
    invariant: &'a dyn Invariant,
    /// Template fixing the auxiliary-state variant and instance; each node's
    /// stored 64 bits rehydrate through it.
    aug_template: &'a AugState,
    mode: InterleavingMode,
    dedup: Dedup,
    reach_mode: bool,
    faults: FaultBudget,
}

/// The expansion worker: the call's engine plus scratch buffers.
struct Worker<P> {
    engine: Engine<P>,
    before: EngineState,
    frontier: Vec<u32>,
    report: rr_corda::StepReport,
}

/// Where a generated successor's state can be read.
enum Source<'a, P> {
    /// The worker's engine, stepped to the successor.
    Engine(&'a Engine<P>),
    /// The expanded node's own state: a crash edge steps nothing.
    Node(&'a PackedState),
}

/// One successor as expansion generates it: the edge, the dedup key, and
/// the state behind it, read only if admission finds the key new.
struct Successor<'a, P> {
    code: u32,
    progress: bool,
    key: Key,
    source: Source<'a, P>,
    /// The successor's view and auxiliary state, for the liveness target.
    view: StateView<'a>,
    aug: &'a AugState,
    ctx: &'a ExploreCtx<'a>,
}

impl<P: Protocol> Successor<'_, P> {
    /// The behaviour-projected state to store.
    fn pack(&self) -> PackedState {
        match &self.source {
            Source::Engine(engine) => engine.pack_behavior(),
            Source::Node(packed) => (*packed).clone(),
        }
    }

    /// Its canonical class signature (the exact-dedup statistic).
    fn class(&self) -> StateSig {
        match &self.source {
            Source::Engine(engine) => engine.canonical_sig(),
            Source::Node(packed) => packed.canonical_sig(),
        }
    }

    /// Whether it satisfies the liveness target.
    fn target(&self) -> bool {
        self.ctx.reach_mode && self.ctx.invariant.is_target(&self.view, self.aug)
    }
}

/// Expands one node: restores its state, steps every frontier code from it
/// and hands each successor to `visit`, in frontier order.  Returns the
/// step that violated safety, with its message; the successors after it
/// are not generated.
fn expand_node<P: Protocol>(
    worker: &mut Worker<P>,
    packed: &PackedState,
    node: NodeMeta,
    ctx: &ExploreCtx<'_>,
    mut visit: impl FnMut(&Successor<'_, P>),
) -> Option<(u32, String)> {
    let Worker {
        engine,
        before,
        frontier,
        report,
    } = worker;
    engine.restore_packed(packed);
    engine.save_state_into(before);
    let crashed = fault_crashed(node.fault);
    let corrupts = fault_corrupts(node.fault);
    let before_aug = ctx.aug_template.from_key_bits(node.aug_bits);
    let before_view = state_view(before, crashed);
    frontier_codes(ctx.mode, before.robots(), crashed, frontier);
    fault_codes(ctx.mode, before.robots(), node.fault, &ctx.faults, frontier);

    let mut engine_dirty = false;
    for &code in frontier.iter() {
        // Crash edges are pure adversary bookkeeping: the engine state and
        // the auxiliary state are untouched; one more robot is removed from
        // every later frontier.  No step runs, so no safety check — but the
        // liveness target is re-evaluated, since exempting a robot can
        // *create* a target ("all non-crashed robots gathered").
        if let Some(victim) = crash_code_robot(code) {
            let new_crashed = crashed | 1 << victim;
            let new_fault = fault_word(new_crashed, corrupts);
            visit(&Successor {
                code,
                progress: false,
                key: make_key(packed, node.aug_bits, ctx.dedup, new_fault),
                source: Source::Node(packed),
                view: before_view.with_crashed(new_crashed),
                aug: &before_aug,
                ctx,
            });
            continue;
        }
        if engine_dirty {
            engine.restore_state(before);
        }
        engine_dirty = true;
        // Corrupt edges drive their underlying step with a one-shot
        // corruption armed at the victim's fresh-Look ordinal; the model is
        // disarmed right after, so every other edge of this node (and every
        // later node this worker expands) steps fault-free.
        let corruption = corrupt_code_parts(code);
        let mut new_fault = node.fault;
        if let Some((_, kind, offset)) = corruption {
            engine.arm_fault(FaultModel::CorruptLook {
                look: engine.look_count() + offset,
                kind,
            });
            new_fault = fault_word(crashed, corrupts + 1);
        }
        let step = code_engine_step(code).expect("crash codes are handled above");
        let result = engine.step_into(&step, &mut (), report);
        if corruption.is_some() {
            engine.arm_fault(FaultModel::None);
        }
        if let Err(e) = result {
            return Some((code, e.to_string()));
        }
        let mut aug = before_aug.clone();
        let progress = ctx
            .invariant
            .observe_step(&mut aug, report, engine.configuration());
        let after_view =
            StateView::new(engine.configuration(), engine.robots()).with_crashed(crashed);
        if let Err(message) = ctx.invariant.check_edge(&before_view, &after_view, &aug) {
            return Some((code, message));
        }
        visit(&Successor {
            code,
            progress,
            key: make_key_from_engine(engine, aug.key_bits(), ctx.dedup, new_fault),
            source: Source::Engine(engine),
            view: after_view,
            aug: &aug,
            ctx,
        });
    }
    None
}

/// The residency sample of one expansion.
struct Sample {
    /// Stored states when the expansion began; `None` when the search had
    /// already stopped, so the expansion only counts.
    stored: Option<usize>,
    /// Successors of the expansion that were absent from the visited map
    /// when the batch began.
    fresh: usize,
}

/// The graph discovered so far, and everything admission writes: the
/// visited map, the stored states with their metadata, the edges, the
/// canonical-class statistic, the residency samples and, once the search
/// stops early, its outcome.
struct Discovered {
    visited: Visited,
    store: Box<dyn StateStore>,
    meta: Vec<NodeMeta>,
    offsets: Vec<u32>,
    sink: Box<dyn EdgeSink>,
    /// Canonical classes among the stored states, kept under exact dedup
    /// only (the `quotient_states` statistic).
    classes: Option<HashSet<StateSig, SigHashBuilder>>,
    progress_edges: u64,
    max_states: usize,
    starve_mask: u32,
    /// Stored states when the current batch began.  Every id below it was
    /// in the visited map at the batch start; every id at or above it was
    /// created during the batch.
    batch_base: usize,
    samples: Vec<Sample>,
    /// Packed bytes of one stored state.  The checker stores behaviour
    /// projections, whose counters are zero, so every state of one call
    /// packs to the same word count — a duplicate's bytes are known
    /// without packing it.
    state_bytes: u64,
    peak_nodes: usize,
    peak_bytes: u64,
    /// Set when a budget trip or a safety violation stops the search.
    stop: Option<CheckOutcome>,
}

impl Discovered {
    /// Stores a state admission found new under the next node id and maps
    /// its key to that id.
    fn store_new<P: Protocol>(
        &mut self,
        key: &Key,
        parent: u32,
        parent_code: u32,
        state: &Successor<'_, P>,
    ) -> u32 {
        let id = self.meta.len() as u32;
        if let Some(classes) = &mut self.classes {
            classes.insert(state.class());
        }
        let packed = state.pack();
        debug_assert_eq!(8 * packed.words().len() as u64, self.state_bytes);
        self.store.push(packed);
        self.meta.push(NodeMeta {
            aug_bits: key.aug,
            fault: key.fault,
            parent,
            parent_code,
            target: state.target(),
        });
        self.visited.insert(*key, id);
        id
    }

    /// Opens a batch: the visited map holds exactly the stored states.
    fn begin_batch(&mut self) {
        self.batch_base = self.meta.len();
        self.samples.clear();
    }

    /// Opens an expansion's residency sample.
    fn begin_node(&mut self) {
        self.samples.push(Sample {
            stored: self.stop.is_none().then_some(self.meta.len()),
            fresh: 0,
        });
    }

    /// The single admission step for one successor of node `parent`: one
    /// probe of the visited map.  On a hit the successor reuses the mapped
    /// id; on a miss its state is packed and stored under the next node id,
    /// unless that would exceed the state budget, which stops the search.
    /// Once the search has stopped, admission only probes, to count the
    /// successor for the batch's residency samples.
    fn admit<P: Protocol>(
        &mut self,
        parent: usize,
        code: u32,
        progress: bool,
        key: &Key,
        state: &Successor<'_, P>,
    ) {
        let seen = self.visited.get(key);
        if seen.is_none_or(|id| id as usize >= self.batch_base) {
            self.samples
                .last_mut()
                .expect("admission inside an expansion")
                .fresh += 1;
        }
        if self.stop.is_some() {
            return;
        }
        let to = match seen {
            Some(id) => id,
            None if self.meta.len() >= self.max_states => {
                self.stop = Some(CheckOutcome::BudgetExceeded {
                    discovered: self.meta.len(),
                    completed_expansions: self.offsets.len() - 1,
                });
                return;
            }
            None => self.store_new(key, parent as u32, code, state),
        };
        self.edge(to, code, progress);
    }

    /// Records an edge of the node being expanded.
    fn edge(&mut self, to: u32, code: u32, progress: bool) {
        self.progress_edges += u64::from(progress);
        self.sink.push(Edge { to, code, progress });
    }

    /// Closes node `i`'s expansion: a safety violation stops the search
    /// with its counterexample, and a completed expansion ends the node's
    /// edge list.  A node expanded after the search stopped leaves no
    /// trace.
    fn finish_node(&mut self, i: usize, violation: Option<(u32, String)>) {
        if self.stop.is_some() {
            return;
        }
        if let Some((code, message)) = violation {
            let mut codes = codes_from_root(&self.meta, i);
            codes.push(code);
            let mut prefix = Vec::new();
            let mut faults = Vec::new();
            realize_codes(&codes, 0, &mut prefix, &mut faults);
            self.stop = Some(CheckOutcome::Falsified(Box::new(Counterexample {
                kind: ViolationKind::Safety,
                message,
                prefix,
                cycle: Vec::new(),
                faults,
                starved: self.starve_mask,
            })));
            return;
        }
        assert!(
            self.sink.len() <= u64::from(u32::MAX),
            "edge offsets are u32"
        );
        self.offsets.push(self.sink.len() as u32);
    }

    /// Closes a batch by taking its residency samples.  Before each
    /// expansion that began while the search was still running, the
    /// resident count is the stored states plus every successor, of that
    /// expansion and of the later ones in the batch, that was absent from
    /// the visited map at the batch start; suffix sums make each sample
    /// O(1).
    fn end_batch(&mut self) {
        let mut fresh = 0usize;
        for sample in self.samples.iter().rev() {
            fresh += sample.fresh;
            if let Some(stored) = sample.stored {
                let nodes = stored + fresh;
                self.peak_nodes = self.peak_nodes.max(nodes);
                self.peak_bytes = self
                    .peak_bytes
                    .max(nodes as u64 * self.state_bytes + stored as u64 * VISITED_ENTRY_BYTES);
            }
        }
    }
}

/// The exploration engine.  Returns the report, the storage backend's
/// stats, and whether the quotient-liveness analysis gave up (in which case
/// the report's outcome is not a verdict and the caller must fall back to
/// exact exploration).
fn explore<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    options: &ExploreOptions,
    dedup: Dedup,
) -> Result<(ExploreReport, StoreStats, bool), SimError> {
    let engine_options = EngineOptions::for_protocol(protocol);
    assert!(
        engine_options.view_order != ViewOrder::Alternating,
        "alternating view order makes behaviour depend on the look counter; \
         the state graph would not be well-defined"
    );
    let root_engine = Engine::new(protocol.clone(), initial.clone(), engine_options)?;
    let k = root_engine.num_robots();
    assert!(k <= 20, "exhaustive checking is for small instances");
    assert!(
        initial.n() <= MAX_CANONICAL_N,
        "exhaustive checking supports n ≤ {MAX_CANONICAL_N}"
    );
    assert!(options.max_states < u32::MAX as usize, "node ids are u32");
    let full_mask: u32 = (1u32 << k) - 1;
    assert!(
        options.faults.starve_mask & !full_mask == 0,
        "starve_mask names robots outside 0..k"
    );
    let reach_mode = invariant.liveness_mode() == LivenessMode::Reach;
    let aug_template = invariant.initial_aug(initial);
    // The quotient is sound only when the whole model-checking state is the
    // engine state; with auxiliary path state, fall back to exact keys (the
    // invariant's variant is fixed for the entire run).  Fault budgets also
    // force exact keys: the crashed mask and the fairness exemptions are
    // per-robot-id, which relabeling does not preserve.
    let effective_dedup = match (dedup, &aug_template) {
        (Dedup::Canonical, AugState::None) if options.faults.is_none() => Dedup::Canonical,
        _ => Dedup::Exact,
    };
    let ctx = ExploreCtx {
        invariant,
        aug_template: &aug_template,
        mode: options.interleaving,
        dedup: effective_dedup,
        reach_mode,
        faults: options.faults,
    };
    let root_state = root_engine.save_state();
    let root_packed = root_engine.pack_behavior();
    let root_key = make_key(&root_packed, aug_template.key_bits(), effective_dedup, 0);
    let state_bytes = 8 * root_packed.words().len() as u64;
    let mut graph = Discovered {
        visited: Visited::new(options.store, options.mem_budget),
        store: match options.store {
            StoreKind::Mem => Box::new(MemStore::new()),
            StoreKind::Spill => Box::new(SpillStore::new(options.mem_budget)),
        },
        meta: Vec::new(),
        offsets: vec![0],
        sink: match options.store {
            StoreKind::Mem => Box::new(MemEdges::new()),
            StoreKind::Spill => Box::new(SpillEdges::new()),
        },
        classes: (dedup == Dedup::Exact).then(HashSet::default),
        progress_edges: 0,
        max_states: options.max_states,
        starve_mask: options.faults.starve_mask,
        batch_base: 0,
        samples: Vec::new(),
        state_bytes,
        peak_nodes: 1,
        peak_bytes: state_bytes,
        stop: None,
    };
    graph.store_new(
        &root_key,
        NO_PARENT,
        0,
        &Successor::<P> {
            code: 0,
            progress: false,
            key: root_key,
            source: Source::Node(&root_packed),
            view: state_view(&root_state, 0),
            aug: &aug_template,
            ctx: &ctx,
        },
    );
    let mut worker = Worker {
        engine: root_engine,
        before: root_state,
        frontier: Vec::new(),
        report: rr_corda::StepReport::default(),
    };

    // Batch-synchronous BFS over windows of up to BATCH node ids, every
    // successor admitted the moment it is generated: node ids, edge order
    // and early stops are those of a sequential breadth-first sweep, for
    // every backend.  After a stop, the rest of the batch is still
    // expanded, admitting nothing, so that the residency samples see every
    // successor of the batch.
    let mut expand_nanos: u64 = 0;
    let mut merge_nanos: u64 = 0;
    let mut window: Vec<PackedState> = Vec::new();
    let mut next = 0usize;
    while next < graph.meta.len() {
        let batch_end = graph.meta.len().min(next + BATCH);
        let start = Instant::now();
        graph.store.window(next, batch_end, &mut window);
        graph.begin_batch();
        for (i, packed) in (next..).zip(&window) {
            let node = graph.meta[i];
            graph.begin_node();
            let violation = expand_node(&mut worker, packed, node, &ctx, |succ| {
                graph.admit(i, succ.code, succ.progress, &succ.key, succ);
            });
            graph.finish_node(i, violation);
        }
        let expanded = Instant::now();
        graph.end_batch();
        let stopped = graph.stop.is_some();
        // The `--mem-budget` accountant's seal point; after a stop the map
        // is dropped before anything could observe a seal.
        if !stopped {
            graph.visited.maybe_seal();
        }
        expand_nanos += (expanded - start).as_nanos() as u64;
        merge_nanos += expanded.elapsed().as_nanos() as u64;
        if stopped {
            break;
        }
        next = batch_end;
    }

    let Discovered {
        visited,
        mut store,
        meta,
        offsets,
        mut sink,
        classes,
        progress_edges,
        peak_nodes,
        peak_bytes,
        stop,
        ..
    } = graph;
    debug_assert_eq!(store.len(), meta.len(), "store and metadata desynced");
    let target_states = meta.iter().filter(|n| n.target).count();
    let quotient_states = classes.map_or(meta.len(), |classes| classes.len());
    let edge_count = sink.len();
    // The visited map has served its purpose; free it before the liveness
    // pass loads the edges back, so the load replaces rather than adds to
    // the peak footprint.  For the spill backend the drop also unlinks the
    // on-disk run file — the runs are exploration-only state.
    let visited_spilled_bytes = visited.spilled_bytes();
    drop(visited);
    let mut quotient_gave_up = false;
    let outcome = if let Some(outcome) = stop {
        outcome
    } else {
        let edges = sink.finish();
        let graph = Graph {
            meta: &meta,
            offsets: &offsets,
            edges: &edges,
        };
        let violation = if effective_dedup == Dedup::Canonical {
            match quotient_liveness_violation(
                &graph,
                store.as_mut(),
                &mut worker,
                full_mask,
                invariant,
            ) {
                Ok(violation) => violation,
                Err(QuotientGaveUp) => {
                    quotient_gave_up = true;
                    None
                }
            }
        } else {
            liveness_violation(&graph, full_mask, options.faults.starve_mask, invariant)
        };
        match violation {
            Some(ce) => CheckOutcome::Falsified(Box::new(ce)),
            None => CheckOutcome::Verified,
        }
    };

    let stats = StoreStats {
        store: options.store,
        spilled_bytes: store.spilled_bytes() + sink.spilled_bytes(),
        visited_spilled_bytes,
        expand_nanos,
        merge_nanos,
    };
    let report = ExploreReport {
        invariant: invariant.name(),
        interleaving: options.interleaving,
        states: meta.len(),
        quotient_states,
        edges: edge_count,
        target_states,
        progress_edges,
        peak_resident_nodes: peak_nodes,
        peak_resident_bytes: peak_bytes,
        state_bytes: store.payload_bytes(),
        outcome,
    };
    Ok((report, stats, quotient_gave_up))
}

/// Edge codes from the root to node `i`, following BFS parent pointers.
fn codes_from_root(meta: &[NodeMeta], mut i: usize) -> Vec<u32> {
    let mut codes = Vec::new();
    while meta[i].parent != NO_PARENT {
        codes.push(meta[i].parent_code);
        i = meta[i].parent as usize;
    }
    codes.reverse();
    codes
}

/// Searches the explored graph for a fair schedule that never makes
/// progress: a strongly connected subgraph of non-target states, reachable
/// from the root through non-target states, whose non-progress internal
/// edges activate every robot the fairness obligation covers.  Crash-stopped
/// robots (constant within an SCC — crash edges strictly grow the mask, so
/// they can never close a cycle) and starved robots are exempt.  Returns the
/// corresponding lasso.
fn liveness_violation(
    graph: &Graph<'_>,
    full_mask: u32,
    starve_mask: u32,
    invariant: &dyn Invariant,
) -> Option<Counterexample> {
    let nodes = graph.meta;
    if nodes[0].target {
        return None;
    }
    let (reachable, bfs_parent) = reach_avoiding_targets(graph);
    // Eligible lasso edges: non-progress, between reachable non-target
    // states.  (Target states are never `reachable`, except the root which
    // was checked above.)
    let eligible = |u: usize, e: &Edge| reachable[u] && reachable[e.to as usize] && !e.progress;

    let (scc, scc_count) = tarjan_scc(graph, &eligible);

    // Fairness coverage per SCC: the union of activation masks over internal
    // eligible edges, plus whether the SCC has any internal edge at all, and
    // the fairness obligation — all robots minus the SCC's crashed mask
    // (every node of an SCC shares it) minus the starved robots.
    let mut coverage = vec![0u32; scc_count];
    let mut has_edge = vec![false; scc_count];
    let mut required = vec![full_mask & !starve_mask; scc_count];
    for u in 0..nodes.len() {
        required[scc[u]] = full_mask & !fault_crashed(nodes[u].fault) & !starve_mask;
        for e in graph.out(u) {
            if eligible(u, e) && scc[e.to as usize] == scc[u] {
                coverage[scc[u]] |= step_activation_mask(e.code);
                has_edge[scc[u]] = true;
            }
        }
    }
    let bad = (0..scc_count).find(|&c| has_edge[c] && coverage[c] & required[c] == required[c])?;

    // Entry node: the first (lowest-index, hence BFS-closest) node of the bad
    // SCC; its prefix avoids targets by construction of `bfs_parent`.
    let entry = (0..nodes.len())
        .find(|&u| scc[u] == bad)
        .expect("non-empty SCC");
    let mut prefix_codes = Vec::new();
    let mut cur = entry;
    while let Some((p, ei)) = bfs_parent[cur] {
        prefix_codes.push(graph.out(p)[ei].code);
        cur = p;
    }
    prefix_codes.reverse();

    let walk = covering_walk(entry, required[bad], &|u| graph.out(u).len(), &|u, i| {
        let e = &graph.out(u)[i];
        (eligible(u, e) && scc[e.to as usize] == bad)
            .then(|| (e.to as usize, step_activation_mask(e.code)))
    });
    let cycle_codes: Vec<u32> = walk.iter().map(|&(u, i)| graph.out(u)[i].code).collect();
    let mut prefix = Vec::new();
    let mut faults = Vec::new();
    realize_codes(&prefix_codes, 0, &mut prefix, &mut faults);
    let mut cycle = Vec::new();
    realize_codes(&cycle_codes, prefix.len(), &mut cycle, &mut faults);
    let what = match invariant.liveness_mode() {
        LivenessMode::Reach => "never reaching the target",
        LivenessMode::ReachRepeatedly => "never making progress again",
    };
    let exempt = full_mask & !required[bad];
    let message = if exempt == 0 {
        format!("fair schedule (every robot activated in each cycle iteration) {what}")
    } else {
        format!(
            "fair-modulo-faults schedule (every non-crashed, non-starved robot activated in \
             each cycle iteration) {what}"
        )
    };
    Some(Counterexample {
        kind: ViolationKind::Liveness,
        message,
        prefix,
        cycle,
        faults,
        starved: starve_mask,
    })
}

/// A non-empty closed walk from `entry` back to `entry` whose edge masks
/// cover `required` (the fairness obligation; possibly a strict subset of
/// the robots, or empty, under fault exemptions) — the lasso cycle of both
/// liveness analyses.  The graph is given like [`tarjan_core`]'s: node
/// `u`'s out-degree, and per edge index its `(target, activation mask)`,
/// or `None` for an edge the walk may not take (outside the bad SCC, or
/// ineligible).  Returned as the walk's `(node, edge index)` pairs.
///
/// Greedy: from the current node, breadth-first to the nearest edge that
/// activates a robot still missing, until everything required is covered;
/// then breadth-first back to `entry`.
fn covering_walk(
    entry: usize,
    required: u32,
    degree: &dyn Fn(usize) -> usize,
    arc: &dyn Fn(usize, usize) -> Option<(usize, u32)>,
) -> Vec<(usize, usize)> {
    // BFS from `from`, stopping as soon as `stop(to, mask)` holds for an
    // edge about to be relaxed; appends the walk from `from` up to and
    // including that edge, and returns the node it ends on.
    let walk_until =
        |from: usize, stop: &dyn Fn(usize, u32) -> bool, walk: &mut Vec<(usize, usize)>| {
            let mut parent: HashMap<usize, (usize, usize)> = HashMap::new();
            let mut queue = VecDeque::from([from]);
            let mut seen: HashSet<usize> = HashSet::from([from]);
            while let Some(u) = queue.pop_front() {
                for i in 0..degree(u) {
                    let Some((to, mask)) = arc(u, i) else {
                        continue;
                    };
                    if stop(to, mask) {
                        let start = walk.len();
                        walk.push((u, i));
                        let mut cur = u;
                        while cur != from {
                            let (p, pi) = parent[&cur];
                            walk.push((p, pi));
                            cur = p;
                        }
                        walk[start..].reverse();
                        return to;
                    }
                    if seen.insert(to) {
                        parent.insert(to, (u, i));
                        queue.push_back(to);
                    }
                }
            }
            unreachable!("the SCC is strongly connected and covers the mask");
        };

    let mut walk = Vec::new();
    let mut covered = 0u32;
    let mut cur = entry;
    while covered & required != required {
        let missing = required & !covered;
        let start = walk.len();
        cur = walk_until(cur, &|_, mask| mask & missing != 0, &mut walk);
        for &(u, i) in &walk[start..] {
            covered |= arc(u, i).expect("walk edges are allowed").1;
        }
    }
    // Close the walk — unconditionally when the obligation was empty (fully
    // exempt SCC), so the lasso cycle is never empty.
    if cur != entry || walk.is_empty() {
        let end = walk_until(cur, &|to, _| to == entry, &mut walk);
        debug_assert_eq!(end, entry);
    }
    walk
}

// ---------------------------------------------------------------------------
// Quotient-sound liveness: threading robot relabelings along quotient edges.
// ---------------------------------------------------------------------------
//
// The canonical quotient identifies states up to ring automorphism and robot
// relabeling, which safety survives but per-robot fairness does not: a cycle
// in the quotient graph whose raw activation masks cover every robot need
// not correspond to any fair concrete cycle (the "robots" named by the masks
// are renamed at every edge), and conversely a fair concrete lasso may
// project onto a quotient cycle whose raw masks look unfair.  The analysis
// below restores soundness *and* completeness by threading the accumulated
// relabeling along quotient edges:
//
// * each stored edge `u --code--> v` carries the deterministic alignment
//   `π = relabel_onto(step(u, code), v)` (robot `i` of the actual successor
//   is robot `π(i)` of the stored representative);
// * a *thread* is a pair `(u, σ)` — a quotient state plus the relabeling
//   accumulated since the thread's seed; traversing the edge above maps
//   `(u, σ) → (v, σ ∘ π⁻¹)`, and the robots *concretely* activated are
//   `σ(mask)`;
// * a fair non-progress concrete lasso exists **iff** some SCC of the
//   threaded graph (seeded at `(u, id)` for every member `u` of a candidate
//   quotient SCC) has an internal edge and its internal `σ(mask)` union
//   covers every robot.  Completeness: a concrete lasso's projection,
//   walked from `(u₀, id)` and repeated `ord(Λ)` times (Λ the relabeling
//   composed along one traversal), is a closed threaded walk whose first
//   traversal already realizes full coverage.  Soundness: a covering closed
//   threaded walk realizes, from any concrete state aligned to its entry, a
//   concrete schedule that repeats the *same* step sequence each traversal
//   (the thread closes, so the alignment recurrence returns to its start),
//   and by protocol equivariance the reached states differ from the entry
//   only by a fixed dihedral symmetry `d` — so the concrete run closes
//   exactly after `ord(d) ≤ n` traversals.  The realization below repeats
//   the walk until the engine's exact behavioural signature closes.  A walk
//   still open after `n + 2` traversals means the protocol's steps are not
//   equivariant under the symmetries the quotient merged (a robot whose two
//   views are equal moves in the engine's fixed first direction however the
//   state is mirrored, and a table mutant's `Move(First)` follows that
//   direction outright), so the analysis gives up and the caller decides
//   liveness by exact exploration.
//
// The whole analysis is a pure function of the stored quotient graph, so
// verdicts and extracted counterexamples remain byte-identical across
// storage backends.

/// Hard cap on threaded (quotient state × relabeling) pairs per candidate
/// SCC.  Thread spaces are bounded by |SCC| × |subgroup generated by the
/// edge relabelings| and stay tiny in practice; the cap is a guard rail —
/// exceeding it makes the quotient analysis give up and the caller fall
/// back to exact exploration, so verdicts never suffer.
const THREAD_CAP: usize = 4_000_000;

/// Marker: the quotient-liveness analysis gave up — the thread cap was
/// exceeded, or the lasso it found does not close concretely — and the
/// caller must decide liveness by exact exploration instead.
struct QuotientGaveUp;

/// One stored edge internal to a candidate SCC, with its relabeling.
struct AlignedEdge {
    to_local: u32,
    mask: u32,
    code: u32,
    perm: RobotPerm,
}

/// One edge of the threaded graph.
struct ThreadEdge {
    to: u32,
    /// The thread-realized activation mask `σ_from(stored mask)`: which
    /// *concrete* robots this edge activates on threads seeded at the
    /// identity.
    mask: u32,
    code: u32,
    perm: RobotPerm,
}

/// The relabeling π of one stored quotient edge `(from, code, to)`: step
/// `from` by the coded step on the worker's scratch engine and align the
/// successor onto the stored representative `to` (robot `i` of the actual
/// successor ↦ robot `π(i)` of `to`).  Pure in the stored bits, hence
/// identical for every storage backend.
fn edge_relabeling<P: Protocol>(
    worker: &mut Worker<P>,
    from: &PackedState,
    to: &PackedState,
    code: u32,
) -> RobotPerm {
    let Worker { engine, report, .. } = worker;
    engine.restore_packed(from);
    engine
        .step_into(&decode_step(code), &mut (), report)
        .expect("stored quotient edge replays");
    let after = engine.pack_behavior();
    relabel_onto(&after, to).expect("quotient edge endpoints share a canonical class")
}

/// Remaps a regular step code through a robot relabeling: the same step
/// kind, its activation set read as concrete robots.  Fault codes never
/// occur here (fault budgets force exact dedup).
fn remap_code(code: u32, phi: &RobotPerm) -> u32 {
    let payload = code >> 2;
    match code & 3 {
        STEP_SSYNC => phi.image_mask(payload) << 2 | STEP_SSYNC,
        STEP_LOOK => (phi.apply(payload as usize) as u32) << 2 | STEP_LOOK,
        STEP_EXECUTE => (phi.apply(payload as usize) as u32) << 2 | STEP_EXECUTE,
        _ => unreachable!("quotient graphs have no fault edges"),
    }
}

/// Decides liveness on the canonical quotient graph — the threaded-analysis
/// counterpart of [`liveness_violation`], sound and complete for per-robot
/// weak fairness.  Requires fault-free canonical exploration (the explorer
/// guarantees it: fault budgets and auxiliary state force exact dedup).
fn quotient_liveness_violation<P: Protocol + Clone>(
    graph: &Graph<'_>,
    store: &mut dyn StateStore,
    worker: &mut Worker<P>,
    full_mask: u32,
    invariant: &dyn Invariant,
) -> Result<Option<Counterexample>, QuotientGaveUp> {
    let meta = graph.meta;
    if meta[0].target {
        return Ok(None);
    }
    let k = full_mask.count_ones() as usize;
    assert!(
        k <= MAX_PERM_ROBOTS,
        "quotient liveness supports k ≤ {MAX_PERM_ROBOTS}"
    );
    let (reachable, bfs_parent) = reach_avoiding_targets(graph);
    let eligible = |u: usize, e: &Edge| reachable[u] && reachable[e.to as usize] && !e.progress;
    let (scc, scc_count) = tarjan_scc(graph, &eligible);

    // Candidate SCCs: any internal eligible edge at all.  No coverage
    // prefilter on the raw masks — the quotient renames robots at every
    // edge, so only the threaded analysis can evaluate fairness coverage.
    let mut has_edge = vec![false; scc_count];
    for u in 0..meta.len() {
        for e in graph.out(u) {
            if eligible(u, e) && scc[e.to as usize] == scc[u] {
                has_edge[scc[u]] = true;
            }
        }
    }
    // Group candidate members once, in node-id order; candidates are then
    // processed in order of their first (lowest-id) member — deterministic
    // in the quotient graph alone.
    let mut slot = vec![u32::MAX; scc_count];
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    for (u, &c) in scc.iter().enumerate().take(meta.len()) {
        if !has_edge[c] {
            continue;
        }
        if slot[c] == u32::MAX {
            slot[c] = candidates.len() as u32;
            candidates.push(Vec::new());
        }
        candidates[slot[c] as usize].push(u as u32);
    }

    for members in &candidates {
        if let Some(ce) = threaded_violation_in_scc(
            graph,
            store,
            worker,
            members,
            &scc,
            &eligible,
            &bfs_parent,
            invariant,
            full_mask,
        )? {
            return Ok(Some(ce));
        }
    }
    Ok(None)
}

/// Builds the threaded graph of one candidate SCC, looks for a covering
/// threaded SCC, and realizes the concrete counterexample if one exists.
#[allow(clippy::too_many_arguments)]
fn threaded_violation_in_scc<P: Protocol + Clone>(
    graph: &Graph<'_>,
    store: &mut dyn StateStore,
    worker: &mut Worker<P>,
    members: &[u32],
    scc: &[usize],
    eligible: &dyn Fn(usize, &Edge) -> bool,
    bfs_parent: &[Option<(usize, usize)>],
    invariant: &dyn Invariant,
    full_mask: u32,
) -> Result<Option<Counterexample>, QuotientGaveUp> {
    let c = scc[members[0] as usize];
    let k = full_mask.count_ones() as usize;
    let identity = RobotPerm::identity(k);
    if members.len() >= THREAD_CAP {
        return Err(QuotientGaveUp);
    }

    // Stored representatives of the members, and the aligned internal edges.
    let local: HashMap<u32, u32> = members
        .iter()
        .enumerate()
        .map(|(i, &u)| (u, i as u32))
        .collect();
    let packed: Vec<PackedState> = members.iter().map(|&u| store.get(u as usize)).collect();
    let mut out: Vec<Vec<AlignedEdge>> = members.iter().map(|_| Vec::new()).collect();
    for (lu, &u) in members.iter().enumerate() {
        for e in graph.out(u as usize) {
            if !eligible(u as usize, e) || scc[e.to as usize] != c {
                continue;
            }
            let lv = local[&e.to];
            let perm = edge_relabeling(worker, &packed[lu], &packed[lv as usize], e.code);
            out[lu].push(AlignedEdge {
                to_local: lv,
                mask: step_activation_mask(e.code),
                code: e.code,
                perm,
            });
        }
    }

    // Threaded BFS, every member seeded at the identity relabeling (seeding
    // at the identity is complete: a concrete lasso's threaded projection
    // from `(u₀, id)` closes within `ord(Λ)` traversals and already covers
    // fully on its first — see the module commentary above).
    let mut thread_of: HashMap<(u32, RobotPerm), u32> = HashMap::new();
    let mut threads: Vec<(u32, RobotPerm)> = Vec::new();
    let mut t_out: Vec<Vec<ThreadEdge>> = Vec::new();
    for lu in 0..members.len() as u32 {
        thread_of.insert((lu, identity), lu);
        threads.push((lu, identity));
        t_out.push(Vec::new());
    }
    let mut cursor = 0usize;
    while cursor < threads.len() {
        let (lu, sigma) = threads[cursor];
        let mut edges_here = Vec::with_capacity(out[lu as usize].len());
        for edge in &out[lu as usize] {
            let next_sigma = sigma.compose(&edge.perm.inverse());
            let key = (edge.to_local, next_sigma);
            let to = match thread_of.get(&key) {
                Some(&t) => t,
                None => {
                    if threads.len() >= THREAD_CAP {
                        return Err(QuotientGaveUp);
                    }
                    let t = threads.len() as u32;
                    thread_of.insert(key, t);
                    threads.push(key);
                    t_out.push(Vec::new());
                    t
                }
            };
            edges_here.push(ThreadEdge {
                to,
                mask: sigma.image_mask(edge.mask),
                code: edge.code,
                perm: edge.perm,
            });
        }
        t_out[cursor] = edges_here;
        cursor += 1;
    }

    // SCC + fairness coverage on the threaded graph.
    let (t_scc, t_count) = tarjan_core(threads.len(), &|v| t_out[v].len(), &|v, i| {
        Some(t_out[v][i].to as usize)
    });
    let mut coverage = vec![0u32; t_count];
    let mut t_has_edge = vec![false; t_count];
    for v in 0..threads.len() {
        for e in &t_out[v] {
            if t_scc[e.to as usize] == t_scc[v] {
                coverage[t_scc[v]] |= e.mask;
                t_has_edge[t_scc[v]] = true;
            }
        }
    }
    let Some(bad) = (0..t_count).find(|&c| t_has_edge[c] && coverage[c] & full_mask == full_mask)
    else {
        return Ok(None);
    };
    // Entry: the lowest-index thread node of the bad threaded SCC, and a
    // covering closed thread-walk through it.
    let entry_t = (0..threads.len())
        .find(|&v| t_scc[v] == bad)
        .expect("non-empty SCC");
    let walk: Vec<(u32, RobotPerm)> =
        covering_walk(entry_t, full_mask, &|v| t_out[v].len(), &|v, i| {
            let e = &t_out[v][i];
            (t_scc[e.to as usize] == bad).then_some((e.to as usize, e.mask))
        })
        .into_iter()
        .map(|(v, i)| (t_out[v][i].code, t_out[v][i].perm))
        .collect();

    // Stored-tree prefix root → entry's stored node, with per-edge
    // alignments (the worker's engine is the shared scratch).
    let (entry_local, _) = threads[entry_t];
    let entry_node = members[entry_local as usize] as usize;
    let mut tree: Vec<(usize, usize)> = Vec::new();
    let mut cur = entry_node;
    while let Some((p, ei)) = bfs_parent[cur] {
        tree.push((p, ei));
        cur = p;
    }
    tree.reverse();
    let mut prefix_perms: Vec<(u32, RobotPerm)> = Vec::new();
    for &(p, ei) in &tree {
        let e = &graph.out(p)[ei];
        let from = store.get(p);
        let to = store.get(e.to as usize);
        prefix_perms.push((e.code, edge_relabeling(worker, &from, &to, e.code)));
    }

    // Realize concretely.  The stored root *is* the concrete initial state,
    // so the alignment φ starts at the identity; every realized step remaps
    // its stored activation set through the current φ, then advances φ by
    // the edge's relabeling.
    let mut engine = worker.engine.clone();
    engine.restore_packed(&store.get(0));
    let mut report = rr_corda::StepReport::default();
    let mut phi = identity;
    let mut prefix: Vec<SchedulerStep> = Vec::new();
    for (code, perm) in prefix_perms {
        let step = decode_step(remap_code(code, &phi));
        engine
            .step_into(&step, &mut (), &mut report)
            .expect("realized prefix step replays");
        prefix.push(step);
        phi = phi.compose(&perm.inverse());
    }
    debug_assert_eq!(
        engine.canonical_sig(),
        packed[entry_local as usize].canonical_sig(),
        "prefix realization left the entry's canonical class"
    );
    let entry_sig = engine.behavior_sig();

    // Repeat the covering walk until the concrete state closes on the exact
    // entry state (each traversal applies a fixed dihedral symmetry, so
    // closure happens within ord ≤ n traversals).
    let (n, _) = packed[entry_local as usize].instance();
    let max_traversals = n + 2;
    let mut cycle: Vec<SchedulerStep> = Vec::new();
    let mut closed = false;
    for _ in 0..max_traversals {
        for &(code, ref perm) in &walk {
            let step = decode_step(remap_code(code, &phi));
            engine
                .step_into(&step, &mut (), &mut report)
                .expect("realized cycle step replays");
            cycle.push(step);
            phi = phi.compose(&perm.inverse());
        }
        if engine.behavior_sig() == entry_sig {
            closed = true;
            break;
        }
    }
    if !closed {
        return Err(QuotientGaveUp);
    }

    let what = match invariant.liveness_mode() {
        LivenessMode::Reach => "never reaching the target",
        LivenessMode::ReachRepeatedly => "never making progress again",
    };
    Ok(Some(Counterexample {
        kind: ViolationKind::Liveness,
        message: format!("fair schedule (every robot activated in each cycle iteration) {what}"),
        prefix,
        cycle,
        faults: Vec::new(),
        starved: 0,
    }))
}

/// The non-target states reachable from the root through non-target states
/// (a fair path that visits a target has satisfied a Reach obligation, so
/// lassos must be reachable while avoiding targets), plus the BFS tree as
/// per-node `(parent, edge index)` — shared by the exact and the quotient
/// liveness analyses.
#[allow(clippy::type_complexity)]
fn reach_avoiding_targets(graph: &Graph<'_>) -> (Vec<bool>, Vec<Option<(usize, usize)>>) {
    let nodes = graph.meta;
    let mut reachable = vec![false; nodes.len()];
    let mut bfs_parent: Vec<Option<(usize, usize)>> = vec![None; nodes.len()];
    reachable[0] = true;
    let mut queue = VecDeque::from([0usize]);
    while let Some(u) = queue.pop_front() {
        for (ei, e) in graph.out(u).iter().enumerate() {
            let to = e.to as usize;
            if !nodes[to].target && !reachable[to] {
                reachable[to] = true;
                bfs_parent[to] = Some((u, ei));
                queue.push_back(to);
            }
        }
    }
    (reachable, bfs_parent)
}

/// Iterative Tarjan SCC over the subgraph of eligible edges.  Every node gets
/// an SCC id (nodes without eligible edges become singletons); returns the
/// per-node id assignment and the number of SCCs.
fn tarjan_scc(graph: &Graph<'_>, eligible: &dyn Fn(usize, &Edge) -> bool) -> (Vec<usize>, usize) {
    tarjan_core(graph.meta.len(), &|v| graph.out(v).len(), &|v, i| {
        let e = &graph.out(v)[i];
        eligible(v, e).then_some(e.to as usize)
    })
}

/// [`tarjan_scc`]'s algorithm over any graph given by an out-degree function
/// and an indexed edge-target function (`None` = skip this edge) — also run
/// over the threaded (state × relabeling) graph of the quotient-liveness
/// analysis.
fn tarjan_core(
    n: usize,
    degree: &dyn Fn(usize) -> usize,
    edge_target: &dyn Fn(usize, usize) -> Option<usize>,
) -> (Vec<usize>, usize) {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc = vec![0usize; n];
    let mut next_index = 0usize;
    let mut scc_count = 0usize;

    // Explicit DFS stack: (node, next edge position); a node is initialized
    // the first time its frame is on top (pos == 0 implies first visit, as
    // pos is incremented before any child frame is pushed).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let mut advanced = false;
            let out_degree = degree(v);
            while *pos < out_degree {
                let target = edge_target(v, *pos);
                *pos += 1;
                let Some(w) = target else {
                    continue;
                };
                if index[w] == usize::MAX {
                    call.push((w, 0));
                    advanced = true;
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if advanced {
                continue;
            }
            // v is finished.
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("tarjan stack");
                    on_stack[w] = false;
                    scc[w] = scc_count;
                    if w == v {
                        break;
                    }
                }
                scc_count += 1;
            }
            let low_v = low[v];
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                low[parent] = low[parent].min(low_v);
            }
        }
    }
    (scc, scc_count)
}

/// Result of replaying a counterexample on a fresh engine.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Whether the replay reproduced exactly the reported violation.
    pub reproduced: bool,
    /// What the replay observed (the violation message, or why it failed to
    /// reproduce).
    pub detail: String,
}

/// The victim's fresh-Look offset within `step`, for arming a one-shot
/// corruption at replay time (0 for its solo Look; its position within the
/// round's robot vector for SSYNC, where every member Looks freshly).
fn replay_look_offset(step: &SchedulerStep, robot: RobotId) -> Result<u64, String> {
    match step {
        SchedulerStep::Look(r) if *r == robot => Ok(0),
        SchedulerStep::SsyncRound(robots) => robots
            .iter()
            .position(|r| r == robot)
            .map(|p| p as u64)
            .ok_or_else(|| "corrupt directive names a robot outside its round".to_string()),
        _ => Err("corrupt directive does not match its step".to_string()),
    }
}

/// Replays `ce` on a fresh [`Engine`] and checks that it demonstrates its
/// violation: a safety trace must run cleanly up to its final step and
/// violate there; a liveness lasso must run cleanly, return to the exact
/// state it entered the cycle with, and make no progress / reach no target
/// during the cycle (so the adversary can repeat it forever, fairly).
///
/// Fault directives are honoured: a [`FaultDirective::Crash`] removes its
/// robot from the legal schedule (replay fails if a later step activates
/// it) and switches the invariant views to the crashed mask; a
/// [`FaultDirective::Corrupt`] arms a one-shot
/// [`FaultModel::CorruptLook`] for exactly its step.  The fairness check
/// exempts crashed and starved robots, mirroring the explorer's per-SCC
/// obligation.
///
/// # Errors
///
/// Returns `Err` only when the initial configuration is rejected by the
/// engine.
pub fn replay_counterexample<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    ce: &Counterexample,
) -> Result<ReplayReport, SimError> {
    let engine_options = EngineOptions::for_protocol(protocol);
    let mut engine = Engine::new(protocol.clone(), initial.clone(), engine_options)?;
    let mut aug = invariant.initial_aug(initial);
    let reach_mode = invariant.liveness_mode() == LivenessMode::Reach;
    let full_mask = RobotSet::first(engine.num_robots()).bits();
    let mut crashed: u32 = 0;

    // Applies the directives attached to schedule position `at`, then the
    // step itself; returns (progress, target) or the violation message.
    let apply = |engine: &mut Engine<P>,
                 aug: &mut AugState,
                 crashed: &mut u32,
                 step: &SchedulerStep,
                 at: usize|
     -> Result<(bool, bool), String> {
        let mut armed = false;
        for fault in &ce.faults {
            if fault.at() != at {
                continue;
            }
            match *fault {
                FaultDirective::Crash { robot, .. } => *crashed |= 1 << robot,
                FaultDirective::Corrupt { robot, kind, .. } => {
                    let offset = replay_look_offset(step, robot)?;
                    engine.arm_fault(FaultModel::CorruptLook {
                        look: engine.look_count() + offset,
                        kind,
                    });
                    armed = true;
                }
            }
        }
        if step.activated().bits() & u64::from(*crashed) != 0 {
            if armed {
                engine.arm_fault(FaultModel::None);
            }
            return Err("schedule activates a crashed robot".to_string());
        }
        let before = engine.save_state();
        let result = engine.step(step, &mut ());
        if armed {
            engine.arm_fault(FaultModel::None);
        }
        let report = result.map_err(|e| e.to_string())?;
        let progress = invariant.observe_step(aug, &report, engine.configuration());
        let after = engine.save_state();
        invariant.check_edge(
            &state_view(&before, *crashed),
            &state_view(&after, *crashed),
            aug,
        )?;
        let target = reach_mode && invariant.is_target(&state_view(&after, *crashed), aug);
        Ok((progress, target))
    };

    match ce.kind {
        ViolationKind::Safety => {
            for (idx, step) in ce.prefix.iter().enumerate() {
                let last = idx + 1 == ce.prefix.len();
                match apply(&mut engine, &mut aug, &mut crashed, step, idx) {
                    Ok(_) if last => {
                        return Ok(ReplayReport {
                            reproduced: false,
                            detail: "final step did not violate".to_string(),
                        })
                    }
                    Ok(_) => {}
                    Err(detail) => {
                        return Ok(ReplayReport {
                            reproduced: last,
                            detail,
                        })
                    }
                }
            }
            Ok(ReplayReport {
                reproduced: false,
                detail: "empty safety trace".to_string(),
            })
        }
        ViolationKind::Liveness => {
            for (idx, step) in ce.prefix.iter().enumerate() {
                if let Err(detail) = apply(&mut engine, &mut aug, &mut crashed, step, idx) {
                    return Ok(ReplayReport {
                        reproduced: false,
                        detail: format!("prefix violated safety: {detail}"),
                    });
                }
            }
            if ce.cycle.is_empty() {
                return Ok(ReplayReport {
                    reproduced: false,
                    detail: "empty lasso cycle".to_string(),
                });
            }
            // Crash directives positioned at the cycle entry (trailing crash
            // edges of the explorer's prefix) take effect before the entry
            // checks.
            for fault in &ce.faults {
                if let FaultDirective::Crash { at, robot } = *fault {
                    if at == ce.prefix.len() {
                        crashed |= 1 << robot;
                    }
                }
            }
            let loop_state = engine.save_state();
            let loop_behavior = engine.pack_behavior();
            let loop_aug_bits = aug.key_bits();
            if reach_mode && invariant.is_target(&state_view(&loop_state, crashed), &aug) {
                return Ok(ReplayReport {
                    reproduced: false,
                    detail: "lasso entry already satisfies the target".to_string(),
                });
            }
            let required = full_mask & !u64::from(crashed | ce.starved);
            let mut progress_seen = false;
            let mut target_seen = false;
            let mut activated = 0u64;
            for (idx, step) in ce.cycle.iter().enumerate() {
                match apply(
                    &mut engine,
                    &mut aug,
                    &mut crashed,
                    step,
                    ce.prefix.len() + idx,
                ) {
                    Ok((progress, target)) => {
                        progress_seen |= progress;
                        target_seen |= target;
                        activated |= step.activated().bits();
                    }
                    Err(detail) => {
                        return Ok(ReplayReport {
                            reproduced: false,
                            detail: format!("cycle violated safety: {detail}"),
                        });
                    }
                }
            }
            let closes = engine.pack_behavior() == loop_behavior && aug.key_bits() == loop_aug_bits;
            let fair = activated & required == required && activated & u64::from(crashed) == 0;
            let reproduced = closes && fair && !progress_seen && !target_seen;
            let detail = if reproduced {
                format!(
                    "lasso closes after {} steps, activates all non-exempt robots, no progress",
                    ce.cycle.len()
                )
            } else {
                format!("closes={closes} fair={fair} progress={progress_seen} target={target_seen}")
            };
            Ok(ReplayReport { reproduced, detail })
        }
    }
}

/// A deliberately broken protocol: `inner` with **one decision-table entry
/// overridden** — whenever the observing robot's supermin configuration view
/// equals `trigger`, the protocol returns `replacement` instead of the
/// inner decision.
///
/// Since an oblivious min-CORDA protocol *is* a function from view classes
/// to decisions, this is exactly a single-entry table mutation; the
/// exhaustive checker must detect it with a counterexample that replays.
#[derive(Debug, Clone)]
pub struct MutatedProtocol<P> {
    inner: P,
    trigger: View,
    replacement: Decision,
}

impl<P: Protocol> MutatedProtocol<P> {
    /// Wraps `inner`, overriding the decision of the view class whose
    /// supermin is `trigger`.
    #[must_use]
    pub fn new(inner: P, trigger: View, replacement: Decision) -> Self {
        MutatedProtocol {
            inner,
            trigger,
            replacement,
        }
    }

    /// The trigger for the configuration class of `config`.
    #[must_use]
    pub fn trigger_for(config: &Configuration) -> View {
        View::new(config.gap_sequence()).supermin()
    }
}

impl<P: Protocol> Protocol for MutatedProtocol<P> {
    fn name(&self) -> &str {
        "mutant"
    }

    fn capability(&self) -> rr_corda::MultiplicityCapability {
        self.inner.capability()
    }

    fn requires_exclusivity(&self) -> bool {
        self.inner.requires_exclusivity()
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        if snapshot.supermin() == self.trigger {
            self.replacement
        } else {
            self.inner.compute(snapshot)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::invariant::{AlignmentInvariant, GatheringInvariant, SearchingInvariant};
    use rr_core::{AlignProtocol, GatheringProtocol};
    use rr_ring::enumerate::enumerate_rigid_configurations;

    const MODES: [InterleavingMode; 2] = [
        InterleavingMode::SsyncSubsets,
        InterleavingMode::AsyncPhases,
    ];

    /// Reference for [`frontier_codes`]: every scheduler step the adversary
    /// may take next from `view`, materialized — each non-empty subset in
    /// bitmask order (SSYNC), or one phase per robot in id order (ASYNC).
    fn frontier(mode: InterleavingMode, view: &rr_corda::SchedulerView) -> Vec<SchedulerStep> {
        let k = view.num_robots;
        match mode {
            InterleavingMode::SsyncSubsets => (1u32..1 << k)
                .map(|mask| {
                    SchedulerStep::SsyncRound((0..k).filter(|&r| mask & (1 << r) != 0).collect())
                })
                .collect(),
            InterleavingMode::AsyncPhases => (0..k)
                .map(|r| {
                    if view.pending.contains(r) {
                        SchedulerStep::Execute(r)
                    } else {
                        SchedulerStep::Look(r)
                    }
                })
                .collect(),
        }
    }

    /// `k` robots on nodes `0..k`: the ones in `pending` with an idle action
    /// pending, the others ready.
    fn robots_pending(k: usize, pending: &[RobotId]) -> Vec<RobotState> {
        (0..k)
            .map(|r| RobotState {
                phase: if pending.contains(&r) {
                    rr_corda::robot::Phase::IdlePending
                } else {
                    rr_corda::robot::Phase::Ready
                },
                ..RobotState::new(r)
            })
            .collect()
    }

    #[test]
    fn frontier_codes_match_the_nondeterministic_scheduler() {
        // The coded frontier is the reference frontier, step for step, in
        // the same order — for ready robots, pending robots and both modes.
        let c = Configuration::from_gaps_at_origin(&[1, 1, 4]);
        let mut engine =
            Engine::with_default_options(rr_corda::protocol::GreedyGapWalker, c).unwrap();
        engine.step(&SchedulerStep::Look(1), &mut ()).unwrap();
        for mode in MODES {
            let expected = frontier(mode, &engine.scheduler_view());
            let mut codes = Vec::new();
            frontier_codes(mode, engine.robots(), 0, &mut codes);
            let decoded: Vec<SchedulerStep> = codes.iter().map(|&c| decode_step(c)).collect();
            assert_eq!(decoded, expected, "mode={mode}");
            for (code, step) in codes.iter().zip(&expected) {
                assert_eq!(
                    u64::from(step_activation_mask(*code)),
                    step.activated().bits()
                );
            }
        }
    }

    #[test]
    fn ssync_frontier_enumerates_every_nonempty_subset() {
        let mut codes = Vec::new();
        frontier_codes(
            InterleavingMode::SsyncSubsets,
            &robots_pending(3, &[]),
            0,
            &mut codes,
        );
        assert_eq!(codes.len(), 7);
        let mut masks: Vec<u32> = codes.iter().map(|&c| step_activation_mask(c)).collect();
        masks.sort_unstable();
        assert_eq!(masks, (1..=7).collect::<Vec<u32>>());
        assert!(codes.iter().all(|&c| matches!(
            decode_step(c),
            SchedulerStep::SsyncRound(set) if !set.is_empty()
        )));
    }

    #[test]
    fn async_frontier_advances_each_robot_by_one_phase() {
        let mut codes = Vec::new();
        frontier_codes(
            InterleavingMode::AsyncPhases,
            &robots_pending(4, &[1, 3]),
            0,
            &mut codes,
        );
        let decoded: Vec<SchedulerStep> = codes.iter().map(|&c| decode_step(c)).collect();
        assert_eq!(
            decoded,
            vec![
                SchedulerStep::Look(0),
                SchedulerStep::Execute(1),
                SchedulerStep::Look(2),
                SchedulerStep::Execute(3),
            ]
        );
        for (r, &code) in codes.iter().enumerate() {
            assert_eq!(step_activation_mask(code), 1 << r);
        }
    }

    #[test]
    fn gathering_is_verified_exhaustively_on_small_rings() {
        // Every rigid initial class of (6, 3) and (7, 3), both interleaving
        // spaces: safety + liveness proved, not sampled.
        for (n, k) in [(6usize, 3usize), (7, 3)] {
            for initial in enumerate_rigid_configurations(n, k) {
                for mode in MODES {
                    let report = check_protocol_with_stats(
                        &GatheringProtocol::new(),
                        &initial,
                        &GatheringInvariant::new(),
                        &ExploreOptions::new(mode),
                    )
                    .unwrap()
                    .0;
                    assert!(
                        report.verified(),
                        "n={n} k={k} mode={mode}: {:?}",
                        report.outcome
                    );
                    assert!(report.target_states > 0, "n={n} k={k} mode={mode}");
                    assert!(report.quotient_states <= report.states);
                    assert!(report.edges > 0);
                    assert!(report.peak_resident_nodes >= report.states);
                }
            }
        }
    }

    #[test]
    fn quotient_dedup_strictly_shrinks_symmetric_state_spaces() {
        // Two idle robots on a 6-ring: the concrete ASYNC graph has all four
        // ready/idle-pending phase combinations, but "robot 0 pending" and
        // "robot 1 pending" are isomorphic under the reflection exchanging
        // the two robots — the canonical quotient merges them (4 → 3).
        let initial = Configuration::from_gaps_at_origin(&[1, 3]);
        let options = ExploreOptions::new(InterleavingMode::AsyncPhases);
        let concrete = check_protocol_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &GatheringInvariant::new(),
            &options,
        )
        .unwrap()
        .0;
        let quotient = check_protocol_quotient_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &GatheringInvariant::new(),
            &options,
        )
        .unwrap()
        .0;
        assert_eq!(concrete.states, 4);
        assert_eq!(quotient.states, 3);
        assert_eq!(concrete.quotient_states, 3);
    }

    #[test]
    fn idle_mutant_yields_a_liveness_counterexample_that_replays() {
        // Mutate ONE decision-table entry of the gathering protocol: robots
        // observing the initial configuration class stay idle.  From that
        // class no robot ever moves, so a fair schedule loops forever — the
        // checker must find the lasso and it must replay on the engine.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let mutant = MutatedProtocol::new(
            GatheringProtocol::new(),
            MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
            Decision::Idle,
        );
        for mode in MODES {
            let report = check_protocol_with_stats(
                &mutant,
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            let ce = report.counterexample().expect("mutant must be falsified");
            assert_eq!(ce.kind, ViolationKind::Liveness);
            assert!(!ce.cycle.is_empty());
            let replay =
                replay_counterexample(&mutant, &initial, &GatheringInvariant::new(), ce).unwrap();
            assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
            assert!(!ce.render().is_empty());
        }
    }

    #[test]
    fn replay_rejects_a_lasso_whose_cycle_does_not_close() {
        // The replay is a certificate check, so it must also say no: cut
        // the last step off the idle mutant's ASYNC lasso cycle.  Every
        // ASYNC step flips one robot's phase, so the cut cycle ends one
        // phase away from its entry state and cannot close.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let mutant = MutatedProtocol::new(
            GatheringProtocol::new(),
            MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
            Decision::Idle,
        );
        let inv = GatheringInvariant::new();
        let options = ExploreOptions::new(InterleavingMode::AsyncPhases);
        let report = check_protocol_with_stats(&mutant, &initial, &inv, &options)
            .unwrap()
            .0;
        let mut cut = report.counterexample().expect("mutant falsified").clone();
        assert!(cut.cycle.len() > 1, "{}", cut.render());
        cut.cycle.pop();
        let replay = replay_counterexample(&mutant, &initial, &inv, &cut).unwrap();
        assert!(!replay.reproduced, "{}", replay.detail);
        assert!(replay.detail.contains("closes=false"), "{}", replay.detail);
    }

    #[test]
    fn quotient_liveness_agrees_with_concrete_on_verified_instances() {
        // The tentpole soundness claim, smallest form: the full quotient
        // check (safety + σ-threaded liveness) returns the same verdict as
        // the concrete check on verified cells, while exploring only the
        // canonical classes.  tests/exhaustive_small_instances.rs pins the
        // same equality over the whole proved grid.
        for (n, k) in [(6usize, 3usize), (7, 3)] {
            let initial = enumerate_rigid_configurations(n, k).remove(0);
            for mode in MODES {
                let concrete = check_protocol_with_stats(
                    &GatheringProtocol::new(),
                    &initial,
                    &GatheringInvariant::new(),
                    &ExploreOptions::new(mode),
                )
                .unwrap()
                .0;
                let quotient = check_protocol_quotient_with_stats(
                    &GatheringProtocol::new(),
                    &initial,
                    &GatheringInvariant::new(),
                    &ExploreOptions::new(mode),
                )
                .unwrap()
                .0;
                assert!(concrete.verified(), "n={n} k={k} mode={mode}");
                assert!(quotient.verified(), "n={n} k={k} mode={mode}");
                assert_eq!(quotient.states, concrete.quotient_states, "mode={mode}");
                assert!(quotient.states <= concrete.states);
            }
        }
    }

    #[test]
    fn quotient_liveness_finds_the_idle_mutant_lasso_and_it_replays() {
        // The other half of soundness: on a falsified cell the quotient
        // checker must still find the fair lasso, and — because the
        // counterexample is realized over *concrete* robots by unwinding the
        // accumulated relabelings — it must replay on the engine verbatim.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let mutant = MutatedProtocol::new(
            GatheringProtocol::new(),
            MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
            Decision::Idle,
        );
        for mode in MODES {
            let report = check_protocol_quotient_with_stats(
                &mutant,
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            let ce = report.counterexample().expect("mutant must be falsified");
            assert_eq!(ce.kind, ViolationKind::Liveness);
            assert!(!ce.cycle.is_empty());
            let replay =
                replay_counterexample(&mutant, &initial, &GatheringInvariant::new(), ce).unwrap();
            assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
        }
    }

    #[test]
    fn quotient_liveness_handles_a_genuinely_merged_class() {
        // Two idle robots on a 6-ring: the quotient merges "robot 0 pending"
        // with "robot 1 pending" (4 concrete states → 3 classes), so the
        // starving lasso the checker reports passes through a class whose
        // concrete realization needs a non-identity relabeling.  The verdict
        // must match the concrete one and the trace must replay.
        let initial = Configuration::from_gaps_at_origin(&[1, 3]);
        let inv = GatheringInvariant::new();
        let options = ExploreOptions::new(InterleavingMode::AsyncPhases);
        let concrete =
            check_protocol_with_stats(&rr_corda::protocol::IdleProtocol, &initial, &inv, &options)
                .unwrap()
                .0;
        let quotient = check_protocol_quotient_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &inv,
            &options,
        )
        .unwrap()
        .0;
        let concrete_ce = concrete.counterexample().expect("idle never gathers");
        let ce = quotient.counterexample().expect("idle never gathers");
        assert_eq!(ce.kind, ViolationKind::Liveness);
        assert_eq!(concrete_ce.kind, ViolationKind::Liveness);
        assert_eq!(quotient.states, 3);
        assert_eq!(concrete.states, 4);
        let replay =
            replay_counterexample(&rr_corda::protocol::IdleProtocol, &initial, &inv, ce).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn spill_store_reports_are_byte_identical_to_mem() {
        // The spill backend must be observationally invisible: identical
        // ExploreReport (and counterexample, on falsified cells) for every
        // budget — including budgets landing exactly on a cluster edge, the
        // point where the resident cache evicts precisely as a window seals.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let inv = GatheringInvariant::new();
        for mode in MODES {
            let base = ExploreOptions::new(mode);
            let (mem, mem_stats) =
                check_protocol_with_stats(&GatheringProtocol::new(), &initial, &inv, &base)
                    .unwrap();
            assert_eq!(mem_stats.store, StoreKind::Mem);
            assert_eq!(mem_stats.spilled_bytes, 0);
            let per_state = mem.state_bytes / mem.states as u64;
            let cluster_bytes = per_state * crate::store::CLUSTER as u64;
            for budget in [0, 1, cluster_bytes, 2 * cluster_bytes, u64::MAX] {
                let (spill, spill_stats) = check_protocol_with_stats(
                    &GatheringProtocol::new(),
                    &initial,
                    &inv,
                    &base.with_store(StoreKind::Spill).with_mem_budget(budget),
                )
                .unwrap();
                assert_eq!(spill, mem, "mode={mode} budget={budget}");
                assert_eq!(spill_stats.store, StoreKind::Spill);
                assert!(spill_stats.spilled_bytes > 0, "mode={mode}");
            }
        }
        // Falsified cell: the counterexample inside the report must also be
        // bit-for-bit identical (it is part of the PartialEq above, but
        // assert the interesting piece explicitly).
        let mutant = MutatedProtocol::new(
            GatheringProtocol::new(),
            MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
            Decision::Idle,
        );
        for mode in MODES {
            let base = ExploreOptions::new(mode);
            let mem = check_protocol_with_stats(&mutant, &initial, &inv, &base)
                .unwrap()
                .0;
            let spill = check_protocol_with_stats(
                &mutant,
                &initial,
                &inv,
                &base.with_store(StoreKind::Spill).with_mem_budget(0),
            )
            .unwrap()
            .0;
            assert_eq!(mem, spill, "mode={mode}");
            assert_eq!(
                mem.counterexample().unwrap().render(),
                spill.counterexample().unwrap().render(),
                "mode={mode}"
            );
        }
    }

    #[test]
    fn collision_mutant_yields_a_minimal_safety_counterexample_that_replays() {
        // C* on (8, 4) contains a robot whose clockwise neighbour is
        // occupied; overriding that class's decision with "move" lets the
        // adversary force a collision.  BFS order makes the reported trace
        // minimal: one SSYNC round, or Look + Execute under ASYNC.
        let initial = Configuration::from_gaps_at_origin(&[0, 0, 1, 3]);
        let mutant = MutatedProtocol::new(
            AlignProtocol::new(),
            MutatedProtocol::<AlignProtocol>::trigger_for(&initial),
            Decision::Move(rr_corda::ViewIndex::First),
        );
        for (mode, minimal_len) in [
            (InterleavingMode::SsyncSubsets, 1),
            (InterleavingMode::AsyncPhases, 2),
        ] {
            let report = check_protocol_with_stats(
                &mutant,
                &initial,
                &AlignmentInvariant::new(),
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            let ce = report.counterexample().expect("mutant must be falsified");
            assert_eq!(ce.kind, ViolationKind::Safety);
            assert_eq!(ce.prefix.len(), minimal_len, "mode={mode}: {}", ce.render());
            assert!(ce.cycle.is_empty());
            let replay =
                replay_counterexample(&mutant, &initial, &AlignmentInvariant::new(), ce).unwrap();
            assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
            assert!(replay.detail.contains("exclusivity") || replay.detail.contains("occupied"));
        }
    }

    #[test]
    fn alignment_is_verified_exhaustively() {
        for initial in enumerate_rigid_configurations(7, 3) {
            for mode in MODES {
                let report = check_protocol_with_stats(
                    &AlignProtocol::new(),
                    &initial,
                    &AlignmentInvariant::new(),
                    &ExploreOptions::new(mode),
                )
                .unwrap()
                .0;
                assert!(report.verified(), "mode={mode}: {:?}", report.outcome);
            }
        }
    }

    #[test]
    fn searching_liveness_falsifies_a_protocol_that_never_clears() {
        // The idle protocol trivially never clears the ring: the checker
        // reports a fair no-progress lasso under the perpetual-searching
        // invariant, and the lasso replays.
        let initial = Configuration::from_gaps_at_origin(&[1, 3]); // n=6, k=2
        let inv = SearchingInvariant::new();
        let report = check_protocol_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &inv,
            &ExploreOptions::new(InterleavingMode::AsyncPhases),
        )
        .unwrap()
        .0;
        let ce = report.counterexample().expect("idle never clears");
        assert_eq!(ce.kind, ViolationKind::Liveness);
        assert_eq!(report.progress_edges, 0);
        let replay =
            replay_counterexample(&rr_corda::protocol::IdleProtocol, &initial, &inv, ce).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn budget_hit_exactly_at_the_frontier_edge_is_reported_as_incomplete() {
        // ASYNC from a rigid (7, 3) class: the root has exactly 3 successors
        // (Look 0, Look 1, Look 2), all distinct.  A budget of 3 is hit
        // precisely when the LAST frontier edge of the root discovers its
        // state: both earlier root edges were recorded (and reference
        // discovered states), yet the root's expansion is still incomplete —
        // discovered (3) and completed expansions (0) must say so
        // separately, where the old report claimed `explored = 3`.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        let report = check_protocol_with_stats(
            &GatheringProtocol::new(),
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(InterleavingMode::AsyncPhases).with_max_states(3),
        )
        .unwrap()
        .0;
        assert_eq!(
            report.outcome,
            CheckOutcome::BudgetExceeded {
                discovered: 3,
                completed_expansions: 0,
            }
        );
        // One more state of budget: the root's whole frontier fits, its
        // expansion completes, and the budget trips during node 1's
        // expansion instead — completed expansions advance to 1.
        let report = check_protocol_with_stats(
            &GatheringProtocol::new(),
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(InterleavingMode::AsyncPhases).with_max_states(4),
        )
        .unwrap()
        .0;
        assert_eq!(
            report.outcome,
            CheckOutcome::BudgetExceeded {
                discovered: 4,
                completed_expansions: 1,
            }
        );
        // Budget reporting is backend-independent like everything else.
        let spilled = check_protocol_with_stats(
            &GatheringProtocol::new(),
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(InterleavingMode::AsyncPhases)
                .with_max_states(4)
                .with_store(StoreKind::Spill),
        )
        .unwrap()
        .0;
        assert_eq!(spilled, report);
    }

    #[test]
    fn replay_masks_hold_more_than_32_robots() {
        // An idle team never gathers: one full round is a fair lasso that
        // closes at once.  With 33 robots the replay's fairness masks need
        // more than 32 bits.
        let mut gaps = vec![0; 33];
        gaps[32] = 7;
        let initial = Configuration::from_gaps_at_origin(&gaps);
        let ce = Counterexample {
            kind: ViolationKind::Liveness,
            message: "idle".to_string(),
            prefix: Vec::new(),
            cycle: vec![SchedulerStep::SsyncRound(RobotSet::first(33))],
            faults: Vec::new(),
            starved: 0,
        };
        let replay = replay_counterexample(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &GatheringInvariant::new(),
            &ce,
        )
        .unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn replay_reports_a_step_naming_no_robot() {
        // A hand-written schedule may name a robot the engine does not have,
        // even one beyond any robot set: the replay says so and does not
        // panic.
        let initial = Configuration::from_gaps_at_origin(&[1, 3]);
        for robot in [2, RobotSet::CAPACITY + 35] {
            let ce = Counterexample {
                kind: ViolationKind::Safety,
                message: "unknown robot".to_string(),
                prefix: vec![SchedulerStep::Look(robot)],
                cycle: Vec::new(),
                faults: Vec::new(),
                starved: 0,
            };
            let replay = replay_counterexample(
                &rr_corda::protocol::IdleProtocol,
                &initial,
                &GatheringInvariant::new(),
                &ce,
            )
            .unwrap();
            assert!(replay.reproduced, "robot {robot}: {}", replay.detail);
            assert!(replay.detail.contains("unknown robot"), "{}", replay.detail);
        }
    }

    #[test]
    fn render_is_compact() {
        let mut ce = Counterexample {
            kind: ViolationKind::Liveness,
            message: "m".to_string(),
            prefix: vec![SchedulerStep::Look(1), SchedulerStep::Execute(1)],
            cycle: vec![SchedulerStep::SsyncRound(RobotSet::from_bits(0b101))],
            faults: Vec::new(),
            starved: 0,
        };
        assert_eq!(ce.render(), "m: L1 E1 (R{0,2})*");
        ce.faults.push(FaultDirective::Crash { at: 1, robot: 2 });
        ce.faults.push(FaultDirective::Corrupt {
            at: 0,
            robot: 1,
            kind: CorruptionKind::PhantomMultiplicity,
        });
        ce.starved = 0b100;
        assert_eq!(
            ce.render(),
            "m: L1 E1 (R{0,2})* [crash 2 @1] [corrupt 1 phantom @0] [starved {2}]"
        );
    }

    #[test]
    fn fault_codes_round_trip_and_label_their_activations() {
        // Crash codes: no engine step, no activation, robot recoverable.
        for r in 0..20usize {
            let code = crash_code(r);
            assert_eq!(crash_code_robot(code), Some(r));
            assert_eq!(corrupt_code_parts(code), None);
            assert_eq!(code_engine_step(code), None);
            assert_eq!(step_activation_mask(code), 0);
        }
        // ASYNC corrupt codes: underlying solo Look, offset 0.
        for r in 0..20usize {
            for kind in CorruptionKind::ALL {
                let code = corrupt_look_code(r, kind);
                assert_eq!(crash_code_robot(code), None);
                assert_eq!(corrupt_code_parts(code), Some((r, kind, 0)));
                assert_eq!(code_engine_step(code), Some(SchedulerStep::Look(r)));
                assert_eq!(step_activation_mask(code), 1 << r);
            }
        }
        // SSYNC corrupt codes: underlying round, offset = victim's rank.
        let mask = 0b1101u32;
        for (victim, offset) in [(0usize, 0u64), (2, 1), (3, 2)] {
            for kind in CorruptionKind::ALL {
                let code = corrupt_round_code(mask, victim, kind);
                assert_eq!(corrupt_code_parts(code), Some((victim, kind, offset)));
                assert_eq!(
                    code_engine_step(code),
                    Some(SchedulerStep::SsyncRound(RobotSet::from_bits(0b1101)))
                );
                assert_eq!(step_activation_mask(code), mask);
            }
        }
        // Fault words: crashed mask and corruption count round-trip.
        let word = fault_word(0b1010, 3);
        assert_eq!(fault_crashed(word), 0b1010);
        assert_eq!(fault_corrupts(word), 3);
    }

    #[test]
    fn crashed_robots_leave_the_frontier() {
        let c = Configuration::from_gaps_at_origin(&[1, 1, 4]);
        let engine = Engine::with_default_options(rr_corda::protocol::GreedyGapWalker, c).unwrap();
        let mut codes = Vec::new();
        frontier_codes(
            InterleavingMode::AsyncPhases,
            engine.robots(),
            0b010,
            &mut codes,
        );
        let decoded: Vec<SchedulerStep> = codes.iter().map(|&c| decode_step(c)).collect();
        assert_eq!(
            decoded,
            vec![SchedulerStep::Look(0), SchedulerStep::Look(2)]
        );
        frontier_codes(
            InterleavingMode::SsyncSubsets,
            engine.robots(),
            0b010,
            &mut codes,
        );
        assert!(codes.iter().all(|&c| step_activation_mask(c) & 0b010 == 0));
        assert_eq!(codes.len(), 3, "subsets of {{0, 2}}");
    }

    #[test]
    fn empty_fault_budget_explores_byte_identically() {
        // The fault-free adversary and a FaultBudget::none() adversary are
        // the SAME exploration: identical reports, field for field.
        let initial = enumerate_rigid_configurations(7, 3).remove(0);
        for mode in MODES {
            let plain = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            let budgeted = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode).with_faults(FaultBudget::none()),
            )
            .unwrap()
            .0;
            assert_eq!(plain, budgeted, "mode={mode}");
        }
    }

    #[test]
    fn one_crash_fault_falsifies_plain_gathering_with_a_replaying_lasso() {
        // GatheringInvariant demands ALL robots gather; a crash-stopped
        // robot never moves again, so the adversary crashes one robot and
        // loops fairly-modulo-the-crash forever.  The counterexample must
        // carry the crash directive and replay on a fresh engine.
        let initial = enumerate_rigid_configurations(6, 3).remove(0);
        for mode in MODES {
            let report = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
            )
            .unwrap()
            .0;
            let ce = report.counterexample().expect("crash defeats gathering");
            assert_eq!(ce.kind, ViolationKind::Liveness);
            assert!(
                ce.faults
                    .iter()
                    .any(|f| matches!(f, FaultDirective::Crash { .. })),
                "mode={mode}: {}",
                ce.render()
            );
            let replay = replay_counterexample(
                &GatheringProtocol::new(),
                &initial,
                &GatheringInvariant::new(),
                ce,
            )
            .unwrap();
            assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
        }
    }

    #[test]
    fn crash_branching_strictly_grows_the_state_space() {
        let initial = enumerate_rigid_configurations(6, 3).remove(0);
        let inv = rr_core::invariant::CrashTolerantGatheringInvariant::new();
        for mode in MODES {
            let plain = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &inv,
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            let crashy = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &inv,
                &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
            )
            .unwrap()
            .0;
            assert!(
                crashy.states > plain.states,
                "mode={mode}: {} !> {}",
                crashy.states,
                plain.states
            );
        }
    }

    #[test]
    fn corrupt_look_branching_verifies_or_replays() {
        // Gathering under one corrupted Look: whatever the verdict, a
        // falsification must be a certificate (the replay reproduces it,
        // corruption directive and all).  The liveness-only invariant keeps
        // the durable-gathering safety clause out of the way: a corrupted
        // Look may legitimately break an existing multiplicity.
        let initial = enumerate_rigid_configurations(6, 3).remove(0);
        let inv = rr_core::invariant::EventualGatheringInvariant::new();
        for mode in MODES {
            let report = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &inv,
                &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_corrupt_looks(1)),
            )
            .unwrap()
            .0;
            match report.counterexample() {
                None => assert!(report.verified(), "mode={mode}: {:?}", report.outcome),
                Some(ce) => {
                    let replay =
                        replay_counterexample(&GatheringProtocol::new(), &initial, &inv, ce)
                            .unwrap();
                    assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
                }
            }
        }
    }

    #[test]
    fn starving_one_robot_yields_an_unfair_lasso_that_replays() {
        // IdleProtocol never gathers; with robot 0 starved forever the
        // reported lasso must not activate robot 0 in its cycle, must name
        // the starved robot, and must replay under the relaxed fairness.
        let initial = Configuration::from_gaps_at_origin(&[1, 3]); // n=6, k=2
        let report = check_protocol_with_stats(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(InterleavingMode::AsyncPhases)
                .with_faults(FaultBudget::none().with_starved(0b01)),
        )
        .unwrap()
        .0;
        let ce = report.counterexample().expect("idle never gathers");
        assert_eq!(ce.kind, ViolationKind::Liveness);
        assert_eq!(ce.starved, 0b01);
        for step in &ce.cycle {
            assert_eq!(
                step.activated().bits() & 0b01,
                0,
                "cycle must not need the starved robot: {}",
                ce.render()
            );
        }
        let replay = replay_counterexample(
            &rr_corda::protocol::IdleProtocol,
            &initial,
            &GatheringInvariant::new(),
            ce,
        )
        .unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn crash_tolerant_gathering_under_one_crash_has_a_verdict_that_replays() {
        // The degradation question itself: does gathering-of-the-survivors
        // hold under one crash?  Either answer is acceptable — but a
        // falsification must replay.  (The E14 experiment sweeps the grid.)
        let initial = enumerate_rigid_configurations(6, 3).remove(0);
        let inv = rr_core::invariant::CrashTolerantGatheringInvariant::new();
        for mode in MODES {
            let report = check_protocol_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &inv,
                &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
            )
            .unwrap()
            .0;
            if let Some(ce) = report.counterexample() {
                let replay =
                    replay_counterexample(&GatheringProtocol::new(), &initial, &inv, ce).unwrap();
                assert!(replay.reproduced, "mode={mode}: {}", replay.detail);
            }
        }
    }
}
