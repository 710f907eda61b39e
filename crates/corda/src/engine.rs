//! The unified execution engine: owns the configuration, executes
//! Look–Compute–Move cycles through **one** stepping pipeline
//! ([`Engine::step`]) and enforces the model's rules (instantaneous moves,
//! exclusivity when required, pending moves under asynchrony).
//!
//! Every way of advancing a simulation — an atomic cycle, a semi-synchronous
//! round, a split Look or Execute under the asynchronous adversary — is a
//! [`SchedulerStep`] applied by [`Engine::step`]; there are no other entry
//! points.  Observation is composable rather than hard-wired: `step` drives
//! any [`Monitor`] (look/move/step hooks), and [`Engine::run`] loops
//! scheduler → step → monitor until a stop condition holds.

use rr_ring::{Configuration, Direction, NodeId, Ring};
use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::fault::{CorruptionKind, FaultEvent, FaultModel};
use crate::monitor::Monitor;
use crate::packed::{self, PackedRobot, PackedState};
use crate::protocol::{Decision, Protocol, ViewIndex};
use crate::robot::{Phase, RobotId, RobotSet, RobotState};
use crate::scheduler::{Scheduler, SchedulerStep, SchedulerView};
use crate::snapshot::{MultiplicityCapability, Snapshot};

/// Process-wide count of engine advancements (debug builds only).
#[cfg(debug_assertions)]
static STEP_PROBE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A process-wide count of every [`Engine::step_into`] call (which
/// [`Engine::step`] and [`Engine::run`] go through) across **all** engines,
/// maintained only in debug builds (always 0 in release, where the hot path
/// stays untouched).
///
/// This exists for one kind of test: proving that a code path performed
/// *zero* engine work — e.g. that a sweep served from the content-addressed
/// result cache never touched an engine.  Sample it before and after the
/// operation and assert the delta.
#[must_use]
pub fn debug_step_probe() -> u64 {
    #[cfg(debug_assertions)]
    {
        STEP_PROBE.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

#[inline]
fn bump_step_probe() {
    #[cfg(debug_assertions)]
    STEP_PROBE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// Which global direction is presented as `views[0]` of a snapshot.
///
/// Correct protocols must be insensitive to this; the option exists so tests
/// can verify that insensitivity and so the adversary can be as nasty as the
/// model allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ViewOrder {
    /// Always present the clockwise view first (deterministic default).
    #[default]
    CwFirst,
    /// Always present the counter-clockwise view first.
    CcwFirst,
    /// Alternate between the two on successive Look operations.
    Alternating,
}

/// Options controlling an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineOptions {
    /// The multiplicity-detection capability granted to the robots.
    pub capability: MultiplicityCapability,
    /// Whether a move onto an occupied node is a fatal error (true for the
    /// exclusive tasks, false for gathering).
    pub enforce_exclusivity: bool,
    /// Snapshot view ordering policy.
    pub view_order: ViewOrder,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            capability: MultiplicityCapability::None,
            enforce_exclusivity: true,
            view_order: ViewOrder::CwFirst,
        }
    }
}

impl EngineOptions {
    /// Options suitable for a given protocol: capability and exclusivity are
    /// taken from the protocol's declaration.
    #[must_use]
    pub fn for_protocol<P: Protocol + ?Sized>(protocol: &P) -> Self {
        EngineOptions {
            capability: protocol.capability(),
            enforce_exclusivity: protocol.requires_exclusivity(),
            ..EngineOptions::default()
        }
    }

    /// Sets the view ordering policy.
    #[must_use]
    pub fn with_view_order(mut self, order: ViewOrder) -> Self {
        self.view_order = order;
        self
    }
}

/// Record of one executed move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveRecord {
    /// The robot that moved.
    pub robot: RobotId,
    /// Node it left.
    pub from: NodeId,
    /// Node it reached.
    pub to: NodeId,
    /// Global step counter at which the move completed.
    pub step: u64,
}

/// What one application of [`Engine::step`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepReport {
    /// Moves executed by this step, in execution order.
    pub moves: Vec<MoveRecord>,
    /// Number of *fresh* Look + Compute phases performed (pending decisions
    /// that were merely re-confirmed do not count).
    pub looks: u32,
    /// Number of idle decisions completed (robot activated, chose to stay).
    pub idles: u32,
}

impl StepReport {
    /// Whether any robot moved during this step.
    #[must_use]
    pub fn moved(&self) -> bool {
        !self.moves.is_empty()
    }
}

/// Why an [`Engine::run`] loop stopped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The user-supplied stop condition became true.
    ConditionMet,
    /// The step budget was exhausted before the stop condition held.
    StepBudgetExhausted,
    /// The simulation failed (e.g. an exclusivity violation).
    Failed(SimError),
}

/// Summary of an [`Engine::run`] loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunReport {
    /// Why the loop stopped.
    pub outcome: RunOutcome,
    /// Number of scheduler steps executed.
    pub steps: u64,
    /// Number of robot moves executed.
    pub moves: u64,
}

impl RunReport {
    /// Whether the run stopped because the stop condition was met.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        matches!(self.outcome, RunOutcome::ConditionMet)
    }
}

/// A saved execution state of an [`Engine`]: the configuration, the per-robot
/// bookkeeping and the step counters — everything [`Engine::step`] reads or
/// writes except the protocol, the options and the armed fault.
///
/// Produced by [`Engine::save_state`] and consumed by
/// [`Engine::restore_state`]; this is the branch-and-bound primitive the
/// exhaustive model checker (`rr_checker::explore`) is built on: save, apply
/// one frontier step, record the successor, restore, apply the next.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineState {
    config: Configuration,
    robots: Vec<RobotState>,
    step: u64,
    moves: u64,
    looks: u64,
}

impl EngineState {
    /// The saved configuration.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// The saved per-robot states.
    #[must_use]
    pub fn robots(&self) -> &[RobotState] {
        &self.robots
    }

    /// Bit-packs this state into a single small allocation; the exact
    /// inverse is [`Engine::restore_packed`], which reproduces the state
    /// **byte for byte** (configuration, per-robot phases *and* the monotone
    /// counters).  See [`crate::packed`] for the format.
    #[must_use]
    pub fn pack(&self) -> PackedState {
        let n = self.config.ring().len();
        packed::encode(
            n,
            self.step,
            self.moves,
            self.looks,
            self.robots.iter().map(|r| PackedRobot {
                node: r.node,
                phase: packed::phase_code(n, r.node, r.phase),
                cycles: r.cycles,
                moves: r.moves,
            }),
        )
    }
}

/// A memo of Look decisions, keyed by the packed per-node occupancy counts
/// and the observing node.
///
/// Soundness: an oblivious protocol's decision is a pure function of the
/// robot's [`Snapshot`], and for a *fixed* view-order policy and capability
/// the snapshot is a pure function of `(configuration, node)` — so caching
/// the decision changes nothing observable (counters, reports and monitor
/// hooks all fire identically).  The exhaustive model checker, which
/// revisits the same configurations along vast numbers of interleavings, is
/// the intended customer.  The memo stays valid across
/// `save_state`/`restore_state` excursions and is dropped on
/// [`Engine::reset`] (a reset may change the protocol or the options).
#[derive(Debug, Clone, Default)]
struct LookMemo {
    enabled: bool,
    /// Dense table for exclusive configurations on rings with
    /// `n ≤ DENSE_MEMO_N` nodes, indexed `occupancy_bitmask * n + node`:
    /// 0 = not yet computed, otherwise the encoded decision + 1.  Allocated
    /// lazily on first use (≤ `2^12 · 12` bytes).
    dense: Vec<u8>,
    map: std::collections::HashMap<(u64, u32), Decision, crate::packed::SigHashBuilder>,
}

/// Largest ring size served by the dense memo table.
///
/// The table is `2^n · n` bytes — the cap is what keeps `enable_look_memo`
/// from being a memory bomb on larger rings (`n = 12` tops out at 48 KiB;
/// `n = 26` would already be 1.7 GiB).  Exclusive configurations above the
/// cap fall back to the sparse hash map like everything else; above
/// [`SPARSE_MEMO_N`] the memo is bypassed entirely (the per-node counts no
/// longer pack into the 64-bit key).
const DENSE_MEMO_N: usize = 12;

/// Largest ring size served by the sparse memo map (counts packed 4 bits per
/// node into a `u64`).
const SPARSE_MEMO_N: usize = 16;

/// How a configuration is presented to the memo.
enum MemoKey {
    /// Exclusive occupancy on a small ring: a direct index into the dense
    /// table.
    Dense(usize),
    /// General per-node counts packed 4 bits each: a hash-map key.
    Sparse(u64),
    /// Instance too large for either encoding; memo bypassed.
    None,
}

/// Classifies the configuration for the memo (see [`MemoKey`]).  O(k): both
/// encodings are read off the configuration's incremental occupancy cycle
/// (and its O(1) exclusivity counter) instead of re-scanning all `n` nodes;
/// the produced key values are identical to the historical full-occupancy
/// re-hash.
fn memo_key(config: &Configuration, node: NodeId) -> MemoKey {
    let n = config.n();
    let anchor = config.occupied_anchor();
    if n <= DENSE_MEMO_N && config.is_exclusive() {
        let mut mask = 0usize;
        for v in config.occupied_cycle(anchor, Direction::Cw) {
            mask |= 1 << v;
        }
        return MemoKey::Dense(mask * n + node);
    }
    if n > SPARSE_MEMO_N {
        return MemoKey::None;
    }
    let mut packed = 0u64;
    for v in config.occupied_cycle(anchor, Direction::Cw) {
        let c = config.count_at(v);
        if c > 15 {
            return MemoKey::None;
        }
        packed |= u64::from(c) << (4 * v);
    }
    MemoKey::Sparse(packed)
}

/// Encodes a decision into the dense table's non-zero byte range.
fn encode_decision(decision: Decision) -> u8 {
    match decision {
        Decision::Idle => 1,
        Decision::Move(ViewIndex::First) => 2,
        Decision::Move(ViewIndex::Second) => 3,
    }
}

fn decode_decision(byte: u8) -> Decision {
    match byte {
        1 => Decision::Idle,
        2 => Decision::Move(ViewIndex::First),
        3 => Decision::Move(ViewIndex::Second),
        _ => unreachable!("dense memo byte"),
    }
}

/// The Look–Compute–Move execution engine.
///
/// One `Engine` owns one run: the protocol, the evolving configuration and
/// the per-robot bookkeeping (pending decisions, cycle counts).  It is
/// advanced exclusively through [`Engine::step`]; a run is observed through
/// a [`Monitor`].
#[derive(Debug, Clone)]
pub struct Engine<P> {
    protocol: P,
    ring: Ring,
    config: Configuration,
    robots: Vec<RobotState>,
    options: EngineOptions,
    memo: LookMemo,
    /// Engine-owned scratch snapshot the Look pipeline fills in place:
    /// after warm-up, the snapshot capture on the memo-miss path
    /// performs zero heap allocations (the protocol's Compute may still
    /// allocate).
    scratch: Snapshot,
    /// The armed fault schedule ([`FaultModel::None`] unless armed).
    fault: FaultModel,
    /// The step report [`Engine::run`] refills on every step, kept across
    /// runs and [`Engine::reset`] so a recycled engine's run allocates
    /// nothing once the report has grown.
    report: StepReport,
    step: u64,
    moves: u64,
    looks: u64,
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine for `protocol` starting from `initial`.
    ///
    /// One robot is created per unit of multiplicity of the initial
    /// configuration; robots on the same node receive consecutive ids.
    pub fn new(
        protocol: P,
        initial: Configuration,
        options: EngineOptions,
    ) -> Result<Self, SimError> {
        let mut robots = Vec::with_capacity(initial.num_robots());
        Self::place_robots(&mut robots, &initial, options)?;
        Ok(Engine {
            protocol,
            ring: initial.ring(),
            config: initial,
            robots,
            options,
            memo: LookMemo::default(),
            scratch: Snapshot::empty(),
            fault: FaultModel::None,
            report: StepReport::default(),
            step: 0,
            moves: 0,
            looks: 0,
        })
    }

    /// Arms (or, with [`FaultModel::None`], disarms) a fault schedule on
    /// this engine.
    ///
    /// The model is *configuration*, not execution state: it survives
    /// [`Engine::save_state`]/[`Engine::restore_state`] excursions (like the
    /// protocol and the options) and is cleared by [`Engine::reset`].
    pub fn arm_fault(&mut self, model: FaultModel) {
        self.fault = model;
    }

    /// The currently armed fault schedule ([`FaultModel::None`] by default).
    #[must_use]
    pub fn fault_model(&self) -> FaultModel {
        self.fault
    }

    /// Enables the Look-decision memo: identical observable behaviour,
    /// `compute` evaluated once per `(configuration, node)` pair instead of
    /// once per Look (see the `LookMemo` internals for the soundness
    /// argument).  Dropped again by [`Engine::reset`].
    ///
    /// Storage is bounded: exclusive configurations on rings with
    /// `n ≤ 12` get a dense `2^n · n`-byte table (≤ 48 KiB), anything else
    /// up to `n ≤ 16` goes to a sparse hash map, and larger instances bypass
    /// the memo entirely — enabling it is never a memory hazard.
    ///
    /// # Panics
    ///
    /// Panics under [`ViewOrder::Alternating`], where the snapshot is *not*
    /// a pure function of `(configuration, node)`.
    pub fn enable_look_memo(&mut self) {
        assert!(
            self.options.view_order != ViewOrder::Alternating,
            "look memo is unsound under an alternating view order"
        );
        self.memo.enabled = true;
    }

    /// Validates `initial` against `options` and (re)fills `robots` with one
    /// robot per unit of multiplicity.  A run holds at most
    /// [`RobotSet::CAPACITY`] robots, the most a scheduler step can name.
    fn place_robots(
        robots: &mut Vec<RobotState>,
        initial: &Configuration,
        options: EngineOptions,
    ) -> Result<(), SimError> {
        if initial.num_robots() > RobotSet::CAPACITY {
            return Err(SimError::BadInitialConfiguration {
                reason: format!(
                    "{} robots exceed the engine's capacity of {}",
                    initial.num_robots(),
                    RobotSet::CAPACITY
                ),
            });
        }
        if options.enforce_exclusivity && !initial.is_exclusive() {
            return Err(SimError::BadInitialConfiguration {
                reason: "exclusivity is required but the initial configuration has a multiplicity"
                    .to_string(),
            });
        }
        robots.clear();
        for v in initial.occupied_nodes() {
            for _ in 0..initial.count_at(v) {
                robots.push(RobotState::new(v));
            }
        }
        if robots.is_empty() {
            return Err(SimError::BadInitialConfiguration {
                reason: "no robot in the initial configuration".to_string(),
            });
        }
        Ok(())
    }

    /// Rewinds this engine to a fresh run of `protocol` from `initial`,
    /// reusing the robot vector, run report and configuration storage of
    /// the previous run.
    ///
    /// Semantically identical to replacing the engine with
    /// `Engine::new(protocol, initial.clone(), options)?`, but without the
    /// per-run allocations — this is what makes batch sweeps reuse one engine
    /// per worker.  On error the engine is left in an unspecified (but safe)
    /// state and must be reset again before use.
    pub fn reset(
        &mut self,
        protocol: P,
        initial: &Configuration,
        options: EngineOptions,
    ) -> Result<(), SimError> {
        Self::place_robots(&mut self.robots, initial, options)?;
        self.ring = initial.ring();
        self.config.clone_from(initial);
        self.protocol = protocol;
        self.options = options;
        // Memoized decisions are *not* carried over: the memo key is the
        // `(configuration, node)` pair but the memoized value also depends
        // on the protocol, the capability and the view order, all of which
        // this reset may have replaced.  Dropping the memo (and
        // its enabled flag — callers re-opt-in per run) makes a recycled
        // engine behaviourally indistinguishable from a fresh one, which the
        // `reset_equivalence` suite checks.
        self.memo = LookMemo::default();
        // Fault schedules are per-run adversaries: a recycled engine starts
        // fault-free, like a fresh one (callers re-arm per run).
        self.fault = FaultModel::None;
        self.step = 0;
        self.moves = 0;
        self.looks = 0;
        Ok(())
    }

    /// Saves the current execution state (configuration, robot bookkeeping,
    /// step counters) for a later [`Engine::restore_state`].
    ///
    /// The protocol, the options and the armed fault are **not** part of
    /// the saved state: a save/restore pair brackets a speculative excursion
    /// of the *same* run, which is exactly what an exhaustive state-space
    /// search needs.
    #[must_use]
    pub fn save_state(&self) -> EngineState {
        EngineState {
            config: self.config.clone(),
            robots: self.robots.clone(),
            step: self.step,
            moves: self.moves,
            looks: self.looks,
        }
    }

    /// Rewinds the engine to a state previously captured with
    /// [`Engine::save_state`], reusing the configuration and robot storage.
    ///
    /// # Panics
    ///
    /// Panics if `state` belongs to a different instance shape (ring size or
    /// robot count mismatch) — states may only be restored into the engine
    /// family they were saved from.
    pub fn restore_state(&mut self, state: &EngineState) {
        assert_eq!(
            state.config.n(),
            self.ring.len(),
            "restore_state: ring size mismatch"
        );
        assert_eq!(
            state.robots.len(),
            self.robots.len(),
            "restore_state: robot count mismatch"
        );
        self.config.clone_from(&state.config);
        self.robots.clone_from(&state.robots);
        self.step = state.step;
        self.moves = state.moves;
        self.looks = state.looks;
    }

    /// Like [`Engine::save_state`], but reuses the storage of `state`
    /// instead of allocating — the zero-allocation save the model checker's
    /// inner loop runs on.
    pub fn save_state_into(&self, state: &mut EngineState) {
        state.config.clone_from(&self.config);
        state.robots.clone_from(&self.robots);
        state.step = self.step;
        state.moves = self.moves;
        state.looks = self.looks;
    }

    /// Bit-packs the current execution state directly from the live engine:
    /// identical bytes to `self.save_state().pack()`, without materializing
    /// the intermediate [`EngineState`].
    #[must_use]
    pub fn pack_state(&self) -> PackedState {
        let n = self.ring.len();
        packed::encode(
            n,
            self.step,
            self.moves,
            self.looks,
            self.robots.iter().map(|r| PackedRobot {
                node: r.node,
                phase: packed::phase_code(n, r.node, r.phase),
                cycles: r.cycles,
                moves: r.moves,
            }),
        )
    }

    /// Bit-packs the **behavioural projection** of the current state: like
    /// [`Engine::pack_state`] but with every monotone counter (global
    /// step/move/look and per-robot cycle/move counts) stored as zero, which
    /// shrinks the packed words to the header plus `⌈log₂ n⌉ + 2` bits per
    /// robot.
    ///
    /// Restoring it reproduces the configuration and every robot phase
    /// exactly, with counters reset — the canonical representative of the
    /// state's behaviour class ([`PackedState::behavior_sig`] equality).
    /// Under a non-[`ViewOrder::Alternating`] view order the counters never
    /// influence behaviour, so the model checker stores these instead of
    /// full states: the old checker kept whatever counter values the first
    /// discovery happened to carry (a search artifact); the projection is
    /// both smaller and better defined.
    #[must_use]
    pub fn pack_behavior(&self) -> PackedState {
        let n = self.ring.len();
        packed::encode(
            n,
            0,
            0,
            0,
            self.robots.iter().map(|r| PackedRobot {
                node: r.node,
                phase: packed::phase_code(n, r.node, r.phase),
                cycles: 0,
                moves: 0,
            }),
        )
    }

    /// The behavioural signature of the current state, straight from the
    /// live engine: identical to `self.pack_state().behavior_sig()` without
    /// touching the codec (see [`PackedState::behavior_sig`]).
    #[must_use]
    pub fn behavior_sig(&self) -> crate::packed::StateSig {
        let n = self.ring.len();
        packed::behavior_sig_from(
            n,
            self.robots.len(),
            self.robots
                .iter()
                .map(|r| (r.node, packed::phase_code(n, r.node, r.phase))),
        )
    }

    /// The canonical (symmetry-quotient) signature of the current state,
    /// straight from the live engine: identical to
    /// `self.pack_state().canonical_sig()` (see
    /// [`PackedState::canonical_sig`] for the encoding and its bounds).
    #[must_use]
    pub fn canonical_sig(&self) -> crate::packed::StateSig {
        let n = self.ring.len();
        packed::canonical_sig_from(
            n,
            self.robots.len(),
            self.robots
                .iter()
                .map(|r| (r.node, packed::phase_code(n, r.node, r.phase))),
        )
    }

    /// Rewinds the engine to a state previously packed with
    /// [`EngineState::pack`] / [`Engine::pack_state`], reusing the
    /// configuration and robot storage.  The restored state is byte-identical
    /// to the one that was packed: `engine.restore_packed(&s.pack())`
    /// followed by `engine.save_state()` yields `s` again, exactly.
    ///
    /// # Panics
    ///
    /// Panics if `packed` belongs to a different instance shape (ring size or
    /// robot count mismatch) — like [`Engine::restore_state`], packed states
    /// may only be restored into the engine family they were saved from.
    pub fn restore_packed(&mut self, packed: &PackedState) {
        let mut decoder = packed::Decoder::new(packed);
        assert_eq!(
            decoder.n,
            self.ring.len(),
            "restore_packed: ring size mismatch"
        );
        assert_eq!(
            decoder.k,
            self.robots.len(),
            "restore_packed: robot count mismatch"
        );
        self.step = decoder.step;
        self.moves = decoder.moves;
        self.looks = decoder.looks;
        for robot in &mut self.robots {
            let r = decoder.next_robot();
            robot.node = r.node;
            robot.phase = packed::code_phase(decoder.n, r.node, r.phase);
            robot.cycles = r.cycles;
            robot.moves = r.moves;
        }
        // The occupancy vector is the multiset of robot positions (one robot
        // per unit of multiplicity, an Engine invariant since construction).
        self.config
            .assign_positions(self.robots.iter().map(|r| r.node));
    }

    /// Creates an engine with the options implied by the protocol declaration
    /// (capability + exclusivity).
    pub fn with_default_options(protocol: P, initial: Configuration) -> Result<Self, SimError> {
        let options = EngineOptions::for_protocol(&protocol);
        Engine::new(protocol, initial, options)
    }

    /// The current configuration.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// The underlying ring.
    #[must_use]
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// The protocol under simulation.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of robots.
    #[must_use]
    pub fn num_robots(&self) -> usize {
        self.robots.len()
    }

    /// Per-robot engine state.
    #[must_use]
    pub fn robots(&self) -> &[RobotState] {
        &self.robots
    }

    /// Current node of each robot, indexed by robot id.
    #[must_use]
    pub fn positions(&self) -> Vec<NodeId> {
        self.robots.iter().map(|r| r.node).collect()
    }

    /// Global step counter (incremented once per Look and once per
    /// Move/Idle execution).
    #[must_use]
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Total number of moves executed so far.
    #[must_use]
    pub fn move_count(&self) -> u64 {
        self.moves
    }

    /// Total number of Look operations executed so far.
    #[must_use]
    pub fn look_count(&self) -> u64 {
        self.looks
    }

    /// Engine options.
    #[must_use]
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// A scheduler-facing summary of the current state.
    #[must_use]
    pub fn scheduler_view(&self) -> SchedulerView {
        // Or-ing one bit per robot, rather than collecting the pending ids,
        // keeps this per-step pass free of data-dependent branches.
        let pending = self.robots.iter().enumerate().fold(0, |bits, (r, robot)| {
            bits | u64::from(robot.has_pending()) << r
        });
        SchedulerView {
            step: self.step,
            pending: RobotSet::from_bits(pending),
            num_robots: self.robots.len(),
        }
    }

    fn check_robot(&self, robot: RobotId) -> Result<(), SimError> {
        if robot >= self.robots.len() {
            Err(SimError::UnknownRobot {
                robot,
                k: self.robots.len(),
            })
        } else {
            Ok(())
        }
    }

    fn first_direction(&self) -> Direction {
        match self.options.view_order {
            ViewOrder::CwFirst => Direction::Cw,
            ViewOrder::CcwFirst => Direction::Ccw,
            ViewOrder::Alternating => {
                if self.looks.is_multiple_of(2) {
                    Direction::Cw
                } else {
                    Direction::Ccw
                }
            }
        }
    }

    /// Materializes the snapshot at `node` and runs the protocol on it
    /// (memo-miss path of the Look phase).  The snapshot is filled into the
    /// engine-owned scratch buffers: O(k) and, after warm-up, zero heap
    /// allocations.
    fn compute_decision(&mut self, node: NodeId, first_dir: Direction) -> Decision {
        self.scratch
            .capture_into(&self.config, node, self.options.capability, first_dir);
        self.protocol.compute(&self.scratch)
    }

    /// [`Engine::compute_decision`] for a corrupted Look: the snapshot is
    /// captured truthfully, then perturbed by [`Snapshot::corrupt`] *before*
    /// the protocol sees it.
    fn compute_decision_corrupt(
        &mut self,
        node: NodeId,
        first_dir: Direction,
        kind: CorruptionKind,
    ) -> Decision {
        self.scratch
            .capture_into(&self.config, node, self.options.capability, first_dir);
        self.scratch.corrupt(kind);
        self.protocol.compute(&self.scratch)
    }

    /// Look + Compute phase of one robot (pipeline stage, private).
    ///
    /// Takes a snapshot of the **current** configuration and stores the
    /// resulting pending action.  If the robot already has a pending action
    /// the call leaves it untouched: the CORDA model never lets a robot look
    /// twice without completing its cycle in between.  Returns whether a
    /// fresh Look was performed.
    fn look_compute<M: Monitor + ?Sized>(
        &mut self,
        robot: RobotId,
        monitor: &mut M,
    ) -> Result<bool, SimError> {
        self.check_robot(robot)?;
        if self.robots[robot].has_pending() {
            return Ok(false);
        }
        let node = self.robots[robot].node;
        let first_dir = self.first_direction();
        // An armed sensor corruption hijacks exactly one fresh Look (matched
        // by its global look ordinal).  The memo is bypassed — neither read
        // nor written — because its key is `(configuration, node)` only,
        // which is unsound in both directions for a snapshot that lies.
        let corruption = self.fault.corruption_at(self.looks);
        let key = if self.memo.enabled && corruption.is_none() {
            memo_key(&self.config, node)
        } else {
            MemoKey::None
        };
        let decision = if let Some(kind) = corruption {
            self.compute_decision_corrupt(node, first_dir, kind)
        } else {
            match key {
                MemoKey::Dense(idx) => {
                    if self.memo.dense.is_empty() {
                        self.memo.dense = vec![0; (1 << self.config.n()) * self.config.n()];
                    }
                    match self.memo.dense[idx] {
                        0 => {
                            let decision = self.compute_decision(node, first_dir);
                            self.memo.dense[idx] = encode_decision(decision);
                            decision
                        }
                        byte => decode_decision(byte),
                    }
                }
                MemoKey::Sparse(packed) => {
                    let map_key = (packed, node as u32);
                    if let Some(&decision) = self.memo.map.get(&map_key) {
                        decision
                    } else {
                        let decision = self.compute_decision(node, first_dir);
                        self.memo.map.insert(map_key, decision);
                        decision
                    }
                }
                MemoKey::None => self.compute_decision(node, first_dir),
            }
        };
        self.looks += 1;
        self.step += 1;
        match decision {
            Decision::Idle => {
                self.robots[robot].phase = Phase::IdlePending;
            }
            Decision::Move(idx) => {
                let dir = match idx {
                    ViewIndex::First => first_dir,
                    ViewIndex::Second => first_dir.opposite(),
                };
                let target = self.ring.neighbor(node, dir);
                self.robots[robot].phase = Phase::MovePending { target };
            }
        }
        if let Some(kind) = corruption {
            monitor.on_fault(
                &FaultEvent::CorruptedLook {
                    robot,
                    step: self.step,
                    kind,
                },
                &self.config,
            );
        }
        monitor.on_look(robot, decision, &self.config);
        Ok(true)
    }

    /// Move phase of one robot (pipeline stage, private).
    ///
    /// Executes the pending action, if any, appending to the step report.
    fn execute_move(&mut self, robot: RobotId, report: &mut StepReport) -> Result<(), SimError> {
        self.check_robot(robot)?;
        match self.robots[robot].phase {
            Phase::Ready => Ok(()),
            Phase::IdlePending => {
                self.step += 1;
                self.robots[robot].phase = Phase::Ready;
                self.robots[robot].cycles += 1;
                report.idles += 1;
                Ok(())
            }
            Phase::MovePending { target } => {
                let from = self.robots[robot].node;
                if self.options.enforce_exclusivity && self.config.is_occupied(target) {
                    return Err(SimError::ExclusivityViolation {
                        robot,
                        node: target,
                    });
                }
                self.config
                    .move_robot(from, target)
                    .map_err(|e| SimError::InvalidMove {
                        reason: e.to_string(),
                    })?;
                self.step += 1;
                self.moves += 1;
                self.robots[robot].node = target;
                self.robots[robot].phase = Phase::Ready;
                self.robots[robot].cycles += 1;
                self.robots[robot].moves += 1;
                report.moves.push(MoveRecord {
                    robot,
                    from,
                    to: target,
                    step: self.step,
                });
                Ok(())
            }
        }
    }

    /// **The** stepping pipeline: applies one scheduler step and notifies
    /// `monitor` of everything that happened.
    ///
    /// * [`SchedulerStep::SsyncRound`] — all robots of the set Look + Compute
    ///   on the same configuration, then all of them execute their action,
    ///   both in ascending id order (robots with a pending action keep it;
    ///   they do not re-look).  With a single robot this is an atomic
    ///   Look–Compute–Move cycle.
    /// * [`SchedulerStep::Look`] — the robot performs only Look + Compute.
    /// * [`SchedulerStep::Execute`] — the robot executes its pending action,
    ///   however stale its snapshot has become (the CORDA pending-move rule).
    ///
    /// Moves within one scheduler step are simultaneous in the model, so the
    /// monitor's `on_move` hook is invoked only after the whole step has been
    /// applied, with the post-step configuration — observers never see a
    /// half-completed round.  Pass `&mut ()` as the monitor to run
    /// unobserved.
    pub fn step<M: Monitor + ?Sized>(
        &mut self,
        step: &SchedulerStep,
        monitor: &mut M,
    ) -> Result<StepReport, SimError> {
        let mut report = StepReport::default();
        self.step_into(step, monitor, &mut report)?;
        Ok(report)
    }

    /// [`Engine::step`] writing into a caller-owned report (cleared first):
    /// reusing one report across steps keeps the move vector's allocation
    /// alive, which is what the model checker's million-edge loops want.
    ///
    /// On `Err` the engine state is identical to what [`Engine::step`] would
    /// leave; the report contents are unspecified.
    pub fn step_into<M: Monitor + ?Sized>(
        &mut self,
        step: &SchedulerStep,
        monitor: &mut M,
        report: &mut StepReport,
    ) -> Result<(), SimError> {
        bump_step_probe();
        report.moves.clear();
        report.looks = 0;
        report.idles = 0;
        match step {
            SchedulerStep::SsyncRound(robots) => {
                for r in robots.iter() {
                    if self.look_compute(r, monitor)? {
                        report.looks += 1;
                    }
                }
                for r in robots.iter() {
                    self.execute_move(r, report)?;
                }
            }
            SchedulerStep::Look(robot) => {
                if self.look_compute(*robot, monitor)? {
                    report.looks += 1;
                }
            }
            SchedulerStep::Execute(robot) => {
                self.execute_move(*robot, report)?;
            }
        }
        for record in &report.moves {
            monitor.on_move(record, &self.config);
        }
        monitor.on_step(report, &self.config);
        Ok(())
    }

    /// Drives the engine with `scheduler` until `stop` returns true or
    /// `max_scheduler_steps` scheduler steps have been applied.  `stop` is
    /// checked before every step.
    ///
    /// `monitor` observes every step (pass `&mut ()` for none); `stop` sees
    /// both the engine and the monitor, so stop conditions can be phrased
    /// over observed properties ("three clearings demonstrated") as well as
    /// over engine state ("configuration gathered").
    ///
    /// The loop refills one engine-owned [`StepReport`] on every step, kept
    /// across runs and [`Engine::reset`]; scheduler views and steps are
    /// `Copy`, so a step allocates nothing under any scheduler once the
    /// report has grown.
    pub fn run<S, M, F>(
        &mut self,
        scheduler: &mut S,
        monitor: &mut M,
        max_scheduler_steps: u64,
        mut stop: F,
    ) -> RunReport
    where
        S: Scheduler + ?Sized,
        M: Monitor + ?Sized,
        F: FnMut(&Engine<P>, &M) -> bool,
    {
        let mut steps = 0u64;
        let moves_before = self.moves;
        let mut report = std::mem::take(&mut self.report);
        let outcome = loop {
            if stop(self, monitor) {
                break RunOutcome::ConditionMet;
            }
            if steps >= max_scheduler_steps {
                break RunOutcome::StepBudgetExhausted;
            }
            let step = scheduler.next(&self.scheduler_view());
            if let Err(e) = self.step_into(&step, monitor, &mut report) {
                break RunOutcome::Failed(e);
            }
            steps += 1;
        };
        self.report = report;
        RunReport {
            outcome,
            steps,
            moves: self.moves - moves_before,
        }
    }

    /// Convenience wrapper around [`Engine::run`] without a monitor.
    pub fn run_until<S, F>(&mut self, scheduler: &mut S, max_steps: u64, mut stop: F) -> RunReport
    where
        S: Scheduler + ?Sized,
        F: FnMut(&Engine<P>) -> bool,
    {
        self.run(scheduler, &mut (), max_steps, |engine, ()| stop(engine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{GreedyGapWalker, IdleProtocol};
    use crate::scheduler::RoundRobinScheduler;
    use rr_ring::{Configuration, View};

    // The reference `exact_key`/`canonical_key` the signatures are pinned
    // against; test-only, shared with `tests/packed_roundtrip.rs`.
    include!("../tests/common/reference_keys.rs");

    // The recording monitor the run comparisons observe through; shared
    // with the integration suites.
    include!("../tests/common/event_log.rs");

    fn cfg(gaps: &[usize]) -> Configuration {
        Configuration::from_gaps_at_origin(gaps)
    }

    /// One atomic Look–Compute–Move cycle, as a scheduler step.
    fn cycle(robot: RobotId) -> SchedulerStep {
        SchedulerStep::SsyncRound(RobotSet::single(robot))
    }

    #[test]
    fn construction_places_one_robot_per_unit_of_multiplicity() {
        let ring = Ring::new(8);
        let c = Configuration::from_counts(ring, vec![2, 0, 1, 0, 0, 0, 0, 0]).unwrap();
        let engine = Engine::new(
            IdleProtocol,
            c,
            EngineOptions {
                enforce_exclusivity: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(engine.num_robots(), 3);
        assert_eq!(engine.positions(), vec![0, 0, 2]);
    }

    #[test]
    fn exclusivity_is_checked_at_construction() {
        let ring = Ring::new(8);
        let c = Configuration::from_counts(ring, vec![2, 0, 1, 0, 0, 0, 0, 0]).unwrap();
        let err = Engine::new(IdleProtocol, c, EngineOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::BadInitialConfiguration { .. }));
    }

    /// `k` robots on the first `k` nodes of a 70-ring.
    fn crowd(k: usize) -> Configuration {
        let mut counts = vec![0; 70];
        counts[..k].fill(1);
        Configuration::from_counts(Ring::new(70), counts).unwrap()
    }

    #[test]
    fn more_robots_than_a_robot_set_holds_are_rejected_at_construction() {
        let err = Engine::new(IdleProtocol, crowd(65), EngineOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::BadInitialConfiguration { .. }));
        let mut engine = Engine::new(IdleProtocol, crowd(3), EngineOptions::default()).unwrap();
        let err = engine
            .reset(IdleProtocol, &crowd(65), EngineOptions::default())
            .unwrap_err();
        assert!(matches!(err, SimError::BadInitialConfiguration { .. }));
    }

    #[test]
    fn a_full_robot_set_runs_an_fsync_round() {
        let mut engine = Engine::new(IdleProtocol, crowd(64), EngineOptions::default()).unwrap();
        let step = crate::scheduler::FullySynchronousScheduler.next(&engine.scheduler_view());
        assert_eq!(step, SchedulerStep::SsyncRound(RobotSet::first(64)));
        let report = engine.step(&step, &mut ()).unwrap();
        assert_eq!((report.looks, report.idles), (64, 64));
        assert_eq!(engine.step_count(), 128);
        assert!(engine.robots().iter().all(|r| r.cycles == 1));
    }

    #[test]
    fn idle_protocol_never_changes_configuration() {
        let c = cfg(&[0, 1, 2, 5]);
        let mut engine = Engine::with_default_options(IdleProtocol, c.clone()).unwrap();
        for r in 0..engine.num_robots() {
            let report = engine.step(&cycle(r), &mut ()).unwrap();
            assert!(!report.moved());
            assert_eq!(report.idles, 1);
        }
        assert_eq!(engine.configuration(), &c);
        assert_eq!(engine.move_count(), 0);
        assert!(engine.robots().iter().all(|r| r.cycles == 1));
    }

    #[test]
    fn greedy_walker_moves_and_is_traced() {
        let c = cfg(&[3, 4]); // two robots, gaps 3 and 4 on a 9-ring
        let mut engine = Engine::with_default_options(GreedyGapWalker, c).unwrap();
        let mut log = EventLog::default();
        let report = engine.step(&cycle(0), &mut log).unwrap();
        assert_eq!(report.moves.len(), 1);
        assert_eq!(report.moves[0].robot, 0);
        assert_eq!(engine.move_count(), 1);
        assert_eq!(
            log.hooks,
            [
                Hook::Look {
                    robot: 0,
                    decision: Decision::Move(ViewIndex::Second)
                },
                Hook::Move(report.moves[0]),
                Hook::Step(report),
            ]
        );
    }

    #[test]
    fn monitor_hooks_fire_during_step() {
        let c = cfg(&[3, 4]);
        let mut engine = Engine::with_default_options(GreedyGapWalker, c).unwrap();
        let mut log = EventLog::default();
        let report = engine.step(&cycle(0), &mut log).unwrap();
        let moves: Vec<Hook> = report.moves.iter().copied().map(Hook::Move).collect();
        assert_eq!(log.hooks[1..=moves.len()], moves);
    }

    #[test]
    fn monitors_observe_the_post_step_configuration() {
        // Moves within a round are simultaneous: every on_move of a
        // two-robot SSYNC round must see the configuration with BOTH moves
        // applied, never a half-completed round.
        struct SeenConfigs(Vec<Configuration>);
        impl crate::monitor::Monitor for SeenConfigs {
            fn on_move(&mut self, _record: &MoveRecord, after: &Configuration) {
                self.0.push(after.clone());
            }
        }
        let c = cfg(&[0, 6]); // adjacent robots walk apart simultaneously
        let mut engine = Engine::with_default_options(GreedyGapWalker, c).unwrap();
        let mut seen = SeenConfigs(Vec::new());
        engine
            .step(&SchedulerStep::SsyncRound(RobotSet::first(2)), &mut seen)
            .unwrap();
        assert_eq!(seen.0.len(), 2);
        for observed in &seen.0 {
            assert_eq!(observed, engine.configuration());
        }
    }

    #[test]
    fn pending_moves_use_outdated_snapshots() {
        // Robot 0 looks, then robot 2 moves, then robot 0 executes its stale move.
        let c = cfg(&[1, 1, 4]); // robots at 0, 2, 4 on a 9-ring
        let mut engine = Engine::new(
            GreedyGapWalker,
            c,
            EngineOptions {
                enforce_exclusivity: false,
                ..Default::default()
            },
        )
        .unwrap();
        engine.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        let before = engine.positions();
        engine.step(&cycle(2), &mut ()).unwrap();
        // Robot 0 still executes the move it computed before robot 2 moved.
        let report = engine.step(&SchedulerStep::Execute(0), &mut ()).unwrap();
        assert_eq!(report.moves.len(), 1, "stale move still executes");
        assert_eq!(report.moves[0].from, before[0]);
    }

    #[test]
    fn double_look_does_not_recompute() {
        let c = cfg(&[3, 4]);
        let mut engine = Engine::with_default_options(GreedyGapWalker, c).unwrap();
        let r1 = engine.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        let looks = engine.look_count();
        let r2 = engine.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        assert_eq!(engine.look_count(), looks, "second look is a no-op");
        assert_eq!(r1.looks, 1);
        assert_eq!(
            r2.looks, 0,
            "re-look of a pending robot is not a fresh look"
        );
    }

    #[test]
    fn exclusivity_violation_is_reported() {
        // Two adjacent robots walking towards each other's node.
        #[derive(Debug)]
        struct TowardsOther;
        impl Protocol for TowardsOther {
            fn name(&self) -> &str {
                "towards-other"
            }
            fn compute(&self, snapshot: &Snapshot) -> Decision {
                // Move towards the closer occupied node.
                let a = snapshot.views[0].gap(0);
                let b = snapshot.views[1].gap(0);
                if a <= b {
                    Decision::Move(ViewIndex::First)
                } else {
                    Decision::Move(ViewIndex::Second)
                }
            }
        }
        let c = cfg(&[0, 6]); // adjacent robots on an 8-ring
        let mut engine = Engine::with_default_options(TowardsOther, c).unwrap();
        let err = engine.step(&cycle(0), &mut ()).unwrap_err();
        assert!(matches!(err, SimError::ExclusivityViolation { .. }));
    }

    #[test]
    fn ssync_round_looks_before_moving() {
        // Under a fully synchronous round both adjacent robots see each other
        // *before* either moves; with the greedy walker both walk away from
        // each other into their larger gaps — no collision.
        let c = cfg(&[0, 6]);
        let mut engine = Engine::with_default_options(GreedyGapWalker, c).unwrap();
        let report = engine
            .step(&SchedulerStep::SsyncRound(RobotSet::first(2)), &mut ())
            .unwrap();
        assert_eq!(report.moves.len(), 2);
        assert_eq!(report.looks, 2);
        assert!(engine.configuration().is_exclusive());
    }

    #[test]
    fn reset_is_equivalent_to_a_fresh_engine() {
        // Run an engine for a while, reset it to a different configuration,
        // and check it behaves exactly like a freshly constructed one.
        let first = cfg(&[0, 1, 2, 5]);
        let second = cfg(&[3, 4]);
        let options = EngineOptions::for_protocol(&GreedyGapWalker);
        let mut recycled = Engine::new(GreedyGapWalker, first, options).unwrap();
        let mut sched = RoundRobinScheduler::new();
        recycled.run_until(&mut sched, 40, |_| false);
        assert!(recycled.move_count() > 0);

        recycled.reset(GreedyGapWalker, &second, options).unwrap();
        assert_eq!(recycled.configuration(), &second);
        assert_eq!(recycled.step_count(), 0);
        assert_eq!(recycled.move_count(), 0);
        assert_eq!(recycled.look_count(), 0);
        assert!(recycled.robots().iter().all(|r| r.cycles == 0));

        let mut fresh = Engine::new(GreedyGapWalker, second, options).unwrap();
        let (mut log1, mut log2) = (EventLog::default(), EventLog::default());
        let r1 = recycled.run(&mut RoundRobinScheduler::new(), &mut log1, 25, |_, _| false);
        let r2 = fresh.run(&mut RoundRobinScheduler::new(), &mut log2, 25, |_, _| false);
        assert_eq!(r1, r2);
        assert_eq!(recycled.configuration(), fresh.configuration());
        assert_eq!(recycled.positions(), fresh.positions());
        assert_eq!(log1, log2);
    }

    #[test]
    fn reset_revalidates_exclusivity() {
        let ring = Ring::new(8);
        let multiplicity = Configuration::from_counts(ring, vec![2, 0, 1, 0, 0, 0, 0, 0]).unwrap();
        let mut engine = Engine::with_default_options(IdleProtocol, cfg(&[0, 1, 2, 5])).unwrap();
        let err = engine
            .reset(IdleProtocol, &multiplicity, EngineOptions::default())
            .unwrap_err();
        assert!(matches!(err, SimError::BadInitialConfiguration { .. }));
    }

    #[test]
    fn run_until_stops_on_condition() {
        let c = cfg(&[0, 1, 2, 5]);
        let mut engine = Engine::with_default_options(GreedyGapWalker, c).unwrap();
        let mut sched = RoundRobinScheduler::new();
        let report = engine.run_until(&mut sched, 1000, |e| e.move_count() >= 5);
        assert!(report.succeeded());
        assert_eq!(engine.move_count(), 5);
    }

    #[test]
    fn run_reports_step_budget_exhaustion() {
        let c = cfg(&[0, 1, 2, 5]);
        let mut engine = Engine::with_default_options(IdleProtocol, c).unwrap();
        let mut sched = RoundRobinScheduler::new();
        let report = engine.run_until(&mut sched, 17, |_| false);
        assert_eq!(report.outcome, RunOutcome::StepBudgetExhausted);
        assert_eq!(report.steps, 17);
        assert_eq!(report.moves, 0);
    }

    #[test]
    fn run_feeds_the_monitor_and_stop_sees_it() {
        let c = cfg(&[0, 1, 2, 5]);
        let mut engine = Engine::with_default_options(GreedyGapWalker, c).unwrap();
        let mut sched = RoundRobinScheduler::new();
        let mut log = EventLog::default();
        let moves = |log: &EventLog| {
            log.hooks
                .iter()
                .filter(|hook| matches!(hook, Hook::Move(_)))
                .count()
        };
        let report = engine.run(&mut sched, &mut log, 1000, |_, log| moves(log) >= 3);
        assert!(report.succeeded());
        assert_eq!(moves(&log), 3);
        assert_eq!(engine.move_count(), 3);
    }

    #[test]
    fn save_restore_round_trips_mid_cycle() {
        // Save in the middle of an asynchronous cycle (robot 0 has a pending
        // move), wander off, restore, and check the two futures coincide.
        let c = cfg(&[1, 1, 4]);
        let options = EngineOptions {
            enforce_exclusivity: false,
            ..Default::default()
        };
        let mut engine = Engine::new(GreedyGapWalker, c, options).unwrap();
        engine.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        let saved = engine.save_state();
        assert!(saved.robots()[0].has_pending_move());

        // Excursion: complete other robots' cycles and robot 0's move.
        engine.step(&cycle(2), &mut ()).unwrap();
        engine.step(&SchedulerStep::Execute(0), &mut ()).unwrap();
        let excursion_positions = engine.positions();

        engine.restore_state(&saved);
        assert_eq!(engine.configuration(), saved.configuration());
        assert_eq!(engine.robots(), saved.robots());
        assert_eq!(engine.save_state(), saved);

        // Replaying the same steps reproduces the excursion exactly.
        engine.step(&cycle(2), &mut ()).unwrap();
        engine.step(&SchedulerStep::Execute(0), &mut ()).unwrap();
        assert_eq!(engine.positions(), excursion_positions);
    }

    #[test]
    fn exact_key_ignores_counters_but_not_phases() {
        let c = cfg(&[1, 1, 4]);
        let mut a = Engine::with_default_options(IdleProtocol, c.clone()).unwrap();
        let mut b = Engine::with_default_options(IdleProtocol, c).unwrap();
        // Advance `a` through a full idle cycle: same behavioural state,
        // different counters.
        a.step(&cycle(1), &mut ()).unwrap();
        assert_ne!(a.save_state(), b.save_state());
        assert_eq!(exact_key(&a.save_state()), exact_key(&b.save_state()));
        // A pending phase *is* part of the key.
        b.step(&SchedulerStep::Look(1), &mut ()).unwrap();
        assert_ne!(exact_key(&a.save_state()), exact_key(&b.save_state()));
    }

    #[test]
    fn canonical_key_is_invariant_under_rotation_and_reflection() {
        let ring = Ring::new(9);
        // Base: robots at 0, 2, 3 — rotate by r and reflect (v ↦ -v).
        let base = Configuration::new_exclusive(ring, &[0, 2, 3]).unwrap();
        let base_key = canonical_key(
            &Engine::with_default_options(GreedyGapWalker, base)
                .unwrap()
                .save_state(),
        );
        for rot in 0..9usize {
            for reflect in [false, true] {
                let nodes: Vec<usize> = [0usize, 2, 3]
                    .iter()
                    .map(|&v| {
                        let v = if reflect { (9 - v) % 9 } else { v };
                        (v + rot) % 9
                    })
                    .collect();
                let c = Configuration::new_exclusive(ring, &nodes).unwrap();
                let key = canonical_key(
                    &Engine::with_default_options(GreedyGapWalker, c)
                        .unwrap()
                        .save_state(),
                );
                assert_eq!(key, base_key, "rot={rot} reflect={reflect}");
            }
        }
        // A genuinely different configuration has a different key.
        let other = Configuration::new_exclusive(ring, &[0, 2, 4]).unwrap();
        let other_key = canonical_key(
            &Engine::with_default_options(GreedyGapWalker, other)
                .unwrap()
                .save_state(),
        );
        assert_ne!(other_key, base_key);
    }

    #[test]
    fn canonical_key_distinguishes_pending_directions_up_to_reflection() {
        // One robot with a pending cw move vs a pending ccw move: these are
        // reflections of each other on a symmetric occupancy, so their
        // canonical keys agree; but a pending move differs from no pending.
        let c = cfg(&[3, 3]); // robots at 0 and 4 on an 8-ring (symmetric)
        let mut cw = Engine::with_default_options(GreedyGapWalker, c.clone()).unwrap();
        let ready_key = canonical_key(&cw.save_state());
        cw.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        let cw_key = canonical_key(&cw.save_state());
        assert_ne!(ready_key, cw_key);

        // Mirror: build the reflected engine state by letting the *other*
        // robot look (by symmetry its pending move is the reflection).
        let mut ccw = Engine::with_default_options(GreedyGapWalker, c).unwrap();
        ccw.step(&SchedulerStep::Look(1), &mut ()).unwrap();
        assert_eq!(canonical_key(&ccw.save_state()), cw_key);
    }

    #[test]
    fn pack_round_trips_mid_cycle_states_byte_for_byte() {
        // Drive an engine through a partial asynchronous cycle (pending move
        // + pending idle + completed cycles), pack, restore, and require the
        // restored state to equal the saved one field for field.
        let c = cfg(&[1, 1, 4]);
        let options = EngineOptions {
            enforce_exclusivity: false,
            ..Default::default()
        };
        let mut engine = Engine::new(GreedyGapWalker, c, options).unwrap();
        engine.step(&cycle(1), &mut ()).unwrap();
        engine.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        let saved = engine.save_state();
        let packed = saved.pack();
        assert_eq!(packed, engine.pack_state(), "both pack entry points agree");

        // Wander off, restore from the packed bits alone.
        engine.step(&cycle(2), &mut ()).unwrap();
        engine.step(&SchedulerStep::Execute(0), &mut ()).unwrap();
        engine.restore_packed(&packed);
        assert_eq!(engine.save_state(), saved);
        assert_eq!(engine.configuration(), saved.configuration());
        assert_eq!(engine.robots(), saved.robots());

        // save_state_into reuses storage and produces the same state.
        let mut reused = engine.save_state();
        engine.step(&cycle(2), &mut ()).unwrap();
        engine.restore_packed(&packed);
        engine.save_state_into(&mut reused);
        assert_eq!(reused, saved);
    }

    #[test]
    fn behavior_sig_matches_exact_key_equality() {
        let c = cfg(&[1, 1, 4]);
        let mut a = Engine::with_default_options(IdleProtocol, c.clone()).unwrap();
        let mut b = Engine::with_default_options(IdleProtocol, c).unwrap();
        // Different counters, same behaviour: equal sigs.
        a.step(&cycle(1), &mut ()).unwrap();
        assert_ne!(a.pack_state(), b.pack_state(), "counters differ");
        assert_eq!(a.behavior_sig(), b.behavior_sig());
        assert_eq!(a.pack_state().behavior_sig(), b.pack_state().behavior_sig());
        // A pending phase is part of the signature.
        b.step(&SchedulerStep::Look(1), &mut ()).unwrap();
        assert_ne!(a.behavior_sig(), b.behavior_sig());
        assert_ne!(a.pack_state().behavior_sig(), b.pack_state().behavior_sig());
        assert_eq!(
            exact_key(&a.save_state()) == exact_key(&b.save_state()),
            a.pack_state().behavior_sig() == b.pack_state().behavior_sig()
        );
    }

    #[test]
    fn canonical_sig_matches_canonical_key_equality() {
        let ring = Ring::new(9);
        let base = Configuration::new_exclusive(ring, &[0, 2, 3]).unwrap();
        let base_sig = Engine::with_default_options(GreedyGapWalker, base)
            .unwrap()
            .pack_state()
            .canonical_sig();
        for rot in 0..9usize {
            for reflect in [false, true] {
                let nodes: Vec<usize> = [0usize, 2, 3]
                    .iter()
                    .map(|&v| {
                        let v = if reflect { (9 - v) % 9 } else { v };
                        (v + rot) % 9
                    })
                    .collect();
                let c = Configuration::new_exclusive(ring, &nodes).unwrap();
                let engine = Engine::with_default_options(GreedyGapWalker, c).unwrap();
                assert_eq!(
                    engine.canonical_sig(),
                    base_sig,
                    "rot={rot} reflect={reflect}"
                );
                assert_eq!(engine.pack_state().canonical_sig(), base_sig);
            }
        }
        let other = Configuration::new_exclusive(ring, &[0, 2, 4]).unwrap();
        let other_sig = Engine::with_default_options(GreedyGapWalker, other)
            .unwrap()
            .canonical_sig();
        assert_ne!(other_sig, base_sig);

        // Pending-move directions up to reflection, like canonical_key.
        let sym = cfg(&[3, 3]);
        let mut cw = Engine::with_default_options(GreedyGapWalker, sym.clone()).unwrap();
        let ready_sig = cw.canonical_sig();
        cw.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        let cw_sig = cw.canonical_sig();
        assert_ne!(ready_sig, cw_sig);
        let mut ccw = Engine::with_default_options(GreedyGapWalker, sym).unwrap();
        ccw.step(&SchedulerStep::Look(1), &mut ()).unwrap();
        assert_eq!(ccw.canonical_sig(), cw_sig);
        assert_eq!(ccw.pack_state().canonical_sig(), cw_sig);
    }

    #[test]
    #[should_panic(expected = "ring size mismatch")]
    fn restore_packed_rejects_mismatched_states() {
        let mut a = Engine::with_default_options(IdleProtocol, cfg(&[0, 1, 2, 5])).unwrap();
        let b = Engine::with_default_options(IdleProtocol, cfg(&[3, 4])).unwrap();
        let packed = b.pack_state();
        a.restore_packed(&packed);
    }

    #[test]
    #[should_panic(expected = "ring size mismatch")]
    fn restore_rejects_mismatched_states() {
        let mut a = Engine::with_default_options(IdleProtocol, cfg(&[0, 1, 2, 5])).unwrap();
        let b = Engine::with_default_options(IdleProtocol, cfg(&[3, 4])).unwrap();
        let state = b.save_state();
        a.restore_state(&state);
    }

    /// Drives two engines in lockstep through the same schedule and requires
    /// identical reports, counters, configurations and monitor hooks.
    fn assert_lockstep_equal<P: Protocol + Clone>(mut a: Engine<P>, mut b: Engine<P>, steps: u64) {
        let (mut log_a, mut log_b) = (EventLog::default(), EventLog::default());
        let ra = a.run(
            &mut RoundRobinScheduler::new(),
            &mut log_a,
            steps,
            |_, _| false,
        );
        let rb = b.run(
            &mut RoundRobinScheduler::new(),
            &mut log_b,
            steps,
            |_, _| false,
        );
        assert_eq!(ra, rb);
        assert_eq!(a.configuration(), b.configuration());
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.look_count(), b.look_count());
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn look_memo_dense_table_caps_at_threshold() {
        // n = 16 > DENSE_MEMO_N: an exclusive configuration must use the
        // sparse map — never the 2^16 · 16-byte dense table.
        let big = cfg(&[2, 2, 2, 6]); // n = 16, exclusive
        let mut sparse_engine = Engine::with_default_options(GreedyGapWalker, big.clone()).unwrap();
        sparse_engine.enable_look_memo();
        let mut sched = RoundRobinScheduler::new();
        sparse_engine.run_until(&mut sched, 50, |_| false);
        assert!(
            sparse_engine.memo.dense.is_empty(),
            "dense table allocated beyond DENSE_MEMO_N"
        );
        assert!(!sparse_engine.memo.map.is_empty(), "sparse map unused");

        // n = 12 ≤ DENSE_MEMO_N: the dense table serves exclusive configs.
        let small = cfg(&[0, 1, 2, 5]); // n = 12, exclusive
        let mut dense_engine = Engine::with_default_options(GreedyGapWalker, small).unwrap();
        dense_engine.enable_look_memo();
        let mut sched = RoundRobinScheduler::new();
        dense_engine.run_until(&mut sched, 50, |_| false);
        assert!(!dense_engine.memo.dense.is_empty(), "dense table unused");
        assert!(dense_engine.memo.map.is_empty());

        // And above the cap the memo is still *correct*: identical run to an
        // unmemoized engine.
        let memoized = {
            let mut e = Engine::with_default_options(GreedyGapWalker, big.clone()).unwrap();
            e.enable_look_memo();
            e
        };
        let plain = Engine::with_default_options(GreedyGapWalker, big).unwrap();
        assert_lockstep_equal(memoized, plain, 200);
    }

    #[test]
    fn unknown_robot_is_rejected() {
        let c = cfg(&[0, 1, 2, 5]);
        let mut engine = Engine::with_default_options(IdleProtocol, c).unwrap();
        let look = engine.step(&SchedulerStep::Look(99), &mut ());
        assert!(matches!(look, Err(SimError::UnknownRobot { .. })));
        let execute = engine.step(&SchedulerStep::Execute(99), &mut ());
        assert!(matches!(execute, Err(SimError::UnknownRobot { .. })));
    }
}
