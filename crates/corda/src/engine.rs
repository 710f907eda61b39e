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

/// Largest ring the Look memo serves: its key spends one bit per node,
/// below the two flag bits.
const MEMO_MAX_N: usize = 62;

/// log₂ of the Look memo's slot count: 4,096 slots, 32 KiB of keys and
/// 4 KiB of decisions.
const MEMO_SLOT_BITS: u32 = 12;

/// The Look memo: the decision of each view, computed once.
///
/// An oblivious protocol's decision is a pure function of the robot's
/// [`Snapshot`], and [`view_key`] is exact (equal keys, equal snapshots),
/// so a memoized decision changes nothing observable: counters, reports
/// and monitor hooks fire identically.  The table is direct-mapped: a
/// multiplicative hash of the key picks the slot, and a miss computes the
/// decision and overwrites the slot.  `Engine::new` and `Engine::reset`
/// allocate it when the memo applies; a reset clears it but keeps the
/// allocation (the reset may change the protocol or the ring).  The memo
/// stays valid across `save_state`/`restore_state` excursions.
#[derive(Debug, Clone, Default)]
struct LookMemo {
    /// Slot keys, 0 for an empty slot (no key is 0).
    keys: Vec<u64>,
    /// The encoded decision of each filled slot.
    decisions: Vec<u8>,
}

impl LookMemo {
    /// Readies the table for a run: every slot empty, and allocated if the
    /// memo applies to a ring of `n` nodes under `capability`.
    fn prepare(&mut self, n: usize, capability: MultiplicityCapability) {
        if self.keys.is_empty() && memo_applies(n, capability) {
            self.keys = vec![0; 1 << MEMO_SLOT_BITS];
            self.decisions = vec![0; 1 << MEMO_SLOT_BITS];
        } else {
            self.keys.fill(0);
        }
    }

    /// The slot of `key`.
    fn slot(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOT_BITS)) as usize
    }
}

/// Whether the Look memo serves a ring of `n` nodes under `capability`.
/// It does not serve the `Global` capability, whose snapshot carries the
/// multiplicity flag of every occupied node.
fn memo_applies(n: usize, capability: MultiplicityCapability) -> bool {
    n <= MEMO_MAX_N && capability != MultiplicityCapability::Global
}

/// The Look memo's key for a robot at `node`, or `None` where the memo does
/// not apply: the occupancy word rotated to the observer (bit `i` is set iff
/// node `node + i` is occupied, so bit 0 always is and no key is 0), bit 62
/// iff `node` is a multiplicity under the `Local` capability, and bit 63
/// iff the first view is counter-clockwise.
///
/// The key is exact: the clockwise view is the run lengths of zeros between
/// the set bits from bit 0 on, the counter-clockwise view the same runs in
/// reverse order, and `on_multiplicity` is bit 62.  So on one ring size
/// equal keys mean equal snapshots, and with one first direction too,
/// equal snapshots mean equal keys.  O(k): the word is read off the
/// occupancy cycle.
fn view_key(
    config: &Configuration,
    node: NodeId,
    capability: MultiplicityCapability,
    first_dir: Direction,
) -> Option<u64> {
    let n = config.n();
    if !memo_applies(n, capability) {
        return None;
    }
    let mut key = 0u64;
    for v in config.occupied_cycle(node, Direction::Cw) {
        key |= 1 << if v >= node { v - node } else { v + n - node };
    }
    if capability == MultiplicityCapability::Local && config.is_multiplicity(node) {
        key |= 1 << 62;
    }
    if first_dir == Direction::Ccw {
        key |= 1 << 63;
    }
    Some(key)
}

/// Encodes a decision as the memo's decision byte.
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
        _ => unreachable!("look memo byte"),
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
        let mut memo = LookMemo::default();
        memo.prepare(initial.n(), options.capability);
        Ok(Engine {
            protocol,
            ring: initial.ring(),
            config: initial,
            robots,
            options,
            memo,
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
        if initial.num_robots() == 0 {
            return Err(SimError::BadInitialConfiguration {
                reason: "no robot in the initial configuration".to_string(),
            });
        }
        // Ids ascend with the nodes: the clockwise occupancy cycle from the
        // lowest occupied node, read without allocating.
        let cycle = |start| initial.occupied_cycle(start, Direction::Cw);
        let lowest = cycle(initial.occupied_anchor())
            .min()
            .expect("a configuration with robots has an occupied node");
        robots.clear();
        for v in cycle(lowest) {
            for _ in 0..initial.count_at(v) {
                robots.push(RobotState::new(v));
            }
        }
        Ok(())
    }

    /// Rewinds this engine to a fresh run of `protocol` from `initial`,
    /// reusing the robot vector, run report, configuration storage and Look
    /// memo table of the previous run (the table is cleared: its decisions
    /// belong to the previous protocol).
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
        // Memoized decisions are *not* carried over: they belong to the
        // previous run's protocol and ring size, which this reset may have
        // replaced.
        self.memo.prepare(initial.n(), options.capability);
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

    /// Captures the snapshot at `node` and runs the protocol on it (the
    /// memo-miss path of the Look phase).  The snapshot is filled into the
    /// engine-owned scratch buffers: O(k) and, after warm-up, zero heap
    /// allocations.  A `corruption` perturbs the truthful snapshot
    /// ([`Snapshot::corrupt`]) *before* the protocol sees it.
    fn compute_decision(
        &mut self,
        node: NodeId,
        first_dir: Direction,
        corruption: Option<CorruptionKind>,
    ) -> Decision {
        self.scratch
            .capture_into(&self.config, node, self.options.capability, first_dir);
        if let Some(kind) = corruption {
            self.scratch.corrupt(kind);
        }
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
        // nor written — because the key names the truthful view, not the lie.
        let corruption = self.fault.corruption_at(self.looks);
        let key = if corruption.is_none() {
            view_key(&self.config, node, self.options.capability, first_dir)
        } else {
            None
        };
        let decision = match key {
            Some(key) => {
                let slot = LookMemo::slot(key);
                if self.memo.keys[slot] == key {
                    decode_decision(self.memo.decisions[slot])
                } else {
                    let decision = self.compute_decision(node, first_dir, None);
                    self.memo.keys[slot] = key;
                    self.memo.decisions[slot] = encode_decision(decision);
                    decision
                }
            }
            None => self.compute_decision(node, first_dir, corruption),
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
    fn reset_forgets_the_previous_protocols_decisions() {
        // Two protocols of one type that decide differently on every view:
        // after a reset to the second, a Look at a view the first one
        // memoized must compute afresh.
        #[derive(Debug, Clone, Copy)]
        struct Always(Decision);
        impl Protocol for Always {
            fn name(&self) -> &str {
                "always"
            }
            fn compute(&self, _snapshot: &Snapshot) -> Decision {
                self.0
            }
        }
        let c = cfg(&[3, 4]);
        let mut engine = Engine::with_default_options(Always(Decision::Idle), c.clone()).unwrap();
        engine.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        assert!(!engine.robots()[0].has_pending_move());
        let walk = Always(Decision::Move(ViewIndex::First));
        engine
            .reset(walk, &c, EngineOptions::for_protocol(&walk))
            .unwrap();
        engine.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        assert!(engine.robots()[0].has_pending_move());
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

    /// A configuration on 3 to 62 nodes with multiplicities (node counts
    /// 0, 1 or 2), a rotation, two observer draws and a perturbation draw.
    fn key_instance() -> impl proptest::Strategy<Value = (Vec<u32>, usize, (usize, usize), usize)> {
        use proptest::prelude::*;
        (3usize..=62).prop_flat_map(|n| {
            (
                proptest::collection::vec(0u32..4, n),
                0..n,
                (0usize..64, 0usize..64),
                0..2 * n,
            )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The memo is sound because its key is exact: for one ring size,
        /// first direction and capability, two robots' keys are equal
        /// exactly when their snapshots are.  Configuration `b` is `a`
        /// rotated by `rotation`, with one node's count changed (0 → 1,
        /// 1 → 2, 2 → 1: no node empties) when the perturbation draw names
        /// a node; robot `u` of `a` is compared with its image in `b`
        /// (equal snapshots unless the perturbation shows) and with a robot
        /// of `b` drawn at random.
        #[test]
        fn view_keys_are_equal_exactly_when_snapshots_are(instance in key_instance()) {
            let (draws, rotation, (ui, vi), perturb) = instance;
            let n = draws.len();
            let mut counts: Vec<u32> = draws.iter().map(|&d| [0, 0, 1, 2][d as usize]).collect();
            if counts.iter().all(|&c| c == 0) {
                counts[0] = 1;
            }
            let mut rotated = vec![0; n];
            for (i, &c) in counts.iter().enumerate() {
                rotated[(i + rotation) % n] = c;
            }
            if let Some(c) = rotated.get_mut(perturb) {
                *c = if *c == 1 { 2 } else { 1 };
            }
            let a = Configuration::from_counts(Ring::new(n), counts).unwrap();
            let b = Configuration::from_counts(Ring::new(n), rotated).unwrap();
            let (occupied_a, occupied_b) = (a.occupied_nodes(), b.occupied_nodes());
            let u = occupied_a[ui % occupied_a.len()];
            for v in [(u + rotation) % n, occupied_b[vi % occupied_b.len()]] {
                for capability in [MultiplicityCapability::None, MultiplicityCapability::Local] {
                    for dir in Direction::BOTH {
                        let key_a = view_key(&a, u, capability, dir).unwrap();
                        let key_b = view_key(&b, v, capability, dir).unwrap();
                        proptest::prop_assert_eq!(key_a & 1, 1, "no key is 0");
                        proptest::prop_assert_eq!(
                            key_a == key_b,
                            Snapshot::capture(&a, u, capability, dir)
                                == Snapshot::capture(&b, v, capability, dir),
                            "u={} v={} {:?} {:?} a={} b={}", u, v, capability, dir, a, b
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_memo_serves_rings_up_to_62_nodes_without_global_detection() {
        let ring_of = |n: usize| Configuration::new_exclusive(Ring::new(n), &[0, 3]).unwrap();
        for capability in [MultiplicityCapability::None, MultiplicityCapability::Local] {
            assert!(view_key(&ring_of(62), 3, capability, Direction::Cw).is_some());
            assert_eq!(view_key(&ring_of(63), 3, capability, Direction::Cw), None);
        }
        let global = MultiplicityCapability::Global;
        assert_eq!(view_key(&ring_of(8), 0, global, Direction::Cw), None);
        let engine = Engine::new(IdleProtocol, ring_of(63), EngineOptions::default()).unwrap();
        assert!(
            engine.memo.keys.is_empty(),
            "a bypassed memo allocates no table"
        );
    }

    /// A `Local`-capability walker that keeps merging and splitting robots:
    /// a robot on a multiplicity walks into its larger gap (ties: the first
    /// view), any other robot into its smaller one.
    #[derive(Debug, Clone, Copy)]
    struct MergeSplitWalker;

    impl Protocol for MergeSplitWalker {
        fn name(&self) -> &str {
            "merge-split-walker"
        }

        fn capability(&self) -> MultiplicityCapability {
            MultiplicityCapability::Local
        }

        fn requires_exclusivity(&self) -> bool {
            false
        }

        fn compute(&self, snapshot: &Snapshot) -> Decision {
            let larger = if snapshot.views[0].gap(0) >= snapshot.views[1].gap(0) {
                ViewIndex::First
            } else {
                ViewIndex::Second
            };
            match snapshot.on_multiplicity {
                Some(true) => Decision::Move(larger),
                _ => Decision::Move(larger.other()),
            }
        }
    }

    /// Steps `engine` `steps` times under `scheduler`, checking that every
    /// Look decision the event log records equals a fresh compute of the
    /// snapshot that Look saw (perturbed for the Look an armed
    /// `CorruptLook` names).  Returns the number of Looks and the distinct
    /// memo keys of the truthful ones.
    fn assert_looks_decide_afresh<P: Protocol>(
        engine: &mut Engine<P>,
        scheduler: &mut dyn Scheduler,
        steps: u64,
    ) -> (u64, std::collections::HashSet<u64>) {
        let capability = engine.options().capability;
        let mut keys = std::collections::HashSet::new();
        let mut log = EventLog::default();
        for _ in 0..steps {
            // Every Look of a step sees the configuration before its moves.
            let config = engine.configuration().clone();
            let nodes = engine.positions();
            let mut ordinal = engine.look_count();
            log.hooks.clear();
            let step = scheduler.next(&engine.scheduler_view());
            engine.step(&step, &mut log).unwrap();
            for hook in &log.hooks {
                let Hook::Look { robot, decision } = *hook else {
                    continue;
                };
                let dir = match engine.options().view_order {
                    ViewOrder::CwFirst => Direction::Cw,
                    ViewOrder::CcwFirst => Direction::Ccw,
                    ViewOrder::Alternating if ordinal.is_multiple_of(2) => Direction::Cw,
                    ViewOrder::Alternating => Direction::Ccw,
                };
                let mut snapshot = Snapshot::capture(&config, nodes[robot], capability, dir);
                match engine.fault_model().corruption_at(ordinal) {
                    Some(kind) => snapshot.corrupt(kind),
                    None => keys.extend(view_key(&config, nodes[robot], capability, dir)),
                }
                assert_eq!(
                    decision,
                    engine.protocol().compute(&snapshot),
                    "look {ordinal} of robot {robot} at node {} of {config}",
                    nodes[robot]
                );
                ordinal += 1;
            }
        }
        (engine.look_count(), keys)
    }

    #[test]
    fn memoized_looks_decide_as_fresh_computes_do() {
        // Long asynchronous runs on 62 nodes (memoized) and 63 (bypassed),
        // under every view order, for both capabilities the memo serves.
        // At 62 nodes the runs read far more distinct views than the table
        // has slots, so slots are overwritten; the `Local` runs also arm a
        // corrupted Look.
        let slots = 1 << MEMO_SLOT_BITS;
        for n in [62, 63] {
            let mut gaps = vec![4; 10];
            gaps[0] += n - 50;
            let start = cfg(&gaps);
            assert_eq!(start.n(), n);
            for order in [
                ViewOrder::CwFirst,
                ViewOrder::CcwFirst,
                ViewOrder::Alternating,
            ] {
                let walker = EngineOptions::for_protocol(&GreedyGapWalker).with_view_order(order);
                let mut engine = Engine::new(GreedyGapWalker, start.clone(), walker).unwrap();
                let mut scheduler = crate::scheduler::AsynchronousScheduler::seeded(n as u64);
                let (looks, keys) = assert_looks_decide_afresh(&mut engine, &mut scheduler, 40_000);
                let merging = EngineOptions::for_protocol(&MergeSplitWalker).with_view_order(order);
                let mut engine = Engine::new(MergeSplitWalker, start.clone(), merging).unwrap();
                engine.arm_fault(FaultModel::CorruptLook {
                    look: 777,
                    kind: CorruptionKind::PhantomMultiplicity,
                });
                let mut scheduler = crate::scheduler::AsynchronousScheduler::seeded(n as u64);
                let (merged_looks, merged_keys) =
                    assert_looks_decide_afresh(&mut engine, &mut scheduler, 40_000);
                assert!(merged_looks > 777, "the corrupted Look happened");
                if n == 62 {
                    let multiplicity_keys = merged_keys.iter().filter(|&k| k >> 62 & 1 == 1);
                    assert!(
                        multiplicity_keys.count() > 0,
                        "{order:?}: no Look on a multiplicity"
                    );
                    for (what, looks, distinct) in [
                        ("walker", looks, keys.len()),
                        ("merge-split", merged_looks, merged_keys.len()),
                    ] {
                        assert!(distinct > slots, "{what} {order:?}: only {distinct} views");
                        assert!(
                            looks > distinct as u64,
                            "{what} {order:?}: no view recurred"
                        );
                    }
                } else {
                    assert!(keys.is_empty() && merged_keys.is_empty());
                }
            }
        }
    }

    #[test]
    fn a_corrupted_look_neither_reads_nor_writes_the_memo() {
        // Robots at 0 and 5 of a 10-ring read the same view, so they share a
        // memo slot.  Truthfully, a lone robot walks into its smaller gap:
        // on a tie, the second view.  The phantom multiplicity sends it into
        // its larger one: on a tie, the first view.  Whichever of the two
        // Looks is corrupted, the other must get the truthful decision.
        let pair = cfg(&[4, 4]);
        let options = EngineOptions::for_protocol(&MergeSplitWalker);
        let local = MultiplicityCapability::Local;
        assert_eq!(
            view_key(&pair, 0, local, Direction::Cw),
            view_key(&pair, 5, local, Direction::Cw)
        );
        for corrupted in [0, 1] {
            let mut engine = Engine::new(MergeSplitWalker, pair.clone(), options).unwrap();
            engine.arm_fault(FaultModel::CorruptLook {
                look: corrupted as u64,
                kind: CorruptionKind::PhantomMultiplicity,
            });
            let mut log = EventLog::default();
            engine.step(&SchedulerStep::Look(0), &mut log).unwrap();
            engine.step(&SchedulerStep::Look(1), &mut log).unwrap();
            let decisions: Vec<Decision> = log
                .hooks
                .iter()
                .filter_map(|hook| match *hook {
                    Hook::Look { decision, .. } => Some(decision),
                    _ => None,
                })
                .collect();
            let mut expected = [Decision::Move(ViewIndex::Second); 2];
            expected[corrupted] = Decision::Move(ViewIndex::First);
            assert_eq!(decisions, expected, "look {corrupted} corrupted");
        }
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
