//! Pluggable correctness invariants for exhaustive model checking.
//!
//! A protocol's correctness claim decomposes into **safety** (nothing bad on
//! any edge of the reachable state graph) and **liveness** (every *fair*
//! infinite schedule makes the required progress).  The paper states one such
//! claim per task; this module turns each into an [`Invariant`] the
//! exhaustive checker (`rr_checker::explore`) can enforce along **all**
//! scheduler interleavings instead of a seed sample:
//!
//! * [`GatheringInvariant`] — a gathered configuration is never abandoned
//!   (safety), and every fair schedule reaches a *durably* gathered state,
//!   i.e. gathered with no pending move left to break it (liveness,
//!   [`LivenessMode::Reach`]);
//! * [`SearchingInvariant`] — the configuration stays exclusive and the
//!   contamination state stays closed under the recontamination rules
//!   (safety), and every fair schedule clears the whole ring again and again
//!   (liveness, [`LivenessMode::ReachRepeatedly`]) — the *perpetual* graph
//!   searching property;
//! * [`AlignmentInvariant`] — exclusivity (safety) plus: every fair schedule
//!   reaches the special configuration `C*` (liveness), the Align phase both
//!   searching algorithms and the gathering algorithm build on.
//!
//! Invariants are deliberately *oblivious to the checker's search order*:
//! path-dependent verdicts (the contamination state) live in an explicit
//! [`AugState`] that the checker stores alongside each engine state, so a
//! state reached along two different paths is checked consistently.

use rr_corda::{RobotState, StepReport};
use rr_ring::Configuration;
use rr_search::Contamination;

use crate::align::AlignProtocol;

/// A read-only view of one model-checker state: the configuration plus the
/// per-robot engine bookkeeping (positions, pending phases) and, under a
/// fault-injecting exploration, the set of crash-stopped robots.
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    /// The configuration at this state.
    pub config: &'a Configuration,
    /// Per-robot engine state (node + Look–Compute–Move phase).
    pub robots: &'a [RobotState],
    /// Bitmask of crash-stopped robots (bit `r` set ⇔ robot `r` has crashed
    /// and will never be activated again).  Zero in fault-free exploration.
    pub crashed: u32,
}

impl<'a> StateView<'a> {
    /// A fault-free view (no crashed robots).
    #[must_use]
    pub fn new(config: &'a Configuration, robots: &'a [RobotState]) -> Self {
        StateView {
            config,
            robots,
            crashed: 0,
        }
    }

    /// The same view with the given crashed-robot mask.
    #[must_use]
    pub fn with_crashed(mut self, crashed: u32) -> Self {
        self.crashed = crashed;
        self
    }

    /// Whether robot `r` has crash-stopped.
    #[must_use]
    pub fn is_crashed(&self, r: usize) -> bool {
        r < 32 && self.crashed & (1 << r) != 0
    }

    /// Whether any robot holds a pending move (a Look taken but not yet
    /// executed).
    #[must_use]
    pub fn has_pending_move(&self) -> bool {
        self.robots.iter().any(RobotState::has_pending_move)
    }

    /// Whether any **non-crashed** robot holds a pending move.  A crashed
    /// robot's pending move is frozen forever and can never break anything.
    #[must_use]
    pub fn has_live_pending_move(&self) -> bool {
        self.robots
            .iter()
            .enumerate()
            .any(|(r, robot)| !self.is_crashed(r) && robot.has_pending_move())
    }
}

/// How an invariant's liveness obligation quantifies over fair schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessMode {
    /// Every fair schedule must eventually reach a target state
    /// ([`Invariant::is_target`]).  Target states are goals for the liveness
    /// analysis (lassos must avoid them), but the checker still expands
    /// them: their outgoing edges carry safety obligations too (e.g. "a
    /// durably gathered configuration is never abandoned").
    Reach,
    /// Every fair schedule must make progress ([`Invariant::observe_step`]
    /// returning `true`) infinitely often — the *perpetual* properties.
    ReachRepeatedly,
}

/// Auxiliary path state carried by the checker next to each engine state.
///
/// Most invariants need none; the searching invariant needs the edge
/// contamination state, which is a function of the path, not of the
/// configuration.  The checker treats the pair (engine state, aug state) as
/// the model-checking state, so two paths meeting in the same pair are safely
/// merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AugState {
    /// No auxiliary state.
    None,
    /// The graph-searching contamination state.
    Contamination(Contamination),
}

impl AugState {
    /// A compact hashable encoding, appended to the engine state key by the
    /// checker's deduplication.  For every variant the encoding is
    /// **lossless** given a template of the same variant and instance:
    /// [`AugState::from_key_bits`] inverts it exactly, which is what lets the
    /// checker store just these 64 bits next to each packed engine state
    /// instead of the full auxiliary state.
    #[must_use]
    pub fn key_bits(&self) -> u64 {
        match self {
            AugState::None => 0,
            AugState::Contamination(c) => c.clear_bits(),
        }
    }

    /// Rebuilds the auxiliary state encoded by `bits`, using `self` as the
    /// template that fixes the variant and the instance (the ring, for a
    /// contamination state).  Exact inverse of [`AugState::key_bits`]:
    /// `template.from_key_bits(aug.key_bits()) == aug` for every `aug` of
    /// the template's variant.
    #[must_use]
    pub fn from_key_bits(&self, bits: u64) -> AugState {
        match self {
            AugState::None => {
                debug_assert_eq!(bits, 0, "AugState::None encodes as 0");
                AugState::None
            }
            AugState::Contamination(c) => {
                AugState::Contamination(Contamination::from_clear_bits(c.ring(), bits))
            }
        }
    }
}

/// A task-level correctness property, checkable along every edge of the
/// reachable state graph.
///
/// `Sync` is a supertrait so that one invariant can be shared by searches
/// running on several threads; invariants are stateless descriptions (all
/// per-path state lives in [`AugState`]), so this costs implementors nothing.
pub trait Invariant: Sync {
    /// Short name used in reports ("gathering", "searching", ...).
    fn name(&self) -> &'static str;

    /// The liveness obligation of this invariant.
    fn liveness_mode(&self) -> LivenessMode;

    /// The auxiliary state at the initial configuration.
    fn initial_aug(&self, _initial: &Configuration) -> AugState {
        AugState::None
    }

    /// Advances the auxiliary state over one engine step and reports whether
    /// the step made liveness progress (only meaningful for
    /// [`LivenessMode::ReachRepeatedly`]).
    fn observe_step(
        &self,
        _aug: &mut AugState,
        _report: &StepReport,
        _after: &Configuration,
    ) -> bool {
        false
    }

    /// Safety check for the edge `before → after`.  `Err` carries a
    /// human-readable description of the violation.
    fn check_edge(
        &self,
        before: &StateView<'_>,
        after: &StateView<'_>,
        aug: &AugState,
    ) -> Result<(), String>;

    /// Whether `state` satisfies the liveness target (only meaningful for
    /// [`LivenessMode::Reach`]).
    fn is_target(&self, _state: &StateView<'_>, _aug: &AugState) -> bool {
        false
    }
}

/// Correctness of the gathering task (Section 5 of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct GatheringInvariant;

impl GatheringInvariant {
    /// Creates the invariant.
    #[must_use]
    pub fn new() -> Self {
        GatheringInvariant
    }
}

impl Invariant for GatheringInvariant {
    fn name(&self) -> &'static str {
        "gathering"
    }

    fn liveness_mode(&self) -> LivenessMode {
        LivenessMode::Reach
    }

    fn check_edge(
        &self,
        before: &StateView<'_>,
        after: &StateView<'_>,
        _aug: &AugState,
    ) -> Result<(), String> {
        // Once durably gathered (the liveness target), gathering must never
        // be abandoned: from a target state every successor stays a target.
        if self.is_target(before, &AugState::None) && !self.is_target(after, &AugState::None) {
            return Err("a durably gathered configuration was abandoned".to_string());
        }
        Ok(())
    }

    fn is_target(&self, state: &StateView<'_>, _aug: &AugState) -> bool {
        state.config.is_gathered() && !state.has_pending_move()
    }
}

/// Degradation invariant for crash-stop faults: **all non-crashed robots
/// gather** (the crashed robot's final position is wherever it froze, and
/// nothing is required of it).
///
/// This is the strongest gathering property one can still ask for once a
/// robot may crash — the paper's full gathering claim is unattainable (a
/// crashed robot cannot walk to the tower), so the fault sweeps check this
/// instead and report which cells survive.  The crashed set comes from the
/// checker's fault channel ([`StateView::crashed`]); with no crashes the
/// invariant coincides with [`GatheringInvariant`].
///
/// Note the target does **not** require the live robots' node to differ from
/// the crashed robot's: gathering *on* the crashed robot is allowed (and is
/// in fact what multiplicity-seeking protocols do when the crashed robot
/// already sits on the tower).
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashTolerantGatheringInvariant;

impl CrashTolerantGatheringInvariant {
    /// Creates the invariant.
    #[must_use]
    pub fn new() -> Self {
        CrashTolerantGatheringInvariant
    }

    /// Whether every non-crashed robot sits on one common node.
    fn live_gathered(state: &StateView<'_>) -> bool {
        let mut node = None;
        for (r, robot) in state.robots.iter().enumerate() {
            if state.is_crashed(r) {
                continue;
            }
            match node {
                None => node = Some(robot.node),
                Some(v) if v == robot.node => {}
                Some(_) => return false,
            }
        }
        node.is_some()
    }
}

impl Invariant for CrashTolerantGatheringInvariant {
    fn name(&self) -> &'static str {
        "gathering-crash-tolerant"
    }

    fn liveness_mode(&self) -> LivenessMode {
        LivenessMode::Reach
    }

    fn check_edge(
        &self,
        before: &StateView<'_>,
        after: &StateView<'_>,
        _aug: &AugState,
    ) -> Result<(), String> {
        // Same durability clause as the fault-free invariant, over the live
        // robots only.  A crash on the edge itself (before fault-free, after
        // crashed) can only weaken the target's demands, never abandon it.
        if self.is_target(before, &AugState::None) && !self.is_target(after, &AugState::None) {
            return Err("a durably gathered live configuration was abandoned".to_string());
        }
        Ok(())
    }

    fn is_target(&self, state: &StateView<'_>, _aug: &AugState) -> bool {
        Self::live_gathered(state) && !state.has_live_pending_move()
    }
}

/// Degradation invariant for transient sensor corruption: **eventual**
/// gathering only.
///
/// One corrupted Look can make a robot step off an already-gathered tower
/// (a phantom multiplicity elsewhere, a missing one under its feet), so the
/// paper's safety clause "a durably gathered configuration is never
/// abandoned" is forfeit under this adversary.  What survives is the
/// liveness half: every fair schedule still ends durably gathered, because
/// the corruption budget is bounded and the protocol re-converges from
/// whatever configuration the lie produced.  This invariant checks exactly
/// that — same target as [`GatheringInvariant`], no safety obligation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventualGatheringInvariant;

impl EventualGatheringInvariant {
    /// Creates the invariant.
    #[must_use]
    pub fn new() -> Self {
        EventualGatheringInvariant
    }
}

impl Invariant for EventualGatheringInvariant {
    fn name(&self) -> &'static str {
        "gathering-eventual"
    }

    fn liveness_mode(&self) -> LivenessMode {
        LivenessMode::Reach
    }

    fn check_edge(
        &self,
        _before: &StateView<'_>,
        _after: &StateView<'_>,
        _aug: &AugState,
    ) -> Result<(), String> {
        Ok(())
    }

    fn is_target(&self, state: &StateView<'_>, _aug: &AugState) -> bool {
        state.config.is_gathered() && !state.has_pending_move()
    }
}

/// Correctness of exclusive perpetual graph searching (Sections 4.3–4.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchingInvariant;

impl SearchingInvariant {
    /// Creates the invariant.
    #[must_use]
    pub fn new() -> Self {
        SearchingInvariant
    }
}

impl Invariant for SearchingInvariant {
    fn name(&self) -> &'static str {
        "searching"
    }

    fn liveness_mode(&self) -> LivenessMode {
        LivenessMode::ReachRepeatedly
    }

    fn initial_aug(&self, initial: &Configuration) -> AugState {
        AugState::Contamination(Contamination::initial(initial))
    }

    fn observe_step(&self, aug: &mut AugState, report: &StepReport, after: &Configuration) -> bool {
        let AugState::Contamination(contamination) = aug else {
            unreachable!("searching invariant always carries a contamination state");
        };
        for record in &report.moves {
            contamination.observe_move(record.from, record.to, after);
        }
        if contamination.all_clear() {
            // A full clearing: the perpetual property restarts from scratch,
            // exactly as `SearchMonitors` counts it.
            contamination.reset();
            contamination.observe_configuration(after);
            true
        } else {
            false
        }
    }

    fn check_edge(
        &self,
        _before: &StateView<'_>,
        after: &StateView<'_>,
        aug: &AugState,
    ) -> Result<(), String> {
        // One pass over the occupancy: the exclusivity check and the bitmask
        // the closure check consumes (this runs on every edge the model
        // checker explores).
        let mut occupied = 0u64;
        let mut exclusive = true;
        for v in 0..after.config.n() {
            let c = after.config.count_at(v);
            exclusive &= c <= 1;
            occupied |= u64::from(c > 0) << v;
        }
        // The exclusive tasks never create a multiplicity (the engine raises
        // a SimError first, but a checker running with exclusivity disabled
        // would still be caught here).
        if !exclusive {
            return Err("exclusivity violated: two robots share a node".to_string());
        }
        // Contamination monotonicity: the clear-edge set must be closed under
        // the recontamination rules — every clear arc is guarded at both
        // ends.  A non-fixpoint means contamination was under-propagated.
        let AugState::Contamination(contamination) = aug else {
            unreachable!("searching invariant always carries a contamination state");
        };
        if !contamination.is_recontamination_closed_mask(occupied) {
            return Err("contamination state is not recontamination-closed".to_string());
        }
        Ok(())
    }
}

/// Correctness of the Align phase (Section 3): every fair schedule reaches
/// the special configuration `C*` (or gathers outright, for protocols that
/// continue past `C*`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlignmentInvariant;

impl AlignmentInvariant {
    /// Creates the invariant.
    #[must_use]
    pub fn new() -> Self {
        AlignmentInvariant
    }
}

impl Invariant for AlignmentInvariant {
    fn name(&self) -> &'static str {
        "alignment"
    }

    fn liveness_mode(&self) -> LivenessMode {
        LivenessMode::Reach
    }

    fn check_edge(
        &self,
        _before: &StateView<'_>,
        after: &StateView<'_>,
        _aug: &AugState,
    ) -> Result<(), String> {
        if !after.config.is_exclusive() {
            return Err("exclusivity violated: two robots share a node".to_string());
        }
        Ok(())
    }

    fn is_target(&self, state: &StateView<'_>, _aug: &AugState) -> bool {
        if state.config.is_gathered() {
            return true;
        }
        let supermin = rr_ring::View::new(state.config.gap_sequence()).supermin();
        AlignProtocol::is_goal(&supermin) && !state.has_pending_move()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_corda::{Engine, EngineOptions, SchedulerStep};
    use rr_ring::Ring;

    fn cfg(gaps: &[usize]) -> Configuration {
        Configuration::from_gaps_at_origin(gaps)
    }

    fn view<'a>(config: &'a Configuration, robots: &'a [RobotState]) -> StateView<'a> {
        StateView::new(config, robots)
    }

    #[test]
    fn gathering_target_requires_durability() {
        let inv = GatheringInvariant::new();
        let ring = Ring::new(6);
        let gathered = Configuration::from_counts(ring, vec![0, 3, 0, 0, 0, 0]).unwrap();
        let ready: Vec<RobotState> = (0..3).map(|_| RobotState::new(1)).collect();
        assert!(inv.is_target(&view(&gathered, &ready), &AugState::None));

        // A pending move makes the gathered state non-durable.
        let mut pending = ready.clone();
        pending[0].phase = rr_corda::robot::Phase::MovePending { target: 2 };
        assert!(!inv.is_target(&view(&gathered, &pending), &AugState::None));

        // Abandoning a durable target is a safety violation.
        let apart = Configuration::from_counts(ring, vec![1, 2, 0, 0, 0, 0]).unwrap();
        let apart_robots = [RobotState::new(0), RobotState::new(1), RobotState::new(1)];
        let err = inv
            .check_edge(
                &view(&gathered, &ready),
                &view(&apart, &apart_robots),
                &AugState::None,
            )
            .unwrap_err();
        assert!(err.contains("abandoned"), "{err}");
    }

    #[test]
    fn searching_observes_clearings_and_checks_closure() {
        let inv = SearchingInvariant::new();
        let ring = Ring::new(6);
        let mut config = Configuration::new_exclusive(ring, &[0, 1]).unwrap();
        let mut aug = inv.initial_aug(&config);
        assert!(matches!(aug, AugState::Contamination(_)));
        let key0 = aug.key_bits();

        // Sweep robot 1 around the ring: the last move clears everything and
        // observe_step reports progress exactly once.
        let mut cleared = 0;
        let mut pos = 1usize;
        for next in [2usize, 3, 4, 5] {
            config.move_robot(pos, next).unwrap();
            let report = StepReport {
                moves: vec![rr_corda::MoveRecord {
                    robot: 1,
                    from: pos,
                    to: next,
                    step: 0,
                }],
                looks: 1,
                idles: 0,
            };
            if inv.observe_step(&mut aug, &report, &config) {
                cleared += 1;
            }
            let robots = [RobotState::new(0), RobotState::new(next)];
            inv.check_edge(&view(&config, &robots), &view(&config, &robots), &aug)
                .unwrap();
            pos = next;
        }
        assert_eq!(cleared, 1, "the sweep clears the ring exactly once");
        assert_ne!(aug.key_bits(), key0);

        // A hand-corrupted aug (clear edge with an unguarded end) fails the
        // closure check.
        // A contamination state closed for robots at {0, 1} (edge 0 guarded
        // and clear) is NOT closed for robots at {0, 3}: node 1 is then empty
        // next to contaminated edge 1, so clear edge 0 must recontaminate.
        let bad = AugState::Contamination(Contamination::initial(
            &Configuration::new_exclusive(ring, &[0, 1]).unwrap(),
        ));
        let two = Configuration::new_exclusive(ring, &[0, 3]).unwrap();
        let robots = [RobotState::new(0), RobotState::new(3)];
        let err = inv
            .check_edge(&view(&two, &robots), &view(&two, &robots), &bad)
            .unwrap_err();
        assert!(err.contains("recontamination"), "{err}");
    }

    #[test]
    fn aug_key_bits_round_trip_through_the_template() {
        // None: trivial.
        assert_eq!(AugState::None.from_key_bits(0), AugState::None);
        // Contamination: every mid-run state survives the 64-bit encoding.
        let inv = SearchingInvariant::new();
        let ring = Ring::new(6);
        let mut config = Configuration::new_exclusive(ring, &[0, 1]).unwrap();
        let template = inv.initial_aug(&config);
        let mut aug = template.clone();
        let mut pos = 1usize;
        for next in [2usize, 3, 4, 5] {
            config.move_robot(pos, next).unwrap();
            let report = StepReport {
                moves: vec![rr_corda::MoveRecord {
                    robot: 1,
                    from: pos,
                    to: next,
                    step: 0,
                }],
                looks: 1,
                idles: 0,
            };
            inv.observe_step(&mut aug, &report, &config);
            assert_eq!(template.from_key_bits(aug.key_bits()), aug);
            pos = next;
        }
    }

    #[test]
    fn searching_rejects_multiplicities() {
        let inv = SearchingInvariant::new();
        let ring = Ring::new(6);
        let tower = Configuration::from_counts(ring, vec![2, 0, 0, 1, 0, 0]).unwrap();
        let robots = [RobotState::new(0), RobotState::new(0), RobotState::new(3)];
        let aug = inv.initial_aug(&tower);
        let err = inv
            .check_edge(&view(&tower, &robots), &view(&tower, &robots), &aug)
            .unwrap_err();
        assert!(err.contains("exclusivity"), "{err}");
    }

    #[test]
    fn alignment_target_is_c_star_or_gathered() {
        let inv = AlignmentInvariant::new();
        // C* for (n, k) = (8, 4) is the gap word (0, 0, 1, 3).
        let c_star = cfg(&[0, 0, 1, 3]);
        let robots: Vec<RobotState> = c_star
            .occupied_nodes()
            .into_iter()
            .map(RobotState::new)
            .collect();
        assert!(inv.is_target(&view(&c_star, &robots), &AugState::None));
        let not_c_star = cfg(&[0, 1, 0, 3]);
        let robots2: Vec<RobotState> = not_c_star
            .occupied_nodes()
            .into_iter()
            .map(RobotState::new)
            .collect();
        assert!(!inv.is_target(&view(&not_c_star, &robots2), &AugState::None));
    }

    #[test]
    fn invariants_read_live_engine_states() {
        // The StateView plumbing matches what the checker hands over: an
        // engine's configuration + robots mid-run.
        let inv = GatheringInvariant::new();
        let c = cfg(&[0, 0, 0, 1, 6]);
        let protocol = crate::gathering::GatheringProtocol::new();
        let options = EngineOptions::for_protocol(&protocol);
        let mut engine = Engine::new(protocol, c, options).unwrap();
        engine.step(&SchedulerStep::Look(0), &mut ()).unwrap();
        let state = engine.save_state();
        let sv = StateView::new(state.configuration(), state.robots());
        assert!(!inv.is_target(&sv, &AugState::None));
    }

    #[test]
    fn crash_tolerant_gathering_ignores_the_crashed_robot() {
        let inv = CrashTolerantGatheringInvariant::new();
        let ring = Ring::new(6);
        // Robots 0, 1 on node 2; robot 2 stranded on node 5.
        let apart = Configuration::from_counts(ring, vec![0, 0, 2, 0, 0, 1]).unwrap();
        let robots = [RobotState::new(2), RobotState::new(2), RobotState::new(5)];
        // Fault-free: not a target (robot 2 is apart) — coincides with the
        // plain gathering invariant.
        assert!(!inv.is_target(&view(&apart, &robots), &AugState::None));
        // Robot 2 crashed: the live robots are gathered.
        let crashed = view(&apart, &robots).with_crashed(1 << 2);
        assert!(inv.is_target(&crashed, &AugState::None));
        // A frozen pending move on the crashed robot does not spoil
        // durability...
        let mut frozen = robots.clone();
        frozen[2].phase = rr_corda::robot::Phase::MovePending { target: 4 };
        assert!(inv.is_target(&view(&apart, &frozen).with_crashed(1 << 2), &AugState::None));
        // ...but a live pending move does.
        let mut live_pending = robots.clone();
        live_pending[0].phase = rr_corda::robot::Phase::MovePending { target: 3 };
        assert!(!inv.is_target(
            &view(&apart, &live_pending).with_crashed(1 << 2),
            &AugState::None
        ));
        // Abandoning the live tower is a safety violation.
        let spread = Configuration::from_counts(ring, vec![0, 1, 1, 0, 0, 1]).unwrap();
        let spread_robots = [RobotState::new(1), RobotState::new(2), RobotState::new(5)];
        let err = inv
            .check_edge(
                &crashed,
                &view(&spread, &spread_robots).with_crashed(1 << 2),
                &AugState::None,
            )
            .unwrap_err();
        assert!(err.contains("abandoned"), "{err}");
    }

    #[test]
    fn eventual_gathering_waives_the_safety_clause() {
        let inv = EventualGatheringInvariant::new();
        let ring = Ring::new(6);
        let gathered = Configuration::from_counts(ring, vec![0, 3, 0, 0, 0, 0]).unwrap();
        let ready: Vec<RobotState> = (0..3).map(|_| RobotState::new(1)).collect();
        assert!(inv.is_target(&view(&gathered, &ready), &AugState::None));
        // The strict invariant flags this edge; the eventual one does not —
        // a corrupted Look may transiently break the tower.
        let apart = Configuration::from_counts(ring, vec![1, 2, 0, 0, 0, 0]).unwrap();
        let apart_robots = [RobotState::new(0), RobotState::new(1), RobotState::new(1)];
        assert!(GatheringInvariant::new()
            .check_edge(
                &view(&gathered, &ready),
                &view(&apart, &apart_robots),
                &AugState::None,
            )
            .is_err());
        inv.check_edge(
            &view(&gathered, &ready),
            &view(&apart, &apart_robots),
            &AugState::None,
        )
        .unwrap();
        assert!(!inv.is_target(&view(&apart, &apart_robots), &AugState::None));
    }
}
