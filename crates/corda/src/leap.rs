//! Round leaping: certificates that let the engine apply many rounds at once.
//!
//! A protocol that can *prove* its next decisions are constant for a while
//! publishes a [`LeapPlan`] through `Protocol::leap_plan`
//! (see [`crate::protocol`]): per occupied node, the clockwise velocity the
//! robots there will keep for the next `horizon` full rounds.  The engine
//! (in [`StepPath::Leap`](crate::engine::StepPath) mode) uses the plan two
//! ways:
//!
//! * **per-step fast path** — while the plan is valid, `Engine::step` skips
//!   the Look/Compute pipeline and replays the planned decision through the
//!   ordinary move executor.  Counters, reports, monitor callbacks and
//!   error behaviour are *identical by construction* to baseline stepping,
//!   under every scheduler;
//! * **batched leap** — under a round-uniform scheduler
//!   ([`Scheduler::is_round_uniform`](crate::scheduler::Scheduler)),
//!   `Engine::leap` applies `L ≤ horizon` whole rounds as one closed-form
//!   update of the occupancy index, emitting one
//!   [`Monitor::on_leap`](crate::monitor::Monitor) aggregate callback in
//!   place of the per-robot hooks.
//!
//! ### Certificate contract
//!
//! A protocol returning `true` from `leap_plan` asserts, for the
//! configuration it was called on:
//!
//! 1. at the start of each of the next `horizon` full rounds, every robot's
//!    decision equals the plan: move one step in its node's velocity
//!    direction (`0` = idle) — robots sharing a node share a velocity;
//! 2. applying the planned moves keeps the occupancy structure stable
//!    enough that (1) holds at every intermediate configuration; the only
//!    permitted structural change (a merge, say) is produced by the final
//!    round of the horizon;
//! 3. if at most one *robot* moves per round, the plan is additionally
//!    **interleaving-robust**: it stays valid under arbitrary activation
//!    subsets (any scheduler), with the horizon counted in executed moves of
//!    the walker.  Plans with two or more movers are only valid for full
//!    all-robot rounds, and the engine only fast-paths them on full
//!    activation sets;
//! 4. a plan whose horizon crosses an occupancy merge may only be issued by
//!    a protocol with `requires_exclusivity() == false` (otherwise the
//!    baseline engine would have raised an exclusivity violation mid-leap).
//!
//! The engine `debug_assert`s planned decisions against freshly computed
//! ones on the fast path, and the `leap_lockstep` proptest plus the bench
//! crate's sweep-equality harness check the contract end to end.

use rr_ring::NodeId;

/// A leap certificate: constant per-node velocities and how many full rounds
/// they are guaranteed to hold.
///
/// Produced by [`Protocol::leap_plan`](crate::protocol::Protocol::leap_plan)
/// into an engine-owned buffer (the `velocities` vector is reused across
/// refreshes, so steady-state plan computation allocates nothing).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeapPlan {
    /// `(node, clockwise velocity)` for occupied nodes; `+1` moves clockwise,
    /// `-1` counter-clockwise each round.  Nodes omitted are idle; each
    /// occupied node appears at most once.
    pub velocities: Vec<(NodeId, i8)>,
    /// Number of full rounds the decisions are guaranteed constant
    /// ([`u64::MAX`] = forever, e.g. a gathered configuration).
    pub horizon: u64,
}

impl LeapPlan {
    /// Clears the plan for reuse (keeps the velocity buffer's capacity).
    pub fn clear(&mut self) {
        self.velocities.clear();
        self.horizon = 0;
    }
}

/// Aggregate record of one batched leap, handed to
/// [`Monitor::on_leap`](crate::monitor::Monitor::on_leap) together with the
/// configuration *after* the leap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeapRecord {
    /// Full rounds applied in this leap.
    pub rounds: u64,
    /// Robot moves executed across those rounds.
    pub moves: u64,
    /// Fresh Look phases performed across those rounds.
    pub looks: u64,
    /// Engine step counter after the leap.
    pub step: u64,
}
