//! Declarative network-partition schedules.
//!
//! The paper's channels never disappear, but transient faults and violated
//! churn assumptions can leave parts of the system unable to talk to each
//! other for a while. [`PartitionPlan`] schedules *splits* (groups of
//! processors that lose mutual connectivity) and *heals* at specific rounds,
//! in the same declarative style as [`crate::CrashPlan`] and
//! [`crate::ChurnPlan`]; the scenario runner applies them.
//!
//! ```
//! use simnet::{PartitionPlan, ProcessId, Round};
//! let p: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
//! let plan = PartitionPlan::new()
//!     .split_at(Round::new(10), vec![vec![p[0], p[1]], vec![p[2], p[3]]])
//!     .heal_at(Round::new(50));
//! assert!(plan.splits_due(Round::new(10)).next().is_some());
//! assert!(plan.heals_at(Round::new(50)));
//! ```

use std::collections::{BTreeMap, BTreeSet};

use crate::process::ProcessId;
use crate::time::Round;

/// A schedule of network splits and heals.
#[derive(Debug, Clone, Default)]
pub struct PartitionPlan {
    pub(crate) splits: BTreeMap<Round, Vec<Vec<Vec<ProcessId>>>>,
    pub(crate) heals: BTreeSet<Round>,
}

impl PartitionPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a split into `groups` at `round` (builder style). Processors
    /// in different groups lose connectivity in both directions; processors
    /// mentioned in no group are unaffected.
    pub fn split_at(mut self, round: Round, groups: Vec<Vec<ProcessId>>) -> Self {
        self.splits.entry(round).or_default().push(groups);
        self
    }

    /// Schedules a full heal (unblocking every link) at `round`.
    pub fn heal_at(mut self, round: Round) -> Self {
        self.heals.insert(round);
        self
    }

    /// The splits scheduled for exactly `round`.
    pub fn splits_due(&self, round: Round) -> impl Iterator<Item = &Vec<Vec<ProcessId>>> {
        self.splits.get(&round).into_iter().flatten()
    }

    /// Returns `true` when a heal is scheduled for exactly `round`.
    pub fn heals_at(&self, round: Round) -> bool {
        self.heals.contains(&round)
    }

    /// Total number of scheduled split events.
    pub fn total_splits(&self) -> usize {
        self.splits.values().map(Vec::len).sum()
    }

    /// The last round with a scheduled split or heal.
    pub fn last_round(&self) -> Option<Round> {
        let last_split = self.splits.keys().next_back().copied();
        let last_heal = self.heals.iter().next_back().copied();
        last_split.max(last_heal)
    }
}

/// A schedule of *asymmetric* (one-directional) cuts: links from one group
/// towards another fail while the reverse direction keeps delivering. This
/// is the paper's fail-recovery link model taken seriously — a channel and
/// its twin fail independently — and the condition under which failure
/// detectors disagree most violently: the cut-off side suspects processors
/// that can still hear *it* perfectly well.
///
/// Heals lift exactly the directed links the cuts in force blocked. The
/// network's blocked-link set is shared (not reference-counted), so the
/// runner composes this plan with a [`PartitionPlan`] over overlapping
/// links by re-asserting whichever plan's blocks are still active after
/// the other plan heals.
///
/// ```
/// use simnet::{AsymmetricCutPlan, ProcessId, Round};
/// let p: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
/// let plan = AsymmetricCutPlan::new()
///     .cut_at(Round::new(10), vec![p[0], p[1]], vec![p[2], p[3]])
///     .heal_at(Round::new(50));
/// assert_eq!(plan.total_cuts(), 1);
/// assert_eq!(plan.last_round(), Some(Round::new(50)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AsymmetricCutPlan {
    pub(crate) cuts: BTreeMap<Round, Vec<OnewayCut>>,
    pub(crate) heals: BTreeSet<Round>,
}

/// One scheduled one-directional cut: the links from every member of the
/// first group towards every member of the second are blocked.
pub type OnewayCut = (Vec<ProcessId>, Vec<ProcessId>);

impl AsymmetricCutPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the links from every member of `from` towards every member
    /// of `to` to fail at `round` (builder style). The reverse links keep
    /// working.
    pub fn cut_at(mut self, round: Round, from: Vec<ProcessId>, to: Vec<ProcessId>) -> Self {
        self.cuts.entry(round).or_default().push((from, to));
        self
    }

    /// Schedules a heal at `round`: every one-way cut in force is lifted.
    pub fn heal_at(mut self, round: Round) -> Self {
        self.heals.insert(round);
        self
    }

    /// The cuts scheduled for exactly `round`.
    pub fn cuts_due(&self, round: Round) -> impl Iterator<Item = &OnewayCut> {
        self.cuts.get(&round).into_iter().flatten()
    }

    /// Returns `true` when a heal is scheduled for exactly `round`.
    pub fn heals_at(&self, round: Round) -> bool {
        self.heals.contains(&round)
    }

    /// Total number of scheduled cut events.
    pub fn total_cuts(&self) -> usize {
        self.cuts.values().map(Vec::len).sum()
    }

    /// The last round with a scheduled cut or heal.
    pub fn last_round(&self) -> Option<Round> {
        let last_cut = self.cuts.keys().next_back().copied();
        let last_heal = self.heals.iter().next_back().copied();
        last_cut.max(last_heal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerMode;
    use crate::scenario::{Scenario, ScenarioRunner};
    use crate::testutil::MaxNode;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Starts `scenario` over the toy target, whose initial values are the
    /// process identifiers: the maximum shows how far information spread.
    fn start(scenario: &Scenario, seed: u64) -> ScenarioRunner<MaxNode> {
        ScenarioRunner::new(
            scenario,
            scenario.build_sim(seed, SchedulerMode::EventDriven),
        )
    }

    fn value(runner: &ScenarioRunner<MaxNode>, i: u32) -> u64 {
        runner.sim().process(p(i)).unwrap().value
    }

    #[test]
    fn builder_records_events() {
        let plan = PartitionPlan::new()
            .split_at(Round::new(1), vec![vec![p(0)], vec![p(1)]])
            .split_at(Round::new(1), vec![vec![p(2)], vec![p(3)]])
            .heal_at(Round::new(9));
        assert_eq!(plan.total_splits(), 2);
        assert_eq!(plan.splits_due(Round::new(1)).count(), 2);
        assert_eq!(plan.splits_due(Round::new(2)).count(), 0);
        assert!(plan.heals_at(Round::new(9)));
        assert!(!plan.heals_at(Round::new(8)));
    }

    #[test]
    fn partition_prevents_cross_group_gossip_until_healed() {
        let scenario = Scenario::new("split", 4)
            .split_at(Round::ZERO, vec![vec![p(0), p(1)], vec![p(2), p(3)]])
            .heal_at(Round::new(10))
            .with_rounds(30);
        let mut runner = start(&scenario, 1);
        runner.advance_to(Round::new(8));
        // While partitioned, the large value stays on its side of the cut.
        assert_eq!(value(&runner, 0), 1);
        assert_eq!(value(&runner, 3), 3);
        let run = runner.finish();
        // After the heal, everyone learns the maximum.
        assert!(run.converged, "{run:?}");
        for i in 0..4 {
            assert_eq!(value(&runner, i), 3);
        }
    }

    /// One-directional cut: the cut-off side keeps *sending* successfully;
    /// only the cut direction loses information flow, and the heal restores
    /// it.
    #[test]
    fn asymmetric_cut_blocks_one_direction_and_heals() {
        let lower = vec![p(0), p(1)];
        let upper = vec![p(2), p(3)];
        let scenario = Scenario::new("oneway", 4)
            .with_plan(
                AsymmetricCutPlan::new()
                    .cut_at(Round::ZERO, upper, lower)
                    .heal_at(Round::new(10)),
            )
            .with_rounds(30);
        let mut runner = start(&scenario, 3);
        runner.advance_to(Round::new(8));
        // upper → lower is cut: the maximum (3) stays on the upper side…
        assert_eq!(value(&runner, 0), 1);
        assert_eq!(value(&runner, 1), 1);
        // …while lower → upper still delivers.
        assert_eq!(value(&runner, 2), 3);
        let net = runner.sim().network();
        assert!(net.is_blocked(p(2), p(0)));
        assert!(!net.is_blocked(p(0), p(2)));
        let run = runner.finish();
        // After the heal, the maximum reaches everyone.
        assert!(run.converged, "{run:?}");
        for i in 0..4 {
            assert_eq!(value(&runner, i), 3);
        }
        assert_eq!(runner.sim().network().blocked_link_count(), 0);
    }

    /// An asymmetric heal lifts only the one-way cuts, not a symmetric
    /// partition's blocks on the same links.
    #[test]
    fn asymmetric_heal_does_not_lift_symmetric_splits() {
        let scenario = Scenario::new("oneway-over-split", 3)
            .split_at(Round::ZERO, vec![vec![p(0)], vec![p(1)]])
            .cut_oneway_at(Round::ZERO, vec![p(2)], vec![p(0)])
            .heal_oneway_at(Round::new(1))
            .with_rounds(30);
        let mut runner = start(&scenario, 4);
        runner.advance_to(Round::new(1));
        assert!(runner.sim().network().is_blocked(p(2), p(0)));
        runner.advance_to(Round::new(2));
        let net = runner.sim().network();
        assert!(!net.is_blocked(p(2), p(0)));
        // The symmetric split survives the asymmetric heal.
        assert!(net.is_blocked(p(0), p(1)));
        assert!(net.is_blocked(p(1), p(0)));
    }

    #[test]
    fn heal_and_split_at_same_round_leave_new_split() {
        let scenario = Scenario::new("resplit", 3)
            .split_at(Round::ZERO, vec![vec![p(0)], vec![p(1)]])
            .heal_at(Round::new(3))
            .split_at(Round::new(3), vec![vec![p(1)], vec![p(2)]])
            .with_rounds(30);
        let mut runner = start(&scenario, 2);
        runner.advance_to(Round::new(4));
        let net = runner.sim().network();
        assert!(!net.is_blocked(p(0), p(1)));
        assert!(net.is_blocked(p(1), p(2)));
    }
}
