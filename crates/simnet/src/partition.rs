//! Network partitions in a scenario run: symmetric splits, one-way cuts,
//! and the confinement of joiners behind them.
//!
//! The paper's channels never disappear, but transient faults and violated
//! churn assumptions can leave parts of the system unable to talk to each
//! other for a while. A schedule says so with [`crate::plan::Fault::Split`]
//! and [`crate::plan::Fault::Heal`] (groups that lose mutual connectivity in
//! both directions) and with [`crate::plan::Fault::Oneway`] and
//! [`crate::plan::Fault::HealOneway`] (links that fail in one direction
//! only — a channel and its twin fail independently); the scenario runner
//! applies them. Processors that join while a cut is in force were never
//! named in its groups, so the runner confines them to one side of every
//! cut rather than let them bridge it.
//!
//! ```
//! use simnet::plan::{apply_spec, FaultAction};
//! use simnet::scenario::Scenario;
//! use simnet::{ProcessId, Round};
//! let p: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
//! let groups = vec![vec![p[0], p[1]], vec![p[2], p[3]]];
//! let s = apply_spec(Scenario::new("split", 4), "split=10:0+1/2+3 heal=50").unwrap();
//! assert_eq!(s.actions_at(Round::new(10)), vec![FaultAction::Split(groups)]);
//! assert_eq!(s.actions_at(Round::new(50)), vec![FaultAction::HealSplits]);
//! ```

use std::collections::BTreeSet;

use crate::network::Network;
use crate::process::ProcessId;
use crate::scenario::ScenarioTarget;
use crate::scheduler::Simulation;

/// The cuts in force during a scenario run: every symmetric split and every
/// one-way cut, with the joiners confined behind them. This is the only
/// record of them; whenever it changes, the runner rebuilds the network's
/// blocked set from it ([`Cuts::block`]), so a heal of one kind never lifts
/// the other kind's blocks, even on shared links.
#[derive(Debug, Clone, Default)]
pub(crate) struct Cuts {
    /// Every split in force, as its groups (empty: fully connected).
    pub(crate) splits: Vec<Vec<Vec<ProcessId>>>,
    /// Every one-way cut in force, as `(from, to)`.
    pub(crate) oneway: Vec<(Vec<ProcessId>, Vec<ProcessId>)>,
}

impl Cuts {
    /// Rebuilds `network`'s blocked set from the cuts: every link healed,
    /// then each split, then each one-way cut.
    pub(crate) fn block<M: Clone>(&self, network: &mut Network<M>) {
        network.heal_all_links();
        for groups in &self.splits {
            network.split_into(groups);
        }
        for (from, to) in &self.oneway {
            network.cut_oneway(from, to);
        }
    }

    /// While cuts are in force, every churned-in processor (id ≥ n — the
    /// scenario author could not have named it in the declared groups) is
    /// confined to one side of *each* cut, round-robin by id, and the
    /// blocked set is rebuilt so its links to the other sides are blocked.
    /// This covers joiners arriving during a split, joiners already present
    /// when a split fires, and stacked splits — and the same for one-way
    /// cuts, where a joiner lands on a side by identifier parity and
    /// inherits its deafness (to-side) or muteness (from-side).
    pub(crate) fn confine_joiners<T: ScenarioTarget>(&mut self, sim: &mut Simulation<T>, n: usize) {
        let stray = |covered: BTreeSet<ProcessId>| -> Vec<ProcessId> {
            sim.active_ids()
                .into_iter()
                .filter(|id| id.as_u32() as usize >= n && !covered.contains(id))
                .collect()
        };
        let mut confined = false;
        for groups in &mut self.splits {
            for id in stray(groups.iter().flatten().copied().collect()) {
                let side = id.as_u32() as usize % groups.len();
                groups[side].push(id);
                confined = true;
            }
        }
        for (from, to) in &mut self.oneway {
            for id in stray(from.iter().chain(to.iter()).copied().collect()) {
                if id.as_u32() % 2 == 0 {
                    from.push(id);
                } else {
                    to.push(id);
                }
                confined = true;
            }
        }
        if confined {
            self.block(sim.network_mut());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerMode;
    use crate::plan::FaultAction;
    use crate::scenario::{Scenario, ScenarioRunner};
    use crate::testutil::{planned, MaxNode};
    use crate::time::Round;

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
        let scenario = planned("splits", 4, "split=1:0/1 split=1:2/3 heal=9");
        assert_eq!(scenario.plans().len(), 3);
        assert_eq!(scenario.actions_at(Round::new(1)).len(), 2);
        assert!(scenario.actions_at(Round::new(2)).is_empty());
        assert_eq!(
            scenario.actions_at(Round::new(9)),
            vec![FaultAction::HealSplits]
        );
        assert!(scenario.actions_at(Round::new(8)).is_empty());
        assert_eq!(scenario.last_fault_round(), Round::new(9));
    }

    #[test]
    fn partition_prevents_cross_group_gossip_until_healed() {
        let scenario = planned("split", 4, "split=0:0+1/2+3 heal=10").with_rounds(30);
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
        let scenario = planned("oneway", 4, "oneway=0:2+3>0+1 healoneway=10").with_rounds(30);
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
        let scenario = planned(
            "oneway-over-split",
            3,
            "split=0:0/1 oneway=0:2>0 healoneway=1",
        )
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
        let scenario = planned("resplit", 3, "split=0:0/1 heal=3 split=3:1/2").with_rounds(30);
        let mut runner = start(&scenario, 2);
        runner.advance_to(Round::new(4));
        let net = runner.sim().network();
        assert!(!net.is_blocked(p(0), p(1)));
        assert!(net.is_blocked(p(1), p(2)));
    }
}
