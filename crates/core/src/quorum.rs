//! Generalized quorum systems over a configuration.
//!
//! The paper uses majorities ("the simplest form of a quorum system") but
//! notes that *"our reconfiguration scheme can be modified to support more
//! complex quorum systems, as long as processors have access to a mechanism
//! (a function actually) that given a set of processors can generate the
//! specific quorum system"* (Section 1, Related work). This module provides
//! that mechanism: a [`QuorumSystem`] turns a configuration into a predicate
//! over processor sets, and the applications (shared memory, SMR) use it
//! instead of the raw majority test.

use simnet::ProcessId;

use crate::types::ConfigSet;

/// A rule for deriving quorums from a configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum QuorumSystem {
    /// Simple majorities: any set containing more than half of the
    /// configuration members is a quorum (the paper's default).
    #[default]
    Majority,
    /// Grid quorums: the configuration is arranged row-major into a grid with
    /// `columns` columns; a quorum must contain one full row plus one member
    /// of every row (a standard √n-sized quorum construction). Falls back to
    /// majorities for configurations smaller than one full row.
    Grid {
        /// Number of columns of the grid.
        columns: usize,
    },
}

impl QuorumSystem {
    /// Returns `true` when the members of `config` for which `present` holds
    /// form a quorum of `config`. `present` is asked about members only, so
    /// answers from outside the configuration never count.
    pub fn is_quorum(&self, config: &ConfigSet, present: impl Fn(&ProcessId) -> bool) -> bool {
        let majority = || config.iter().filter(|m| present(m)).count() > config.len() / 2;
        match self {
            QuorumSystem::Majority => majority(),
            QuorumSystem::Grid { columns } => {
                let columns = (*columns).max(1);
                if config.len() < columns {
                    return majority();
                }
                let members: Vec<ProcessId> = config.iter().copied().collect();
                let rows = || members.chunks(columns);
                rows().any(|row| row.iter().all(&present))
                    && rows().all(|row| row.iter().any(&present))
            }
        }
    }

    /// The smallest number of members that can possibly form a quorum, used
    /// by callers for capacity planning (e.g. how many crash failures the
    /// configuration tolerates).
    pub fn minimum_quorum_size(&self, config: &ConfigSet) -> usize {
        match self {
            QuorumSystem::Majority => config.len() / 2 + 1,
            QuorumSystem::Grid { columns } => {
                let columns = (*columns).max(1);
                let n = config.len();
                if n < columns {
                    return n / 2 + 1;
                }
                let rows = n.div_ceil(columns);
                (columns + rows - 1).min(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::config_set;

    fn in_set(ids: &[u32]) -> impl Fn(&ProcessId) -> bool + '_ {
        |p| ids.contains(&p.as_u32())
    }

    #[test]
    fn majority_quorums() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let q = QuorumSystem::Majority;
        assert!(q.is_quorum(&cfg, in_set(&[0, 1, 2])));
        assert!(!q.is_quorum(&cfg, in_set(&[0, 1])));
        assert!(!q.is_quorum(&config_set([]), in_set(&[0, 1])));
        assert_eq!(q.minimum_quorum_size(&cfg), 3);
    }

    #[test]
    fn non_members_do_not_count_towards_a_quorum() {
        let cfg = config_set([0, 1, 2]);
        let q = QuorumSystem::Majority;
        assert!(!q.is_quorum(&cfg, in_set(&[0, 7, 8, 9])));
        assert!(q.is_quorum(&cfg, in_set(&[0, 1, 7])));
    }

    #[test]
    fn grid_quorums_need_a_row_and_a_cover() {
        // 2 × 2 grid over {0,1,2,3}: rows {0,1} and {2,3}.
        let cfg = config_set([0, 1, 2, 3]);
        let q = QuorumSystem::Grid { columns: 2 };
        assert!(
            q.is_quorum(&cfg, in_set(&[0, 1, 2])),
            "row {{0,1}} + cover of row 2"
        );
        assert!(
            !q.is_quorum(&cfg, in_set(&[0, 1])),
            "row without covering the other row"
        );
        assert!(
            !q.is_quorum(&cfg, in_set(&[0, 2])),
            "cover without a full row"
        );
        assert!(q.is_quorum(&cfg, in_set(&[2, 3, 1])));
        assert_eq!(q.minimum_quorum_size(&cfg), 3);
    }

    #[test]
    fn grid_smaller_than_a_row_falls_back_to_majority() {
        let cfg = config_set([0, 1]);
        let q = QuorumSystem::Grid { columns: 5 };
        assert!(q.is_quorum(&cfg, in_set(&[0, 1])));
        assert!(!q.is_quorum(&cfg, in_set(&[0])));
    }

    #[test]
    fn default_is_majority() {
        assert_eq!(QuorumSystem::default(), QuorumSystem::Majority);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// For every generated configuration and pair of candidate quorums,
        /// the majority and grid systems guarantee intersection.
        #[test]
        fn two_quorums_always_intersect(
            members in proptest::collection::btree_set(0u32..20, 1..12),
            a in proptest::collection::btree_set(0u32..20, 0..20),
            b in proptest::collection::btree_set(0u32..20, 0..20),
            columns in 1usize..5,
        ) {
            let cfg: ConfigSet = members.into_iter().map(ProcessId::new).collect();
            let a: BTreeSet<ProcessId> = a.into_iter().map(ProcessId::new).collect();
            let b: BTreeSet<ProcessId> = b.into_iter().map(ProcessId::new).collect();
            for system in [QuorumSystem::Majority, QuorumSystem::Grid { columns }] {
                if system.is_quorum(&cfg, |m| a.contains(m)) && system.is_quorum(&cfg, |m| b.contains(m)) {
                    let intersection: Vec<_> = a.intersection(&b)
                        .filter(|p| cfg.contains(p))
                        .collect();
                    prop_assert!(
                        !intersection.is_empty(),
                        "two quorums of {system:?} failed to intersect"
                    );
                }
            }
        }
    }
}
