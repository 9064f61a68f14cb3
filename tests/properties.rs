//! Cross-crate property-based tests.
//!
//! Randomised, seed-driven variants of the main theorems: convergence of the
//! reconfiguration scheme from randomly corrupted states, monotonicity of the
//! register emulation under random operation schedules, and agreement of the
//! full stack under random crash patterns: states and schedules no row or
//! catalog cell fixes. The simulations are deterministic per seed, so every
//! counterexample proptest finds is replayable.

use std::collections::BTreeSet;

use proptest::prelude::*;
use reconfig::{config_set, converged_config, ConfigSet, ConfigValue, NodeConfig, ReconfigNode};
use sharedmem::{OpOutcome, RegisterId, SharedMemNode};
use simnet::{ProcessId, SimConfig, Simulation};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Theorem 3.15 (randomised): whatever subset of processors gets its
    /// configuration corrupted to whatever subsets, the system converges to
    /// a single configuration and becomes calm.
    #[test]
    fn convergence_from_random_configuration_corruption(
        seed in 0u64..10_000,
        n in 3u32..6,
        corruptions in proptest::collection::vec((0u32..6, proptest::collection::btree_set(0u32..8, 1..4)), 1..4),
    ) {
        let cfg = config_set(0..n);
        let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
        for i in 0..n {
            let id = ProcessId::new(i);
            sim.add_process_with_id(
                id,
                ReconfigNode::new_with_config(id, cfg.clone(), NodeConfig::for_n(16)),
            );
        }
        sim.run_rounds(60);
        for (victim, corrupt_set) in corruptions {
            let victim = ProcessId::new(victim % n);
            let corrupt: ConfigSet = corrupt_set.into_iter().map(ProcessId::new).collect();
            sim.process_mut(victim)
                .unwrap()
                .recsa_mut()
                .corrupt_config(victim, ConfigValue::Set(corrupt));
        }
        let rounds = sim.run_until(2500, |s| {
            converged_config(s).is_some()
                && s.active_ids().iter().all(|id| s.process(*id).unwrap().no_reconfiguration())
        });
        prop_assert!(rounds < 2500, "no convergence after random corruption");
        // Conflict-freedom: one configuration, shared by everyone.
        let cfg = converged_config(&sim);
        prop_assert!(cfg.is_some());
    }

    /// The full stack under a random crash pattern that keeps a majority
    /// alive: the survivors agree on a configuration containing a live
    /// majority.
    #[test]
    fn random_minority_crashes_preserve_agreement(
        seed in 0u64..10_000,
        crash_mask in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let n = 5u32;
        let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
        for i in 0..n {
            let id = ProcessId::new(i);
            sim.add_process_with_id(
                id,
                ReconfigNode::new_with_config(id, config_set(0..n), NodeConfig::for_n(16)),
            );
        }
        sim.run_rounds(60);
        // Crash at most a minority (first two `true` entries).
        let mut crashed = 0;
        for (i, crash) in crash_mask.iter().enumerate() {
            if *crash && crashed < 2 {
                sim.crash(ProcessId::new(i as u32));
                crashed += 1;
            }
        }
        sim.run_rounds(300);
        let cfg = converged_config(&sim);
        prop_assert!(cfg.is_some(), "survivors lost agreement");
        let active: BTreeSet<ProcessId> = sim.active_ids().into_iter().collect();
        let cfg = cfg.unwrap();
        let live = cfg.iter().filter(|m| active.contains(m)).count();
        prop_assert!(live > cfg.len() / 2, "no live majority in {cfg:?}");
    }

    /// Register monotonicity under random write schedules: a read that starts
    /// after the k-th write committed never returns a value written earlier
    /// than the k-th write.
    #[test]
    fn register_reads_are_monotone_under_random_schedules(
        seed in 0u64..10_000,
        writers in proptest::collection::vec(0u32..3, 2..6),
    ) {
        let cfg = config_set(0..3);
        let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
        for i in 0..3u32 {
            let id = ProcessId::new(i);
            sim.add_process_with_id(
                id,
                SharedMemNode::new_member(id, cfg.clone(), NodeConfig::for_n(16)),
            );
        }
        sim.run_rounds(40);
        let key = RegisterId::new(1);
        let reader = ProcessId::new(2);
        for (k, writer) in writers.iter().enumerate() {
            let writer = ProcessId::new(*writer);
            let value = (k as u64 + 1) * 10;
            let before = sim.process(writer).unwrap().writes_committed();
            sim.process_mut(writer).unwrap().submit_write(key, value);
            let rounds = sim.run_until(400, |s| s.process(writer).unwrap().writes_committed() > before);
            prop_assert!(rounds < 400, "write {value} never committed");
            let committed_writes = value;

            sim.process_mut(reader).unwrap().submit_read(key);
            let target = k as u64 + 1;
            let rounds = sim.run_until(400, |s| s.process(reader).unwrap().reads_committed() >= target);
            prop_assert!(rounds < 400, "read after write {value} never committed");
            let outcomes = sim.process_mut(reader).unwrap().take_completed();
            let read_value = outcomes.iter().find_map(|o| match o {
                OpOutcome::ReadCommitted { value, .. } => Some(value.unwrap_or(0)),
                _ => None,
            }).unwrap_or(0);
            prop_assert!(
                read_value >= committed_writes,
                "read returned {read_value} after write {committed_writes} committed"
            );
        }
    }
}
