//! E9 — brute-force recovery from collapse, churn episodes and network
//! partitions.
//!
//! The brute-force technique is the safety net of the whole scheme: whatever
//! the configuration looked like before, once the failure detectors settle
//! the active processors converge onto a configuration made of themselves.
//! These tests drive collapse, staggered churn, repeated replacements and a
//! partition/heal episode through the full stack.

use std::collections::BTreeSet;

use reconfig::{config_set, ConfigSet, NodeConfig, ReconfigNode};
use simnet::{ProcessId, SimConfig, Simulation};

fn converged_config(sim: &Simulation<ReconfigNode>) -> Option<ConfigSet> {
    let mut configs = BTreeSet::new();
    for id in sim.active_ids() {
        match sim.process(id).and_then(|p| p.installed_config()) {
            Some(c) => {
                configs.insert(c);
            }
            None => return None,
        }
    }
    if configs.len() == 1 {
        configs.into_iter().next()
    } else {
        None
    }
}

fn steady_cluster(n: u32, seed: u64) -> Simulation<ReconfigNode> {
    let cfg = config_set(0..n);
    let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(id, cfg.clone(), NodeConfig::for_n(32)),
        );
    }
    sim.run_rounds(60);
    assert_eq!(converged_config(&sim), Some(cfg));
    sim
}

/// Total collapse: every configuration member crashes. Previously admitted
/// participants rebuild the system among themselves by brute force.
#[test]
fn total_collapse_rebuilds_from_the_surviving_participants() {
    let mut sim = steady_cluster(3, 701);
    // Three more processors join as participants (not members).
    for i in 10..13u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_joiner(id, NodeConfig::for_n(32).with_bootstrap_patience(None)),
        );
    }
    let rounds = sim.run_until(800, |s| {
        (10..13u32).all(|i| s.process(ProcessId::new(i)).unwrap().is_participant())
    });
    assert!(rounds < 800, "joiners were never admitted");

    for i in 0..3u32 {
        sim.crash(ProcessId::new(i));
    }
    let survivors = config_set(10..13);
    let rounds = sim.run_until(2500, |s| converged_config(s) == Some(survivors.clone()));
    assert!(rounds < 2500, "survivors never rebuilt a configuration");
}

/// A scheduled sequence of crashes (one member per epoch) combined with the
/// prediction function keeps shrinking the configuration onto the survivors.
#[test]
fn rolling_crashes_keep_shrinking_the_configuration() {
    let cfg = config_set(0..6);
    let mut sim = Simulation::new(SimConfig::default().with_seed(702).with_max_delay(0));
    for i in 0..6u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(
                id,
                cfg.clone(),
                NodeConfig::for_n(32)
                    .with_eval_policy(reconfig::EvalPolicy::MissingFraction { fraction: 0.15 }),
            ),
        );
    }
    sim.run_rounds(60);
    sim.run_rounds_with(800, |s| match s.now().as_u64() {
        80 => s.crash(ProcessId::new(5)),
        400 => s.crash(ProcessId::new(4)),
        _ => {}
    });
    let rounds = sim.run_until(1500, |s| converged_config(s) == Some(config_set(0..4)));
    assert!(
        rounds < 1500,
        "the configuration never shrank onto the survivors"
    );
}

/// Repeated delicate replacements in sequence: the scheme installs each of
/// them, always ending calm with exactly the requested member set.
#[test]
fn repeated_replacements_all_complete() {
    let mut sim = steady_cluster(5, 703);
    let targets: Vec<ConfigSet> = vec![
        config_set([0, 1, 2, 3]),
        config_set([1, 2, 3, 4]),
        config_set([0, 2, 4]),
        config_set(0..5),
    ];
    for target in &targets {
        let proposer = *target.iter().next().unwrap();
        assert!(sim
            .process_mut(proposer)
            .unwrap()
            .request_reconfiguration(target.clone()));
        let rounds = sim.run_until(1200, |s| {
            converged_config(s) == Some(target.clone())
                && s.active_ids()
                    .iter()
                    .all(|id| s.process(*id).unwrap().no_reconfiguration())
        });
        assert!(rounds < 1200, "replacement onto {target:?} never completed");
    }
}

/// A partition into two halves lets each half drift (the minority cannot act,
/// the majority may reconfigure); after the heal the whole system converges
/// back onto one common configuration.
#[test]
fn partition_and_heal_reconverges_to_one_configuration() {
    let mut sim = steady_cluster(6, 704);
    let left: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let right: Vec<ProcessId> = (3..6).map(ProcessId::new).collect();
    sim.run_rounds_with(500, |s| match s.now().as_u64() {
        70 => s.network_mut().split_into(&[left.clone(), right.clone()]),
        450 => s.network_mut().heal_all_links(),
        _ => {}
    });
    // After the heal every processor is reachable again; the system must end
    // with a single common configuration that includes a majority of the
    // active processors.
    let rounds = sim.run_until(2500, |s| {
        converged_config(s).is_some()
            && s.active_ids()
                .iter()
                .all(|id| s.process(*id).unwrap().no_reconfiguration())
    });
    assert!(rounds < 2500, "the halves never re-merged");
    let cfg = converged_config(&sim).unwrap();
    let active: BTreeSet<ProcessId> = sim.active_ids().into_iter().collect();
    let live_members = cfg.iter().filter(|m| active.contains(m)).count();
    assert!(
        live_members > cfg.len() / 2,
        "merged configuration has no live majority"
    );
}

/// A scripted adversary that repeatedly corrupts configurations *while*
/// crashes and joins are happening: the system still ends calm on a single
/// configuration with a live majority.
#[test]
fn scripted_adversary_with_churn_still_converges() {
    let mut sim = steady_cluster(4, 705);
    // Drive through the whole adversarial episode first (the scripted rounds
    // lie between 70 and 140), then wait for convergence.
    sim.run_rounds_with(150, |s| match s.now().as_u64() {
        // Corrupt two configurations in opposite ways.
        70 => {
            s.process_mut(ProcessId::new(0))
                .unwrap()
                .recsa_mut()
                .corrupt_config(
                    ProcessId::new(0),
                    reconfig::ConfigValue::Set(config_set([0])),
                );
            s.process_mut(ProcessId::new(2))
                .unwrap()
                .recsa_mut()
                .corrupt_config(
                    ProcessId::new(2),
                    reconfig::ConfigValue::Set(config_set([2, 3])),
                );
        }
        // One member crashes and a joiner arrives.
        90 => {
            s.crash(ProcessId::new(3));
            let id = ProcessId::new(20);
            s.add_process_with_id(
                id,
                ReconfigNode::new_joiner(id, NodeConfig::for_n(32).with_bootstrap_patience(None)),
            );
        }
        // Corrupt the channels with a duplicate of an old packet.
        140 => s.network_mut().inject(
            ProcessId::new(1),
            ProcessId::new(0),
            reconfig::ReconfigMsg::Heartbeat,
        ),
        _ => {}
    });
    assert!(!sim.is_active(ProcessId::new(3)) && sim.is_active(ProcessId::new(20)));
    let rounds = sim.run_until(2500, |s| {
        converged_config(s).is_some()
            && s.active_ids()
                .iter()
                .all(|id| s.process(*id).unwrap().no_reconfiguration())
    });
    assert!(rounds < 2500, "adversarial episode never converged");
    let cfg = converged_config(&sim).unwrap();
    let active: BTreeSet<ProcessId> = sim.active_ids().into_iter().collect();
    let live_members = cfg.iter().filter(|m| active.contains(m)).count();
    assert!(live_members > cfg.len() / 2);
}

/// Crash of a minority plus the arrival of a replacement processor, followed
/// by an explicit replacement onto the new mix: the configuration ends up
/// exactly as requested, with the newcomer in and the crashed member out.
#[test]
fn replacement_swaps_a_crashed_member_for_a_newcomer() {
    let mut sim = steady_cluster(4, 706);
    sim.crash(ProcessId::new(3));
    let newcomer = ProcessId::new(9);
    sim.add_process_with_id(
        newcomer,
        ReconfigNode::new_joiner(
            newcomer,
            NodeConfig::for_n(32).with_bootstrap_patience(None),
        ),
    );
    let rounds = sim.run_until(800, |s| s.process(newcomer).unwrap().is_participant());
    assert!(rounds < 800, "replacement processor never joined");

    let target = config_set([0, 1, 2, 9]);
    assert!(sim
        .process_mut(ProcessId::new(0))
        .unwrap()
        .request_reconfiguration(target.clone()));
    let rounds = sim.run_until(1500, |s| converged_config(s) == Some(target.clone()));
    assert!(rounds < 1500, "swap replacement never completed");
}
