//! E8 — virtually synchronous state-machine replication (Algorithm 4.7).
//!
//! Theorem 4.13: starting from an arbitrary state the algorithm simulates
//! state-machine replication preserving the virtual synchrony property, and
//! the replica state survives coordinator-led delicate reconfigurations.
//! These tests check view agreement, state agreement, coordinator fail-over
//! and the coordinator-led reconfiguration path end to end; E8 checks only
//! that writes apply in a fixed view.

use bench::smr_cluster;
use reconfig::{config_set, ConfigSet, NodeConfig};
use simnet::{ProcessId, Simulation};
use vssmr::SmrNode;

fn all_read(sim: &Simulation<SmrNode>, key: u32, expected: u64) -> bool {
    sim.active_ids()
        .iter()
        .all(|id| sim.process(*id).unwrap().read_register(key) == Some(expected))
}

/// Every member installs the same first view, with the same identifier and
/// member set, and exactly one member considers itself the coordinator.
#[test]
fn members_agree_on_the_installed_view() {
    let sim = smr_cluster(4, 501);
    let views: Vec<_> = sim
        .active_ids()
        .iter()
        .map(|id| sim.process(*id).unwrap().view().cloned().unwrap())
        .collect();
    for pair in views.windows(2) {
        assert_eq!(pair[0].id, pair[1].id, "view identifiers differ");
        assert_eq!(pair[0].members, pair[1].members, "view member sets differ");
    }
    let coordinators: Vec<ProcessId> = sim
        .active_ids()
        .into_iter()
        .filter(|id| sim.process(*id).unwrap().is_coordinator())
        .collect();
    assert_eq!(coordinators.len(), 1, "exactly one coordinator expected");
    assert_eq!(coordinators[0], views[0].coordinator());
}

/// Writes submitted at different replicas are applied by every replica and
/// the replica states converge (same registers, same applied count shape).
#[test]
fn replicated_state_converges_across_members() {
    let mut sim = smr_cluster(4, 502);
    sim.process_mut(ProcessId::new(0))
        .unwrap()
        .submit_write(1, 11);
    sim.process_mut(ProcessId::new(2))
        .unwrap()
        .submit_write(2, 22);
    sim.process_mut(ProcessId::new(3))
        .unwrap()
        .submit_write(3, 33);
    let rounds = sim.run_until(1500, |s| {
        all_read(s, 1, 11) && all_read(s, 2, 22) && all_read(s, 3, 33)
    });
    assert!(
        rounds < 1500,
        "replicated writes never reached every member"
    );
    // Every replica applied at least the three commands.
    for id in sim.active_ids() {
        assert!(sim.process(id).unwrap().commands_applied() >= 3);
    }
}

/// Repeated writes to the same register settle on the last value — the
/// multicast rounds impose a single order that every replica follows.
#[test]
fn overwrites_settle_on_one_value_everywhere() {
    let mut sim = smr_cluster(3, 503);
    for v in 1..=5u64 {
        sim.process_mut(ProcessId::new(0))
            .unwrap()
            .submit_write(9, v);
        sim.run_until(600, |s| all_read(s, 9, v));
    }
    assert!(all_read(&sim, 9, 5));
}

/// When the coordinator crashes, the surviving members install a new view
/// that excludes it and the replicated state survives the fail-over.
#[test]
fn coordinator_crash_fails_over_and_preserves_state() {
    let mut sim = smr_cluster(4, 504);
    sim.process_mut(ProcessId::new(1))
        .unwrap()
        .submit_write(7, 77);
    let rounds = sim.run_until(800, |s| all_read(s, 7, 77));
    assert!(rounds < 800);

    let coordinator = sim
        .active_ids()
        .into_iter()
        .find(|id| sim.process(*id).unwrap().is_coordinator())
        .expect("a coordinator exists");
    sim.crash(coordinator);

    let rounds = sim.run_until(2500, |s| {
        s.active_ids().iter().all(|id| {
            s.process(*id)
                .unwrap()
                .view()
                .map(|v| !v.members.contains(&coordinator))
                .unwrap_or(false)
        })
    });
    assert!(
        rounds < 2500,
        "no new view excluding the crashed coordinator"
    );
    // The register survives the fail-over.
    for id in sim.active_ids() {
        assert_eq!(sim.process(id).unwrap().read_register(7), Some(77));
    }
    // Exactly one new coordinator emerged.
    let coordinators: Vec<ProcessId> = sim
        .active_ids()
        .into_iter()
        .filter(|id| sim.process(*id).unwrap().is_coordinator())
        .collect();
    assert_eq!(coordinators.len(), 1);
    assert_ne!(coordinators[0], coordinator);
}

/// View identifiers only move forward at every replica (monotone view
/// installation), even across a coordinator change.
#[test]
fn view_identifiers_are_monotone() {
    let mut sim = smr_cluster(3, 505);
    let initial: Vec<_> = sim
        .active_ids()
        .iter()
        .map(|id| (*id, sim.process(*id).unwrap().view().cloned().unwrap()))
        .collect();
    // Force a view change by crashing the coordinator.
    let coordinator = initial.iter().map(|(_, v)| v.coordinator()).next().unwrap();
    sim.crash(coordinator);
    sim.run_until(2500, |s| {
        s.active_ids().iter().all(|id| {
            s.process(*id)
                .unwrap()
                .view()
                .map(|v| !v.members.contains(&coordinator))
                .unwrap_or(false)
        })
    });
    for (id, old_view) in initial {
        if !sim.is_active(id) {
            continue;
        }
        let new_view = sim.process(id).unwrap().view().cloned().unwrap();
        assert!(
            old_view.older_than(&new_view),
            "view identifier did not advance at {id}"
        );
        assert!(sim.process(id).unwrap().views_installed() >= 2);
    }
}

/// The coordinator-led delicate reconfiguration (Algorithm 4.6): the
/// coordinator suspends multicast, the configuration shrinks onto the
/// trusted participants, a view of the new configuration is installed and
/// the replica state is carried over.
#[test]
fn coordinator_led_reconfiguration_carries_the_state() {
    let mut sim = smr_cluster(4, 506);
    sim.process_mut(ProcessId::new(2))
        .unwrap()
        .submit_write(5, 55);
    let rounds = sim.run_until(800, |s| all_read(s, 5, 55));
    assert!(rounds < 800);

    // One member crashes; the coordinator decides to reconfigure onto the
    // survivors.
    sim.crash(ProcessId::new(3));
    sim.run_rounds(150);
    let coordinator = sim
        .active_ids()
        .into_iter()
        .find(|id| sim.process(*id).unwrap().is_coordinator());
    let Some(coordinator) = coordinator else {
        // The crashed member was the coordinator; fail-over is covered by the
        // dedicated test above, so nothing more to check here.
        return;
    };
    assert!(sim
        .process_mut(coordinator)
        .unwrap()
        .request_coordinator_reconfiguration());

    let survivors: ConfigSet = config_set(0..3);
    let rounds = sim.run_until(3000, |s| {
        s.active_ids().iter().all(|id| {
            s.process(*id).unwrap().reconfig().installed_config() == Some(survivors.clone())
        })
    });
    assert!(
        rounds < 3000,
        "coordinator-led reconfiguration never completed"
    );
    sim.run_rounds(200);
    for id in sim.active_ids() {
        assert_eq!(
            sim.process(id).unwrap().read_register(5),
            Some(55),
            "state lost across the coordinator-led reconfiguration"
        );
    }
    // Service continues in the new configuration.
    sim.process_mut(ProcessId::new(0))
        .unwrap()
        .submit_write(6, 66);
    let rounds = sim.run_until(1500, |s| all_read(s, 6, 66));
    assert!(rounds < 1500, "no progress after the reconfiguration");
}

/// A joiner added to a running cluster becomes a participant, and once the
/// coordinator reconfigures onto its trusted set the joiner is included in a
/// view and receives the replicated state.
#[test]
fn joiner_receives_state_after_coordinator_reconfiguration() {
    let mut sim = smr_cluster(3, 507);
    sim.process_mut(ProcessId::new(0))
        .unwrap()
        .submit_write(4, 44);
    let rounds = sim.run_until(800, |s| all_read(s, 4, 44));
    assert!(rounds < 800);

    let joiner = ProcessId::new(8);
    sim.add_process_with_id(joiner, SmrNode::new_joiner(joiner, NodeConfig::for_n(16)));
    let rounds = sim.run_until(800, |s| {
        s.process(joiner).unwrap().reconfig().is_participant()
    });
    assert!(rounds < 800, "SMR joiner was never admitted");

    // Let the failure detectors see the newcomer, then reconfigure onto the
    // full trusted set.
    sim.run_rounds(100);
    if let Some(coordinator) = sim
        .active_ids()
        .into_iter()
        .find(|id| sim.process(*id).unwrap().is_coordinator())
    {
        assert!(sim
            .process_mut(coordinator)
            .unwrap()
            .request_coordinator_reconfiguration());
    }
    let rounds = sim.run_until(3000, |s| {
        s.process(joiner)
            .unwrap()
            .view()
            .map(|v| v.members.contains(&joiner))
            .unwrap_or(false)
            && s.process(joiner).unwrap().read_register(4) == Some(44)
    });
    assert!(
        rounds < 3000,
        "the joiner never entered a view with the replicated state"
    );
}
