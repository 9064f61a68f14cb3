//! E5 — the joining mechanism and application-controlled admission.
//!
//! Theorem 3.26: a joining processor keeps trying while the application
//! allows it, becomes a participant only with the approval of a majority of
//! configuration members and only outside reconfiguration periods, and can
//! never perturb the configuration just by joining.

use std::collections::BTreeSet;

use reconfig::{
    config_set, AdmissionPolicy, ConfigSet, JoinMsg, NodeConfig, ReconfigMsg, ReconfigNode,
};
use simnet::stack::{Layer, Outbox};
use simnet::{ProcessId, ScenarioTarget, SimConfig, SimRng, Simulation};

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

fn members_cluster(n: u32, seed: u64, admission: AdmissionPolicy) -> Simulation<ReconfigNode> {
    let cfg = config_set(0..n);
    let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(
                id,
                cfg.clone(),
                NodeConfig::for_n(32).with_admission(admission),
            ),
        );
    }
    sim.run_rounds(60);
    assert_eq!(converged_config(&sim), Some(cfg));
    sim
}

fn add_joiner(sim: &mut Simulation<ReconfigNode>, id: u32) -> ProcessId {
    let pid = ProcessId::new(id);
    sim.add_process_with_id(
        pid,
        ReconfigNode::new_joiner(pid, NodeConfig::for_n(32).with_bootstrap_patience(None)),
    );
    pid
}

/// A joiner is admitted by an `AdmitAll` configuration and the configuration
/// itself does not change.
#[test]
fn joiner_admitted_without_changing_the_configuration() {
    let mut sim = members_cluster(3, 401, AdmissionPolicy::AdmitAll);
    let joiner = add_joiner(&mut sim, 10);
    let rounds = sim.run_until(400, |s| s.process(joiner).unwrap().is_participant());
    assert!(rounds < 400, "joiner was never admitted");
    assert_eq!(converged_config(&sim), Some(config_set(0..3)));
    // The joiner learned the installed configuration, not some private one.
    assert_eq!(
        sim.process(joiner).unwrap().installed_config(),
        Some(config_set(0..3))
    );
}

/// `DenyAll` keeps the joiner out for as long as it is in force; switching to
/// `AdmitAll` at run time finally lets it in (the joiner keeps retrying, as
/// Theorem 3.26 requires).
#[test]
fn deny_all_blocks_until_the_application_relents() {
    let mut sim = members_cluster(3, 402, AdmissionPolicy::DenyAll);
    let joiner = add_joiner(&mut sim, 10);
    sim.run_rounds(300);
    assert!(
        !sim.process(joiner).unwrap().is_participant(),
        "DenyAll must keep the joiner out"
    );
    for i in 0..3u32 {
        sim.process_mut(ProcessId::new(i))
            .unwrap()
            .set_admission(AdmissionPolicy::AdmitAll);
    }
    let rounds = sim.run_until(400, |s| s.process(joiner).unwrap().is_participant());
    assert!(
        rounds < 400,
        "joiner still locked out after the policy change"
    );
}

/// Several joiners are admitted one after the other; all of them end up
/// participants and the configuration never changes.
#[test]
fn many_joiners_are_admitted_in_sequence() {
    let mut sim = members_cluster(3, 403, AdmissionPolicy::AdmitAll);
    let joiners: Vec<ProcessId> = (20..25).map(|i| add_joiner(&mut sim, i)).collect();
    let rounds = sim.run_until(1500, |s| {
        joiners
            .iter()
            .all(|j| s.process(*j).unwrap().is_participant())
    });
    assert!(rounds < 1500, "not every joiner was admitted");
    assert_eq!(converged_config(&sim), Some(config_set(0..3)));
    for j in &joiners {
        assert!(sim.process(*j).unwrap().installed_config().is_some());
    }
}

/// A staggered arrival of joiners (one at round 70, two at 120, one at
/// 180); the configuration survives the whole churn episode untouched.
#[test]
fn staggered_churn_does_not_perturb_the_configuration() {
    let mut sim = members_cluster(4, 404, AdmissionPolicy::AdmitAll);
    let mut joined: Vec<ProcessId> = Vec::new();
    sim.run_rounds_with(260, |s| {
        let count = match s.now().as_u64() {
            70 | 180 => 1,
            120 => 2,
            _ => 0,
        };
        for _ in 0..count {
            let id = s.fresh_id();
            let joiner =
                ReconfigNode::new_joiner(id, NodeConfig::for_n(32).with_bootstrap_patience(None));
            s.add_process_with_id(id, joiner);
            joined.push(id);
        }
    });
    assert_eq!(joined.len(), 4);
    let rounds = sim.run_until(1200, |s| {
        joined
            .iter()
            .all(|j| s.process(*j).unwrap().is_participant())
    });
    assert!(rounds < 1200, "churned joiners were not admitted");
    assert_eq!(converged_config(&sim), Some(config_set(0..4)));
}

/// A joiner that arrives while a delicate replacement is in progress is not
/// admitted before the replacement completes, and is admitted afterwards.
#[test]
fn joining_waits_for_an_ongoing_reconfiguration() {
    let mut sim = members_cluster(4, 405, AdmissionPolicy::AdmitAll);
    let target = config_set([0, 1, 2]);
    assert!(sim
        .process_mut(ProcessId::new(1))
        .unwrap()
        .request_reconfiguration(target.clone()));
    // The joiner shows up in the middle of the replacement.
    let joiner = add_joiner(&mut sim, 30);
    let rounds = sim.run_until(1500, |s| {
        converged_config(s) == Some(target.clone()) && s.process(joiner).unwrap().is_participant()
    });
    assert!(
        rounds < 1500,
        "replacement and admission did not both complete"
    );
    // The final configuration is exactly the proposed one — the joiner's
    // arrival did not leak into it.
    assert_eq!(converged_config(&sim), Some(target));
}

/// A joiner can later be included in the configuration through an explicit
/// delicate replacement that names it.
#[test]
fn admitted_joiner_can_become_a_member_via_replacement() {
    let mut sim = members_cluster(3, 406, AdmissionPolicy::AdmitAll);
    let joiner = add_joiner(&mut sim, 7);
    let rounds = sim.run_until(400, |s| s.process(joiner).unwrap().is_participant());
    assert!(rounds < 400);
    let target = config_set([0, 1, 2, 7]);
    assert!(sim
        .process_mut(ProcessId::new(0))
        .unwrap()
        .request_reconfiguration(target.clone()));
    let rounds = sim.run_until(1000, |s| converged_config(s) == Some(target.clone()));
    assert!(
        rounds < 1000,
        "replacement including the joiner never completed"
    );
}

/// Complete collapse with joiners present: when every configuration member
/// crashes, the brute-force technique rebuilds the system out of the admitted
/// participants — admission control cannot stand in the way of recovery.
#[test]
fn collapse_recovery_includes_admitted_participants() {
    let mut sim = members_cluster(3, 407, AdmissionPolicy::AdmitAll);
    let joiners: Vec<ProcessId> = (10..13).map(|i| add_joiner(&mut sim, i)).collect();
    let rounds = sim.run_until(800, |s| {
        joiners
            .iter()
            .all(|j| s.process(*j).unwrap().is_participant())
    });
    assert!(rounds < 800);
    for i in 0..3u32 {
        sim.crash(ProcessId::new(i));
    }
    let expected: ConfigSet = joiners.iter().copied().collect();
    let rounds = sim.run_until(2500, |s| converged_config(s) == Some(expected.clone()));
    assert!(
        rounds < 2500,
        "survivor participants never formed a configuration"
    );
}

/// Stale packets on a joiner's links: before it arrives, every link into a
/// fresh identifier is filled to capacity with what a transient fault may
/// leave in transit — pass grants nobody issued to it, and recSA broadcasts
/// of corrupted members, addressed to others and partly sent under another
/// member's name. No clean handshake flushes them; the
/// joiner is admitted all the same, and the configuration neither changes
/// nor loses its calm.
#[test]
fn stale_packets_on_a_joiners_links_are_tolerated() {
    let mut sim = members_cluster(4, 409, AdmissionPolicy::AdmitAll);
    let members = sim.ids();
    let joiner = ProcessId::new(4);
    let mut rng = SimRng::seed_from(409);
    let mut recsa = Vec::new();
    for member in &members {
        let mut corrupted = sim.process(*member).unwrap().clone();
        corrupted.corrupt(&mut rng);
        let mut out = Outbox::new();
        corrupted.poll(&members, &mut out);
        let polled = out.into_messages().into_iter().map(|(_, m)| m);
        recsa.extend(polled.filter(|m| matches!(m, ReconfigMsg::RecSa(_))));
    }
    assert!(!recsa.is_empty(), "corrupted members broadcast no recSA");
    let pass = ReconfigMsg::Join(JoinMsg::Response { pass: true });
    let capacity = sim.config().channel_policy().capacity;
    for from in &members {
        for nth in 0..capacity {
            let msg = match nth % 2 {
                0 => pass.clone(),
                _ => recsa[nth % recsa.len()].clone(),
            };
            sim.network_mut().inject(*from, joiner, msg);
        }
        let link = sim.network().channel(*from, joiner).unwrap();
        assert_eq!(link.in_flight().count(), capacity);
    }
    sim.add_process_with_id(joiner, ReconfigNode::spawn_joiner(joiner, 4));
    let rounds = sim.run_until(600, |s| {
        s.process(joiner).unwrap().is_participant() && ReconfigNode::converged(s)
    });
    assert!(rounds < 600, "the joiner was never admitted");
    // And it stays that way once the stale packets are long gone.
    sim.run_rounds(100);
    assert!(ReconfigNode::converged(&sim));
    assert_eq!(converged_config(&sim), Some(config_set(0..4)));
    assert!(ReconfigNode::invariant_violations(&sim).is_empty());
}

/// Observability: the joining layer reports completed joins.
#[test]
fn joining_observability_counters() {
    let mut sim = members_cluster(3, 408, AdmissionPolicy::AdmitAll);
    let joiner = add_joiner(&mut sim, 11);
    sim.run_until(400, |s| s.process(joiner).unwrap().is_participant());
    assert!(sim.process(joiner).unwrap().is_participant());
    // Give the joiner's first participant broadcast time to reach the
    // members, then they list it in their participant sets.
    let rounds = sim.run_until(200, |s| {
        s.process(ProcessId::new(0))
            .unwrap()
            .participants()
            .contains(&joiner)
    });
    assert!(rounds < 200, "members never observed the new participant");
}
