//! E1/E2 — recSA convergence and closure under injected stale information.
//!
//! Definition 3.1 of the paper classifies the stale information a transient
//! fault can leave behind into four types; Theorem 3.15 (convergence) states
//! that the system eliminates all of them and reaches a conflict-free
//! configuration, and Theorem 3.16 (closure) that it stays conflict-free and
//! that delicate replacements complete exactly once. These tests inject each
//! type of stale information — into local state and into the communication
//! channels — white-box, a state no `--plan` fault can write, and check
//! convergence and closure.

use std::sync::Arc;

use bench::steady_reconfig_sim;
use reconfig::{
    config_set, converged_config, shared_config, shared_ntf, shared_set, ConfigSet, ConfigValue,
    EchoTriple, NodeConfig, Notification, Phase, RecSaMsg, RecSaOwn, ReconfigMsg, ReconfigNode,
};
use simnet::{ProcessId, SimConfig, Simulation};

fn calm(sim: &Simulation<ReconfigNode>) -> bool {
    sim.active_ids()
        .iter()
        .all(|id| sim.process(*id).unwrap().no_reconfiguration())
}

/// Every node's `N` is 16.
const POPULATION: u32 = 8;

/// Type-1 stale information: a phase-0 notification that carries a proposal
/// set. It must be cleaned without disturbing the installed configuration.
#[test]
fn type1_phase_zero_notification_with_set_is_cleaned() {
    let mut sim = steady_reconfig_sim(5, POPULATION, 201);
    let victim = ProcessId::new(2);
    sim.process_mut(victim)
        .unwrap()
        .recsa_mut()
        .corrupt_notification(
            victim,
            Notification {
                phase: Phase::Zero,
                set: Some(config_set([7, 8])),
            },
        );
    let rounds = sim.run_until(400, |s| {
        converged_config(s) == Some(config_set(0..5)) && calm(s)
    });
    assert!(rounds < 400, "type-1 stale information was never cleaned");
}

/// Type-2 stale information: an *empty-set* configuration. The reset it
/// triggers must end with every participant adopting its trusted set.
#[test]
fn type2_empty_configuration_triggers_recovering_reset() {
    let mut sim = steady_reconfig_sim(4, POPULATION, 202);
    let victim = ProcessId::new(1);
    sim.process_mut(victim)
        .unwrap()
        .recsa_mut()
        .corrupt_config(victim, ConfigValue::Set(ConfigSet::new()));
    let rounds = sim.run_until(600, |s| {
        converged_config(s) == Some(config_set(0..4)) && calm(s)
    });
    assert!(rounds < 600, "empty configuration was never repaired");
    let resets: u64 = sim
        .active_ids()
        .iter()
        .map(|id| sim.process(*id).unwrap().resets_started())
        .sum();
    assert!(
        resets >= 1,
        "the empty configuration should have forced a reset"
    );
}

/// Type-2 stale information: three different configurations held by three
/// different processors at once.
#[test]
fn type2_three_way_configuration_conflict_heals() {
    let mut sim = steady_reconfig_sim(6, POPULATION, 203);
    for (node, cfg) in [
        (0u32, config_set([0, 1])),
        (2, config_set([2, 3, 4])),
        (5, config_set([5])),
    ] {
        sim.process_mut(ProcessId::new(node))
            .unwrap()
            .recsa_mut()
            .corrupt_config(ProcessId::new(node), ConfigValue::Set(cfg));
    }
    let rounds = sim.run_until(800, |s| {
        converged_config(s) == Some(config_set(0..6)) && calm(s)
    });
    assert!(rounds < 800, "three-way conflict never healed");
}

/// Type-2 stale information carried by the channels: a stale recSA packet
/// with a conflicting configuration is injected straight into a channel
/// (modelling what a transient fault may leave in transit).
#[test]
fn stale_packet_in_channel_with_conflicting_configuration_heals() {
    let mut sim = steady_reconfig_sim(4, POPULATION, 204);
    let stale = RecSaMsg {
        own: Arc::new(RecSaOwn {
            fd: shared_set(config_set(0..4)),
            part: shared_set(config_set(0..4)),
            config: shared_config(ConfigValue::Set(config_set([0, 3]))),
            prp: shared_ntf(Notification::dflt()),
            all: false,
        }),
        echo: EchoTriple::default(),
    };
    // The stale packet claims to come from p1 and is delivered to p2.
    sim.network_mut().inject(
        ProcessId::new(1),
        ProcessId::new(2),
        ReconfigMsg::RecSa(stale),
    );
    let rounds = sim.run_until(800, |s| {
        converged_config(s) == Some(config_set(0..4)) && calm(s)
    });
    assert!(rounds < 800, "stale channel packet never flushed out");
}

/// Type-3 stale information: notification phases more than one degree apart
/// (a processor claims phase 2 while everyone else is idle), plus a corrupted
/// `allSeen` set.
#[test]
fn type3_phase_gap_and_corrupt_allseen_recover() {
    let mut sim = steady_reconfig_sim(5, POPULATION, 205);
    let victim = ProcessId::new(3);
    {
        let node = sim.process_mut(victim).unwrap();
        node.recsa_mut().corrupt_notification(
            victim,
            Notification::new(Phase::Two, config_set([0, 1, 2, 3, 4, 9])),
        );
        node.recsa_mut()
            .corrupt_all_seen(config_set([0, 9, 17]).into_iter().collect());
    }
    let rounds = sim.run_until(900, |s| calm(s) && converged_config(s).is_some());
    assert!(rounds < 900, "phase-gap corruption never healed");
    // Whatever configuration the recovery settled on — the original one, a
    // brute-force reset onto the trusted set, or the corrupt proposal
    // installed as a spontaneous replacement (all allowed by Lemma 3.14) —
    // it is unique across the participants and a majority of its members is
    // alive, so the quorum system is usable.
    let cfg = converged_config(&sim).unwrap();
    let alive = cfg.iter().filter(|m| m.as_u32() < 5).count();
    assert!(
        alive > cfg.len() / 2,
        "recovered configuration {cfg:?} has no live majority"
    );
}

/// Type-3 stale information: a corrupted echo entry (the victim believes a
/// peer echoed values it never sent).
#[test]
fn type3_corrupt_echo_entry_recovers() {
    let mut sim = steady_reconfig_sim(4, POPULATION, 206);
    let victim = ProcessId::new(0);
    sim.process_mut(victim).unwrap().recsa_mut().corrupt_echo(
        ProcessId::new(2),
        EchoTriple {
            part: shared_set(config_set([0, 2, 9])),
            prp: shared_ntf(Notification::new(Phase::One, config_set([9]))),
            all: true,
        },
    );
    let rounds = sim.run_until(600, |s| {
        converged_config(s) == Some(config_set(0..4)) && calm(s)
    });
    assert!(rounds < 600, "corrupt echo never healed");
}

/// Type-4 stale information: the installed configuration contains no active
/// participant (its members are long gone). The system must reset onto the
/// processors that are actually there.
#[test]
fn type4_configuration_of_ghosts_is_replaced() {
    let ghost_config = config_set([40, 41, 42]);
    let mut sim = Simulation::new(SimConfig::default().with_seed(207).with_max_delay(0));
    for i in 0..4u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(id, ghost_config.clone(), NodeConfig::for_n(16)),
        );
    }
    let rounds = sim.run_until(600, |s| converged_config(s) == Some(config_set(0..4)));
    assert!(rounds < 600, "ghost configuration was never replaced");
}

/// Closure (Theorem 3.16): once conflict-free and calm, the configuration
/// does not change and no resets start without an external cause.
#[test]
fn closure_steady_state_stays_steady() {
    let mut sim = steady_reconfig_sim(5, POPULATION, 208);
    sim.run_rounds(100);
    let resets_before: u64 = sim
        .active_ids()
        .iter()
        .map(|id| sim.process(*id).unwrap().resets_started())
        .sum();
    let triggerings_before: u64 = sim
        .active_ids()
        .iter()
        .map(|id| sim.process(*id).unwrap().recma_triggerings())
        .sum();
    sim.run_rounds(400);
    assert_eq!(converged_config(&sim), Some(config_set(0..5)));
    assert!(calm(&sim));
    let resets_after: u64 = sim
        .active_ids()
        .iter()
        .map(|id| sim.process(*id).unwrap().resets_started())
        .sum();
    let triggerings_after: u64 = sim
        .active_ids()
        .iter()
        .map(|id| sim.process(*id).unwrap().recma_triggerings())
        .sum();
    assert_eq!(
        resets_before, resets_after,
        "spurious reset in steady state"
    );
    assert_eq!(
        triggerings_before, triggerings_after,
        "spurious recMA triggering in steady state"
    );
}

/// Closure under explicit replacements: concurrent `estab()` proposals from
/// every participant are resolved into exactly one of the proposed sets.
#[test]
fn concurrent_proposals_select_a_single_winner() {
    let mut sim = steady_reconfig_sim(5, POPULATION, 209);
    let proposals: Vec<ConfigSet> = vec![
        config_set([0, 1, 2]),
        config_set([1, 2, 3]),
        config_set([2, 3, 4]),
        config_set([0, 2, 4]),
        config_set([0, 1, 4]),
    ];
    for (i, proposal) in proposals.iter().enumerate() {
        sim.process_mut(ProcessId::new(i as u32))
            .unwrap()
            .request_reconfiguration(proposal.clone());
    }
    let rounds = sim.run_until(1000, |s| {
        converged_config(s)
            .map(|cfg| proposals.contains(&cfg))
            .unwrap_or(false)
            && calm(s)
    });
    assert!(
        rounds < 1000,
        "concurrent proposals never converged onto a single winner"
    );
    // Each node performed at most one delicate install for this event.
    for id in sim.active_ids() {
        assert!(sim.process(id).unwrap().recsa().delicate_installs() <= 1);
    }
}

/// A delicate replacement requested while the system is already recovering
/// from a conflict is not lost: the system first becomes conflict-free, and
/// later replacements still work.
#[test]
fn replacement_after_recovery_still_works() {
    let mut sim = steady_reconfig_sim(4, POPULATION, 210);
    // Inject a conflict…
    sim.process_mut(ProcessId::new(3))
        .unwrap()
        .recsa_mut()
        .corrupt_config(ProcessId::new(3), ConfigValue::Set(config_set([3])));
    let rounds = sim.run_until(600, |s| {
        converged_config(s) == Some(config_set(0..4)) && calm(s)
    });
    assert!(rounds < 600);
    // …then perform an ordinary delicate replacement.
    let target = config_set([0, 1, 2]);
    assert!(sim
        .process_mut(ProcessId::new(0))
        .unwrap()
        .request_reconfiguration(target.clone()));
    let rounds = sim.run_until(600, |s| {
        converged_config(s) == Some(target.clone()) && calm(s)
    });
    assert!(rounds < 600, "replacement after recovery never completed");
}

/// Convergence also holds when every processor starts from a *different*
/// arbitrary configuration and the channels are lossy and reordering.
#[test]
fn pairwise_distinct_configurations_converge_under_lossy_links() {
    let mut sim = Simulation::new(
        SimConfig::default()
            .with_seed(211)
            .with_loss_probability(0.1)
            .with_duplication_probability(0.05)
            .with_reordering(true)
            .with_max_delay(2)
            .with_channel_capacity(16),
    );
    for i in 0..5u32 {
        let id = ProcessId::new(i);
        // Every processor believes in a different singleton configuration.
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(id, config_set([i]), NodeConfig::for_n(16)),
        );
    }
    let rounds = sim.run_until(2500, |s| converged_config(s) == Some(config_set(0..5)));
    assert!(rounds < 2500, "distinct configurations never merged");
}
