//! Cross-crate integration tests: the whole stack (failure detector + recSA +
//! recMA + joining + labels + counters + VS-SMR) running inside the
//! simulated asynchronous network, including transient-fault and churn
//! scenarios. Each test is named after the experiment it checks (E1–E13, as
//! `bench::experiments` and docs/EXPERIMENTS.md number them).

use selfstab_reconfig::reconfiguration::{
    config_set, converged_config, ConfigValue, EvalPolicy, NodeConfig, ReconfigNode,
};
use selfstab_reconfig::replication::SmrNode;
use selfstab_reconfig::sim::{ProcessId, SimConfig, Simulation};

/// E1 at scale — a 128-process cluster bootstraps from `⊥` to a single
/// configuration within a handful of rounds. Guards the `(N,Θ)` calibration
/// of `NodeConfig::for_n` (a too-tight `Θ` makes large clusters suspect live
/// peers spuriously, and the brute-force reset then never completes) and the
/// shared-payload message path that makes this scale affordable in CI.
#[test]
fn e1_large_scale_bootstrap_from_bottom() {
    let n: u32 = 128;
    let mut sim = Simulation::new(SimConfig::default().with_seed(7).with_max_delay(0));
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_participant(id, NodeConfig::for_n(2 * n as usize)),
        );
    }
    assert_eq!(converged_config(&sim), None, "must start unconverged");
    let rounds = sim.run_until(16, |s| {
        converged_config(s) == Some(config_set(0..n))
            && s.active_ids()
                .iter()
                .all(|id| s.process(*id).unwrap().no_reconfiguration())
    });
    assert!(rounds < 16, "128-process bootstrap did not converge");
}

/// E1 — convergence from an arbitrary state over a lossy, delaying network.
#[test]
fn e1_convergence_under_lossy_network() {
    let mut sim = Simulation::new(
        SimConfig::default()
            .with_seed(101)
            .with_loss_probability(0.1)
            .with_duplication_probability(0.05)
            .with_max_delay(2)
            .with_channel_capacity(8),
    );
    for i in 0..6u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(id, ReconfigNode::new_participant(id, NodeConfig::for_n(16)));
    }
    let rounds = sim.run_until(1500, |s| converged_config(s) == Some(config_set(0..6)));
    assert!(rounds < 1500, "did not converge under a lossy network");
}

/// E1 — convergence after injected conflicting configurations.
#[test]
fn e1_recovery_from_conflicting_configurations() {
    let mut sim = Simulation::new(SimConfig::default().with_seed(102).with_max_delay(0));
    for i in 0..5u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(id, config_set(0..5), NodeConfig::for_n(16)),
        );
    }
    sim.run_rounds(60);
    // Transient fault: three nodes now hold three different configurations.
    for (node, cfg) in [
        (0u32, config_set([0, 1])),
        (2, config_set([2, 3])),
        (4, config_set([4])),
    ] {
        sim.process_mut(ProcessId::new(node))
            .unwrap()
            .recsa_mut()
            .corrupt_config(ProcessId::new(node), ConfigValue::Set(cfg));
    }
    let rounds = sim.run_until(800, |s| {
        converged_config(s) == Some(config_set(0..5))
            && s.active_ids()
                .iter()
                .all(|id| s.process(*id).unwrap().no_reconfiguration())
    });
    assert!(
        rounds < 800,
        "system did not heal from conflicting configurations"
    );
}

/// E2 — a delicate replacement installs exactly the proposed configuration.
#[test]
fn e2_delicate_replacement_end_to_end() {
    let mut sim = Simulation::new(
        SimConfig::default()
            .with_seed(103)
            .with_loss_probability(0.05)
            .with_max_delay(1),
    );
    for i in 0..5u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(id, config_set(0..5), NodeConfig::for_n(16)),
        );
    }
    sim.run_rounds(80);
    let target = config_set([0, 1, 2, 3]);
    assert!(sim
        .process_mut(ProcessId::new(2))
        .unwrap()
        .request_reconfiguration(target.clone()));
    let rounds = sim.run_until(1200, |s| converged_config(s) == Some(target.clone()));
    assert!(rounds < 1200, "delicate replacement did not complete");
}

/// E4 — majority collapse triggers recMA and the system reconfigures onto the
/// survivors.
#[test]
fn e4_majority_collapse_recovery() {
    let mut sim = Simulation::new(SimConfig::default().with_seed(104).with_max_delay(0));
    for i in 0..5u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(id, ReconfigNode::new_participant(id, NodeConfig::for_n(16)));
    }
    sim.run_rounds(100);
    assert_eq!(converged_config(&sim), Some(config_set(0..5)));
    for i in 2..5 {
        sim.crash(ProcessId::new(i));
    }
    let rounds = sim.run_until(1500, |s| converged_config(s) == Some(config_set(0..2)));
    assert!(rounds < 1500, "survivors never formed a live configuration");
}

/// E4 — the prediction function path: a minority crash plus an eager
/// `evalConf()` policy reconfigures without majority loss.
#[test]
fn e4_prediction_function_reconfiguration() {
    let mut sim = Simulation::new(SimConfig::default().with_seed(105).with_max_delay(0));
    for i in 0..4u32 {
        let id = ProcessId::new(i);
        let cfg =
            NodeConfig::for_n(16).with_eval_policy(EvalPolicy::MissingFraction { fraction: 0.2 });
        sim.add_process_with_id(id, ReconfigNode::new_participant(id, cfg));
    }
    sim.run_rounds(100);
    sim.crash(ProcessId::new(3));
    let rounds = sim.run_until(1500, |s| converged_config(s) == Some(config_set(0..3)));
    assert!(
        rounds < 1500,
        "prediction-driven reconfiguration did not happen"
    );
}

/// E5 — joiners are admitted one after the other and never disturb the
/// configuration.
#[test]
fn e5_joining_under_churn() {
    let mut sim = Simulation::new(SimConfig::default().with_seed(106).with_max_delay(0));
    for i in 0..3u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(id, ReconfigNode::new_participant(id, NodeConfig::for_n(32)));
    }
    sim.run_rounds(100);
    let base_config = converged_config(&sim).expect("initial configuration installed");
    for j in 10..14u32 {
        let id = ProcessId::new(j);
        sim.add_process_with_id(id, ReconfigNode::new_joiner(id, NodeConfig::for_n(32)));
        let rounds = sim.run_until(600, |s| {
            s.process(id).map(|p| p.is_participant()).unwrap_or(false)
        });
        assert!(rounds < 600, "joiner p{j} was never admitted");
    }
    // The configuration is unchanged: joining does not force reconfiguration.
    assert_eq!(converged_config(&sim), Some(base_config));
}

/// E8 — the full VS-SMR stack keeps the replicated state consistent across a
/// coordinator-led reconfiguration (Theorem 4.13).
#[test]
fn e8_vs_smr_state_survives_reconfiguration() {
    let initial = config_set(0..4);
    let mut sim: Simulation<SmrNode> =
        Simulation::new(SimConfig::default().with_seed(107).with_max_delay(0));
    for i in 0..4u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            SmrNode::new_member(id, initial.clone(), NodeConfig::for_n(16)),
        );
    }
    sim.run_until(800, |s| {
        s.active_ids()
            .iter()
            .all(|id| s.process(*id).unwrap().view().is_some())
    });
    sim.process_mut(ProcessId::new(1))
        .unwrap()
        .submit_write(77, 7);
    sim.run_until(800, |s| {
        s.active_ids()
            .iter()
            .all(|id| s.process(*id).unwrap().read_register(77) == Some(7))
    });
    sim.crash(ProcessId::new(3));
    sim.run_rounds(150);
    if let Some(crd) = sim
        .active_ids()
        .into_iter()
        .find(|id| sim.process(*id).unwrap().is_coordinator())
    {
        sim.process_mut(crd)
            .unwrap()
            .request_coordinator_reconfiguration();
    }
    let rounds = sim.run_until(2000, |s| {
        s.active_ids().iter().all(|id| {
            s.process(*id).unwrap().reconfig().installed_config() == Some(config_set(0..3))
        })
    });
    assert!(
        rounds < 2000,
        "coordinator-led reconfiguration never completed"
    );
    sim.run_rounds(150);
    for id in sim.active_ids() {
        assert_eq!(
            sim.process(id).unwrap().read_register(77),
            Some(7),
            "replica state lost across the reconfiguration"
        );
    }
}

/// E9 — total configuration collapse: every member of the installed
/// configuration crashes, and the brute-force technique rebuilds the system
/// from the remaining participants.
#[test]
fn e9_total_collapse_brute_force_recovery() {
    let mut sim = Simulation::new(SimConfig::default().with_seed(108).with_max_delay(0));
    // Configuration members 0..3 plus participants 3..6 that are not members.
    for i in 0..3u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(id, config_set(0..3), NodeConfig::for_n(16)),
        );
    }
    sim.run_rounds(60);
    for i in 3..6u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(id, ReconfigNode::new_joiner(id, NodeConfig::for_n(16)));
    }
    // Let the joiners become participants.
    sim.run_rounds(200);
    // The entire configuration crashes.
    for i in 0..3u32 {
        sim.crash(ProcessId::new(i));
    }
    let rounds = sim.run_until(2000, |s| converged_config(s) == Some(config_set(3..6)));
    assert!(
        rounds < 2000,
        "brute-force recovery after total collapse did not converge"
    );
}
