//! Transient-fault recovery: corrupt configurations and notifications, then
//! watch the brute-force stabilization repair the system (experiment E1,
//! run interactively).
//!
//! Run with: `cargo run --example transient_recovery`

use selfstab_reconfig::reconfiguration::{
    config_set, ConfigValue, NodeConfig, Notification, Phase, ReconfigNode,
};
use selfstab_reconfig::sim::{ProcessId, SimConfig, Simulation};

fn main() {
    let n = 6u32;
    let mut sim = Simulation::new(SimConfig::default().with_seed(7).with_max_delay(0));
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(id, config_set(0..n), NodeConfig::for_n(16)),
        );
    }
    sim.run_rounds(40);
    println!(
        "steady state reached: {:?}",
        sim.process(ProcessId::new(0)).unwrap().installed_config()
    );

    // Transient faults: conflicting configurations and a phase-0 notification
    // carrying a proposal.
    sim.process_mut(ProcessId::new(0))
        .unwrap()
        .recsa_mut()
        .corrupt_config(ProcessId::new(0), ConfigValue::Set(config_set([0, 1])));
    sim.process_mut(ProcessId::new(3))
        .unwrap()
        .recsa_mut()
        .corrupt_config(ProcessId::new(3), ConfigValue::Set(config_set([3, 4, 5])));
    sim.process_mut(ProcessId::new(4))
        .unwrap()
        .recsa_mut()
        .corrupt_notification(
            ProcessId::new(4),
            Notification {
                phase: Phase::Zero,
                set: Some(config_set([9])),
            },
        );
    println!("injected conflicting configurations and a stale notification");

    let rounds = sim.run_until(600, |s| {
        s.active_ids().iter().all(|id| {
            let node = s.process(*id).unwrap();
            node.installed_config() == Some(config_set(0..n)) && node.no_reconfiguration()
        })
    });
    println!("recovered to a single conflict-free configuration after {rounds} rounds");

    let resets: u64 = sim
        .active_ids()
        .iter()
        .map(|id| sim.process(*id).unwrap().resets_started())
        .sum();
    println!("brute-force resets started across the system: {resets}");
}
