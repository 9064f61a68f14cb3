//! A network partition splits the system into two halves; each half keeps
//! running with whatever it can see, and after the heal the self-stabilizing
//! reconfiguration scheme merges the halves back onto a single conflict-free
//! configuration — the kind of transient fault the paper's brute-force
//! technique exists for.
//!
//! Run with: `cargo run --example partitioned_cluster`

use std::collections::BTreeSet;

use selfstab_reconfig::reconfiguration::{config_set, ConfigSet, NodeConfig, ReconfigNode};
use selfstab_reconfig::sim::{ProcessId, SimConfig, Simulation};

fn configurations(sim: &Simulation<ReconfigNode>) -> BTreeSet<ConfigSet> {
    sim.active_ids()
        .iter()
        .filter_map(|id| sim.process(*id).unwrap().installed_config())
        .collect()
}

fn main() {
    let cfg = config_set(0..6);
    let mut sim = Simulation::new(SimConfig::default().with_seed(23).with_max_delay(0));
    for i in 0..6u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(id, cfg.clone(), NodeConfig::for_n(16)),
        );
    }
    sim.run_rounds(60);
    println!("steady state: every processor holds the configuration {{p0..p5}}");

    // The partition starts at round 70 and heals at round 420.
    let left: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let right: Vec<ProcessId> = (3..6).map(ProcessId::new).collect();
    let partition = |s: &mut Simulation<ReconfigNode>| match s.now().as_u64() {
        70 => s.network_mut().split_into(&[left.clone(), right.clone()]),
        420 => s.network_mut().heal_all_links(),
        _ => {}
    };

    sim.run_rounds_with(340, partition);
    let during = configurations(&sim);
    println!(
        "during the partition the halves hold {} distinct configuration value(s)",
        during.len()
    );

    sim.run_rounds_with(100, partition);
    println!("partition healed; waiting for the scheme to re-merge the halves…");

    let rounds = sim.run_until(3000, |s| {
        configurations(s).len() == 1
            && s.active_ids()
                .iter()
                .all(|id| s.process(*id).unwrap().no_reconfiguration())
    });
    let final_config = configurations(&sim).into_iter().next().unwrap();
    println!(
        "re-converged {rounds} rounds after the heal onto a single configuration of {} processors",
        final_config.len()
    );
    println!(
        "brute-force resets started across the system: {}",
        sim.active_ids()
            .iter()
            .map(|id| sim.process(*id).unwrap().resets_started())
            .sum::<u64>()
    );
    assert_eq!(configurations(&sim).len(), 1);
}
