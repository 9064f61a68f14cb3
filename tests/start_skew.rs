//! Start skew, pinned in the simulator.
//!
//! A live cluster's nodes start serving when each one next finds the
//! cluster file, so their starts are skewed by up to one poll period. These
//! tests model that skew deterministically: two members of a 4-process
//! initial configuration `{p0..p3}` start `k` rounds after the other two.
//! While the early pair runs alone, each of its Θ detectors trusts only the
//! pair, a minority of the configuration, and recMA's majority-collapse
//! path (lines 13–14) installs a configuration of the pair.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use reconfig::{config_set, ConfigSet};
use sharedmem::SharedMemNode;
use simnet::{ProcessId, ScenarioTarget, SimConfig, Simulation};

const N: u32 = 4;

/// What one skewed boot did.
struct Boot {
    /// Some process installed a configuration other than `{p0..p3}`.
    collapsed: bool,
    /// recMA triggerings summed over the processes.
    recma_triggerings: u64,
    /// The first op at each of p0, p1 and p2 completed ok.
    first_ops_ok: bool,
    /// The configurations installed at the end.
    final_configs: BTreeSet<Option<ConfigSet>>,
}

/// Boots `{p0..p3}` with p2 and p3 started `late_by` rounds after p0 and
/// p1, waits until every process is settled under one token (as the live
/// benchmark's boot does), then submits one op at each of p0, p1 and p2,
/// runs until all three are claimed, and runs 100 rounds more.
fn boot(late_by: u64, seed: u64) -> Boot {
    let full = config_set(0..N);
    let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
    let mut collapsed = false;
    let mut step = |sim: &mut Simulation<SharedMemNode>| {
        sim.step_round();
        collapsed |= sim
            .active_processes()
            .any(|(_, p)| p.reconfig().installed_config_ref() != Some(&full));
    };
    let start = |sim: &mut Simulation<SharedMemNode>, ids: RangeInclusive<u32>| {
        for id in ids.map(ProcessId::new) {
            sim.add_process_with_id(id, SharedMemNode::spawn_initial(id, N as usize));
        }
    };

    start(&mut sim, 0..=1);
    for _ in 0..late_by {
        step(&mut sim);
    }
    start(&mut sim, 2..=3);
    for _ in 0..2_000 {
        let tokens: BTreeSet<String> = sim
            .active_processes()
            .map(|(_, p)| p.settle_token())
            .collect();
        if tokens.len() == 1 && sim.active_processes().all(|(_, p)| p.settled()) {
            break;
        }
        step(&mut sim);
    }

    let clients: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    for (value, &client) in clients.iter().enumerate() {
        let node = sim.process_mut(client).expect("client runs");
        assert!(node.submit_local(value as u64, value as u64));
    }
    let mut outcomes = vec![None; clients.len()];
    for _ in 0..400 {
        if outcomes.iter().all(Option::is_some) {
            break;
        }
        step(&mut sim);
        for (outcome, &client) in outcomes.iter_mut().zip(&clients) {
            if outcome.is_none() {
                *outcome = sim
                    .process_mut(client)
                    .expect("client runs")
                    .complete_local();
            }
        }
    }
    for _ in 0..100 {
        step(&mut sim);
    }

    Boot {
        collapsed,
        recma_triggerings: sim
            .active_processes()
            .map(|(_, p)| p.reconfig().recma_triggerings())
            .sum(),
        first_ops_ok: outcomes.iter().all(|o| *o == Some(true)),
        final_configs: sim
            .active_processes()
            .map(|(_, p)| p.reconfig().installed_config())
            .collect(),
    }
}

/// A skew of at most one round, the most that a 1 ms cluster-file poll
/// allows at the live benchmark's 2 ms tick, never triggers recMA.
#[test]
fn a_start_skew_of_one_round_keeps_the_initial_configuration() {
    let full = BTreeSet::from([Some(config_set(0..N))]);
    for late_by in 0..=1 {
        for seed in 1..=64 {
            let boot = boot(late_by, seed);
            let at = format!("k = {late_by}, seed {seed}");
            assert!(!boot.collapsed, "{at}: the configuration collapsed");
            assert_eq!(boot.recma_triggerings, 0, "{at}");
            assert!(boot.first_ops_ok, "{at}: a first op failed");
            assert_eq!(boot.final_configs, full, "{at}");
        }
    }
}

/// Two rounds of skew is the smallest that collapses the configuration:
/// on seeds 13 and 33 of 1–64. Twelve rounds, what a 25 ms poll allows at
/// a 2 ms tick, collapses it on every seed of 1–64 (here 1–8 are run).
#[test]
fn a_start_skew_of_two_rounds_can_collapse_the_configuration_and_twelve_always_does() {
    for (late_by, seeds) in [(2, vec![13, 33]), (12, (1..=8).collect())] {
        for seed in seeds {
            let boot = boot(late_by, seed);
            let at = format!("k = {late_by}, seed {seed}");
            assert!(boot.collapsed, "{at}: no collapse");
            assert!(boot.recma_triggerings > 0, "{at}");
        }
    }
}
