//! Simulation builders for the paper's experiments and the workspace's
//! campaign-matrix tests.
//!
//! [`experiments`] runs E1–E13 and renders them as one table of exact counts
//! (`simctl experiments`, `docs/EXPERIMENTS.md`). The helpers here build the
//! simulations it and the tests under `tests/` measure, so the scenario
//! definitions live in one place.

#![forbid(unsafe_code)]

pub mod experiments;

use counters::CounterNode;
use reconfig::{config_set, NodeConfig, QuorumSystem, ReconfigNode};
use sharedmem::SharedMemNode;
use simnet::scenario::{catalog, run_scenario, ScenarioTarget};
use simnet::{
    Campaign, CampaignReport, ProcessId, Scenario, ScenarioRun, SchedulerMode, SimConfig,
    Simulation,
};
use vssmr::SmrNode;

/// Builds a simulation of `n` reconfiguration nodes that boot with no agreed
/// configuration (arbitrary state → brute-force bootstrap), over the links
/// and seed of `config`.
pub fn fresh_reconfig_sim(n: u32, config: SimConfig) -> Simulation<ReconfigNode> {
    let mut sim = Simulation::new(config);
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_participant(id, NodeConfig::for_n(2 * n as usize)),
        );
    }
    sim
}

/// Builds a simulation of `n` reconfiguration nodes that already share the
/// configuration `{0..n}` (steady state). `population` bounds how many
/// processes the run will ever hold, joiners included; every node's `N` is
/// twice it, as in [`fresh_reconfig_sim`].
pub fn steady_reconfig_sim(n: u32, population: u32, seed: u64) -> Simulation<ReconfigNode> {
    let cfg = config_set(0..n);
    let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(
                id,
                cfg.clone(),
                NodeConfig::for_n(2 * population as usize),
            ),
        );
    }
    sim.run_rounds(40);
    sim
}

/// Builds a simulation of `n` counter-service members already sharing the
/// configuration `{0..n}`, settled into the steady gossip state (every
/// member broadcasting its maximal counter each round).
pub fn steady_counter_sim(n: u32, seed: u64) -> Simulation<CounterNode> {
    let cfg = config_set(0..n);
    let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(id, CounterNode::new(id, cfg.clone()));
    }
    sim.run_rounds(40);
    sim
}

/// Builds a simulation of `n` shared-memory register members already sharing
/// the configuration `{0..n}` and operating on `quorum`, settled past the
/// post-install store sync (the steady state is the reconfiguration stack's
/// gossip with no client ops in flight).
pub fn steady_sharedmem_sim(n: u32, quorum: QuorumSystem, seed: u64) -> Simulation<SharedMemNode> {
    let cfg = config_set(0..n);
    let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            SharedMemNode::new_member(id, cfg.clone(), NodeConfig::for_n(2 * n as usize))
                .with_quorum_system(quorum.clone()),
        );
    }
    sim.run_rounds(40);
    sim
}

/// Builds a VS-SMR cluster over the configuration `{0..n}` and runs it until
/// the first view is installed.
pub fn smr_cluster(n: u32, seed: u64) -> Simulation<SmrNode> {
    let cfg = config_set(0..n);
    let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            SmrNode::new_member(id, cfg.clone(), NodeConfig::for_n(2 * n as usize)),
        );
    }
    sim.run_until(1000, |s| {
        s.active_ids()
            .iter()
            .all(|id| s.process(*id).unwrap().view().is_some())
    });
    sim
}

/// Runs one chaos scenario end to end against target `T`: experiments
/// measure the same declarative fault schedules the chaos campaigns verify,
/// so their counts and chaos coverage share one fault vocabulary. Returns
/// the run outcome (rounds to convergence, fault counters, invariants).
pub fn run_scenario_bench<T: ScenarioTarget>(scenario: &Scenario, seed: u64) -> ScenarioRun {
    let mut sim: Simulation<T> = scenario.build_sim(seed, SchedulerMode::EventDriven);
    run_scenario(scenario, &mut sim)
}

/// Looks up a catalog scenario by name, panicking with a useful message
/// when an experiment or test references a scenario the catalog no longer
/// ships.
pub fn catalog_scenario(name: &str, n: usize) -> Scenario {
    simnet::scenario::find(name, n)
        .unwrap_or_else(|| panic!("catalog scenario `{name}` missing (see `simctl list`)"))
}

/// Runs the catalog × four-composite-nodes × `ns` × `seeds` campaign matrix
/// at one jobs count, dispatching *every* cell — the node axis included —
/// to one `simnet::exec` pool. `jobs = 1` degenerates to the serial loop.
/// This is the ROADMAP's "full catalog campaign" matrix: the golden-digest
/// test pins its report, and the shared-prefix test asserts that it renders
/// byte-identically at any jobs count.
pub fn catalog_matrix_report(ns: &[usize], seeds: &[u64], jobs: usize) -> CampaignReport {
    let campaign = Campaign::new("catalog-matrix")
        .with_seeds(seeds.iter().copied())
        .with_jobs(jobs);
    let mut cells = Vec::new();
    for &n in ns {
        let scenarios = catalog(n);
        cells.extend(campaign.cell_jobs::<ReconfigNode>(&scenarios));
        cells.extend(campaign.cell_jobs::<CounterNode>(&scenarios));
        cells.extend(campaign.cell_jobs::<SmrNode>(&scenarios));
        cells.extend(campaign.cell_jobs::<SharedMemNode>(&scenarios));
    }
    let mut report = CampaignReport::new("catalog-matrix", seeds.to_vec());
    report.runs = simnet::exec::run_ordered(cells, jobs);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Arrival, LoadProfile};

    #[test]
    fn loaded_scenario_reports_latency_counters() {
        let load = LoadProfile::new(100, Arrival::Poisson { rate: 4.0 }).with_op_timeout(50);
        let scenario = catalog_scenario("quiescent", 5).with_load(load);
        let run = run_scenario_bench::<CounterNode>(&scenario, 7);
        assert!(run.converged && run.invariant_violations.is_empty());
        for key in simnet::load::COUNTER_KEYS {
            assert!(run.counters.contains_key(key), "missing counter `{key}`");
        }
        assert!(run.counters["ops_completed"] > 0);
    }

    #[test]
    fn checked_scenario_reports_a_clean_lin_verdict() {
        let load = LoadProfile::new(100, Arrival::Poisson { rate: 1.0 }).with_op_timeout(300);
        let scenario = catalog_scenario("quiescent", 5)
            .with_load(load)
            .with_history();
        let run = run_scenario_bench::<CounterNode>(&scenario, 7);
        assert!(run.converged && run.invariant_violations.is_empty());
        for key in [
            "converged_round",
            "stability_violations",
            "lin_ops_checked",
            "lin_result",
        ] {
            assert!(run.counters.contains_key(key), "missing counter `{key}`");
        }
        assert!(run.counters["lin_ops_checked"] > 0);
        assert_eq!(run.counters["lin_result"], 0);
        assert_eq!(run.counters["stability_violations"], 0);
    }
}
