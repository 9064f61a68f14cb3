//! Chaos-campaign engine over the real protocol stacks.
//!
//! The PR-1 determinism guarantee — event-driven and round-scan scheduling
//! produce byte-identical executions per seed — must extend to the whole
//! fault layer: crashes, churn, partitions, message spikes and transient
//! state corruption driven by a declarative `Scenario`. These tests run the
//! *composite nodes* (not toy processes) under active scenarios and compare
//! executions across scheduler modes event for event, plus the campaign
//! reports byte for byte.

use selfstab_reconfig::counting::CounterNode;
use selfstab_reconfig::reconfiguration::ReconfigNode;
use selfstab_reconfig::replication::SmrNode;
use selfstab_reconfig::shared_memory::SharedMemNode;
use selfstab_reconfig::sim::scenario::{catalog, find, run_scenario, ScenarioTarget};
use selfstab_reconfig::sim::{Campaign, Scenario, SchedulerMode, Simulation};

/// Runs `scenario` under `mode`, returning the full trace rendering, the
/// scenario outcome and the delivered-message count.
fn traced_run<T: ScenarioTarget>(
    scenario: &Scenario,
    seed: u64,
    mode: SchedulerMode,
) -> (String, String, u64) {
    let mut sim: Simulation<T> = scenario.build_sim(seed, mode);
    sim.trace_mut().set_enabled(true);
    let run = run_scenario(scenario, &mut sim);
    let trace: String = sim.trace().iter().map(|e| format!("{e:?}\n")).collect();
    (
        trace,
        format!("{run:?}"),
        sim.metrics().messages_delivered(),
    )
}

/// The satellite requirement: partition-heal interleaved with churn, with
/// byte-identical executions across `SchedulerMode::EventDriven` and
/// `SchedulerMode::RoundScan` while the scenario is actively crashing,
/// splitting, healing and joining.
#[test]
fn partition_churn_executions_are_identical_across_scheduler_modes() {
    let scenario = find("partition-churn", 5).expect("catalog scenario");
    for seed in [1u64, 2, 42] {
        let event = traced_run::<ReconfigNode>(&scenario, seed, SchedulerMode::EventDriven);
        let scan = traced_run::<ReconfigNode>(&scenario, seed, SchedulerMode::RoundScan);
        assert_eq!(event.0, scan.0, "trace diverged for seed {seed}");
        assert_eq!(event.1, scan.1, "outcome diverged for seed {seed}");
        assert_eq!(event.2, scan.2, "deliveries diverged for seed {seed}");
    }
}

/// The same equivalence over the deepest stack (SMR embeds the counter and
/// reconfiguration layers), under the all-fault scenario.
#[test]
fn chaos_mix_smr_executions_are_identical_across_scheduler_modes() {
    let scenario = find("chaos-mix", 4).expect("catalog scenario");
    let event = traced_run::<SmrNode>(&scenario, 7, SchedulerMode::EventDriven);
    let scan = traced_run::<SmrNode>(&scenario, 7, SchedulerMode::RoundScan);
    assert_eq!(event, scan);
}

/// Gray failures are the fault class most likely to split the scheduler
/// modes apart: a slowed timer changes *which* processes are due each
/// round, which the event-driven queue learns from wake-ups and the
/// round-scan baseline must rediscover by scanning. The executions must
/// still match byte for byte while a minority runs 6× slow and while it
/// recovers.
#[test]
fn gray_failure_executions_are_identical_across_scheduler_modes() {
    let scenario = find("gray-lag", 5).expect("catalog scenario");
    for seed in [1u64, 2] {
        let event = traced_run::<ReconfigNode>(&scenario, seed, SchedulerMode::EventDriven);
        let scan = traced_run::<ReconfigNode>(&scenario, seed, SchedulerMode::RoundScan);
        assert_eq!(event.0, scan.0, "trace diverged for seed {seed}");
        assert_eq!(event.1, scan.1, "outcome diverged for seed {seed}");
        assert_eq!(event.2, scan.2, "deliveries diverged for seed {seed}");
    }
}

/// One-directional cuts are the other likely divergence source: blocked
/// sends produce no wake-ups in one direction while traffic keeps flowing
/// in the other, skewing the two modes' work discovery differently.
#[test]
fn one_way_cut_executions_are_identical_across_scheduler_modes() {
    let scenario = find("one-way-cut", 5).expect("catalog scenario");
    for seed in [1u64, 2] {
        let event = traced_run::<CounterNode>(&scenario, seed, SchedulerMode::EventDriven);
        let scan = traced_run::<CounterNode>(&scenario, seed, SchedulerMode::RoundScan);
        assert_eq!(event, scan, "execution diverged for seed {seed}");
    }
}

/// Permanent clock skew on the deepest stack: the system must converge —
/// in both modes, identically — with the skewed replica still slow.
#[test]
fn clock_skew_executions_are_identical_across_scheduler_modes() {
    let scenario = find("clock-skew", 4).expect("catalog scenario");
    let event = traced_run::<SmrNode>(&scenario, 3, SchedulerMode::EventDriven);
    let scan = traced_run::<SmrNode>(&scenario, 3, SchedulerMode::RoundScan);
    assert_eq!(event, scan);
}

/// Every catalog scenario converges for every composite node at a small
/// size: the 4 × catalog matrix the CI chaos job sweeps a subset of.
#[test]
fn full_catalog_converges_for_every_composite_node() {
    fn sweep<T: ScenarioTarget>() {
        for scenario in catalog(4) {
            let mut sim: Simulation<T> = scenario.build_sim(1, SchedulerMode::EventDriven);
            let run = run_scenario(&scenario, &mut sim);
            assert!(
                run.converged,
                "{}/{} did not converge: {run:?}",
                T::NAME,
                scenario.name()
            );
            assert!(
                run.invariant_violations.is_empty(),
                "{}/{} violated invariants: {:?}",
                T::NAME,
                scenario.name(),
                run.invariant_violations
            );
        }
    }
    sweep::<ReconfigNode>();
    sweep::<CounterNode>();
    sweep::<SmrNode>();
    sweep::<SharedMemNode>();
}

/// The acceptance criterion on reports: the same scenario + seed produces
/// byte-identical JSON in both scheduler modes and across repeated runs —
/// campaign reports carry no mode- or wall-clock-dependent fields.
#[test]
fn campaign_reports_are_byte_identical_across_modes_and_reruns() {
    let scenarios = vec![
        find("partition-churn", 4).unwrap(),
        find("state-blast", 4).unwrap(),
    ];
    let render = |modes: Vec<SchedulerMode>| {
        Campaign::new("report-determinism")
            .with_seeds([1, 2])
            .with_modes(modes)
            .run::<SharedMemNode>(&scenarios)
            .render()
    };
    let event = render(vec![SchedulerMode::EventDriven]);
    let scan = render(vec![SchedulerMode::RoundScan]);
    let both = render(vec![SchedulerMode::EventDriven, SchedulerMode::RoundScan]);
    let again = render(vec![SchedulerMode::EventDriven, SchedulerMode::RoundScan]);
    assert_eq!(event, scan, "reports diverged across scheduler modes");
    assert_eq!(both, again, "repeated campaign runs diverged");
    assert_eq!(
        both, event,
        "both-mode report differs from single-mode report"
    );
}

/// Faults actually land: the scenario runner reports the scheduled crash,
/// join and corruption counts, and the trace shows the churned processes.
#[test]
fn scenario_faults_are_applied_to_the_real_stack() {
    let scenario = find("chaos-mix", 5).unwrap();
    let mut sim: Simulation<ReconfigNode> = scenario.build_sim(3, SchedulerMode::EventDriven);
    let run = run_scenario(&scenario, &mut sim);
    assert!(run.converged, "{run:?}");
    assert_eq!(run.counter("crashes"), 1);
    assert_eq!(run.counter("joins"), 1);
    assert_eq!(run.counter("corruptions"), 1);
    // The joiner exists and was admitted as a participant.
    assert_eq!(sim.ids().len(), 6);
    let joiner = sim
        .active_processes()
        .find(|(id, _)| id.as_u32() == 5)
        .map(|(_, p)| p.is_participant());
    assert_eq!(joiner, Some(true));
}

/// Crash-recovery on the real stack: the victims stay dead under their old
/// identifiers and the replacements are admitted as participants under
/// fresh ones, as the paper's rejoin rule prescribes.
#[test]
fn crash_recovery_rejoins_the_real_stack_under_fresh_identifiers() {
    let scenario = find("crash-recovery", 5).unwrap();
    let mut sim: Simulation<ReconfigNode> = scenario.build_sim(11, SchedulerMode::EventDriven);
    let run = run_scenario(&scenario, &mut sim);
    assert!(run.converged, "{run:?}");
    assert!(run.invariant_violations.is_empty(), "{run:?}");
    // n = 5 ⇒ a 2-process minority crashes at 30 and rejoins at 60.
    assert_eq!(run.counter("crashes"), 2);
    assert_eq!(run.counter("recoveries"), 2);
    assert_eq!(sim.ids().len(), 7);
    for old in [3u32, 4] {
        assert!(!sim.is_active(selfstab_reconfig::sim::ProcessId::new(old)));
    }
    for fresh in [5u32, 6] {
        let node = sim
            .process(selfstab_reconfig::sim::ProcessId::new(fresh))
            .unwrap();
        assert!(node.is_participant(), "recovered p{fresh} was not admitted");
    }
}

/// The fault registry stays complete: every `FaultPlan` implementation in
/// `simnet::plan::registry()` is documented in docs/FAULTS.md *and*
/// exercised by at least one catalog scenario — an undocumented or
/// unexercised fault class fails CI, per the acceptance criterion. The
/// white-box escape hatch (the resumable `ScenarioRunner`, not a
/// `FaultPlan`) must stay documented too, and every catalog scenario must
/// appear in the atlas.
#[test]
fn fault_registry_is_documented_and_exercised_by_the_catalog() {
    let atlas = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/FAULTS.md"))
        .expect("docs/FAULTS.md exists");
    let scenarios = catalog(5);
    for (type_name, kind) in selfstab_reconfig::sim::plan::registry() {
        assert!(
            atlas.contains(type_name),
            "docs/FAULTS.md has no atlas entry for {type_name}"
        );
        assert!(
            atlas.contains(kind),
            "docs/FAULTS.md does not name the `{kind}` counter/kind of {type_name}"
        );
        assert!(
            scenarios
                .iter()
                .any(|s| s.plans().iter().any(|p| p.kind() == kind)),
            "no catalog scenario exercises the `{kind}` fault class ({type_name})"
        );
    }
    assert!(
        atlas.contains("ScenarioRunner") && atlas.contains("advance_to"),
        "docs/FAULTS.md lost the ScenarioRunner escape-hatch entry"
    );
    assert!(
        atlas.contains("FaultPlan") && atlas.contains("with_plan"),
        "docs/FAULTS.md must document the open FaultPlan API"
    );
    for scenario in &scenarios {
        assert!(
            atlas.contains(scenario.name()),
            "docs/FAULTS.md does not reference catalog scenario {}",
            scenario.name()
        );
    }
}

/// The Byzantine adversary on the real stacks: byzantine-storm converges
/// for every composite node with crafted packets in force, the injections
/// are counted, and no equivocating payload was adopted into honest state
/// (the protocol invariants — view-id uniqueness, tag consistency, label
/// legitimacy — run at the end of every cell).
#[test]
fn byzantine_storm_injections_land_and_are_refused() {
    fn sweep<T: ScenarioTarget>() {
        let scenario = find("byzantine-storm", 5).expect("catalog scenario");
        let mut sim: Simulation<T> = scenario.build_sim(3, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert!(run.converged, "{}: {run:?}", T::NAME);
        assert!(
            run.invariant_violations.is_empty(),
            "{}: {:?}",
            T::NAME,
            run.invariant_violations
        );
        assert!(
            run.counter("injections") > 0,
            "{}: no crafted packet was injected: {run:?}",
            T::NAME
        );
    }
    sweep::<ReconfigNode>();
    sweep::<CounterNode>();
    sweep::<SmrNode>();
    sweep::<SharedMemNode>();
}

/// Crafted-message injection must not split the scheduler modes apart:
/// injections go through the network's dirty-set wake-up path, which the
/// round-scan baseline rediscovers by scanning.
#[test]
fn byzantine_storm_executions_are_identical_across_scheduler_modes() {
    let scenario = find("byzantine-storm", 4).expect("catalog scenario");
    for seed in [1u64, 5] {
        let event = traced_run::<SmrNode>(&scenario, seed, SchedulerMode::EventDriven);
        let scan = traced_run::<SmrNode>(&scenario, seed, SchedulerMode::RoundScan);
        assert_eq!(event, scan, "execution diverged for seed {seed}");
    }
}

/// The counter service under chaos commits increments monotonically: after
/// a full campaign cell, all members agree on a counter at least as large as
/// any committed increment (spot-check of Theorem 4.6 under faults).
#[test]
fn counter_campaign_commits_survive_chaos() {
    let scenario = find("packet-storm", 4).unwrap();
    let mut sim: Simulation<CounterNode> = scenario.build_sim(5, SchedulerMode::EventDriven);
    let run = run_scenario(&scenario, &mut sim);
    assert!(run.converged, "{run:?}");
    let max = sim
        .active_processes()
        .find(|(_, p)| p.is_member())
        .and_then(|(_, p)| p.max_counter().cloned())
        .expect("members hold a counter after the workload");
    for (_, p) in sim.active_processes().filter(|(_, p)| p.is_member()) {
        assert_eq!(p.max_counter(), Some(&max));
    }
}
