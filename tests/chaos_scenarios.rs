//! Chaos-campaign engine over the real protocol stacks.
//!
//! The determinism guarantee — one seed, one execution — must extend to the
//! whole fault layer: crashes, churn, partitions, message spikes and
//! transient state corruption driven by a declarative `Scenario`. These
//! tests run the *composite nodes* (not toy processes) under active
//! scenarios and compare two runs of each seed round for round: the state
//! digest after every round, the outcome and the metrics. Every round of
//! every run also passes the scheduler's debug-build check that it visits
//! exactly the due processes. That every catalog cell of every stack passes,
//! and renders the same bytes on every run, is pinned by
//! `crates/bench/tests/golden_matrix.rs`.

use counters::CounterNode;
use reconfig::ReconfigNode;
use sharedmem::SharedMemNode;
use simnet::plan::PLAN_KINDS;
use simnet::scenario::{catalog, find, run_scenario, ScenarioTarget};
use simnet::{Fault, Metrics, ProcessId, Scenario, ScenarioRunner, SchedulerMode, Simulation};
use vssmr::SmrNode;

/// Runs `scenario`, returning the state digest after every round, the
/// scenario outcome and the metrics.
fn digested_run<T: ScenarioTarget>(scenario: &Scenario, seed: u64) -> (Vec<u64>, String, Metrics) {
    let sim: Simulation<T> = scenario.build_sim(seed, SchedulerMode::EventDriven);
    let mut runner = ScenarioRunner::new(scenario, sim);
    let mut digests = Vec::new();
    loop {
        let now = runner.sim().now();
        runner.advance_to(now + 1);
        if runner.sim().now() == now {
            break;
        }
        digests.push(T::state_digest(runner.sim()));
    }
    let run = runner.finish();
    (digests, format!("{run:?}"), runner.sim().metrics().clone())
}

/// Partition-heal interleaved with churn replays byte for byte from its
/// seed while the scenario is actively crashing, splitting, healing and
/// joining.
#[test]
fn partition_churn_executions_are_reproducible() {
    let scenario = find("partition-churn", 5).expect("catalog scenario");
    for seed in [1u64, 2, 42] {
        let first = digested_run::<ReconfigNode>(&scenario, seed);
        let again = digested_run::<ReconfigNode>(&scenario, seed);
        assert_eq!(first.0, again.0, "states diverged for seed {seed}");
        assert_eq!(first.1, again.1, "outcome diverged for seed {seed}");
        assert_eq!(first.2, again.2, "metrics diverged for seed {seed}");
    }
}

/// The same over the deepest stack (SMR embeds the counter and
/// reconfiguration layers), under the all-fault scenario.
#[test]
fn chaos_mix_smr_executions_are_reproducible() {
    let scenario = find("chaos-mix", 4).expect("catalog scenario");
    let first = digested_run::<SmrNode>(&scenario, 7);
    assert_eq!(first, digested_run::<SmrNode>(&scenario, 7));
}

/// Gray failures change *which* processes are due each round: a slowed
/// timer wakes its process less often, and the run queue learns that from
/// its wake-ups alone. The execution must replay byte for byte while a
/// minority runs 6× slow and while it recovers.
#[test]
fn gray_failure_executions_are_reproducible() {
    let scenario = find("gray-lag", 5).expect("catalog scenario");
    for seed in [1u64, 2] {
        let first = digested_run::<ReconfigNode>(&scenario, seed);
        let again = digested_run::<ReconfigNode>(&scenario, seed);
        assert_eq!(first.0, again.0, "states diverged for seed {seed}");
        assert_eq!(first.1, again.1, "outcome diverged for seed {seed}");
        assert_eq!(first.2, again.2, "metrics diverged for seed {seed}");
    }
}

/// One-directional cuts: blocked sends produce no wake-ups in one direction
/// while traffic keeps flowing in the other.
#[test]
fn one_way_cut_executions_are_reproducible() {
    let scenario = find("one-way-cut", 5).expect("catalog scenario");
    for seed in [1u64, 2] {
        let first = digested_run::<CounterNode>(&scenario, seed);
        let again = digested_run::<CounterNode>(&scenario, seed);
        assert_eq!(first, again, "execution diverged for seed {seed}");
    }
}

/// Permanent clock skew on the deepest stack: the system must converge —
/// reproducibly — with the skewed replica still slow.
#[test]
fn clock_skew_executions_are_reproducible() {
    let scenario = find("clock-skew", 4).expect("catalog scenario");
    let first = digested_run::<SmrNode>(&scenario, 3);
    assert_eq!(first, digested_run::<SmrNode>(&scenario, 3));
}

/// Faults actually land: the scenario runner reports the scheduled crash,
/// join and corruption counts, and the churned process joins the stack.
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
        assert!(!sim.is_active(ProcessId::new(old)));
    }
    for fresh in [5u32, 6] {
        let node = sim.process(ProcessId::new(fresh)).unwrap();
        assert!(node.is_participant(), "recovered p{fresh} was not admitted");
    }
}

/// The text of `doc` under the `## heading`, up to the next heading.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let (_, rest) = doc
        .split_once(&format!("## {heading}\n"))
        .unwrap_or_else(|| panic!("docs/FAULTS.md has no `## {heading}` section"));
    rest.split("\n## ").next().unwrap_or(rest)
}

/// The fault registry stays complete: every `--plan` token of
/// `simnet::plan::PLAN_KINDS` has a row in docs/FAULTS.md's atlas that
/// names the counter keys its faults feed, *and* is exercised by at least
/// one catalog scenario — an undocumented or unexercised fault kind fails
/// CI. The white-box escape hatch (the resumable `ScenarioRunner`) must stay
/// documented too, and docs/FAULTS.md's catalog table lists exactly the
/// catalog's scenarios, in both directions.
#[test]
fn fault_registry_is_documented_and_exercised_by_the_catalog() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/FAULTS.md"))
        .expect("docs/FAULTS.md exists");
    let scenarios = catalog(5);
    let atlas = section(&doc, "The atlas");
    for row in PLAN_KINDS {
        let token = format!("`{}`", row.token);
        // The third column of an atlas row lists its `--plan` tokens.
        let line = atlas
            .lines()
            .find(|line| {
                let tokens = line.split('|').nth(3).unwrap_or("");
                tokens.split(',').any(|t| t.trim() == token)
            })
            .unwrap_or_else(|| panic!("docs/FAULTS.md has no atlas row for {token}"));
        let faults: Vec<&Fault> = scenarios
            .iter()
            .flat_map(|s| s.plans())
            .filter(|fault| fault.token() == row.token)
            .collect();
        assert!(
            !faults.is_empty(),
            "no catalog scenario exercises the {token} fault kind"
        );
        for key in faults.iter().flat_map(|fault| fault.counter_keys()) {
            assert!(
                line.contains(&format!("`{key}`")),
                "the atlas row of {token} does not name its `{key}` counter"
            );
        }
    }
    assert!(
        atlas.contains("ScenarioRunner") && atlas.contains("advance_to"),
        "docs/FAULTS.md lost the ScenarioRunner escape-hatch entry"
    );
    section(&doc, "Adding a fault kind");
    let documented: Vec<&str> = section(&doc, "The catalog")
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect();
    let names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
    assert_eq!(
        documented, names,
        "docs/FAULTS.md's catalog table must list the catalog, in order"
    );
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

/// Crafted-message injection replays byte for byte: injections go through
/// the network's dirty-set wake-up path.
#[test]
fn byzantine_storm_executions_are_reproducible() {
    let scenario = find("byzantine-storm", 4).expect("catalog scenario");
    for seed in [1u64, 5] {
        let first = digested_run::<SmrNode>(&scenario, seed);
        let again = digested_run::<SmrNode>(&scenario, seed);
        assert_eq!(first, again, "execution diverged for seed {seed}");
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
