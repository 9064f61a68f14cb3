//! The parallel campaign driver on the real protocol stacks.
//!
//! The tentpole contract: a campaign executed on the `simnet::exec`
//! work-stealing pool must be **observably indistinguishable** from the
//! serial loop. Cells derive every random draw from their own (scenario,
//! seed) pair and the driver reassembles the records in enumeration order,
//! so the rendered report must be byte-identical at any `--jobs` count —
//! for every catalog scenario, every composite node type, and any shard
//! partitioning the pool happens to pick at runtime. These tests assert
//! exactly that, plus the `Send`-safety the cells rely on.

use counters::CounterNode;
use proptest::prelude::*;
use reconfig::ReconfigNode;
use sharedmem::SharedMemNode;
use simnet::scenario::{catalog, find, ScenarioTarget};
use simnet::{Arrival, Campaign, Fault, LoadProfile, RunRecord, Scenario, Simulation};
use vssmr::SmrNode;

/// Renders the full catalog campaign for one node type at one jobs count.
fn catalog_render<T: ScenarioTarget>(jobs: usize) -> String {
    Campaign::new("parallel-identity")
        .with_seeds([1, 2])
        .with_jobs(jobs)
        .run::<T>(&catalog(4))
        .render()
}

/// The satellite property, per node type: for every catalog scenario, the
/// parallel report at jobs ∈ {2, 4, 8} is byte-identical to the serial
/// (jobs = 1) report.
fn assert_catalog_parallel_identity<T: ScenarioTarget>() {
    let serial = catalog_render::<T>(1);
    for jobs in [2usize, 4, 8] {
        assert_eq!(
            catalog_render::<T>(jobs),
            serial,
            "{}: catalog report diverged from serial at jobs={jobs}",
            T::NAME
        );
    }
}

#[test]
fn reconfig_catalog_is_byte_identical_across_jobs_counts() {
    assert_catalog_parallel_identity::<ReconfigNode>();
}

#[test]
fn counter_catalog_is_byte_identical_across_jobs_counts() {
    assert_catalog_parallel_identity::<CounterNode>();
}

#[test]
fn smr_catalog_is_byte_identical_across_jobs_counts() {
    assert_catalog_parallel_identity::<SmrNode>();
}

#[test]
fn sharedmem_catalog_is_byte_identical_across_jobs_counts() {
    assert_catalog_parallel_identity::<SharedMemNode>();
}

/// Shard partitioning must never leak into `CampaignReport::runs` order:
/// whatever the pool does, the records come back scenario-major,
/// seed-minor — the serial enumeration order.
#[test]
fn parallel_runs_keep_enumeration_order() {
    let scenarios = catalog(4);
    let seeds = [1u64, 2, 3];
    let report = Campaign::new("order")
        .with_seeds(seeds)
        .with_jobs(8)
        .run::<SharedMemNode>(&scenarios);
    let expected: Vec<(String, u64)> = scenarios
        .iter()
        .flat_map(|s| seeds.iter().map(|&seed| (s.name().to_string(), seed)))
        .collect();
    let actual: Vec<(String, u64)> = report
        .runs
        .iter()
        .map(|r| (r.scenario.clone(), r.seed))
        .collect();
    assert_eq!(actual, expected);
}

/// Builds fault scenarios armed with an open-loop client population: the
/// load engine replaces the targets' built-in workload, so these cells
/// exercise the Poisson arrival stream, op routing, and the latency
/// counters end to end.
fn loaded_scenarios(arrival: Arrival) -> Vec<Scenario> {
    let load = LoadProfile::new(500, arrival).with_op_timeout(50);
    ["quiescent", "partition-heal", "byzantine-storm"]
        .iter()
        .map(|name| find(name, 4).unwrap().with_load(load.clone()))
        .collect()
}

/// The load engine rides the campaign determinism contract: a loaded
/// campaign renders byte-identically across jobs counts — the Poisson
/// arrival stream, op completions, and every latency column included.
/// A re-render from scratch is also identical, so the latency columns
/// are reproducible run over run, not just order-stable. One more cell is
/// armed (`with_history`): the history recorder, the stays-converged probe
/// and the linearizability verdict obey the same contract.
#[test]
fn loaded_campaign_is_byte_identical_across_jobs_and_reruns() {
    let mut scenarios = loaded_scenarios(Arrival::Poisson { rate: 4.0 });
    let armed = scenarios[1].clone().with_history();
    scenarios.push(armed);
    let render = |jobs: usize| {
        Campaign::new("loaded-identity")
            .with_seeds([1, 2])
            .with_jobs(jobs)
            .run::<CounterNode>(&scenarios)
            .render()
    };
    let serial = render(1);
    assert_eq!(render(4), serial, "loaded report diverged at jobs=4");
    assert_eq!(
        render(1),
        serial,
        "loaded report not reproducible on re-run"
    );
    assert!(
        serial.contains("op_latency_p99_rounds"),
        "loaded report is missing the latency columns"
    );
    assert!(
        serial.contains("stability_violations"),
        "the armed cell is missing the history counters"
    );
}

/// Burst arrivals run the same contract through the other arrival model.
#[test]
fn burst_campaign_is_byte_identical_across_jobs() {
    let scenarios = loaded_scenarios(Arrival::Burst {
        size: 20,
        period: 5,
    });
    let render = |jobs: usize| {
        Campaign::new("burst-identity")
            .with_seeds([3])
            .with_jobs(jobs)
            .run::<SmrNode>(&scenarios)
            .render()
    };
    let serial = render(1);
    assert_eq!(render(4), serial);
}

/// The Send-safety layer the cells are built on, asserted at compile time:
/// scenarios (faults included), the composite node types and the records
/// that travel back from the workers.
#[test]
fn cells_are_send_safe() {
    fn assert_send<T: Send>() {}
    assert_send::<Scenario>();
    assert_send::<Fault>();
    assert_send::<RunRecord>();
    assert_send::<ReconfigNode>();
    assert_send::<CounterNode>();
    assert_send::<SmrNode>();
    assert_send::<SharedMemNode>();
    assert_send::<Simulation<ReconfigNode>>();
    assert_send::<Simulation<SmrNode>>();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Randomised identity: for arbitrary seed sets and jobs counts the
    /// parallel report matches the serial one byte for byte. Deterministic
    /// per proptest case, so any counterexample is replayable.
    #[test]
    fn parallel_report_matches_serial_for_random_seeds_and_jobs(
        seeds in proptest::collection::vec(1u64..1_000_000, 1..6),
        jobs in 2usize..9,
    ) {
        let scenarios = vec![
            find("partition-heal", 4).unwrap(),
            find("crash-minority", 4).unwrap(),
        ];
        let render = |j: usize| {
            Campaign::new("proptest-jobs")
                .with_seeds(seeds.iter().copied())
                .with_jobs(j)
                .run::<ReconfigNode>(&scenarios)
                .render()
        };
        prop_assert_eq!(render(jobs), render(1));
    }

    /// Randomised loaded identity: for arbitrary seeds and Poisson rates
    /// the client-population arrival stream — and therefore every latency
    /// column it produces — is byte-identical across jobs ∈ {1, 4}.
    #[test]
    fn poisson_stream_is_identical_across_jobs(
        seeds in proptest::collection::vec(1u64..1_000_000, 1..4),
        rate in 1u32..12,
    ) {
        let load = LoadProfile::new(200, Arrival::Poisson { rate: rate as f64 })
            .with_op_timeout(40);
        let scenarios = vec![
            find("quiescent", 4).unwrap().with_load(load.clone()),
            find("crash-minority", 4).unwrap().with_load(load),
        ];
        let render = |j: usize| {
            Campaign::new("proptest-load")
                .with_seeds(seeds.iter().copied())
                .with_jobs(j)
                .run::<CounterNode>(&scenarios)
                .render()
        };
        prop_assert_eq!(render(4), render(1));
    }
}
