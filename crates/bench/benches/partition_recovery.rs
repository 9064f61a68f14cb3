//! E13: recovery from network partitions — the transient-fault flavour the
//! paper motivates self-stabilization with, measured **through the chaos
//! engine's `Scenario` API** so the benchmark exercises exactly the fault
//! schedule the campaigns verify (one fault vocabulary for perf numbers and
//! chaos coverage).
//!
//! The `partition-heal` catalog scenario splits the cluster into halves and
//! heals 40 rounds later; additional ad-hoc scenarios stretch the partition
//! window through the same declarative builders `simctl run --plan` uses.
//! Reports rounds-to-convergence (which includes the partition window: the
//! runner counts convergence only after the last fault) per system size and
//! partition duration.

use bench::{catalog_scenario, run_scenario_bench};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reconfig::ReconfigNode;
use simnet::{Round, Scenario};

/// The catalog scenario for the default window, or a stretched variant
/// built through the same declarative plan builders.
fn partition_scenario(n: usize, duration: u64) -> Scenario {
    if duration == 40 {
        return catalog_scenario("partition-heal", n);
    }
    Scenario::new(format!("partition-heal-{duration}"), n)
        .describe("halves split, stretched heal")
        .split_halves_at(Round::new(30))
        .heal_at(Round::new(30 + duration))
        .with_rounds(4_000)
        .with_workload_until(70 + duration)
}

fn partition_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_recovery");
    group.sample_size(10);
    for (n, duration) in [(4usize, 40u64), (6, 40), (6, 100), (6, 300)] {
        let scenario = partition_scenario(n, duration);
        let run = run_scenario_bench::<ReconfigNode>(&scenario, 81);
        assert!(
            run.converged && run.invariant_violations.is_empty(),
            "partition-heal bench cell failed: {run:?}"
        );
        eprintln!(
            "[E13] n={n} partition_rounds={duration}: rounds_to_reconverge={:?} splits={}",
            run.rounds_to_convergence,
            run.counter("splits"),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("n{n}"), duration),
            &scenario,
            |b, scenario| {
                b.iter(|| run_scenario_bench::<ReconfigNode>(scenario, 81));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, partition_recovery);
criterion_main!(benches);
