//! E1 (Theorem 3.15): convergence of recSA from an arbitrary state.
//!
//! Measures the wall-clock cost of simulating the brute-force convergence for
//! several system sizes and prints the number of rounds and messages needed
//! to stderr.

use bench::{fresh_reconfig_sim, rounds_to_converge};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reconfig::config_set;

fn recsa_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("recsa_convergence");
    group.sample_size(10);
    for n in [4u32, 8, 16, 24] {
        // Report the experiment series once per size.
        let mut sim = fresh_reconfig_sim(n, 7);
        let rounds = rounds_to_converge(&mut sim, &config_set(0..n), 2000);
        eprintln!(
            "[E1] n={n}: rounds_to_converge={rounds} messages_sent={}",
            sim.metrics().messages_sent()
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut sim = fresh_reconfig_sim(n, 7);
                rounds_to_converge(&mut sim, &config_set(0..n), 2000)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, recsa_convergence);
criterion_main!(benches);
