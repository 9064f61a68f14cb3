//! E7 (Theorem 4.6): throughput and monotonicity of the counter increment
//! service, including across forced label exhaustion.

use counters::{CounterNode, IncrementOutcome};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reconfig::config_set;
use simnet::stack::{Layer, Outbox};
use simnet::ProcessId;
use std::collections::BTreeMap;

fn run_increments(members: u32, increments: u32, bound: u64) -> u64 {
    let cfg = config_set(0..members);
    let mut nodes: BTreeMap<ProcessId, CounterNode> = cfg
        .iter()
        .map(|id| {
            (
                *id,
                CounterNode::new(*id, cfg.clone()).with_exhaustion_bound(bound),
            )
        })
        .collect();
    let deliver = |nodes: &mut BTreeMap<ProcessId, CounterNode>,
                   batch: Vec<(ProcessId, ProcessId, counters::CounterMsg)>| {
        let mut queue = batch;
        while let Some((from, to, msg)) = queue.pop() {
            if let Some(node) = nodes.get_mut(&to) {
                let mut replies = Outbox::new();
                node.handle(from, msg, &mut replies);
                for (next, reply) in replies.into_messages() {
                    queue.push((to, next, reply));
                }
            }
        }
    };
    // Warm-up gossip.
    for _ in 0..5 {
        let mut batch = Vec::new();
        for (id, node) in nodes.iter_mut() {
            let mut out = Outbox::new();
            node.poll(&[], &mut out);
            for (to, m) in out.into_messages() {
                batch.push((*id, to, m));
            }
        }
        deliver(&mut nodes, batch);
    }
    let mut committed = 0u64;
    let mut last: Option<counters::Counter> = None;
    for i in 0..increments {
        let who = ProcessId::new(i % members);
        let mut reqs = Outbox::new();
        nodes.get_mut(&who).unwrap().request_increment(&mut reqs);
        let batch = reqs
            .into_messages()
            .into_iter()
            .map(|(to, m)| (who, to, m))
            .collect();
        deliver(&mut nodes, batch);
        for outcome in nodes.get_mut(&who).unwrap().take_completed() {
            if let IncrementOutcome::Committed(c) = outcome {
                if let Some(prev) = &last {
                    assert!(prev.ct_less(&c), "monotonicity violated");
                }
                last = Some(c);
                committed += 1;
            }
        }
        let mut batch = Vec::new();
        for (id, node) in nodes.iter_mut() {
            let mut out = Outbox::new();
            node.poll(&[], &mut out);
            for (to, m) in out.into_messages() {
                batch.push((*id, to, m));
            }
        }
        deliver(&mut nodes, batch);
    }
    committed
}

fn counter_increment(c: &mut Criterion) {
    let mut group = c.benchmark_group("counter_increment");
    group.sample_size(10);
    for members in [3u32, 5, 9] {
        let committed = run_increments(members, 100, u64::MAX >> 1);
        let committed_exhausting = run_increments(members, 100, 8);
        eprintln!(
            "[E7] members={members}: committed/100={committed} with_exhaustion(bound=8)={committed_exhausting}"
        );
        group.bench_with_input(BenchmarkId::from_parameter(members), &members, |b, &m| {
            b.iter(|| run_increments(m, 50, u64::MAX >> 1));
        });
    }
    group.finish();
}

criterion_group!(benches, counter_increment);
criterion_main!(benches);
