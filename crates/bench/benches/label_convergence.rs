//! E6 (Theorem 4.4): number of label creations needed until the members agree
//! on a maximal label — from a corrupted state versus right after a
//! reconfiguration (the paper's O(N(N²+m)) vs O(N²) contrast).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use labels::{Label, LabelPair, Labeler};
use reconfig::config_set;
use simnet::stack::Outbox;
use simnet::ProcessId;
use std::collections::BTreeMap;
use std::sync::Arc;

fn run_labelers(n: u32, corrupt: bool, seed: u64) -> (u64, u64) {
    let cfg = config_set(0..n);
    let mut nodes: BTreeMap<ProcessId, Labeler> = cfg
        .iter()
        .map(|id| (*id, Labeler::new(*id, cfg.clone())))
        .collect();
    if corrupt {
        // Inject wild labels attributed to other members.
        for i in 0..n {
            let victim = ProcessId::new(i);
            let wild = Label {
                creator: ProcessId::new((i + 1) % n),
                sting: 1000 + seed as u32 + i,
                antistings: Arc::new([i, i + 1, i + 2].into()),
            };
            nodes
                .get_mut(&victim)
                .unwrap()
                .corrupt_max(victim, LabelPair::legit(wild));
        }
    }
    let mut rounds = 0u64;
    for _ in 0..200 {
        rounds += 1;
        let mut outbox = Vec::new();
        for (id, node) in nodes.iter_mut() {
            let mut out = Outbox::new();
            node.step(&mut out);
            for (to, m) in out.into_messages() {
                outbox.push((*id, to, m));
            }
        }
        for (from, to, m) in outbox {
            if let Some(node) = nodes.get_mut(&to) {
                node.on_message(from, m);
            }
        }
        let maxes: Vec<_> = nodes.values().map(|n| n.local_max()).collect();
        if maxes.iter().all(|m| m.is_some() && *m == maxes[0]) {
            break;
        }
    }
    let creations: u64 = nodes.values().map(|n| n.label_creations()).sum();
    (rounds, creations)
}

fn label_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_convergence");
    group.sample_size(10);
    for n in [4u32, 8, 16] {
        let (clean_rounds, clean_creations) = run_labelers(n, false, 1);
        let (dirty_rounds, dirty_creations) = run_labelers(n, true, 1);
        eprintln!(
            "[E6] n={n}: clean(rounds={clean_rounds}, creations={clean_creations}) \
             corrupted(rounds={dirty_rounds}, creations={dirty_creations}) \
             bounds: O(N^2)={} O(N(N^2+m))={}",
            n * n,
            n * (n * n + 16)
        );
        assert!(dirty_creations <= u64::from(n) * (u64::from(n) * u64::from(n) + 16));
        group.bench_with_input(BenchmarkId::new("corrupted", n), &n, |b, &n| {
            b.iter(|| run_labelers(n, true, 1));
        });
        group.bench_with_input(BenchmarkId::new("post_reconfig", n), &n, |b, &n| {
            b.iter(|| run_labelers(n, false, 1));
        });
    }
    group.finish();
}

criterion_group!(benches, label_convergence);
criterion_main!(benches);
