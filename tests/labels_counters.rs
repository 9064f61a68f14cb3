//! E6/E7 — the bounded labeling scheme and the counter increment service.
//!
//! Theorem 4.4: configuration members converge to a global maximal label
//! with a bounded number of label creations, and labels of non-members are
//! voided after a reconfiguration. Theorem 4.6: completed counter increments
//! are totally ordered and monotone, even across concurrent increments and
//! label exhaustion. E6 and E7 cover clean agreement and round-robin
//! increments; these tests check cancelled labels, voiding after a
//! reconfiguration, concurrent increments and aborts.

use std::collections::{BTreeMap, VecDeque};

use counters::{Counter, CounterMsg, CounterNode, IncrementOutcome};
use labels::{Label, LabelPair, Labeler, LabelerMsg};
use reconfig::{config_set, ConfigSet};
use simnet::stack::{Layer, Outbox};
use simnet::ProcessId;

// ---------------------------------------------------------------------------
// Small synchronous message pumps (the labeling and counter layers are plain
// state machines; the full asynchronous composition is exercised by the
// shared-memory and VS-SMR integration tests).
// ---------------------------------------------------------------------------

fn pump_labelers(labelers: &mut BTreeMap<ProcessId, Labeler>, rounds: usize) {
    for _ in 0..rounds {
        let ids: Vec<ProcessId> = labelers.keys().copied().collect();
        let mut in_flight: Vec<(ProcessId, ProcessId, LabelerMsg)> = Vec::new();
        for id in &ids {
            let mut out = Outbox::new();
            labelers.get_mut(id).unwrap().step(&mut out);
            for (to, msg) in out.into_messages() {
                in_flight.push((*id, to, msg));
            }
        }
        for (from, to, msg) in in_flight {
            if let Some(l) = labelers.get_mut(&to) {
                l.on_message(from, &msg);
            }
        }
    }
}

fn pump_counters(nodes: &mut BTreeMap<ProcessId, CounterNode>, rounds: usize) {
    for _ in 0..rounds {
        let ids: Vec<ProcessId> = nodes.keys().copied().collect();
        let mut queue: VecDeque<(ProcessId, ProcessId, CounterMsg)> = VecDeque::new();
        for id in &ids {
            let mut out = Outbox::new();
            nodes.get_mut(id).unwrap().poll(&[], &mut out);
            for (to, msg) in out.into_messages() {
                queue.push_back((*id, to, msg));
            }
        }
        deliver_until_quiet(nodes, queue);
    }
}

/// Delivers `queue` and every reply it provokes, until nothing is in flight.
fn deliver_until_quiet(
    nodes: &mut BTreeMap<ProcessId, CounterNode>,
    mut queue: VecDeque<(ProcessId, ProcessId, CounterMsg)>,
) {
    while let Some((from, to, msg)) = queue.pop_front() {
        if let Some(n) = nodes.get_mut(&to) {
            let mut replies = Outbox::new();
            n.handle(from, &msg, &mut replies);
            for (next_to, reply) in replies.into_messages() {
                queue.push_back((to, next_to, reply));
            }
        }
    }
}

/// Starts an increment at `origin` and delivers until nothing is in flight.
fn increment(nodes: &mut BTreeMap<ProcessId, CounterNode>, origin: ProcessId) {
    let mut out = Outbox::new();
    nodes.get_mut(&origin).unwrap().request_increment(&mut out);
    let queue = out
        .into_messages()
        .into_iter()
        .map(|(to, msg)| (origin, to, msg))
        .collect();
    deliver_until_quiet(nodes, queue);
}

fn label_members(cfg: &ConfigSet) -> BTreeMap<ProcessId, Labeler> {
    cfg.iter()
        .map(|id| (*id, Labeler::new(*id, cfg.clone())))
        .collect()
}

fn counter_members(cfg: &ConfigSet, bound: u64) -> BTreeMap<ProcessId, CounterNode> {
    cfg.iter()
        .map(|id| {
            (
                *id,
                CounterNode::new(*id, cfg.clone()).with_exhaustion_bound(bound),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Labels (E6)
// ---------------------------------------------------------------------------

/// Convergence also holds when members start with corrupted `max[]` entries
/// referring to each other, and the number of labels created on the way is
/// far below the paper's O(N(N²+m)) worst-case bound.
#[test]
fn corrupted_label_state_converges_with_bounded_creations() {
    let cfg = config_set(0..4);
    let mut labelers = label_members(&cfg);
    // Transient fault: p0 believes p2's maximal label is one that p3 created
    // and p1 holds a cancelled pair.
    let fake = Label::genesis(ProcessId::new(3));
    labelers
        .get_mut(&ProcessId::new(0))
        .unwrap()
        .corrupt_max(ProcessId::new(2), LabelPair::legit(fake.clone()));
    let mut cancelled = LabelPair::legit(Label::genesis(ProcessId::new(1)));
    cancelled.cancel(fake);
    labelers
        .get_mut(&ProcessId::new(1))
        .unwrap()
        .corrupt_max(ProcessId::new(1), cancelled);

    pump_labelers(&mut labelers, 40);
    let maxima: Vec<Label> = labelers
        .values()
        .map(|l| l.local_max().expect("every member holds a maximum"))
        .collect();
    for pair in maxima.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
    let creations: u64 = labelers.values().map(Labeler::label_creations).sum();
    let n = cfg.len() as u64;
    assert!(
        creations <= n * n * (n + 1),
        "label creations {creations} exceed the analytic bound"
    );
}

/// After a reconfiguration, labels created by processors that left the
/// configuration are voided and the surviving members converge again
/// (Lemma 4.1).
#[test]
fn labels_of_removed_members_are_voided_after_reconfiguration() {
    let old_cfg = config_set(0..4);
    let mut labelers = label_members(&old_cfg);
    pump_labelers(&mut labelers, 20);

    // p3 leaves; the rest adopt the new configuration.
    let new_cfg = config_set(0..3);
    labelers.remove(&ProcessId::new(3));
    for l in labelers.values_mut() {
        l.on_config_change(new_cfg.clone());
    }
    pump_labelers(&mut labelers, 30);
    for l in labelers.values() {
        let max = l.local_max().expect("survivors still hold a maximum");
        assert!(
            new_cfg.contains(&max.creator),
            "a voided creator {:?} still owns the maximal label",
            max.creator
        );
    }
}

/// A member creating a fresh label mid-execution (e.g. after recovering from
/// a cancellation) does not break agreement: the members re-converge onto a
/// single maximal label.
#[test]
fn fresh_label_creation_reconverges() {
    let cfg = config_set(0..3);
    let mut labelers = label_members(&cfg);
    pump_labelers(&mut labelers, 10);
    let creations_before: u64 = labelers.values().map(Labeler::label_creations).sum();
    let fresh = labelers
        .get_mut(&ProcessId::new(1))
        .unwrap()
        .create_next_label()
        .expect("members can always create a label");
    assert_eq!(fresh.creator, ProcessId::new(1));
    pump_labelers(&mut labelers, 30);
    let maxima: Vec<Label> = labelers
        .values()
        .map(|l| l.local_max().expect("every member holds a maximum"))
        .collect();
    for pair in maxima.windows(2) {
        assert_eq!(pair[0], pair[1], "members failed to re-converge");
    }
    let creations_after: u64 = labelers.values().map(Labeler::label_creations).sum();
    assert!(creations_after > creations_before);
}

// ---------------------------------------------------------------------------
// Counters (E7)
// ---------------------------------------------------------------------------

fn committed(outcomes: Vec<IncrementOutcome>) -> Vec<Counter> {
    outcomes
        .into_iter()
        .filter_map(|o| match o {
            IncrementOutcome::Committed(c) => Some(c),
            IncrementOutcome::Aborted => None,
        })
        .collect()
}

/// Concurrent increments by different members still commit totally ordered
/// values: when both read the same maximum, the writer identifier breaks the
/// tie and the gossip of Algorithm 4.3 settles every member on one maximum.
#[test]
fn concurrent_increments_are_totally_ordered() {
    let cfg = config_set(0..3);
    let mut nodes = counter_members(&cfg, 1 << 20);
    pump_counters(&mut nodes, 10);

    // Both p0 and p1 start an increment before any message is exchanged.
    let mut queue: VecDeque<(ProcessId, ProcessId, CounterMsg)> = VecDeque::new();
    for origin in [ProcessId::new(0), ProcessId::new(1)] {
        let mut out = Outbox::new();
        nodes.get_mut(&origin).unwrap().request_increment(&mut out);
        for (to, msg) in out.into_messages() {
            queue.push_back((origin, to, msg));
        }
    }
    deliver_until_quiet(&mut nodes, queue);
    pump_counters(&mut nodes, 5);

    let mut all: Vec<Counter> = Vec::new();
    for node in nodes.values_mut() {
        all.extend(committed(node.take_completed()));
    }
    assert!(
        !all.is_empty(),
        "at least one concurrent increment must commit"
    );
    // All committed counters are pairwise ordered (no two are equal).
    for i in 0..all.len() {
        for j in (i + 1)..all.len() {
            assert!(
                all[i].ct_less(&all[j]) || all[j].ct_less(&all[i]),
                "two committed counters are incomparable or equal: {:?} {:?}",
                all[i],
                all[j]
            );
        }
    }
    // The members converge on a single maximal counter.
    pump_counters(&mut nodes, 10);
    let maxima: Vec<Counter> = nodes
        .values()
        .filter_map(|n| n.max_counter().cloned())
        .collect();
    for pair in maxima.windows(2) {
        assert_eq!(pair[0], pair[1], "members disagree on the maximal counter");
    }
}

/// Exhausting the sequence number forces a label rollover and increments keep
/// committing with strictly greater counters (Theorem 4.6 across epochs).
#[test]
fn exhaustion_rolls_over_to_a_new_epoch_label() {
    let cfg = config_set(0..3);
    // A tiny exhaustion bound forces the rollover almost immediately.
    let mut nodes = counter_members(&cfg, 3);
    pump_counters(&mut nodes, 10);

    let incrementer = ProcessId::new(2);
    let mut history: Vec<Counter> = Vec::new();
    for _ in 0..10 {
        increment(&mut nodes, incrementer);
        pump_counters(&mut nodes, 2);
        history.extend(committed(
            nodes.get_mut(&incrementer).unwrap().take_completed(),
        ));
    }
    assert!(history.len() >= 6);
    for pair in history.windows(2) {
        assert!(
            pair[0].ct_less(&pair[1]),
            "counter went backwards across epochs"
        );
    }
    let labels_used: std::collections::BTreeSet<Label> =
        history.iter().map(|c| c.label.clone()).collect();
    assert!(
        labels_used.len() >= 2,
        "the tiny exhaustion bound must have forced at least one rollover"
    );
}

/// While the owner reports a reconfiguration in progress, increments abort
/// instead of committing (the counter service is suspending).
#[test]
fn increments_abort_during_reconfiguration() {
    let cfg = config_set(0..3);
    let mut nodes = counter_members(&cfg, 1 << 20);
    pump_counters(&mut nodes, 10);
    for node in nodes.values_mut() {
        node.set_reconfiguring(true);
    }
    let incrementer = ProcessId::new(0);
    increment(&mut nodes, incrementer);
    let outcomes = nodes.get_mut(&incrementer).unwrap().take_completed();
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o, IncrementOutcome::Aborted)),
        "increments must abort while reconfiguring: {outcomes:?}"
    );
    // Once the reconfiguration ends, increments commit again.
    for node in nodes.values_mut() {
        node.set_reconfiguring(false);
    }
    increment(&mut nodes, incrementer);
    let outcomes = nodes.get_mut(&incrementer).unwrap().take_completed();
    assert!(outcomes
        .iter()
        .any(|o| matches!(o, IncrementOutcome::Committed(_))));
}

/// A configuration change rebuilds the counter structures for the new member
/// set and the service keeps going.
#[test]
fn counter_service_survives_a_configuration_change() {
    let old_cfg = config_set(0..4);
    let mut nodes = counter_members(&old_cfg, 1 << 20);
    pump_counters(&mut nodes, 10);

    // Commit one increment under the old configuration.
    let incrementer = ProcessId::new(0);
    increment(&mut nodes, incrementer);
    let first = committed(nodes.get_mut(&incrementer).unwrap().take_completed());
    assert_eq!(first.len(), 1);

    // Reconfigure to {0,1,2}: p3 is removed.
    let new_cfg = config_set(0..3);
    nodes.remove(&ProcessId::new(3));
    for node in nodes.values_mut() {
        node.on_config_change(new_cfg.clone());
    }
    pump_counters(&mut nodes, 10);

    // Increments keep committing under the new configuration.
    increment(&mut nodes, incrementer);
    let second = committed(nodes.get_mut(&incrementer).unwrap().take_completed());
    assert_eq!(
        second.len(),
        1,
        "increments must work in the new configuration"
    );
}
