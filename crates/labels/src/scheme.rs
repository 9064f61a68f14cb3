//! The reconfiguration-aware labeling algorithm (Algorithm 4.1, using the
//! receipt action of Algorithm 4.2).
//!
//! Only the members of the current configuration run the algorithm. They
//! periodically exchange their locally maximal label pair together with the
//! last pair received from the destination; the receipt action keeps the
//! bounded `storedLabels[]` queues tidy (cancelling dominated or twin
//! labels) and converges every member onto a single, globally maximal label.
//! When a reconfiguration completes, the label structures are rebuilt for the
//! new member set, every queue is emptied, and labels created by non-members
//! are voided — so a processor that left the configuration can never drive
//! the labeling scheme again (Lemma 4.1).

use std::collections::BTreeMap;

use reconfig::ConfigSet;
use simnet::stack::Sink;
use simnet::ProcessId;

use crate::label::{Label, LabelPair, LabelQueue};

/// The message exchanged between configuration members: the sender's maximal
/// pair and the pair it last received from the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelerMsg {
    /// The sender's `max[i]`.
    pub sent_max: LabelPair,
    /// The sender's copy of the receiver's maximal pair (`max[k]`).
    pub last_sent: Option<LabelPair>,
}

simnet::wire_struct_codec!(LabelerMsg {
    sent_max,
    last_sent
});

/// The labeling state of one configuration member.
#[derive(Debug, Clone)]
pub struct Labeler {
    me: ProcessId,
    config: ConfigSet,
    /// `maxC[]`-analogue for labels: own entry plus last received per member.
    max: BTreeMap<ProcessId, LabelPair>,
    /// `storedLabels[]`: one bounded queue per member (keyed by creator).
    stored: BTreeMap<ProcessId, LabelQueue>,
    queue_bound: usize,
    label_creations: u64,
    /// Soft state: `true` only while `max`/`stored` are known to be a fixed
    /// point of the receipt action's bookkeeping (`housekeeping` then
    /// `pick_local_max`). Set by a full receipt action that changed nothing;
    /// cleared by every write to `max` or `stored` and by every `step()`, so
    /// a wrong value survives at most one iteration of the do-forever loop.
    /// While it holds, a message that repeats what is stored is done after
    /// the comparisons of [`Labeler::repeats_stored`].
    settled: bool,
    /// Test oracle: run the full receipt action for every message.
    #[cfg(test)]
    full_receipt_only: bool,
}

impl Labeler {
    /// Creates the labeling state for member `me` of `config`.
    pub fn new(me: ProcessId, config: ConfigSet) -> Self {
        let mut l = Labeler {
            me,
            config: ConfigSet::new(),
            max: BTreeMap::new(),
            stored: BTreeMap::new(),
            queue_bound: 8,
            label_creations: 0,
            settled: false,
            #[cfg(test)]
            full_receipt_only: false,
        };
        l.on_config_change(config);
        l
    }

    /// The current configuration the labeler works for.
    pub fn config(&self) -> &ConfigSet {
        &self.config
    }

    /// Returns `true` when this processor is a member of the current
    /// configuration (only members run the algorithm).
    pub fn is_member(&self) -> bool {
        self.config.contains(&self.me)
    }

    /// Number of labels this processor created so far (the cost measure of
    /// Theorem 4.4).
    pub fn label_creations(&self) -> u64 {
        self.label_creations
    }

    /// The label this processor currently considers globally maximal.
    pub fn local_max(&self) -> Option<Label> {
        self.max
            .get(&self.me)
            .filter(|p| p.is_legit())
            .map(|p| p.ml.clone())
    }

    /// Handles a completed reconfiguration: rebuild the structures for the
    /// new member set (lines 9–14 of Algorithm 4.1).
    pub fn on_config_change(&mut self, new_config: ConfigSet) {
        if new_config == self.config && !self.max.is_empty() {
            return;
        }
        self.settled = false;
        let v = new_config.len().max(1);
        self.queue_bound = v * (v * v + 4) + v;
        self.config = new_config;
        // rebuild(): keep entries of surviving members only, void label
        // pairs created by non-members (cleanMax)…
        let cfg = &self.config;
        self.max
            .retain(|k, p| cfg.contains(k) && cfg.contains(&p.ml.creator));
        // …and empty all queues: `store_pair` re-creates them under the new
        // bound.
        self.stored.clear();
        if self.is_member() {
            self.use_own_label();
        }
    }

    /// Periodic exchange (the `transmitReady` handler): a member sends its
    /// maximal pair (plus the echo of the destination's) to every other
    /// member, into `out` (an embedder passes its own sink through
    /// [`Sink::nest`]).
    pub fn step(&mut self, out: &mut impl Sink<LabelerMsg>) {
        // Every iteration of the do-forever loop re-earns the shortcut: the
        // next message runs the receipt action in full, whatever a transient
        // fault left in `settled`.
        self.settled = false;
        if !self.is_member() {
            return;
        }
        if !self.max.contains_key(&self.me) {
            self.use_own_label();
        }
        let my_max = &self.max[&self.me];
        for k in self.config.iter().copied().filter(|k| *k != self.me) {
            let msg = LabelerMsg {
                sent_max: my_max.clone(),
                last_sent: self.max.get(&k).cloned(),
            };
            out.push(k, msg);
        }
    }

    /// Handles a label exchange message from another member (the receive
    /// handler of Algorithm 4.1 plus the receipt action of Algorithm 4.2).
    pub fn on_message(&mut self, from: ProcessId, msg: LabelerMsg) {
        if !self.is_member() || !self.config.contains(&from) {
            return;
        }
        // Labels created by non-members are voided before processing.
        if !self.config.contains(&msg.sent_max.ml.creator) {
            return;
        }
        let at_rest = self.settled && self.repeats_stored(from, &msg);
        #[cfg(test)]
        let at_rest = at_rest && !self.full_receipt_only;
        if at_rest {
            return;
        }
        // Assume this run changes nothing; the first write that does
        // withdraws the assumption.
        self.settled = true;
        // Store the sender's maximum.
        self.write_max(from, &msg.sent_max);
        self.store_pair(msg.sent_max);
        if let Some(last) = msg.last_sent {
            if self.config.contains(&last.ml.creator) {
                if self.echo_cancels_own_max(&last) {
                    self.write_max(self.me, &last);
                }
                self.store_pair(last);
            }
        }
        self.housekeeping();
        self.pick_local_max();
    }

    /// Whether the three writes of the receipt action — `max[from]`, the two
    /// `store_pair`s and the cancelled-echo adoption — would leave `max` and
    /// `stored` as they are, queue order included. Expects the guards of
    /// [`Labeler::on_message`] to have passed.
    fn repeats_stored(&self, from: ProcessId, msg: &LabelerMsg) -> bool {
        self.max.get(&from) == Some(&msg.sent_max)
            && self.stored_in_front(&msg.sent_max)
            && msg.last_sent.as_ref().map_or(true, |last| {
                !self.config.contains(&last.ml.creator)
                    || (!self.echo_cancels_own_max(last) && self.stored_in_front(last))
            })
    }

    /// The peer echoed back our own, still legit, maximum as cancelled: the
    /// cancellation is adopted.
    fn echo_cancels_own_max(&self, last: &LabelPair) -> bool {
        !last.is_legit()
            && self
                .max
                .get(&self.me)
                .is_some_and(|own| own.is_legit() && own.ml == last.ml)
    }

    fn stored_in_front(&self, pair: &LabelPair) -> bool {
        self.stored
            .get(&pair.ml.creator)
            .is_some_and(|q| q.holds_in_front(pair))
    }

    /// Sets `max[owner]`.
    fn write_max(&mut self, owner: ProcessId, pair: &LabelPair) {
        if self.max.get(&owner) != Some(pair) {
            self.settled = false;
            self.max.insert(owner, pair.clone());
        }
    }

    /// Adds a pair to the creator's bounded queue.
    fn store_pair(&mut self, pair: LabelPair) {
        let creator = pair.ml.creator;
        if !self.config.contains(&creator) {
            return;
        }
        let bound = self.queue_bound;
        let queue = self.stored.entry(creator);
        if queue.or_insert_with(|| LabelQueue::new(bound)).add(pair) {
            self.settled = false;
        }
    }

    /// Cancels stored labels that are dominated by (or incomparable with)
    /// another stored label of the same creator — the essence of the receipt
    /// action's bookkeeping.
    fn housekeeping(&mut self) {
        for (creator, queue) in self.stored.iter_mut() {
            if queue.cancel_superseded(*creator != self.me) {
                self.settled = false;
            }
        }
        // Cancellations recorded in the queues propagate to the max[] array.
        for pair in self.max.values_mut().filter(|p| p.is_legit()) {
            let stored = self
                .stored
                .get(&pair.ml.creator)
                .and_then(|q| q.iter().find(|p| p.ml == pair.ml));
            if let Some(stored) = stored.filter(|p| !p.is_legit()) {
                self.settled = false;
                *pair = stored.clone();
            }
        }
    }

    /// `legitLabels()` / `useOwnLabel()`: adopt the greatest legit label in
    /// view, or create a fresh one when none exists.
    fn pick_local_max(&mut self) {
        let legit = || self.max.values().filter(|p| p.is_legit()).map(|p| &p.ml);
        // A label is maximal when no other legit label dominates it.
        let best = legit()
            .filter(|l| !legit().any(|other| l.lb_less(other)))
            .max();
        match best {
            Some(best) => {
                let own = self.max.get(&self.me);
                if !own.is_some_and(|own| own.is_legit() && own.ml == *best) {
                    let pair = LabelPair::legit(best.clone());
                    self.write_max(self.me, &pair);
                }
            }
            None => self.use_own_label(),
        }
    }

    fn use_own_label(&mut self) {
        // Reuse a legit stored label of our own if one exists…
        let own = self.stored.get(&self.me).and_then(|q| q.newest_legit());
        if let Some(pair) = own.cloned() {
            self.write_max(self.me, &pair);
            return;
        }
        // …otherwise create a label greater than everything we know.
        self.adopt_fresh_label();
    }

    /// Creates a label of our own that dominates every label in `stored` and
    /// `max`, and makes it the local maximum.
    fn adopt_fresh_label(&mut self) -> Label {
        let known: Vec<&Label> = self
            .stored
            .values()
            .flat_map(|q| q.iter().map(|p| &p.ml))
            .chain(self.max.values().map(|p| &p.ml))
            .collect();
        let pair = LabelPair::legit(Label::next_label(self.me, &known));
        self.label_creations += 1;
        self.store_pair(pair.clone());
        self.write_max(self.me, &pair);
        pair.ml
    }

    /// Records a label observed by a higher layer (e.g. a label carried by a
    /// counter) so that subsequently created labels dominate it.
    pub fn observe_label(&mut self, label: Label) {
        self.store_pair(LabelPair::legit(label));
    }

    /// Replaces the current maximum by a fresh label that dominates every
    /// label known locally (the receipt action then cancels the stored copy
    /// of the old one). The counter service calls this when the sequence
    /// numbers of the current epoch are exhausted (Section 4.2). Returns the
    /// new label, or `None` when this processor is not a member.
    pub fn create_next_label(&mut self) -> Option<Label> {
        if !self.is_member() {
            return None;
        }
        Some(self.adopt_fresh_label())
    }

    /// Injects an arbitrary label pair into the local state (transient-fault
    /// helper used by the `label_convergence` experiment).
    pub fn corrupt_max(&mut self, owner: ProcessId, pair: LabelPair) {
        self.write_max(owner, &pair);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use reconfig::config_set;
    use simnet::stack::Outbox;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    struct Harness {
        nodes: BTreeMap<ProcessId, Labeler>,
    }

    impl Harness {
        fn new(cfg: &ConfigSet) -> Self {
            Harness {
                nodes: cfg
                    .iter()
                    .map(|id| (*id, Labeler::new(*id, cfg.clone())))
                    .collect(),
            }
        }

        fn round(&mut self) {
            let mut outbox = Vec::new();
            for (id, node) in self.nodes.iter_mut() {
                let mut out = Outbox::new();
                node.step(&mut out);
                for (to, m) in out.into_messages() {
                    outbox.push((*id, to, m));
                }
            }
            for (from, to, m) in outbox {
                if let Some(node) = self.nodes.get_mut(&to) {
                    node.on_message(from, m);
                }
            }
        }

        fn rounds(&mut self, n: usize) {
            for _ in 0..n {
                self.round();
            }
        }

        fn common_max(&self) -> Option<Label> {
            let maxes: Vec<Option<Label>> = self.nodes.values().map(|n| n.local_max()).collect();
            let first = maxes.first()?.clone()?;
            if maxes.iter().all(|m| m.as_ref() == Some(&first)) {
                Some(first)
            } else {
                None
            }
        }
    }

    #[test]
    fn members_converge_to_a_single_maximal_label() {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::new(&cfg);
        h.rounds(20);
        let max = h.common_max().expect("all members agree on a label");
        assert!(cfg.contains(&max.creator));
    }

    #[test]
    fn corrupted_label_is_cancelled_and_superseded() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::new(&cfg);
        h.rounds(10);
        let before = h.common_max().unwrap();
        // Transient fault: node 1 believes in a wild label by node 2.
        let wild = Label {
            creator: pid(2),
            sting: 999,
            antistings: Arc::new([1, 2, 3].into()),
        };
        h.nodes
            .get_mut(&pid(1))
            .unwrap()
            .corrupt_max(pid(1), LabelPair::legit(wild));
        h.rounds(30);
        let after = h.common_max().expect("labels re-converge after corruption");
        // The system agrees again; the surviving label need not equal the old
        // one but must be a single legit label.
        let _ = before;
        assert!(cfg.contains(&after.creator));
    }

    #[test]
    fn reconfiguration_discards_non_member_labels() {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::new(&cfg);
        h.rounds(15);
        // Shrink the configuration to {0, 1}: labels created by 2 or 3 must
        // disappear from the members' state.
        let new_cfg = config_set([0, 1]);
        for node in h.nodes.values_mut() {
            node.on_config_change(new_cfg.clone());
        }
        h.rounds(15);
        for id in [0u32, 1] {
            let node = &h.nodes[&pid(id)];
            let max = node.local_max().unwrap();
            assert!(new_cfg.contains(&max.creator), "stale creator survived");
        }
    }

    #[test]
    fn non_member_does_not_exchange_labels() {
        let cfg = config_set([0, 1]);
        let mut outsider = Labeler::new(pid(9), cfg);
        assert!(!outsider.is_member());
        let mut out = Outbox::<LabelerMsg>::new();
        outsider.step(&mut out);
        assert!(out.is_empty());
        assert!(outsider.local_max().is_none() || outsider.label_creations() == 0);
    }

    /// Satellite of the `settled` shortcut: a rebuilt labeler must not keep
    /// queues sized for the configuration it left.
    #[test]
    fn surviving_queue_takes_the_grown_configurations_bound() {
        let mut l = Labeler::new(pid(0), config_set([0, 1, 2]));
        let old_bound = l.queue_bound;
        assert_eq!(old_bound, 42);
        l.observe_label(Label::genesis(pid(1)));
        l.on_config_change(config_set(0..8));
        assert_eq!(l.queue_bound, 552);
        for sting in 0..=old_bound as u32 {
            l.observe_label(Label {
                creator: pid(1),
                sting,
                antistings: Default::default(),
            });
        }
        assert_eq!(l.stored[&pid(1)].len(), old_bound + 1);
    }

    /// In a converged system the first message after a `step()` runs the
    /// receipt action in full and finds nothing to do; the rest of the round
    /// is answered at rest, until the next `step()` withdraws the shortcut.
    #[test]
    fn converged_labeler_rests_between_steps() {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::new(&cfg);
        h.rounds(20);
        assert!(h.common_max().is_some());
        assert!(h.nodes.values().all(|n| n.settled));
        let before = h.nodes[&pid(0)].clone();
        let mut out = Outbox::new();
        h.nodes.get_mut(&pid(1)).unwrap().step(&mut out);
        let from_1 = out.into_messages().remove(0);
        assert_eq!(from_1.0, pid(0));
        let node = h.nodes.get_mut(&pid(0)).unwrap();
        assert!(node.repeats_stored(pid(1), &from_1.1));
        node.step(&mut Outbox::<LabelerMsg>::new());
        assert!(!node.settled, "step() withdraws the shortcut");
        node.on_message(pid(1), from_1.1);
        assert!(node.settled, "a full run that changed nothing re-earns it");
        assert_eq!((&node.max, &node.stored), (&before.max, &before.stored));
    }

    /// `settled` is soft state. Four labelers that each hold on to their
    /// own label, know everybody else's and wrongly believe they are at rest
    /// exchange nothing but repetitions of what they store, so no message
    /// alone would ever make them pick again: `step()` clearing the bit is
    /// what lets them converge, within the fault-free round budget.
    #[test]
    fn wrongly_settled_labelers_still_converge() {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::new(&cfg);
        let own: Vec<LabelPair> = h.nodes.values().map(|n| n.max[&n.me].clone()).collect();
        for node in h.nodes.values_mut() {
            for (owner, pair) in cfg.iter().zip(&own) {
                node.max.insert(*owner, pair.clone());
                node.store_pair(pair.clone());
            }
        }
        let mut out = Outbox::new();
        h.nodes.get_mut(&pid(1)).unwrap().step(&mut out);
        let (to, msg) = out.into_messages().remove(0);
        assert!(
            h.nodes[&to].repeats_stored(pid(1), &msg),
            "an invisible fault"
        );
        for node in h.nodes.values_mut() {
            node.settled = true;
        }
        assert!(h.common_max().is_none());
        h.rounds(20);
        let max = h.common_max().expect("all members agree on a label");
        assert!(cfg.contains(&max.creator));
    }

    #[test]
    fn label_creations_are_bounded_in_steady_state() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let mut h = Harness::new(&cfg);
        h.rounds(50);
        let total: u64 = h.nodes.values().map(|n| n.label_creations()).sum();
        // One creation per member at start-up is expected; steady state must
        // not keep creating labels.
        assert!(total <= 2 * 5, "created {total} labels in steady state");
    }
}

/// The oracle for the `settled` shortcut: the same labeler with the early
/// return switched off.
#[cfg(test)]
mod oracle {
    use std::sync::Arc;

    use super::*;
    use proptest::prelude::*;
    use reconfig::config_set;
    use simnet::stack::Outbox;

    const CREATORS: u64 = 6;
    const STINGS: u64 = 12;

    /// Mixed-radix reader over one random word.
    struct Bits(u64);

    impl Bits {
        fn take(&mut self, n: u64) -> u64 {
            let v = self.0 % n;
            self.0 /= n;
            v
        }

        /// A label of a universe small enough to collide: per creator,
        /// `t ≺lb s` for most `t < s` and every third pair is a pair of
        /// incomparable twins.
        fn label(&mut self) -> Label {
            let creator = ProcessId::new(self.take(CREATORS) as u32);
            let sting = self.take(STINGS) as u32;
            Label {
                creator,
                sting,
                antistings: Arc::new((0..sting).filter(|t| (sting + t) % 3 != 0).collect()),
            }
        }

        fn pair(&mut self) -> LabelPair {
            LabelPair {
                ml: self.label(),
                cl: (self.take(3) == 0).then(|| self.label()),
            }
        }

        /// One of the pairs `l` stores, from any position of any queue.
        fn stored(&mut self, l: &Labeler) -> Option<LabelPair> {
            let stored: Vec<&LabelPair> = l.stored.values().flat_map(|q| q.iter()).collect();
            let i = self.take(stored.len().max(1) as u64) as usize;
            stored.get(i).map(|p| (*p).clone())
        }

        fn msg(&mut self) -> LabelerMsg {
            LabelerMsg {
                sent_max: self.pair(),
                last_sent: (self.take(4) != 0).then(|| self.pair()),
            }
        }
    }

    /// Member sets around `me = 1`: a singleton (queue bound 6, below the
    /// twelve stings of a creator), growing and shrinking ones, creators 4
    /// and 5 mostly outside, and one that drops `me`.
    fn config(i: u64) -> ConfigSet {
        match i {
            0 => config_set([1]),
            1 => config_set([0, 1]),
            2 => config_set([0, 1, 2]),
            3 => config_set([1, 2, 3, 4]),
            4 => config_set(0..5),
            _ => config_set([2, 3]),
        }
    }

    proptest! {
        /// A labeler that takes the early return and one that never does go
        /// through the same random history and agree after every operation
        /// on `max`, on `stored` including queue order, on the number of
        /// labels created and on what `step()` would send.
        #[test]
        fn early_return_matches_full_receipt_action(
            raw_ops in proptest::collection::vec((0u8..18, 0u8..6, 0u64..u64::MAX), 0..160),
        ) {
            let me = ProcessId::new(1);
            let mut fast = Labeler::new(me, config(2));
            let mut full = fast.clone();
            full.full_receipt_only = true;
            let mut sent: Vec<(ProcessId, LabelerMsg)> = Vec::new();
            for (kind, from, word) in raw_ops {
                let from = ProcessId::new(u32::from(from));
                let mut bits = Bits(word);
                // Messages: fresh ones, replays of the last few, what a
                // converged peer would send, and `from`'s last maximum with
                // an echo of some stored pair, front of its queue or not —
                // a random history repeats itself in no other way.
                let msg = match kind {
                    0..=3 => Some((from, bits.msg())),
                    4..=5 => sent.iter().rev().nth(bits.take(4) as usize).cloned(),
                    6..=7 => fast.max.get(&me).cloned().map(|own| {
                        let last_sent = (bits.take(4) != 0).then(|| own.clone());
                        (from, LabelerMsg { sent_max: own, last_sent })
                    }),
                    8..=10 => fast.max.get(&from).cloned().map(|sent_max| {
                        let last_sent = bits.stored(&fast);
                        (from, LabelerMsg { sent_max, last_sent })
                    }),
                    _ => None,
                };
                // Delivered up to three times: the second delivery usually
                // finds nothing to change, the third is answered at rest.
                if let Some((from, msg)) = msg {
                    sent.push((from, msg.clone()));
                    for _ in 0..=bits.take(3) {
                        fast.on_message(from, msg.clone());
                        full.on_message(from, msg.clone());
                    }
                }
                match kind {
                    11 => {
                        let label = bits.label();
                        fast.observe_label(label.clone());
                        full.observe_label(label);
                    }
                    12 => prop_assert_eq!(fast.create_next_label(), full.create_next_label()),
                    13 => {
                        let owner = ProcessId::new(bits.take(CREATORS) as u32);
                        let mut pair = bits.pair();
                        // Half the time the cancelled copy of a stored label.
                        if let Some(stored) = bits.stored(&fast).filter(|_| bits.take(2) == 0) {
                            pair = LabelPair { ml: stored.ml, cl: Some(bits.label()) };
                        }
                        fast.corrupt_max(owner, pair.clone());
                        full.corrupt_max(owner, pair);
                    }
                    14 => {
                        let cfg = config(bits.take(6));
                        fast.on_config_change(cfg.clone());
                        full.on_config_change(cfg);
                    }
                    15..=17 => {
                        let (mut by_fast, mut by_full) = (Outbox::<LabelerMsg>::new(), Outbox::new());
                        fast.step(&mut by_fast);
                        full.step(&mut by_full);
                        prop_assert_eq!(by_fast.into_messages(), by_full.into_messages());
                    }
                    _ => {}
                }
                prop_assert_eq!(&fast.max, &full.max);
                prop_assert_eq!(&fast.stored, &full.stored);
                prop_assert_eq!(fast.label_creations, full.label_creations);
                let (mut by_fast, mut by_full) = (Outbox::<LabelerMsg>::new(), Outbox::new());
                fast.clone().step(&mut by_fast);
                full.clone().step(&mut by_full);
                prop_assert_eq!(by_fast.into_messages(), by_full.into_messages());
            }
        }
    }
}
