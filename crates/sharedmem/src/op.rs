//! The two-phase quorum operation state machine.
//!
//! Reads and writes follow the classic two-phase pattern the paper points to
//! for its shared-memory emulation ("a typical two-phase read and write
//! protocol can be used", Section 4.3):
//!
//! 1. **Query phase** — ask every configuration member for its latest tagged
//!    value of the register and wait for a quorum of answers;
//! 2. **Propagate phase** — push the chosen tagged value (for a write: the
//!    queried maximum's tag incremented by the writer; for a read: the
//!    maximum itself, so later reads cannot observe an older value) to every
//!    member and wait for a quorum of acknowledgements.
//!
//! The quorum predicate is pluggable ([`reconfig::QuorumSystem`]); because
//! any two quorums intersect, a completed write is visible to every later
//! query, which is what makes the emulated register atomic while the
//! configuration is stable.

use std::collections::{BTreeMap, BTreeSet};

use counters::Counter;
use labels::Label;
use reconfig::{ConfigSet, QuorumSystem};
use simnet::ProcessId;

use crate::types::{OpId, OpKind, OpOutcome, RegisterId, TaggedValue};

/// The phase an in-flight operation is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpPhase {
    /// Waiting for a quorum of query responses.
    Query,
    /// Waiting for a quorum of propagate acknowledgements.
    Propagate,
}

/// What the driver asks the enclosing node to do after an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpStep {
    /// Keep waiting; optionally (re)send the given phase's requests.
    Continue,
    /// The operation moved to the propagate phase with the given value.
    StartPropagate(TaggedValue),
    /// The operation completed with this outcome.
    Done(OpOutcome),
}

/// One in-flight read or write driven by the invoking processor.
#[derive(Debug, Clone)]
pub struct PendingOp {
    op: OpId,
    key: RegisterId,
    kind: OpKind,
    phase: OpPhase,
    /// Query responses collected so far (including "no value yet").
    responses: BTreeMap<ProcessId, Option<TaggedValue>>,
    /// Propagate acknowledgements collected so far.
    acks: BTreeSet<ProcessId>,
    /// The value being propagated (set when entering the propagate phase).
    chosen: Option<TaggedValue>,
}

impl PendingOp {
    /// Starts a new operation in the query phase.
    pub fn new(op: OpId, key: RegisterId, kind: OpKind) -> Self {
        PendingOp {
            op,
            key,
            kind,
            phase: OpPhase::Query,
            responses: BTreeMap::new(),
            acks: BTreeSet::new(),
            chosen: None,
        }
    }

    /// The operation identifier.
    pub fn op(&self) -> OpId {
        self.op
    }

    /// The register targeted.
    pub fn key(&self) -> RegisterId {
        self.key
    }

    /// The operation kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The current phase.
    pub fn phase(&self) -> OpPhase {
        self.phase
    }

    /// The value chosen for propagation, once the query phase completed.
    pub fn chosen(&self) -> Option<&TaggedValue> {
        self.chosen.as_ref()
    }

    /// Members that have not yet answered the current phase (used for
    /// retransmission under message loss).
    pub fn unanswered<'a>(&'a self, config: &'a ConfigSet) -> Vec<ProcessId> {
        config
            .iter()
            .copied()
            .filter(|m| match self.phase {
                OpPhase::Query => !self.responses.contains_key(m),
                OpPhase::Propagate => !self.acks.contains(m),
            })
            .collect()
    }

    /// Records a query response from `member`. Returns the next step once a
    /// quorum of `config` (under `quorum`) has answered.
    ///
    /// For a write, the chosen value carries a tag strictly greater than
    /// every tag reported by the quorum (rolling over to a fresh epoch label
    /// when the sequence number is exhausted). For a read, the chosen value
    /// is the reported maximum itself; a read of a never-written register
    /// completes immediately.
    pub fn on_query_response(
        &mut self,
        member: ProcessId,
        current: Option<TaggedValue>,
        config: &ConfigSet,
        quorum: &QuorumSystem,
        me: ProcessId,
        exhaustion_bound: u64,
    ) -> OpStep {
        if self.phase != OpPhase::Query || !config.contains(&member) {
            return OpStep::Continue;
        }
        self.responses.insert(member, current);
        if !quorum.is_quorum(config, |m| self.responses.contains_key(m)) {
            return OpStep::Continue;
        }

        let max = self
            .responses
            .values()
            .flatten()
            .cloned()
            .reduce(TaggedValue::max);

        match self.kind {
            OpKind::Read => match max {
                Some(found) => {
                    self.phase = OpPhase::Propagate;
                    self.chosen = Some(found.clone());
                    OpStep::StartPropagate(found)
                }
                None => OpStep::Done(OpOutcome::ReadCommitted {
                    op: self.op,
                    key: self.key,
                    value: None,
                    tag: None,
                }),
            },
            OpKind::Write { value } => {
                let tag = next_tag(max.as_ref().map(|tv| &tv.tag), me, exhaustion_bound);
                let chosen = TaggedValue::new(tag, value);
                self.phase = OpPhase::Propagate;
                self.chosen = Some(chosen.clone());
                OpStep::StartPropagate(chosen)
            }
        }
    }

    /// Records a propagate acknowledgement from `member`. Returns the final
    /// outcome once a quorum of `config` has acknowledged.
    pub fn on_ack(
        &mut self,
        member: ProcessId,
        config: &ConfigSet,
        quorum: &QuorumSystem,
    ) -> OpStep {
        if self.phase != OpPhase::Propagate || !config.contains(&member) {
            return OpStep::Continue;
        }
        self.acks.insert(member);
        if !quorum.is_quorum(config, |m| self.acks.contains(m)) {
            return OpStep::Continue;
        }
        let chosen = self
            .chosen
            .clone()
            .expect("propagate phase always has a chosen value");
        let outcome = match self.kind {
            OpKind::Read => OpOutcome::ReadCommitted {
                op: self.op,
                key: self.key,
                value: Some(chosen.value),
                tag: Some(chosen.tag),
            },
            OpKind::Write { .. } => OpOutcome::WriteCommitted {
                op: self.op,
                key: self.key,
                tag: chosen.tag,
            },
        };
        OpStep::Done(outcome)
    }

    /// Abandons the operation (reconfiguration started mid-flight).
    pub fn abort(&self) -> OpOutcome {
        OpOutcome::Aborted {
            op: self.op,
            key: self.key,
        }
    }
}

/// Computes the tag of a new write given the maximum tag a query quorum
/// reported: normally the maximum incremented by `me`; when the maximum's
/// sequence number is exhausted (or no value exists yet) a fresh epoch label
/// created by `me` restarts the sequence numbers — the counter scheme's
/// rollover (Section 4.2) applied to register tags.
pub fn next_tag(max: Option<&Counter>, me: ProcessId, exhaustion_bound: u64) -> Counter {
    match max {
        Some(tag) if !tag.is_exhausted(exhaustion_bound) => tag.incremented(me),
        Some(tag) => {
            let fresh = Label::next_label(me, &[&tag.label]);
            Counter::zero(fresh, me).incremented(me)
        }
        None => Counter::zero(Label::genesis(me), me).incremented(me),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use counters::DEFAULT_EXHAUSTION_BOUND;
    use reconfig::config_set;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn tag(seqn: u64, wid: u32) -> Counter {
        Counter {
            label: Label::genesis(pid(0)),
            seqn,
            wid: pid(wid),
        }
    }

    fn tv(seqn: u64, wid: u32, value: u64) -> TaggedValue {
        TaggedValue::new(tag(seqn, wid), value)
    }

    #[test]
    fn write_queries_then_propagates_then_commits() {
        let cfg = config_set([0, 1, 2]);
        let q = QuorumSystem::Majority;
        let mut op = PendingOp::new(
            OpId::new(pid(9), 0),
            RegisterId::new(1),
            OpKind::Write { value: 42 },
        );
        assert_eq!(op.phase(), OpPhase::Query);
        assert_eq!(op.unanswered(&cfg).len(), 3);

        assert_eq!(
            op.on_query_response(
                pid(0),
                Some(tv(4, 0, 7)),
                &cfg,
                &q,
                pid(9),
                DEFAULT_EXHAUSTION_BOUND
            ),
            OpStep::Continue
        );
        let step = op.on_query_response(pid(1), None, &cfg, &q, pid(9), DEFAULT_EXHAUSTION_BOUND);
        let OpStep::StartPropagate(chosen) = step else {
            panic!("expected propagate start, got {step:?}");
        };
        assert_eq!(chosen.value, 42);
        assert_eq!(chosen.tag.seqn, 5, "tag is the queried maximum + 1");
        assert_eq!(chosen.tag.wid, pid(9));
        assert_eq!(op.phase(), OpPhase::Propagate);
        assert_eq!(op.unanswered(&cfg).len(), 3);

        assert_eq!(op.on_ack(pid(2), &cfg, &q), OpStep::Continue);
        let done = op.on_ack(pid(0), &cfg, &q);
        let OpStep::Done(OpOutcome::WriteCommitted { tag, .. }) = done else {
            panic!("expected committed write, got {done:?}");
        };
        assert_eq!(tag.seqn, 5);
    }

    #[test]
    fn read_writes_back_the_maximum_it_found() {
        let cfg = config_set([0, 1, 2]);
        let q = QuorumSystem::Majority;
        let mut op = PendingOp::new(OpId::new(pid(9), 1), RegisterId::new(1), OpKind::Read);
        op.on_query_response(
            pid(0),
            Some(tv(2, 0, 20)),
            &cfg,
            &q,
            pid(9),
            DEFAULT_EXHAUSTION_BOUND,
        );
        let step = op.on_query_response(
            pid(1),
            Some(tv(7, 1, 70)),
            &cfg,
            &q,
            pid(9),
            DEFAULT_EXHAUSTION_BOUND,
        );
        let OpStep::StartPropagate(chosen) = step else {
            panic!("expected propagate start, got {step:?}");
        };
        assert_eq!(
            chosen.value, 70,
            "the read propagates the newest value unchanged"
        );
        assert_eq!(chosen.tag, tag(7, 1));
        op.on_ack(pid(1), &cfg, &q);
        let done = op.on_ack(pid(2), &cfg, &q);
        let OpStep::Done(OpOutcome::ReadCommitted { value, tag: t, .. }) = done else {
            panic!("expected committed read, got {done:?}");
        };
        assert_eq!(value, Some(70));
        assert_eq!(t, Some(tag(7, 1)));
    }

    #[test]
    fn read_of_unwritten_register_completes_after_the_query_phase() {
        let cfg = config_set([0, 1, 2]);
        let q = QuorumSystem::Majority;
        let mut op = PendingOp::new(OpId::new(pid(9), 2), RegisterId::new(3), OpKind::Read);
        op.on_query_response(pid(0), None, &cfg, &q, pid(9), DEFAULT_EXHAUSTION_BOUND);
        let step = op.on_query_response(pid(2), None, &cfg, &q, pid(9), DEFAULT_EXHAUSTION_BOUND);
        assert_eq!(
            step,
            OpStep::Done(OpOutcome::ReadCommitted {
                op: OpId::new(pid(9), 2),
                key: RegisterId::new(3),
                value: None,
                tag: None,
            })
        );
    }

    #[test]
    fn duplicate_and_non_member_responses_are_ignored() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let q = QuorumSystem::Majority;
        let mut op = PendingOp::new(
            OpId::new(pid(9), 3),
            RegisterId::new(1),
            OpKind::Write { value: 1 },
        );
        // The same member answering repeatedly never forms a quorum.
        for _ in 0..10 {
            assert_eq!(
                op.on_query_response(pid(0), None, &cfg, &q, pid(9), DEFAULT_EXHAUSTION_BOUND),
                OpStep::Continue
            );
        }
        // A processor outside the configuration does not count either.
        assert_eq!(
            op.on_query_response(pid(77), None, &cfg, &q, pid(9), DEFAULT_EXHAUSTION_BOUND),
            OpStep::Continue
        );
        assert_eq!(op.unanswered(&cfg).len(), 4);
    }

    #[test]
    fn acks_before_the_propagate_phase_are_ignored() {
        let cfg = config_set([0, 1, 2]);
        let q = QuorumSystem::Majority;
        let mut op = PendingOp::new(
            OpId::new(pid(9), 4),
            RegisterId::new(1),
            OpKind::Write { value: 1 },
        );
        assert_eq!(op.on_ack(pid(0), &cfg, &q), OpStep::Continue);
        assert_eq!(op.on_ack(pid(1), &cfg, &q), OpStep::Continue);
        assert_eq!(op.phase(), OpPhase::Query);
    }

    #[test]
    fn abort_reports_the_operation() {
        let op = PendingOp::new(OpId::new(pid(9), 5), RegisterId::new(2), OpKind::Read);
        assert_eq!(
            op.abort(),
            OpOutcome::Aborted {
                op: OpId::new(pid(9), 5),
                key: RegisterId::new(2),
            }
        );
    }

    #[test]
    fn exhausted_tag_rolls_over_to_a_fresh_label() {
        let me = pid(3);
        let exhausted = tag(100, 1);
        let next = next_tag(Some(&exhausted), me, 100);
        assert_ne!(next.label, exhausted.label);
        assert!(
            exhausted.label.lb_less(&next.label),
            "the fresh label dominates"
        );
        assert_eq!(next.seqn, 1);
        assert_eq!(next.wid, me);
        // Non-exhausted tags increment in place.
        let fine = next_tag(Some(&tag(5, 1)), me, 100);
        assert_eq!(fine.seqn, 6);
        assert_eq!(fine.label, tag(5, 1).label);
        // No prior value: genesis label, first sequence number.
        let first = next_tag(None, me, 100);
        assert_eq!(first.seqn, 1);
        assert_eq!(first.wid, me);
    }

    #[test]
    fn grid_quorum_system_changes_the_completion_threshold() {
        // 2 × 2 grid over four members: a quorum needs a full row plus a
        // cover, i.e. three specific members rather than any majority.
        let cfg = config_set([0, 1, 2, 3]);
        let q = QuorumSystem::Grid { columns: 2 };
        let mut op = PendingOp::new(
            OpId::new(pid(9), 6),
            RegisterId::new(1),
            OpKind::Write { value: 9 },
        );
        op.on_query_response(pid(0), None, &cfg, &q, pid(9), DEFAULT_EXHAUSTION_BOUND);
        let step = op.on_query_response(pid(1), None, &cfg, &q, pid(9), DEFAULT_EXHAUSTION_BOUND);
        assert_eq!(
            step,
            OpStep::Continue,
            "a full row alone is not a grid quorum"
        );
        let step = op.on_query_response(pid(2), None, &cfg, &q, pid(9), DEFAULT_EXHAUSTION_BOUND);
        assert!(matches!(step, OpStep::StartPropagate(_)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use counters::DEFAULT_EXHAUSTION_BOUND;
    use proptest::prelude::*;
    use reconfig::config_set;

    proptest! {
        /// A write's tag is strictly greater than every tag reported by the
        /// query quorum — the heart of register monotonicity.
        #[test]
        fn chosen_write_tag_dominates_every_response(
            seqns in proptest::collection::vec(0u64..1000, 1..8),
            writer in 0u32..8,
        ) {
            let n = seqns.len() as u32;
            let cfg = config_set(0..n);
            let q = QuorumSystem::Majority;
            let me = ProcessId::new(100 + writer);
            let mut op = PendingOp::new(
                OpId::new(me, 0),
                RegisterId::new(0),
                OpKind::Write { value: 7 },
            );
            let mut reported = Vec::new();
            let mut propagated = None;
            for (i, seqn) in seqns.iter().enumerate() {
                let tag = Counter {
                    label: labels::Label::genesis(ProcessId::new(0)),
                    seqn: *seqn,
                    wid: ProcessId::new(i as u32),
                };
                reported.push(tag.clone());
                let step = op.on_query_response(
                    ProcessId::new(i as u32),
                    Some(TaggedValue::new(tag, *seqn)),
                    &cfg,
                    &q,
                    me,
                    DEFAULT_EXHAUSTION_BOUND,
                );
                if let OpStep::StartPropagate(chosen) = step {
                    propagated = Some(chosen);
                    break;
                }
            }
            let chosen = propagated.expect("a majority of responses must complete the query phase");
            for tag in reported {
                prop_assert!(tag.ct_less(&chosen.tag), "write tag did not dominate a response");
            }
        }
    }
}
