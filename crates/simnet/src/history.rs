//! Operation-history recording for armed scenario runs.
//!
//! A scenario armed with [`crate::Scenario::with_history`] records every
//! client operation the open-loop load engine ([`crate::load`]) submits
//! through [`crate::ScenarioTarget::submit_local`] as an [`OpRecord`]: who
//! invoked what on which object, at which round, and what (if anything)
//! came back. The finished [`History`] is what the linearizability checker
//! ([`crate::linearize`]) consumes.
//!
//! The recording model is Jepsen-style:
//!
//! * a **completed** op has both an invoke and a response round, and its
//!   [`OpOutcome`] says whether the protocol committed or aborted it;
//! * an op that never produced a response within the run — timed out and
//!   never claimed, or still pending at the end — is **uncertain**
//!   ([`OpOutcome::Uncertain`]): its effect may or may not have taken place,
//!   so the checker lets it linearize anywhere after its invocation *or
//!   never*;
//! * a completion the service itself disclaims — served under a
//!   **collapsed** configuration installed by the majority-loss recovery
//!   path, which the paper lets trade atomicity for liveness — is resolved
//!   as uncertain too ([`OpResponse::indeterminate`]): the client saw a
//!   response, but the service never promised it an ordered one;
//! * a transient state corruption with client-visible effects (e.g. the
//!   sharedmem adversary installing a bogus register value under a
//!   dominating tag) is recorded as an **adversary write**: an uncertain
//!   write by the reserved client [`ADVERSARY_CLIENT`], invoked at the
//!   corruption round. Reads that observe the bogus value then linearize
//!   against it instead of tripping a false violation. Targets report these
//!   effects through [`crate::ScenarioTarget::corrupt`].
//!
//! Recording is strictly opt-in: an unarmed run never constructs a
//! recorder, calls the exact same target hooks as before, and produces a
//! byte-identical report.

use std::collections::BTreeSet;

/// The synthetic client identifier adversary writes are attributed to.
pub const ADVERSARY_CLIENT: u64 = u64::MAX;

/// What a recorded client operation does, as declared by
/// [`crate::ScenarioTarget::op_spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read the object's value.
    Read,
    /// Write the given value to the object.
    Write(u64),
    /// Increment the object (a counter), minting the next token.
    Inc,
}

/// A value observed at an operation's response, surfaced by
/// [`crate::ScenarioTarget::claim_local`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// A register read's result; `None` means the register was observed
    /// unwritten.
    Value(Option<u64>),
    /// A committed counter token, ordered lexicographically. The sharedmem
    /// paper's counter `⟨label, seqn, wid⟩` maps onto
    /// `[label.creator, seqn, wid]`: creators totally order distinct labels
    /// under `≺lb`, and a creator mints at most one label per run short of
    /// sequence-number exhaustion (bound 2⁶³).
    Token([u64; 3]),
}

/// An operation's response as the target reports it through
/// [`crate::ScenarioTarget::claim_local`]: the success bit, plus the
/// observed value (for reads and increments) that armed runs record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResponse {
    /// `true` when the protocol committed the operation.
    pub ok: bool,
    /// What the operation observed, when its kind observes anything.
    pub observed: Option<Observed>,
    /// `true` when the service itself disclaims atomicity for this
    /// completion — it was served under a *collapsed* configuration (one
    /// installed by the majority-loss recovery path, holding no majority of
    /// the population), where the paper trades safety for liveness. The
    /// recorder classifies such ops [`OpOutcome::Uncertain`]: their effect
    /// is real but unordered, exactly like a response that never arrived.
    pub indeterminate: bool,
}

/// How a recorded operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// Committed; reads and increments carry what they observed.
    Ok(Option<Observed>),
    /// The protocol reported a failure (abort). Failed *writes* are still
    /// treated as uncertain by the checker — an aborted effect may yet have
    /// landed — while failed reads constrain nothing and are dropped.
    Failed,
    /// No response was observed within the run (timed out unclaimed, still
    /// pending at the end, or an adversary write).
    Uncertain,
}

/// One recorded client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The logical client that invoked the op ([`ADVERSARY_CLIENT`] for
    /// recorded corruption effects).
    pub client: u64,
    /// The object the op targets (register identifier; 0 for the counter).
    pub object: u64,
    /// What the op does.
    pub kind: OpKind,
    /// The round the op was submitted in.
    pub invoke: u64,
    /// The round the response was claimed in; `None` when no response was
    /// ever observed. A timed-out op that completes late records its real
    /// (late) response round.
    pub response: Option<u64>,
    /// How the op ended.
    pub outcome: OpOutcome,
}

/// A complete recorded history of one scenario run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// Every recorded op, in invocation order.
    pub ops: Vec<OpRecord>,
}

impl History {
    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The distinct objects the history touches, in ascending order.
    /// Linearizability is local (composable), so the checker verifies each
    /// object's sub-history independently.
    pub fn objects(&self) -> BTreeSet<u64> {
        self.ops.iter().map(|op| op.object).collect()
    }
}

/// Accumulates [`OpRecord`]s during an armed run: the load engine invokes
/// ops as it submits them and resolves them as it claims responses;
/// unresolved ops surface as [`OpOutcome::Uncertain`].
#[derive(Debug, Clone, Default)]
pub struct HistoryRecorder {
    ops: Vec<OpRecord>,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an invocation, returning the op's index for later
    /// resolution.
    pub fn invoke(&mut self, client: u64, object: u64, kind: OpKind, round: u64) -> usize {
        self.ops.push(OpRecord {
            client,
            object,
            kind,
            invoke: round,
            response: None,
            outcome: OpOutcome::Uncertain,
        });
        self.ops.len() - 1
    }

    /// Resolves op `idx` with the response claimed at `round`. An
    /// indeterminate response — one the service completed under a collapsed
    /// configuration — resolves to [`OpOutcome::Uncertain`]: the response
    /// round is still recorded, but the checker treats the op as optional
    /// and discards whatever it observed.
    pub fn resolve(&mut self, idx: usize, round: u64, response: OpResponse) {
        let op = &mut self.ops[idx];
        op.response = Some(round);
        op.outcome = if response.indeterminate {
            OpOutcome::Uncertain
        } else if response.ok {
            OpOutcome::Ok(response.observed)
        } else {
            OpOutcome::Failed
        };
    }

    /// Records a client-visible corruption effect: an uncertain write of
    /// `value` to `object` by the adversary, invoked at `round`.
    pub fn adversary_write(&mut self, object: u64, value: u64, round: u64) {
        self.ops.push(OpRecord {
            client: ADVERSARY_CLIENT,
            object,
            kind: OpKind::Write(value),
            invoke: round,
            response: None,
            outcome: OpOutcome::Uncertain,
        });
    }

    /// Finishes recording; ops never resolved stay uncertain.
    pub fn into_history(self) -> History {
        History { ops: self.ops }
    }
}

/// Configuration of an armed history run: how long the runner keeps
/// probing convergence after it first holds, and the linearizability
/// checker's search budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryCfg {
    /// Rounds the runner keeps executing after first convergence,
    /// re-evaluating the convergence predicate each round: the
    /// *eventually-stays-converged* probe window. Every converged →
    /// unconverged transition inside it counts into the
    /// `stability_violations` counter and fails the run.
    pub probe_rounds: u64,
    /// Maximum number of search configurations the linearizability checker
    /// may visit per run (shared across the run's objects). Exhaustion is
    /// the distinct verdict `lin_result = 2`, not a violation.
    pub lin_budget: u64,
}

impl Default for HistoryCfg {
    fn default() -> Self {
        HistoryCfg {
            probe_rounds: 64,
            lin_budget: 500_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_round_trips_invoke_and_resolve() {
        let mut rec = HistoryRecorder::new();
        let a = rec.invoke(7, 1, OpKind::Write(5), 3);
        let b = rec.invoke(8, 1, OpKind::Read, 4);
        rec.resolve(
            a,
            9,
            OpResponse {
                ok: true,
                observed: None,
                indeterminate: false,
            },
        );
        rec.resolve(
            b,
            10,
            OpResponse {
                ok: true,
                observed: Some(Observed::Value(Some(5))),
                indeterminate: false,
            },
        );
        let unresolved = rec.invoke(9, 2, OpKind::Read, 11);
        let history = rec.into_history();
        assert_eq!(history.len(), 3);
        assert_eq!(history.ops[a].response, Some(9));
        assert_eq!(history.ops[a].outcome, OpOutcome::Ok(None));
        assert_eq!(
            history.ops[b].outcome,
            OpOutcome::Ok(Some(Observed::Value(Some(5))))
        );
        assert_eq!(history.ops[unresolved].outcome, OpOutcome::Uncertain);
        assert_eq!(history.objects().into_iter().collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn adversary_writes_are_uncertain_writes_by_the_reserved_client() {
        let mut rec = HistoryRecorder::new();
        rec.adversary_write(3, 12_345, 40);
        let history = rec.into_history();
        let op = &history.ops[0];
        assert_eq!(op.client, ADVERSARY_CLIENT);
        assert_eq!(op.kind, OpKind::Write(12_345));
        assert_eq!(op.invoke, 40);
        assert_eq!(op.response, None);
        assert_eq!(op.outcome, OpOutcome::Uncertain);
    }

    #[test]
    fn failed_ops_resolve_as_failed() {
        let mut rec = HistoryRecorder::new();
        let a = rec.invoke(1, 0, OpKind::Inc, 5);
        rec.resolve(
            a,
            8,
            OpResponse {
                ok: false,
                observed: None,
                indeterminate: false,
            },
        );
        assert_eq!(rec.into_history().ops[a].outcome, OpOutcome::Failed);
    }

    /// A committed response the service disclaims (served under a collapsed
    /// configuration) resolves as uncertain, response round kept.
    #[test]
    fn indeterminate_responses_resolve_as_uncertain() {
        let mut rec = HistoryRecorder::new();
        let a = rec.invoke(1, 2, OpKind::Read, 5);
        rec.resolve(
            a,
            9,
            OpResponse {
                ok: true,
                observed: Some(Observed::Value(Some(7))),
                indeterminate: true,
            },
        );
        let op = &rec.into_history().ops[a];
        assert_eq!(op.outcome, OpOutcome::Uncertain);
        assert_eq!(op.response, Some(9));
    }
}
