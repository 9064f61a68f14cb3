//! A Wing–Gong linearizability checker over recorded histories.
//!
//! [`check`] decides whether a [`History`] is linearizable against a
//! sequential specification ([`Spec`]): whether there is a total order of
//! the operations that (1) respects real time — an op that responded before
//! another was invoked comes first — and (2) is legal under the spec.
//!
//! The algorithm is the Wing & Gong depth-first search with Lowe's
//! memoized-configurations refinement: a *configuration* is the pair
//! (set of linearized ops, spec state); once a configuration is known not
//! to extend to a full linearization it is never explored again. Candidate
//! ops at each step are the *minimal* remaining ops — those no remaining
//! op precedes in real time — which is the just-in-time frontier rule.
//! Linearizability is local (Herlihy & Wing), so each object's sub-history
//! is checked independently; the search budget is shared across objects and
//! its exhaustion is a distinct inconclusive verdict, not a violation.
//!
//! [`Spec::MonotoneToken`] histories bypass the search entirely: a legal
//! sequence must order committed tokens strictly ascending, so there is
//! exactly one candidate linearization — the token sort — and the history
//! is linearizable iff the tokens are distinct and that sort respects real
//! time (no op responds before an op with a smaller token is invoked).
//! That decision is `O(k log k)` in the number of committed increments,
//! where open-loop queueing makes the general search exponential.
//!
//! Uncertain ops (no observed response — timed out, still pending, or
//! recorded adversary writes) are *optional*: they never bound the
//! real-time frontier, and the search may linearize them anywhere after
//! their invocation or not at all. Failed and uncertain reads constrain
//! nothing and are dropped before the search; failed writes stay as
//! optional ops, since an aborted effect may yet have landed.
//!
//! On failure the checker reports a minimal-violation witness: the longest
//! prefix it managed to linearize and, for each frontier candidate at the
//! deepest stuck configuration, why the spec rejected it.

use std::collections::HashSet;
use std::fmt;

use crate::history::{History, Observed, OpKind, OpOutcome, OpRecord};

/// The sequential specification of one checked object class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spec {
    /// A multi-writer multi-reader register: a read is legal iff it
    /// observes the last linearized write's value (`None` before the first
    /// write), and a write always applies. The sharedmem emulation's object.
    Register,
    /// A monotone token generator: each committed increment's token must be
    /// strictly greater than every previously linearized token — the
    /// paper's Theorem 4.6 monotonicity, with counters `⟨label, seqn, wid⟩`
    /// encoded as lexicographic `[creator, seqn, wid]` tokens.
    MonotoneToken,
}

/// The checker's verdict over one history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every object's sub-history is linearizable.
    Ok {
        /// Total ops the search considered (optional ops included).
        ops_checked: u64,
    },
    /// Some object's sub-history admits no linearization.
    Violation {
        /// Total ops the search considered before (and including) the
        /// violating object.
        ops_checked: u64,
        /// The minimal-violation witness, one line, ready for a report.
        witness: String,
    },
    /// The search budget ran out before a decision — inconclusive.
    BudgetExceeded {
        /// Total ops the search considered before giving up.
        ops_checked: u64,
        /// The object whose sub-history exhausted the budget.
        object: u64,
    },
}

/// One operation as the search sees it.
#[derive(Debug, Clone, Copy)]
struct LinOp {
    /// Index into the original history (for witness labels).
    record: usize,
    invoke: u64,
    /// `None` for optional ops: they never bound the frontier.
    response: Option<u64>,
    action: Action,
    /// Optional ops may linearize anywhere after their invocation or never.
    optional: bool,
}

/// The spec-level effect of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Write(u64),
    Read(Option<u64>),
    Inc([u64; 3]),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Write(v) => write!(f, "w({v})"),
            Action::Read(None) => write!(f, "r→⊥"),
            Action::Read(Some(v)) => write!(f, "r→{v}"),
            Action::Inc(t) => write!(f, "inc→{}.{}.{}", t[0], t[1], t[2]),
        }
    }
}

/// The memoizable spec state of a configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SpecState {
    Register(Option<u64>),
    Token(Option<[u64; 3]>),
}

impl SpecState {
    fn initial(spec: Spec) -> Self {
        match spec {
            Spec::Register => SpecState::Register(None),
            Spec::MonotoneToken => SpecState::Token(None),
        }
    }

    /// Applies `action`, returning the successor state or `None` when the
    /// spec rejects it in this state.
    fn apply(&self, action: Action) -> Option<SpecState> {
        match (self, action) {
            (SpecState::Register(_), Action::Write(v)) => Some(SpecState::Register(Some(v))),
            (SpecState::Register(held), Action::Read(observed)) => {
                (*held == observed).then(|| self.clone())
            }
            (SpecState::Token(last), Action::Inc(token)) => last
                .map_or(true, |l| l < token)
                .then_some(SpecState::Token(Some(token))),
            _ => None,
        }
    }

    /// Why `apply` rejected `action` — witness text.
    fn rejection(&self, action: Action) -> String {
        match (self, action) {
            (SpecState::Register(held), Action::Read(_)) => match held {
                None => "register unwritten".to_string(),
                Some(v) => format!("register holds {v}"),
            },
            (SpecState::Token(last), Action::Inc(_)) => match last {
                None => "no token yet".to_string(),
                Some(t) => format!("last token {}.{}.{}", t[0], t[1], t[2]),
            },
            _ => "action not in this object's spec".to_string(),
        }
    }
}

/// Projects the history's ops on `object` into search form, dropping ops
/// that constrain nothing.
fn project(history: &History, spec: Spec, object: u64) -> Vec<LinOp> {
    // Values some committed read observed: an *optional* write of any other
    // value is dead weight — it can only matter by linearizing immediately
    // before a read of its value, and removing it from a legal sequence
    // keeps every read's observation intact (no read sits in its window).
    // Partitions mass-produce uncertain writes nobody ever read; dropping
    // them keeps the search polynomial there.
    let read_values: HashSet<u64> = history
        .ops
        .iter()
        .filter(|op| op.object == object)
        .filter_map(|op| match (op.kind, op.outcome) {
            (OpKind::Read, OpOutcome::Ok(Some(Observed::Value(Some(v))))) => Some(v),
            _ => None,
        })
        .collect();
    let mut ops = Vec::new();
    for (record, op) in history.ops.iter().enumerate() {
        if op.object != object {
            continue;
        }
        let lin = match (spec, op.kind, op.outcome) {
            // A committed read observing `v` must linearize at a state
            // holding `v`.
            (Spec::Register, OpKind::Read, OpOutcome::Ok(Some(Observed::Value(v)))) => LinOp {
                record,
                invoke: op.invoke,
                response: op.response,
                action: Action::Read(v),
                optional: false,
            },
            // Failed or uncertain reads (or a read whose claim surfaced no
            // value) observed nothing and constrain nothing.
            (Spec::Register, OpKind::Read, _) => continue,
            // A committed write must linearize; a failed or uncertain one
            // may have landed anyway, so it stays as an optional op with an
            // unbounded response — unless no committed read ever observed
            // its value, in which case it constrains nothing.
            (Spec::Register, OpKind::Write(v), outcome) => {
                let committed = matches!(outcome, OpOutcome::Ok(_));
                if !committed && !read_values.contains(&v) {
                    continue;
                }
                LinOp {
                    record,
                    invoke: op.invoke,
                    response: if committed { op.response } else { None },
                    action: Action::Write(v),
                    optional: !committed,
                }
            }
            // A committed increment's token must extend the monotone order.
            (Spec::MonotoneToken, OpKind::Inc, OpOutcome::Ok(Some(Observed::Token(t)))) => LinOp {
                record,
                invoke: op.invoke,
                response: op.response,
                action: Action::Inc(t),
                optional: false,
            },
            // An increment without an observed token minted nothing a
            // client ever saw — no constraint.
            (Spec::MonotoneToken, OpKind::Inc, _) => continue,
            // Ops outside the spec's vocabulary (e.g. a register write
            // recorded against the counter object) constrain nothing.
            _ => continue,
        };
        ops.push(lin);
    }
    ops
}

/// A short label for one op in witness output.
fn op_label(op: &LinOp, record: &OpRecord) -> String {
    let response = match op.response {
        Some(r) => r.to_string(),
        None => "∞".to_string(),
    };
    format!("{}@{}–{}", op.action, record.invoke, response)
}

/// The per-object Wing–Gong search.
struct Search<'a> {
    ops: &'a [LinOp],
    history: &'a History,
    /// Remaining configuration-visit budget (shared across objects).
    budget: u64,
    visited: u64,
    memo: HashSet<(Vec<u64>, SpecState)>,
    path: Vec<usize>,
    /// Deepest stuck point seen: the linearized prefix and why each
    /// frontier candidate was rejected there.
    best_path: Vec<usize>,
    best_blocked: Vec<String>,
}

enum SearchOutcome {
    Linearizable,
    Violation(String),
    BudgetExceeded,
}

impl Search<'_> {
    /// `Some(true)` = a linearization extends this configuration,
    /// `Some(false)` = none does, `None` = budget exhausted.
    fn dfs(
        &mut self,
        done: &mut Vec<u64>,
        state: &SpecState,
        remaining_mandatory: &mut usize,
    ) -> Option<bool> {
        if *remaining_mandatory == 0 {
            // Optional ops still unlinearized simply never happened.
            return Some(true);
        }
        self.visited += 1;
        if self.visited > self.budget {
            return None;
        }
        if !self.memo.insert((done.clone(), state.clone())) {
            return Some(false);
        }
        // The real-time frontier: the earliest response among remaining
        // ops. An op may linearize next only if it was invoked before that
        // response (ties mean the response really preceded the invocation —
        // responses are claimed before the next round's submissions).
        let mut frontier = u64::MAX;
        for (i, op) in self.ops.iter().enumerate() {
            if done[i / 64] & (1 << (i % 64)) == 0 {
                if let Some(r) = op.response {
                    frontier = frontier.min(r);
                }
            }
        }
        // Candidates are explored in response order: the commit point of a
        // quorum operation sits just before its response, so the response
        // sort is the likely linearization and the greedy first descent
        // usually succeeds with little backtracking. Optional ops (no
        // response) sort last — they are only pulled in when a later read
        // needs their value.
        let mut candidates: Vec<usize> = (0..self.ops.len())
            .filter(|&i| done[i / 64] & (1 << (i % 64)) == 0 && self.ops[i].invoke < frontier)
            .collect();
        candidates.sort_by_key(|&i| (self.ops[i].response.unwrap_or(u64::MAX), self.ops[i].invoke));
        // Eager-read rule: a mandatory frontier read the spec accepts can be
        // linearized immediately *without* exploring alternatives — no
        // remaining op really-precedes a frontier candidate, and a read
        // leaves the state unchanged, so this configuration is linearizable
        // iff the one extending it with the read is. This collapses the
        // exponential choice over concurrent overlapping reads.
        let eager = candidates.iter().copied().find(|&i| {
            let op = &self.ops[i];
            !op.optional && matches!(op.action, Action::Read(_)) && state.apply(op.action).is_some()
        });
        if let Some(i) = eager {
            done[i / 64] |= 1 << (i % 64);
            *remaining_mandatory -= 1;
            self.path.push(i);
            let verdict = self.dfs(done, state, remaining_mandatory);
            self.path.pop();
            *remaining_mandatory += 1;
            done[i / 64] &= !(1 << (i % 64));
            return verdict;
        }
        let mut blocked: Vec<String> = Vec::new();
        // Witness bookkeeping is gated on being at (or past) the deepest
        // stuck point seen so far; re-checked after the children ran, since
        // a child subtree may have pushed the record deeper.
        let deepest = self.path.len() >= self.best_path.len();
        for i in candidates {
            let op = &self.ops[i];
            match state.apply(op.action) {
                Some(next_state) => {
                    done[i / 64] |= 1 << (i % 64);
                    if !op.optional {
                        *remaining_mandatory -= 1;
                    }
                    self.path.push(i);
                    let verdict = self.dfs(done, &next_state, remaining_mandatory);
                    self.path.pop();
                    if !op.optional {
                        *remaining_mandatory += 1;
                    }
                    done[i / 64] &= !(1 << (i % 64));
                    if verdict != Some(false) {
                        return verdict;
                    }
                }
                None => {
                    if deepest && !op.optional {
                        let record = &self.history.ops[op.record];
                        blocked.push(format!(
                            "{} ({})",
                            op_label(op, record),
                            state.rejection(op.action)
                        ));
                    }
                }
            }
        }
        if deepest && self.path.len() >= self.best_path.len() {
            self.best_path = self.path.clone();
            self.best_blocked = blocked;
        }
        Some(false)
    }

    /// Renders the minimal-violation witness from the deepest stuck
    /// configuration.
    fn witness(&self, object: u64) -> String {
        let mandatory = self.ops.iter().filter(|op| !op.optional).count();
        let prefix: Vec<String> = self
            .best_path
            .iter()
            .rev()
            .take(4)
            .rev()
            .map(|&i| op_label(&self.ops[i], &self.history.ops[self.ops[i].record]))
            .collect();
        let elided = self.best_path.len().saturating_sub(prefix.len());
        let shown = if elided > 0 {
            format!("… {}", prefix.join(", "))
        } else {
            prefix.join(", ")
        };
        let blocked = if self.best_blocked.is_empty() {
            "every remaining op precedes another in real time".to_string()
        } else {
            self.best_blocked
                .iter()
                .take(3)
                .cloned()
                .collect::<Vec<_>>()
                .join("; ")
        };
        format!(
            "object {object}: no linearization past {}/{} ops [{shown}]; stuck on: {blocked}",
            self.best_path.len(),
            mandatory,
        )
    }
}

/// Decides a monotone-token sub-history directly: the token sort is the
/// only candidate linearization, so the history is linearizable iff the
/// committed tokens are distinct and no op responds in real time before an
/// op carrying a smaller token is invoked. Returns the violation witness,
/// or `None` when linearizable.
fn monotone_witness(history: &History, object: u64, ops: &[LinOp]) -> Option<String> {
    let token = |op: &LinOp| match op.action {
        Action::Inc(t) => t,
        _ => unreachable!("monotone projection only keeps increments"),
    };
    let mut sorted: Vec<&LinOp> = ops.iter().collect();
    sorted.sort_by_key(|op| token(op));
    for pair in sorted.windows(2) {
        if token(pair[0]) == token(pair[1]) {
            return Some(format!(
                "object {object}: duplicate committed token: {} and {} both minted it",
                op_label(pair[0], &history.ops[pair[0].record]),
                op_label(pair[1], &history.ops[pair[1].record]),
            ));
        }
    }
    // Real time must agree with token order: scanning tokens ascending, an
    // op invoked after some larger-token op already responded is a
    // violation. Track the suffix-minimum response to find it in O(k).
    let mut suffix_min: Vec<(u64, usize)> = vec![(u64::MAX, 0); sorted.len() + 1];
    for (i, op) in sorted.iter().enumerate().rev() {
        let r = op.response.unwrap_or(u64::MAX);
        suffix_min[i] = if r < suffix_min[i + 1].0 {
            (r, i)
        } else {
            suffix_min[i + 1]
        };
    }
    for (i, op) in sorted.iter().enumerate() {
        let (resp, at) = suffix_min[i + 1];
        // A response at round r chronologically precedes an invocation at
        // round r (responses are claimed before the next round's
        // submissions), so equality is already a real-time inversion —
        // matching the search's strict frontier rule.
        if resp <= op.invoke && resp != u64::MAX {
            let earlier = sorted[at];
            return Some(format!(
                "object {object}: token order violates real time: {} responded before {} \
                 was invoked but minted the larger token",
                op_label(earlier, &history.ops[earlier.record]),
                op_label(op, &history.ops[op.record]),
            ));
        }
    }
    None
}

/// Checks `history` against `spec` with a shared search budget (maximum
/// configurations visited across all objects; monotone-token histories are
/// decided directly and never consume it). See the module docs for the
/// algorithm and the treatment of uncertain ops.
pub fn check(history: &History, spec: Spec, budget: u64) -> Verdict {
    let mut ops_checked = 0u64;
    let mut remaining_budget = budget;
    for object in history.objects() {
        let ops = project(history, spec, object);
        ops_checked += ops.len() as u64;
        if ops.is_empty() {
            continue;
        }
        if spec == Spec::MonotoneToken {
            match monotone_witness(history, object, &ops) {
                None => continue,
                Some(witness) => {
                    return Verdict::Violation {
                        ops_checked,
                        witness,
                    }
                }
            }
        }
        let mut search = Search {
            ops: &ops,
            history,
            budget: remaining_budget,
            visited: 0,
            memo: HashSet::new(),
            path: Vec::new(),
            best_path: Vec::new(),
            best_blocked: Vec::new(),
        };
        let words = ops.len().div_ceil(64).max(1);
        let mut done = vec![0u64; words];
        let mut remaining_mandatory = ops.iter().filter(|op| !op.optional).count();
        let outcome = match search.dfs(
            &mut done,
            &SpecState::initial(spec),
            &mut remaining_mandatory,
        ) {
            None => SearchOutcome::BudgetExceeded,
            Some(true) => SearchOutcome::Linearizable,
            Some(false) => SearchOutcome::Violation(search.witness(object)),
        };
        remaining_budget = remaining_budget.saturating_sub(search.visited);
        match outcome {
            SearchOutcome::Linearizable => {}
            SearchOutcome::Violation(witness) => {
                return Verdict::Violation {
                    ops_checked,
                    witness,
                }
            }
            SearchOutcome::BudgetExceeded => {
                return Verdict::BudgetExceeded {
                    ops_checked,
                    object,
                }
            }
        }
    }
    Verdict::Ok { ops_checked }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::history::ADVERSARY_CLIENT;

    fn history(ops: Vec<OpRecord>) -> History {
        History { ops }
    }

    fn op(
        object: u64,
        kind: OpKind,
        invoke: u64,
        response: Option<u64>,
        outcome: OpOutcome,
    ) -> OpRecord {
        OpRecord {
            client: 0,
            object,
            kind,
            invoke,
            response,
            outcome,
        }
    }

    fn write(object: u64, v: u64, invoke: u64, response: u64) -> OpRecord {
        op(
            object,
            OpKind::Write(v),
            invoke,
            Some(response),
            OpOutcome::Ok(None),
        )
    }

    fn read(object: u64, v: Option<u64>, invoke: u64, response: u64) -> OpRecord {
        op(
            object,
            OpKind::Read,
            invoke,
            Some(response),
            OpOutcome::Ok(Some(Observed::Value(v))),
        )
    }

    fn inc(object: u64, token: [u64; 3], invoke: u64, response: u64) -> OpRecord {
        op(
            object,
            OpKind::Inc,
            invoke,
            Some(response),
            OpOutcome::Ok(Some(Observed::Token(token))),
        )
    }

    fn assert_ok(h: &History, spec: Spec) {
        match check(h, spec, 1_000_000) {
            Verdict::Ok { .. } => {}
            other => panic!("expected linearizable, got {other:?}"),
        }
    }

    fn assert_violation(h: &History, spec: Spec, witness_contains: &str) {
        match check(h, spec, 1_000_000) {
            Verdict::Violation { witness, .. } => assert!(
                witness.contains(witness_contains),
                "witness {witness:?} does not mention {witness_contains:?}"
            ),
            other => panic!("expected a violation, got {other:?}"),
        }
    }

    // ----- register corpus ---------------------------------------------------

    #[test]
    fn sequential_register_history_linearizes() {
        let h = history(vec![
            write(1, 10, 0, 1),
            read(1, Some(10), 2, 3),
            write(1, 20, 4, 5),
            read(1, Some(20), 6, 7),
        ]);
        assert_ok(&h, Spec::Register);
    }

    #[test]
    fn empty_history_linearizes() {
        assert_ok(&history(Vec::new()), Spec::Register);
        assert_ok(&history(Vec::new()), Spec::MonotoneToken);
    }

    #[test]
    fn stale_read_is_rejected_with_a_witness() {
        // w(1) and w(2) complete in sequence; a later read observing the
        // overwritten value is the classic new-old inversion.
        let h = history(vec![
            write(1, 1, 0, 1),
            write(1, 2, 2, 3),
            read(1, Some(1), 4, 5),
        ]);
        assert_violation(&h, Spec::Register, "register holds 2");
    }

    #[test]
    fn lost_update_is_rejected() {
        // Both writes commit in sequence; the first value resurfaces after a
        // read already observed the second — no total order serves both
        // reads.
        let h = history(vec![
            write(1, 1, 0, 1),
            write(1, 2, 2, 3),
            read(1, Some(2), 4, 5),
            read(1, Some(1), 6, 7),
        ]);
        assert_violation(&h, Spec::Register, "register holds 2");
    }

    #[test]
    fn future_read_is_rejected() {
        // The read responded before the only write of its value was even
        // invoked — real time forbids the write to linearize first.
        let h = history(vec![read(1, Some(5), 0, 1), write(1, 5, 2, 3)]);
        assert_violation(&h, Spec::Register, "register unwritten");
    }

    #[test]
    fn unwritten_read_after_a_write_is_rejected() {
        let h = history(vec![write(1, 3, 0, 1), read(1, None, 2, 3)]);
        assert_violation(&h, Spec::Register, "register holds 3");
    }

    #[test]
    fn concurrent_reads_may_observe_either_side_of_a_write() {
        // The write spans rounds 0–10; one overlapping read sees the old
        // state, another the new — both linearize.
        let h = history(vec![
            write(1, 1, 0, 10),
            read(1, None, 1, 2),
            read(1, Some(1), 5, 6),
        ]);
        assert_ok(&h, Spec::Register);
    }

    #[test]
    fn failed_write_may_have_landed() {
        // The protocol reported an abort, but the effect surfaced anyway —
        // the checker must keep the failed write available as an optional
        // op.
        let h = history(vec![
            op(1, OpKind::Write(7), 0, Some(1), OpOutcome::Failed),
            read(1, Some(7), 2, 3),
        ]);
        assert_ok(&h, Spec::Register);
    }

    #[test]
    fn failed_write_need_not_have_landed() {
        let h = history(vec![
            write(1, 1, 0, 1),
            op(1, OpKind::Write(9), 2, Some(3), OpOutcome::Failed),
            read(1, Some(1), 4, 5),
        ]);
        assert_ok(&h, Spec::Register);
    }

    #[test]
    fn adversary_write_explains_a_bogus_observation() {
        // A recorded corruption effect linearizes like an uncertain write,
        // so the read observing the bogus value is not a false violation.
        let h = history(vec![
            write(1, 1, 0, 1),
            OpRecord {
                client: ADVERSARY_CLIENT,
                object: 1,
                kind: OpKind::Write(12_345),
                invoke: 2,
                response: None,
                outcome: OpOutcome::Uncertain,
            },
            read(1, Some(12_345), 4, 5),
        ]);
        assert_ok(&h, Spec::Register);
    }

    #[test]
    fn uncertain_reads_constrain_nothing() {
        // An uncertain (e.g. indeterminate or never-claimed) read observing
        // a stale value is dropped by projection instead of violating.
        let h = history(vec![
            write(1, 1, 0, 1),
            write(1, 2, 2, 3),
            op(1, OpKind::Read, 4, Some(5), OpOutcome::Uncertain),
            read(1, Some(2), 6, 7),
        ]);
        assert_ok(&h, Spec::Register);
    }

    #[test]
    fn objects_are_checked_independently() {
        // Object 5 carries the violation; object 1 is clean — the witness
        // names the right object (linearizability is local).
        let h = history(vec![
            write(1, 1, 0, 1),
            read(1, Some(1), 2, 3),
            write(5, 1, 0, 1),
            write(5, 2, 2, 3),
            read(5, Some(1), 4, 5),
        ]);
        assert_violation(&h, Spec::Register, "object 5");
    }

    #[test]
    fn budget_exhaustion_is_inconclusive_not_a_violation() {
        let h = history(vec![write(1, 1, 0, 1)]);
        match check(&h, Spec::Register, 0) {
            Verdict::BudgetExceeded { object, .. } => assert_eq!(object, 1),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    /// The eager-read rule keeps wide read concurrency tractable: dozens of
    /// overlapping reads of the same value decide within a budget linear in
    /// the op count, where branching over their orders would be factorial.
    #[test]
    fn concurrent_read_pile_decides_within_a_linear_budget() {
        let mut ops = vec![write(1, 42, 0, 1)];
        for i in 0..60 {
            ops.push(read(1, Some(42), 2, 100 + i));
        }
        let h = history(ops);
        match check(&h, Spec::Register, 200) {
            Verdict::Ok { ops_checked } => assert_eq!(ops_checked, 61),
            other => panic!("eager-read pruning regressed: {other:?}"),
        }
    }

    // ----- counter corpus ----------------------------------------------------

    #[test]
    fn ascending_tokens_linearize() {
        let h = history(vec![
            inc(0, [1, 1, 0], 0, 1),
            inc(0, [1, 2, 2], 2, 3),
            inc(0, [2, 0, 1], 4, 5),
            op(0, OpKind::Inc, 6, Some(7), OpOutcome::Failed),
        ]);
        assert_ok(&h, Spec::MonotoneToken);
    }

    #[test]
    fn concurrent_increments_linearize_in_token_order() {
        // Two overlapping increments: token order decides, either real-time
        // order is compatible.
        let h = history(vec![inc(0, [1, 2, 1], 0, 10), inc(0, [1, 1, 0], 1, 9)]);
        assert_ok(&h, Spec::MonotoneToken);
    }

    #[test]
    fn duplicate_tokens_are_rejected() {
        let h = history(vec![inc(0, [1, 5, 2], 0, 1), inc(0, [1, 5, 2], 2, 3)]);
        assert_violation(&h, Spec::MonotoneToken, "duplicate committed token");
    }

    #[test]
    fn token_order_against_real_time_is_rejected() {
        // The larger token responded before the smaller one was invoked —
        // the token sort cannot respect real time.
        let h = history(vec![inc(0, [2, 1, 0], 0, 1), inc(0, [1, 1, 0], 5, 6)]);
        assert_violation(&h, Spec::MonotoneToken, "token order violates real time");
    }

    #[test]
    fn failed_increments_hide_their_tokens() {
        // A failed increment's token was never observed; only committed
        // tokens take part in the monotone order.
        let h = history(vec![
            inc(0, [1, 1, 0], 0, 1),
            op(0, OpKind::Inc, 2, Some(3), OpOutcome::Failed),
            inc(0, [1, 2, 0], 4, 5),
        ]);
        assert_ok(&h, Spec::MonotoneToken);
    }

    #[test]
    fn monotone_fast_path_consumes_no_budget() {
        let h = history(vec![inc(0, [1, 1, 0], 0, 1), inc(0, [1, 2, 0], 2, 3)]);
        match check(&h, Spec::MonotoneToken, 0) {
            Verdict::Ok { ops_checked } => assert_eq!(ops_checked, 2),
            other => panic!("monotone path fell through to the search: {other:?}"),
        }
    }

    // ----- property tests ----------------------------------------------------

    use proptest::prelude::*;

    /// Builds a serial register history from `(object, is_write)` pairs:
    /// the ops execute one after the other against a model register file
    /// (op `k` occupies rounds `2k..2k+1`), reads observe exactly the model
    /// value, and write values are globally unique — linearizable by
    /// construction.
    fn serial_register_history(ops: &[(u64, bool)]) -> History {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut records = Vec::new();
        for (k, &(object, is_write)) in ops.iter().enumerate() {
            let invoke = 2 * k as u64;
            let response = invoke + 1;
            if is_write {
                let value = 1000 + k as u64;
                model.insert(object, value);
                records.push(write(object, value, invoke, response));
            } else {
                records.push(read(object, model.get(&object).copied(), invoke, response));
            }
        }
        history(records)
    }

    proptest! {
        /// Every serial register history linearizes: the execution order
        /// itself is a witness.
        #[test]
        fn serial_register_histories_linearize(
            ops in proptest::collection::vec((0u64..3, any::<bool>()), 0..40),
        ) {
            let h = serial_register_history(&ops);
            prop_assert!(matches!(
                check(&h, Spec::Register, 1_000_000),
                Verdict::Ok { .. }
            ));
        }

        /// Mutating one committed write's value out from under a read that
        /// observed it must flip the verdict to a violation: the read's
        /// observation no longer has a source, and writes of other values
        /// seal every state it could linearize against.
        #[test]
        fn mutating_an_observed_write_breaks_linearizability(
            prefix in 0usize..8,
        ) {
            // w(1000), …, w(1000+prefix), r→last, then one more write — the
            // read pins the mutated write's value between the writes.
            let mut ops: Vec<(u64, bool)> = (0..=prefix).map(|_| (0, true)).collect();
            ops.push((0, false));
            ops.push((0, true));
            let mut h = serial_register_history(&ops);
            // Mutate the write the read observed (index `prefix`).
            let OpKind::Write(v) = h.ops[prefix].kind else {
                panic!("expected a write at the mutation site");
            };
            h.ops[prefix].kind = OpKind::Write(v + 500_000);
            prop_assert!(matches!(
                check(&h, Spec::Register, 1_000_000),
                Verdict::Violation { .. }
            ));
        }

        /// Serial counter histories with ascending tokens linearize, and
        /// swapping any two distinct tokens breaks the real-time agreement.
        #[test]
        fn serial_token_histories_linearize_and_reject_swaps(
            len in 2usize..20,
            swap in 0usize..19,
        ) {
            let records: Vec<OpRecord> = (0..len)
                .map(|k| inc(0, [1, k as u64, 0], 2 * k as u64, 2 * k as u64 + 1))
                .collect();
            let h = history(records);
            prop_assert!(matches!(
                check(&h, Spec::MonotoneToken, 0),
                Verdict::Ok { .. }
            ));
            // Swap two adjacent tokens: the larger one now responds before
            // the smaller one is invoked.
            let i = swap % (len - 1);
            let mut swapped = h.clone();
            let (a, b) = (swapped.ops[i].outcome, swapped.ops[i + 1].outcome);
            swapped.ops[i].outcome = b;
            swapped.ops[i + 1].outcome = a;
            prop_assert!(matches!(
                check(&swapped, Spec::MonotoneToken, 0),
                Verdict::Violation { .. }
            ));
        }
    }
}
