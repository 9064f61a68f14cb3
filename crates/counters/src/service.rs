//! The counter increment service (Algorithms 4.3, 4.4 and 4.5).
//!
//! Configuration members maintain the globally maximal counter by gossiping
//! it alongside the labeling algorithm (Algorithm 4.3). An increment — by a
//! member (Algorithm 4.4) or by any other participant (Algorithm 4.5) — is a
//! two-phase quorum operation, in the spirit of MWMR register writes:
//!
//! 1. **majority read** — query every member for the counter it considers
//!    maximal and wait for replies from a majority;
//! 2. **majority write** — increment the largest legit, non-exhausted
//!    counter obtained (breaking ties with the writer identifier) and push
//!    the new value back to a majority of the members.
//!
//! The intersection property of majorities guarantees that the new counter is
//! at least as large as any previously completed increment, which yields the
//! monotonicity of Theorem 4.6. Requests received during a reconfiguration
//! are answered with `Abort`, and exhausted counters are cancelled by moving
//! to a fresh maximal label.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use labels::{Labeler, LabelerMsg};
use reconfig::{ConfigSet, ReconfigNode};
use simnet::stack::{Layer, Sink};
use simnet::ProcessId;

use crate::counter::{Counter, DEFAULT_EXHAUSTION_BOUND};

simnet::wire_enum! {
    /// The two-phase quorum messages of an increment operation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum QuorumMsg {
        /// `majRead` query.
        ReadRequest {
            /// Operation identifier, local to the requester.
            op: u64,
        },
        /// Reply to a read: the member's maximal counter, or an abort.
        ReadReply {
            /// Operation identifier echoed back.
            op: u64,
            /// The member's maximal counter (`None` when it has none yet).
            counter: Option<Counter>,
            /// `true` when the member is reconfiguring and aborts the operation.
            abort: bool,
        },
        /// `majWrite` of a freshly incremented counter.
        WriteRequest {
            /// Operation identifier.
            op: u64,
            /// The counter to install.
            counter: Counter,
        },
        /// Acknowledgement of a write, or an abort.
        WriteAck {
            /// Operation identifier echoed back.
            op: u64,
            /// `true` when the member aborted the write.
            abort: bool,
        },
    }
}

simnet::wire_enum! {
    /// Messages of the counter service: the wire format of the counter
    /// stack. The labeling algorithm of the `labels` crate is a sub-layer of
    /// this service (Algorithm 4.3 runs it alongside the counter gossip), so
    /// its traffic travels in its own lane rather than being folded away.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum CounterMsg {
        /// Member-to-member gossip of the locally maximal counter (Alg. 4.3).
        Sync(Counter),
        /// Label exchange of the underlying labeling algorithm (Alg. 4.1).
        Label(LabelerMsg),
        /// Two-phase quorum traffic of increment operations (Alg. 4.4/4.5).
        Quorum(QuorumMsg),
    }
}

/// Outcome of a completed increment attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrementOutcome {
    /// The increment completed; this is the counter that was written.
    Committed(Counter),
    /// The operation was aborted (reconfiguration in progress or no usable
    /// counter could be obtained).
    Aborted,
}

#[derive(Debug, Clone)]
enum PendingPhase {
    Read {
        replies: BTreeMap<ProcessId, Option<Counter>>,
    },
    Write {
        counter: Counter,
        acks: BTreeSet<ProcessId>,
    },
}

#[derive(Debug, Clone)]
struct Pending {
    op: u64,
    phase: PendingPhase,
}

/// The per-processor state of the counter service.
///
/// Every processor (member or not) can request increments; only members
/// answer quorum operations and maintain the maximal counter.
#[derive(Debug, Clone)]
pub struct CounterNode {
    me: ProcessId,
    /// Also the service's configuration: [`Labeler::config`] and its member
    /// index are the only copy.
    labeler: Labeler,
    max_counter: Option<Counter>,
    exhaustion_bound: u64,
    /// Set by the owner while recSA reports a reconfiguration in progress;
    /// quorum requests are aborted during that time.
    reconfiguring: bool,
    next_op: u64,
    pending: Option<Pending>,
    /// Rounds the current pending operation has been in flight; operations
    /// that outlive [`CounterNode::op_timeout`] abort so that lost quorum
    /// requests (partitions, message storms) cannot wedge the requester.
    pending_age: u64,
    op_timeout: u64,
    /// Increments requested through [`CounterNode::queue_increment`], started
    /// one at a time from the periodic step.
    queued_increments: u64,
    completed: VecDeque<IncrementOutcome>,
    /// Reusable audience buffer for the periodic gossip broadcast; cleared
    /// and refilled every step so the steady state allocates nothing here.
    gossip_scratch: Vec<ProcessId>,
}

/// Default number of periodic steps a pending quorum operation may wait for
/// its majority before aborting. Chosen well above any healthy round trip so
/// timeouts fire only when requests or replies were actually lost (e.g. to a
/// partition), which would otherwise leave the operation in flight forever —
/// the chaos campaigns flushed this out via wedged view elections in the SMR
/// stack after a heal.
pub const DEFAULT_OP_TIMEOUT: u64 = 32;

impl CounterNode {
    /// Creates the counter service state for `me` under configuration
    /// `config`.
    pub fn new(me: ProcessId, config: ConfigSet) -> Self {
        CounterNode {
            me,
            labeler: Labeler::new(me, config),
            max_counter: None,
            exhaustion_bound: DEFAULT_EXHAUSTION_BOUND,
            reconfiguring: false,
            next_op: 0,
            pending: None,
            pending_age: 0,
            op_timeout: DEFAULT_OP_TIMEOUT,
            queued_increments: 0,
            completed: VecDeque::new(),
            gossip_scratch: Vec::new(),
        }
    }

    /// Lowers the exhaustion bound (tests use this to force label rollover).
    pub fn with_exhaustion_bound(mut self, bound: u64) -> Self {
        self.exhaustion_bound = bound.max(1);
        self
    }

    /// Overrides the pending-operation timeout, in periodic steps (builder
    /// style).
    pub fn with_op_timeout(mut self, steps: u64) -> Self {
        self.op_timeout = steps.max(1);
        self
    }

    /// Queues an increment to be started from the next periodic step at
    /// which no other operation is in flight (the live runtime starts it
    /// sooner, through `ScenarioTarget::start_local`). Unlike
    /// [`CounterNode::request_increment`] this needs no sink, so simulation
    /// harnesses (and the chaos workload driver) can request increments
    /// from outside a step.
    pub fn queue_increment(&mut self) {
        self.queued_increments += 1;
    }

    /// Number of queued increments not yet started.
    pub fn queued_increments(&self) -> u64 {
        self.queued_increments
    }

    /// Returns `true` when this processor is a configuration member.
    pub fn is_member(&self) -> bool {
        self.labeler.is_member()
    }

    /// The configuration this service currently works against.
    pub fn config(&self) -> &ConfigSet {
        self.labeler.config()
    }

    /// The counter this processor currently believes to be maximal.
    pub fn max_counter(&self) -> Option<&Counter> {
        self.max_counter.as_ref()
    }

    /// Observes a counter circulating outside the service (e.g. a view
    /// identifier held by a replication layer). Members fold it into their
    /// maximum so freshly incremented counters always dominate every value
    /// still in circulation — without this, a label epoch that survives
    /// only inside an embedder's state (say, after a configuration change
    /// rebuilt the labeler) would make new counters incomparable to old
    /// ones forever. Counters with non-member labels are ignored, exactly
    /// like gossiped ones.
    pub fn observe(&mut self, counter: &Counter) {
        if self.is_member() {
            self.adopt(counter);
        }
    }

    /// Outcomes of increment operations that finished since the last call.
    pub fn take_completed(&mut self) -> Vec<IncrementOutcome> {
        std::mem::take(&mut self.completed).into()
    }

    /// Tells the service whether a reconfiguration is currently taking place
    /// (members abort quorum operations while it is).
    pub fn set_reconfiguring(&mut self, reconfiguring: bool) {
        self.reconfiguring = reconfiguring;
    }

    /// Handles a completed reconfiguration: the labeling structures are
    /// rebuilt and counters whose label was created by a non-member are
    /// discarded.
    pub fn on_config_change(&mut self, new_config: ConfigSet) {
        self.labeler.on_config_change(new_config);
        if let Some(c) = &self.max_counter {
            if !self.labeler.has_member(c.label.creator) {
                self.max_counter = None;
            }
        }
        // An operation driven against the old configuration is void; tell
        // the requester instead of dropping it silently (embedders such as
        // the SMR view election wait for an outcome).
        if self.pending.take().is_some() {
            self.completed.push_back(IncrementOutcome::Aborted);
        }
    }

    /// Follows the reconfiguration scheme below, once per step: adopts a
    /// differing installed configuration ([`CounterNode::on_config_change`];
    /// a counter stuck on an old member set waits for a majority that never
    /// answers, an endless elect-and-abort loop of SMR views in the chaos
    /// campaigns) and aborts quorum requests while `noReco()` is false.
    pub fn follow_reconfig(&mut self, reconfig: &ReconfigNode) {
        if let Some(cfg) = reconfig.installed_config_ref() {
            if self.config() != cfg {
                self.on_config_change(cfg.clone());
            }
        }
        self.set_reconfiguring(!reconfig.no_reconfiguration());
    }

    /// Starts an increment, sending its read phase to every member through
    /// `out` (nothing when another increment is already in flight).
    pub fn request_increment(&mut self, out: &mut impl Sink<CounterMsg>) {
        if self.pending.is_some() {
            return;
        }
        let op = self.next_op;
        self.next_op += 1;
        self.pending_age = 0;
        self.pending = Some(Pending {
            op,
            phase: PendingPhase::Read {
                replies: BTreeMap::new(),
            },
        });
        for m in self.config().iter().copied() {
            out.push(m, QuorumMsg::ReadRequest { op });
        }
    }

    /// Starts one queued increment when the slot is free and no
    /// reconfiguration is in progress, sending its read phase to every
    /// member. The single definition of when a queued increment may start,
    /// shared by the periodic step and the live runtime's
    /// [`start_local`](simnet::ScenarioTarget::start_local) hook.
    fn start_queued_increment(&mut self, out: &mut impl Sink<CounterMsg>) {
        if self.queued_increments > 0 && self.pending.is_none() && !self.reconfiguring {
            self.queued_increments -= 1;
            self.request_increment(out);
        }
    }

    /// Returns `true` while an increment operation is in flight.
    pub fn increment_in_flight(&self) -> bool {
        self.pending.is_some()
    }

    /// Makes sure a maximal counter exists and its label is legit; creates or
    /// rolls over the label when needed.
    fn refresh_max_label(&mut self) {
        if !self.is_member() {
            return;
        }
        match &self.max_counter {
            None => {
                if let Some(label) = self.labeler.local_max() {
                    self.max_counter = Some(Counter::zero(label, self.me));
                }
            }
            Some(c) => {
                let exhausted = c.is_exhausted(self.exhaustion_bound);
                let stale_creator = !self.labeler.has_member(c.label.creator);
                if exhausted || stale_creator {
                    // Cancel the unusable epoch by moving to a label that
                    // dominates every label known locally (the labeler has
                    // observed the current counter's label when it was
                    // adopted, so the fresh label supersedes it).
                    if let Some(label) = self.labeler.create_next_label() {
                        self.max_counter = Some(Counter::zero(label, self.me));
                    }
                }
            }
        }
    }

    /// Folds `counter` into the maximum ([`Counter::max`], the existing
    /// maximum preferred), cloning it only when it wins.
    fn adopt(&mut self, counter: &Counter) {
        if !self.labeler.has_member(counter.label.creator) {
            return;
        }
        self.labeler.observe_label(&counter.label);
        let wins = self
            .max_counter
            .as_ref()
            .map_or(true, |max| max.ct_less(counter));
        if wins {
            self.max_counter = Some(counter.clone());
        }
    }

    /// Handles one two-phase quorum message (Algorithms 4.4/4.5).
    fn handle_quorum(&mut self, from: ProcessId, msg: &QuorumMsg, out: &mut impl Sink<CounterMsg>) {
        match *msg {
            QuorumMsg::ReadRequest { op } => {
                if !self.is_member() {
                    return;
                }
                if self.reconfiguring {
                    out.push(
                        from,
                        QuorumMsg::ReadReply {
                            op,
                            counter: None,
                            abort: true,
                        },
                    );
                    return;
                }
                self.refresh_max_label();
                out.push(
                    from,
                    QuorumMsg::ReadReply {
                        op,
                        counter: self.max_counter.clone(),
                        abort: false,
                    },
                );
            }
            QuorumMsg::ReadReply {
                op,
                ref counter,
                abort,
            } => {
                self.handle_read_reply(from, op, counter, abort, out);
            }
            QuorumMsg::WriteRequest { op, ref counter } => {
                if !self.is_member() {
                    return;
                }
                if self.reconfiguring {
                    out.push(from, QuorumMsg::WriteAck { op, abort: true });
                    return;
                }
                self.adopt(counter);
                out.push(from, QuorumMsg::WriteAck { op, abort: false });
            }
            QuorumMsg::WriteAck { op, abort } => {
                self.handle_write_ack(from, op, abort);
            }
        }
    }

    fn majority(&self) -> usize {
        self.config().len() / 2 + 1
    }

    fn handle_read_reply(
        &mut self,
        from: ProcessId,
        op: u64,
        counter: &Option<Counter>,
        abort: bool,
        out: &mut impl Sink<CounterMsg>,
    ) {
        // Only members' replies count toward a majority of the
        // configuration (a ghost could otherwise complete the read phase).
        if !self.labeler.has_member(from) {
            return;
        }
        // Take the pending operation out to avoid overlapping borrows; it is
        // reinstated below unless the operation finishes or aborts.
        let Some(mut pending) = self.pending.take() else {
            return;
        };
        if pending.op != op {
            self.pending = Some(pending);
            return;
        }
        if abort {
            self.completed.push_back(IncrementOutcome::Aborted);
            return;
        }
        let PendingPhase::Read { replies } = &mut pending.phase else {
            self.pending = Some(pending);
            return;
        };
        replies.insert(from, counter.clone());
        if replies.len() < self.majority() {
            self.pending = Some(pending);
            return;
        }
        // Majority collected: pick the largest usable counter.
        let mut best: Option<Counter> = if self.is_member() {
            self.max_counter.clone()
        } else {
            None
        };
        for c in replies.values().flatten() {
            let candidate = c.clone();
            best = Some(match best {
                None => candidate,
                Some(b) => b.max(candidate),
            });
            // Make sure any label learned through the replies is known to
            // the labeler, so a rollover label created below dominates it.
            self.labeler.observe_label(&c.label);
        }
        let base = match best {
            Some(c) if !c.is_exhausted(self.exhaustion_bound) => c,
            Some(_) if self.is_member() => {
                // Members roll over to a fresh maximal label (Algorithm 4.4).
                match self.labeler.create_next_label() {
                    Some(label) => Counter::zero(label, self.me),
                    None => {
                        self.completed.push_back(IncrementOutcome::Aborted);
                        return;
                    }
                }
            }
            _ => {
                // Non-members abort when no legit, non-exhausted counter is
                // available (Algorithm 4.5 returns ⊥).
                self.completed.push_back(IncrementOutcome::Aborted);
                return;
            }
        };
        let new_counter = base.incremented(self.me);
        pending.phase = PendingPhase::Write {
            counter: new_counter.clone(),
            acks: BTreeSet::new(),
        };
        self.pending = Some(pending);
        for m in self.config().iter().copied() {
            let counter = new_counter.clone();
            out.push(m, QuorumMsg::WriteRequest { op, counter });
        }
    }

    fn handle_write_ack(&mut self, from: ProcessId, op: u64, abort: bool) {
        // As for read replies: only members' acknowledgements count.
        if !self.labeler.has_member(from) {
            return;
        }
        let majority = self.majority();
        let Some(mut pending) = self.pending.take() else {
            return;
        };
        if pending.op != op {
            self.pending = Some(pending);
            return;
        }
        if abort {
            self.completed.push_back(IncrementOutcome::Aborted);
            return;
        }
        let PendingPhase::Write { counter, acks } = &mut pending.phase else {
            self.pending = Some(pending);
            return;
        };
        acks.insert(from);
        if acks.len() >= majority {
            let committed = counter.clone();
            self.adopt(&committed);
            self.completed
                .push_back(IncrementOutcome::Committed(committed));
        } else {
            self.pending = Some(pending);
        }
    }
}

impl Layer for CounterNode {
    type Wire = CounterMsg;

    /// Members gossip their maximal counter and drive the label exchange;
    /// `peers` is ignored because all counter traffic targets configuration
    /// members.
    fn poll<O: Sink<CounterMsg>>(&mut self, _peers: &[ProcessId], out: &mut O) {
        // Age the pending quorum operation; abort it once it outlives the
        // timeout (its requests or replies were lost — e.g. to a partition —
        // and are never retransmitted).
        if self.pending.is_some() {
            self.pending_age += 1;
            if self.pending_age > self.op_timeout {
                self.pending = None;
                self.pending_age = 0;
                self.completed.push_back(IncrementOutcome::Aborted);
            }
        }
        self.start_queued_increment(out);
        if self.is_member() && !self.reconfiguring {
            // Drive the labeling algorithm (Algorithm 4.1 runs alongside the
            // counter gossip) and make sure the maximal counter lives in the
            // current maximal label.
            self.labeler.step(&mut out.nest());
            self.refresh_max_label();
            if let Some(c) = self.max_counter.clone() {
                // Gossip is a true broadcast (the same counter to every other
                // member), so fan one shared payload out instead of a packet
                // per peer. The scratch buffer keeps the steady state free
                // of audience allocations.
                let mut audience = std::mem::take(&mut self.gossip_scratch);
                audience.clear();
                audience.extend(self.config().iter().copied().filter(|m| *m != self.me));
                out.push_to_all(&audience, c);
                self.gossip_scratch = audience;
            }
        }
    }

    fn handle<O: Sink<CounterMsg>>(&mut self, from: ProcessId, msg: &CounterMsg, out: &mut O) {
        match msg {
            CounterMsg::Sync(c) => {
                if self.is_member() && !self.reconfiguring {
                    self.adopt(c);
                }
            }
            CounterMsg::Label(m) => {
                if !self.reconfiguring {
                    self.labeler.on_message(from, m);
                }
            }
            CounterMsg::Quorum(q) => self.handle_quorum(from, q, out),
        }
    }
}

simnet::impl_process_for_layer!(CounterNode);

impl simnet::ScenarioTarget for CounterNode {
    const NAME: &'static str = "counter";

    /// The initial population is the configuration `{0..n}`; every member
    /// runs the labeling algorithm and the counter gossip.
    fn spawn_initial(id: ProcessId, n: usize) -> Self {
        CounterNode::new(id, reconfig::config_set(0..n as u32))
    }

    /// Joiners are clients of the fixed configuration: they invoke
    /// increments through the two-phase quorum path (Algorithm 4.5) without
    /// serving it.
    fn spawn_joiner(id: ProcessId, n: usize) -> Self {
        CounterNode::new(id, reconfig::config_set(0..n as u32))
    }

    /// Transient faults either erase the local maximal counter (state loss —
    /// gossip refills it) or jump it forward a few increments (the jumped
    /// value simply becomes the new maximum everyone adopts). Both states
    /// wash out through the `max`-merge gossip of Algorithm 4.3.
    fn corrupt(&mut self, rng: &mut simnet::SimRng) -> Vec<(u64, u64)> {
        if rng.chance(0.5) {
            self.max_counter = None;
        } else if let Some(c) = self.max_counter.take() {
            let mut jumped = c;
            for _ in 0..rng.range_inclusive(1, 4) {
                jumped = jumped.incremented(self.me);
            }
            self.max_counter = Some(jumped);
        }
        // An in-flight operation's bookkeeping is part of the corrupted
        // state; the requester recovers through the operation timeout.
        self.pending = None;
        self.pending_age = 0;
        Vec::new()
    }

    /// In-flight payload corruption: gossiped counters jump forward a few
    /// increments under their existing (legit) label — the corrupted value
    /// simply becomes the maximum the `max`-merge gossip converges on, just
    /// like local-state corruption. Label and quorum traffic keeps the
    /// sender-misattributed payload the corruption plan shuffled in; the
    /// labeling algorithm is built to cancel adversarial labels and the
    /// two-phase protocol discards replies for unknown operations.
    fn corrupt_payload(msg: &mut CounterMsg, rng: &mut simnet::SimRng) -> bool {
        if let CounterMsg::Sync(c) = msg {
            if rng.chance(0.5) {
                let mut jumped = c.clone();
                for _ in 0..rng.range_inclusive(1, 3) {
                    jumped = jumped.incremented(jumped.wid);
                }
                *msg = CounterMsg::Sync(jumped);
                return true;
            }
        }
        false
    }

    /// Byzantine forging. A forged-sender packet echoes the target's own
    /// maximal counter back at it under the claimed (possibly ghost)
    /// sender — a liveness witness with no information content, like a
    /// crafted heartbeat. Stale state is the label-equivocation attack the
    /// counter service must absorb: a gossiped counter jumped a few
    /// increments ahead under an *existing legit* label, claiming a writer
    /// that never produced it; the `max`-merge gossip converges on it like
    /// any transiently corrupted maximum (Theorem 4.6's wash-out), while a
    /// counter under an illegit label would trip the member-label
    /// invariant.
    fn forge_payload(
        forge: simnet::ForgeKind,
        _claimed_sender: ProcessId,
        target: ProcessId,
        sim: &simnet::Simulation<Self>,
        rng: &mut simnet::SimRng,
    ) -> Option<CounterMsg> {
        match forge {
            simnet::ForgeKind::ForgedSender => sim
                .process(target)
                .and_then(|p| p.max_counter().cloned())
                .map(CounterMsg::Sync),
            simnet::ForgeKind::StaleState => {
                let base = sim.active_processes().find_map(|(_, p)| {
                    if p.is_member() {
                        p.max_counter().cloned()
                    } else {
                        None
                    }
                })?;
                let mut jumped = base;
                for _ in 0..rng.range_inclusive(1, 3) {
                    jumped = jumped.incremented(jumped.wid);
                }
                Some(CounterMsg::Sync(jumped))
            }
            simnet::ForgeKind::Replay => None,
        }
    }

    /// A trickle of increment requests from arbitrary active processors
    /// (members *and* clients — Algorithms 4.4 and 4.5).
    fn drive_workload(
        sim: &mut simnet::Simulation<Self>,
        round: simnet::Round,
        rng: &mut simnet::SimRng,
    ) {
        if round.as_u64() % 4 != 2 {
            return;
        }
        let actives = sim.active_ids();
        if let Some(i) = rng.index(actives.len()) {
            if let Some(node) = sim.process_mut(actives[i]) {
                node.queue_increment();
            }
        }
    }

    /// Open-loop client load: each op is one increment queued at this node
    /// (clients may submit through members *and* non-members — the paper's
    /// client path), completing with the queued increment's outcome.
    fn submit_local(&mut self, _key: u64, _value: u64) -> bool {
        self.queue_increment();
        true
    }

    /// Claims the oldest increment outcome, surfacing the committed counter
    /// as a lexicographic `[creator, seqn, wid]` token: creators totally
    /// order distinct labels under `≺lb`, and a creator mints at most one
    /// label per 2⁶³ increments, so counter order (Algorithm 4.3's `≺ct`)
    /// embeds into token order for every pair a run can actually produce.
    fn claim_local(&mut self) -> Option<simnet::OpResponse> {
        Some(match self.completed.pop_front()? {
            IncrementOutcome::Committed(c) => simnet::OpResponse {
                ok: true,
                observed: Some(simnet::Observed::Token([
                    c.label.creator.as_u32() as u64,
                    c.seqn,
                    c.wid.as_u32() as u64,
                ])),
                indeterminate: false,
            },
            IncrementOutcome::Aborted => simnet::OpResponse {
                ok: false,
                observed: None,
                indeterminate: false,
            },
        })
    }

    /// Starts a queued increment between periodic steps, under exactly the
    /// guard the periodic step applies (`start_queued_increment`, which
    /// both call); a pending increment is neither aged nor resent.
    fn start_local(&mut self, ctx: &mut simnet::Context<'_, CounterMsg>) {
        self.start_queued_increment(ctx);
    }

    /// No in-flight or queued work, and (for members) a maximal counter to
    /// agree on.
    fn settled(&self) -> bool {
        self.pending.is_none()
            && self.queued_increments == 0
            && (!self.is_member() || self.max_counter.is_some())
    }

    type State<'a> = &'a Counter;

    /// A member's maximal counter, label and all; non-members abstain, so
    /// clients never block agreement.
    fn agreement(&self) -> simnet::Agreement<'_, &Counter> {
        simnet::Agreement {
            config: None,
            state: self.max_counter.as_ref().filter(|_| self.is_member()),
        }
    }

    /// Every load op is an increment of the single shared counter
    /// (object 0), regardless of key and value.
    fn op_spec(_key: u64, _value: u64) -> Option<(u64, simnet::OpKind)> {
        Some((0, simnet::OpKind::Inc))
    }

    /// Committed increments must mint strictly increasing tokens — the
    /// paper's Theorem 4.6 monotonicity, checked as a sequential spec.
    fn lin_spec() -> Option<simnet::Spec> {
        Some(simnet::Spec::MonotoneToken)
    }

    /// Safety: a member's maximal counter must carry a *legit* label — one
    /// created by a configuration member (Theorem 4.6's precondition).
    /// Corruption can violate this transiently; the gossip must wash it out.
    fn invariant_violations(sim: &simnet::Simulation<Self>) -> Vec<String> {
        label_violations(sim.active_processes())
    }

    fn state_line(id: simnet::ProcessId, p: &Self) -> String {
        format!(
            "{id} member={} max={:?} pending={} queued={}",
            p.is_member(),
            p.max_counter,
            p.pending.is_some(),
            p.queued_increments
        )
    }
}

/// The members among `nodes` whose maximal counter carries a label no
/// configuration member created, one line each.
fn label_violations<'a>(nodes: impl Iterator<Item = (ProcessId, &'a CounterNode)>) -> Vec<String> {
    nodes
        .filter(|(_, p)| p.is_member())
        .filter_map(|(id, p)| {
            let creator = p.max_counter.as_ref()?.label.creator;
            (!p.labeler.has_member(creator))
                .then(|| format!("{id}: maximal counter labelled by non-member {creator}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reconfig::config_set;
    use simnet::stack::Outbox;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Synchronous harness: members 0..n plus optional extra client nodes.
    struct Harness {
        nodes: BTreeMap<ProcessId, CounterNode>,
    }

    impl Harness {
        fn new(cfg: &ConfigSet, clients: &[u32], bound: u64) -> Self {
            let mut nodes = BTreeMap::new();
            for id in cfg.iter().copied() {
                nodes.insert(
                    id,
                    CounterNode::new(id, cfg.clone()).with_exhaustion_bound(bound),
                );
            }
            for c in clients {
                let id = pid(*c);
                nodes.insert(
                    id,
                    CounterNode::new(id, cfg.clone()).with_exhaustion_bound(bound),
                );
            }
            Harness { nodes }
        }

        fn deliver(&mut self, batch: Vec<(ProcessId, ProcessId, CounterMsg)>) {
            let mut queue = batch;
            while let Some((from, to, msg)) = queue.pop() {
                if let Some(node) = self.nodes.get_mut(&to) {
                    let mut replies = Outbox::new();
                    node.handle(from, &msg, &mut replies);
                    for (next_to, reply) in replies.into_messages() {
                        queue.push((to, next_to, reply));
                    }
                }
            }
        }

        fn round(&mut self) {
            let mut batch = Vec::new();
            for (id, node) in self.nodes.iter_mut() {
                let mut out = Outbox::new();
                node.poll(&[], &mut out);
                for (to, m) in out.into_messages() {
                    batch.push((*id, to, m));
                }
            }
            self.deliver(batch);
        }

        fn increment(&mut self, id: u32) -> IncrementOutcome {
            let id = pid(id);
            let mut reqs = Outbox::new();
            self.nodes
                .get_mut(&id)
                .unwrap()
                .request_increment(&mut reqs);
            let batch = reqs
                .into_messages()
                .into_iter()
                .map(|(to, m)| (id, to, m))
                .collect();
            self.deliver(batch);
            let done = self.nodes.get_mut(&id).unwrap().take_completed();
            done.into_iter().next().unwrap_or(IncrementOutcome::Aborted)
        }
    }

    #[test]
    fn members_agree_on_a_maximal_counter() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::new(&cfg, &[], DEFAULT_EXHAUSTION_BOUND);
        for _ in 0..10 {
            h.round();
        }
        let counters: BTreeSet<Option<u64>> = h
            .nodes
            .values()
            .map(|n| n.max_counter().map(|c| c.seqn))
            .collect();
        assert_eq!(counters.len(), 1, "members disagree: {counters:?}");
    }

    #[test]
    fn increments_are_monotone() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::new(&cfg, &[], DEFAULT_EXHAUSTION_BOUND);
        for _ in 0..10 {
            h.round();
        }
        let mut last: Option<Counter> = None;
        for i in 0..20u32 {
            let who = i % 3;
            match h.increment(who) {
                IncrementOutcome::Committed(c) => {
                    if let Some(prev) = &last {
                        assert!(prev.ct_less(&c), "counter regressed: {prev:?} → {c:?}");
                    }
                    last = Some(c);
                }
                IncrementOutcome::Aborted => panic!("increment aborted unexpectedly"),
            }
            h.round();
        }
        assert!(last.unwrap().seqn >= 1);
    }

    #[test]
    fn non_member_client_can_increment() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::new(&cfg, &[7], DEFAULT_EXHAUSTION_BOUND);
        for _ in 0..10 {
            h.round();
        }
        let outcome = h.increment(7);
        assert!(matches!(outcome, IncrementOutcome::Committed(_)));
        // Members learn the written value.
        h.round();
        let member_max = h.nodes[&pid(0)].max_counter().unwrap();
        assert!(member_max.seqn >= 1);
    }

    #[test]
    fn exhausted_counter_rolls_over_to_a_new_label() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::new(&cfg, &[], 3);
        for _ in 0..10 {
            h.round();
        }
        let mut labels_seen = BTreeSet::new();
        for i in 0..12u32 {
            if let IncrementOutcome::Committed(c) = h.increment(i % 3) {
                labels_seen.insert(c.label.clone());
                assert!(
                    c.seqn <= 4,
                    "seqn ran past the exhaustion bound: {}",
                    c.seqn
                );
            }
            h.round();
        }
        assert!(
            labels_seen.len() >= 2,
            "exhaustion never forced a label rollover"
        );
    }

    #[test]
    fn increments_abort_during_reconfiguration() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::new(&cfg, &[], DEFAULT_EXHAUSTION_BOUND);
        for _ in 0..10 {
            h.round();
        }
        for node in h.nodes.values_mut() {
            node.set_reconfiguring(true);
        }
        let outcome = h.increment(0);
        assert_eq!(outcome, IncrementOutcome::Aborted);
    }

    #[test]
    fn config_change_discards_foreign_labels() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::new(&cfg, &[], DEFAULT_EXHAUSTION_BOUND);
        for _ in 0..10 {
            h.round();
        }
        assert!(matches!(h.increment(0), IncrementOutcome::Committed(_)));
        let new_cfg = config_set([0, 1]);
        for node in h.nodes.values_mut() {
            node.on_config_change(new_cfg.clone());
        }
        for _ in 0..10 {
            h.round();
        }
        let max = h.nodes[&pid(0)].max_counter().cloned();
        if let Some(c) = max {
            assert!(new_cfg.contains(&c.label.creator));
        }
        // The service still works in the new configuration.
        assert!(matches!(h.increment(1), IncrementOutcome::Committed(_)));
    }

    #[test]
    fn only_one_increment_in_flight_per_node() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::new(&cfg, &[], DEFAULT_EXHAUSTION_BOUND);
        for _ in 0..5 {
            h.round();
        }
        let node = h.nodes.get_mut(&pid(0)).unwrap();
        let mut first = Outbox::<CounterMsg>::new();
        node.request_increment(&mut first);
        assert!(!first.is_empty());
        assert!(node.increment_in_flight());
        let mut second = Outbox::<CounterMsg>::new();
        node.request_increment(&mut second);
        assert!(second.is_empty());
    }

    /// A member whose identifier is at or above the per-peer tables' dense
    /// limit (which only a transient fault or a forged configuration
    /// produces) lives in the labeler's ordered spill. The service must not
    /// tell it apart: the same increments commit the same counters, with
    /// the member below the limit or above it, and the members end on one
    /// counter.
    #[test]
    fn a_spilled_member_counts_like_a_dense_one() {
        let run = |last: u32| {
            let cfg: ConfigSet = [0, 1, 2, last].map(pid).into();
            let mut h = Harness::new(&cfg, &[], DEFAULT_EXHAUSTION_BOUND);
            for _ in 0..10 {
                h.round();
            }
            let mask = |mut c: Counter| {
                if c.label.creator == pid(last) {
                    c.label.creator = pid(3);
                }
                if c.wid == pid(last) {
                    c.wid = pid(3);
                }
                c
            };
            let mut committed = Vec::new();
            for who in [0, 1, 2, last, last, 1] {
                match h.increment(who) {
                    IncrementOutcome::Committed(c) => committed.push(mask(c)),
                    IncrementOutcome::Aborted => panic!("p{who}'s increment aborted"),
                }
                h.round();
            }
            let maxes: Vec<Option<Counter>> = h
                .nodes
                .values()
                .map(|n| n.max_counter().cloned().map(mask))
                .collect();
            assert!(
                maxes.iter().all(|m| *m == maxes[0]),
                "members disagree: {maxes:?}"
            );
            (committed, maxes)
        };
        let dense = run(3);
        for spilled in [simnet::PeerTable::<()>::DENSE_LIMIT, u32::MAX] {
            assert_eq!(run(spilled), dense, "spilled p{spilled}");
        }
    }

    /// An operation whose quorum requests are lost (nobody ever answers)
    /// aborts after the timeout instead of staying in flight forever —
    /// without this, a partitioned requester (and the SMR view election on
    /// top of it) wedges permanently.
    #[test]
    fn pending_operation_times_out_and_aborts() {
        let cfg = config_set([0, 1, 2]);
        let mut node = CounterNode::new(pid(0), cfg).with_op_timeout(5);
        // Drop every request on the floor and just let time pass.
        let mut lost = Outbox::<CounterMsg>::new();
        node.request_increment(&mut lost);
        assert!(!lost.is_empty());
        for _ in 0..5 {
            node.poll(&[], &mut lost);
            assert!(node.increment_in_flight());
        }
        node.poll(&[], &mut lost);
        assert!(!node.increment_in_flight());
        assert_eq!(node.take_completed(), vec![IncrementOutcome::Aborted]);
        // The node is usable again.
        let mut requests = Outbox::<CounterMsg>::new();
        node.request_increment(&mut requests);
        assert!(!requests.is_empty());
    }

    /// Queued increments start from the periodic step, one at a time, and
    /// complete like directly requested ones.
    #[test]
    fn queued_increments_run_one_at_a_time() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::new(&cfg, &[], DEFAULT_EXHAUSTION_BOUND);
        for _ in 0..5 {
            h.round();
        }
        let node = h.nodes.get_mut(&pid(0)).unwrap();
        node.queue_increment();
        node.queue_increment();
        assert_eq!(node.queued_increments(), 2);
        let mut committed = 0;
        for _ in 0..20 {
            h.round();
            committed += h
                .nodes
                .get_mut(&pid(0))
                .unwrap()
                .take_completed()
                .iter()
                .filter(|o| matches!(o, IncrementOutcome::Committed(_)))
                .count();
        }
        assert_eq!(committed, 2);
        assert_eq!(h.nodes[&pid(0)].queued_increments(), 0);
    }

    /// A configuration change reports a dropped pending operation as
    /// aborted instead of discarding it silently (embedders wait for an
    /// outcome).
    #[test]
    fn config_change_aborts_the_pending_operation_with_an_outcome() {
        let cfg = config_set([0, 1, 2]);
        let mut node = CounterNode::new(pid(0), cfg);
        node.request_increment(&mut Outbox::<CounterMsg>::new());
        assert!(node.increment_in_flight());
        node.on_config_change(config_set([0, 1]));
        assert!(!node.increment_in_flight());
        assert_eq!(node.take_completed(), vec![IncrementOutcome::Aborted]);
    }

    // ----- the live runtime's early-start hook (`start_local`) -----

    /// Calls the hook the way the live event loop does and returns what it
    /// sent.
    fn kick(node: &mut CounterNode) -> Vec<(ProcessId, CounterMsg)> {
        let ids: Vec<ProcessId> = node.config().iter().copied().collect();
        let mut ctx = simnet::Context::new(node.me, simnet::Round::new(99), &ids);
        simnet::ScenarioTarget::start_local(node, &mut ctx);
        ctx.into_outbox()
            .into_iter()
            .map(|(to, payload)| (to, payload.get().clone()))
            .collect()
    }

    /// Members 0..3 after ten quiet rounds.
    fn calm_harness() -> Harness {
        let mut h = Harness::new(&config_set([0, 1, 2]), &[], DEFAULT_EXHAUSTION_BOUND);
        for _ in 0..10 {
            h.round();
        }
        h
    }

    #[test]
    fn hook_starts_a_queued_increment_exactly_once() {
        let mut node = calm_harness().nodes.remove(&pid(0)).unwrap();
        node.queue_increment();
        let op = node.next_op;
        let sent = kick(&mut node);
        // The read phase goes to every member, self included — what the
        // periodic step sends for a fresh increment.
        let expected: Vec<(ProcessId, CounterMsg)> = [0, 1, 2]
            .map(|m| (pid(m), CounterMsg::Quorum(QuorumMsg::ReadRequest { op })))
            .to_vec();
        assert_eq!(sent, expected);
        assert!(node.increment_in_flight());
        assert_eq!(node.queued_increments(), 0);
        // The slot is taken: a second call, and one with more work queued,
        // send nothing.
        assert!(kick(&mut node).is_empty());
        node.queue_increment();
        assert!(kick(&mut node).is_empty());
        assert_eq!(node.queued_increments(), 1);
    }

    #[test]
    fn hook_neither_ages_nor_resends_a_pending_increment() {
        let mut node = calm_harness().nodes.remove(&pid(0)).unwrap();
        node.queue_increment();
        node.queue_increment();
        let mut lost = Outbox::<CounterMsg>::new();
        node.poll(&[], &mut lost);
        node.poll(&[], &mut lost);
        assert_eq!(node.pending_age, 1);
        let before = format!("{node:?}");
        assert!(kick(&mut node).is_empty());
        assert_eq!(format!("{node:?}"), before, "the hook touched the node");
    }

    /// While a reconfiguration suspends the service the hook holds the
    /// increment back, and the next periodic step behaves byte-for-byte as
    /// on a twin that was never kicked.
    #[test]
    fn hook_defers_while_reconfiguring() {
        let mut node = calm_harness().nodes.remove(&pid(0)).unwrap();
        node.set_reconfiguring(true);
        node.queue_increment();
        let mut twin = node.clone();
        assert!(kick(&mut node).is_empty());
        assert!(!node.increment_in_flight());
        assert_eq!(node.queued_increments(), 1);
        let (mut sent, mut twin_sent) = (Outbox::<CounterMsg>::new(), Outbox::new());
        node.poll(&[], &mut sent);
        twin.poll(&[], &mut twin_sent);
        assert_eq!(sent.into_messages(), twin_sent.into_messages());
        assert_eq!(format!("{node:?}"), format!("{twin:?}"));
    }

    /// From corrupted state the hook neither panics nor starts an
    /// increment the periodic step would not: both apply the one guard.
    #[test]
    fn hook_agrees_with_the_periodic_step_from_corrupted_state() {
        use simnet::ScenarioTarget;
        let calm = calm_harness().nodes.remove(&pid(1)).unwrap();
        for seed in 0..64u64 {
            let mut rng = simnet::SimRng::seed_from(seed);
            let mut corrupted = calm.clone();
            corrupted.corrupt(&mut rng);
            corrupted.reconfiguring = seed % 3 == 0;
            if seed % 4 == 0 {
                corrupted.request_increment(&mut Outbox::<CounterMsg>::new());
            }
            corrupted.queue_increment();
            let op = corrupted.next_op;
            let read_phase = |msgs: Vec<(ProcessId, CounterMsg)>| -> Vec<_> {
                let request = CounterMsg::Quorum(QuorumMsg::ReadRequest { op });
                msgs.into_iter().filter(|(_, m)| *m == request).collect()
            };
            let (mut kicked, mut stepped) = (corrupted.clone(), corrupted);
            let by_hook = read_phase(kick(&mut kicked));
            let mut out = Outbox::new();
            stepped.poll(&[], &mut out);
            let by_step = read_phase(out.into_messages());
            assert_eq!(by_hook, by_step, "seed {seed}");
            assert_eq!(
                kicked.queued_increments(),
                stepped.queued_increments(),
                "seed {seed}"
            );
            assert_eq!(
                by_hook.is_empty(),
                kicked.queued_increments() == 1,
                "seed {seed}"
            );
        }
    }

    /// The live runtime's delivery step: `on_message` and then the hook,
    /// both on one context. The reply the delivery queued goes out first,
    /// then the read phase the hook started.
    #[test]
    fn a_delivery_and_the_hook_send_in_order_through_one_context() {
        use simnet::{Process, ScenarioTarget};
        let mut node = calm_harness().nodes.remove(&pid(0)).unwrap();
        node.queue_increment();
        let op = node.next_op;
        let ids = [pid(0), pid(1), pid(2)];
        let mut ctx = simnet::Context::new(pid(0), simnet::Round::new(99), &ids);
        let request = CounterMsg::Quorum(QuorumMsg::ReadRequest { op: 41 });
        Process::on_message(&mut node, pid(1), request, &mut ctx);
        node.start_local(&mut ctx);
        let sent: Vec<(ProcessId, CounterMsg)> = ctx
            .into_outbox()
            .into_iter()
            .map(|(to, payload)| (to, payload.get().clone()))
            .collect();
        assert!(
            matches!(&sent[0], (to, CounterMsg::Quorum(QuorumMsg::ReadReply { op: 41, .. })) if *to == pid(1)),
            "{sent:?}"
        );
        let read_phase: Vec<(ProcessId, CounterMsg)> = [0, 1, 2]
            .map(|m| (pid(m), CounterMsg::Quorum(QuorumMsg::ReadRequest { op })))
            .to_vec();
        assert_eq!(sent[1..], read_phase[..]);
    }

    /// Lane routing: one message of every `CounterMsg` variant, delivered
    /// through `Process::on_message`, reaches the part of the service that
    /// owns its lane.
    #[test]
    fn every_wire_variant_reaches_its_sub_layer() {
        use simnet::Process;
        let ids = [pid(0), pid(1), pid(2)];
        // Delivers `msg` from member 1 to a copy of `node`, returning the
        // copy and what it sent.
        let deliver = |node: &CounterNode, msg: CounterMsg| {
            let mut after = node.clone();
            let mut ctx = simnet::Context::new(pid(0), simnet::Round::ZERO, &ids);
            Process::on_message(&mut after, pid(1), msg, &mut ctx);
            let sent: Vec<(ProcessId, CounterMsg)> = ctx
                .into_outbox()
                .into_iter()
                .map(|(to, payload)| (to, payload.get().clone()))
                .collect();
            (after, sent)
        };
        let calm = calm_harness();
        let member = &calm.nodes[&pid(0)];

        // Gossip: a member adopts a larger counter.
        let larger = calm.nodes[&pid(1)]
            .max_counter()
            .expect("calm members hold a counter")
            .incremented(pid(1));
        assert_ne!(member.max_counter(), Some(&larger));
        let (after, _) = deliver(member, CounterMsg::Sync(larger.clone()));
        assert_eq!(after.max_counter(), Some(&larger));

        // Labels: the labeler records a fresh member's label pair.
        let cfg = config_set([0, 1, 2]);
        let fresh = CounterNode::new(pid(0), cfg.clone());
        let mut out = Outbox::new();
        CounterNode::new(pid(1), cfg).labeler.step(&mut out);
        let (_, label) = out
            .into_messages()
            .into_iter()
            .find(|(to, _)| *to == pid(0))
            .expect("a member sends its label to every other member");
        let (after, _) = deliver(&fresh, CounterMsg::Label(label));
        assert_ne!(
            format!("{:?}", after.labeler),
            format!("{:?}", fresh.labeler)
        );

        // Quorum: a member answers a read request.
        let request = CounterMsg::Quorum(QuorumMsg::ReadRequest { op: 41 });
        let (_, sent) = deliver(member, request);
        assert!(
            matches!(sent.as_slice(), [(to, CounterMsg::Quorum(QuorumMsg::ReadReply { op: 41, .. }))] if *to == pid(1)),
            "{sent:?}"
        );
    }

    /// Quorum replies count only from configuration members. Two ghosts
    /// that answer the read phase and acknowledge the write phase are not
    /// a majority of `{0, 1, 2}`: the increment stays in flight, sends no
    /// write phase, and the members' own answers then complete it.
    #[test]
    fn replies_from_non_members_make_no_quorum() {
        let mut h = calm_harness();
        let me = pid(0);
        let ghosts = [pid(7), pid(8)];
        let node = h.nodes.get_mut(&me).unwrap();
        let mut requests = Outbox::<CounterMsg>::new();
        node.request_increment(&mut requests);
        let op = node.next_op - 1;
        let mut sent = Outbox::<CounterMsg>::new();
        for ghost in ghosts {
            let counter = node.max_counter().cloned();
            let reply = QuorumMsg::ReadReply {
                op,
                counter,
                abort: false,
            };
            node.handle(ghost, &CounterMsg::Quorum(reply), &mut sent);
        }
        for ghost in ghosts {
            let ack = QuorumMsg::WriteAck { op, abort: false };
            node.handle(ghost, &CounterMsg::Quorum(ack), &mut sent);
        }
        assert_eq!(
            node.take_completed(),
            vec![],
            "ghosts committed an increment"
        );
        assert!(sent.is_empty(), "ghost replies started the write phase");
        assert!(node.increment_in_flight());
        h.deliver(
            requests
                .into_messages()
                .into_iter()
                .map(|(to, m)| (me, to, m))
                .collect(),
        );
        let done = h.nodes.get_mut(&me).unwrap().take_completed();
        assert!(
            matches!(done.as_slice(), [IncrementOutcome::Committed(_)]),
            "{done:?}"
        );
    }

    /// An increment the hook started and a periodic step then met before
    /// any reply is aged by that step but not sent again (the counter
    /// service never retransmits), and completes once.
    #[test]
    fn hook_started_increment_completes_once_across_a_step() {
        let mut h = calm_harness();
        let me = pid(0);
        let node = h.nodes.get_mut(&me).unwrap();
        node.queue_increment();
        let requests = kick(node);
        assert_eq!(requests.len(), 3);
        let mut out = Outbox::new();
        node.poll(&[], &mut out);
        let stepped = out.into_messages();
        assert!(
            !stepped
                .iter()
                .any(|(_, m)| matches!(m, CounterMsg::Quorum(_))),
            "the step resent or restarted the increment: {stepped:?}"
        );
        assert_eq!(node.pending_age, 1);
        h.deliver(requests.into_iter().map(|(to, m)| (me, to, m)).collect());
        let node = h.nodes.get_mut(&me).unwrap();
        let done = node.take_completed();
        assert!(
            matches!(done.as_slice(), [IncrementOutcome::Committed(_)]),
            "{done:?}"
        );
        assert!(!node.increment_in_flight());
    }
    /// Two settled members whose maximal counters differ only in their
    /// label's antistings have not converged, and their settle tokens do
    /// not agree either: the token renders the whole counter.
    #[test]
    fn counters_differing_only_in_antistings_neither_converge_nor_agree() {
        use simnet::scenario::{tokens_agree, ScenarioTarget};
        let cfg = config_set([0, 1]);
        let sim_with = |antistings: [[u32; 1]; 2]| {
            let mut sim = simnet::Simulation::new(simnet::SimConfig::default());
            for (i, antistings) in (0..).zip(antistings) {
                let mut node = CounterNode::new(pid(i), cfg.clone());
                let label = labels::Label {
                    creator: pid(0),
                    sting: 3,
                    antistings: std::sync::Arc::new(BTreeSet::from(antistings)),
                };
                node.max_counter = Some(Counter::zero(label, pid(0)));
                sim.add_process_with_id(pid(i), node);
            }
            let tokens: Vec<String> = sim
                .active_processes()
                .map(|(_, p)| p.settle_token())
                .collect();
            assert!(sim.active_processes().all(|(_, p)| p.settled()));
            (CounterNode::converged(&sim), tokens_agree(&tokens))
        };
        assert_eq!(sim_with([[7], [7]]), (true, true));
        assert_eq!(sim_with([[7], [8]]), (false, false));
    }
}

/// Seeded-bug regression: re-introduces the stale-label counter bug (an
/// epoch rollback that resets the sequence number while *keeping* the
/// label) behind a test-only wrapper and checks that the linearizability
/// checker rejects the resulting history. This is the checker's
/// end-to-end negative control — a mutation the `max`-merge gossip cannot
/// wash out (every member is rolled back together, so no peer still holds
/// the true maximum) and that no protocol invariant catches (the label
/// stays legit), yet whose re-minted tokens repeat committed ones and so
/// must trip [`Spec::MonotoneToken`].
#[cfg(test)]
mod seeded_bug {
    use super::*;
    use simnet::plan::apply_spec;
    use simnet::scenario::run_scenario;
    use simnet::{Arrival, LoadProfile, Scenario, SchedulerMode};

    /// [`CounterNode`] with one deliberate defect, modelled on the fixed
    /// epoch-forgetting bug: corruption jumps the node back to a *stale
    /// point of its label epoch* (sequence number zero under the existing,
    /// legit label), and for a window of rounds the node keeps
    /// re-installing that stale state every step — the way the pre-fix
    /// service kept resurrecting a forgotten epoch after a labeler
    /// rebuild. A one-shot rollback would wash out within a round through
    /// the `max`-merge gossip (that is Theorem 4.6 working as intended);
    /// the sticky re-installation is what makes it a *bug* rather than a
    /// transient fault, and it makes members re-mint seqn 1, 2, … inside
    /// an epoch that already committed those tokens.
    #[derive(Clone)]
    struct StaleLabelNode {
        inner: CounterNode,
        /// The stale epoch state corruption jumped back to.
        stale: Option<Counter>,
        /// Rounds the node keeps re-installing the stale state.
        bug_window: u64,
    }

    impl Layer for StaleLabelNode {
        type Wire = CounterMsg;

        fn poll<O: Sink<CounterMsg>>(&mut self, peers: &[ProcessId], out: &mut O) {
            if self.bug_window > 0 {
                self.bug_window -= 1;
                if self.stale.is_some() {
                    self.inner.max_counter = self.stale.clone();
                }
            }
            self.inner.poll(peers, out);
        }

        fn handle<O: Sink<CounterMsg>>(&mut self, from: ProcessId, msg: &CounterMsg, out: &mut O) {
            self.inner.handle(from, msg, out);
        }
    }

    simnet::impl_process_for_layer!(StaleLabelNode);

    impl simnet::ScenarioTarget for StaleLabelNode {
        const NAME: &'static str = "stale-label-counter";

        fn spawn_initial(id: ProcessId, n: usize) -> Self {
            StaleLabelNode {
                inner: CounterNode::spawn_initial(id, n),
                stale: None,
                bug_window: 0,
            }
        }

        fn spawn_joiner(id: ProcessId, n: usize) -> Self {
            StaleLabelNode {
                inner: CounterNode::spawn_joiner(id, n),
                stale: None,
                bug_window: 0,
            }
        }

        /// The seeded bug: jump back to the start of the current epoch
        /// (label kept, sequence number zeroed) and keep re-installing
        /// that stale state for the next 40 rounds.
        fn corrupt(&mut self, _rng: &mut simnet::SimRng) -> Vec<(u64, u64)> {
            if let Some(c) = &self.inner.max_counter {
                let mut stale = c.clone();
                stale.seqn = 0;
                self.inner.max_counter = Some(stale.clone());
                self.stale = Some(stale);
                self.bug_window = 40;
            }
            self.inner.pending = None;
            self.inner.pending_age = 0;
            Vec::new()
        }

        fn submit_local(&mut self, key: u64, value: u64) -> bool {
            self.inner.submit_local(key, value)
        }

        fn op_spec(key: u64, value: u64) -> Option<(u64, simnet::OpKind)> {
            CounterNode::op_spec(key, value)
        }

        fn claim_local(&mut self) -> Option<simnet::OpResponse> {
            self.inner.claim_local()
        }

        fn lin_spec() -> Option<simnet::Spec> {
            CounterNode::lin_spec()
        }

        fn settled(&self) -> bool {
            self.inner.settled()
        }

        type State<'a> = &'a Counter;

        fn agreement(&self) -> simnet::Agreement<'_, &Counter> {
            self.inner.agreement()
        }

        fn invariant_violations(sim: &simnet::Simulation<Self>) -> Vec<String> {
            label_violations(sim.active_processes().map(|(id, p)| (id, &p.inner)))
        }

        fn state_line(id: ProcessId, p: &Self) -> String {
            CounterNode::state_line(id, &p.inner)
        }
    }

    /// Rolling every member's sequence number back mid-run (label intact)
    /// makes the service re-commit tokens it already handed out; the
    /// checker must reject the history while the protocol's own invariants
    /// stay silent.
    #[test]
    fn checker_rejects_the_stale_label_rollback() {
        let scenario = Scenario::new("stale-label-seeded-bug", 4)
            .describe("epoch rollback on every member under client load");
        let scenario = apply_spec(scenario, "corrupt=60:0+1+2+3")
            .unwrap()
            .with_workload_until(120)
            .with_rounds(800)
            .with_load(
                LoadProfile::new(50, Arrival::parse("poisson:2").unwrap()).with_op_timeout(100),
            )
            .with_history();
        let mut sim: simnet::Simulation<StaleLabelNode> =
            scenario.build_sim(1, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        let witness: Vec<&String> = run
            .invariant_violations
            .iter()
            .filter(|v| v.starts_with("linearizability:"))
            .collect();
        println!("seeded-bug witness: {witness:?}");
        assert_eq!(
            run.counter("lin_result"),
            1,
            "stale-label rollback must be flagged as a linearizability \
             violation (violations: {:?})",
            run.invariant_violations
        );
        assert!(
            !witness.is_empty(),
            "a minimal violation witness is printed alongside the verdict"
        );
        // The bug is invisible to the protocol's own safety invariant: the
        // rolled-back counter still carries a legit member label.
        assert!(
            run.invariant_violations
                .iter()
                .all(|v| v.starts_with("linearizability:") || v.starts_with("stability:")),
            "only the history checker catches the rollback: {:?}",
            run.invariant_violations
        );
    }
}
