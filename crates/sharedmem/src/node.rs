//! The composite shared-memory node.
//!
//! [`SharedMemNode`] bundles one processor's full stack for the MWMR
//! shared-memory emulation of Section 4.3: the self-stabilizing
//! reconfiguration scheme (providing the quorum configuration and the
//! `noReco()` signal), the per-member register store, and the two-phase
//! client driver. The node implements [`simnet::Process`], so clusters of
//! them run directly inside a [`simnet::Simulation`].
//!
//! The emulation is *suspending*, as the paper notes: while a delicate
//! replacement or a brute-force reset is in progress, members refuse
//! register operations and in-flight operations abort (the caller resubmits
//! once the new configuration is installed). The register contents
//! themselves survive a delicate reconfiguration because every member pushes
//! its store to the members of the newly installed configuration, and stored
//! tags only ever move forward.

use std::collections::{BTreeSet, VecDeque};

use counters::DEFAULT_EXHAUSTION_BOUND;
use reconfig::{ConfigSet, NodeConfig, QuorumSystem, ReconfigMsg, ReconfigNode};
use simnet::stack::{Layer, Sink};
use simnet::ProcessId;

use crate::op::{OpStep, PendingOp};
use crate::store::RegisterStore;
use crate::types::{OpId, OpKind, OpOutcome, RegisterId, TaggedValue};

/// The two-phase register protocol messages (query, propagate, abort and
/// post-reconfiguration state transfer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterMsg {
    /// Query phase request: "send me your latest tagged value for `key`".
    Query {
        /// The operation this request belongs to.
        op: OpId,
        /// The register queried.
        key: RegisterId,
    },
    /// Query phase response.
    QueryResp {
        /// The operation this response belongs to.
        op: OpId,
        /// The register queried.
        key: RegisterId,
        /// The responder's latest tagged value, if any.
        current: Option<TaggedValue>,
    },
    /// Propagate phase request: "adopt this tagged value for `key`".
    Update {
        /// The operation this request belongs to.
        op: OpId,
        /// The register written.
        key: RegisterId,
        /// The tagged value to adopt.
        value: TaggedValue,
    },
    /// Propagate phase acknowledgement.
    UpdateAck {
        /// The acknowledged operation.
        op: OpId,
    },
    /// A member refuses to serve the operation because a reconfiguration is
    /// in progress.
    OpAbort {
        /// The refused operation.
        op: OpId,
    },
    /// Post-reconfiguration state transfer: the sender's whole store.
    StoreSync {
        /// Snapshot of the sender's register store.
        entries: Vec<(RegisterId, TaggedValue)>,
    },
}

impl simnet::codec::WireCodec for RegisterMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use simnet::codec::WireCodec as W;
        match self {
            RegisterMsg::Query { op, key } => {
                out.push(0);
                W::encode(op, out);
                W::encode(key, out);
            }
            RegisterMsg::QueryResp { op, key, current } => {
                out.push(1);
                W::encode(op, out);
                W::encode(key, out);
                W::encode(current, out);
            }
            RegisterMsg::Update { op, key, value } => {
                out.push(2);
                W::encode(op, out);
                W::encode(key, out);
                W::encode(value, out);
            }
            RegisterMsg::UpdateAck { op } => {
                out.push(3);
                W::encode(op, out);
            }
            RegisterMsg::OpAbort { op } => {
                out.push(4);
                W::encode(op, out);
            }
            RegisterMsg::StoreSync { entries } => {
                out.push(5);
                W::encode(entries, out);
            }
        }
    }
    fn decode(r: &mut simnet::codec::Reader<'_>) -> Result<Self, simnet::codec::DecodeError> {
        use simnet::codec::WireCodec as W;
        match r.u8()? {
            0 => Ok(RegisterMsg::Query {
                op: W::decode(r)?,
                key: W::decode(r)?,
            }),
            1 => Ok(RegisterMsg::QueryResp {
                op: W::decode(r)?,
                key: W::decode(r)?,
                current: W::decode(r)?,
            }),
            2 => Ok(RegisterMsg::Update {
                op: W::decode(r)?,
                key: W::decode(r)?,
                value: W::decode(r)?,
            }),
            3 => Ok(RegisterMsg::UpdateAck { op: W::decode(r)? }),
            4 => Ok(RegisterMsg::OpAbort { op: W::decode(r)? }),
            5 => Ok(RegisterMsg::StoreSync {
                entries: W::decode(r)?,
            }),
            tag => Err(simnet::codec::DecodeError::UnknownLane {
                ty: "RegisterMsg",
                tag,
            }),
        }
    }
}

simnet::wire_enum! {
    /// Messages exchanged by [`SharedMemNode`]s: reconfiguration traffic and
    /// the register protocol share one wire format, multiplexed through the
    /// shared [`simnet::stack`] mechanism.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SharedMemMsg {
        /// Reconfiguration scheme traffic.
        Reconfig(ReconfigMsg),
        /// Two-phase register protocol traffic.
        Register(RegisterMsg),
    }
}

/// One processor of the reconfigurable MWMR shared-memory emulation.
#[derive(Debug, Clone)]
pub struct SharedMemNode {
    me: ProcessId,
    reconfig: ReconfigNode,
    quorum: QuorumSystem,
    exhaustion_bound: u64,
    store: RegisterStore,
    pending: Option<PendingOp>,
    queue: VecDeque<(OpId, RegisterId, OpKind)>,
    /// Completed outcomes paired with whether the installed configuration
    /// was *collapsed* (held no majority of the population) at completion
    /// time — the flag armed histories use to classify the op indeterminate.
    completed: VecDeque<(OpOutcome, bool)>,
    /// Size of the full process population, when known (campaign spawns set
    /// it); `None` leaves collapse detection off.
    population: Option<u32>,
    next_seq: u64,
    /// The configuration the store was last synchronized towards, used to
    /// detect configuration changes.
    synced_config: Option<ConfigSet>,
    reads_committed: u64,
    writes_committed: u64,
    ops_aborted: u64,
    syncs_sent: u64,
}

impl SharedMemNode {
    fn assemble(me: ProcessId, reconfig: ReconfigNode) -> Self {
        SharedMemNode {
            me,
            reconfig,
            quorum: QuorumSystem::Majority,
            exhaustion_bound: DEFAULT_EXHAUSTION_BOUND,
            store: RegisterStore::new(),
            pending: None,
            queue: VecDeque::new(),
            completed: VecDeque::new(),
            population: None,
            next_seq: 0,
            synced_config: None,
            reads_committed: 0,
            writes_committed: 0,
            ops_aborted: 0,
            syncs_sent: 0,
        }
    }

    /// Creates a node that is one of the initial configuration members.
    pub fn new_member(me: ProcessId, initial_config: ConfigSet, node_config: NodeConfig) -> Self {
        Self::assemble(
            me,
            ReconfigNode::new_with_config(me, initial_config, node_config),
        )
    }

    /// Creates a node that joins the running system through the joining
    /// mechanism. Once admitted as a participant it can invoke reads and
    /// writes against the configuration without being a member itself (a
    /// pure client); if a later reconfiguration includes it, it also starts
    /// serving register state.
    pub fn new_joiner(me: ProcessId, node_config: NodeConfig) -> Self {
        Self::assemble(me, ReconfigNode::new_joiner(me, node_config))
    }

    /// Replaces the quorum system used to decide when a phase is complete
    /// (builder style). The paper's default is simple majorities.
    pub fn with_quorum_system(mut self, quorum: QuorumSystem) -> Self {
        self.quorum = quorum;
        self
    }

    /// Overrides the tag exhaustion bound (builder style); tests use small
    /// bounds to force epoch-label rollover.
    pub fn with_exhaustion_bound(mut self, bound: u64) -> Self {
        self.exhaustion_bound = bound;
        self
    }

    /// Declares the size of the full process population (builder style).
    /// With it set, every completed outcome is tagged with whether the
    /// installed configuration was *collapsed* — held no majority of the
    /// population — at completion time. The majority-loss recovery path
    /// (recMA lines 13–14) installs exactly such configurations when a
    /// partition hides a configuration majority, deliberately trading
    /// atomicity for liveness; armed histories record ops completed under
    /// them as indeterminate instead of trusting their ordering.
    pub fn with_population(mut self, population: u32) -> Self {
        self.population = Some(population);
        self
    }

    /// This node's identifier.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The underlying reconfiguration node (white-box access).
    pub fn reconfig(&self) -> &ReconfigNode {
        &self.reconfig
    }

    /// Mutable access to the underlying reconfiguration node, e.g. to
    /// request a delicate reconfiguration or inject transient faults.
    pub fn reconfig_mut(&mut self) -> &mut ReconfigNode {
        &mut self.reconfig
    }

    /// The local register store (a member's replica; empty on pure clients).
    pub fn store(&self) -> &RegisterStore {
        &self.store
    }

    /// Returns `true` when this node is a member of the currently installed
    /// configuration.
    pub fn is_member(&self) -> bool {
        self.reconfig
            .installed_config_ref()
            .is_some_and(|cfg| cfg.contains(&self.me))
    }

    /// The locally stored value of `key`, if any (no quorum interaction).
    pub fn local_value(&self, key: RegisterId) -> Option<u64> {
        self.store.value(key)
    }

    /// Returns `true` while an operation is in flight or queued.
    pub fn has_pending_ops(&self) -> bool {
        self.pending.is_some() || !self.queue.is_empty()
    }

    /// Number of committed reads.
    pub fn reads_committed(&self) -> u64 {
        self.reads_committed
    }

    /// Number of committed writes.
    pub fn writes_committed(&self) -> u64 {
        self.writes_committed
    }

    /// Number of operations aborted by reconfigurations.
    pub fn ops_aborted(&self) -> u64 {
        self.ops_aborted
    }

    /// Number of post-reconfiguration store synchronizations sent.
    pub fn syncs_sent(&self) -> u64 {
        self.syncs_sent
    }

    /// Submits a write of `value` to register `key` and returns its
    /// operation identifier. The outcome is reported asynchronously through
    /// [`SharedMemNode::take_completed`].
    pub fn submit_write(&mut self, key: RegisterId, value: u64) -> OpId {
        self.submit(key, OpKind::Write { value })
    }

    /// Submits a read of register `key` and returns its operation identifier.
    pub fn submit_read(&mut self, key: RegisterId) -> OpId {
        self.submit(key, OpKind::Read)
    }

    fn submit(&mut self, key: RegisterId, kind: OpKind) -> OpId {
        let op = OpId::new(self.me, self.next_seq);
        self.next_seq += 1;
        self.queue.push_back((op, key, kind));
        op
    }

    /// Drains the outcomes of operations that completed (or aborted) since
    /// the last call.
    pub fn take_completed(&mut self) -> Vec<OpOutcome> {
        std::mem::take(&mut self.completed)
            .into_iter()
            .map(|(outcome, _)| outcome)
            .collect()
    }

    /// `true` when the installed configuration holds no majority of the
    /// declared population — the state the majority-loss recovery leaves
    /// behind, where quorum intersection with the pre-collapse epoch is
    /// gone and completed ops carry no atomicity promise. Always `false`
    /// when no population was declared.
    fn config_collapsed(&self) -> bool {
        match (self.population, Self::members_of(&self.reconfig)) {
            (Some(n), Some(cfg)) => (cfg.len() as u32) * 2 <= n,
            _ => false,
        }
    }

    /// `true` while this node observes an actual reconfiguration activity: a
    /// replacement notification of its own or a brute-force reset. This is
    /// deliberately narrower than `noReco()` (which also reacts to benign
    /// participant-set churn) so that register operations suspend only while
    /// the configuration really is in flux.
    fn reconfiguring(&self) -> bool {
        let recsa = self.reconfig.recsa();
        !recsa.own_notification_shared().is_default() || recsa.own_config_shared().is_bottom()
    }

    fn record_outcome(&mut self, outcome: OpOutcome) {
        match &outcome {
            OpOutcome::ReadCommitted { .. } => self.reads_committed += 1,
            OpOutcome::WriteCommitted { .. } => self.writes_committed += 1,
            OpOutcome::Aborted { .. } => self.ops_aborted += 1,
        }
        let collapsed = self.config_collapsed();
        self.completed.push_back((outcome, collapsed));
    }

    /// The installed configuration, when it is a non-empty set. Borrows the
    /// reconfiguration layer only, so the other fields stay writable.
    fn members_of(reconfig: &ReconfigNode) -> Option<&ConfigSet> {
        reconfig
            .installed_config_ref()
            .filter(|cfg| !cfg.is_empty())
    }

    /// Handles one register-protocol message (the two-phase quorum driver and
    /// the member-side responders).
    fn handle_register(
        &mut self,
        from: ProcessId,
        msg: RegisterMsg,
        out: &mut impl Sink<SharedMemMsg>,
    ) {
        match msg {
            RegisterMsg::Query { op, key } => {
                if self.is_member() && !self.reconfiguring() {
                    out.push(
                        from,
                        RegisterMsg::QueryResp {
                            op,
                            key,
                            current: self.store.get(key).cloned(),
                        },
                    );
                } else {
                    out.push(from, RegisterMsg::OpAbort { op });
                }
            }
            RegisterMsg::Update { op, key, value } => {
                if self.is_member() && !self.reconfiguring() {
                    self.store.adopt(key, value);
                    out.push(from, RegisterMsg::UpdateAck { op });
                } else {
                    out.push(from, RegisterMsg::OpAbort { op });
                }
            }
            RegisterMsg::QueryResp { op, key, current } => {
                self.drive_query_response(from, op, key, current, out);
            }
            RegisterMsg::UpdateAck { op } => {
                self.drive_ack(from, op);
            }
            RegisterMsg::OpAbort { op } => {
                if self.pending.as_ref().map(PendingOp::op) == Some(op) {
                    let pending = self.pending.take().expect("pending op just matched");
                    let outcome = pending.abort();
                    self.record_outcome(outcome);
                }
            }
            RegisterMsg::StoreSync { entries } => {
                for (key, value) in entries {
                    self.store.adopt(key, value);
                }
            }
        }
    }

    fn drive_query_response(
        &mut self,
        from: ProcessId,
        op: OpId,
        _key: RegisterId,
        current: Option<TaggedValue>,
        out: &mut impl Sink<SharedMemMsg>,
    ) {
        let Some(cfg) = Self::members_of(&self.reconfig) else {
            return;
        };
        let Some(pending) = &mut self.pending else {
            return;
        };
        if pending.op() != op {
            return;
        }
        let step = pending.on_query_response(
            from,
            current,
            cfg,
            &self.quorum,
            self.me,
            self.exhaustion_bound,
        );
        match step {
            OpStep::Continue => {}
            OpStep::StartPropagate(value) => {
                // One value propagates to every member: share a single
                // payload across the fan-out rather than cloning it n times.
                let op = pending.op();
                let key = pending.key();
                let members: Vec<ProcessId> = cfg.iter().copied().collect();
                out.push_to_all(&members, RegisterMsg::Update { op, key, value });
            }
            OpStep::Done(outcome) => {
                self.pending = None;
                self.record_outcome(outcome);
            }
        }
    }

    fn drive_ack(&mut self, from: ProcessId, op: OpId) {
        let Some(cfg) = Self::members_of(&self.reconfig) else {
            return;
        };
        let Some(pending) = &mut self.pending else {
            return;
        };
        if pending.op() != op {
            return;
        }
        if let OpStep::Done(outcome) = pending.on_ack(from, cfg, &self.quorum) {
            self.pending = None;
            self.record_outcome(outcome);
        }
    }

    /// Starts the next queued operation against `cfg` — the non-empty
    /// installed configuration, read by the caller — and broadcasts its
    /// query phase to every member. The single definition of *when* an
    /// operation may start, shared by the timer step and the live runtime's
    /// [`start_local`](simnet::ScenarioTarget::start_local) hook: the slot
    /// is free, the store has been synchronised towards `cfg` (a
    /// configuration the timer step has not seen yet is left to it, which
    /// aborts and syncs first), and no reconfiguration is in progress.
    /// Returns whether an operation was started.
    fn start_next_op(&mut self, cfg: &ConfigSet, out: &mut impl Sink<SharedMemMsg>) -> bool {
        if self.pending.is_some()
            || self.queue.is_empty()
            || self.synced_config.as_ref() != Some(cfg)
            || self.reconfiguring()
        {
            return false;
        }
        let (op, key, kind) = self.queue.pop_front().expect("queue just seen non-empty");
        let pending = PendingOp::new(op, key, kind);
        Self::send_phase(&pending, cfg, out);
        self.pending = Some(pending);
        true
    }

    /// Sends `pending`'s current phase to the members of `cfg` that have not
    /// answered it: everyone for a fresh operation, the stragglers for a
    /// retransmission. The message is identical for every target, so it is
    /// built once and fanned out as a shared payload.
    fn send_phase(pending: &PendingOp, cfg: &ConfigSet, out: &mut impl Sink<SharedMemMsg>) {
        let targets = pending.unanswered(cfg);
        if targets.is_empty() {
            return;
        }
        let msg = match pending.chosen() {
            None => RegisterMsg::Query {
                op: pending.op(),
                key: pending.key(),
            },
            Some(value) => RegisterMsg::Update {
                op: pending.op(),
                key: pending.key(),
                value: value.clone(),
            },
        };
        out.push_to_all(&targets, msg);
    }

    /// The set of processors this node currently trusts (failure-detector
    /// view), exposed for tests and benchmarks.
    pub fn trusted(&self) -> BTreeSet<ProcessId> {
        self.reconfig.trusted()
    }
}

impl Layer for SharedMemNode {
    type Wire = SharedMemMsg;

    fn poll<O: Sink<SharedMemMsg>>(&mut self, peers: &[ProcessId], out: &mut O) {
        // 1. Reconfiguration stack, sending through our wire format.
        Layer::poll(&mut self.reconfig, peers, &mut out.nest());

        // The handle keeps the installed configuration readable while this
        // node's own fields are written.
        let installed = self.reconfig.recsa().own_config_shared().clone();
        let config = installed.as_set().filter(|cfg| !cfg.is_empty());
        let reconfiguring = self.reconfiguring();

        // 2. Post-reconfiguration state transfer: when the installed
        //    configuration changes, every member pushes its store to the new
        //    members so the register contents survive the replacement.
        if !reconfiguring {
            if let Some(cfg) = config {
                if self.synced_config.as_ref() != Some(cfg) {
                    // Abort any operation that was driven against the old
                    // configuration: its quorum arithmetic no longer applies.
                    if let Some(pending) = self.pending.take() {
                        let outcome = pending.abort();
                        self.record_outcome(outcome);
                    }
                    if cfg.contains(&self.me) && !self.store.is_empty() {
                        // Same store snapshot to every other member: one
                        // shared payload instead of a deep clone per peer.
                        let snapshot = self.store.snapshot();
                        let members: Vec<ProcessId> =
                            cfg.iter().copied().filter(|m| *m != self.me).collect();
                        self.syncs_sent += members.len() as u64;
                        out.push_to_all(&members, RegisterMsg::StoreSync { entries: snapshot });
                    }
                    self.synced_config = Some(cfg.clone());
                }
            }
        }

        // 3. Drive the client side: start the next queued operation, or
        //    retransmit the current phase to members that have not answered
        //    (fair communication makes the retransmissions eventually land).
        if let (Some(cfg), false) = (config, reconfiguring) {
            if !self.start_next_op(cfg, out) {
                if let Some(pending) = &self.pending {
                    Self::send_phase(pending, cfg, out);
                }
            }
        }
    }

    fn handle<O: Sink<SharedMemMsg>>(&mut self, from: ProcessId, msg: SharedMemMsg, out: &mut O) {
        match msg {
            SharedMemMsg::Reconfig(m) => {
                Layer::handle(&mut self.reconfig, from, m, &mut out.nest())
            }
            SharedMemMsg::Register(m) => self.handle_register(from, m, out),
        }
    }
}

simnet::impl_process_for_layer!(SharedMemNode);

/// The registers the chaos workload reads and writes (round-robin).
const CHAOS_KEYS: [u64; 3] = [1, 2, 3];

impl simnet::ScenarioTarget for SharedMemNode {
    const NAME: &'static str = "sharedmem";

    fn spawn_initial(id: ProcessId, n: usize) -> Self {
        SharedMemNode::new_member(
            id,
            reconfig::config_set(0..n as u32),
            NodeConfig::for_n(2 * n.max(4)),
        )
        .with_population(n as u32)
    }

    fn spawn_joiner(id: ProcessId, n: usize) -> Self {
        SharedMemNode::new_joiner(id, NodeConfig::for_n(2 * n.max(4))).with_population(n as u32)
    }

    /// Transient faults hit the register store: either it is wiped entirely
    /// (state loss) or one register jumps to a bogus value under a
    /// tag that dominates the legitimate one. Subsequent quorum operations
    /// wash both out — reads and writes propagate the maximal tag to every
    /// member, so the members re-agree on the workload registers. The
    /// store-sync marker is also cleared, as after a reconfiguration.
    fn corrupt(&mut self, rng: &mut simnet::SimRng) {
        self.corrupt_observed(rng);
    }

    /// The same corruption, reporting the adopted bogus value (if the coin
    /// landed on the adopt branch) so armed histories record it as an
    /// adversary write: a read observing the dominating bogus value then
    /// linearizes against it instead of tripping a false violation. Wiping
    /// the store has no effect to report — a wiped member serves quorum
    /// reads from whatever the quorum still holds.
    fn corrupt_observed(&mut self, rng: &mut simnet::SimRng) -> Vec<(u64, u64)> {
        let mut effects = Vec::new();
        if rng.chance(0.5) {
            self.store.clear();
        } else {
            let entry = self.store.iter().next().map(|(k, v)| (k, v.tag.clone()));
            if let Some((key, tag)) = entry {
                let value = rng.range_inclusive(10_000, 20_000);
                self.store
                    .adopt(key, TaggedValue::new(tag.incremented(self.me), value));
                effects.push((key.as_u64(), value));
            }
        }
        self.synced_config = None;
        effects
    }

    /// In-flight payload corruption: half the affected packets collapse to
    /// a bare heartbeat (content destroyed, liveness witness kept); the
    /// rest keep the sender-misattributed payload the corruption plan
    /// shuffled in. Misattributed register replies carry unexpected
    /// operation identifiers and are discarded by the two-phase protocol.
    fn corrupt_payload(msg: &mut SharedMemMsg, rng: &mut simnet::SimRng) -> bool {
        if rng.chance(0.5) {
            *msg = SharedMemMsg::Reconfig(ReconfigMsg::Heartbeat);
            true
        } else {
            false
        }
    }

    /// Byzantine forging. A forged-sender packet is a bare heartbeat into
    /// the embedded reconfiguration stack. Stale state is the
    /// *tag-equivocation* attack the register emulation must refuse: an
    /// `Update` carrying a tag the target already stores but a **different**
    /// value. Tags totally order writes, so adopting it would leave two
    /// members tag-equal with different values — the store's strictly-newer
    /// adoption rule must reject it, or the tag-consistency invariant trips
    /// at the end of the run.
    fn forge_payload(
        forge: simnet::ForgeKind,
        claimed_sender: ProcessId,
        target: ProcessId,
        sim: &simnet::Simulation<Self>,
        rng: &mut simnet::SimRng,
    ) -> Option<SharedMemMsg> {
        match forge {
            simnet::ForgeKind::ForgedSender => Some(SharedMemMsg::Reconfig(ReconfigMsg::Heartbeat)),
            simnet::ForgeKind::StaleState => {
                let node = sim.process(target)?;
                let (key, stored) = node.store.iter().next()?;
                let equivocated = TaggedValue::new(stored.tag.clone(), stored.value + 1);
                Some(SharedMemMsg::Register(RegisterMsg::Update {
                    op: OpId::new(claimed_sender, rng.range_inclusive(1_000_000, 2_000_000)),
                    key,
                    value: equivocated,
                }))
            }
            simnet::ForgeKind::Replay => None,
        }
    }

    /// Alternating writes and reads over a small register set, submitted at
    /// arbitrary active processors (members and clients both drive the
    /// two-phase quorum protocol).
    fn drive_workload(
        sim: &mut simnet::Simulation<Self>,
        round: simnet::Round,
        rng: &mut simnet::SimRng,
    ) {
        if round.as_u64() % 5 != 1 {
            return;
        }
        let actives = sim.active_ids();
        if let Some(i) = rng.index(actives.len()) {
            let tick = round.as_u64() / 5;
            let key = RegisterId::new(CHAOS_KEYS[tick as usize % CHAOS_KEYS.len()]);
            if let Some(node) = sim.process_mut(actives[i]) {
                if tick % 3 == 2 {
                    node.submit_read(key);
                } else {
                    node.submit_write(key, round.as_u64());
                }
            }
        }
    }

    /// Open-loop client load: client keys fold onto the workload register
    /// set (so convergence checks cover the loaded registers), with two
    /// writes for every read; the op completes with its quorum outcome.
    fn submit_local(&mut self, key: u64, value: u64) -> bool {
        let register = RegisterId::new(CHAOS_KEYS[(key % CHAOS_KEYS.len() as u64) as usize]);
        if value % 3 == 2 {
            self.submit_read(register);
        } else {
            self.submit_write(register, value);
        }
        true
    }

    /// Claims the oldest completion with its quorum outcome, surfacing the
    /// read's observed value for the history. A completion produced
    /// under a collapsed configuration — the majority-loss recovery's
    /// liveness-over-safety state — is reported indeterminate: the client
    /// got an answer, but the service made no atomicity promise about it.
    fn claim_local(&mut self) -> Option<simnet::OpResponse> {
        let (outcome, collapsed) = self.completed.pop_front()?;
        Some(match outcome {
            OpOutcome::ReadCommitted { value, .. } => simnet::OpResponse {
                ok: true,
                observed: Some(simnet::history::Observed::Value(value)),
                indeterminate: collapsed,
            },
            OpOutcome::WriteCommitted { .. } => simnet::OpResponse {
                ok: true,
                observed: None,
                indeterminate: collapsed,
            },
            OpOutcome::Aborted { .. } => simnet::OpResponse {
                ok: false,
                observed: None,
                indeterminate: collapsed,
            },
        })
    }

    /// Starts the next queued operation between timer steps, under exactly
    /// the guard the timer step applies (`start_next_op`, which both call);
    /// returns after two comparisons when there is nothing to start.
    fn start_local(&mut self, ctx: &mut simnet::Context<'_, SharedMemMsg>) {
        if self.pending.is_some() || self.queue.is_empty() {
            return;
        }
        let installed = self.reconfig.recsa().own_config_shared().clone();
        let Some(cfg) = installed.as_set().filter(|cfg| !cfg.is_empty()) else {
            return;
        };
        self.start_next_op(cfg, ctx);
    }

    /// The node-local conjunct of [`ScenarioTarget::converged`]: a calm, installed
    /// reconfiguration layer and no operation in flight or queued.
    ///
    /// [`ScenarioTarget::converged`]: simnet::ScenarioTarget::converged
    fn settled(&self) -> bool {
        let r = self.reconfig();
        r.is_participant()
            && r.no_reconfiguration()
            && r.installed_config_ref().is_some()
            && !self.has_pending_ops()
    }

    /// The agreement token: the installed configuration for everyone, plus
    /// one component per workload register for configuration members —
    /// mirroring [`ScenarioTarget::converged`]'s member-only register comparison.
    ///
    /// [`ScenarioTarget::converged`]: simnet::ScenarioTarget::converged
    fn settle_token(&self) -> String {
        let r = self.reconfig();
        let Some(config) = r.installed_config() else {
            return String::new();
        };
        let cfg = reconfig::types::ConfigValue::Set(config.clone());
        let mut token = format!("config={cfg}");
        if config.contains(&self.me) {
            for key in CHAOS_KEYS {
                let value = self.local_value(RegisterId::new(key));
                token.push_str(&format!("\nreg:{key}={value:?}"));
            }
        }
        token
    }

    /// The recordable shape of `Self::submit_local`'s operation: client keys
    /// fold onto the workload register set, and the value's residue picks
    /// read vs write — exactly the mapping `submit_local` applies.
    fn op_spec(key: u64, value: u64) -> Option<(u64, simnet::OpKind)> {
        let register = CHAOS_KEYS[(key % CHAOS_KEYS.len() as u64) as usize];
        let kind = if value % 3 == 2 {
            simnet::OpKind::Read
        } else {
            simnet::OpKind::Write(value)
        };
        Some((register, kind))
    }

    /// The emulated object is a multi-writer multi-reader atomic register
    /// (the paper's Theorem 5.3 claim) — armed histories are checked
    /// against the register spec.
    fn lin_spec() -> Option<simnet::Spec> {
        Some(simnet::Spec::Register)
    }

    /// Converged: every active processor is [`settled`](simnet::ScenarioTarget::settled) —
    /// a calm installed configuration, no operation queued or in flight —
    /// under the same configuration, and every active member reports the
    /// same value for every workload register.
    fn converged(sim: &simnet::Simulation<Self>) -> bool {
        let mut config = None;
        for (_, node) in sim.active_processes() {
            let installed = node.reconfig().installed_config_ref();
            if !node.settled() || *config.get_or_insert(installed) != installed {
                return false;
            }
        }
        let Some(Some(config)) = config else {
            return true;
        };
        for key in CHAOS_KEYS {
            let key = RegisterId::new(key);
            let mut values = sim
                .active_processes()
                .filter(|(id, _)| config.contains(id))
                .map(|(_, p)| p.local_value(key));
            let first = values.next().unwrap_or(None);
            if values.any(|v| v != first) {
                return false;
            }
        }
        true
    }

    /// Safety: tags totally order writes, so two members holding the *same*
    /// tag for a register must hold the same value.
    fn invariant_violations(sim: &simnet::Simulation<Self>) -> Vec<String> {
        let mut violations = Vec::new();
        for key in CHAOS_KEYS {
            let key = RegisterId::new(key);
            let tagged: Vec<_> = sim
                .active_processes()
                .filter(|(_, p)| p.is_member())
                .filter_map(|(id, p)| p.store.get(key).map(|tv| (id, tv.clone())))
                .collect();
            for (i, (a, ta)) in tagged.iter().enumerate() {
                for (b, tb) in &tagged[i + 1..] {
                    if ta.tag == tb.tag && ta.value != tb.value {
                        violations.push(format!(
                            "members {a} and {b} hold tag-equal but different values for {key}"
                        ));
                    }
                }
            }
        }
        violations
    }

    fn state_line(id: simnet::ProcessId, p: &Self) -> String {
        format!(
            "{id} member={} store={:?} pending={} reads={} writes={} aborted={}",
            p.is_member(),
            p.store.snapshot(),
            p.has_pending_ops(),
            p.reads_committed,
            p.writes_committed,
            p.ops_aborted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reconfig::config_set;
    use simnet::stack::Outbox;
    use simnet::{SimConfig, Simulation};

    fn cluster(n: u32, seed: u64) -> Simulation<SharedMemNode> {
        let cfg = config_set(0..n);
        let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
        for i in 0..n {
            let id = ProcessId::new(i);
            sim.add_process_with_id(
                id,
                SharedMemNode::new_member(id, cfg.clone(), NodeConfig::for_n(16)),
            );
        }
        sim.run_rounds(40);
        sim
    }

    fn drain_committed(sim: &mut Simulation<SharedMemNode>, id: ProcessId) -> Vec<OpOutcome> {
        sim.process_mut(id).unwrap().take_completed()
    }

    /// Lane routing: one message of every `SharedMemMsg` variant, delivered
    /// through `Process::on_message`, reaches the sub-layer that owns its
    /// lane — the embedded reconfiguration node or the register protocol.
    #[test]
    fn every_wire_variant_reaches_its_sub_layer() {
        use simnet::{Context, Process, Round};
        let (me, peer) = (ProcessId::new(0), ProcessId::new(1));
        let ids = [me, peer];
        let member = SharedMemNode::new_member(me, config_set([0, 1]), NodeConfig::for_n(4));
        // Delivers `msg` from `peer` to a copy of `member`, returning the
        // copy and what it sent.
        let deliver = |msg: SharedMemMsg| {
            let mut after = member.clone();
            let mut ctx = Context::new(me, Round::ZERO, &ids);
            Process::on_message(&mut after, peer, msg, &mut ctx);
            let sent: Vec<(ProcessId, SharedMemMsg)> = ctx
                .into_outbox()
                .into_iter()
                .map(|(to, payload)| (to, payload.into_msg()))
                .collect();
            (after, sent)
        };

        let heard = |n: &SharedMemNode| n.reconfig.failure_detector().count(peer);
        let (after, _) = deliver(SharedMemMsg::Reconfig(ReconfigMsg::Heartbeat));
        assert_eq!((heard(&member), heard(&after)), (None, Some(0)));

        let op = OpId::new(peer, 41);
        let key = RegisterId::new(1);
        let (_, sent) = deliver(SharedMemMsg::Register(RegisterMsg::Query { op, key }));
        assert_eq!(
            sent,
            vec![(
                peer,
                SharedMemMsg::Register(RegisterMsg::QueryResp {
                    op,
                    key,
                    current: None
                })
            )]
        );
    }

    #[test]
    fn write_then_read_through_the_quorum() {
        let mut sim = cluster(3, 1);
        let writer = ProcessId::new(0);
        let reader = ProcessId::new(2);
        let key = RegisterId::new(7);

        let write_op = sim.process_mut(writer).unwrap().submit_write(key, 99);
        let rounds = sim.run_until(200, |s| s.process(writer).unwrap().writes_committed() == 1);
        assert!(rounds < 200, "write never committed");
        let outcomes = drain_committed(&mut sim, writer);
        assert!(matches!(
            outcomes.as_slice(),
            [OpOutcome::WriteCommitted { op, .. }] if *op == write_op
        ));

        let read_op = sim.process_mut(reader).unwrap().submit_read(key);
        let rounds = sim.run_until(200, |s| s.process(reader).unwrap().reads_committed() == 1);
        assert!(rounds < 200, "read never committed");
        let outcomes = drain_committed(&mut sim, reader);
        match outcomes.as_slice() {
            [OpOutcome::ReadCommitted { op, value, .. }] => {
                assert_eq!(*op, read_op);
                assert_eq!(*value, Some(99));
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    #[test]
    fn read_of_unwritten_register_returns_none() {
        let mut sim = cluster(3, 2);
        let reader = ProcessId::new(1);
        sim.process_mut(reader)
            .unwrap()
            .submit_read(RegisterId::new(55));
        let rounds = sim.run_until(200, |s| s.process(reader).unwrap().reads_committed() == 1);
        assert!(rounds < 200);
        let outcomes = drain_committed(&mut sim, reader);
        assert!(matches!(
            outcomes.as_slice(),
            [OpOutcome::ReadCommitted {
                value: None,
                tag: None,
                ..
            }]
        ));
    }

    #[test]
    fn non_member_client_reads_and_writes() {
        let cfg = config_set(0..3);
        let mut sim = Simulation::new(SimConfig::default().with_seed(3).with_max_delay(0));
        for i in 0..3u32 {
            let id = ProcessId::new(i);
            sim.add_process_with_id(
                id,
                SharedMemNode::new_member(id, cfg.clone(), NodeConfig::for_n(16)),
            );
        }
        sim.run_rounds(40);

        // The client enters through the joining mechanism and only operates
        // once admitted as a participant.
        let client = ProcessId::new(9);
        sim.add_process_with_id(
            client,
            SharedMemNode::new_joiner(client, NodeConfig::for_n(16)),
        );
        let rounds = sim.run_until(400, |s| {
            s.process(client).unwrap().reconfig().is_participant()
        });
        assert!(rounds < 400, "client was never admitted as a participant");

        let key = RegisterId::new(1);
        sim.process_mut(client).unwrap().submit_write(key, 5);
        sim.process_mut(client).unwrap().submit_read(key);
        let rounds = sim.run_until(400, |s| {
            let c = s.process(client).unwrap();
            c.writes_committed() == 1 && c.reads_committed() == 1
        });
        assert!(rounds < 400, "client operations never completed");
        let outcomes = drain_committed(&mut sim, client);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, OpOutcome::ReadCommitted { value: Some(5), .. })));
        // The client is not a configuration member and holds no replica.
        assert!(!sim.process(client).unwrap().is_member());
        assert!(sim.process(client).unwrap().store().is_empty());
        // The configuration itself did not change because a client showed up.
        assert_eq!(
            sim.process(ProcessId::new(0))
                .unwrap()
                .reconfig()
                .installed_config(),
            Some(cfg)
        );
    }

    #[test]
    fn operations_survive_message_loss() {
        let cfg = config_set(0..3);
        let mut sim = Simulation::new(
            SimConfig::default()
                .with_seed(4)
                .with_loss_probability(0.15)
                .with_max_delay(1)
                .with_channel_capacity(32),
        );
        for i in 0..3u32 {
            let id = ProcessId::new(i);
            sim.add_process_with_id(
                id,
                SharedMemNode::new_member(id, cfg.clone(), NodeConfig::for_n(16)),
            );
        }
        sim.run_rounds(60);
        let writer = ProcessId::new(1);
        sim.process_mut(writer)
            .unwrap()
            .submit_write(RegisterId::new(3), 17);
        let rounds = sim.run_until(600, |s| s.process(writer).unwrap().writes_committed() == 1);
        assert!(rounds < 600, "write never committed under loss");
    }

    #[test]
    fn state_survives_delicate_reconfiguration() {
        let mut sim = cluster(4, 5);
        let key = RegisterId::new(11);
        let writer = ProcessId::new(0);
        sim.process_mut(writer).unwrap().submit_write(key, 1234);
        let rounds = sim.run_until(200, |s| s.process(writer).unwrap().writes_committed() == 1);
        assert!(rounds < 200);

        // Shrink the configuration from {0..4} to {0..3} via a delicate
        // replacement requested by a member.
        let target = config_set(0..3);
        assert!(sim
            .process_mut(ProcessId::new(1))
            .unwrap()
            .reconfig_mut()
            .request_reconfiguration(target.clone()));
        let rounds = sim.run_until(600, |s| {
            s.active_ids().iter().all(|id| {
                s.process(*id).unwrap().reconfig().installed_config() == Some(target.clone())
            })
        });
        assert!(rounds < 600, "delicate replacement never completed");
        sim.run_rounds(60);

        // A read against the new configuration still observes the write.
        let reader = ProcessId::new(2);
        sim.process_mut(reader).unwrap().submit_read(key);
        let rounds = sim.run_until(400, |s| s.process(reader).unwrap().reads_committed() >= 1);
        assert!(rounds < 400, "read never completed after reconfiguration");
        let outcomes = drain_committed(&mut sim, reader);
        assert!(
            outcomes.iter().any(|o| matches!(
                o,
                OpOutcome::ReadCommitted {
                    value: Some(1234),
                    ..
                }
            )),
            "value lost across the reconfiguration: {outcomes:?}"
        );
    }

    #[test]
    fn concurrent_writers_are_totally_ordered_by_tags() {
        let mut sim = cluster(3, 6);
        let key = RegisterId::new(2);
        sim.process_mut(ProcessId::new(0))
            .unwrap()
            .submit_write(key, 100);
        sim.process_mut(ProcessId::new(1))
            .unwrap()
            .submit_write(key, 200);
        let rounds = sim.run_until(400, |s| {
            s.process(ProcessId::new(0)).unwrap().writes_committed() == 1
                && s.process(ProcessId::new(1)).unwrap().writes_committed() == 1
        });
        assert!(rounds < 400, "concurrent writes never both committed");
        sim.run_rounds(40);

        // A subsequent read returns one of the two written values — the one
        // with the greater tag — and every member's store agrees on it.
        let reader = ProcessId::new(2);
        sim.process_mut(reader).unwrap().submit_read(key);
        sim.run_until(200, |s| s.process(reader).unwrap().reads_committed() == 1);
        let outcomes = drain_committed(&mut sim, reader);
        let OpOutcome::ReadCommitted { value: Some(v), .. } = &outcomes[0] else {
            panic!("unexpected outcome {outcomes:?}");
        };
        assert!(*v == 100 || *v == 200);
        let tags: BTreeSet<_> = sim
            .active_ids()
            .into_iter()
            .filter_map(|id| {
                sim.process(id)
                    .unwrap()
                    .store()
                    .get(key)
                    .map(|tv| tv.tag.clone().seqn)
            })
            .collect();
        assert_eq!(tags.len(), 1, "members disagree on the final tag");
    }

    #[test]
    fn exhausted_tags_roll_over_to_a_new_epoch() {
        let cfg = config_set(0..3);
        let mut sim = Simulation::new(SimConfig::default().with_seed(7).with_max_delay(0));
        for i in 0..3u32 {
            let id = ProcessId::new(i);
            sim.add_process_with_id(
                id,
                SharedMemNode::new_member(id, cfg.clone(), NodeConfig::for_n(16))
                    .with_exhaustion_bound(3),
            );
        }
        sim.run_rounds(40);
        let key = RegisterId::new(1);
        let writer = ProcessId::new(0);
        for expected in 1..=6u64 {
            sim.process_mut(writer).unwrap().submit_write(key, expected);
            let rounds = sim.run_until(300, |s| {
                s.process(writer).unwrap().writes_committed() == expected
            });
            assert!(rounds < 300, "write {expected} never committed");
        }
        // Six writes against an exhaustion bound of three forced at least one
        // label rollover, and the latest value still wins.
        let reader = ProcessId::new(2);
        sim.process_mut(reader).unwrap().submit_read(key);
        sim.run_until(200, |s| s.process(reader).unwrap().reads_committed() == 1);
        let outcomes = drain_committed(&mut sim, reader);
        assert!(matches!(
            outcomes.as_slice(),
            [OpOutcome::ReadCommitted { value: Some(6), .. }]
        ));
    }

    #[test]
    fn observability_counters_track_activity() {
        let mut sim = cluster(3, 8);
        let node = ProcessId::new(0);
        let key = RegisterId::new(4);
        sim.process_mut(node).unwrap().submit_write(key, 1);
        sim.run_until(200, |s| s.process(node).unwrap().writes_committed() == 1);
        sim.process_mut(node).unwrap().submit_read(key);
        sim.run_until(200, |s| s.process(node).unwrap().reads_committed() == 1);
        let n = sim.process(node).unwrap();
        assert_eq!(n.writes_committed(), 1);
        assert_eq!(n.reads_committed(), 1);
        assert_eq!(n.ops_aborted(), 0);
        assert!(!n.has_pending_ops());
        assert!(n.is_member());
        assert_eq!(n.local_value(key), Some(1));
        assert_eq!(n.id(), node);
        assert!(n.trusted().contains(&ProcessId::new(1)));
    }

    #[test]
    fn queued_operations_run_one_after_the_other() {
        let mut sim = cluster(3, 9);
        let node = ProcessId::new(0);
        let key = RegisterId::new(1);
        for v in 1..=5u64 {
            sim.process_mut(node).unwrap().submit_write(key, v);
        }
        assert!(sim.process(node).unwrap().has_pending_ops());
        let rounds = sim.run_until(800, |s| s.process(node).unwrap().writes_committed() == 5);
        assert!(rounds < 800, "queued writes never drained");
        let write_outcomes = drain_committed(&mut sim, node);
        assert_eq!(write_outcomes.len(), 5);
        assert!(write_outcomes.iter().all(OpOutcome::is_committed));
        // The last submitted write holds the greatest tag, so it is the value
        // that survives.
        sim.process_mut(node).unwrap().submit_read(key);
        sim.run_until(200, |s| s.process(node).unwrap().reads_committed() == 1);
        let outcomes = drain_committed(&mut sim, node);
        assert!(matches!(
            outcomes.as_slice(),
            [OpOutcome::ReadCommitted { value: Some(5), .. }]
        ));
    }

    // ----- the live runtime's early-start hook (`start_local`) -----

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    const PEERS: [u32; 3] = [0, 1, 2];

    fn peers() -> Vec<ProcessId> {
        PEERS.map(pid).to_vec()
    }

    /// The three calm members of a bootstrapped cluster, cloned out of the
    /// simulation so a test can step them by hand.
    fn calm_members(seed: u64) -> Vec<SharedMemNode> {
        let sim = cluster(3, seed);
        PEERS
            .iter()
            .map(|i| sim.process(pid(*i)).unwrap().clone())
            .collect()
    }

    /// Calls the hook the way the live event loop does and returns what it
    /// sent.
    fn kick(node: &mut SharedMemNode) -> Vec<(ProcessId, SharedMemMsg)> {
        let ids = peers();
        let mut ctx = simnet::Context::new(node.me, simnet::Round::new(99), &ids);
        simnet::ScenarioTarget::start_local(node, &mut ctx);
        ctx.into_outbox()
            .into_iter()
            .map(|(to, payload)| (to, payload.into_msg()))
            .collect()
    }

    fn register_lane(msgs: Vec<(ProcessId, SharedMemMsg)>) -> Vec<(ProcessId, RegisterMsg)> {
        msgs.into_iter()
            .filter_map(|(to, m)| match m {
                SharedMemMsg::Register(r) => Some((to, r)),
                SharedMemMsg::Reconfig(_) => None,
            })
            .collect()
    }

    #[test]
    fn hook_starts_a_queued_op_on_a_calm_node_exactly_once() {
        let mut node = calm_members(21).remove(0);
        let key = RegisterId::new(1);
        let op = node.submit_write(key, 5);
        let sent = kick(&mut node);
        // The query phase goes to every member of the installed
        // configuration, self included — what `poll` sends for a fresh op.
        let expected: Vec<(ProcessId, SharedMemMsg)> = peers()
            .into_iter()
            .map(|m| (m, SharedMemMsg::Register(RegisterMsg::Query { op, key })))
            .collect();
        assert_eq!(sent, expected);
        assert_eq!(node.pending.as_ref().map(PendingOp::op), Some(op));
        assert!(node.queue.is_empty());
        // The slot is taken: a second call, and one with more work queued,
        // send nothing.
        assert!(kick(&mut node).is_empty());
        node.submit_read(key);
        assert!(kick(&mut node).is_empty());
        assert_eq!(node.queue.len(), 1);
    }

    #[test]
    fn hook_leaves_a_pending_op_alone() {
        let mut node = calm_members(22).remove(0);
        node.submit_write(RegisterId::new(1), 5);
        node.submit_write(RegisterId::new(2), 6);
        node.poll(&peers(), &mut Outbox::<SharedMemMsg>::new());
        let before = format!("{node:?}");
        assert!(node.pending.is_some());
        assert!(
            kick(&mut node).is_empty(),
            "no retransmission from the hook"
        );
        assert_eq!(format!("{node:?}"), before, "the hook touched the node");
    }

    /// Every state in which the guard must hold the op back: nothing is
    /// sent, the queue is intact, and the next `poll` behaves byte-for-byte
    /// as on a twin that was never kicked.
    #[test]
    fn hook_defers_to_poll_whenever_poll_has_work_to_do_first() {
        use reconfig::types::{ConfigValue, Notification, Phase};
        let calm = calm_members(23).remove(0);
        let me = calm.me;

        let mut unsynced = calm.clone();
        unsynced.synced_config = None;
        let mut synced_elsewhere = calm.clone();
        synced_elsewhere.synced_config = Some(reconfig::config_set(0..2));
        let mut replacing = calm.clone();
        replacing.reconfig_mut().recsa_mut().corrupt_notification(
            me,
            Notification {
                phase: Phase::Zero,
                set: Some(reconfig::config_set(0..2)),
            },
        );
        assert!(replacing.reconfiguring());
        let mut resetting = calm.clone();
        resetting
            .reconfig_mut()
            .recsa_mut()
            .corrupt_config(me, ConfigValue::Bottom);
        let mut empty_config = calm.clone();
        empty_config
            .reconfig_mut()
            .recsa_mut()
            .corrupt_config(me, ConfigValue::Set(ConfigSet::new()));
        let fresh_client = SharedMemNode::new_joiner(pid(9), NodeConfig::for_n(16));

        for (what, mut node) in [
            ("store not yet synchronised", unsynced),
            (
                "store synchronised towards another configuration",
                synced_elsewhere,
            ),
            ("delicate replacement in progress", replacing),
            ("config = bottom", resetting),
            ("empty configuration", empty_config),
            ("non-member client without a configuration", fresh_client),
        ] {
            node.submit_write(RegisterId::new(1), 5);
            let mut twin = node.clone();
            assert!(kick(&mut node).is_empty(), "{what}: the hook sent");
            assert!(node.pending.is_none(), "{what}: the hook started an op");
            assert_eq!(node.queue.len(), 1, "{what}: the queue moved");
            let (mut sent, mut twin_sent) = (Outbox::<SharedMemMsg>::new(), Outbox::new());
            node.poll(&peers(), &mut sent);
            twin.poll(&peers(), &mut twin_sent);
            assert_eq!(
                sent.into_messages(),
                twin_sent.into_messages(),
                "{what}: the next poll differs from the unkicked twin's"
            );
            assert_eq!(format!("{node:?}"), format!("{twin:?}"), "{what}");
        }
    }

    /// From arbitrary (corrupted) state the hook neither panics nor loses
    /// an op, and it starts one in exactly the states in which the node's
    /// last timer step would itself have started it.
    #[test]
    fn hook_agrees_with_the_last_timer_step_from_corrupted_state() {
        use simnet::ScenarioTarget;
        let mut sim = cluster(3, 24);
        let writer = pid(0);
        sim.process_mut(writer)
            .unwrap()
            .submit_write(RegisterId::new(1), 7);
        sim.run_until(200, |s| s.process(writer).unwrap().writes_committed() == 1);
        let calm = sim.process(pid(1)).unwrap().clone();
        let (mut started, mut held) = (0, 0);
        for seed in 0..200u64 {
            let mut rng = simnet::SimRng::seed_from(seed);
            let mut corrupted = calm.clone();
            // Every layer's own corruption, in every combination.
            if seed % 2 == 0 {
                corrupted.corrupt(&mut rng);
            }
            if seed % 4 < 3 {
                corrupted.reconfig_mut().corrupt(&mut rng);
            }
            if seed % 5 == 0 {
                corrupted.pending = Some(PendingOp::new(
                    OpId::new(corrupted.me, 777),
                    RegisterId::new(2),
                    OpKind::Read,
                ));
            }

            // Straight from the corrupted state: total, and the op is
            // either still queued or in the slot — never lost, never both.
            let mut direct = corrupted.clone();
            let was_pending = direct.pending.is_some();
            direct.submit_read(RegisterId::new(1));
            kick(&mut direct);
            let in_slot = usize::from(!was_pending && direct.pending.is_some());
            assert_eq!(direct.queue.len() + in_slot, 1, "seed {seed}");

            // After a timer step: the hook starts the op iff that step
            // would have, had the op been queued in time for it.
            let mut kicked = corrupted.clone();
            kicked.poll(&peers(), &mut Outbox::<SharedMemMsg>::new());
            let op = kicked.submit_read(RegisterId::new(1));
            let by_hook = register_lane(kick(&mut kicked));
            let mut polled = corrupted.clone();
            polled.submit_read(RegisterId::new(1));
            let mut out = Outbox::new();
            polled.poll(&peers(), &mut out);
            let by_poll = register_lane(out.into_messages());
            let hook_started = kicked.pending.as_ref().map(PendingOp::op) == Some(op);
            let poll_started = polled.pending.as_ref().map(PendingOp::op) == Some(op);
            assert_eq!(hook_started, poll_started, "seed {seed}");
            if hook_started {
                started += 1;
                let first_phase = |msgs: Vec<(ProcessId, RegisterMsg)>| -> Vec<_> {
                    msgs.into_iter()
                        .filter(|(_, m)| matches!(m, RegisterMsg::Query { op: o, .. } if *o == op))
                        .collect()
                };
                assert_eq!(first_phase(by_hook), first_phase(by_poll), "seed {seed}");
            } else {
                held += 1;
                assert!(by_hook.is_empty(), "seed {seed}");
            }
        }
        assert!(started > 0 && held > 0, "both sides of the guard exercised");
    }

    /// An op the hook started and a timer step then met before any reply
    /// is retransmitted, answered twice, and completes once.
    #[test]
    fn hook_started_op_survives_a_retransmitting_poll() {
        let mut nodes = calm_members(25);
        let key = RegisterId::new(3);
        let op = nodes[0].submit_write(key, 41);
        let first = register_lane(kick(&mut nodes[0]));
        let mut out = Outbox::new();
        nodes[0].poll(&peers(), &mut out);
        let again = register_lane(out.into_messages());
        assert_eq!(first, again, "poll retransmits the whole query phase");
        assert_eq!(first.len(), 3);

        let mut wire: VecDeque<(ProcessId, ProcessId, RegisterMsg)> = first
            .into_iter()
            .chain(again)
            .map(|(to, m)| (pid(0), to, m))
            .collect();
        let mut query_replies = 0;
        while let Some((from, to, msg)) = wire.pop_front() {
            if matches!(msg, RegisterMsg::QueryResp { .. }) {
                query_replies += 1;
            }
            let mut replies = Outbox::new();
            nodes[to.as_u32() as usize].handle(from, SharedMemMsg::Register(msg), &mut replies);
            wire.extend(
                register_lane(replies.into_messages())
                    .into_iter()
                    .map(|(next, m)| (to, next, m)),
            );
        }
        assert_eq!(query_replies, 6, "every member answered both copies");
        let n0 = &mut nodes[0];
        assert_eq!(n0.reads_committed() + n0.writes_committed(), 1);
        assert_eq!(n0.ops_aborted(), 0);
        let outcomes = n0.take_completed();
        assert!(
            matches!(outcomes.as_slice(), [OpOutcome::WriteCommitted { op: done, .. }] if *done == op),
            "{outcomes:?}"
        );
        assert!(!n0.has_pending_ops());
        assert!(nodes.iter().all(|n| n.local_value(key) == Some(41)));
    }

    #[test]
    fn claims_drain_a_backlog_in_completion_order() {
        use simnet::ScenarioTarget;
        let mut sim = cluster(3, 26);
        let node = pid(0);
        for v in 0..6u64 {
            // value % 3 == 2 is a read: writes 0, 1, 3, 4 and reads 2, 5.
            assert!(sim.process_mut(node).unwrap().submit_local(1, v));
        }
        sim.run_until(800, |s| !s.process(node).unwrap().has_pending_ops());
        let n = sim.process_mut(node).unwrap();
        assert_eq!(n.completed.len(), 6);
        assert_eq!(n.complete_local(), Some(true));
        assert_eq!(n.complete_local(), Some(true));
        let rest = n.take_completed();
        assert_eq!(rest.len(), 4);
        assert!(matches!(rest[0], OpOutcome::ReadCommitted { .. }));
        assert_eq!(n.complete_local(), None);
    }
}
