//! Self-stabilizing reconfigurable virtually synchronous state-machine
//! replication (Algorithms 4.6 and 4.7).
//!
//! The service is coordinator-based and works in the primary component of the
//! current configuration:
//!
//! * a configuration member that is trusted by a majority of the
//!   configuration and believes there is no valid coordinator obtains a fresh
//!   **view identifier from the counter service** (Section 4.2) and proposes
//!   a view consisting of the participants it trusts;
//! * followers adopt the proposal with the lexicographically (by `≺ct`)
//!   greatest identifier; once every proposed member echoed the proposal the
//!   coordinator synchronises the replica state (taking the most advanced
//!   replica) and installs the view;
//! * inside an installed view the coordinator runs **multicast rounds**: it
//!   gathers one input per member, applies them in a deterministic order and
//!   disseminates the new replica state, which followers adopt — any two
//!   processors that survive consecutive views deliver the same messages and
//!   hold the same state (virtual synchrony);
//! * for a **coordinator-led delicate reconfiguration** (Algorithm 4.6) the
//!   coordinator suspends input fetching, waits until every view member
//!   reports `suspend`, triggers `estab()` through the reconfiguration node
//!   and, once the new configuration is installed, proposes a fresh view that
//!   carries the preserved state into the new configuration.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use counters::{Counter, CounterMsg, CounterNode, IncrementOutcome};
use reconfig::{ConfigSet, NodeConfig, ReconfigMsg, ReconfigNode, SharedSet};
use simnet::stack::{Layer, Sink};
use simnet::ProcessId;

/// A command submitted to the replicated state machine.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Command {
    /// The processor that submitted the command.
    pub client: ProcessId,
    /// Client-local sequence number (for read-your-writes bookkeeping).
    pub seq: u64,
    /// The operation.
    pub op: Op,
}

/// Operations understood by the replicated state machine: a small key–value
/// store, rich enough to emulate MWMR registers (Section 4.3).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Write `value` into register `key`.
    Write {
        /// Register name.
        key: u32,
        /// Value to store.
        value: u64,
    },
    /// A no-op (used for liveness probes in tests and benchmarks).
    Noop,
}

/// The replicated state: the registers plus the count of applied commands.
///
/// A clone shares the register map: the snapshot a replica broadcasts every
/// step, the `n − 1` copies delivered from it and the state a follower
/// adopts are one allocation until somebody writes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplicaState {
    /// The register contents.
    pub registers: Arc<BTreeMap<u32, u64>>,
    /// Number of commands applied so far (the replication "round trip"
    /// witness used to pick the most advanced replica during state
    /// synchronisation).
    pub applied: u64,
}

impl ReplicaState {
    /// Applies one command.
    pub fn apply(&mut self, cmd: &Command) {
        if let Op::Write { key, value } = cmd.op {
            // Copied first when a snapshot still shares the map.
            Arc::make_mut(&mut self.registers).insert(key, value);
        }
        self.applied += 1;
    }
}

/// A view: an identifier drawn from the counter service plus its member set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// The view identifier (a counter, so views are totally ordered and the
    /// identifier space survives transient faults).
    pub id: Counter,
    /// The members of the view. The set is built once, by the coordinator
    /// that proposes the view; every echo, snapshot and installed copy of
    /// the view shares it.
    pub members: SharedSet,
}

impl View {
    /// The coordinator of the view is the writer of its identifier.
    pub fn coordinator(&self) -> ProcessId {
        self.id.wid
    }

    /// Returns `true` when `self`'s identifier precedes `other`'s.
    pub fn older_than(&self, other: &View) -> bool {
        self.id.ct_less(&other.id)
    }
}

/// The status of a replica (Algorithm 4.7's `status` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Normal operation inside an installed view.
    Multicast,
    /// A view proposal is being echoed.
    Propose,
    /// The coordinator is installing the new view.
    Install,
}

/// The state snapshot broadcast by every participant each step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateMsg {
    /// The sender's installed view, if any.
    pub view: Option<View>,
    /// The sender's proposed view, if any.
    pub prop_view: Option<View>,
    /// The sender's status.
    pub status: Status,
    /// The sender's multicast round number.
    pub rnd: u64,
    /// The sender's replica state.
    pub state: ReplicaState,
    /// The sender's pending input for the current round, if any.
    pub input: Option<Command>,
    /// Whether the sender currently sees no valid coordinator.
    pub no_crd: bool,
    /// Whether the sender has suspended message delivery (pre-reconfiguration).
    pub suspend: bool,
}

// --- wire codec ---------------------------------------------------------

simnet::wire_struct_codec!(Command { client, seq, op });
simnet::wire_struct_codec!(ReplicaState { registers, applied });
simnet::wire_struct_codec!(View { id, members });
simnet::wire_struct_codec!(StateMsg {
    view,
    prop_view,
    status,
    rnd,
    state,
    input,
    no_crd,
    suspend,
});

impl simnet::codec::WireCodec for Op {
    fn encode(&self, out: &mut Vec<u8>) {
        use simnet::codec::WireCodec as W;
        match self {
            Op::Write { key, value } => {
                out.push(0);
                W::encode(key, out);
                W::encode(value, out);
            }
            Op::Noop => out.push(1),
        }
    }
    fn decode(r: &mut simnet::codec::Reader<'_>) -> Result<Self, simnet::codec::DecodeError> {
        use simnet::codec::WireCodec as W;
        match r.u8()? {
            0 => Ok(Op::Write {
                key: W::decode(r)?,
                value: W::decode(r)?,
            }),
            1 => Ok(Op::Noop),
            tag => Err(simnet::codec::DecodeError::UnknownLane { ty: "Op", tag }),
        }
    }
}

impl simnet::codec::WireCodec for Status {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Status::Multicast => 0,
            Status::Propose => 1,
            Status::Install => 2,
        });
    }
    fn decode(r: &mut simnet::codec::Reader<'_>) -> Result<Self, simnet::codec::DecodeError> {
        match r.u8()? {
            0 => Ok(Status::Multicast),
            1 => Ok(Status::Propose),
            2 => Ok(Status::Install),
            tag => Err(simnet::codec::DecodeError::UnknownLane { ty: "Status", tag }),
        }
    }
}

simnet::wire_enum! {
    /// Messages exchanged by [`SmrNode`]s: the reconfiguration stack, the
    /// counter service and the replication layer share one wire format,
    /// multiplexed through the shared [`simnet::stack`] mechanism.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SmrMsg {
        /// Reconfiguration scheme traffic.
        Reconfig(ReconfigMsg),
        /// Counter service traffic (view identifiers).
        Counter(CounterMsg),
        /// Replication state broadcast: one snapshot per step, shared by
        /// every packet of the broadcast and by every receiver's `peers`
        /// entry.
        State(Arc<StateMsg>),
    }
}

/// One replica of the self-stabilizing reconfigurable VS-SMR service.
#[derive(Debug, Clone)]
pub struct SmrNode {
    me: ProcessId,
    reconfig: ReconfigNode,
    counter: CounterNode,
    /// Installed view and replication status.
    view: Option<View>,
    prop_view: Option<View>,
    status: Status,
    rnd: u64,
    state: ReplicaState,
    /// Commands submitted locally and not yet handed to a multicast round.
    pending: VecDeque<Command>,
    next_seq: u64,
    current_input: Option<Command>,
    /// Most recent state snapshot received from each peer.
    peers: BTreeMap<ProcessId, Arc<StateMsg>>,
    /// Reconfiguration handshake flags (Algorithm 4.6/4.7).
    suspend: bool,
    reconf_requested: bool,
    /// Set after the view-id increment was requested but not yet granted.
    awaiting_view_id: bool,
    /// Observability counters.
    views_installed: u64,
    commands_applied_total: u64,
    /// Locally submitted commands delivered to the replicated state but not
    /// yet claimed through [`simnet::ScenarioTarget::claim_local`]. Not part
    /// of the digestible protocol state (`state_line` ignores it).
    unclaimed_completions: u64,
}

impl SmrNode {
    /// Creates a replica that is one of the initial configuration members.
    pub fn new_member(me: ProcessId, initial_config: ConfigSet, node_config: NodeConfig) -> Self {
        let reconfig = ReconfigNode::new_with_config(me, initial_config.clone(), node_config);
        let counter = CounterNode::new(me, initial_config);
        SmrNode {
            me,
            reconfig,
            counter,
            view: None,
            prop_view: None,
            status: Status::Multicast,
            rnd: 0,
            state: ReplicaState::default(),
            pending: VecDeque::new(),
            next_seq: 0,
            current_input: None,
            peers: BTreeMap::new(),
            suspend: false,
            reconf_requested: false,
            awaiting_view_id: false,
            views_installed: 0,
            commands_applied_total: 0,
            unclaimed_completions: 0,
        }
    }

    /// Creates a replica that joins an already running system.
    pub fn new_joiner(me: ProcessId, node_config: NodeConfig) -> Self {
        let reconfig = ReconfigNode::new_joiner(me, node_config);
        let counter = CounterNode::new(me, ConfigSet::new());
        SmrNode {
            me,
            reconfig,
            counter,
            view: None,
            prop_view: None,
            status: Status::Multicast,
            rnd: 0,
            state: ReplicaState::default(),
            pending: VecDeque::new(),
            next_seq: 0,
            current_input: None,
            peers: BTreeMap::new(),
            suspend: false,
            reconf_requested: false,
            awaiting_view_id: false,
            views_installed: 0,
            commands_applied_total: 0,
            unclaimed_completions: 0,
        }
    }

    /// This replica's identifier.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The currently installed view, if any.
    pub fn view(&self) -> Option<&View> {
        self.view.as_ref()
    }

    /// The replica state (register contents).
    pub fn state(&self) -> &ReplicaState {
        &self.state
    }

    /// Reads a register from the local replica.
    pub fn read_register(&self, key: u32) -> Option<u64> {
        self.state.registers.get(&key).copied()
    }

    /// Number of views installed by this replica.
    pub fn views_installed(&self) -> u64 {
        self.views_installed
    }

    /// Total number of commands applied by this replica.
    pub fn commands_applied(&self) -> u64 {
        self.state.applied
    }

    /// The underlying reconfiguration node (white-box access).
    pub fn reconfig(&self) -> &ReconfigNode {
        &self.reconfig
    }

    /// Returns `true` when this replica currently acts as the coordinator of
    /// an installed view.
    pub fn is_coordinator(&self) -> bool {
        self.view
            .as_ref()
            .map(|v| v.coordinator() == self.me)
            .unwrap_or(false)
    }

    /// Submits a write of `value` to register `key`. The command is applied
    /// once it goes through a multicast round of the installed view.
    pub fn submit_write(&mut self, key: u32, value: u64) {
        let cmd = Command {
            client: self.me,
            seq: self.next_seq,
            op: Op::Write { key, value },
        };
        self.next_seq += 1;
        self.pending.push_back(cmd);
    }

    /// Asks the coordinator to perform a delicate reconfiguration onto the
    /// currently trusted participant set (Algorithm 4.6). Non-coordinators
    /// ignore the request. Returns `true` when the request was recorded.
    pub fn request_coordinator_reconfiguration(&mut self) -> bool {
        if self.is_coordinator() {
            self.reconf_requested = true;
            true
        } else {
            false
        }
    }

    fn current_config(&self) -> Option<&ConfigSet> {
        self.reconfig.installed_config_ref()
    }

    /// The configuration members this replica trusts, in ascending order.
    fn trusted_members<'a>(
        config: &'a ConfigSet,
        trusted: &'a BTreeSet<ProcessId>,
    ) -> impl Iterator<Item = ProcessId> + 'a {
        config.iter().copied().filter(|m| trusted.contains(m))
    }

    /// A view identifier is *legit* for `config` when both its writer (the
    /// coordinator) and the creator of its epoch label are configuration
    /// members. A label created by a non-member is discarded by the counter
    /// service, so identifiers carrying it can never be compared against the
    /// identifiers the restarted counter hands out — comparing against such
    /// a view wedges view changes forever (labels of different creators are
    /// ordered by creator, so the stale identifier may dominate every fresh
    /// one; the chaos campaigns caught this after a configuration shrank).
    fn view_id_legit(config: &ConfigSet, view: &View) -> bool {
        config.contains(&view.coordinator()) && config.contains(&view.id.label.creator)
    }

    /// Whether our own installed view is void: its identifier is no longer
    /// legit under the installed configuration.
    fn own_view_void(&self) -> bool {
        match (&self.view, self.current_config()) {
            (Some(v), Some(cfg)) => !Self::view_id_legit(cfg, v),
            _ => false,
        }
    }

    /// The greatest valid view or proposal currently visible (own or
    /// received), used both for adoption and for coordinator validity.
    ///
    /// Two filters keep stale information from wedging the replica: a view
    /// this processor does not belong to is never a candidate (it could be
    /// adopted but never installed here), and a peer's *proposal* counts
    /// only when that peer is its coordinator — follower echoes must not
    /// resurrect a proposal its coordinator already abandoned.
    fn best_visible_view(&self, config: &ConfigSet) -> Option<&View> {
        let received = self.peers.iter().flat_map(|(pid, msg)| {
            let proposed = msg.prop_view.iter().filter(|pv| pv.coordinator() == *pid);
            msg.view.iter().chain(proposed)
        });
        let mut best: Option<&View> = None;
        for v in self.view.iter().chain(&self.prop_view).chain(received) {
            if Self::view_id_legit(config, v)
                && v.members.contains(&self.me)
                && best.map_or(true, |b| b.older_than(v))
            {
                best = Some(v);
            }
        }
        best
    }

    fn snapshot(&self) -> StateMsg {
        StateMsg {
            view: self.view.clone(),
            prop_view: self.prop_view.clone(),
            status: self.status,
            rnd: self.rnd,
            state: self.state.clone(),
            input: self.current_input.clone(),
            no_crd: self.no_valid_coordinator(),
            suspend: self.suspend,
        }
    }

    fn no_valid_coordinator(&self) -> bool {
        let Some(cfg) = self.current_config() else {
            return true;
        };
        match &self.view {
            None => true,
            Some(v) => {
                let crd = v.coordinator();
                !self.reconfig.trusted_shared().contains(&crd) || !Self::view_id_legit(cfg, v)
            }
        }
    }

    fn replication_step(&mut self, cfg: &ConfigSet, out: &mut impl Sink<SmrMsg>) {
        // Drop a proposal whose identifier is no longer legit under the
        // installed configuration (e.g. adopted from the losing side of a
        // partition before a configuration replacement): it can neither be
        // installed nor compared against fresh identifiers, and while it
        // occupies the slot no election can start.
        if self
            .prop_view
            .as_ref()
            .map(|pv| !Self::view_id_legit(cfg, pv))
            .unwrap_or(false)
        {
            self.prop_view = None;
            if self.status == Status::Propose {
                self.status = Status::Multicast;
            }
        }

        // Drop a foreign proposal its coordinator no longer stands behind:
        // the proposer's own gossip shows neither this proposal nor an
        // installed view equal to it, or the proposer is no longer trusted.
        // Only the coordinator can install its proposal, so a follower that
        // keeps echoing an abandoned one waits forever — and a stuck
        // `prop_view` also blocks the election path.
        if let Some(pv) = self.prop_view.clone() {
            let crd = pv.coordinator();
            if crd != self.me {
                let abandoned = match self.peers.get(&crd) {
                    Some(snap) => {
                        snap.prop_view.as_ref() != Some(&pv) && snap.view.as_ref() != Some(&pv)
                    }
                    None => false,
                };
                if abandoned || !self.reconfig.trusted_shared().contains(&crd) {
                    self.prop_view = None;
                    if self.status == Status::Propose {
                        self.status = Status::Multicast;
                    }
                }
            }
        }

        // Keep the counter service aware of the identifiers this replica
        // itself still holds (they may predate a labeler rebuild). Borrow
        // the view fields and the counter disjointly — no cloning on this
        // per-replica-per-round path.
        let SmrNode {
            view,
            prop_view,
            counter,
            ..
        } = self;
        for v in view.iter().chain(prop_view.iter()) {
            counter.observe(&v.id);
        }

        // Collect any view identifier the counter service granted us.
        for outcome in self.counter.take_completed() {
            if let IncrementOutcome::Committed(counter) = outcome {
                if self.awaiting_view_id {
                    self.awaiting_view_id = false;
                    let trusted = self.reconfig.trusted_shared();
                    let members: BTreeSet<_> = Self::trusted_members(cfg, &trusted).collect();
                    if !members.is_empty() {
                        self.prop_view = Some(View {
                            id: counter,
                            members: Arc::new(members),
                        });
                        self.status = Status::Propose;
                    }
                }
            } else {
                self.awaiting_view_id = false;
            }
        }

        // Adopt the greatest visible proposal if it supersedes ours.
        if let Some(best) = self.best_visible_view(cfg) {
            let adopt = match (&self.view, &self.prop_view) {
                (Some(v), _) if v.older_than(best) && v != best => true,
                (None, Some(p)) if p.older_than(best) && p != best => true,
                (None, None) => true,
                _ => false,
            };
            if adopt && best.coordinator() != self.me {
                self.prop_view = Some(best.clone());
                if self.status == Status::Multicast && self.view.is_none() {
                    self.status = Status::Propose;
                }
            }
        }

        // Coordinator-side work.
        if self.acts_as_coordinator(cfg) {
            self.coordinator_step(cfg, out);
        } else {
            self.follower_step(cfg);
        }

        // Election: when nobody coordinates, a member that sees a majority
        // (and whose peers agree there is no coordinator) requests a view
        // identifier from the counter service.
        if self.no_valid_coordinator() && self.prop_view.is_none() && !self.awaiting_view_id {
            let trusted = self.reconfig.trusted_shared();
            if reconfig::has_majority(cfg, &trusted) && self.i_should_lead(cfg, &trusted) {
                self.awaiting_view_id = true;
                self.counter.request_increment(&mut out.nest());
            }
        }
    }

    /// Deterministic tie-break for elections: the smallest trusted member
    /// that itself trusts a majority proposes first (others fall back if it
    /// is suspected later).
    fn i_should_lead(&self, cfg: &ConfigSet, trusted: &BTreeSet<ProcessId>) -> bool {
        Self::trusted_members(cfg, trusted).next() == Some(self.me)
    }

    fn acts_as_coordinator(&self, cfg: &ConfigSet) -> bool {
        let leading_view = match (&self.prop_view, &self.view) {
            (Some(p), _) => Some(p),
            (None, Some(v)) => Some(v),
            (None, None) => None,
        };
        match leading_view {
            Some(v) => v.coordinator() == self.me && cfg.contains(&self.me),
            None => false,
        }
    }

    fn coordinator_step(&mut self, cfg: &ConfigSet, out: &mut impl Sink<SmrMsg>) {
        match self.status {
            Status::Propose => {
                let Some(prop) = self.prop_view.clone() else {
                    return;
                };
                // A proposed member that is no longer trusted (crashed or
                // partitioned away) can never echo: abandon the proposal and
                // let the election path form a fresh one from the current
                // trusted set.
                let trusted = self.reconfig.trusted_shared();
                if prop.members.iter().any(|m| !trusted.contains(m)) {
                    self.prop_view = None;
                    self.status = Status::Multicast;
                    return;
                }
                // A proposal that does not supersede our own installed view
                // can never be echoed — the members run the same newer-than
                // check before echoing. Abandon it and let the election
                // request a fresh identifier. This closes a one-way-cut
                // wedge: the cut-off side's labeler may mint a fresh label
                // while partitioned, and a view identifier drawn under it is
                // incomparable to the installed view's, so waiting for its
                // echoes would block the multicast loop forever.
                let supersedes = self.own_view_void()
                    || match &self.view {
                        Some(v) => v.older_than(&prop),
                        None => true,
                    };
                if !supersedes {
                    self.prop_view = None;
                    self.status = Status::Multicast;
                    return;
                }
                // Wait until every proposed member echoes the proposal.
                let all_echoed = prop.members.iter().all(|m| {
                    *m == self.me
                        || self
                            .peers
                            .get(m)
                            .and_then(|s| s.prop_view.as_ref())
                            .map(|p| *p == prop)
                            .unwrap_or(false)
                });
                if all_echoed {
                    // synchState: adopt the most advanced replica among the
                    // view members (including ourselves).
                    let mut best_state = self.state.clone();
                    for m in prop.members.iter() {
                        if let Some(s) = self.peers.get(m) {
                            if s.state.applied > best_state.applied {
                                best_state = s.state.clone();
                            }
                        }
                    }
                    self.state = best_state;
                    self.status = Status::Install;
                }
            }
            Status::Install => {
                let Some(prop) = self.prop_view.clone() else {
                    return;
                };
                // Followers adopt the installation from our broadcast; we can
                // switch to multicast immediately.
                self.view = Some(prop);
                self.prop_view = None;
                self.status = Status::Multicast;
                self.rnd = 0;
                self.suspend = false;
                self.views_installed += 1;
            }
            Status::Multicast => {
                let Some(view) = self.view.clone() else {
                    return;
                };
                // Reconfiguration management (Algorithm 4.6): when asked to
                // reconfigure, suspend inputs, wait for every member to
                // suspend, then trigger the delicate reconfiguration.
                if self.reconf_requested {
                    self.suspend = true;
                    let everyone_suspended = view.members.iter().all(|m| {
                        *m == self.me || self.peers.get(m).map(|s| s.suspend).unwrap_or(false)
                    });
                    if everyone_suspended {
                        let target: ConfigSet = self.reconfig.participants();
                        if !target.is_empty() && target != *cfg {
                            if self.reconfig.request_reconfiguration(target) {
                                self.reconf_requested = false;
                            }
                        } else {
                            // Nothing to change: resume.
                            self.reconf_requested = false;
                            self.suspend = false;
                        }
                    }
                    return;
                }

                // A view that no longer matches the trusted membership (e.g.
                // after a reconfiguration or a member crash) is replaced by a
                // new proposal.
                let trusted = self.reconfig.trusted_shared();
                let mut desired = Self::trusted_members(cfg, &trusted).peekable();
                if desired.peek().is_some()
                    && !desired.eq(view.members.iter().copied())
                    && !self.awaiting_view_id
                {
                    self.awaiting_view_id = true;
                    self.counter.request_increment(&mut out.nest());
                    return;
                }

                // One multicast round: gather one input per member (our own
                // pending command, and the `input` of each member's latest
                // snapshot taken in this round), apply them in a
                // deterministic order, and advance the round.
                //
                // Round `rnd` applies only inputs reported for round `rnd`
                // (Algorithm 4.7): a follower reports the coordinator's round
                // once it adopted the coordinator's state (lines 18–22), and
                // every applied input advances `rnd`, so the input of a
                // snapshot from another round is already applied or not yet
                // offered. A slow follower's old snapshot would otherwise
                // re-apply its command at every coordinator step.
                let mut inputs: Vec<Command> = Vec::new();
                if self.current_input.is_none() {
                    self.current_input = self.pending.pop_front();
                }
                if let Some(cmd) = self.current_input.take() {
                    // The command enters this multicast round and is applied
                    // below: delivered from the submitter's point of view.
                    self.unclaimed_completions += 1;
                    inputs.push(cmd);
                }
                for m in view.members.iter() {
                    if *m == self.me {
                        continue;
                    }
                    if let Some(s) = self.peers.get(m).filter(|s| s.rnd == self.rnd) {
                        if let Some(cmd) = &s.input {
                            inputs.push(cmd.clone());
                        }
                    }
                }
                inputs.sort();
                inputs.dedup();
                if !inputs.is_empty() || !self.suspend {
                    for cmd in &inputs {
                        self.state.apply(cmd);
                        self.commands_applied_total += 1;
                    }
                    if !inputs.is_empty() {
                        self.rnd += 1;
                    }
                }
            }
        }
    }

    fn follower_step(&mut self, cfg: &ConfigSet) {
        let _ = cfg;
        // Followers fetch a new input only while not suspended.
        if self.current_input.is_none() && !self.suspend {
            self.current_input = self.pending.pop_front();
        }
    }

    fn on_state(&mut self, from: ProcessId, s: Arc<StateMsg>) {
        // View identifiers are counters: the counter service must observe
        // every identifier still in circulation so its maximum (and hence
        // the next granted identifier) dominates them all.
        for view in s.view.iter().chain(s.prop_view.iter()) {
            self.counter.observe(&view.id);
        }
        // Follow the coordinator: adopt its view, state and suspend flag.
        let from_is_coordinator = s
            .view
            .as_ref()
            .map(|v| v.coordinator() == from)
            .unwrap_or(false)
            || s.prop_view
                .as_ref()
                .map(|v| v.coordinator() == from)
                .unwrap_or(false);
        // Never adopt a view or proposal that is illegitimate under our own
        // installed configuration: an ex-coordinator that fell out of the
        // configuration keeps gossiping its stale view, and adopting it
        // would wipe the election progress of the remaining members every
        // round.
        let legit_here = |v: &View| match self.current_config() {
            Some(cfg) => Self::view_id_legit(cfg, v),
            None => true,
        };
        if from_is_coordinator {
            match s.status {
                Status::Propose => {
                    if let Some(p) = &s.prop_view {
                        if p.members.contains(&self.me) && legit_here(p) {
                            let newer = self.own_view_void()
                                || match &self.view {
                                    Some(v) => v.older_than(p),
                                    None => true,
                                };
                            if newer {
                                self.prop_view = Some(p.clone());
                                self.status = Status::Propose;
                            }
                        }
                    }
                }
                Status::Install | Status::Multicast => {
                    if let Some(v) = &s.view {
                        if v.members.contains(&self.me) && legit_here(v) {
                            let newer = self.own_view_void()
                                || match &self.view {
                                    Some(cur) => cur.older_than(v) || cur == v,
                                    None => true,
                                };
                            if newer {
                                let view_changed = self.view.as_ref() != Some(v);
                                if view_changed {
                                    self.views_installed += 1;
                                }
                                self.view = Some(v.clone());
                                self.prop_view = None;
                                self.status = Status::Multicast;
                                // Adopt the coordinator's replica state and
                                // round (the reliable-multicast adoption of
                                // Algorithm 4.7, lines 18–22).
                                if s.state.applied >= self.state.applied {
                                    self.state = s.state.clone();
                                }
                                self.rnd = s.rnd;
                                self.suspend = s.suspend;
                                // Our input was delivered once the
                                // coordinator's applied count passed it.
                                if let Some(cmd) = &self.current_input {
                                    if self
                                        .state
                                        .registers
                                        .iter()
                                        .any(|(k, v)| matches!(cmd.op, Op::Write { key, value } if key == *k && value == *v))
                                        || matches!(cmd.op, Op::Noop)
                                    {
                                        self.unclaimed_completions += 1;
                                        self.current_input = None;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        self.peers.insert(from, s);
    }
}

impl Layer for SmrNode {
    type Wire = SmrMsg;

    fn poll<O: Sink<SmrMsg>>(&mut self, peers: &[ProcessId], out: &mut O) {
        // 1. Reconfiguration stack, sending through our wire format.
        Layer::poll(&mut self.reconfig, peers, &mut out.nest());

        // 2. Counter service: keep it aligned with the current configuration
        //    and the reconfiguration status.
        // A configuration replacement that keeps this node a member must
        // still reach the counter service: view identifiers are drawn from
        // majorities of the *installed* configuration, and a counter stuck
        // on the old member set waits for a majority that can never answer
        // again (the chaos campaigns caught exactly this as an endless
        // elect-and-abort loop after a partition shrank the configuration).
        // The handle keeps the installed configuration readable while the
        // counter and replication layers are stepped.
        let installed = self.reconfig.recsa().own_config_shared().clone();
        let config = installed.as_set();
        if let Some(cfg) = config {
            if self.counter.config() != cfg {
                self.counter.on_config_change(cfg.clone());
            }
        }
        self.counter
            .set_reconfiguring(!self.reconfig.no_reconfiguration());
        Layer::poll(&mut self.counter, &[], &mut out.nest());

        // 3. Replication layer.
        if let Some(cfg) = config {
            if cfg.contains(&self.me) {
                self.replication_step(cfg, out);
            } else {
                // Not a member: follow the installed view passively (state is
                // adopted in `handle`); nothing to drive.
            }
        }

        // 4. Broadcast the replication snapshot to the configuration members
        //    and view members.
        if self.reconfig.is_participant() {
            // Every trusted peer receives the same snapshot: it is built
            // once, and each packet carries a handle to it, so a delivery
            // is a refcount bump. (`push_to_all` would put the handle
            // behind a second `Arc`.) Pushing per peer needs no audience
            // list: the trusted set is walked in place.
            let trusted = self.reconfig.trusted_shared();
            let mut audience = trusted.iter().copied().filter(|p| *p != self.me).peekable();
            if audience.peek().is_some() {
                let snapshot = Arc::new(self.snapshot());
                for to in audience {
                    out.push(to, Arc::clone(&snapshot));
                }
            }
        }
    }

    fn handle<O: Sink<SmrMsg>>(&mut self, from: ProcessId, msg: SmrMsg, out: &mut O) {
        match msg {
            SmrMsg::Reconfig(m) => Layer::handle(&mut self.reconfig, from, m, &mut out.nest()),
            SmrMsg::Counter(m) => Layer::handle(&mut self.counter, from, m, &mut out.nest()),
            SmrMsg::State(s) => self.on_state(from, s),
        }
    }
}

simnet::impl_process_for_layer!(SmrNode);

/// The registers the chaos workload writes to (round-robin).
const CHAOS_KEYS: [u32; 3] = [1, 2, 3];

impl simnet::ScenarioTarget for SmrNode {
    const NAME: &'static str = "smr";

    fn spawn_initial(id: ProcessId, n: usize) -> Self {
        SmrNode::new_member(
            id,
            reconfig::config_set(0..n as u32),
            NodeConfig::for_n(2 * n.max(4)),
        )
    }

    fn spawn_joiner(id: ProcessId, n: usize) -> Self {
        SmrNode::new_joiner(id, NodeConfig::for_n(2 * n.max(4)))
    }

    /// Transient faults hit the replication layer: the peer-snapshot cache,
    /// the multicast round number, register contents and (half the time) the
    /// installed view itself. The `applied` witness is left alone so the
    /// reliable-multicast adoption (Algorithm 4.7, lines 18–22) re-syncs the
    /// corrupted replica from the coordinator's next broadcast; losing the
    /// view triggers the election / view-proposal path instead.
    fn corrupt(&mut self, rng: &mut simnet::SimRng) {
        self.peers.clear();
        self.rnd = rng.range_inclusive(0, 1 << 20);
        for key in CHAOS_KEYS {
            if rng.chance(0.5) {
                Arc::make_mut(&mut self.state.registers)
                    .insert(key, rng.range_inclusive(10_000, 20_000));
            }
        }
        if rng.chance(0.5) {
            self.view = None;
            self.prop_view = None;
            self.status = Status::Multicast;
            self.awaiting_view_id = false;
        }
    }

    /// In-flight payload corruption: half the affected packets collapse to
    /// a bare heartbeat (content destroyed, liveness witness kept); the
    /// rest keep the sender-misattributed payload the corruption plan
    /// shuffled in. Stale `State` broadcasts and view traffic from the
    /// wrong sender are exactly what the view-legitimacy checks filter.
    fn corrupt_payload(msg: &mut SmrMsg, rng: &mut simnet::SimRng) -> bool {
        if rng.chance(0.5) {
            *msg = SmrMsg::Reconfig(ReconfigMsg::Heartbeat);
            true
        } else {
            false
        }
    }

    /// Byzantine forging. A forged-sender packet is a bare heartbeat into
    /// the embedded reconfiguration stack. Stale state is the
    /// *view-equivocation* attack virtual synchrony exists to prevent: a
    /// `State` broadcast advertising the target's current view identifier
    /// with a **different** member set (and a stale multicast round). The
    /// replica must refuse to adopt it — the view-legitimacy checks accept
    /// a view only from its coordinator under the installed configuration —
    /// or the view-id-uniqueness invariant trips at the end of the run.
    fn forge_payload(
        forge: simnet::ForgeKind,
        _claimed_sender: ProcessId,
        target: ProcessId,
        sim: &simnet::Simulation<Self>,
        _rng: &mut simnet::SimRng,
    ) -> Option<SmrMsg> {
        match forge {
            simnet::ForgeKind::ForgedSender => Some(SmrMsg::Reconfig(ReconfigMsg::Heartbeat)),
            simnet::ForgeKind::StaleState => {
                let node = sim.process(target)?;
                let view = node.view()?;
                let mut members = (*view.members).clone();
                members.pop_first()?;
                if members.is_empty() {
                    return None;
                }
                Some(SmrMsg::State(Arc::new(StateMsg {
                    view: Some(View {
                        id: view.id.clone(),
                        members: Arc::new(members),
                    }),
                    prop_view: None,
                    status: Status::Multicast,
                    rnd: 0,
                    state: node.state().clone(),
                    input: None,
                    no_crd: false,
                    suspend: false,
                })))
            }
            simnet::ForgeKind::Replay => None,
        }
    }

    /// Submit a write every few rounds at an arbitrary replica that is part
    /// of the currently installed view (only view members' inputs are read
    /// by the multicast rounds).
    fn drive_workload(
        sim: &mut simnet::Simulation<Self>,
        round: simnet::Round,
        rng: &mut simnet::SimRng,
    ) {
        if round.as_u64() % 5 != 3 {
            return;
        }
        let writers: Vec<ProcessId> = sim
            .active_processes()
            .filter(|(id, p)| p.view().map(|v| v.members.contains(id)).unwrap_or(false))
            .map(|(id, _)| id)
            .collect();
        if let Some(i) = rng.index(writers.len()) {
            let key = CHAOS_KEYS[(round.as_u64() / 5) as usize % CHAOS_KEYS.len()];
            if let Some(node) = sim.process_mut(writers[i]) {
                node.submit_write(key, round.as_u64());
            }
        }
    }

    /// Open-loop client load: an SMR write submitted at a current view
    /// member (non-members reject, like a real front-end refusing a
    /// request it cannot serve). Keys spread over a wide register space
    /// disjoint from `CHAOS_KEYS`, and the run-unique `value` keeps the
    /// follower's delivered-input match (Algorithm 4.7) unambiguous. The
    /// op completes when the command is delivered to the replicated state.
    fn submit_local(&mut self, key: u64, value: u64) -> bool {
        let member = self
            .view
            .as_ref()
            .map(|v| v.members.contains(&self.me))
            .unwrap_or(false);
        if !member {
            return false;
        }
        // Load registers start above the chaos set so state corruption of
        // CHAOS_KEYS never forges a pending op's completion witness.
        self.submit_write(4 + (key % 61) as u32, value);
        true
    }

    fn claim_local(&mut self) -> Option<simnet::OpResponse> {
        if self.unclaimed_completions == 0 {
            return None;
        }
        self.unclaimed_completions -= 1;
        Some(simnet::OpResponse {
            ok: true,
            observed: None,
            indeterminate: false,
        })
    }

    // `start_local` keeps its do-nothing default: a submitted input has no
    // first phase of its own to send — it rides the periodic state
    // broadcast of the multicast round (Alg. 4.7), which only the timer
    // step emits.

    /// The node-local conjunct of [`ScenarioTarget::converged`]: the reconfiguration
    /// layer is calm and installed, and — for configuration members — a
    /// view is installed with no undelivered inputs.
    ///
    /// [`ScenarioTarget::converged`]: simnet::ScenarioTarget::converged
    fn settled(&self) -> bool {
        let r = self.reconfig();
        if !r.is_participant() || !r.no_reconfiguration() {
            return false;
        }
        let Some(config) = r.installed_config_ref() else {
            return false;
        };
        if !config.contains(&self.me) {
            return true;
        }
        self.view.is_some() && self.current_input.is_none() && self.pending.is_empty()
    }

    /// The agreement token: the installed configuration plus — for members
    /// — the view identifier/membership and the replica state. Non-members
    /// report only the configuration component, mirroring
    /// [`ScenarioTarget::converged`]'s two loops.
    ///
    /// [`ScenarioTarget::converged`]: simnet::ScenarioTarget::converged
    fn settle_token(&self) -> String {
        let r = self.reconfig();
        let Some(config) = r.installed_config() else {
            return String::new();
        };
        let cfg = reconfig::types::ConfigValue::Set(config.clone());
        if !config.contains(&self.me) {
            return format!("config={cfg}");
        }
        let view = match &self.view {
            Some(v) => format!(
                "{}:{}:{}:{}@{:?}",
                v.id.label.creator,
                v.id.label.sting,
                v.id.seqn,
                v.id.wid,
                v.members.iter().map(|p| p.as_u32()).collect::<Vec<_>>()
            ),
            None => "none".to_string(),
        };
        format!(
            "config={cfg}\nview={view}\nstate=applied:{} registers:{:?}",
            self.state.applied, self.state.registers
        )
    }

    /// Converged: every active processor is [`settled`](simnet::ScenarioTarget::settled) under
    /// the same installed configuration, and every active member of it sits
    /// in the same view with the same replica state.
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
        let mut reference: Option<(&View, &ReplicaState)> = None;
        for (id, node) in sim.active_processes() {
            if !config.contains(&id) {
                continue;
            }
            let Some(view) = node.view() else {
                return false;
            };
            match &reference {
                None => reference = Some((view, node.state())),
                Some((v, s)) => {
                    if view != *v || node.state() != *s {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Safety: view identifiers are drawn from the counter service, so two
    /// replicas holding a view with the *same* identifier must agree on its
    /// member set — the virtual-synchrony property the identifier exists to
    /// provide.
    fn invariant_violations(sim: &simnet::Simulation<Self>) -> Vec<String> {
        let mut by_id: BTreeMap<String, (ProcessId, &SharedSet)> = BTreeMap::new();
        let mut violations = Vec::new();
        for (id, node) in sim.active_processes() {
            for view in node.view().into_iter().chain(node.prop_view.as_ref()) {
                let key = format!("{:?}", view.id);
                match by_id.get(&key) {
                    None => {
                        by_id.insert(key, (id, &view.members));
                    }
                    Some((holder, members)) => {
                        if **members != view.members {
                            violations.push(format!(
                                "view id reused with different members by {holder} and {id}"
                            ));
                        }
                    }
                }
            }
        }
        violations
    }

    fn state_line(id: simnet::ProcessId, p: &Self) -> String {
        format!(
            "{id} view={:?} status={:?} rnd={} state={:?} applied={} input={:?}",
            p.view, p.status, p.rnd, p.state.registers, p.state.applied, p.current_input
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reconfig::config_set;
    use simnet::stack::Outbox;
    use simnet::{SimConfig, Simulation};

    fn cluster(n: u32, seed: u64) -> Simulation<SmrNode> {
        let cfg = config_set(0..n);
        let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
        for i in 0..n {
            let id = ProcessId::new(i);
            sim.add_process_with_id(
                id,
                SmrNode::new_member(id, cfg.clone(), NodeConfig::for_n(16)),
            );
        }
        sim
    }

    fn common_view(sim: &Simulation<SmrNode>) -> Option<View> {
        let mut views = BTreeSet::new();
        for id in sim.active_ids() {
            match sim.process(id).unwrap().view() {
                Some(v) => {
                    views.insert(format!("{:?}", v));
                    if views.len() > 1 {
                        return None;
                    }
                }
                None => return None,
            }
        }
        sim.process(sim.active_ids()[0]).unwrap().view().cloned()
    }

    /// Lane routing: one message of every `SmrMsg` variant, delivered
    /// through `Process::on_message`, reaches the sub-layer that owns its
    /// lane — the embedded reconfiguration node, the embedded counter
    /// service, or the replication layer's peer snapshots.
    #[test]
    fn every_wire_variant_reaches_its_sub_layer() {
        use counters::QuorumMsg;
        use simnet::{Context, Process, Round};
        let (me, peer) = (ProcessId::new(0), ProcessId::new(1));
        let ids = [me, peer];
        let member = SmrNode::new_member(me, config_set([0, 1]), NodeConfig::for_n(4));
        // Delivers `msg` from `peer` to a copy of `member`, returning the
        // copy and what it sent.
        let deliver = |msg: SmrMsg| {
            let mut after = member.clone();
            let mut ctx = Context::new(me, Round::ZERO, &ids);
            Process::on_message(&mut after, peer, msg, &mut ctx);
            let sent: Vec<(ProcessId, SmrMsg)> = ctx
                .into_outbox()
                .into_iter()
                .map(|(to, payload)| (to, payload.into_msg()))
                .collect();
            (after, sent)
        };

        let heard = |n: &SmrNode| n.reconfig.failure_detector().count(peer);
        let (after, _) = deliver(SmrMsg::Reconfig(ReconfigMsg::Heartbeat));
        assert_eq!((heard(&member), heard(&after)), (None, Some(0)));

        let request = CounterMsg::Quorum(QuorumMsg::ReadRequest { op: 41 });
        let (_, sent) = deliver(SmrMsg::Counter(request));
        assert!(
            matches!(
                sent.as_slice(),
                [(to, SmrMsg::Counter(CounterMsg::Quorum(QuorumMsg::ReadReply { op: 41, .. })))]
                    if *to == peer
            ),
            "{sent:?}"
        );

        let snapshot = Arc::new(
            SmrNode::new_member(peer, config_set([0, 1]), NodeConfig::for_n(4)).snapshot(),
        );
        let (after, _) = deliver(SmrMsg::State(Arc::clone(&snapshot)));
        assert!(member.peers.is_empty());
        assert!(Arc::ptr_eq(&after.peers[&peer], &snapshot));
    }

    #[test]
    fn members_install_a_common_view_with_a_coordinator() {
        let mut sim = cluster(4, 21);
        let rounds = sim.run_until(400, |s| common_view(s).is_some());
        assert!(rounds < 400, "no common view was installed");
        let view = common_view(&sim).unwrap();
        assert_eq!(*view.members, config_set(0..4));
        let coordinators: Vec<ProcessId> = sim
            .active_ids()
            .into_iter()
            .filter(|id| sim.process(*id).unwrap().is_coordinator())
            .collect();
        assert_eq!(coordinators.len(), 1, "exactly one coordinator expected");
    }

    #[test]
    fn submitted_writes_replicate_to_every_member() {
        let mut sim = cluster(3, 22);
        sim.run_until(400, |s| common_view(s).is_some());
        sim.process_mut(ProcessId::new(1))
            .unwrap()
            .submit_write(7, 42);
        sim.process_mut(ProcessId::new(2))
            .unwrap()
            .submit_write(9, 99);
        let rounds = sim.run_until(400, |s| {
            s.active_ids().iter().all(|id| {
                let n = s.process(*id).unwrap();
                n.read_register(7) == Some(42) && n.read_register(9) == Some(99)
            })
        });
        assert!(rounds < 400, "writes did not replicate to every member");
    }

    #[test]
    fn coordinator_crash_elects_a_new_one_and_keeps_state() {
        let mut sim = cluster(4, 23);
        sim.run_until(400, |s| common_view(s).is_some());
        sim.process_mut(ProcessId::new(0))
            .unwrap()
            .submit_write(1, 11);
        sim.run_until(400, |s| {
            s.active_ids()
                .iter()
                .all(|id| s.process(*id).unwrap().read_register(1) == Some(11))
        });
        let crd = sim
            .active_ids()
            .into_iter()
            .find(|id| sim.process(*id).unwrap().is_coordinator())
            .expect("a coordinator exists");
        sim.crash(crd);
        let rounds = sim.run_until(800, |s| {
            let coords: Vec<_> = s
                .active_ids()
                .into_iter()
                .filter(|id| s.process(*id).unwrap().is_coordinator())
                .collect();
            coords.len() == 1
        });
        assert!(rounds < 800, "no new coordinator was elected");
        // The replicated state survived the coordinator change.
        for id in sim.active_ids() {
            assert_eq!(sim.process(id).unwrap().read_register(1), Some(11));
        }
    }

    #[test]
    fn coordinator_led_reconfiguration_preserves_state() {
        let mut sim = cluster(4, 24);
        sim.run_until(500, |s| common_view(s).is_some());
        sim.process_mut(ProcessId::new(0))
            .unwrap()
            .submit_write(5, 55);
        sim.run_until(500, |s| {
            s.active_ids()
                .iter()
                .all(|id| s.process(*id).unwrap().read_register(5) == Some(55))
        });
        // A member crashes; the coordinator is asked to reconfigure onto the
        // surviving participants (Algorithm 4.6).
        sim.crash(ProcessId::new(3));
        sim.run_rounds(100);
        let crd = sim
            .active_ids()
            .into_iter()
            .find(|id| sim.process(*id).unwrap().is_coordinator());
        if let Some(crd) = crd {
            sim.process_mut(crd)
                .unwrap()
                .request_coordinator_reconfiguration();
        }
        let rounds = sim.run_until(1200, |s| {
            s.active_ids().iter().all(|id| {
                let n = s.process(*id).unwrap();
                n.reconfig().installed_config() == Some(config_set(0..3))
            })
        });
        assert!(
            rounds < 1200,
            "the configuration never shrank to the survivors"
        );
        // The register survives into the new configuration (Theorem 4.13).
        sim.run_rounds(100);
        for id in sim.active_ids() {
            assert_eq!(sim.process(id).unwrap().read_register(5), Some(55));
        }
    }

    /// A follower's input enters the multicast round its snapshot was
    /// taken in, once. A coordinator whose timer runs faster than a
    /// follower's keeps that follower's last snapshot for several steps;
    /// the input it carries is applied in the first and not again.
    #[test]
    fn a_stale_follower_snapshot_is_applied_once() {
        let mut sim = cluster(3, 27);
        let rounds = sim.run_until(400, |s| common_view(s).is_some());
        assert!(rounds < 400, "no common view was installed");
        let crd = common_view(&sim).unwrap().coordinator();
        let follower = sim.active_ids().into_iter().find(|p| *p != crd).unwrap();
        let ids = sim.active_ids();

        let node = sim.process_mut(follower).unwrap();
        node.submit_write(1, 99);
        let mut out = Outbox::new();
        node.poll(&ids, &mut out);
        let snapshot = out
            .into_messages()
            .into_iter()
            .find_map(|(to, m)| matches!(m, SmrMsg::State(_) if to == crd).then_some(m))
            .expect("a follower broadcasts its snapshot to the coordinator");
        let SmrMsg::State(state) = &snapshot else {
            unreachable!()
        };
        assert_eq!(
            state.input.as_ref().map(|c| &c.op),
            Some(&Op::Write { key: 1, value: 99 })
        );

        let coordinator = sim.process_mut(crd).unwrap();
        let applied = coordinator.state().applied;
        for _ in 0..2 {
            coordinator.handle(follower, snapshot.clone(), &mut Outbox::<SmrMsg>::new());
            coordinator.poll(&ids, &mut Outbox::<SmrMsg>::new());
        }
        assert_eq!(coordinator.state().applied, applied + 1);
        assert_eq!(coordinator.state().registers.get(&1), Some(&99));
    }

    /// A replica's snapshot is one allocation, shared by every packet of
    /// its broadcast and by every receiver's `peers` entry. No fault may
    /// write through that sharing: a transient fault on one receiver, a
    /// corrupted peer entry and a forged `StaleState` snapshot each leave
    /// every other receiver's entry the very allocation it was.
    #[test]
    fn faults_never_alias_into_a_shared_snapshot() {
        use simnet::{ForgeKind, ScenarioTarget, SimRng};

        let mut sim = cluster(4, 26);
        let rounds = sim.run_until(400, |s| common_view(s).is_some());
        assert!(rounds < 400, "no common view was installed");
        // Replica 3's next broadcast, delivered to the other three.
        let sender = ProcessId::new(3);
        let ids = sim.active_ids();
        let mut out = Outbox::new();
        sim.process_mut(sender).unwrap().poll(&ids, &mut out);
        for (to, msg) in out.into_messages() {
            if let SmrMsg::State(_) = msg {
                let receiver = sim.process_mut(to).unwrap();
                receiver.handle(sender, msg, &mut Outbox::<SmrMsg>::new());
            }
        }
        let entry = |sim: &Simulation<SmrNode>, at: u32| {
            Arc::clone(&sim.process(ProcessId::new(at)).unwrap().peers[&sender])
        };
        let held: Vec<Arc<StateMsg>> = (0..3).map(|at| entry(&sim, at)).collect();
        assert!(
            held.iter().all(|s| Arc::ptr_eq(s, &held[0])),
            "one broadcast is one allocation"
        );
        let sent = (*held[0]).clone();
        let untouched = |sim: &Simulation<SmrNode>, at: u32| {
            let now = entry(sim, at);
            Arc::ptr_eq(&now, &held[at as usize]) && *now == sent
        };

        // A transient fault on replica 0 wipes its own table only.
        let mut rng = SimRng::seed_from(7);
        sim.process_mut(ProcessId::new(0))
            .unwrap()
            .corrupt(&mut rng);
        assert!(sim.process(ProcessId::new(0)).unwrap().peers.is_empty());
        assert!(untouched(&sim, 1) && untouched(&sim, 2));

        // A fault written into replica 1's entry copies it first.
        let node = sim.process_mut(ProcessId::new(1)).unwrap();
        let corrupted = node.peers.get_mut(&sender).unwrap();
        Arc::make_mut(corrupted).rnd = 1 << 40;
        assert!(!Arc::ptr_eq(corrupted, &held[1]));
        assert!(untouched(&sim, 2));
        assert_eq!(*held[1], sent);

        // A forged stale snapshot is an allocation of its own, and adopting
        // it at replica 2 leaves what the others hold alone.
        let target = ProcessId::new(2);
        let forged = SmrNode::forge_payload(ForgeKind::StaleState, sender, target, &sim, &mut rng)
            .expect("the target holds a view to equivocate about");
        let SmrMsg::State(forged_state) = &forged else {
            panic!("a stale-state forgery is a state broadcast: {forged:?}");
        };
        let forged_state = Arc::clone(forged_state);
        assert!(held.iter().all(|s| !Arc::ptr_eq(s, &forged_state)));
        sim.process_mut(target)
            .unwrap()
            .handle(sender, forged, &mut Outbox::<SmrMsg>::new());
        assert!(Arc::ptr_eq(&entry(&sim, 2), &forged_state));
        assert_ne!(*entry(&sim, 2), sent);
        assert_eq!(*entry(&sim, 1), {
            let mut expected = sent.clone();
            expected.rnd = 1 << 40;
            expected
        });
        assert_eq!(*held[2], sent);
    }

    #[test]
    fn writes_continue_after_reconfiguration() {
        let mut sim = cluster(3, 25);
        sim.run_until(500, |s| common_view(s).is_some());
        sim.process_mut(ProcessId::new(0))
            .unwrap()
            .submit_write(1, 1);
        sim.run_rounds(200);
        sim.crash(ProcessId::new(2));
        sim.run_rounds(300);
        sim.process_mut(ProcessId::new(1))
            .unwrap()
            .submit_write(2, 2);
        let rounds = sim.run_until(800, |s| {
            [ProcessId::new(0), ProcessId::new(1)].iter().all(|id| {
                let n = s.process(*id).unwrap();
                n.read_register(1) == Some(1) && n.read_register(2) == Some(2)
            })
        });
        assert!(
            rounds < 800,
            "service did not resume after membership change"
        );
    }
}
