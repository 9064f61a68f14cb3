//! Declarative chaos scenarios over one fault schedule.
//!
//! The paper claims recovery from *any* transient fault on top of crashes,
//! churn and unreliable links. A [`Scenario`] makes that claim testable at
//! scale: it holds one list of [`Fault`] values — the named,
//! seed-reproducible fault schedule over rounds, one value per `--plan`
//! token of [`crate::plan`]. Each fault contributes typed [`FaultAction`]s at its
//! rounds; the runner ([`ScenarioRunner`], or [`run_scenario`] for a run in
//! one call) applies them in a fixed per-class phase order, counts them into
//! the run's counter map, and enforces the safety invariants (generic ones
//! itself, class-specific ones through each fault). White-box steps no
//! fault expresses run between rounds through [`ScenarioRunner::advance_to`]
//! and [`ScenarioRunner::sim_mut`]. The
//! [`crate::campaign`] module sweeps scenarios × seeds and
//! records the results; the `simctl` binary runs named scenarios from the
//! [`catalog`] against every composite node of the workspace.
//!
//! Protocol-specific concerns (how to build a node, how to corrupt its
//! state, how to forge a Byzantine payload, what "converged" means) live
//! behind the [`ScenarioTarget`] trait, implemented by `ReconfigNode`,
//! `CounterNode`, `SmrNode` and `SharedMemNode` in their own crates.
//!
//! Determinism is a hard requirement: every fault action happens at a round
//! boundary and draws randomness from a dedicated adversary stream derived
//! from the run's seed, so the same scenario + seed produces byte-identical
//! executions.
//!
//! ```
//! use simnet::plan::apply_spec;
//! use simnet::scenario::Scenario;
//! use simnet::Round;
//!
//! let s = Scenario::new("partition-heal", 6)
//!     .describe("split the cluster in half, heal after 20 rounds")
//!     .with_rounds(400);
//! let s = apply_spec(s, "split=8 heal=28").unwrap();
//! assert_eq!(s.name(), "partition-heal");
//! assert_eq!(s.initial_size(), 6);
//! assert!(s.last_fault_round() >= Round::new(28));
//! // The schedule is visible as typed actions, phase-ordered.
//! assert!(!s.actions_at(Round::new(8)).is_empty());
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::channel::ChannelPolicy;
use crate::config::{SchedulerMode, SimConfig};
use crate::history::{HistoryCfg, HistoryRecorder, OpKind, OpResponse};
use crate::linearize::{self, Spec, Verdict};
use crate::load::{LoadEngine, LoadProfile};
use crate::partition::Cuts;
use crate::plan::{self, Fault, FaultAction, ForgeKind, RunObservations};
use crate::process::{Context, Process, ProcessId};
use crate::rng::SimRng;
use crate::scheduler::Simulation;
use crate::time::Round;

/// Base behaviour of every link in a scenario, applied outside spike
/// windows. A plain-data mirror of [`ChannelPolicy`] with scenario-friendly
/// defaults (reliable, at most one round of delay).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Per-packet loss probability.
    pub loss: f64,
    /// Per-packet duplication probability.
    pub duplication: f64,
    /// Maximum random delivery delay in rounds.
    pub max_delay: u64,
    /// Whether ready packets may be delivered out of order.
    pub reorder: bool,
    /// Bounded channel capacity in packets.
    pub capacity: usize,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile {
            loss: 0.0,
            duplication: 0.0,
            max_delay: 0,
            reorder: false,
            capacity: 16,
        }
    }
}

impl LinkProfile {
    /// The equivalent channel policy.
    pub fn to_policy(&self) -> ChannelPolicy {
        ChannelPolicy {
            capacity: self.capacity,
            loss_probability: self.loss,
            duplication_probability: self.duplication,
            max_delay_rounds: self.max_delay,
            reorder: self.reorder,
        }
    }
}

/// A named, declarative chaos scenario: an initial population plus a list
/// of [`Fault`]s scheduling faults over rounds, with a round budget and a
/// workload window.
///
/// A schedule is `--plan` text, which [`crate::plan::apply_spec`] appends
/// one fault per token, or typed values appended by
/// [`Scenario::with_fault`]; the list keeps insertion order.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    description: String,
    n: usize,
    rounds: u64,
    workload_rounds: u64,
    link: LinkProfile,
    faults: Vec<Fault>,
    load: Option<LoadProfile>,
    history: Option<HistoryCfg>,
}

impl Scenario {
    /// Creates an empty scenario over an initial population of `n`
    /// processors, with a default budget of 1,000 rounds, no workload window
    /// and no faults.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        Scenario {
            name: name.into(),
            description: String::new(),
            n,
            rounds: 1_000,
            workload_rounds: 0,
            link: LinkProfile::default(),
            faults: Vec::new(),
            load: None,
            history: None,
        }
    }

    /// Sets the human-readable description (builder style).
    pub fn describe(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Sets the maximum number of rounds the runner executes (builder
    /// style). Runs stop early once the target converges.
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Drives the target's workload ([`ScenarioTarget::drive_workload`])
    /// while the current round is below `rounds` (builder style).
    pub fn with_workload_until(mut self, rounds: u64) -> Self {
        self.workload_rounds = rounds;
        self
    }

    /// Attaches an open-loop client population ([`LoadProfile`]) driven
    /// inside the workload window (builder style). When a load is attached
    /// it *replaces* [`ScenarioTarget::drive_workload`] for this scenario,
    /// and the run publishes the op-latency/goodput counters of
    /// [`crate::load::COUNTER_KEYS`].
    pub fn with_load(mut self, load: LoadProfile) -> Self {
        self.load = Some(load);
        self
    }

    /// Arms operation-history recording and temporal-liveness checking with
    /// the default [`HistoryCfg`] (builder style). An armed run records
    /// every client op the load engine drives, checks the history against
    /// the target's sequential spec ([`ScenarioTarget::lin_spec`]), keeps
    /// probing convergence for a window after it first holds, and publishes
    /// the `converged_round` / `stability_violations` / `lin_ops_checked` /
    /// `lin_result` counters. Unarmed runs are untouched byte-for-byte.
    pub fn with_history(self) -> Self {
        self.with_history_cfg(HistoryCfg::default())
    }

    /// Arms history recording with an explicit [`HistoryCfg`] (builder
    /// style); see [`Scenario::with_history`].
    pub fn with_history_cfg(mut self, cfg: HistoryCfg) -> Self {
        self.history = Some(cfg);
        self
    }

    /// Sets the base link behaviour (builder style).
    pub fn with_link(mut self, link: LinkProfile) -> Self {
        self.link = link;
        self
    }

    /// Appends one fault (builder style). Within a round, actions are
    /// applied in class-phase order ([`FaultAction::phase`]); insertion
    /// order only orders same-phase actions.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario's description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The size of the initial population.
    pub fn initial_size(&self) -> usize {
        self.n
    }

    /// The round budget.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The workload window: workload is driven while `now < workload_rounds`.
    pub fn workload_rounds(&self) -> u64 {
        self.workload_rounds
    }

    /// The attached client population, if any.
    pub fn load(&self) -> Option<&LoadProfile> {
        self.load.as_ref()
    }

    /// The armed history configuration, if any.
    pub fn history(&self) -> Option<&HistoryCfg> {
        self.history.as_ref()
    }

    /// The base link behaviour.
    pub fn link(&self) -> &LinkProfile {
        &self.link
    }

    /// The scenario's faults, in insertion order.
    pub fn plans(&self) -> &[Fault] {
        &self.faults
    }

    /// The scenario's whole fault schedule as one `--plan` value: every
    /// fault's [`Fault::render`] token, in insertion order, joined by
    /// spaces. [`crate::plan::apply_spec`] on a bare scenario of the same
    /// size parses it back to an equal fault list.
    pub fn render_schedule(&self) -> String {
        let tokens: Vec<String> = self.faults.iter().map(Fault::render).collect();
        tokens.join(" ")
    }

    /// Every fault action due at `round`, sorted (stably) into class-phase
    /// order — exactly what the runner applies. Insertion order of the
    /// faults never changes the per-round action *set*, only the order of
    /// same-phase actions.
    pub fn actions_at(&self, round: Round) -> Vec<FaultAction> {
        plan::actions_at(&self.faults, round, &self.link.to_policy())
    }

    /// Whether every fault has a live adapter ([`Fault::is_live`]), i.e.
    /// whether `simctl drive` can replay this scenario against a real
    /// cluster.
    pub fn live_capable(&self) -> bool {
        self.faults.iter().all(Fault::is_live)
    }

    /// The last round at which this scenario injects any fault (convergence
    /// is only counted after this round). Clock skew is the exception: it
    /// never ends, so convergence is counted *with* the skew in force.
    pub fn last_fault_round(&self) -> Round {
        self.faults
            .iter()
            .map(Fault::last_round)
            .max()
            .unwrap_or(Round::ZERO)
    }

    /// The simulation configuration for one run of this scenario.
    ///
    /// `mode` is unused, kept only because `benchmark/` passes it; ROADMAP item 15(f) removes it.
    pub fn sim_config(&self, seed: u64, _mode: SchedulerMode) -> SimConfig {
        let link = &self.link;
        SimConfig::default()
            .with_seed(seed)
            .with_loss_probability(link.loss)
            .with_duplication_probability(link.duplication)
            .with_max_delay(link.max_delay)
            .with_reordering(link.reorder)
            .with_channel_capacity(link.capacity)
    }

    /// Builds a fresh simulation of this scenario's initial population.
    ///
    /// `mode` is unused, kept only because `benchmark/` passes it; ROADMAP item 15(f) removes it.
    pub fn build_sim<T: ScenarioTarget>(&self, seed: u64, mode: SchedulerMode) -> Simulation<T> {
        let mut sim = Simulation::new(self.sim_config(seed, mode));
        for i in 0..self.n as u32 {
            let id = ProcessId::new(i);
            sim.add_process_with_id(id, T::spawn_initial(id, self.n));
        }
        sim
    }

    /// The end of this scenario's *fault-free prefix*: the first round with
    /// a fault action, capped below the end of the workload window and at
    /// the round budget. Before it no fault acts, the workload is driven in
    /// every round, and no convergence check can pass, so a run of this
    /// scenario up to here is one fault-free execution, the same for every
    /// scenario that [shares the prefix](Scenario::shares_prefix_with).
    pub fn fork_round(&self) -> Round {
        let cap = self.workload_rounds.saturating_sub(1).min(self.rounds);
        (0..cap)
            .map(Round::new)
            .find(|&round| !self.actions_at(round).is_empty())
            .unwrap_or(Round::new(cap))
    }

    /// Whether runs of `self` and `other` under one seed share their fault-free prefix: the same population, link behaviour,
    /// client load and history configuration.
    pub fn shares_prefix_with(&self, other: &Scenario) -> bool {
        self.n == other.n
            && self.link == other.link
            && self.load == other.load
            && self.history == other.history
    }

    /// The fault-free scenario every scenario sharing this one's prefix
    /// follows up to its [`Scenario::fork_round`]: no faults, and neither the
    /// round budget nor the workload window ever ends.
    pub(crate) fn prefix(&self) -> Scenario {
        Scenario {
            name: format!("{}/prefix", self.name),
            description: String::new(),
            n: self.n,
            rounds: u64::MAX,
            workload_rounds: u64::MAX,
            link: self.link.clone(),
            faults: Vec::new(),
            load: self.load.clone(),
            history: self.history.clone(),
        }
    }

    /// The fault counter map a run starts from: every key the faults
    /// register, at zero. `simctl drive` starts a live run's map from it
    /// too.
    pub fn zeroed_counters(&self) -> BTreeMap<String, u64> {
        self.faults
            .iter()
            .flat_map(Fault::counter_keys)
            .map(|k| (k.to_string(), 0))
            .collect()
    }
}

/// The per-protocol adapter of the chaos engine: everything the scenario
/// runner needs to know about a composite node that the node's own crate
/// must decide — construction, transient corruption, Byzantine payload
/// forging, workload, convergence and safety invariants.
///
/// Implemented by `ReconfigNode` (`core`), `CounterNode` (`counters`),
/// `SmrNode` (`vssmr`) and `SharedMemNode` (`sharedmem`).
///
/// Targets must be `Clone`, `Send` and `'static`, and their messages
/// `Send + Sync`. A campaign ([`crate::Campaign::cell_jobs`]) runs
/// the fault-free prefix that a group of cells shares once, keeps a
/// snapshot of it behind a mutex, and forks that snapshot ([`Simulation::fork`], hence `Clone`) into
/// every cell of the group, on whichever worker of the [`crate::exec`] pool
/// runs the cell. A snapshot is only ever read, to be cloned; from the fork
/// on, a worker owns its cell's simulation outright. So the bounds rule out
/// thread-bound handles (`Rc`) but not `RefCell` caches inside a node, and
/// a fork shares nothing mutable with its snapshot except in-flight payload
/// allocations, which are copy-on-write (hence `Msg: Send + Sync`).
/// Shared-value interning (see `reconfig::shared_set`) is per-thread and
/// `Arc`-based: a cell forked on another worker than the one that ran its
/// prefix interns into a different table, which changes no observable
/// behaviour (equality falls back to value comparison).
pub trait ScenarioTarget: Process<Msg: Send + Sync> + Clone + Send + 'static {
    /// Short machine-readable name used in reports and `simctl --node`.
    const NAME: &'static str;

    /// Builds member `id` of an initial population of `n` processors.
    fn spawn_initial(id: ProcessId, n: usize) -> Self;

    /// Builds a processor joining a running system whose initial population
    /// had `n` processors.
    fn spawn_joiner(id: ProcessId, n: usize) -> Self;

    /// Applies one transient fault to the local state — the paper's
    /// signature fault class — and returns its client-visible effects as
    /// `(object, value)` pairs. Implementations must only produce states the
    /// protocol provably recovers from agreement-wise (self-stabilization
    /// quantifies over arbitrary states, but a campaign needs its
    /// convergence predicate to become true again in bounded time).
    ///
    /// Armed runs record each effect as an adversary write (see
    /// [`crate::history::HistoryRecorder::adversary_write`]), so reads
    /// observing a corrupted value linearize against it instead of
    /// tripping a false violation. A target whose corruption is never
    /// client-visible returns an empty `Vec`.
    fn corrupt(&mut self, rng: &mut SimRng) -> Vec<(u64, u64)>;

    /// Mutates one in-flight packet payload — the paper's channel-content
    /// corruption, driven by [`Fault::Payload`].
    /// Returns `true` when the payload was changed. The default leaves the
    /// payload alone: the runner's sender-misattribution shuffle (packets
    /// towards a victim trade payloads across its inbound channels) is
    /// already a genuine corruption, and protocols add their own bit-level
    /// mutations on top (e.g. degrading a rich message to a bare heartbeat,
    /// as a checksum failure would).
    fn corrupt_payload(msg: &mut Self::Msg, rng: &mut SimRng) -> bool {
        let _ = (msg, rng);
        false
    }

    /// Forges one crafted packet for the declarative Byzantine adversary
    /// ([`Fault::Byzantine`]): a payload of the requested [`ForgeKind`] that
    /// will be injected into the channel `claimed_sender → target` through
    /// [`crate::Network::inject`]. Return `None` when no such payload is
    /// craftable in the current state — the injection is skipped (and not
    /// counted). [`ForgeKind::Replay`] never reaches this hook; the runner
    /// replays in-flight packets protocol-agnostically.
    ///
    /// Implementations must forge payloads the protocol provably *refuses
    /// to adopt into honest state* (stale views, equivocating labels) or
    /// washes out through stabilization — the campaign's convergence
    /// predicate and invariants run with the injections in force.
    fn forge_payload(
        forge: ForgeKind,
        claimed_sender: ProcessId,
        target: ProcessId,
        sim: &Simulation<Self>,
        rng: &mut SimRng,
    ) -> Option<Self::Msg> {
        let _ = (forge, claimed_sender, target, sim, rng);
        None
    }

    /// Injects one round of application workload (submit writes, request
    /// increments, …). Driven while the scenario's workload window is open.
    /// The default does nothing.
    fn drive_workload(sim: &mut Simulation<Self>, round: Round, rng: &mut SimRng) {
        let _ = (sim, round, rng);
    }

    /// Declares what the operation [`ScenarioTarget::submit_local`] would run
    /// for `(key, value)` does, for history recording: the logical object it
    /// targets and its [`OpKind`]. `None` (the default) means the op is not
    /// recordable — armed runs then record nothing for it. Only consulted
    /// when a history is armed.
    fn op_spec(key: u64, value: u64) -> Option<(u64, OpKind)> {
        let _ = (key, value);
        None
    }

    /// The sequential specification armed histories are checked against,
    /// when this target has one. `None` (the default) skips linearizability
    /// checking — armed runs still record histories and enforce the
    /// stays-converged probe.
    fn lin_spec() -> Option<Spec> {
        None
    }

    /// Accepts one open-loop client operation at this processor: `key` is
    /// the logical client (targets map it onto their own keyspace), `value`
    /// is a run-unique payload. Returns `true` when the operation was
    /// accepted — the caller then expects it to be claimable through
    /// [`ScenarioTarget::claim_local`] eventually, and counts it as
    /// rejected otherwise. Both backends call it: the simulator's load
    /// engine ([`crate::load`]) at an active processor, the live runtime
    /// over a process's control socket. The default rejects everything:
    /// targets opt into client load explicitly.
    fn submit_local(&mut self, key: u64, value: u64) -> bool {
        let _ = (key, value);
        false
    }

    /// Claims the oldest unclaimed completed operation at this processor:
    /// its success bit (`false` for a protocol-level failure such as an
    /// abort) plus what it observed — a read's value, an increment's token
    /// — for the history of armed runs. `None` when nothing has completed
    /// since the last claim. Called repeatedly after each round, at most
    /// once per operation the caller still has outstanding here, so a
    /// target whose completion signal is a standing condition (rather than
    /// a drained queue) can simply report the condition. Targets
    /// implementing [`ScenarioTarget::lin_spec`] must surface observed
    /// values. The default claims nothing.
    fn claim_local(&mut self) -> Option<OpResponse> {
        None
    }

    /// [`ScenarioTarget::claim_local`]'s success bit alone, for callers that
    /// keep no history (the live runtime's `claim` verb).
    fn complete_local(&mut self) -> Option<bool> {
        self.claim_local().map(|response| response.ok)
    }

    /// Starts a queued client operation *now* instead of at the next timer
    /// step, for backends where the two differ: the live runtime calls this
    /// after an accepted [`ScenarioTarget::submit_local`] and after every
    /// delivered packet (a completion frees the slot for the next queued
    /// op), so an op costs its message delays, not a timer period. The
    /// simulator never calls it — there a round is both the timer and the
    /// message delay, and "the next `on_timer`" is "now".
    ///
    /// Contract: if the op slot is free, an op is queued, and the node is
    /// in exactly the state in which its last timer step would itself have
    /// started that op, start it and send its first phase through `ctx`;
    /// touch nothing else. It is not an extra iteration of the do-forever
    /// loop — no gossip, no failure-detector or reconfiguration step, no
    /// retransmission or ageing of a pending op — so background traffic
    /// and heartbeat counts do not grow with the op rate. Anything the
    /// timer step would have had to do first (synchronise a changed
    /// configuration, abort an op) is left to the timer step. The default
    /// does nothing: correct for targets whose ops ride their periodic
    /// traffic or send nothing.
    fn start_local(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// This node's *local* claim that it has converged: the per-process
    /// conjunct of [`ScenarioTarget::converged`].
    fn settled(&self) -> bool;

    /// The type of [`Agreement::state`].
    type State<'a>: PartialEq + fmt::Debug
    where
        Self: 'a;

    /// What this node vouches for when [`settled`](ScenarioTarget::settled):
    /// the configuration it follows and its state in it, each `None` where
    /// it has no stake (a client reports no replica state). Borrowed, not
    /// cloned: [`ScenarioTarget::converged`] asks every active process for
    /// it every round after the last fault.
    fn agreement(&self) -> Agreement<'_, Self::State<'_>>;

    /// Returns `true` once the system has (re-)converged, the scenario's
    /// liveness criterion: every active process is
    /// [`settled`](ScenarioTarget::settled), and each component of their
    /// [`agreement`](ScenarioTarget::agreement)s is equal among the
    /// processes that report it.
    fn converged(sim: &Simulation<Self>) -> bool {
        let mut seen = Agreement {
            config: None,
            state: None,
        };
        sim.active_processes()
            .all(|(_, p)| p.settled() && seen.absorb(p.agreement()))
    }

    /// [`ScenarioTarget::agreement`] as text, for the live backend's
    /// `status` reply: a `config=…` line and a `state=…` line, each the
    /// component's `Debug` rendering and present only when reported. An
    /// empty token abstains. Two tokens pass [`tokens_agree`] exactly when
    /// the typed values pass [`ScenarioTarget::converged`]'s comparison.
    fn settle_token(&self) -> String {
        let Agreement { config, state } = self.agreement();
        let lines = [
            config.map(|c| format!("config={c:?}")),
            state.map(|s| format!("state={s:?}")),
        ];
        lines.into_iter().flatten().collect::<Vec<_>>().join("\n")
    }

    /// Safety-invariant violations observable in the current global state;
    /// checked at the end of a run (after convergence, or after the round
    /// budget is exhausted).
    fn invariant_violations(sim: &Simulation<Self>) -> Vec<String>;

    /// One canonical line describing `process`'s state, used to build the
    /// global state digest. Must be deterministic and platform-independent,
    /// and must change whenever digest-relevant state changes.
    fn state_line(id: ProcessId, process: &Self) -> String;

    /// A canonical digest of the global protocol state, used to compare
    /// executions across runs and reports: the FNV-1a fold of
    /// [`ScenarioTarget::state_line`] over every processor in ascending
    /// identifier order (crashed ones included), exactly as
    /// [`crate::report::digest_lines`] computes it. The provided
    /// implementation goes through [`Simulation::state_digest_with`], which
    /// re-formats only the lines of processors that stepped since the last
    /// digest — same value, a fraction of the cost on mostly-quiet systems.
    fn state_digest(sim: &Simulation<Self>) -> u64 {
        sim.state_digest_with(Self::state_line)
    }
}

/// What a process vouches for when settled ([`ScenarioTarget::agreement`]):
/// the configuration it follows and its state in it. A component is
/// `None` where the process has no stake, and then abstains from that
/// component's comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Agreement<'a, S> {
    /// The installed configuration this process follows.
    pub config: Option<&'a BTreeSet<ProcessId>>,
    /// The state this process holds in that configuration.
    pub state: Option<S>,
}

impl<'a, S: PartialEq> Agreement<'a, S> {
    /// Folds `other` into the components reported so far: `false` when a
    /// component both report differs.
    fn absorb(&mut self, other: Self) -> bool {
        agree(&mut self.config, other.config) && agree(&mut self.state, other.state)
    }
}

/// The first reported value of a component is kept; every later one must
/// equal it.
fn agree<T: PartialEq>(seen: &mut Option<T>, value: Option<T>) -> bool {
    match (seen.as_ref(), value) {
        (_, None) => true,
        (Some(prior), Some(value)) => *prior == value,
        (None, value) => {
            *seen = value;
            true
        }
    }
}

/// The live driver's agreement rule: whether a set of
/// [`ScenarioTarget::settle_token`]s agree. Every `key=value` line is
/// compared per key across the tokens that report it — nodes legitimately
/// report different key sets (an SMR non-member has no `state`), and an
/// empty token abstains entirely. The live driver declares a cluster
/// converged when every live node is
/// [`settled`](ScenarioTarget::settled) and this holds: the rule
/// [`ScenarioTarget::converged`] applies to the typed values.
///
/// ```
/// use simnet::scenario::tokens_agree;
///
/// let member = "config={p0, p1}\nstate=7".to_string();
/// let client = "config={p0, p1}".to_string();
/// assert!(tokens_agree(&[member.clone(), client, String::new()]));
/// assert!(!tokens_agree(&[member, "state=8".to_string()]));
/// ```
pub fn tokens_agree(tokens: &[String]) -> bool {
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    for token in tokens {
        for line in token.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            if let Some(prior) = seen.insert(key, value) {
                if prior != value {
                    return false;
                }
            }
        }
    }
    true
}

/// What happened during one scenario run.
///
/// Fault counts live in a counter map ([`Self::counters`], keys registered
/// by [`Fault::counter_keys`]) instead of fixed fields, so new fault
/// classes extend the report without touching this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioRun {
    /// Rounds actually executed (≤ the scenario budget).
    pub rounds_run: u64,
    /// Whether the target's convergence predicate held at the end.
    pub converged: bool,
    /// The first round (after the last fault and the workload window) at
    /// which the target reported convergence.
    pub rounds_to_convergence: Option<u64>,
    /// Fault counters keyed by the faults' registered counter keys
    /// (`crashes`, `joins`, `corruptions`, `injections`, …). Keys registered
    /// by the scenario's faults are always present, zero included, so the
    /// report shape depends on the scenario, not on what fired.
    pub counters: BTreeMap<String, u64>,
    /// Invariant violations observed at the end of the run.
    pub invariant_violations: Vec<String>,
    /// The target's state digest at the end of the run.
    pub state_digest: u64,
}

impl ScenarioRun {
    /// The value of one fault counter (0 when the key is absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

/// Runs `scenario` on `sim` to completion (convergence or round budget):
/// [`ScenarioRunner::new`] then [`ScenarioRunner::finish`], with the
/// simulation handed back through `sim` for inspection.
///
/// All fault actions are applied at round boundaries in class-phase order —
/// connectivity, one-way cuts, spikes, timer faults, crashes, churn, state
/// corruption, payload corruption, injection — followed by workload, so
/// executions are byte-identical for the same seed.
pub fn run_scenario<T: ScenarioTarget>(
    scenario: &Scenario,
    sim: &mut Simulation<T>,
) -> ScenarioRun {
    let placeholder = Simulation::new(sim.config().clone());
    let mut runner = ScenarioRunner::new(scenario, std::mem::replace(sim, placeholder));
    let run = runner.finish();
    *sim = runner.into_sim();
    run
}

/// Salt of the adversary's random stream: derived from the simulation seed
/// but independent of the scheduler's draws, so fault actions cannot perturb
/// (or be perturbed by) delivery randomness.
const ADVERSARY_SALT: u64 = 0xc4a0_5eed_c4a0_5eed;

/// One run of a [`Scenario`] as a resumable value: the simulation plus
/// everything the runner tracks about it — the adversary's random stream,
/// the load engine, the history recorder, the fault counters, the active
/// partitions and one-way cuts and the stays-converged probe.
///
/// [`ScenarioRunner::advance_to`] executes rounds up to a round boundary,
/// where the simulation can be inspected or mutated white-box
/// ([`ScenarioRunner::sim_mut`]); [`ScenarioRunner::finish`] runs to the end
/// and returns the verdict. A runner is `Clone`: the clone is an independent
/// copy of the execution ([`Simulation::fork`]), so finishing either yields
/// exactly what finishing the original would have. A [`crate::Campaign`]
/// bootstraps each shared fault-free prefix once and forks it into every
/// cell that shares it ([`crate::Campaign::cell_jobs`]).
///
/// ```
/// # use simnet::scenario::{Agreement, ScenarioTarget};
/// # use simnet::{Context, Process, ProcessId, SimRng, Simulation};
/// # #[derive(Debug, Clone)]
/// # struct Flood { value: u64 }
/// # impl Process for Flood {
/// #     type Msg = u64;
/// #     fn on_timer(&mut self, ctx: &mut Context<'_, u64>) {
/// #         for p in ctx.peers() { ctx.send(p, self.value); }
/// #     }
/// #     fn on_message(&mut self, _f: ProcessId, m: u64, _c: &mut Context<'_, u64>) {
/// #         self.value = self.value.max(m);
/// #     }
/// # }
/// # impl ScenarioTarget for Flood {
/// #     const NAME: &'static str = "flood";
/// #     fn spawn_initial(id: ProcessId, _n: usize) -> Self {
/// #         Flood { value: id.as_u32() as u64 }
/// #     }
/// #     fn spawn_joiner(_id: ProcessId, _n: usize) -> Self { Flood { value: 0 } }
/// #     fn corrupt(&mut self, rng: &mut SimRng) -> Vec<(u64, u64)> {
/// #         self.value = rng.range_inclusive(50, 99);
/// #         Vec::new()
/// #     }
/// #     fn settled(&self) -> bool { true }
/// #     type State<'a> = u64;
/// #     fn agreement(&self) -> Agreement<'_, u64> {
/// #         Agreement { config: None, state: Some(self.value) }
/// #     }
/// #     fn invariant_violations(_sim: &Simulation<Self>) -> Vec<String> { Vec::new() }
/// #     fn state_line(i: ProcessId, p: &Self) -> String { format!("{i} {}", p.value) }
/// # }
/// use simnet::plan::apply_spec;
/// use simnet::scenario::{Scenario, ScenarioRunner};
/// use simnet::{Round, SchedulerMode};
///
/// let scenario = apply_spec(Scenario::new("split", 4), "split=2 heal=10")
///     .unwrap()
///     .with_rounds(60);
/// let sim = scenario.build_sim::<Flood>(1, SchedulerMode::EventDriven);
/// let mut runner = ScenarioRunner::new(&scenario, sim);
/// runner.advance_to(Round::new(5));
/// // Mid-way, inside the partition.
/// assert!(runner.sim().network().is_blocked(ProcessId::new(0), ProcessId::new(3)));
/// let mut fork = runner.clone();
/// assert_eq!(fork.finish(), runner.finish());
/// assert_eq!(runner.sim().network().blocked_link_count(), 0);
/// ```
pub struct ScenarioRunner<T: ScenarioTarget> {
    scenario: Scenario,
    sim: Simulation<T>,
    adversary_rng: SimRng,
    /// The client-population engine draws from its own independent stream
    /// (see `crate::load`), so attaching a load perturbs neither delivery
    /// nor fault randomness.
    load: Option<LoadEngine>,
    /// Armed runs record every client op; unarmed runs never construct a
    /// recorder and follow today's exact code paths.
    recorder: Option<HistoryRecorder>,
    /// The counter map: every key the scenario's faults register
    /// is present from the start, zero included.
    counters: BTreeMap<String, u64>,
    /// Convergence is only counted after this round.
    quiet_after: Round,
    /// Rounds executed, against the scenario's budget.
    steps: u64,
    /// The run has ended: budget spent, or converged (and, armed, the probe
    /// window has closed).
    stopped: bool,
    /// [`ScenarioRunner::finish`] has taken the verdict.
    finished: bool,
    rounds_to_convergence: Option<u64>,
    probe: Probe,
    /// The splits and one-way cuts in force, joiners confined behind them
    /// included: the only record of them, from which the network's blocked
    /// set is rebuilt whenever they change.
    cuts: Cuts,
    /// Generic safety invariants checked by the runner while it applies
    /// actions (the target's protocol invariants and the faults' class
    /// invariants are collected at the end); see docs/FAULTS.md.
    runner_violations: Vec<String>,
    /// What the faults' end-of-run invariants get to look at.
    obs: RunObservations,
}

/// Stays-converged probe state (armed runs only).
#[derive(Debug, Clone, Default)]
struct Probe {
    /// The round the probe window ends.
    done_at: Option<u64>,
    /// Whether the last probe saw convergence.
    was_converged: bool,
    /// Converged → unconverged transitions observed inside the window.
    violations: u64,
    first_unstable: Option<u64>,
}

impl<T: ScenarioTarget> Clone for ScenarioRunner<T> {
    fn clone(&self) -> Self {
        ScenarioRunner {
            scenario: self.scenario.clone(),
            sim: self.sim.fork(),
            adversary_rng: self.adversary_rng.clone(),
            load: self.load.clone(),
            recorder: self.recorder.clone(),
            counters: self.counters.clone(),
            quiet_after: self.quiet_after,
            steps: self.steps,
            stopped: self.stopped,
            finished: self.finished,
            rounds_to_convergence: self.rounds_to_convergence,
            probe: self.probe.clone(),
            cuts: self.cuts.clone(),
            runner_violations: self.runner_violations.clone(),
            obs: self.obs.clone(),
        }
    }
}

impl<T: ScenarioTarget> ScenarioRunner<T> {
    /// Starts a run of `scenario` on `sim`, usually
    /// [`Scenario::build_sim`]'s. The round budget counts from `sim`'s
    /// current round.
    pub fn new(scenario: &Scenario, sim: Simulation<T>) -> Self {
        let seed = sim.config().seed();
        ScenarioRunner {
            adversary_rng: SimRng::seed_from(seed ^ ADVERSARY_SALT),
            load: scenario
                .load
                .as_ref()
                .map(|profile| LoadEngine::new(profile.clone(), seed)),
            recorder: scenario.history.as_ref().map(|_| HistoryRecorder::new()),
            counters: scenario.zeroed_counters(),
            quiet_after: scenario.last_fault_round(),
            steps: 0,
            stopped: false,
            finished: false,
            rounds_to_convergence: None,
            probe: Probe::default(),
            cuts: Cuts::default(),
            runner_violations: Vec::new(),
            obs: RunObservations::default(),
            scenario: scenario.clone(),
            sim,
        }
    }

    /// Hands a runner that has executed only the fault-free prefix of
    /// [`Scenario::prefix`] over to `scenario`, which must share that prefix
    /// and must not have passed its [`Scenario::fork_round`]: up to there
    /// the two runs are the same execution, so only what depends on the
    /// scenario's faults — the counter keys and the quiet round — changes.
    pub(crate) fn rebind(mut self, scenario: Scenario) -> Self {
        debug_assert!(self.scenario.shares_prefix_with(&scenario));
        debug_assert!(self.sim.now() <= scenario.fork_round());
        debug_assert!(self.counters.values().all(|&count| count == 0));
        debug_assert!(self.runner_violations.is_empty() && !self.stopped);
        self.counters = scenario.zeroed_counters();
        self.quiet_after = scenario.last_fault_round();
        self.scenario = scenario;
        self
    }

    /// The simulation, at the round boundary the run has reached.
    pub fn sim(&self) -> &Simulation<T> {
        &self.sim
    }

    /// Mutable access to the simulation between rounds: white-box steps no
    /// [`Fault`] expresses (rewriting one process's field, asserting or
    /// altering link state mid-run).
    pub fn sim_mut(&mut self) -> &mut Simulation<T> {
        &mut self.sim
    }

    /// Gives up the runner, keeping the simulation.
    pub fn into_sim(self) -> Simulation<T> {
        self.sim
    }

    /// Executes rounds until the simulation stands at the start of `round`
    /// — that round's fault actions not yet applied — or the run ends,
    /// whichever comes first.
    pub fn advance_to(&mut self, round: Round) {
        while !self.stopped && self.sim.now() < round {
            self.step();
        }
    }

    /// Runs to the end — convergence (plus the probe window when armed) or
    /// the round budget — and returns the verdict. The verdict consumes the
    /// load engine's and the recorder's accounts, so call it once; the
    /// simulation stays readable through [`ScenarioRunner::sim`].
    pub fn finish(&mut self) -> ScenarioRun {
        assert!(!self.finished, "ScenarioRunner::finish called twice");
        self.finished = true;
        while !self.stopped {
            self.step();
        }
        let sim = &self.sim;
        let counters = &mut self.counters;
        let violations = &mut self.runner_violations;

        // Fold the load engine's op-latency/goodput columns into the counter
        // map.
        if let Some(engine) = self.load.take() {
            engine.finish(sim.now().as_u64(), counters);
        }

        // Armed-run verdicts: the stays-converged probe and the
        // linearizability check flow into the counter map (and the violation
        // list). `lin_result` encodes 0 = ok, 1 = violation, 2 = budget
        // exhausted (inconclusive, not a failure); `converged_round` is 0
        // when the run never converged.
        if let Some(cfg) = self.scenario.history.as_ref() {
            let history = self
                .recorder
                .take()
                .expect("armed run always has a recorder")
                .into_history();
            let converged_round = self.rounds_to_convergence.unwrap_or(0);
            counters.insert("converged_round".to_string(), converged_round);
            counters.insert("stability_violations".to_string(), self.probe.violations);
            if self.probe.violations > 0 {
                violations.push(format!(
                    "stability: converged at round {converged_round} but lost convergence {} \
                     time(s) within the {}-round probe window (first at round {})",
                    self.probe.violations,
                    cfg.probe_rounds,
                    self.probe.first_unstable.unwrap_or(0),
                ));
            }
            let (lin_ops_checked, lin_result) = match T::lin_spec() {
                None => (0, 0),
                Some(spec) => match linearize::check(&history, spec, cfg.lin_budget) {
                    Verdict::Ok { ops_checked } => (ops_checked, 0),
                    Verdict::Violation {
                        ops_checked,
                        witness,
                    } => {
                        violations.push(format!("linearizability: {witness}"));
                        (ops_checked, 1)
                    }
                    Verdict::BudgetExceeded { ops_checked, .. } => (ops_checked, 2),
                },
            };
            counters.insert("lin_ops_checked".to_string(), lin_ops_checked);
            counters.insert("lin_result".to_string(), lin_result);
        }

        // End-of-run class invariants: the faults inspect what the runner
        // observed (timer baselines, final timers and liveness).
        let obs = &mut self.obs;
        obs.end_round = sim.now();
        for id in sim.ids() {
            if let Some(steps) = sim.timer_steps_of(id) {
                obs.final_timer_steps.insert(id, steps);
            }
            if let Some(period) = sim.timer_period_override(id) {
                obs.final_timer_overrides.insert(id, period);
            }
            if sim.is_active(id) {
                obs.final_active.insert(id);
            }
        }
        for fault in &self.scenario.faults {
            violations.extend(fault.invariant(obs));
        }

        let converged = self.rounds_to_convergence.is_some() || T::converged(sim);
        let mut invariant_violations = T::invariant_violations(sim);
        invariant_violations.append(violations);
        ScenarioRun {
            rounds_run: sim.now().as_u64(),
            converged,
            rounds_to_convergence: self.rounds_to_convergence,
            counters: counters.clone(),
            invariant_violations,
            state_digest: T::state_digest(sim),
        }
    }

    /// One round: the round's fault actions, the workload, the scheduler
    /// round, the load engine's claims and the convergence probe.
    fn step(&mut self) {
        if self.steps >= self.scenario.rounds {
            self.stopped = true;
            return;
        }
        let now = self.sim.now();
        self.apply_faults(now);
        // Application workload: the open-loop client population when one is
        // attached, else the target's legacy convergence workload.
        if now.as_u64() < self.scenario.workload_rounds {
            match self.load.as_mut() {
                Some(engine) => engine.drive(&mut self.sim, now.as_u64(), self.recorder.as_mut()),
                None => T::drive_workload(&mut self.sim, now, &mut self.adversary_rng),
            }
        }
        self.sim.step_round();
        self.steps += 1;
        if let Some(engine) = self.load.as_mut() {
            let now = self.sim.now().as_u64();
            engine.poll(&mut self.sim, now, self.recorder.as_mut());
        }
        self.stopped = self.probe_convergence();
    }

    /// Applies the fault actions due at `now`, in class-phase order, and
    /// checks the runner's generic invariants over them.
    fn apply_faults(&mut self, now: Round) {
        let actions = self.scenario.actions_at(now);
        let sim = &mut self.sim;
        let counters = &mut self.counters;
        let n = self.scenario.n;
        // Packet conservation, generalized: fault actions may only create
        // the packets they declare as injections — the in-flight delta over
        // one round's action block must equal the injected count.
        let in_flight_before = if actions.is_empty() {
            0
        } else {
            sim.network().in_flight_total()
        };
        let mut injected_this_round = 0u64;
        // Timer-step baselines for the gray-failure budget and skew
        // liveness invariants: recorded for every victim of a due timer
        // action, before the round's actions apply.
        for action in &actions {
            if let FaultAction::SetTimer { victim, .. } = action {
                if let Some(steps) = sim.timer_steps_of(*victim) {
                    self.obs.timer_steps_at.insert((now, *victim), steps);
                }
            }
        }

        let mut past_churn = false;
        for action in &actions {
            // The confinement sweep runs once per round right after the
            // join phase (below); flush it when crossing.
            if !past_churn && action.phase() > FaultAction::JOIN_PHASE {
                self.cuts.confine_joiners(sim, n);
                past_churn = true;
            }
            match action {
                FaultAction::HealSplits => {
                    if !self.cuts.splits.is_empty() {
                        self.cuts.splits.clear();
                        self.cuts.block(sim.network_mut());
                    }
                }
                FaultAction::Split(groups) => {
                    self.cuts.splits.push(groups.clone());
                    self.cuts.block(sim.network_mut());
                    bump(counters, "splits", 1);
                }
                FaultAction::HealOneway => {
                    if !self.cuts.oneway.is_empty() {
                        self.cuts.oneway.clear();
                        self.cuts.block(sim.network_mut());
                    }
                }
                FaultAction::CutOneway { from, to } => {
                    // Invariant: the cut direction is blocked and the
                    // reverse direction is exactly as blocked as it was
                    // before this cut (a heal and a cut may share a round) —
                    // an asymmetric cut that cuts both ways is a symmetric
                    // partition.
                    let reverse_before: Vec<bool> = to
                        .iter()
                        .flat_map(|b| {
                            from.iter()
                                .map(|a| sim.network().is_blocked(*b, *a))
                                .collect::<Vec<bool>>()
                        })
                        .collect();
                    self.cuts.oneway.push((from.clone(), to.clone()));
                    self.cuts.block(sim.network_mut());
                    bump(counters, "oneway_cuts", 1);
                    let mut pair = 0;
                    for b in to {
                        for a in from {
                            if a != b && !sim.network().is_blocked(*a, *b) {
                                self.runner_violations
                                    .push(format!("asymmetric cut left the link {a} → {b} open"));
                            }
                            if sim.network().is_blocked(*b, *a) != reverse_before[pair] {
                                self.runner_violations.push(format!(
                                    "asymmetric cut changed the reverse link {b} → {a}"
                                ));
                            }
                            pair += 1;
                        }
                    }
                }
                FaultAction::SetPolicy(policy) => {
                    sim.network_mut().set_policy(policy.clone());
                    // A switch back to the base policy is a restore, not
                    // another spike: one window counts once.
                    if *policy != self.scenario.link.to_policy() {
                        bump(counters, "spikes", 1);
                    }
                }
                FaultAction::SetTimer { victim, period } => {
                    if period.is_some()
                        && sim.timer_period_override(*victim).is_none()
                        && sim.is_active(*victim)
                    {
                        bump(counters, "slowdowns", 1);
                    }
                    sim.set_timer_period_override(*victim, *period);
                }
                FaultAction::Crash(victim) => {
                    sim.crash(*victim);
                    bump(counters, "crashes", 1);
                }
                FaultAction::Join { count } => {
                    for _ in 0..*count {
                        // Reserve the identifier first so the factory can
                        // embed it; joiners enter through the protocol's
                        // joining path.
                        let id = sim.fresh_id();
                        sim.add_process_with_id(id, T::spawn_joiner(id, n));
                        bump(counters, "joins", 1);
                    }
                }
                FaultAction::Rejoin { count } => {
                    // Crash-recovered processors re-enter the joining path
                    // under fresh identifiers (the paper's rejoin-as-
                    // newcomer rule).
                    for _ in 0..*count {
                        let id = sim.fresh_id();
                        sim.add_process_with_id(id, T::spawn_joiner(id, n));
                        bump(counters, "recoveries", 1);
                    }
                }
                FaultAction::CorruptState(victim) => {
                    // Crashed or unknown victims are skipped (a corrupted
                    // crashed node takes no steps anyway) without consuming
                    // adversary randomness.
                    if sim.is_active(*victim) {
                        if let Some(process) = sim.process_mut(*victim) {
                            let effects = process.corrupt(&mut self.adversary_rng);
                            if let Some(rec) = self.recorder.as_mut() {
                                for (object, value) in effects {
                                    rec.adversary_write(object, value, now.as_u64());
                                }
                            }
                            bump(counters, "corruptions", 1);
                        }
                    }
                }
                FaultAction::CorruptPayloads(victim) => {
                    let rng = &mut self.adversary_rng;
                    let touched = sim
                        .network_mut()
                        .corrupt_inbound_payloads(*victim, |payloads| {
                            // Misattribute: permute the payload *values* over
                            // the packet slots (shuffling the mutable references
                            // would only reorder the temporary list and leave
                            // the channel contents untouched).
                            let mut values: Vec<T::Msg> =
                                payloads.iter().map(|p| (**p).clone()).collect();
                            rng.shuffle(&mut values);
                            for (slot, value) in payloads.iter_mut().zip(values) {
                                **slot = value;
                            }
                            for payload in payloads.iter_mut() {
                                T::corrupt_payload(payload, rng);
                            }
                        });
                    bump(counters, "payload_corruptions", touched as u64);
                }
                FaultAction::Inject {
                    claimed_sender,
                    target,
                    forge,
                } => {
                    let payload: Option<T::Msg> = match forge {
                        // Replay is protocol-agnostic: an exact copy of a
                        // packet already in flight towards the target,
                        // preferring the claimed sender's channel, else the
                        // first inbound channel (ascending sender order)
                        // holding one.
                        ForgeKind::Replay => {
                            let net = sim.network();
                            net.channel(*claimed_sender, *target)
                                .and_then(|ch| ch.in_flight().next().map(|p| p.msg().clone()))
                                .or_else(|| {
                                    net.links().filter(|(_, to)| to == target).find_map(
                                        |(from, to)| {
                                            net.channel(from, to)
                                                .and_then(|ch| ch.in_flight().next())
                                                .map(|p| p.msg().clone())
                                        },
                                    )
                                })
                        }
                        _ => T::forge_payload(
                            *forge,
                            *claimed_sender,
                            *target,
                            sim,
                            &mut self.adversary_rng,
                        ),
                    };
                    if let Some(msg) = payload {
                        sim.network_mut().inject(*claimed_sender, *target, msg);
                        injected_this_round += 1;
                        bump(counters, "injections", 1);
                    }
                }
            }
        }
        if !past_churn {
            self.cuts.confine_joiners(sim, n);
        }
        // The generalized conservation check: whatever the round's actions
        // did to the network, the packet count moved by exactly the number
        // of declared injections.
        if !actions.is_empty() {
            let in_flight_after = sim.network().in_flight_total();
            if in_flight_after != in_flight_before + injected_this_round as usize {
                self.runner_violations.push(format!(
                    "fault actions created or destroyed packets: in-flight went \
                     {in_flight_before} → {in_flight_after} with {injected_this_round} injections"
                ));
            }
        }
    }

    /// The convergence check after a round, and the stays-converged probe
    /// after first convergence on armed runs. Returns whether the run ends
    /// here.
    fn probe_convergence(&mut self) -> bool {
        let now = self.sim.now();
        if self.rounds_to_convergence.is_none()
            && now > self.quiet_after
            && now.as_u64() >= self.scenario.workload_rounds
            && T::converged(&self.sim)
        {
            self.rounds_to_convergence = Some(now.as_u64());
            match self.scenario.history.as_ref() {
                // Unarmed: stop at first convergence.
                None => return true,
                // Armed: keep executing through the probe window, enforcing
                // *eventually-stays-converged* (not just *eventually-
                // converges*).
                Some(cfg) => {
                    self.probe.done_at = Some(now.as_u64() + cfg.probe_rounds);
                    self.probe.was_converged = true;
                }
            }
        } else if let Some(done_at) = self.probe.done_at {
            let now_converged = T::converged(&self.sim);
            if self.probe.was_converged && !now_converged {
                self.probe.violations += 1;
                self.probe.first_unstable.get_or_insert(now.as_u64());
            }
            self.probe.was_converged = now_converged;
            return now.as_u64() >= done_at;
        }
        false
    }
}

fn bump(counters: &mut BTreeMap<String, u64>, key: &str, by: u64) {
    *counters.entry(key.to_string()).or_insert(0) += by;
}

/// The catalog's rows: name, round budget, workload window, schedule and
/// description. A schedule is one `--plan` line ([`crate::plan::apply_spec`])
/// in which `{m}` stands for the minority (the ⌊(n−1)/2⌋ highest initial
/// identifiers counting down, joined by `+`; empty for n ≤ 2), `{l}` for the
/// last initial identifier n−1 and `{g}` for n+40, a sender that never
/// exists at any population size the campaigns run (forged-sender
/// injections claim to come from it).
#[rustfmt::skip]
const CATALOG: &[(&str, u64, u64, &str, &str)] = &[
    ("quiescent", 1_500, 40, "",
     "no faults: bootstrap from scratch and settle"),
    ("crash-minority", 1_500, 60, "crash=30:{m}",
     "a minority of the population crashes simultaneously"),
    ("partition-heal", 2_000, 110, "split=30 heal=70",
     "the cluster splits into halves and heals 40 rounds later"),
    ("churn", 2_000, 90, "join=30:2 crash=45:{l} join=60:1",
     "two joiners, then a crash, then one more joiner"),
    ("packet-storm", 2_000, 90, "spike=30+30:0.25/0.1/2",
     "a 30-round loss/duplication/delay spike on every link"),
    ("state-blast", 2_000, 90, "corrupt=30:{m} corrupt=60:0",
     "transient state corruption of a minority, twice"),
    ("partition-churn", 2_500, 110, "split=30 join=40:2 heal=60 crash=80:{l}",
     "joins during a partition, heal, then a late crash"),
    ("chaos-mix", 3_000, 120,
     "spike=20+20:0.25/0.1/2 split=30 join=40:1 heal=55 crash=70:{l} corrupt=85:0",
     "spike + partition + crash + joins + corruption, overlapping"),
    ("one-way-cut", 2_500, 110, "oneway=30 healoneway=70",
     "the lower half goes deaf to the upper half, healing 40 rounds later"),
    ("gray-lag", 2_500, 100, "gray=30+40:6:{m}",
     "a minority runs at 6x the timer period for 40 rounds, then recovers"),
    ("wire-corruption", 2_000, 90, "payload=30:{m} payload=45:0 payload=60:{m}",
     "payloads in flight towards a minority are corrupted, three times"),
    ("clock-skew", 2_500, 80, "skew=20:3:{m}",
     "a minority's clock runs 3x slow forever; the system converges anyway"),
    ("crash-recovery", 2_500, 100, "recover=30+30:{m}",
     "a minority crashes, then rejoins under fresh identifiers"),
    ("byzantine-storm", 2_500, 90,
     "byzantine=30:forged-sender:{g}:{m} byzantine=40:replay:0:{m} \
      byzantine=50:stale-state:0:{m} byzantine=60:forged-sender:{g}:0",
     "crafted packets: forged-sender heartbeats from a ghost, replays and \
      stale-state payloads towards a minority"),
];

/// The built-in scenario catalog, sized for an initial population of `n`
/// processors: one scenario per row of its table, each with its schedule
/// parsed from `--plan` text. These are the named scenarios `simctl run`
/// accepts and the CI chaos matrix sweeps; docs/FAULTS.md "The catalog"
/// says what each one exercises.
///
/// A row whose faults all act on nobody at this `n` ([`Fault::acts`]) is
/// left out: it would run fault-free under a fault's name. At n = 2 the
/// minority is empty, and the four rows that fault only the minority go.
pub fn catalog(n: usize) -> Vec<Scenario> {
    let l = n.saturating_sub(1);
    let m: Vec<String> = (0..l / 2).map(|i| (l - i).to_string()).collect();
    let (m, l, g) = (m.join("+"), l.to_string(), (n + 40).to_string());
    CATALOG
        .iter()
        .map(|&(name, rounds, workload, schedule, description)| {
            let schedule = schedule
                .replace("{m}", &m)
                .replace("{l}", &l)
                .replace("{g}", &g);
            let scenario = Scenario::new(name, n)
                .describe(description)
                .with_rounds(rounds)
                .with_workload_until(workload);
            plan::apply_spec(scenario, &schedule)
                .unwrap_or_else(|err| panic!("catalog scenario {name}: {err}"))
        })
        .filter(|scenario| scenario.plans().is_empty() || scenario.plans().iter().any(Fault::acts))
        .collect()
}

/// Looks up a catalog scenario by name.
pub fn find(name: &str, n: usize) -> Option<Scenario> {
    catalog(n).into_iter().find(|s| s.name() == name)
}

/// Deterministically samples `k` of the given scenarios, seeded by the
/// campaign seed: a Fisher–Yates permutation of the index space (drawn from
/// [`SimRng`], the same generator every other campaign decision uses) picks
/// *which* scenarios run, and the picked ones keep their original order so
/// a sampled report remains enumeration-ordered — a strict subsequence of
/// the full matrix, diffable cell-for-cell against it. `k >= len` returns
/// the list unchanged. Same (list, k, seed) always selects the same subset,
/// so a sampled CI tier is as reproducible as an exhaustive one.
pub fn sample_scenarios(scenarios: Vec<Scenario>, k: usize, seed: u64) -> Vec<Scenario> {
    if k >= scenarios.len() {
        return scenarios;
    }
    let mut rng = SimRng::seed_from(seed);
    let mut indices: Vec<usize> = (0..scenarios.len()).collect();
    rng.shuffle(&mut indices);
    let mut keep: Vec<usize> = indices.into_iter().take(k).collect();
    keep.sort_unstable();
    scenarios
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep.binary_search(i).is_ok())
        .map(|(_, s)| s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::SpikeSpec;
    use crate::testutil::{planned, MaxNode};

    fn run(scenario: &Scenario, seed: u64) -> ScenarioRun {
        let mut sim = scenario.build_sim::<MaxNode>(seed, SchedulerMode::EventDriven);
        run_scenario(scenario, &mut sim)
    }

    fn start(scenario: &Scenario, seed: u64) -> ScenarioRunner<MaxNode> {
        ScenarioRunner::new(
            scenario,
            scenario.build_sim(seed, SchedulerMode::EventDriven),
        )
    }

    #[test]
    fn catalog_names_are_unique_and_findable() {
        let scenarios = catalog(5);
        for s in &scenarios {
            assert!(find(s.name(), 5).is_some(), "{} not findable", s.name());
            assert!(!s.description().is_empty());
        }
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
        assert!(find("no-such-scenario", 5).is_none());
    }

    /// At n = 2 the minority is empty: the four rows that fault only the
    /// minority are left out, and every scenario left with a schedule
    /// applies a fault action at some round. From n = 3 on every row stays.
    #[test]
    fn catalog_leaves_out_rows_that_fault_nobody() {
        let small = catalog(2);
        let names: Vec<&str> = small.iter().map(|s| s.name()).collect();
        #[rustfmt::skip]
        assert_eq!(names, [
            "quiescent", "partition-heal", "churn", "packet-storm", "state-blast",
            "partition-churn", "chaos-mix", "one-way-cut", "wire-corruption", "byzantine-storm",
        ]);
        for scenario in catalog(2) {
            let rounds = 0..=scenario.last_fault_round().as_u64();
            let acts = rounds
                .map(Round::new)
                .any(|r| !scenario.actions_at(r).is_empty());
            assert!(
                acts || scenario.plans().is_empty(),
                "{} faults nobody",
                scenario.name()
            );
        }
        for n in 3..=8 {
            assert_eq!(catalog(n).len(), CATALOG.len(), "n = {n}");
        }
    }

    /// The live-capable catalog scenarios are exactly the ones
    /// docs/LIVE.md's "Live-capable today:" sentence names.
    #[test]
    fn live_capable_matches_the_adapter_inventory() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/LIVE.md"))
                .expect("docs/LIVE.md exists");
        let doc = doc.split_whitespace().collect::<Vec<_>>().join(" ");
        let (_, sentence) = doc
            .split_once("Live-capable today:")
            .expect("docs/LIVE.md lists the live-capable scenarios");
        let sentence = &sentence[..sentence.find('.').unwrap_or(sentence.len())];
        let listed: Vec<&str> = sentence.split('`').skip(1).step_by(2).collect();
        assert!(!listed.is_empty(), "no scenario named in `{sentence}`");
        for name in &listed {
            assert!(find(name, 5).is_some(), "docs/LIVE.md names unknown {name}");
        }
        for scenario in catalog(5) {
            assert_eq!(
                scenario.live_capable(),
                listed.contains(&scenario.name()),
                "{}: live_capable() disagrees with docs/LIVE.md",
                scenario.name()
            );
        }
    }

    #[test]
    fn sample_scenarios_is_deterministic_and_order_preserving() {
        let full = catalog(5);
        let a = sample_scenarios(catalog(5), 4, 99);
        let b = sample_scenarios(catalog(5), 4, 99);
        let names = |v: &[Scenario]| v.iter().map(|s| s.name().to_string()).collect::<Vec<_>>();
        assert_eq!(
            names(&a),
            names(&b),
            "same (k, seed) must pick the same subset"
        );
        assert_eq!(a.len(), 4);
        // The picked scenarios keep their catalog order (a strict
        // subsequence of the full matrix).
        let positions: Vec<usize> = a
            .iter()
            .map(|s| full.iter().position(|f| f.name() == s.name()).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{positions:?}");
        // The seed genuinely selects: some other seed picks differently.
        assert!(
            (1..50).any(|seed| names(&sample_scenarios(catalog(5), 4, seed)) != names(&a)),
            "sampling ignored its seed"
        );
        // k >= len is the identity.
        assert_eq!(
            sample_scenarios(catalog(5), usize::MAX, 1).len(),
            full.len()
        );
        assert!(sample_scenarios(catalog(5), 0, 1).is_empty());
    }

    #[test]
    fn every_catalog_scenario_converges_for_the_toy_target() {
        for scenario in catalog(6) {
            let run = run(&scenario, 1);
            assert!(
                run.converged,
                "scenario {} did not converge: {run:?}",
                scenario.name()
            );
            assert!(run.invariant_violations.is_empty());
            assert!(run.rounds_to_convergence.unwrap() > scenario.last_fault_round().as_u64());
        }
    }

    #[test]
    fn fault_counters_match_the_schedule() {
        let scenario = planned("counts", 5, "crash=2:4 join=3:2 corrupt=4:0+1").with_rounds(40);
        let run = run(&scenario, 9);
        assert_eq!(run.counter("crashes"), 1);
        assert_eq!(run.counter("joins"), 2);
        assert_eq!(run.counter("corruptions"), 2);
        assert_eq!(run.counter("recoveries"), 0);
        assert_eq!(run.counter("slowdowns"), 0);
        assert!(run.converged);
        // Registered keys are present even at zero; unregistered keys are
        // absent entirely.
        assert!(run.counters.contains_key("crashes"));
        assert!(!run.counters.contains_key("injections"));
    }

    /// The new fault classes land and are counted: gray windows and skews
    /// as slowdowns, payload corruption per packet touched, and recovery
    /// crashes/rejoins split across `crashes` and `recoveries`.
    #[test]
    fn new_fault_counters_match_the_schedule() {
        let scenario = planned(
            "new-counts",
            6,
            "gray=2+10:4:1 skew=3:2:2 payload=4:0 recover=5+6:5",
        )
        .with_rounds(80);
        let run = run(&scenario, 4);
        assert_eq!(run.counter("slowdowns"), 2, "{run:?}");
        assert!(run.counter("payload_corruptions") > 0, "{run:?}");
        assert_eq!(run.counter("crashes"), 1);
        assert_eq!(run.counter("recoveries"), 1);
        assert_eq!(run.counter("joins"), 0);
        assert!(run.converged, "{run:?}");
        assert!(run.invariant_violations.is_empty(), "{run:?}");
    }

    /// Byzantine injection through the runner: forged and replayed packets
    /// land (counted as injections), packet conservation accounts for them,
    /// and the max-flood target still converges.
    #[test]
    fn byzantine_injections_are_applied_and_accounted() {
        let scenario = planned(
            "byz",
            4,
            "byzantine=3:forged-sender:9:0+1 byzantine=5:replay:2:0 byzantine=7:stale-state:1:2",
        )
        .with_rounds(60);
        let run = run(&scenario, 5);
        assert!(run.converged, "{run:?}");
        assert!(run.invariant_violations.is_empty(), "{run:?}");
        assert!(run.counter("injections") >= 3, "{run:?}");
        // Byte-identical on a rerun with injections in force.
        assert_eq!(run, self::run(&scenario, 5));
    }

    /// Two Byzantine faults compose like any other faults: both inject, the
    /// shared `injections` counter sums them, and no invariant misfires on
    /// the composition.
    #[test]
    fn two_byzantine_plans_compose_without_false_violations() {
        let scenario = planned(
            "byz-pair",
            4,
            "byzantine=3:forged-sender:9:0 byzantine=5:forged-sender:9:1",
        )
        .with_rounds(60);
        let run = run(&scenario, 7);
        assert!(run.converged, "{run:?}");
        assert!(run.invariant_violations.is_empty(), "{run:?}");
        assert_eq!(run.counter("injections"), 2, "{run:?}");
    }

    /// One spike window counts as one spike: the closing restore to the
    /// base policy is not re-counted.
    #[test]
    fn a_spike_window_counts_once() {
        let scenario = planned("spike-count", 4, "spike=3+6:0.3/0/1").with_rounds(80);
        let run = run(&scenario, 11);
        assert!(run.converged, "{run:?}");
        assert_eq!(run.counter("spikes"), 1, "{run:?}");
        assert_eq!(scenario.plans().len(), 1);
    }

    /// The order faults of different classes were scheduled in never changes
    /// the per-round action list: phases order the classes, and same-phase
    /// actions keep insertion order. Heals land before same-round cuts.
    #[test]
    fn builder_order_does_not_change_the_action_set() {
        let forward = planned(
            "fwd",
            4,
            "crash=4:1 join=4:1 skew=4:3:2 split=4 heal=4 oneway=4 healoneway=4",
        );
        let backward = planned(
            "bwd",
            4,
            "healoneway=4 oneway=4 heal=4 split=4 skew=4:3:2 join=4:1 crash=4:1",
        );
        for round in 0..8u64 {
            assert_eq!(
                forward.actions_at(Round::new(round)),
                backward.actions_at(Round::new(round)),
                "round {round}"
            );
        }
    }

    /// Crash-recovery through the runner: the victim stays dead, the
    /// replacement joins under a fresh identifier and adopts the system
    /// state.
    #[test]
    fn crash_recovery_rejoins_under_a_fresh_identifier() {
        let scenario = planned("recovery", 4, "recover=3+5:3").with_rounds(60);
        let mut sim = scenario.build_sim::<MaxNode>(2, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert!(run.converged, "{run:?}");
        assert_eq!(run.counter("recoveries"), 1);
        assert!(!sim.is_active(ProcessId::new(3)));
        assert!(sim.is_active(ProcessId::new(4)));
        // The recovered processor converged with everyone else.
        let value = sim.process(ProcessId::new(4)).unwrap().value;
        assert_eq!(value, sim.process(ProcessId::new(0)).unwrap().value);
    }

    /// A one-way cut keeps information flowing in the open direction only,
    /// and the runner's asymmetry invariant holds.
    #[test]
    fn one_way_cut_is_asymmetric_and_heals() {
        let scenario = planned("oneway", 4, "oneway=0 healoneway=12").with_rounds(60);
        let mut sim = scenario.build_sim::<MaxNode>(3, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert!(run.converged, "{run:?}");
        assert!(run.invariant_violations.is_empty(), "{run:?}");
        assert!(run.rounds_to_convergence.unwrap() > 12);
        assert_eq!(sim.network().blocked_link_count(), 0);
    }

    /// Gray failure: the slowed process takes fewer steps during the
    /// window, recovers afterwards, and the run converges.
    #[test]
    fn gray_failure_slows_then_recovers() {
        let victim = ProcessId::new(2);
        let scenario = planned("gray", 4, "gray=4+20:5:2").with_rounds(80);
        let mut sim = scenario.build_sim::<MaxNode>(5, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert!(run.converged, "{run:?}");
        assert!(run.invariant_violations.is_empty(), "{run:?}");
        assert_eq!(run.counter("slowdowns"), 1);
        assert_eq!(sim.timer_period_override(victim), None, "override restored");
        let victim_steps = sim.timer_steps_of(victim).unwrap();
        let peer_steps = sim.timer_steps_of(ProcessId::new(0)).unwrap();
        assert!(victim_steps < peer_steps, "{victim_steps} vs {peer_steps}");
    }

    /// A one-way heal and a new cut scheduled for the same round leave
    /// exactly the new cut — and no spurious asymmetry violation, even
    /// when the new cut is the old one reversed.
    #[test]
    fn same_round_oneway_heal_and_cut_flip_cleanly() {
        let scenario = planned(
            "flip",
            4,
            "oneway=2:0+1>2+3 oneway=6:2+3>0+1 healoneway=6 healoneway=10",
        )
        .with_rounds(60);
        let mut sim = scenario.build_sim::<MaxNode>(4, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert!(run.invariant_violations.is_empty(), "{run:?}");
        assert!(run.converged, "{run:?}");
        assert_eq!(sim.network().blocked_link_count(), 0);
    }

    /// Overlapping symmetric and one-way windows compose: neither plan's
    /// heal lifts the other plan's still-active blocks, even on shared
    /// links.
    #[test]
    fn oneway_and_symmetric_plans_compose_on_shared_links() {
        let p = |i: u32| ProcessId::new(i);
        let scenario = planned(
            "compose",
            4,
            "split=2:0+1/2+3 oneway=4:2+3>0+1 healoneway=6 heal=20",
        )
        .with_rounds(60);
        let mut runner = start(&scenario, 1);
        // Between the one-way heal (6) and the full heal (20), the
        // symmetric split must still block both directions.
        runner.advance_to(Round::new(10));
        assert!(runner.sim().network().is_blocked(p(2), p(0)));
        assert!(runner.sim().network().is_blocked(p(0), p(2)));
        let run = runner.finish();
        assert!(run.converged, "{run:?}");
        assert!(run.invariant_violations.is_empty(), "{run:?}");
        assert_eq!(runner.sim().network().blocked_link_count(), 0);

        // The other direction: a symmetric full heal must not lift a
        // one-way cut still in force.
        let scenario = planned(
            "compose-rev",
            4,
            "oneway=2:2+3>0+1 split=4:0+1/2+3 heal=6 healoneway=20",
        )
        .with_rounds(60);
        let mut runner = start(&scenario, 1);
        runner.advance_to(Round::new(10));
        assert!(runner.sim().network().is_blocked(p(2), p(0)));
        assert!(!runner.sim().network().is_blocked(p(0), p(2)));
        let run = runner.finish();
        assert!(run.converged, "{run:?}");
        assert!(run.invariant_violations.is_empty(), "{run:?}");
        assert_eq!(runner.sim().network().blocked_link_count(), 0);
    }

    /// Processors joining during an active one-way cut are confined to one
    /// side of it — they must not relay around the cut in either direction.
    #[test]
    fn joiners_during_a_oneway_cut_do_not_bridge_it() {
        let scenario = planned("oneway-bridge", 4, "oneway=0 join=2:2").with_rounds(15);
        let mut sim = scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert_eq!(run.counter("joins"), 2);
        assert!(!run.converged, "a bridged cut would let the halves agree");
        let net = sim.network();
        // Joiner 4 (even) lands on the muted `from` side {2,3}: it hears
        // everyone but cannot send towards the deaf lower half.
        assert!(net.is_blocked(ProcessId::new(4), ProcessId::new(0)));
        assert!(!net.is_blocked(ProcessId::new(0), ProcessId::new(4)));
        // Joiner 5 (odd) lands on the deaf `to` side {0,1}: the upper half
        // (including joiner 4) cannot reach it.
        assert!(net.is_blocked(ProcessId::new(2), ProcessId::new(5)));
        assert!(net.is_blocked(ProcessId::new(4), ProcessId::new(5)));
        assert!(!net.is_blocked(ProcessId::new(5), ProcessId::new(2)));
        // The upper half's maximum (3) never leaked into the deaf side.
        for deaf in [0u32, 1, 5] {
            assert_eq!(sim.process(ProcessId::new(deaf)).unwrap().value, 1);
        }
        for heard in [2u32, 3, 4] {
            assert_eq!(sim.process(ProcessId::new(heard)).unwrap().value, 3);
        }
    }

    /// Adjacent gray windows are one continuous slowdown: the seam neither
    /// restores the victim nor counts a second slowdown.
    #[test]
    fn adjacent_gray_windows_count_one_slowdown() {
        let victim = ProcessId::new(1);
        let scenario = planned("adjacent", 4, "gray=2+5:6:1 gray=7+5:6:1").with_rounds(60);
        let mut sim = scenario.build_sim::<MaxNode>(9, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert!(run.converged, "{run:?}");
        assert_eq!(run.counter("slowdowns"), 1, "{run:?}");
        assert_eq!(sim.timer_period_override(victim), None);
    }

    /// A permanent skew survives a gray window on the same victim: the
    /// gray restore must not wipe the skew's override, and the slower of
    /// the two wins while both are in force.
    #[test]
    fn skew_is_a_floor_under_gray_windows() {
        let victim = ProcessId::new(1);
        let scenario = planned("gray-over-skew", 4, "skew=2:3:1 gray=4+8:7:1").with_rounds(80);
        let mut runner = start(&scenario, 8);
        // Probe the composed override mid-window by gossiping it: with no
        // workload the probe (7 = max(skew 3, gray 7)) dominates every
        // initial value, so the converged value *is* the observed override.
        runner.advance_to(Round::new(6));
        let sim = runner.sim_mut();
        sim.process_mut(ProcessId::new(0)).unwrap().value =
            sim.timer_period_override(victim).unwrap_or(0);
        let run = runner.finish();
        assert!(run.converged, "{run:?}");
        assert!(run.invariant_violations.is_empty(), "{run:?}");
        assert_eq!(runner.sim().process(ProcessId::new(0)).unwrap().value, 7);
        // After the gray window the skew is still in force, forever.
        assert_eq!(runner.sim().timer_period_override(victim), Some(3));
    }

    /// Clock skew never heals: the run converges *with* the slow process
    /// still slow.
    #[test]
    fn clock_skew_converges_with_the_skew_in_force() {
        let victim = ProcessId::new(1);
        let scenario = planned("skew", 4, "skew=2:3:1").with_rounds(80);
        let mut sim = scenario.build_sim::<MaxNode>(6, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert!(run.converged, "{run:?}");
        assert!(run.invariant_violations.is_empty(), "{run:?}");
        assert_eq!(sim.timer_period_override(victim), Some(3), "skew persists");
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let scenario = planned("det", 4, "corrupt=1:0").with_rounds(30);
        let a = run(&scenario, 5);
        let b = run(&scenario, 5);
        assert_eq!(a, b);
        let c = run(&scenario, 6);
        // A different seed corrupts with different values (almost surely).
        assert_ne!(a.state_digest, c.state_digest);
    }

    /// A white-box step between rounds (here a corruption no plan
    /// schedules) joins the run: the rest of the run starts from it. The
    /// workload window keeps the run from ending, converged, before it.
    #[test]
    fn extras_run_alongside_the_declarative_schedule() {
        let scenario = Scenario::new("extras", 3)
            .with_rounds(20)
            .with_workload_until(4);
        let mut runner = start(&scenario, 1);
        runner.advance_to(Round::new(2));
        assert_eq!(runner.sim().now(), Round::new(2));
        runner
            .sim_mut()
            .process_mut(ProcessId::new(0))
            .unwrap()
            .value = 999;
        let run = runner.finish();
        assert!(run.converged);
        assert_eq!(runner.sim().process(ProcessId::new(2)).unwrap().value, 999);
    }

    /// Processors joining during an active partition are confined to one
    /// side of the cut — they must not bridge the halves with open links.
    #[test]
    fn joiners_during_a_partition_do_not_bridge_the_cut() {
        let scenario = planned("bridge", 4, "split=0 join=2:2").with_rounds(15);
        let mut sim = scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert_eq!(run.counter("joins"), 2);
        assert!(!run.converged, "a bridged cut would let the halves agree");
        // Joiners 4 and 5 land on sides 4 % 2 = 0 and 5 % 2 = 1.
        let net = sim.network();
        assert!(net.is_blocked(ProcessId::new(4), ProcessId::new(2)));
        assert!(net.is_blocked(ProcessId::new(5), ProcessId::new(0)));
        assert!(net.is_blocked(ProcessId::new(4), ProcessId::new(5)));
        assert!(!net.is_blocked(ProcessId::new(4), ProcessId::new(0)));
        assert!(!net.is_blocked(ProcessId::new(5), ProcessId::new(2)));
        // The maximum of side B (value 3) never leaked into side A.
        for a in [0u32, 1, 4] {
            assert_eq!(sim.process(ProcessId::new(a)).unwrap().value, 1);
        }
        for b in [2u32, 3, 5] {
            assert_eq!(sim.process(ProcessId::new(b)).unwrap().value, 3);
        }
    }

    /// The reverse ordering: a processor that joined *before* a later
    /// split is likewise confined when the split fires — a value born on
    /// side B after the split must not reach side A through the joiner.
    #[test]
    fn pre_split_joiners_are_confined_when_the_split_fires() {
        let scenario = planned("pre-bridge", 4, "join=2:1 split=6 corrupt=8:3").with_rounds(20);
        let mut sim = scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert_eq!(run.counter("joins"), 1);
        assert_eq!(run.counter("corruptions"), 1);
        assert!(!run.converged, "a bridged cut would let the halves agree");
        // Joiner 4 lands on side 4 % 2 = 0: cut off from side B.
        let net = sim.network();
        assert!(net.is_blocked(ProcessId::new(4), ProcessId::new(2)));
        assert!(net.is_blocked(ProcessId::new(2), ProcessId::new(4)));
        assert!(!net.is_blocked(ProcessId::new(4), ProcessId::new(1)));
        // The corrupted maximum (≥ 100) born on side B after the split
        // stays there; side A — including the pre-split joiner — keeps the
        // pre-split maximum.
        for a in [0u32, 1, 4] {
            assert_eq!(sim.process(ProcessId::new(a)).unwrap().value, 3);
        }
        for b in [2u32, 3] {
            assert!(sim.process(ProcessId::new(b)).unwrap().value >= 100);
        }
    }

    /// Stacked splits without an intervening heal: a joiner is confined
    /// with respect to every active cut, not just the most recent one.
    #[test]
    fn joiners_are_confined_by_every_stacked_split() {
        let p = |i: u32| ProcessId::new(i);
        let scenario =
            planned("stacked", 4, "split=2:0+1/2+3 split=4:0+2/1+3 join=6:1").with_rounds(20);
        let mut sim = scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert_eq!(run.counter("joins"), 1);
        // Joiner 4 lands on side 4 % 2 = 0 of *both* splits: group {0,1} of
        // the first cut and group {0,2} of the second — so the only peer it
        // may reach is p0 (the intersection).
        let net = sim.network();
        assert!(!net.is_blocked(p(4), p(0)));
        for other in [1u32, 2, 3] {
            assert!(
                net.is_blocked(p(4), p(other)),
                "joiner bridges a stacked cut to p{other}"
            );
        }
    }

    #[test]
    fn partition_delays_convergence_until_heal() {
        let scenario = planned("split", 4, "split=0 heal=15").with_rounds(60);
        let run = run(&scenario, 2);
        assert!(run.converged);
        assert!(run.rounds_to_convergence.unwrap() > 15);
    }

    #[test]
    fn plans_lists_the_composed_faults_in_insertion_order() {
        let spec = SpikeSpec {
            loss: 0.5,
            duplication: 0.0,
            extra_delay: 0,
        };
        let scenario = planned("access", 4, "spike=3+4:0.5/0/0 crash=2:0");
        assert_eq!(
            scenario.plans(),
            [
                Fault::Spike {
                    round: Round::new(3),
                    duration: 4,
                    spec
                },
                Fault::Crash {
                    round: Round::new(2),
                    victims: vec![ProcessId::new(0)]
                },
            ]
        );
        assert_eq!(scenario.last_fault_round(), Round::new(7));
    }
}

/// Property tests for the composition rule: the per-round action set of a
/// scenario is independent of the order its faults were scheduled in.
#[cfg(test)]
mod composition_proptests {
    use super::*;
    use proptest::prelude::*;

    /// One randomly built fault.
    fn build_fault(choice: u8, round: u64, victim: u32, extra: u64) -> Fault {
        let round = Round::new(round);
        let victims = vec![ProcessId::new(victim)];
        match choice % 6 {
            0 => Fault::Crash { round, victims },
            1 => Fault::Join {
                round,
                count: (extra % 3) as u32 + 1,
            },
            2 => Fault::Corrupt { round, victims },
            3 => Fault::Skew {
                round,
                period: extra % 5 + 1,
                victims,
            },
            4 => Fault::Gray {
                round,
                duration: extra % 8,
                period: extra % 5 + 2,
                victims,
            },
            _ => Fault::Byzantine {
                round,
                forge: ForgeKind::Replay,
                claimed: ProcessId::new(victim),
                targets: vec![ProcessId::new((victim + 1) % 4)],
            },
        }
    }

    proptest! {
        /// Any insertion order of arbitrary faults yields the same
        /// phase-ordered action list at every round.
        #[test]
        fn composition_order_never_changes_the_per_round_action_set(
            specs in proptest::collection::vec((0u8..6, 0u64..12, 0u32..4, 0u64..9), 1..5),
            seed in 0usize..24,
        ) {
            let forward = specs
                .iter()
                .fold(Scenario::new("fwd", 4), |s, (c, r, v, e)| {
                    s.with_fault(build_fault(*c, *r, *v, *e))
                });
            // A deterministic permutation of the same faults.
            let mut order: Vec<usize> = (0..specs.len()).collect();
            order.rotate_left(seed % specs.len().max(1));
            let shuffled = order
                .iter()
                .fold(Scenario::new("shuf", 4), |s, i| {
                    let (c, r, v, e) = specs[*i];
                    s.with_fault(build_fault(c, r, v, e))
                });
            for round in 0..16u64 {
                let mut a = forward.actions_at(Round::new(round));
                let mut b = shuffled.actions_at(Round::new(round));
                // Same multiset, phase-sorted: compare order-insensitively
                // within phases via a canonical debug rendering.
                let canon = |actions: &mut Vec<FaultAction>| {
                    let mut lines: Vec<String> =
                        actions.iter().map(|x| format!("{}:{x:?}", x.phase())).collect();
                    lines.sort();
                    lines
                };
                prop_assert_eq!(canon(&mut a), canon(&mut b), "round {}", round);
            }
        }
    }
}

/// The fork oracle: a [`ScenarioRunner`] cloned at any round boundary is the
/// same execution as the run it was cloned from. Random scenarios over the
/// toy target — faults, lossy and delaying links, client load and armed
/// histories included — are advanced to a random round `k` and forked; the
/// fork and the original must each finish exactly as a cold run does (the
/// verdict, the metrics the campaign reports, and the next draw of both the
/// scheduler's and the adversary's random stream), and a fork mutated
/// white-box must leave the original untouched. A campaign forks
/// every cell from a shared prefix, so this is what makes its reports equal
/// to the cold per-cell loop's.
#[cfg(test)]
mod fork_oracle {
    use super::*;
    use crate::load::Arrival;
    use crate::testutil::MaxNode;
    use proptest::prelude::*;
    use rand::RngCore;

    /// One raw fault draw `(kind, round, a, b)`, reduced to a valid fault of
    /// the selected class whatever the values.
    type RawFault = (u32, u64, u32, u64);

    /// The fault as `--plan` text.
    fn compose((kind, round, a, b): RawFault, n: usize) -> String {
        let victim = a % n as u32;
        let later = round + 2 + b % 8;
        match kind % 11 {
            0 => format!("crash={round}:{victim}"),
            1 => format!("join={round}:{}", 1 + a % 2),
            2 => format!("split={round} heal={later}"),
            3 => format!("oneway={round} healoneway={later}"),
            4 => format!("gray={round}+{}:{}:{victim}", 2 + b % 10, 2 + a % 4),
            5 => format!("skew={round}:{}:{victim}", 2 + b % 3),
            6 => format!("recover={round}+{}:{victim}", 2 + b % 6),
            7 => format!("payload={round}:{victim}"),
            8 => format!("spike={round}+{}:0.3/0.3/{}", 2 + b % 6, b % 3),
            9 => {
                let forge = ["replay", "forged-sender", "stale-state"][b as usize % 3];
                format!("byzantine={round}:{forge}:{}:{victim}", (a + 1) % n as u32)
            }
            _ => format!("corrupt={round}:{victim}"),
        }
    }

    /// What a finished run must reproduce.
    type Outcome = (ScenarioRun, [u64; 5], u64, u64);

    fn finish(runner: &mut ScenarioRunner<MaxNode>) -> Outcome {
        let run = runner.finish();
        let metrics = runner.sim().metrics();
        let counts = [
            metrics.messages_sent(),
            metrics.messages_delivered(),
            metrics.messages_lost(),
            metrics.messages_duplicated(),
            metrics.timer_steps(),
        ];
        let scheduler_draw = runner.sim_mut().fork_rng().next_u64();
        (run, counts, scheduler_draw, runner.adversary_rng.next_u64())
    }

    /// White-box vandalism of every part of a run: process state, channel
    /// contents (through copy-on-write payloads), liveness, timers, and the
    /// adversary's stream.
    fn vandalize(runner: &mut ScenarioRunner<MaxNode>) {
        runner.adversary_rng.next_u64();
        let sim = runner.sim_mut();
        let ids = sim.ids();
        for &id in &ids {
            sim.process_mut(id).unwrap().value = 7_777;
            sim.network_mut().corrupt_inbound_payloads(id, |payloads| {
                for payload in payloads.iter_mut() {
                    **payload = 9_999;
                }
            });
        }
        sim.network_mut().inject(ids[0], ids[1], 8_888);
        sim.set_timer_period_override(ids[1], Some(5));
        sim.crash(ids[0]);
    }

    proptest! {
        #[test]
        fn a_fork_finishes_like_a_cold_run(
            run in (1u64..1_000, 3usize..=6, 0u64..90),
            faults in proptest::collection::vec((0u32..11, 0u64..50, 0u32..64, 0u64..64), 0..6),
            links in (0u64..3, 0u64..3, 0u64..3, any::<bool>()),
            window in (0u64..80, any::<bool>(), any::<bool>()),
        ) {
            let (seed, n, k) = run;
            let (loss, duplication, max_delay, reorder) = links;
            let (workload, load, armed) = window;
            let link = LinkProfile {
                loss: loss as f64 * 0.1,
                duplication: duplication as f64 * 0.1,
                max_delay,
                reorder,
                capacity: 8,
            };
            let mut scenario = Scenario::new("fork-oracle", n)
                .with_link(link)
                .with_rounds(120)
                .with_workload_until(workload);
            if load {
                scenario = scenario
                    .with_load(LoadProfile::new(8, Arrival::Poisson { rate: 0.5 }).with_op_timeout(6));
            }
            if armed {
                scenario = scenario.with_history_cfg(HistoryCfg {
                    probe_rounds: 8,
                    ..HistoryCfg::default()
                });
            }
            let schedule: Vec<String> = faults.into_iter().map(|fault| compose(fault, n)).collect();
            let scenario = plan::apply_spec(scenario, &schedule.join(" ")).unwrap();
            let sim = || scenario.build_sim::<MaxNode>(seed, SchedulerMode::EventDriven);
            let start = || ScenarioRunner::new(&scenario, sim());

            let cold = finish(&mut start());
            let mut original = start();
            original.advance_to(Round::new(k));
            let mut vandal = original.clone();
            vandalize(&mut vandal);
            vandal.finish();
            prop_assert_eq!(finish(&mut original.clone()), cold.clone(), "fork at round {}", k);
            prop_assert_eq!(finish(&mut original), cold, "original forked at round {}", k);
        }
    }
}
