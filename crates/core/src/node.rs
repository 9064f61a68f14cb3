//! The composite reconfiguration node.
//!
//! [`ReconfigNode`] wires together everything a single processor runs in the
//! paper's architecture diagram (Figure 1): the `(N,Θ)`-failure detector fed
//! by heartbeats, the Reconfiguration Stability Assurance layer (recSA), the
//! Reconfiguration Management layer (recMA) and the joining mechanism, plus
//! the two application hooks (`evalConf()` and `passQuery()`).
//!
//! The node is written context-free, as a [`Layer`] generic over the sink it
//! sends into, so higher layers (the virtual-synchrony and shared-memory
//! nodes) embed it and have its traffic land in their own outbox, wrapped in
//! their own message enums. It also implements [`simnet::Process`], so it
//! can be dropped straight into a simulation.

use std::collections::BTreeSet;

use failure_detector::ThetaFailureDetector;
use simnet::stack::{Layer, Sink};
use simnet::ProcessId;

use crate::join::{JoinMsg, Joining};
use crate::policy::{AdmissionPolicy, EvalPolicy};
use crate::recma::{RecMa, RecMaMsg};
use crate::recsa::{RecSa, RecSaMsg};
use crate::types::{ConfigSet, ConfigValue, SharedConfig, SharedSet};

/// Static configuration of a [`ReconfigNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The bound `N` on the number of simultaneously active processors.
    pub n_bound: usize,
    /// The failure-detector suspicion threshold `Θ`.
    pub theta: u64,
    /// The application's reconfiguration prediction function.
    pub eval_policy: EvalPolicy,
    /// The application's admission policy for joining processors.
    pub admission: AdmissionPolicy,
    /// How many consecutive steps a non-participant waits without seeing any
    /// participant or configuration before it bootstraps the system by
    /// becoming a brute-force resetter. `None` disables self-bootstrap.
    pub bootstrap_patience: Option<u64>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            n_bound: 64,
            theta: 256,
            eval_policy: EvalPolicy::Never,
            admission: AdmissionPolicy::AdmitAll,
            bootstrap_patience: Some(16),
        }
    }
}

impl NodeConfig {
    /// Creates the default configuration sized for `n_bound` processors.
    ///
    /// `Θ` must dominate the number of heartbeats a correct processor can
    /// legitimately lag behind: the stack emits ~3 messages per peer per
    /// round (heartbeat, recSA broadcast, recMA flags), every received
    /// packet counts as a heartbeat, and delivery order within a round is
    /// arbitrary, so a peer may trail by several rounds of full traffic
    /// (`≈ 6·n_bound` counts) before it is genuinely late. `8·n_bound`
    /// keeps the spurious-suspicion probability negligible at every scale
    /// the experiments exercise while still detecting crashes within a few
    /// rounds.
    pub fn for_n(n_bound: usize) -> Self {
        NodeConfig {
            n_bound,
            theta: (8 * n_bound as u64).max(16),
            ..NodeConfig::default()
        }
    }

    /// The sizing every catalog stack spawns with for a population of `n`
    /// processes: [`NodeConfig::for_n`] with `N = 2·max(n, 4)`, which leaves
    /// room for the joiners a scenario adds.
    #[inline]
    pub fn for_population(n: usize) -> Self {
        Self::for_n(2 * n.max(4))
    }

    /// Sets or disables the bootstrap patience (builder style).
    pub fn with_bootstrap_patience(mut self, patience: Option<u64>) -> Self {
        self.bootstrap_patience = patience;
        self
    }
}

simnet::wire_enum! {
    /// The protocol messages exchanged by [`ReconfigNode`]s: the wire format
    /// of the reconfiguration stack. Each payload-carrying variant is a
    /// lane (its payload converts into the wire enum), so sub-layer traffic
    /// (and the traffic of higher layers embedding this node) multiplexes
    /// through the shared [`simnet::stack`] mechanism.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ReconfigMsg {
        /// A liveness pulse, standing in for the paper's data-link token;
        /// every received message also counts as one.
        Heartbeat,
        /// recSA traffic (Algorithm 3.1, line 29).
        RecSa(RecSaMsg),
        /// recMA flag exchange (Algorithm 3.2, line 19).
        RecMa(RecMaMsg),
        /// Joining mechanism traffic (Algorithm 3.3).
        Join(JoinMsg),
    }
}

/// One processor of the self-stabilizing reconfiguration scheme.
#[derive(Debug, Clone)]
pub struct ReconfigNode {
    me: ProcessId,
    config: NodeConfig,
    fd: ThetaFailureDetector,
    recsa: RecSa,
    recma: RecMa,
    joining: Joining,
    lonely_steps: u64,
}

impl ReconfigNode {
    fn assemble(me: ProcessId, recsa: RecSa, config: NodeConfig) -> Self {
        let fd = ThetaFailureDetector::new(me, config.n_bound, config.theta);
        ReconfigNode {
            me,
            fd,
            recsa,
            recma: RecMa::new(me),
            joining: Joining::new(me),
            lonely_steps: 0,
            config,
        }
    }

    /// Creates a node that considers itself a participant but knows no
    /// configuration yet (`config[i] = ⊥`); the brute-force technique
    /// installs the first configuration. Use this for the initial members of
    /// a fresh deployment.
    pub fn new_participant(me: ProcessId, config: NodeConfig) -> Self {
        Self::assemble(me, RecSa::new_participant(me), config)
    }

    /// Creates a participant that already holds a configuration.
    pub fn new_with_config(me: ProcessId, initial: ConfigSet, config: NodeConfig) -> Self {
        Self::assemble(me, RecSa::new_with_config(me, initial), config)
    }

    /// Creates a joining node: it stays silent until the joining mechanism
    /// admits it.
    pub fn new_joiner(me: ProcessId, config: NodeConfig) -> Self {
        Self::assemble(me, RecSa::new_joiner(me), config)
    }

    /// This node's identifier.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The node's static configuration.
    pub fn node_config(&self) -> &NodeConfig {
        &self.config
    }

    /// `getConfig()`: the configuration this node currently reports.
    pub fn configuration(&self) -> ConfigValue {
        self.recsa.get_config()
    }

    /// The configuration installed locally, if it is a concrete set.
    pub fn installed_config(&self) -> Option<ConfigSet> {
        self.installed_config_ref().cloned()
    }

    /// [`ReconfigNode::installed_config`], borrowed.
    pub fn installed_config_ref(&self) -> Option<&ConfigSet> {
        self.recsa.own_config_shared().as_set()
    }

    // `sharedmem` and `vssmr` call the `#[inline]` service methods below per
    // message; inlined there, they cost what a private helper would.

    /// `noReco()`: `true` while no reconfiguration activity is apparent.
    /// The counter service aborts quorum requests while it is `false`
    /// (`CounterNode::follow_reconfig`), as Section 4.2's increments do.
    pub fn no_reconfiguration(&self) -> bool {
        self.recsa.no_reco()
    }

    /// `true` while this node's own notification is non-default (a delicate
    /// replacement) or its own configuration is ⊥ (a brute-force reset). The
    /// shared-memory emulation suspends register operations only then: this
    /// is narrower than `!noReco()`, which also reacts to participant churn.
    /// `tests/service_glue.rs` checks that it implies `!noReco()` for every
    /// active participant in every round of the `sharedmem` and `smr` catalog
    /// at n = 4 and 6, seed 1: in flux in 184 and 182 of 13,031 and 13,046
    /// (round, participant) pairs, `!noReco()` alone in 811 and 859 more.
    #[inline]
    pub fn config_in_flux(&self) -> bool {
        !self.recsa.own_notification_shared().is_default()
            || self.recsa.own_config_shared().is_bottom()
    }

    /// Returns `true` when this node is a member of its installed
    /// configuration.
    #[inline]
    pub fn is_member(&self) -> bool {
        self.installed_config_ref()
            .is_some_and(|cfg| cfg.contains(&self.me))
    }

    /// The installed configuration when it is a non-empty set: the quorums
    /// of the shared-memory emulation, which ignores an installed empty set.
    #[inline]
    pub fn installed_members(&self) -> Option<&ConfigSet> {
        self.recsa.own_config_shared().non_empty_set()
    }

    /// This node's `config[i]` behind recSA's shared handle: one
    /// reference-count bump, so an embedding service can read the installed
    /// configuration while it writes its own fields in the same step.
    #[inline]
    pub fn installed_config_shared(&self) -> SharedConfig {
        self.recsa.own_config_shared().clone()
    }

    /// `true` when the installed configuration holds no majority of
    /// `population`: the majority-loss recovery's state (recMA lines 13–14),
    /// with no quorum intersection with the pre-collapse configuration. The
    /// shared-memory emulation marks ops completed under it indeterminate.
    #[inline]
    pub fn config_collapsed(&self, population: u32) -> bool {
        self.installed_members()
            .is_some_and(|cfg| (cfg.len() as u32) * 2 <= population)
    }

    /// Returns `true` when this node is a participant.
    pub fn is_participant(&self) -> bool {
        self.recsa.is_participant()
    }

    /// The failure detector's current trusted set.
    pub fn trusted(&self) -> BTreeSet<ProcessId> {
        self.fd.trusted()
    }

    /// [`ReconfigNode::trusted`] behind the detector's shared handle.
    pub fn trusted_shared(&self) -> SharedSet {
        self.fd.trusted_shared()
    }

    /// The participant set as seen by this node.
    pub fn participants(&self) -> BTreeSet<ProcessId> {
        self.recsa.my_part()
    }

    /// Requests a delicate reconfiguration replacing the current
    /// configuration with `set` (the `estab(set)` interface). Applications —
    /// e.g. the coordinator-led reconfiguration of Algorithm 4.6 — call this
    /// directly. Returns `true` when the request was accepted.
    pub fn request_reconfiguration(&mut self, set: ConfigSet) -> bool {
        self.recsa.estab(set)
    }

    /// Changes the reconfiguration prediction policy at run time.
    pub fn set_eval_policy(&mut self, policy: EvalPolicy) {
        self.config.eval_policy = policy;
    }

    /// Changes the admission policy at run time.
    pub fn set_admission(&mut self, admission: AdmissionPolicy) {
        self.config.admission = admission;
    }

    /// White-box access to the recSA layer (tests, benchmarks, fault
    /// injection).
    pub fn recsa(&self) -> &RecSa {
        &self.recsa
    }

    /// Mutable white-box access to the recSA layer.
    pub fn recsa_mut(&mut self) -> &mut RecSa {
        &mut self.recsa
    }

    /// White-box access to the recMA layer.
    pub fn recma(&self) -> &RecMa {
        &self.recma
    }

    /// Mutable white-box access to the recMA layer.
    pub fn recma_mut(&mut self) -> &mut RecMa {
        &mut self.recma
    }

    /// White-box access to the failure detector.
    pub fn failure_detector(&self) -> &ThetaFailureDetector {
        &self.fd
    }

    /// Total number of recMA triggerings so far.
    pub fn recma_triggerings(&self) -> u64 {
        self.recma.triggerings()
    }

    /// Number of brute-force resets started locally.
    pub fn resets_started(&self) -> u64 {
        self.recsa.resets_started()
    }
}

impl Layer for ReconfigNode {
    type Wire = ReconfigMsg;

    fn poll<O: Sink<ReconfigMsg>>(&mut self, peers: &[ProcessId], out: &mut O) {
        // In place of the paper's token exchange: a heartbeat to every other
        // processor keeps the failure detectors of the whole system fed.
        for p in peers.iter().copied().filter(|p| *p != self.me) {
            out.push(p, ReconfigMsg::Heartbeat);
        }

        // Bootstrap patience: a non-participant that can see neither a
        // participant nor a configuration for long enough concludes the
        // quorum system has completely collapsed and starts a brute-force
        // reset (cf. the complete-collapse discussion in Section 3.1).
        if let Some(patience) = self.config.bootstrap_patience {
            if !self.recsa.is_participant()
                && self.recsa.my_part().is_empty()
                && self.recsa.chs_config().as_set().is_none()
            {
                self.lonely_steps += 1;
                if self.lonely_steps > patience {
                    self.recsa.force_reset();
                    self.lonely_steps = 0;
                }
            } else {
                self.lonely_steps = 0;
            }
        }

        // recSA (the detector's ranking is computed once and reused below;
        // the shared handle avoids cloning the set every step).
        let fd_trusted = self.fd.trusted_shared();
        self.recsa.step(&fd_trusted, &mut out.nest());

        // recMA, with the application's prediction function.
        let policy = self.config.eval_policy.clone();
        self.recma.step(
            &mut self.recsa,
            |cfg| policy.requires_reconfiguration(cfg, &fd_trusted),
            &mut out.nest(),
        );

        // Joining mechanism (only does something while not a participant).
        self.joining.step(&mut self.recsa, &mut out.nest());
    }

    fn handle<O: Sink<ReconfigMsg>>(&mut self, from: ProcessId, msg: &ReconfigMsg, out: &mut O) {
        // Every packet doubles as a heartbeat of its sender.
        self.fd.heartbeat(from);
        match msg {
            // The bare heartbeat — one message in three — is done.
            ReconfigMsg::Heartbeat => {}
            ReconfigMsg::RecSa(m) => self.recsa.on_message(from, m),
            ReconfigMsg::RecMa(m) => {
                let is_participant = self.recsa.is_participant();
                self.recma.on_message(from, *m, is_participant);
            }
            ReconfigMsg::Join(JoinMsg::Request) => {
                let admit = self.config.admission.admit(from);
                if let Some(resp) = self.joining.on_request(from, &self.recsa, admit) {
                    out.push(from, resp);
                }
            }
            ReconfigMsg::Join(JoinMsg::Response { pass }) => {
                let is_participant = self.recsa.is_participant();
                self.joining.on_response(from, *pass, is_participant);
            }
        }
    }
}

simnet::impl_process_for_layer!(ReconfigNode);

impl simnet::ScenarioTarget for ReconfigNode {
    const NAME: &'static str = "reconfig";

    /// Initial members are participants with `config = ⊥`: the population
    /// must run the brute-force bootstrap before any scenario fault lands.
    fn spawn_initial(id: ProcessId, n: usize) -> Self {
        ReconfigNode::new_participant(id, NodeConfig::for_population(n))
    }

    fn spawn_joiner(id: ProcessId, n: usize) -> Self {
        ReconfigNode::new_joiner(id, NodeConfig::for_population(n))
    }

    /// The paper's signature fault class: a conflicting configuration
    /// (Definition 3.1, type 2), a stale phase-0 notification carrying a
    /// proposal (type 1), or a wiped failure detector. recSA's conflict resolution plus the brute-force reset must
    /// wash any of these out.
    fn corrupt(&mut self, rng: &mut simnet::SimRng) -> Vec<(u64, u64)> {
        use crate::types::{config_set, Notification, Phase};
        let me = self.me;
        match rng.range_inclusive(0, 2) {
            0 => {
                let hi = rng.range_inclusive(1, 5) as u32;
                self.recsa
                    .corrupt_config(me, ConfigValue::Set(config_set(0..hi)));
            }
            1 => {
                // A creator above `n_bound` can never be a live processor,
                // at any population size the campaign runs.
                let bound = self.config.n_bound as u64;
                let ghost = rng.range_inclusive(bound + 1, bound + 40) as u32;
                self.recsa.corrupt_notification(
                    me,
                    Notification {
                        phase: Phase::Zero,
                        set: Some(config_set([ghost])),
                    },
                );
            }
            _ => {
                self.fd = ThetaFailureDetector::new(me, self.config.n_bound, self.config.theta);
                self.lonely_steps = 0;
            }
        }
        Vec::new()
    }

    /// [`corrupt_to_heartbeat`]: recSA's conflict resolution treats a kept,
    /// misattributed payload as stale information.
    fn corrupt_payload(msg: &mut ReconfigMsg, rng: &mut simnet::SimRng) -> bool {
        corrupt_to_heartbeat(msg, rng)
    }

    /// Byzantine forging. A forged-sender packet is a bare heartbeat: the
    /// cheapest crafted packet that keeps a dead or never-existing
    /// processor "alive" in the Θ-failure detectors, which must expire it
    /// again once the injections stop. Stale state is a crafted
    /// `JoinMsg::Response { pass: true }` — a stale admission from an
    /// earlier life of the system; a participant target must ignore it
    /// (the joining mechanism only reads responses while not a
    /// participant).
    fn forge_payload(
        forge: simnet::ForgeKind,
        _claimed_sender: ProcessId,
        _target: ProcessId,
        _sim: &simnet::Simulation<Self>,
        _rng: &mut simnet::SimRng,
    ) -> Option<ReconfigMsg> {
        match forge {
            simnet::ForgeKind::ForgedSender => Some(ReconfigMsg::Heartbeat),
            simnet::ForgeKind::StaleState => {
                Some(ReconfigMsg::Join(JoinMsg::Response { pass: true }))
            }
            simnet::ForgeKind::Replay => None,
        }
    }

    /// Open-loop client load: a configuration probe — the op a front-end
    /// performs before routing real work ("which configuration serves me?").
    /// A live processor accepts every probe.
    fn submit_local(&mut self, _key: u64, _value: u64) -> bool {
        true
    }

    /// The probe completes once this node is [`settled`](simnet::ScenarioTarget::settled): a
    /// participant of a stable installed configuration, so op latency
    /// measures how long reconfiguration churn keeps clients waiting. The
    /// completion signal is a standing condition; the load engine's claim
    /// loop is bounded by its own outstanding count.
    fn claim_local(&mut self) -> Option<simnet::OpResponse> {
        self.settled().then_some(simnet::OpResponse {
            ok: true,
            observed: None,
            indeterminate: false,
        })
    }

    // `start_local` keeps its do-nothing default: a configuration probe
    // sends nothing — it completes on a standing local condition.

    /// A settled participant of a calm, installed configuration.
    fn settled(&self) -> bool {
        self.is_participant() && self.no_reconfiguration() && self.installed_config_ref().is_some()
    }

    type State<'a> = ();

    /// The installed configuration alone.
    fn agreement(&self) -> simnet::Agreement<'_, ()> {
        simnet::Agreement {
            config: self.installed_config_ref(),
            state: None,
        }
    }

    /// Safety: two participants that both report a calm system (`noReco()`)
    /// must agree on the installed configuration — disagreement in the quiet
    /// state is exactly what recSA's conflict-resolution forbids.
    fn invariant_violations(sim: &simnet::Simulation<Self>) -> Vec<String> {
        let calm: Vec<_> = sim
            .active_processes()
            .filter(|(_, p)| p.is_participant() && p.no_reconfiguration())
            .filter_map(|(id, p)| p.installed_config().map(|c| (id, c)))
            .collect();
        let mut violations = Vec::new();
        for pair in calm.windows(2) {
            let (a, ca) = &pair[0];
            let (b, cb) = &pair[1];
            if ca != cb {
                violations.push(format!(
                    "calm participants {a} and {b} disagree on the installed configuration"
                ));
            }
        }
        violations
    }

    fn state_line(id: simnet::ProcessId, p: &Self) -> String {
        format!(
            "{id} participant={} config={:?} noreco={} trusted={:?}",
            p.is_participant(),
            p.installed_config(),
            p.no_reconfiguration(),
            p.trusted()
        )
    }
}

/// In-flight payload corruption for every stack over this scheme: one draw
/// of `rng` degrades half the packets to a bare [`ReconfigMsg::Heartbeat`]
/// (a checksum failure: content destroyed, the sender's liveness witnessed)
/// and returns whether it did; the rest keep the misattributed payload the
/// corruption plan shuffled in.
pub fn corrupt_to_heartbeat<M: From<ReconfigMsg>>(msg: &mut M, rng: &mut simnet::SimRng) -> bool {
    let degraded = rng.chance(0.5);
    if degraded {
        *msg = ReconfigMsg::Heartbeat.into();
    }
    degraded
}

/// The configuration every active node of `sim` has installed, or `None`
/// while some active node has none installed or two of them differ.
///
/// Unlike [`ScenarioTarget::converged`](simnet::ScenarioTarget::converged)
/// this does not ask for calm participants: it names *which* configuration
/// the system agrees on, so tests and experiments can wait for a specific
/// one.
// `#[inline]` keeps this out of the crate's own codegen units: as a plain
// function it shifts how they are split, and with them the inlining of
// `ReconfigNode`'s message and timer handlers, in binaries that never call
// it (checked on the benchmark binary's symbol sizes).
#[inline]
pub fn converged_config(sim: &simnet::Simulation<ReconfigNode>) -> Option<ConfigSet> {
    let mut configs = BTreeSet::new();
    for id in sim.active_ids() {
        configs.insert(sim.process(id)?.installed_config()?);
    }
    if configs.len() == 1 {
        configs.pop_first()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::config_set;
    use simnet::stack::Outbox;
    use simnet::{SimConfig, Simulation};

    fn fresh_sim(n: u32, seed: u64) -> Simulation<ReconfigNode> {
        let mut sim = Simulation::new(SimConfig::default().with_seed(seed).with_max_delay(0));
        for i in 0..n {
            let id = ProcessId::new(i);
            sim.add_process_with_id(id, ReconfigNode::new_participant(id, NodeConfig::for_n(16)));
        }
        sim
    }

    #[test]
    fn full_stack_bootstraps_to_common_configuration() {
        let mut sim = fresh_sim(5, 11);
        let rounds = sim.run_until(200, |s| converged_config(s) == Some(config_set(0..5)));
        assert!(rounds < 200, "did not converge within 200 rounds");
        for id in sim.active_ids() {
            let node = sim.process(id).unwrap();
            assert!(node.is_participant());
        }
    }

    #[test]
    fn steady_state_reaches_no_reco() {
        let mut sim = fresh_sim(4, 12);
        sim.run_rounds(60);
        for id in sim.active_ids() {
            assert!(sim.process(id).unwrap().no_reconfiguration());
        }
    }

    #[test]
    fn joiner_is_admitted_through_the_full_stack() {
        let mut sim = fresh_sim(3, 13);
        sim.run_rounds(60);
        let joiner_id = ProcessId::new(10);
        sim.add_process_with_id(
            joiner_id,
            ReconfigNode::new_joiner(joiner_id, NodeConfig::for_n(16)),
        );
        let rounds = sim.run_until(300, |s| {
            s.process(joiner_id)
                .map(|p| p.is_participant())
                .unwrap_or(false)
        });
        assert!(rounds < 300, "joiner was never admitted");
        // The configuration did not change just because someone joined.
        assert_eq!(converged_config(&sim), Some(config_set(0..3)));
    }

    #[test]
    fn request_reconfiguration_is_honoured() {
        let mut sim = fresh_sim(4, 15);
        sim.run_rounds(60);
        let target = config_set([0, 1, 2]);
        let accepted = sim
            .process_mut(ProcessId::new(0))
            .unwrap()
            .request_reconfiguration(target.clone());
        assert!(accepted);
        let rounds = sim.run_until(300, |s| converged_config(s) == Some(target.clone()));
        assert!(rounds < 300, "delicate replacement did not complete");
        // Give the tail of the replacement (notification clearing, echoes) a
        // few more rounds, then the system must be calm again.
        sim.run_rounds(40);
        for id in sim.active_ids() {
            assert!(sim.process(id).unwrap().no_reconfiguration());
        }
    }

    #[test]
    fn all_joiners_bootstrap_after_patience() {
        let mut sim: Simulation<ReconfigNode> =
            Simulation::new(SimConfig::default().with_seed(16).with_max_delay(0));
        for i in 0..3u32 {
            let id = ProcessId::new(i);
            sim.add_process_with_id(
                id,
                ReconfigNode::new_joiner(id, NodeConfig::for_n(8).with_bootstrap_patience(Some(5))),
            );
        }
        let rounds = sim.run_until(200, |s| converged_config(s) == Some(config_set(0..3)));
        assert!(rounds < 200, "lonely joiners never bootstrapped");
    }

    #[test]
    fn node_exposes_observability() {
        let mut sim = fresh_sim(2, 18);
        sim.run_rounds(40);
        let node = sim.process(ProcessId::new(0)).unwrap();
        assert_eq!(node.id(), ProcessId::new(0));
        assert!(node.trusted().contains(&ProcessId::new(1)));
        assert!(node.participants().contains(&ProcessId::new(1)));
        assert!(node.configuration().as_set().is_some());
        assert_eq!(node.node_config().n_bound, 16);
        assert!(node.failure_detector().trusts(ProcessId::new(1)));
    }

    /// Lane routing: one message of every `ReconfigMsg` variant, delivered
    /// through `Process::on_message`, reaches the sub-layer that owns its
    /// lane and leaves the others as they were — and Θ counts every one of
    /// them as a heartbeat of its sender.
    #[test]
    fn every_wire_variant_reaches_its_sub_layer() {
        use simnet::{Context, Process, Round};
        use std::sync::Arc;
        let (me, peer) = (ProcessId::new(0), ProcessId::new(1));
        let ids = [me, peer];
        let member = ReconfigNode::new_with_config(me, config_set([0, 1]), NodeConfig::for_n(4));
        let joiner = ReconfigNode::new_joiner(me, NodeConfig::for_n(4));
        // A sender that has heard from `me` trusts it and broadcasts to it.
        let mut sender =
            ReconfigNode::new_with_config(peer, config_set([0, 1]), NodeConfig::for_n(4));
        sender.handle(
            me,
            &ReconfigMsg::Heartbeat,
            &mut Outbox::<ReconfigMsg>::new(),
        );
        let mut out = Outbox::new();
        sender.poll(&ids, &mut out);
        let recsa = out
            .into_messages()
            .into_iter()
            .find_map(|(to, m)| match m {
                ReconfigMsg::RecSa(m) if to == me => Some(m),
                _ => None,
            })
            .expect("a participant broadcasts recSA");
        // Θ's count of `peer`: none before it is heard from, 0 right after.
        let heard = |n: &ReconfigNode| n.failure_detector().count(peer);
        // What each sub-layer but Θ keeps of `peer`, in the order recSA
        // (the handle of its peer record; the rest of `RecSa` holds caches
        // that reads fill), recMA, joining.
        let layers = |n: &ReconfigNode| {
            [
                format!("{:?}", Arc::as_ptr(n.recsa.part_rx_of(peer))),
                format!("{:?}", n.recma),
                format!("{:?}", n.joining),
            ]
        };
        // Delivers `msg` from `peer` to a copy of `node`, returning the copy
        // and what it sent; checks that Θ heard `peer` and that no sub-layer but
        // `owner` (an index into `layers`) changed.
        let deliver = |node: &ReconfigNode, msg: ReconfigMsg, owner: Option<usize>| {
            let mut after = node.clone();
            let mut ctx = Context::new(me, Round::ZERO, &ids);
            after.on_message(peer, msg, &mut ctx);
            assert_eq!((heard(node), heard(&after)), (None, Some(0)));
            let (was, is) = (layers(node), layers(&after));
            for i in (0..3).filter(|i| Some(*i) != owner) {
                assert_eq!(was[i], is[i], "sub-layer {i} saw another lane's message");
            }
            let sent: Vec<_> = ctx
                .into_outbox()
                .into_iter()
                .map(|(to, p)| (to, p.get().clone()))
                .collect();
            (after, sent)
        };

        let (_, sent) = deliver(&member, ReconfigMsg::Heartbeat, None);
        assert!(sent.is_empty());

        let part = Arc::clone(&recsa.own.part);
        assert!(!Arc::ptr_eq(member.recsa.part_rx_of(peer), &part));
        let (after, _) = deliver(&member, ReconfigMsg::RecSa(recsa), Some(0));
        assert!(Arc::ptr_eq(after.recsa.part_rx_of(peer), &part));

        let flags = RecMaMsg {
            no_maj: true,
            need_reconf: true,
        };
        let (after, _) = deliver(&member, ReconfigMsg::RecMa(flags), Some(1));
        assert_ne!(
            layers(&after)[1],
            layers(&member)[1],
            "recMA missed its flags"
        );

        let (_, sent) = deliver(&member, ReconfigMsg::Join(JoinMsg::Request), Some(2));
        assert!(
            matches!(sent.as_slice(), [(to, ReconfigMsg::Join(JoinMsg::Response { .. }))] if *to == peer),
            "the member did not answer the join request: {sent:?}"
        );

        let pass = ReconfigMsg::Join(JoinMsg::Response { pass: true });
        let (after, _) = deliver(&joiner, pass, Some(2));
        assert_eq!(
            (
                joiner.joining.passes_collected(),
                after.joining.passes_collected()
            ),
            (0, 1)
        );
    }
}
