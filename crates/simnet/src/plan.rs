//! The open fault-plan API: [`FaultPlan`], [`FaultAction`] and the
//! declarative Byzantine adversary ([`ByzantinePlan`]).
//!
//! The paper's adversary is open-ended — self-stabilization must hold under
//! *any* transient fault, including crafted (Byzantine-shaped) messages — so
//! the fault vocabulary cannot be a closed set of hard-coded scenario
//! fields. Every fault class is a [`FaultPlan`]: a declarative schedule that
//! turns rounds into typed [`FaultAction`]s. The scenario runner
//! ([`crate::scenario::run_scenario`]) applies the actions at round
//! boundaries in a fixed per-class phase order, counts them into an
//! extensible per-plan counter map, enforces the generic safety invariants
//! (packet conservation, cut asymmetry), and asks each plan for its
//! class-specific [`FaultPlan::invariant`] checks at the end of the run.
//!
//! All ten built-in fault classes ([`CrashPlan`], [`ChurnPlan`],
//! [`PartitionPlan`], [`AsymmetricCutPlan`], [`CorruptionPlan`],
//! [`SpikePlan`], [`GrayFailurePlan`], [`SkewPlan`],
//! [`PayloadCorruptionPlan`], [`RecoveryPlan`]) implement the trait here, and
//! [`ByzantinePlan`] — crafted-message injection through
//! [`crate::Network::inject`] — is the first fault class born on the open
//! API. [`registry`] lists them all; a test asserts every registered plan is
//! documented in `docs/FAULTS.md` and exercised by the catalog.
//!
//! # Writing your own fault plan
//!
//! A plan is a schedule: it decides *when* and *who*; the runner owns *how*.
//! Emit typed actions and the runner applies them with full bookkeeping —
//! confinement of joiners behind active cuts, counter accounting, packet
//! conservation — exactly as for the built-in classes:
//!
//! ```
//! use simnet::plan::{FaultAction, FaultPlan, PlanCtx, RunObservations};
//! use simnet::scenario::{run_scenario, Scenario};
//! use simnet::{ProcessId, Round, SchedulerMode};
//!
//! /// Crashes the highest-numbered initial processor every `period` rounds
//! /// until `until` — a rolling blackout no built-in plan expresses.
//! #[derive(Debug, Clone, Default)]
//! struct RollingBlackout {
//!     period: u64,
//!     until: u64,
//! }
//!
//! impl FaultPlan for RollingBlackout {
//!     fn kind(&self) -> &'static str {
//!         "rolling-blackout"
//!     }
//!     fn schedule(&self, round: Round, ctx: &PlanCtx) -> Vec<FaultAction> {
//!         let r = round.as_u64();
//!         if self.period > 0 && r < self.until && r % self.period == 0 && r > 0 {
//!             let victim = ctx.initial_size as u32 - 1 - (r / self.period) as u32 % 2;
//!             vec![FaultAction::Crash(ProcessId::new(victim))]
//!         } else {
//!             Vec::new()
//!         }
//!     }
//!     fn last_round(&self) -> Option<Round> {
//!         Some(Round::new(self.until))
//!     }
//!     fn events(&self) -> usize {
//!         if self.period == 0 { 0 } else { (self.until / self.period) as usize }
//!     }
//!     fn counter_keys(&self) -> Vec<&'static str> {
//!         vec!["crashes"]
//!     }
//!     fn invariant(&self, obs: &RunObservations) -> Vec<String> {
//!         // Class invariant: the blackout really landed.
//!         if self.period > 0 && obs.counters.get("crashes") == Some(&0) {
//!             vec!["rolling blackout crashed nobody".to_string()]
//!         } else {
//!             Vec::new()
//!         }
//!     }
//!     fn clone_plan(&self) -> Box<dyn FaultPlan> {
//!         Box::new(self.clone())
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any {
//!         self
//!     }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
//!         self
//!     }
//! }
//!
//! // The uniform builder accepts any FaultPlan — no engine edits needed.
//! let scenario = Scenario::new("blackout", 5)
//!     .with_plan(RollingBlackout { period: 4, until: 10 })
//!     .with_rounds(60);
//! let mut sim = scenario.build_sim::<simnet::plan::doctest::Gossip>(1, SchedulerMode::EventDriven);
//! let run = run_scenario(&scenario, &mut sim);
//! assert!(run.counter("crashes") >= 2);
//! assert!(run.invariant_violations.is_empty());
//! ```

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::channel::ChannelPolicy;
use crate::fault::{
    CorruptionPlan, CrashPlan, GrayFailurePlan, PayloadCorruptionPlan, RecoveryPlan, SkewPlan,
    SpikePlan,
};
use crate::partition::{AsymmetricCutPlan, PartitionPlan};
use crate::process::ProcessId;
use crate::time::Round;
use crate::ChurnPlan;

/// What a plan may know when scheduling its actions: the scenario-level
/// context the runner passes to [`FaultPlan::schedule`].
#[derive(Debug, Clone)]
pub struct PlanCtx {
    /// The scenario's base (un-spiked) channel policy.
    pub base_policy: ChannelPolicy,
    /// The size of the scenario's initial population.
    pub initial_size: usize,
}

/// One typed fault action, produced by [`FaultPlan::schedule`] and applied
/// by the scenario runner. Actions are grouped into per-class *phases*
/// ([`FaultAction::phase`]) so composition order of plans never changes the
/// class order faults land in within a round.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Heal every symmetric split (and re-assert still-active one-way cuts).
    HealSplits,
    /// Partition the population into the given groups (both directions cut
    /// between groups).
    Split(Vec<Vec<ProcessId>>),
    /// Heal every one-way cut currently in force (and re-assert still-active
    /// symmetric splits).
    HealOneway,
    /// Block only the links from the first group towards the second.
    CutOneway {
        /// Senders whose packets stop arriving.
        from: Vec<ProcessId>,
        /// Receivers that go deaf towards `from`.
        to: Vec<ProcessId>,
    },
    /// Switch every channel to this policy (spike windows compose inside the
    /// emitting plan; the action carries the already-composed policy).
    SetPolicy(ChannelPolicy),
    /// Set (or with `None` restore) a windowed timer-period override.
    /// Composes with any registered floor: the slower period wins.
    SetTimer {
        /// The slowed processor.
        victim: ProcessId,
        /// Desired period, `None` to restore the base rate.
        period: Option<u64>,
    },
    /// Register a *permanent* timer-period floor: a windowed restore never
    /// drops the victim below it.
    SetTimerFloor {
        /// The permanently skewed processor.
        victim: ProcessId,
        /// The floor period.
        period: u64,
    },
    /// Crash a processor (fail-stop, forever).
    Crash(ProcessId),
    /// Admit `count` fresh joiners through the protocol's joining path.
    Join {
        /// Number of joiners.
        count: u32,
    },
    /// Re-admit `count` crash-recovered processors under fresh identifiers.
    Rejoin {
        /// Number of recovering processors.
        count: u32,
    },
    /// Corrupt the local state of a processor
    /// ([`crate::scenario::ScenarioTarget::corrupt`]).
    CorruptState(ProcessId),
    /// Corrupt the payloads of every packet in flight towards a processor
    /// ([`crate::scenario::ScenarioTarget::corrupt_payload`]).
    CorruptPayloads(ProcessId),
    /// Inject one crafted packet through [`crate::Network::inject`]: the
    /// Byzantine adversary. The payload is forged by the runner
    /// ([`ForgeKind::Replay`]) or the protocol
    /// ([`crate::scenario::ScenarioTarget::forge_payload`]).
    Inject {
        /// The sender the packet *claims* to come from.
        claimed_sender: ProcessId,
        /// The destination.
        target: ProcessId,
        /// What shape of crafted payload to inject.
        forge: ForgeKind,
    },
}

impl FaultAction {
    /// The application phase of this action within a round. The runner
    /// applies all due actions sorted (stably) by phase, so fault classes
    /// always land in the same order regardless of plan composition order:
    /// connectivity first, then timers, crashes, churn, corruption,
    /// injection.
    pub fn phase(&self) -> u8 {
        match self {
            FaultAction::HealSplits | FaultAction::Split(_) => 1,
            FaultAction::HealOneway | FaultAction::CutOneway { .. } => 2,
            FaultAction::SetPolicy(_) => 3,
            FaultAction::SetTimer { .. } | FaultAction::SetTimerFloor { .. } => 4,
            FaultAction::Crash(_) => 5,
            FaultAction::Join { .. } | FaultAction::Rejoin { .. } => 6,
            FaultAction::CorruptState(_) => 7,
            FaultAction::CorruptPayloads(_) => 8,
            FaultAction::Inject { .. } => 9,
        }
    }

    /// The counter key this action feeds in the run's counter map, if any.
    /// Counting semantics per key are the runner's: `crashes`, `joins`,
    /// `recoveries`, `splits` and `oneway_cuts` count applied actions;
    /// `spikes` counts switches to a spiked (non-base) policy, so a
    /// window's closing restore is not re-counted; `slowdowns` counts
    /// full-speed → slowed transitions;
    /// `corruptions` counts victims actually corrupted;
    /// `payload_corruptions` counts packets exposed to corruption;
    /// `injections` counts packets actually injected.
    pub fn counter_key(&self) -> Option<&'static str> {
        match self {
            FaultAction::Crash(_) => Some("crashes"),
            FaultAction::Join { .. } => Some("joins"),
            FaultAction::Rejoin { .. } => Some("recoveries"),
            FaultAction::Split(_) => Some("splits"),
            FaultAction::CutOneway { .. } => Some("oneway_cuts"),
            FaultAction::SetPolicy(_) => Some("spikes"),
            FaultAction::SetTimer { .. } | FaultAction::SetTimerFloor { .. } => Some("slowdowns"),
            FaultAction::CorruptState(_) => Some("corruptions"),
            FaultAction::CorruptPayloads(_) => Some("payload_corruptions"),
            FaultAction::Inject { .. } => Some("injections"),
            FaultAction::HealSplits | FaultAction::HealOneway => None,
        }
    }
}

/// What the runner observed while applying a plan's actions — the input to
/// the end-of-run [`FaultPlan::invariant`] checks.
///
/// Timer-step snapshots are recorded for every victim of every due timer
/// action at that round, *before* the round's actions apply, so plans can
/// bound how many steps a slowed processor took inside a window.
#[derive(Debug, Clone, Default)]
pub struct RunObservations {
    /// Timer steps of `(round, victim)` at each round where a timer action
    /// touched the victim.
    pub timer_steps_at: BTreeMap<(Round, ProcessId), u64>,
    /// The round the run ended at.
    pub end_round: Round,
    /// Final timer steps of every known processor.
    pub final_timer_steps: BTreeMap<ProcessId, u64>,
    /// Final timer-period overrides still in force.
    pub final_timer_overrides: BTreeMap<ProcessId, u64>,
    /// Identifiers active at the end of the run.
    pub final_active: BTreeSet<ProcessId>,
    /// The run's final fault counters.
    pub counters: BTreeMap<String, u64>,
}

/// An open fault class: a declarative schedule of typed [`FaultAction`]s
/// plus its class-specific safety check and counter registration.
///
/// Implementations stay protocol-agnostic — everything protocol-specific
/// (how to corrupt state, how to forge a payload, how to build a joiner)
/// lives behind [`crate::scenario::ScenarioTarget`], dispatched by the
/// runner when it applies the actions. See the [module docs](self) for a
/// worked custom-plan example.
///
/// `Send` is a supertrait: a [`crate::Scenario`] owns its plans, and the
/// parallel campaign driver ([`crate::Campaign::with_jobs`]) ships each
/// (scenario, seed) cell — scenario clone included — to a worker thread of
/// the [`crate::exec`] pool. Plans are declarative schedules (plain data),
/// so the bound costs implementations nothing; a plan that wants shared
/// mutable state must use `Arc<Mutex<…>>` rather than `Rc`/`RefCell`.
pub trait FaultPlan: fmt::Debug + Send {
    /// Short machine-readable class name (`simctl list`, registry test).
    fn kind(&self) -> &'static str;

    /// The actions due at exactly `round`, in application order.
    fn schedule(&self, round: Round, ctx: &PlanCtx) -> Vec<FaultAction>;

    /// The last round at which this plan acts (convergence is counted only
    /// after every plan's last round).
    fn last_round(&self) -> Option<Round>;

    /// Total number of scheduled fault events (for listings).
    fn events(&self) -> usize;

    /// The counter keys this plan feeds; they appear in the run's counter
    /// map even when zero, so report shapes are schedule-independent.
    fn counter_keys(&self) -> Vec<&'static str>;

    /// Class-specific safety violations, evaluated at the end of a run
    /// against what the runner observed. The default has no extra checks
    /// (the runner already enforces the generic invariants: packet
    /// conservation, cut asymmetry, joiner confinement).
    fn invariant(&self, obs: &RunObservations) -> Vec<String> {
        let _ = obs;
        Vec::new()
    }

    /// Clones the plan behind the trait object.
    fn clone_plan(&self) -> Box<dyn FaultPlan>;

    /// Upcast for scenario builder conveniences.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for scenario builder conveniences.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl Clone for Box<dyn FaultPlan> {
    fn clone(&self) -> Self {
        self.clone_plan()
    }
}

/// Registry of the built-in fault classes: `(Rust type name, plan kind)`.
/// The atlas-completeness test asserts every entry is documented in
/// `docs/FAULTS.md` and appears in at least one catalog scenario.
pub fn registry() -> Vec<(&'static str, &'static str)> {
    vec![
        ("CrashPlan", "crash"),
        ("ChurnPlan", "churn"),
        ("PartitionPlan", "partition"),
        ("AsymmetricCutPlan", "oneway-cut"),
        ("CorruptionPlan", "state-corruption"),
        ("SpikePlan", "spike"),
        ("GrayFailurePlan", "gray-failure"),
        ("SkewPlan", "clock-skew"),
        ("PayloadCorruptionPlan", "payload-corruption"),
        ("RecoveryPlan", "crash-recovery"),
        ("ByzantinePlan", "byzantine"),
    ]
}

macro_rules! plan_boilerplate {
    () => {
        fn clone_plan(&self) -> Box<dyn FaultPlan> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    };
}

impl FaultPlan for CrashPlan {
    fn kind(&self) -> &'static str {
        "crash"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        self.due(round)
            .iter()
            .copied()
            .map(FaultAction::Crash)
            .collect()
    }
    fn last_round(&self) -> Option<Round> {
        CrashPlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["crashes"]
    }
    plan_boilerplate!();
}

impl FaultPlan for ChurnPlan {
    fn kind(&self) -> &'static str {
        "churn"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        match self.due(round) {
            0 => Vec::new(),
            count => vec![FaultAction::Join { count }],
        }
    }
    fn last_round(&self) -> Option<Round> {
        ChurnPlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total() as usize
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["joins"]
    }
    plan_boilerplate!();
}

impl FaultPlan for PartitionPlan {
    fn kind(&self) -> &'static str {
        "partition"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        let mut actions = Vec::new();
        if self.heals_at(round) {
            actions.push(FaultAction::HealSplits);
        }
        for groups in self.splits_due(round) {
            actions.push(FaultAction::Split(groups.clone()));
        }
        actions
    }
    fn last_round(&self) -> Option<Round> {
        PartitionPlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total_splits()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["splits"]
    }
    plan_boilerplate!();
}

impl FaultPlan for AsymmetricCutPlan {
    fn kind(&self) -> &'static str {
        "oneway-cut"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        let mut actions = Vec::new();
        if self.heals_at(round) {
            actions.push(FaultAction::HealOneway);
        }
        for (from, to) in self.cuts_due(round) {
            actions.push(FaultAction::CutOneway {
                from: from.clone(),
                to: to.clone(),
            });
        }
        actions
    }
    fn last_round(&self) -> Option<Round> {
        AsymmetricCutPlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total_cuts()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["oneway_cuts"]
    }
    plan_boilerplate!();
}

impl FaultPlan for CorruptionPlan {
    fn kind(&self) -> &'static str {
        "state-corruption"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        self.due(round)
            .iter()
            .copied()
            .map(FaultAction::CorruptState)
            .collect()
    }
    fn last_round(&self) -> Option<Round> {
        CorruptionPlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["corruptions"]
    }
    plan_boilerplate!();
}

impl FaultPlan for SpikePlan {
    fn kind(&self) -> &'static str {
        "spike"
    }
    fn schedule(&self, round: Round, ctx: &PlanCtx) -> Vec<FaultAction> {
        match self.due(round, &ctx.base_policy) {
            Some(policy) => vec![FaultAction::SetPolicy(policy)],
            None => Vec::new(),
        }
    }
    fn last_round(&self) -> Option<Round> {
        SpikePlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["spikes"]
    }
    plan_boilerplate!();
}

impl FaultPlan for GrayFailurePlan {
    fn kind(&self) -> &'static str {
        "gray-failure"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        match self.due(round) {
            None => Vec::new(),
            Some(desired) => desired
                .into_iter()
                .map(|(victim, period)| FaultAction::SetTimer { victim, period })
                .collect(),
        }
    }
    fn last_round(&self) -> Option<Round> {
        GrayFailurePlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["slowdowns"]
    }
    /// The victim really ran slower: its timer steps over each window fit
    /// the slowed period's budget.
    fn invariant(&self, obs: &RunObservations) -> Vec<String> {
        let mut violations = Vec::new();
        for (start, end, victims, period) in self.windows() {
            if end == start {
                continue;
            }
            for v in victims {
                let (Some(baseline), Some(steps_then)) = (
                    obs.timer_steps_at.get(&(*start, *v)),
                    obs.timer_steps_at.get(&(*end, *v)),
                ) else {
                    continue;
                };
                let steps = steps_then - baseline;
                let budget = (*end - *start) / *period + 2;
                if steps > budget {
                    violations.push(format!(
                        "gray failure had no effect: {v} took {steps} timer steps in \
                         [{start}, {end}) at period {period} (budget {budget})"
                    ));
                }
            }
        }
        violations
    }
    plan_boilerplate!();
}

impl FaultPlan for SkewPlan {
    fn kind(&self) -> &'static str {
        "clock-skew"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        self.due(round)
            .iter()
            .map(|(victim, period)| FaultAction::SetTimerFloor {
                victim: *victim,
                period: *period,
            })
            .collect()
    }
    fn last_round(&self) -> Option<Round> {
        SkewPlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["slowdowns"]
    }
    /// A skewed processor is slow, not dead: given enough rounds it must
    /// have taken timer steps at its skewed rate.
    fn invariant(&self, obs: &RunObservations) -> Vec<String> {
        let mut violations = Vec::new();
        for (since, v, _) in self.all_skews() {
            let Some(baseline) = obs.timer_steps_at.get(&(since, v)) else {
                continue;
            };
            if !obs.final_active.contains(&v) {
                continue;
            }
            let elapsed = obs.end_round.saturating_since(since);
            let period = obs.final_timer_overrides.get(&v).copied().unwrap_or(1);
            if elapsed >= 2 * period {
                let steps = obs.final_timer_steps.get(&v).unwrap_or(baseline) - baseline;
                if steps == 0 {
                    violations.push(format!(
                        "skewed processor {v} took no timer steps since round {since}"
                    ));
                }
            }
        }
        violations
    }
    plan_boilerplate!();
}

impl FaultPlan for PayloadCorruptionPlan {
    fn kind(&self) -> &'static str {
        "payload-corruption"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        self.due(round)
            .iter()
            .copied()
            .map(FaultAction::CorruptPayloads)
            .collect()
    }
    fn last_round(&self) -> Option<Round> {
        PayloadCorruptionPlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["payload_corruptions"]
    }
    plan_boilerplate!();
}

impl FaultPlan for RecoveryPlan {
    fn kind(&self) -> &'static str {
        "crash-recovery"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        let mut actions: Vec<FaultAction> = self
            .crashes_due(round)
            .iter()
            .copied()
            .map(FaultAction::Crash)
            .collect();
        match self.rejoins_due(round) {
            0 => {}
            count => actions.push(FaultAction::Rejoin { count }),
        }
        actions
    }
    fn last_round(&self) -> Option<Round> {
        RecoveryPlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["crashes", "recoveries"]
    }
    /// The old identifier stays dead forever — recovery means a fresh
    /// identifier, never resurrection.
    fn invariant(&self, obs: &RunObservations) -> Vec<String> {
        self.all_victims()
            .filter(|victim| obs.final_active.contains(victim))
            .map(|victim| {
                format!(
                    "crash-recovered processor {victim} is still active under its old identifier"
                )
            })
            .collect()
    }
    plan_boilerplate!();
}

/// What shape of crafted payload a [`ByzantinePlan`] injection carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ForgeKind {
    /// Replay: an exact copy of a packet currently in flight towards the
    /// target, re-injected under the claimed sender. Handled by the runner,
    /// protocol-agnostically — a replayed packet is always wire-valid.
    Replay,
    /// A syntactically minimal packet attributed to the claimed sender —
    /// typically a bare heartbeat keeping a dead or never-existing
    /// processor "alive" in the failure detectors. Forged by
    /// [`crate::scenario::ScenarioTarget::forge_payload`].
    ForgedSender,
    /// Protocol-specific stale or equivocating state: a stale view, a
    /// label-equivocating counter, a tag-equal-but-different register value.
    /// Forged by [`crate::scenario::ScenarioTarget::forge_payload`]; the
    /// protocol must refuse to *adopt* it into honest state.
    StaleState,
}

impl ForgeKind {
    /// The machine-readable name (`simctl run --plan byzantine=...`).
    pub fn name(self) -> &'static str {
        match self {
            ForgeKind::Replay => "replay",
            ForgeKind::ForgedSender => "forged-sender",
            ForgeKind::StaleState => "stale-state",
        }
    }

    /// Parses a machine-readable name.
    pub fn parse(name: &str) -> Option<ForgeKind> {
        match name {
            "replay" => Some(ForgeKind::Replay),
            "forged-sender" | "forge" => Some(ForgeKind::ForgedSender),
            "stale-state" | "stale" => Some(ForgeKind::StaleState),
            _ => None,
        }
    }
}

/// The declarative Byzantine adversary: a schedule of crafted-message
/// injections through [`crate::Network::inject`]. Each event names the
/// round, the sender the packet claims to come from, the destination, and
/// the [`ForgeKind`] of the payload; the payload itself is forged at
/// injection time — by the runner for replays, by the protocol's
/// [`crate::scenario::ScenarioTarget::forge_payload`] otherwise — so one
/// plan drives all four node types.
///
/// Injection is the one fault class that *creates* packets; the runner's
/// packet-conservation invariant counts them explicitly (in-flight delta per
/// round must equal the number of injected packets) instead of forbidding
/// creation outright.
///
/// ```
/// use simnet::plan::{ByzantinePlan, ForgeKind};
/// use simnet::{ProcessId, Round};
/// let plan = ByzantinePlan::new()
///     .inject_at(Round::new(10), ForgeKind::Replay, ProcessId::new(2), [ProcessId::new(0)])
///     .inject_at(Round::new(12), ForgeKind::ForgedSender, ProcessId::new(9), [ProcessId::new(1)]);
/// assert_eq!(plan.total(), 2);
/// assert_eq!(plan.last_round(), Some(Round::new(12)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ByzantinePlan {
    schedule: BTreeMap<Round, Vec<(ForgeKind, ProcessId, ProcessId)>>,
}

impl ByzantinePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules one crafted packet per target at `round`, each claiming to
    /// come from `claimed_sender` (builder style).
    pub fn inject_at(
        mut self,
        round: Round,
        forge: ForgeKind,
        claimed_sender: ProcessId,
        targets: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        self.schedule
            .entry(round)
            .or_default()
            .extend(targets.into_iter().map(|t| (forge, claimed_sender, t)));
        self
    }

    /// The injections scheduled for exactly `round`.
    pub fn due(&self, round: Round) -> &[(ForgeKind, ProcessId, ProcessId)] {
        self.schedule.get(&round).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of scheduled injections.
    pub fn total(&self) -> usize {
        self.schedule.values().map(Vec::len).sum()
    }

    /// The last round with a scheduled injection.
    pub fn last_round(&self) -> Option<Round> {
        self.schedule.keys().next_back().copied()
    }
}

impl FaultPlan for ByzantinePlan {
    fn kind(&self) -> &'static str {
        "byzantine"
    }
    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        self.due(round)
            .iter()
            .map(|(forge, claimed_sender, target)| FaultAction::Inject {
                claimed_sender: *claimed_sender,
                target: *target,
                forge: *forge,
            })
            .collect()
    }
    fn last_round(&self) -> Option<Round> {
        ByzantinePlan::last_round(self)
    }
    fn events(&self) -> usize {
        self.total()
    }
    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["injections"]
    }
    // Injection accounting is the runner's generic conservation invariant
    // (per round, the in-flight delta must equal the declared injections),
    // which attributes packets to the action that created them — a
    // per-plan comparison against the shared `injections` counter would
    // misfire as soon as two Byzantine plans compose.
    plan_boilerplate!();
}

/// Support for the module-level doctest (a minimal public scenario target).
/// Hidden from the docs; not part of the stable API.
#[doc(hidden)]
pub mod doctest {
    use crate::process::{Context, Process, ProcessId};
    use crate::rng::SimRng;
    use crate::scenario::ScenarioTarget;
    use crate::scheduler::Simulation;

    /// Max-flood gossip target used by the fault-plan doctest.
    #[derive(Debug, Clone)]
    pub struct Gossip {
        value: u64,
    }

    impl Process for Gossip {
        type Msg = u64;
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>) {
            for peer in ctx.peers() {
                ctx.send(peer, self.value);
            }
        }
        fn on_message(&mut self, _from: ProcessId, msg: u64, _ctx: &mut Context<'_, u64>) {
            self.value = self.value.max(msg);
        }
    }

    impl ScenarioTarget for Gossip {
        const NAME: &'static str = "gossip";
        fn spawn_initial(id: ProcessId, _n: usize) -> Self {
            Gossip {
                value: id.as_u32() as u64,
            }
        }
        fn spawn_joiner(_id: ProcessId, _n: usize) -> Self {
            Gossip { value: 0 }
        }
        fn corrupt(&mut self, rng: &mut SimRng) {
            self.value = rng.range_inclusive(100, 200);
        }
        fn converged(sim: &Simulation<Self>) -> bool {
            let mut values = sim.active_processes().map(|(_, p)| p.value);
            let first = values.next();
            values.all(|v| Some(v) == first)
        }
        fn invariant_violations(_sim: &Simulation<Self>) -> Vec<String> {
            Vec::new()
        }
        fn state_line(id: ProcessId, p: &Self) -> String {
            format!("{id} {}", p.value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PlanCtx {
        PlanCtx {
            base_policy: ChannelPolicy::default(),
            initial_size: 4,
        }
    }

    #[test]
    fn registry_covers_every_builtin_plan_kind() {
        let kinds: Vec<&str> = registry().iter().map(|(_, kind)| *kind).collect();
        let plans: Vec<Box<dyn FaultPlan>> = vec![
            Box::new(CrashPlan::new()),
            Box::new(ChurnPlan::new()),
            Box::new(PartitionPlan::new()),
            Box::new(AsymmetricCutPlan::new()),
            Box::new(CorruptionPlan::new()),
            Box::new(SpikePlan::new()),
            Box::new(GrayFailurePlan::new()),
            Box::new(SkewPlan::new()),
            Box::new(PayloadCorruptionPlan::new()),
            Box::new(RecoveryPlan::new()),
            Box::new(ByzantinePlan::new()),
        ];
        assert_eq!(plans.len(), registry().len());
        for plan in &plans {
            assert!(
                kinds.contains(&plan.kind()),
                "{} missing from registry",
                plan.kind()
            );
            assert_eq!(plan.events(), 0);
            assert_eq!(plan.last_round(), None);
            // Cloning through the trait object preserves the kind.
            assert_eq!(plan.clone_plan().kind(), plan.kind());
        }
    }

    #[test]
    fn schedule_translates_plan_events_into_typed_actions() {
        let p = |i: u32| ProcessId::new(i);
        let crash = CrashPlan::new().crash_at(Round::new(3), p(1));
        assert_eq!(
            crash.schedule(Round::new(3), &ctx()),
            vec![FaultAction::Crash(p(1))]
        );
        assert!(crash.schedule(Round::new(2), &ctx()).is_empty());

        let churn = ChurnPlan::new().join_at(Round::new(5), 2);
        assert_eq!(
            churn.schedule(Round::new(5), &ctx()),
            vec![FaultAction::Join { count: 2 }]
        );

        let recovery = RecoveryPlan::new().crash_recover_at(Round::new(1), [p(2)], 4);
        assert_eq!(
            recovery.schedule(Round::new(1), &ctx()),
            vec![FaultAction::Crash(p(2))]
        );
        assert_eq!(
            recovery.schedule(Round::new(5), &ctx()),
            vec![FaultAction::Rejoin { count: 1 }]
        );

        let byz = ByzantinePlan::new().inject_at(Round::new(7), ForgeKind::Replay, p(0), [p(3)]);
        assert_eq!(
            byz.schedule(Round::new(7), &ctx()),
            vec![FaultAction::Inject {
                claimed_sender: p(0),
                target: p(3),
                forge: ForgeKind::Replay
            }]
        );
    }

    #[test]
    fn action_phases_order_the_fault_classes() {
        let p = ProcessId::new(0);
        let actions = [
            FaultAction::HealSplits,
            FaultAction::CutOneway {
                from: vec![p],
                to: vec![p],
            },
            FaultAction::SetPolicy(ChannelPolicy::default()),
            FaultAction::SetTimer {
                victim: p,
                period: None,
            },
            FaultAction::Crash(p),
            FaultAction::Join { count: 1 },
            FaultAction::CorruptState(p),
            FaultAction::CorruptPayloads(p),
            FaultAction::Inject {
                claimed_sender: p,
                target: p,
                forge: ForgeKind::Replay,
            },
        ];
        let phases: Vec<u8> = actions.iter().map(FaultAction::phase).collect();
        let mut sorted = phases.clone();
        sorted.sort_unstable();
        assert_eq!(phases, sorted, "class order is connectivity → injection");
    }

    #[test]
    fn forge_kind_names_round_trip() {
        for kind in [
            ForgeKind::Replay,
            ForgeKind::ForgedSender,
            ForgeKind::StaleState,
        ] {
            assert_eq!(ForgeKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ForgeKind::parse("nonsense"), None);
    }
}
