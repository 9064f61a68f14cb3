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
//! [`PLAN_KINDS`] is their one `--plan` grammar: [`apply_spec`] parses it
//! and each plan's [`FaultPlan::render`] writes it, so a scenario's whole
//! schedule is one string ([`Scenario::render_schedule`]) that parses back.
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
    SpikePlan, SpikeSpec,
};
use crate::partition::{AsymmetricCutPlan, PartitionPlan};
use crate::process::ProcessId;
use crate::scenario::Scenario;
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
pub trait FaultPlan: fmt::Debug + Send + PlanObject {
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

    /// This plan's events as `--plan` tokens, which [`apply_spec`] parses
    /// back into the same schedule. The default is the bare [`kind`]: a
    /// custom plan renders but does not parse back.
    ///
    /// [`kind`]: FaultPlan::kind
    fn render(&self) -> Vec<String> {
        vec![self.kind().to_string()]
    }
}

/// Cloning and downcasting of boxed plans. A blanket impl covers every
/// `FaultPlan + Clone` type, so a plan never implements this by hand.
pub trait PlanObject {
    /// Clones the plan behind the trait object.
    fn clone_plan(&self) -> Box<dyn FaultPlan>;

    /// Upcast for scenario builder conveniences.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for scenario builder conveniences.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: FaultPlan + Clone + 'static> PlanObject for T {
    fn clone_plan(&self) -> Box<dyn FaultPlan> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Clone for Box<dyn FaultPlan> {
    fn clone(&self) -> Self {
        self.clone_plan()
    }
}

/// One token kind of the built-in `--plan` grammar.
pub struct PlanKind {
    /// The token's name, before the `=`.
    pub token: &'static str,
    /// The token's grammar, for usage text and error hints.
    pub grammar: &'static str,
    /// The Rust type name of the plan class the token edits.
    pub type_name: &'static str,
    /// That class's [`FaultPlan::kind`].
    pub kind: &'static str,
    /// Composes one parsed token onto a scenario through its builder.
    parse: fn(Scenario, &Token<'_>) -> Result<Scenario, String>,
}

/// The built-in `--plan` grammar, one row per token: 13 tokens over the 11
/// built-in fault classes. Process identifiers are joined with `+`, a
/// window is `start+duration`, and rounds are plain integers. Each plan's
/// [`FaultPlan::render`] writes these tokens, and [`apply_spec`] reads them.
pub const PLAN_KINDS: &[PlanKind] = &[
    PlanKind {
        token: "crash",
        grammar: "crash=ROUND:IDS",
        type_name: "CrashPlan",
        kind: "crash",
        parse: |s, t| {
            let (round, ids) = t.pair()?;
            Ok(s.crash_at(t.round(round)?, t.ids(ids)?))
        },
    },
    PlanKind {
        token: "join",
        grammar: "join=ROUND:COUNT",
        type_name: "ChurnPlan",
        kind: "churn",
        parse: |s, t| {
            let (round, count) = t.pair()?;
            let count = count.parse::<u32>().map_err(|_| t.bad("number", count))?;
            Ok(s.join_at(t.round(round)?, count))
        },
    },
    PlanKind {
        token: "split",
        grammar: "split=ROUND[:IDS/IDS...]",
        type_name: "PartitionPlan",
        kind: "partition",
        parse: |s, t| match t.spec.split_once(':') {
            None => Ok(s.split_halves_at(t.round(t.spec)?)),
            Some((round, groups)) => {
                let groups = groups
                    .split('/')
                    .map(|g| t.group(g))
                    .collect::<Result<_, _>>()?;
                Ok(s.split_at(t.round(round)?, groups))
            }
        },
    },
    PlanKind {
        token: "heal",
        grammar: "heal=ROUND",
        type_name: "PartitionPlan",
        kind: "partition",
        parse: |s, t| Ok(s.heal_at(t.round(t.spec)?)),
    },
    PlanKind {
        token: "oneway",
        grammar: "oneway=ROUND[:IDS>IDS]",
        type_name: "AsymmetricCutPlan",
        kind: "oneway-cut",
        parse: |s, t| match t.spec.split_once(':') {
            None => Ok(s.cut_oneway_halves_at(t.round(t.spec)?)),
            Some((round, cut)) => {
                let (from, to) = cut.split_once('>').ok_or_else(|| {
                    format!("bad cut `{cut}` in --plan `{}` (expected FROM>TO)", t.text)
                })?;
                Ok(s.cut_oneway_at(t.round(round)?, t.group(from)?, t.group(to)?))
            }
        },
    },
    PlanKind {
        token: "healoneway",
        grammar: "healoneway=ROUND",
        type_name: "AsymmetricCutPlan",
        kind: "oneway-cut",
        parse: |s, t| Ok(s.heal_oneway_at(t.round(t.spec)?)),
    },
    PlanKind {
        token: "corrupt",
        grammar: "corrupt=ROUND:IDS",
        type_name: "CorruptionPlan",
        kind: "state-corruption",
        parse: |s, t| {
            let (round, ids) = t.pair()?;
            Ok(s.corrupt_at(t.round(round)?, t.ids(ids)?))
        },
    },
    PlanKind {
        token: "spike",
        grammar: "spike=ROUND+DURATION:LOSS/DUP/DELAY",
        type_name: "SpikePlan",
        kind: "spike",
        parse: |s, t| {
            let (window, rates) = t.pair()?;
            let (round, duration) = t.window(window)?;
            let [loss, dup, delay] = rates.split('/').collect::<Vec<_>>()[..] else {
                return Err(format!(
                    "bad spike rates `{rates}` (expected loss/dup/delay)"
                ));
            };
            let rate = |r: &str| r.parse::<f64>().map_err(|_| t.bad("rate", r));
            let spec = SpikeSpec {
                loss: rate(loss)?,
                duplication: rate(dup)?,
                extra_delay: t.u64(delay)?,
            };
            Ok(s.spike_at(round, duration, spec))
        },
    },
    PlanKind {
        token: "gray",
        grammar: "gray=ROUND+DURATION:PERIOD:IDS",
        type_name: "GrayFailurePlan",
        kind: "gray-failure",
        parse: |s, t| {
            let [window, period, ids] = t.fields("start+dur:period:ids")?;
            let (round, duration) = t.window(window)?;
            Ok(s.slow_at(round, duration, t.period(period)?, t.ids(ids)?))
        },
    },
    PlanKind {
        token: "skew",
        grammar: "skew=ROUND:PERIOD:IDS",
        type_name: "SkewPlan",
        kind: "clock-skew",
        parse: |s, t| {
            let [round, period, ids] = t.fields("round:period:ids")?;
            Ok(s.skew_at(t.round(round)?, t.period(period)?, t.ids(ids)?))
        },
    },
    PlanKind {
        token: "payload",
        grammar: "payload=ROUND:IDS",
        type_name: "PayloadCorruptionPlan",
        kind: "payload-corruption",
        parse: |s, t| {
            let (round, ids) = t.pair()?;
            Ok(s.corrupt_payloads_at(t.round(round)?, t.ids(ids)?))
        },
    },
    PlanKind {
        token: "recover",
        grammar: "recover=ROUND+DOWNTIME:IDS",
        type_name: "RecoveryPlan",
        kind: "crash-recovery",
        parse: |s, t| {
            let (window, ids) = t.pair()?;
            let (round, downtime) = t.window(window)?;
            Ok(s.crash_recover_at(round, t.ids(ids)?, downtime))
        },
    },
    PlanKind {
        token: "byzantine",
        grammar: "byzantine=ROUND:replay|forged-sender|stale-state:CLAIMED:IDS",
        type_name: "ByzantinePlan",
        kind: "byzantine",
        parse: |s, t| {
            let [round, forge, claimed, ids] = t.fields("round:kind:claimed:ids")?;
            let forge = ForgeKind::parse(forge).ok_or_else(|| t.bad("forge kind", forge))?;
            let claimed = claimed
                .parse::<u32>()
                .map_err(|_| t.bad("claimed sender", claimed))?;
            Ok(s.inject_at(t.round(round)?, forge, ProcessId::new(claimed), t.ids(ids)?))
        },
    },
];

/// Registry of the built-in fault classes, `(Rust type name, plan kind)`,
/// in [`PLAN_KINDS`] order. The atlas-completeness test asserts every entry
/// is documented in `docs/FAULTS.md` and appears in at least one catalog
/// scenario.
pub fn registry() -> Vec<(&'static str, &'static str)> {
    let mut classes = Vec::new();
    for row in PLAN_KINDS {
        if !classes.contains(&(row.type_name, row.kind)) {
            classes.push((row.type_name, row.kind));
        }
    }
    classes
}

/// Parses a `--plan` value — one or more `kind=spec` tokens separated by
/// whitespace, see [`PLAN_KINDS`] — and composes each token onto
/// `scenario`, in order. Every error names the offending token and gives
/// the grammar of its kind, or of every kind when the kind is unknown:
/// never a panic, whatever the input.
///
/// ```
/// use simnet::plan::apply_spec;
/// use simnet::scenario::Scenario;
/// let s = apply_spec(Scenario::new("adhoc", 5), "crash=30:3+4 heal=70 split=30").unwrap();
/// assert_eq!(s.render_schedule(), "crash=30:3+4 split=30:0+1/2+3+4 heal=70");
/// assert!(apply_spec(Scenario::new("bad", 5), "crash=30").is_err());
/// ```
pub fn apply_spec(scenario: Scenario, spec: &str) -> Result<Scenario, String> {
    spec.split_whitespace().try_fold(scenario, apply_token)
}

fn apply_token(scenario: Scenario, text: &str) -> Result<Scenario, String> {
    let every_grammar = || {
        let all: Vec<&str> = PLAN_KINDS.iter().map(|row| row.grammar).collect();
        format!("\n  plan grammars: {}", all.join("  "))
    };
    let Some((kind, spec)) = text.split_once('=') else {
        return Err(format!(
            "bad --plan `{text}` (expected kind=spec){}",
            every_grammar()
        ));
    };
    let Some(row) = PLAN_KINDS.iter().find(|row| row.token == kind) else {
        return Err(format!(
            "unknown plan kind `{kind}` in --plan `{text}`{}",
            every_grammar()
        ));
    };
    (row.parse)(scenario, &Token { text, kind, spec })
        .map_err(|err| format!("{err} (grammar: {})", row.grammar))
}

/// One `kind=spec` token being parsed; every error names it.
struct Token<'a> {
    text: &'a str,
    kind: &'a str,
    spec: &'a str,
}

impl<'a> Token<'a> {
    fn bad(&self, what: &str, value: &str) -> String {
        format!("bad {what} `{value}` in --plan `{}`", self.text)
    }

    fn round(&self, s: &str) -> Result<Round, String> {
        s.parse::<u64>()
            .map(Round::new)
            .map_err(|_| self.bad("round", s))
    }

    fn u64(&self, s: &str) -> Result<u64, String> {
        s.parse::<u64>().map_err(|_| self.bad("number", s))
    }

    /// A timer period: a number of at least 1 (the builders assert it).
    fn period(&self, s: &str) -> Result<u64, String> {
        match self.u64(s)? {
            0 => Err(format!(
                "bad period `0` in --plan `{}` (must be ≥ 1)",
                self.text
            )),
            period => Ok(period),
        }
    }

    fn ids(&self, s: &str) -> Result<Vec<ProcessId>, String> {
        s.split('+')
            .map(|id| {
                id.parse::<u32>()
                    .map(ProcessId::new)
                    .map_err(|_| self.bad("process id", id))
            })
            .collect()
    }

    /// A group of a split or cut, which may be empty.
    fn group(&self, s: &str) -> Result<Vec<ProcessId>, String> {
        if s.is_empty() {
            Ok(Vec::new())
        } else {
            self.ids(s)
        }
    }

    fn window(&self, s: &str) -> Result<(Round, u64), String> {
        let (start, duration) = s.split_once('+').ok_or_else(|| {
            format!(
                "bad window `{s}` in --plan `{}` (expected start+duration)",
                self.text
            )
        })?;
        Ok((self.round(start)?, self.u64(duration)?))
    }

    fn pair(&self) -> Result<(&'a str, &'a str), String> {
        self.spec
            .split_once(':')
            .ok_or_else(|| format!("bad --plan `{}` (missing `:`)", self.text))
    }

    fn fields<const N: usize>(&self, expected: &str) -> Result<[&'a str; N], String> {
        let parts: Vec<&'a str> = self.spec.splitn(N, ':').collect();
        parts.try_into().map_err(|_| {
            format!(
                "bad {} spec `{}` (expected {expected})",
                self.kind, self.spec
            )
        })
    }
}

/// `ids` as a `--plan` id list.
fn render_ids(ids: &[ProcessId]) -> String {
    let ids: Vec<String> = ids.iter().map(|id| id.as_u32().to_string()).collect();
    ids.join("+")
}

/// One token per run of consecutive `(key, id)` pairs with equal keys.
fn render_runs<K: PartialEq>(
    pairs: impl IntoIterator<Item = (K, ProcessId)>,
    token: impl Fn(&K, String) -> String,
) -> Vec<String> {
    let mut runs: Vec<(K, Vec<ProcessId>)> = Vec::new();
    for (key, id) in pairs {
        match runs.last_mut() {
            Some((last, ids)) if *last == key => ids.push(id),
            _ => runs.push((key, vec![id])),
        }
    }
    runs.iter()
        .map(|(key, ids)| token(key, render_ids(ids)))
        .collect()
}

/// Flattens a per-round victim schedule into `(round, victim)` pairs.
fn per_round(
    schedule: &BTreeMap<Round, Vec<ProcessId>>,
) -> impl Iterator<Item = (Round, ProcessId)> + '_ {
    schedule
        .iter()
        .flat_map(|(round, ids)| ids.iter().map(move |id| (*round, *id)))
}

/// Orders tokens by round, stably.
fn by_round(mut tokens: Vec<(Round, String)>) -> Vec<String> {
    tokens.sort_by_key(|(round, _)| *round);
    tokens.into_iter().map(|(_, token)| token).collect()
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
    fn render(&self) -> Vec<String> {
        render_runs(per_round(&self.schedule), |round, ids| {
            format!("crash={round}:{ids}")
        })
    }
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
    fn render(&self) -> Vec<String> {
        self.joins
            .iter()
            .map(|(round, count)| format!("join={round}:{count}"))
            .collect()
    }
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
    fn render(&self) -> Vec<String> {
        let heals = self
            .heals
            .iter()
            .map(|round| (*round, format!("heal={round}")));
        let splits = self.splits.iter().flat_map(|(round, splits)| {
            splits.iter().map(move |groups| {
                let groups: Vec<String> = groups.iter().map(|g| render_ids(g)).collect();
                (*round, format!("split={round}:{}", groups.join("/")))
            })
        });
        by_round(heals.chain(splits).collect())
    }
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
    fn render(&self) -> Vec<String> {
        let heals = self
            .heals
            .iter()
            .map(|round| (*round, format!("healoneway={round}")));
        let cuts = self.cuts.iter().flat_map(|(round, cuts)| {
            cuts.iter().map(move |(from, to)| {
                let (from, to) = (render_ids(from), render_ids(to));
                (*round, format!("oneway={round}:{from}>{to}"))
            })
        });
        by_round(heals.chain(cuts).collect())
    }
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
    fn render(&self) -> Vec<String> {
        render_runs(per_round(&self.schedule), |round, ids| {
            format!("corrupt={round}:{ids}")
        })
    }
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
    fn render(&self) -> Vec<String> {
        self.windows
            .iter()
            .map(|(start, end, spec)| {
                let (loss, dup, delay) = (spec.loss, spec.duplication, spec.extra_delay);
                format!("spike={start}+{}:{loss}/{dup}/{delay}", *end - *start)
            })
            .collect()
    }
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
    fn render(&self) -> Vec<String> {
        self.windows()
            .iter()
            .filter(|(_, _, victims, _)| !victims.is_empty())
            .map(|(start, end, victims, period)| {
                let ids = render_ids(victims);
                format!("gray={start}+{}:{period}:{ids}", *end - *start)
            })
            .collect()
    }
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
            if elapsed >= period.saturating_mul(2) {
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
    fn render(&self) -> Vec<String> {
        let pairs = self
            .all_skews()
            .map(|(round, id, period)| ((round, period), id));
        render_runs(pairs, |(round, period), ids| {
            format!("skew={round}:{period}:{ids}")
        })
    }
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
    fn render(&self) -> Vec<String> {
        render_runs(per_round(&self.schedule), |round, ids| {
            format!("payload={round}:{ids}")
        })
    }
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
    /// The plan keeps crash rounds and rejoin rounds apart, so this pairs
    /// them in sorted order: the i-th crash with the i-th rejoin. Every
    /// schedule the builder makes has a rejoin no earlier than each crash
    /// in that pairing, and re-parsing it gives the same two maps.
    fn render(&self) -> Vec<String> {
        let rejoins = self
            .rejoins
            .iter()
            .flat_map(|(round, count)| std::iter::repeat(*round).take(*count as usize));
        let pairs = per_round(&self.crashes)
            .zip(rejoins)
            .map(|((crash, id), rejoin)| ((crash, rejoin.saturating_since(crash)), id));
        render_runs(pairs, |(round, downtime), ids| {
            format!("recover={round}+{downtime}:{ids}")
        })
    }
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
    fn render(&self) -> Vec<String> {
        let pairs = self.schedule.iter().flat_map(|(round, v)| {
            v.iter()
                .map(move |(forge, claimed, target)| ((*round, *forge, *claimed), *target))
        });
        render_runs(pairs, |(round, forge, claimed), ids| {
            format!(
                "byzantine={round}:{}:{}:{ids}",
                forge.name(),
                claimed.as_u32()
            )
        })
    }
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
    use crate::config::SchedulerMode;
    use crate::scenario::{catalog, run_scenario, ScenarioRunner};
    use crate::testutil::MaxNode;

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

    fn grammar(token: &str) -> &'static str {
        PLAN_KINDS
            .iter()
            .find(|row| row.token == token)
            .unwrap()
            .grammar
    }

    #[test]
    fn every_plan_grammar_rejects_malformed_specs_with_token_and_hint() {
        // One malformed spec per grammar: (spec, the offending token the
        // error must name). None may panic.
        let cases = [
            ("crash=abc:1", "abc"),
            ("join=40:x", "x"),
            ("join=40:4294967296", "4294967296"),
            ("split=late", "late"),
            ("split=30:0+1/2+z", "z"),
            ("heal=9.5", "9.5"),
            ("oneway=half", "half"),
            ("oneway=30:0+1", "0+1"),
            ("healoneway=-3", "-3"),
            ("corrupt=35:p0", "p0"),
            ("payload=35:0+q", "q"),
            ("spike=30+20:0.25/zz/2", "zz"),
            ("gray=30+40:0:1", "0"),
            ("skew=20:0:1", "0"),
            ("recover=30:4", "30"),
            ("byzantine=30:alien:9:0", "alien"),
        ];
        for (spec, token) in cases {
            let err =
                apply_spec(Scenario::new("bad", 4), spec).expect_err(&format!("accepted `{spec}`"));
            assert!(
                err.contains(&format!("`{token}`")) || err.contains(&format!(" {token} ")),
                "error for `{spec}` does not name `{token}`: {err}"
            );
            let kind = spec.split_once('=').unwrap().0;
            assert!(
                err.contains(grammar(kind)),
                "error for `{spec}` lacks the {kind} grammar hint: {err}"
            );
        }
        // An unknown kind lists every grammar.
        let err = apply_spec(Scenario::new("bad", 4), "meteor=30").unwrap_err();
        assert!(err.contains("unknown plan kind"), "{err}");
        assert!(err.contains("plan grammars:"), "{err}");
        assert!(err.contains("crash=ROUND:IDS"), "{err}");
        // A spec with no `=` at all gets the full listing too.
        let err = apply_spec(Scenario::new("bad", 4), "crash").unwrap_err();
        assert!(err.contains("expected kind=spec"), "{err}");
        assert!(err.contains("plan grammars:"), "{err}");
    }

    #[test]
    fn plan_specs_compose_ad_hoc_scenarios() {
        let scenario = Scenario::new("adhoc", 6);
        let scenario = apply_spec(scenario, "crash=30:3+4").unwrap();
        let scenario = apply_spec(scenario, "crash=45:0").unwrap();
        let scenario = apply_spec(scenario, "join=40:2").unwrap();
        let scenario = apply_spec(scenario, "split=20").unwrap();
        let scenario = apply_spec(scenario, "heal=50").unwrap();
        let scenario = apply_spec(scenario, "spike=30+20:0.25/0.1/2").unwrap();
        let scenario = apply_spec(scenario, "gray=30+40:6:1+2").unwrap();
        let scenario = apply_spec(scenario, "skew=20:3:1").unwrap();
        let scenario = apply_spec(scenario, "recover=30+25:5").unwrap();
        let scenario = apply_spec(scenario, "byzantine=30:forged-sender:9:0+1").unwrap();
        // Repeated specs of one kind merged into one plan per class.
        assert_eq!(scenario.plan::<CrashPlan>().unwrap().total(), 3);
        assert_eq!(scenario.plan::<ChurnPlan>().unwrap().total(), 2);
        assert_eq!(scenario.plan::<SpikePlan>().unwrap().total(), 1);
        assert_eq!(scenario.plan::<ByzantinePlan>().unwrap().total(), 2);
        assert!(scenario.last_fault_round() >= Round::new(55));
        // Bad specs are rejected with a useful error.
        for bad in [
            "nonsense=1",
            "crash=30",
            "crash=x:1",
            "spike=30:0.1/0.1/1",
            "byzantine=30:alien:9:0",
        ] {
            assert!(
                apply_spec(Scenario::new("bad", 4), bad).is_err(),
                "accepted bad spec `{bad}`"
            );
        }
    }

    /// One whitespace-separated value is the same schedule as the same
    /// tokens given one at a time, and it renders back to itself.
    #[test]
    fn one_value_holds_a_whole_schedule() {
        let tokens = [
            "crash=30:3+4",
            "spike=40+20:0.3/0.1/2",
            "byzantine=50:forged-sender:9:0+1",
        ];
        let one = apply_spec(Scenario::new("one", 5), &tokens.join(" \t ")).unwrap();
        let many = tokens
            .iter()
            .try_fold(Scenario::new("many", 5), |s, t| apply_spec(s, t))
            .unwrap();
        for round in 0..70 {
            let round = Round::new(round);
            assert_eq!(one.actions_at(round), many.actions_at(round), "{round}");
        }
        assert_eq!(one.render_schedule(), tokens.join(" "));
        assert_eq!(
            apply_spec(Scenario::new("none", 5), " ")
                .unwrap()
                .plans()
                .len(),
            0
        );
    }

    /// Every catalog scenario's rendered schedule, applied to a bare
    /// scenario, schedules the same actions in every round and renders to
    /// the same string.
    #[test]
    fn every_catalog_schedule_round_trips_through_its_rendering() {
        for n in 4..=8 {
            for scenario in catalog(n) {
                let rendered = scenario.render_schedule();
                let parsed = apply_spec(Scenario::new(scenario.name(), n), &rendered)
                    .unwrap_or_else(|err| panic!("{}: {err}", scenario.name()));
                for round in 0..=scenario.rounds() {
                    let round = Round::new(round);
                    assert_eq!(
                        parsed.actions_at(round),
                        scenario.actions_at(round),
                        "{} at n = {n}, round {round}: `{rendered}`",
                        scenario.name()
                    );
                }
                assert_eq!(parsed.render_schedule(), rendered, "{}", scenario.name());
            }
        }
    }

    /// Schedules the builders can make but the catalog does not use:
    /// explicit split and cut groups, mixed skew periods, recoveries with
    /// different downtimes, and Byzantine runs with several senders.
    #[test]
    fn explicit_groups_and_mixed_runs_round_trip() {
        let p = |i: u32| ProcessId::new(i);
        let scenario = Scenario::new("mixed", 5)
            .split_at(
                Round::new(3),
                vec![vec![p(0), p(2)], vec![p(1)], vec![p(3), p(4)]],
            )
            .heal_at(Round::new(3))
            .cut_oneway_at(Round::new(5), vec![p(4)], vec![p(0), p(1)])
            .heal_oneway_at(Round::new(9))
            .skew_at(Round::new(2), 3, [p(1), p(2)])
            .skew_at(Round::new(2), 5, [p(3)])
            .crash_recover_at(Round::new(4), [p(1)], 10)
            .crash_recover_at(Round::new(4), [p(2)], 3)
            .crash_recover_at(Round::new(6), [p(3)], 1)
            .inject_at(Round::new(7), ForgeKind::Replay, p(0), [p(1), p(2)])
            .inject_at(Round::new(7), ForgeKind::StaleState, p(3), [p(1)])
            .spike_at(
                Round::new(1),
                4,
                SpikeSpec {
                    loss: 0.125,
                    duplication: 1.0 / 3.0,
                    extra_delay: 2,
                },
            );
        let rendered = scenario.render_schedule();
        let parsed = apply_spec(Scenario::new("mixed", 5), &rendered).unwrap();
        for round in 0..=20 {
            let round = Round::new(round);
            assert_eq!(
                parsed.actions_at(round),
                scenario.actions_at(round),
                "{rendered}"
            );
        }
        assert_eq!(parsed.render_schedule(), rendered);
        assert!(rendered.contains("split=3:0+2/1/3+4"), "{rendered}");
        assert!(rendered.contains("oneway=5:4>0+1"), "{rendered}");
    }

    /// A custom plan renders as its kind, which does not parse back.
    #[test]
    fn a_custom_plan_renders_its_kind() {
        #[derive(Debug, Clone)]
        struct Custom;
        impl FaultPlan for Custom {
            fn kind(&self) -> &'static str {
                "custom"
            }
            fn schedule(&self, _round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
                Vec::new()
            }
            fn last_round(&self) -> Option<Round> {
                None
            }
            fn events(&self) -> usize {
                0
            }
            fn counter_keys(&self) -> Vec<&'static str> {
                Vec::new()
            }
        }
        let scenario = Scenario::new("custom", 4)
            .crash_at(Round::new(2), [ProcessId::new(1)])
            .with_plan(Custom);
        assert_eq!(scenario.render_schedule(), "crash=2:1 custom");
        assert!(apply_spec(Scenario::new("custom", 4), "custom").is_err());
    }

    /// Windows and periods that overflow a round parse, and their cells
    /// finish: the overflowing round saturates to "never".
    #[test]
    fn overflowing_windows_and_periods_parse_and_finish() {
        let max = u64::MAX;
        for spec in [
            format!("spike={max}+5:0.1/0.1/1"),
            format!("gray=30+{max}:6:1"),
            format!("recover=30+{max}:4"),
            format!("skew=30:{max}:1"),
        ] {
            let scenario = apply_spec(Scenario::new("overflow", 5), &spec)
                .unwrap()
                .with_rounds(120);
            let mut sim = scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven);
            let run = run_scenario(&scenario, &mut sim);
            assert!(run.rounds_run > 0, "{spec}: {run:?}");
        }
        // The skewed victim takes at most one timer step after the skew
        // round: its next step is due at the end of time.
        let victim = ProcessId::new(1);
        let scenario = apply_spec(Scenario::new("skew", 4), &format!("skew=30:{max}:1"))
            .unwrap()
            .with_rounds(120)
            .with_workload_until(120);
        let mut runner = ScenarioRunner::new(
            &scenario,
            scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven),
        );
        runner.advance_to(Round::new(30));
        let before = runner.sim().timer_steps_of(victim).unwrap();
        runner.finish();
        let after = runner.sim().timer_steps_of(victim).unwrap();
        assert!(after - before <= 1, "{before} → {after}");
        assert_eq!(runner.sim().now(), Round::new(120));
    }
}
