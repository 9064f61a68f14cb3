//! The fault schedule as data: [`Fault`], its one `--plan` grammar
//! ([`PLAN_KINDS`], [`apply_spec`]) and the typed [`FaultAction`]s the
//! scenario runner applies.
//!
//! The paper's adversary is open-ended — self-stabilization must hold under
//! *any* transient fault, including crafted (Byzantine-shaped) messages — so
//! a campaign's fault schedule is the adversary, and it is plain data: a
//! [`Scenario`] holds one list of [`Fault`] values in insertion order, one
//! value per `--plan` token. Each value owns its decisions: its token, the
//! [`FaultAction`]s it contributes at a round, the counter keys it feeds,
//! its last round and its class invariant. The scenario runner
//! ([`crate::scenario::run_scenario`]) applies the actions at round
//! boundaries in a fixed per-class phase order ([`FaultAction::phase`]),
//! counts them, enforces the generic safety invariants (packet conservation,
//! cut asymmetry, joiner confinement), and checks each fault's class
//! invariant at the end of the run.
//!
//! A schedule is written one of two ways: as `--plan` text, which
//! [`apply_spec`] parses (the catalog, `simctl run --plan` and shrunk
//! reproducers), or as typed values through [`Scenario::with_fault`].
//! [`Fault::render`] writes the grammar back for every value, so a
//! scenario's whole schedule is one string ([`Scenario::render_schedule`])
//! that parses back to an equal list:
//!
//! ```
//! use simnet::plan::{apply_spec, Fault};
//! use simnet::scenario::Scenario;
//! use simnet::{ProcessId, Round};
//!
//! let s = apply_spec(Scenario::new("adhoc", 5), "crash=30:3+4").unwrap()
//!     .with_fault(Fault::Join { round: Round::new(40), count: 2 });
//! assert_eq!(s.render_schedule(), "crash=30:3+4 join=40:2");
//! assert_eq!(
//!     s.plans()[0],
//!     Fault::Crash { round: Round::new(30), victims: vec![ProcessId::new(3), ProcessId::new(4)] }
//! );
//! let parsed = apply_spec(Scenario::new("adhoc", 5), &s.render_schedule()).unwrap();
//! assert_eq!(parsed.plans(), s.plans());
//! ```

use std::collections::{BTreeMap, BTreeSet};

use crate::channel::ChannelPolicy;
use crate::fault::{spike_policy_at, timer_periods_at, SpikeSpec};
use crate::process::ProcessId;
use crate::scenario::Scenario;
use crate::time::Round;

/// One typed fault action, contributed by a [`Fault`] and applied by the
/// scenario runner. Actions are grouped into per-class *phases*
/// ([`FaultAction::phase`]) so the order faults were scheduled in never
/// changes the class order they land in within a round.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Heal every symmetric split; one-way cuts in force stay.
    HealSplits,
    /// Partition the population into the given groups (both directions cut
    /// between groups).
    Split(Vec<Vec<ProcessId>>),
    /// Heal every one-way cut currently in force; symmetric splits in force
    /// stay.
    HealOneway,
    /// Block only the links from the first group towards the second.
    CutOneway {
        /// Senders whose packets stop arriving.
        from: Vec<ProcessId>,
        /// Receivers that go deaf towards `from`.
        to: Vec<ProcessId>,
    },
    /// Switch every channel to this policy (spike windows compose over the
    /// whole schedule; the action carries the already-composed policy).
    SetPolicy(ChannelPolicy),
    /// Set (or with `None` restore) a processor's timer period. Gray and
    /// skew windows compose over the whole schedule; the action carries the
    /// already-composed period, the slowest of the windows covering the
    /// round.
    SetTimer {
        /// The slowed processor.
        victim: ProcessId,
        /// Desired period, `None` to restore the base rate.
        period: Option<u64>,
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
    /// The phase of [`FaultAction::Join`] and [`FaultAction::Rejoin`]. The
    /// runner confines the round's joiners behind the cuts in force once
    /// every action of this phase has applied.
    pub const JOIN_PHASE: u8 = 8;

    /// The application phase of this action within a round. The runner
    /// applies all due actions sorted (stably) by phase, so fault classes
    /// always land in the same order whatever order they were scheduled in:
    /// connectivity first (each heal before its class's new cuts), then
    /// spikes, timers, crashes, churn, corruption, injection.
    pub fn phase(&self) -> u8 {
        match self {
            FaultAction::HealSplits => 1,
            FaultAction::Split(_) => 2,
            FaultAction::HealOneway => 3,
            FaultAction::CutOneway { .. } => 4,
            FaultAction::SetPolicy(_) => 5,
            FaultAction::SetTimer { .. } => 6,
            FaultAction::Crash(_) => 7,
            FaultAction::Join { .. } | FaultAction::Rejoin { .. } => Self::JOIN_PHASE,
            FaultAction::CorruptState(_) => 9,
            FaultAction::CorruptPayloads(_) => 10,
            FaultAction::Inject { .. } => 11,
        }
    }
}

/// What the runner observed while applying a schedule's actions — the
/// input to the end-of-run class invariants ([`Fault`]'s `invariant`).
///
/// Timer-step snapshots are recorded for every victim of every due timer
/// action at that round, *before* the round's actions apply, so a fault can
/// bound how many steps a slowed processor took inside a window.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunObservations {
    /// Timer steps of `(round, victim)` at each round where a timer action
    /// touched the victim.
    pub(crate) timer_steps_at: BTreeMap<(Round, ProcessId), u64>,
    /// The round the run ended at.
    pub(crate) end_round: Round,
    /// Final timer steps of every known processor.
    pub(crate) final_timer_steps: BTreeMap<ProcessId, u64>,
    /// Final timer-period overrides still in force.
    pub(crate) final_timer_overrides: BTreeMap<ProcessId, u64>,
    /// Identifiers active at the end of the run.
    pub(crate) final_active: BTreeSet<ProcessId>,
}

/// One fault of a scenario's schedule: one `--plan` token (see
/// [`PLAN_KINDS`] for the grammar of each).
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// `crash`: the victims crash (fail-stop, forever).
    Crash {
        /// The round the victims crash at.
        round: Round,
        /// The crashed processors.
        victims: Vec<ProcessId>,
    },
    /// `join`: fresh processors join through the protocol's joining path
    /// ([`crate::scenario::ScenarioTarget::spawn_joiner`]).
    Join {
        /// The round they join at.
        round: Round,
        /// How many join.
        count: u32,
    },
    /// `split`: processors in different groups lose connectivity in both
    /// directions; processors in no group are unaffected.
    Split {
        /// The round the split starts at.
        round: Round,
        /// The groups.
        groups: Vec<Vec<ProcessId>>,
    },
    /// `heal`: every symmetric split heals.
    Heal {
        /// The round of the heal.
        round: Round,
    },
    /// `oneway`: the links from every member of `from` towards every member
    /// of `to` fail, while the reverse links keep delivering — the gray
    /// zone where failure detectors disagree hardest.
    Oneway {
        /// The round the cut starts at.
        round: Round,
        /// Senders whose packets stop arriving.
        from: Vec<ProcessId>,
        /// Receivers that go deaf towards `from`.
        to: Vec<ProcessId>,
    },
    /// `healoneway`: every one-way cut in force heals; symmetric splits stay.
    HealOneway {
        /// The round of the heal.
        round: Round,
    },
    /// `corrupt`: transient corruption of the victims' local state, the
    /// paper's signature fault ([`crate::scenario::ScenarioTarget::corrupt`]).
    Corrupt {
        /// The round of the corruption.
        round: Round,
        /// The corrupted processors.
        victims: Vec<ProcessId>,
    },
    /// `spike`: every link loses, duplicates and delays more than its base
    /// policy for a window of rounds. Overlapping windows compose to their
    /// element-wise worst case, so a short spike inside a longer one never
    /// truncates the longer window.
    Spike {
        /// The first round of the window.
        round: Round,
        /// The window's length in rounds.
        duration: u64,
        /// The spiked channel behaviour.
        spec: SpikeSpec,
    },
    /// `gray`: the victims run slow — their timer period multiplied far
    /// beyond the common rate — for a window, without being dead, then
    /// recover. At any window start or end every gray victim is set to the
    /// slowest period of the windows covering that round, or restored.
    Gray {
        /// The first round of the window.
        round: Round,
        /// The window's length in rounds.
        duration: u64,
        /// The slowed timer period (at least 1).
        period: u64,
        /// The slowed processors.
        victims: Vec<ProcessId>,
    },
    /// `skew`: the victims run their timer at `period` from `round` on and
    /// never recover — drift between local clocks. The skew is a timer
    /// window with no end, composed with the gray windows: a slower gray
    /// window wins while it covers, and a gray restore never wipes the
    /// skew.
    Skew {
        /// The round the skew starts at.
        round: Round,
        /// The skewed timer period (at least 1).
        period: u64,
        /// The skewed processors.
        victims: Vec<ProcessId>,
    },
    /// `payload`: every packet in flight towards the victims has its payload
    /// corrupted ([`crate::Network::corrupt_inbound_payloads`]): payloads
    /// are shuffled across the victim's inbound channels, then offered to
    /// [`crate::scenario::ScenarioTarget::corrupt_payload`]. Packets are
    /// never created or destroyed.
    Payload {
        /// The round of the corruption.
        round: Round,
        /// The processors whose inbound packets are corrupted.
        victims: Vec<ProcessId>,
    },
    /// `recover`: the victims crash, and `downtime` rounds later as many
    /// processors rejoin under *fresh* identifiers, as the paper prescribes
    /// (identifiers are never reused; a recovering processor re-enters
    /// through the joining mechanism like any newcomer).
    Recover {
        /// The round the victims crash at.
        round: Round,
        /// Rounds until the rejoin.
        downtime: u64,
        /// The crashed processors.
        victims: Vec<ProcessId>,
    },
    /// `byzantine`: one crafted packet per target, claiming to come from
    /// `claimed`, injected through [`crate::Network::inject`]. Injection is
    /// the one fault class that *creates* packets; the runner's
    /// packet-conservation invariant counts them.
    Byzantine {
        /// The round of the injection.
        round: Round,
        /// The shape of the crafted payload.
        forge: ForgeKind,
        /// The sender the packets claim to come from.
        claimed: ProcessId,
        /// The destinations.
        targets: Vec<ProcessId>,
    },
}

impl Fault {
    /// Parses one `kind=spec` token (see [`PLAN_KINDS`]) for a scenario of
    /// `n` initial processors, the population `split=ROUND` and
    /// `oneway=ROUND` halve. Every error names the offending token and
    /// gives the grammar of its kind, or of every kind when the kind is
    /// unknown: never a panic, whatever the input.
    pub fn parse(text: &str, n: usize) -> Result<Fault, String> {
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
        (row.parse)(&Token {
            text,
            kind,
            spec,
            n,
        })
        .map_err(|err| format!("{err} (grammar: {})", row.grammar))
    }

    /// This fault as one `--plan` token, which [`Fault::parse`] reads back
    /// to an equal value. A fault with no victims renders an empty id list
    /// (`crash=30:`), and never acts.
    pub fn render(&self) -> String {
        let token = self.token();
        let round = self.round();
        match self {
            Fault::Join { count, .. } => format!("{token}={round}:{count}"),
            Fault::Split { groups, .. } => {
                let groups: Vec<String> = groups.iter().map(|g| render_ids(g)).collect();
                format!("{token}={round}:{}", groups.join("/"))
            }
            Fault::Oneway { from, to, .. } => {
                format!("{token}={round}:{}>{}", render_ids(from), render_ids(to))
            }
            Fault::Heal { .. } | Fault::HealOneway { .. } => format!("{token}={round}"),
            Fault::Spike { duration, spec, .. } => {
                let (loss, dup, delay) = (spec.loss, spec.duplication, spec.extra_delay);
                format!("{token}={round}+{duration}:{loss}/{dup}/{delay}")
            }
            Fault::Gray {
                duration, period, ..
            } => format!("{token}={round}+{duration}:{period}:{}", self.ids()),
            Fault::Skew { period, .. } => format!("{token}={round}:{period}:{}", self.ids()),
            Fault::Recover { downtime, .. } => format!("{token}={round}+{downtime}:{}", self.ids()),
            Fault::Byzantine { forge, claimed, .. } => format!(
                "{token}={round}:{}:{}:{}",
                forge.name(),
                claimed.as_u32(),
                self.ids()
            ),
            Fault::Crash { .. } | Fault::Corrupt { .. } | Fault::Payload { .. } => {
                format!("{token}={round}:{}", self.ids())
            }
        }
    }

    /// The `--plan` token naming this fault's kind.
    pub fn token(&self) -> &'static str {
        match self {
            Fault::Crash { .. } => "crash",
            Fault::Join { .. } => "join",
            Fault::Split { .. } => "split",
            Fault::Heal { .. } => "heal",
            Fault::Oneway { .. } => "oneway",
            Fault::HealOneway { .. } => "healoneway",
            Fault::Corrupt { .. } => "corrupt",
            Fault::Spike { .. } => "spike",
            Fault::Gray { .. } => "gray",
            Fault::Skew { .. } => "skew",
            Fault::Payload { .. } => "payload",
            Fault::Recover { .. } => "recover",
            Fault::Byzantine { .. } => "byzantine",
        }
    }

    /// The round this fault first acts at.
    pub fn round(&self) -> Round {
        match self {
            Fault::Crash { round, .. }
            | Fault::Join { round, .. }
            | Fault::Split { round, .. }
            | Fault::Heal { round }
            | Fault::Oneway { round, .. }
            | Fault::HealOneway { round }
            | Fault::Corrupt { round, .. }
            | Fault::Spike { round, .. }
            | Fault::Gray { round, .. }
            | Fault::Skew { round, .. }
            | Fault::Payload { round, .. }
            | Fault::Recover { round, .. }
            | Fault::Byzantine { round, .. } => *round,
        }
    }

    /// The last round at which this fault acts: a window's end (its
    /// restore), a recovery's rejoin, else its round. Convergence is
    /// counted only after every fault's last round; a skew never ends, so
    /// convergence is counted *with* it in force.
    pub fn last_round(&self) -> Round {
        match self {
            Fault::Spike {
                round, duration, ..
            }
            | Fault::Gray {
                round, duration, ..
            } => *round + *duration,
            Fault::Recover {
                round, downtime, ..
            } => *round + *downtime,
            _ => self.round(),
        }
    }

    /// The counter keys this fault feeds; they appear in the run's counter
    /// map even when zero, so report shapes depend on the schedule, not on
    /// what fired. `crashes`, `joins`, `recoveries`, `splits` and
    /// `oneway_cuts` count applied actions; `spikes` counts switches to a
    /// spiked (non-base) policy, so a window's closing restore is not
    /// re-counted; `slowdowns` counts full-speed → slowed transitions;
    /// `corruptions` counts victims actually corrupted;
    /// `payload_corruptions` counts packets exposed to corruption;
    /// `injections` counts packets actually injected.
    pub fn counter_keys(&self) -> &'static [&'static str] {
        match self {
            Fault::Crash { .. } => &["crashes"],
            Fault::Join { .. } => &["joins"],
            Fault::Split { .. } | Fault::Heal { .. } => &["splits"],
            Fault::Oneway { .. } | Fault::HealOneway { .. } => &["oneway_cuts"],
            Fault::Corrupt { .. } => &["corruptions"],
            Fault::Spike { .. } => &["spikes"],
            Fault::Gray { .. } | Fault::Skew { .. } => &["slowdowns"],
            Fault::Payload { .. } => &["payload_corruptions"],
            Fault::Recover { .. } => &["crashes", "recoveries"],
            Fault::Byzantine { .. } => &["injections"],
        }
    }

    /// Whether `simctl drive` can replay this fault against a real cluster:
    /// crashes (`kill -9`), joins and recoveries (fresh-id process spawns),
    /// and gray and skewed timers (control-plane timer retuning). The other
    /// kinds act on the simulator's modelled network or address space.
    pub fn is_live(&self) -> bool {
        matches!(
            self,
            Fault::Crash { .. }
                | Fault::Join { .. }
                | Fault::Recover { .. }
                | Fault::Gray { .. }
                | Fault::Skew { .. }
        )
    }

    /// The processors this fault names one by one, or `None` for kinds that
    /// name none or name groups.
    fn victims(&self) -> Option<&[ProcessId]> {
        match self {
            Fault::Crash { victims, .. }
            | Fault::Corrupt { victims, .. }
            | Fault::Gray { victims, .. }
            | Fault::Skew { victims, .. }
            | Fault::Payload { victims, .. }
            | Fault::Recover { victims, .. }
            | Fault::Byzantine {
                targets: victims, ..
            } => Some(victims),
            _ => None,
        }
    }

    fn ids(&self) -> String {
        render_ids(self.victims().unwrap_or_default())
    }

    /// Whether the fault acts on any processor: `false` for a kind that
    /// names its processors one by one when it names none (`crash=30:`, the
    /// minority of n = 2) and for `join` of nobody. Such a fault applies
    /// nothing.
    pub fn acts(&self) -> bool {
        match self {
            Fault::Join { count, .. } => *count > 0,
            fault => fault.victims().map_or(true, |victims| !victims.is_empty()),
        }
    }

    /// Appends the actions this fault contributes at exactly `round`, in
    /// application order. Spike, gray and skew windows compose over the
    /// whole schedule, so [`actions_at`] emits theirs.
    fn push_actions(&self, round: Round, out: &mut Vec<FaultAction>) {
        if round == self.round() {
            match self {
                Fault::Crash { victims, .. } | Fault::Recover { victims, .. } => {
                    out.extend(victims.iter().copied().map(FaultAction::Crash));
                }
                Fault::Join { count, .. } if *count > 0 => {
                    out.push(FaultAction::Join { count: *count });
                }
                Fault::Split { groups, .. } => out.push(FaultAction::Split(groups.clone())),
                Fault::Heal { .. } => out.push(FaultAction::HealSplits),
                Fault::Oneway { from, to, .. } => out.push(FaultAction::CutOneway {
                    from: from.clone(),
                    to: to.clone(),
                }),
                Fault::HealOneway { .. } => out.push(FaultAction::HealOneway),
                Fault::Corrupt { victims, .. } => {
                    out.extend(victims.iter().copied().map(FaultAction::CorruptState));
                }
                Fault::Payload { victims, .. } => {
                    out.extend(victims.iter().copied().map(FaultAction::CorruptPayloads));
                }
                Fault::Byzantine {
                    forge,
                    claimed,
                    targets,
                    ..
                } => out.extend(targets.iter().map(|&target| FaultAction::Inject {
                    claimed_sender: *claimed,
                    target,
                    forge: *forge,
                })),
                _ => {}
            }
        }
        if let Fault::Recover { victims, .. } = self {
            if round == self.last_round() && !victims.is_empty() {
                out.push(FaultAction::Rejoin {
                    count: victims.len() as u32,
                });
            }
        }
    }

    /// Class-specific safety violations, evaluated at the end of a run
    /// against what the runner observed. Kinds without a class invariant
    /// rely on the runner's generic ones (packet conservation, cut
    /// asymmetry, joiner confinement).
    pub(crate) fn invariant(&self, obs: &RunObservations) -> Vec<String> {
        match self {
            // The victim really ran slower: its timer steps over the window
            // fit the slowed period's budget.
            Fault::Gray {
                round: start,
                period,
                victims,
                ..
            } => {
                let (start, end) = (*start, self.last_round());
                if end == start {
                    return Vec::new();
                }
                victims
                    .iter()
                    .filter_map(|v| {
                        let baseline = obs.timer_steps_at.get(&(start, *v))?;
                        let steps = obs.timer_steps_at.get(&(end, *v))? - baseline;
                        let budget = end.saturating_since(start) / *period + 2;
                        (steps > budget).then(|| {
                            format!(
                                "gray failure had no effect: {v} took {steps} timer steps in \
                                 [{start}, {end}) at period {period} (budget {budget})"
                            )
                        })
                    })
                    .collect()
            }
            // A skewed processor is slow, not dead: given enough rounds it
            // must have taken timer steps at its skewed rate.
            Fault::Skew {
                round: since,
                victims,
                ..
            } => victims
                .iter()
                .filter_map(|v| {
                    let baseline = obs.timer_steps_at.get(&(*since, *v))?;
                    if !obs.final_active.contains(v) {
                        return None;
                    }
                    let elapsed = obs.end_round.saturating_since(*since);
                    let period = obs.final_timer_overrides.get(v).copied().unwrap_or(1);
                    let stalled = || obs.final_timer_steps.get(v).unwrap_or(baseline) == baseline;
                    (elapsed >= period.saturating_mul(2) && stalled()).then(|| {
                        format!("skewed processor {v} took no timer steps since round {since}")
                    })
                })
                .collect(),
            // The old identifier stays dead forever — recovery means a fresh
            // identifier, never resurrection.
            Fault::Recover { victims, .. } => victims
                .iter()
                .filter(|victim| obs.final_active.contains(victim))
                .map(|victim| {
                    format!(
                        "crash-recovered processor {victim} is still active under its old identifier"
                    )
                })
                .collect(),
            // Injection accounting is the runner's generic conservation
            // invariant (per round, the in-flight delta must equal the
            // declared injections), which attributes packets to the action
            // that created them.
            _ => Vec::new(),
        }
    }
}

/// Every fault action `faults` schedule at `round`, sorted (stably) into
/// class-phase order: within a phase, actions follow the faults' insertion
/// order, and the composed spike policy and timer periods stand at the
/// first spike's and first gray or skew window's place.
pub(crate) fn actions_at(faults: &[Fault], round: Round, base: &ChannelPolicy) -> Vec<FaultAction> {
    let mut actions = Vec::new();
    let (mut spikes_done, mut timers_done) = (false, false);
    for fault in faults {
        match fault {
            Fault::Spike { .. } if !spikes_done => {
                spikes_done = true;
                actions.extend(spike_policy_at(faults, round, base).map(FaultAction::SetPolicy));
            }
            Fault::Gray { .. } | Fault::Skew { .. } if !timers_done => {
                timers_done = true;
                for (victim, period) in timer_periods_at(faults, round).into_iter().flatten() {
                    actions.push(FaultAction::SetTimer { victim, period });
                }
            }
            _ => fault.push_actions(round, &mut actions),
        }
    }
    actions.sort_by_key(FaultAction::phase);
    actions
}

/// One token kind of the `--plan` grammar.
pub struct PlanKind {
    /// The token's name, before the `=`.
    pub token: &'static str,
    /// The token's grammar, for usage text and error hints.
    pub grammar: &'static str,
    /// Parses one token of this kind into its [`Fault`].
    parse: fn(&Token<'_>) -> Result<Fault, String>,
}

/// The `--plan` grammar, one row per [`Fault`] variant. Process identifiers
/// are joined with `+`, a window is `start+duration`, and rounds are plain
/// integers. [`Fault::render`] writes these tokens, and [`Fault::parse`]
/// and [`apply_spec`] read them.
pub const PLAN_KINDS: &[PlanKind] = &[
    PlanKind {
        token: "crash",
        grammar: "crash=ROUND:IDS",
        parse: |t| {
            let (round, ids) = t.pair()?;
            Ok(Fault::Crash {
                round: t.round(round)?,
                victims: t.ids(ids)?,
            })
        },
    },
    PlanKind {
        token: "join",
        grammar: "join=ROUND:COUNT",
        parse: |t| {
            let (round, count) = t.pair()?;
            Ok(Fault::Join {
                round: t.round(round)?,
                count: count.parse::<u32>().map_err(|_| t.bad("number", count))?,
            })
        },
    },
    PlanKind {
        token: "split",
        grammar: "split=ROUND[:IDS/IDS...]",
        parse: |t| match t.spec.split_once(':') {
            None => Ok(Fault::Split {
                round: t.round(t.spec)?,
                groups: halves(t.n).into(),
            }),
            Some((round, groups)) => Ok(Fault::Split {
                round: t.round(round)?,
                groups: groups
                    .split('/')
                    .map(|g| t.ids(g))
                    .collect::<Result<_, _>>()?,
            }),
        },
    },
    PlanKind {
        token: "heal",
        grammar: "heal=ROUND",
        parse: |t| {
            Ok(Fault::Heal {
                round: t.round(t.spec)?,
            })
        },
    },
    PlanKind {
        token: "oneway",
        grammar: "oneway=ROUND[:IDS>IDS]",
        parse: |t| match t.spec.split_once(':') {
            None => {
                let [lower, upper] = halves(t.n);
                Ok(Fault::Oneway {
                    round: t.round(t.spec)?,
                    from: upper,
                    to: lower,
                })
            }
            Some((round, cut)) => {
                let (from, to) = cut.split_once('>').ok_or_else(|| {
                    format!("bad cut `{cut}` in --plan `{}` (expected FROM>TO)", t.text)
                })?;
                Ok(Fault::Oneway {
                    round: t.round(round)?,
                    from: t.ids(from)?,
                    to: t.ids(to)?,
                })
            }
        },
    },
    PlanKind {
        token: "healoneway",
        grammar: "healoneway=ROUND",
        parse: |t| {
            Ok(Fault::HealOneway {
                round: t.round(t.spec)?,
            })
        },
    },
    PlanKind {
        token: "corrupt",
        grammar: "corrupt=ROUND:IDS",
        parse: |t| {
            let (round, ids) = t.pair()?;
            Ok(Fault::Corrupt {
                round: t.round(round)?,
                victims: t.ids(ids)?,
            })
        },
    },
    PlanKind {
        token: "spike",
        grammar: "spike=ROUND+DURATION:LOSS/DUP/DELAY",
        parse: |t| {
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
            Ok(Fault::Spike {
                round,
                duration,
                spec,
            })
        },
    },
    PlanKind {
        token: "gray",
        grammar: "gray=ROUND+DURATION:PERIOD:IDS",
        parse: |t| {
            let [window, period, ids] = t.fields("start+dur:period:ids")?;
            let (round, duration) = t.window(window)?;
            Ok(Fault::Gray {
                round,
                duration,
                period: t.period(period)?,
                victims: t.ids(ids)?,
            })
        },
    },
    PlanKind {
        token: "skew",
        grammar: "skew=ROUND:PERIOD:IDS",
        parse: |t| {
            let [round, period, ids] = t.fields("round:period:ids")?;
            Ok(Fault::Skew {
                round: t.round(round)?,
                period: t.period(period)?,
                victims: t.ids(ids)?,
            })
        },
    },
    PlanKind {
        token: "payload",
        grammar: "payload=ROUND:IDS",
        parse: |t| {
            let (round, ids) = t.pair()?;
            Ok(Fault::Payload {
                round: t.round(round)?,
                victims: t.ids(ids)?,
            })
        },
    },
    PlanKind {
        token: "recover",
        grammar: "recover=ROUND+DOWNTIME:IDS",
        parse: |t| {
            let (window, ids) = t.pair()?;
            let (round, downtime) = t.window(window)?;
            Ok(Fault::Recover {
                round,
                downtime,
                victims: t.ids(ids)?,
            })
        },
    },
    PlanKind {
        token: "byzantine",
        grammar: "byzantine=ROUND:replay|forged-sender|stale-state:CLAIMED:IDS",
        parse: |t| {
            let [round, forge, claimed, ids] = t.fields("round:kind:claimed:ids")?;
            Ok(Fault::Byzantine {
                round: t.round(round)?,
                forge: ForgeKind::parse(forge).ok_or_else(|| t.bad("forge kind", forge))?,
                claimed: claimed
                    .parse::<u32>()
                    .map(ProcessId::new)
                    .map_err(|_| t.bad("claimed sender", claimed))?,
                targets: t.ids(ids)?,
            })
        },
    },
];

/// Parses a `--plan` value — one or more `kind=spec` tokens separated by
/// whitespace, see [`PLAN_KINDS`] — and appends each token's [`Fault`] to
/// `scenario`, in order. Errors are [`Fault::parse`]'s.
///
/// ```
/// use simnet::plan::apply_spec;
/// use simnet::scenario::Scenario;
/// let s = apply_spec(Scenario::new("adhoc", 5), "crash=30:3+4 heal=70 split=30").unwrap();
/// assert_eq!(s.render_schedule(), "crash=30:3+4 heal=70 split=30:0+1/2+3+4");
/// assert!(apply_spec(Scenario::new("bad", 5), "crash=30").is_err());
/// ```
pub fn apply_spec(scenario: Scenario, spec: &str) -> Result<Scenario, String> {
    let n = scenario.initial_size();
    spec.split_whitespace().try_fold(scenario, |s, token| {
        Ok(s.with_fault(Fault::parse(token, n)?))
    })
}

/// The two halves of an initial population of `n`, lower then upper: the
/// groups of `split=ROUND` and, upper towards lower, the cut of
/// `oneway=ROUND`.
fn halves(n: usize) -> [Vec<ProcessId>; 2] {
    let mid = (n / 2) as u32;
    [
        (0..mid).map(ProcessId::new).collect(),
        (mid..n as u32).map(ProcessId::new).collect(),
    ]
}

/// One `kind=spec` token being parsed, for a scenario of `n` initial
/// processors; every error names it.
struct Token<'a> {
    text: &'a str,
    kind: &'a str,
    spec: &'a str,
    n: usize,
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

    /// A timer period: a number of at least 1.
    fn period(&self, s: &str) -> Result<u64, String> {
        match self.u64(s)? {
            0 => Err(format!(
                "bad period `0` in --plan `{}` (must be ≥ 1)",
                self.text
            )),
            period => Ok(period),
        }
    }

    /// An id list, which may be empty: a victim list, or a group of a
    /// split or cut.
    fn ids(&self, s: &str) -> Result<Vec<ProcessId>, String> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split('+')
            .map(|id| {
                id.parse::<u32>()
                    .map(ProcessId::new)
                    .map_err(|_| self.bad("process id", id))
            })
            .collect()
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

/// What shape of crafted payload a [`Fault::Byzantine`] injection carries.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerMode;
    use crate::scenario::{catalog, run_scenario, ScenarioRunner};
    use crate::testutil::MaxNode;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// One fault of every kind, in [`PLAN_KINDS`] order.
    fn one_of_each() -> Vec<Fault> {
        let round = Round::new(3);
        vec![
            Fault::Crash {
                round,
                victims: vec![p(1), p(2)],
            },
            Fault::Join { round, count: 2 },
            Fault::Split {
                round,
                groups: vec![vec![p(0)], vec![], vec![p(1), p(2)]],
            },
            Fault::Heal { round },
            Fault::Oneway {
                round,
                from: vec![p(3)],
                to: vec![p(0), p(1)],
            },
            Fault::HealOneway { round },
            Fault::Corrupt {
                round,
                victims: vec![p(0)],
            },
            Fault::Spike {
                round,
                duration: 4,
                spec: SpikeSpec {
                    loss: 0.125,
                    duplication: 1.0 / 3.0,
                    extra_delay: 2,
                },
            },
            Fault::Gray {
                round,
                duration: 5,
                period: 6,
                victims: vec![p(1)],
            },
            Fault::Skew {
                round,
                period: 3,
                victims: vec![p(2), p(3)],
            },
            Fault::Payload {
                round,
                victims: vec![p(0)],
            },
            Fault::Recover {
                round,
                downtime: 7,
                victims: vec![p(3)],
            },
            Fault::Byzantine {
                round,
                forge: ForgeKind::StaleState,
                claimed: p(9),
                targets: vec![p(0), p(1)],
            },
        ]
    }

    /// Every grammar row has exactly one fault kind, which renders with the
    /// row's token, parses back to an equal value and registers a counter.
    #[test]
    fn registry_covers_every_builtin_plan_kind() {
        let faults = one_of_each();
        let tokens: Vec<&str> = faults.iter().map(Fault::token).collect();
        let rows: Vec<&str> = PLAN_KINDS.iter().map(|row| row.token).collect();
        assert_eq!(tokens, rows);
        for (fault, row) in faults.iter().zip(PLAN_KINDS) {
            assert!(row.grammar.starts_with(&format!("{}=", row.token)));
            let rendered = fault.render();
            assert!(
                rendered.starts_with(&format!("{}=", row.token)),
                "{rendered}"
            );
            assert_eq!(Fault::parse(&rendered, 4).as_ref(), Ok(fault), "{rendered}");
            assert!(!fault.counter_keys().is_empty(), "{rendered}");
        }
    }

    #[test]
    fn schedule_translates_plan_events_into_typed_actions() {
        let scenario = apply_spec(
            Scenario::new("actions", 4),
            "crash=3:1 join=5:2 recover=1+4:2 byzantine=7:replay:0:3",
        )
        .unwrap();
        let at = |round: u64| scenario.actions_at(Round::new(round));
        assert_eq!(at(3), vec![FaultAction::Crash(p(1))]);
        assert!(at(2).is_empty());
        assert_eq!(at(1), vec![FaultAction::Crash(p(2))]);
        // The join and the recovery's rejoin share round 5, in insertion
        // order.
        assert_eq!(
            at(5),
            vec![
                FaultAction::Join { count: 2 },
                FaultAction::Rejoin { count: 1 }
            ]
        );
        assert_eq!(
            at(7),
            vec![FaultAction::Inject {
                claimed_sender: p(0),
                target: p(3),
                forge: ForgeKind::Replay
            }]
        );
    }

    /// A skew is a timer window with no end: under a gray window the
    /// schedule emits only `SetTimer` actions, each carrying the slowest
    /// period covering its victim, for every timer victim at every
    /// boundary.
    #[test]
    fn skew_under_gray_emits_composed_set_timer_actions() {
        let scenario =
            apply_spec(Scenario::new("skewgray", 5), "skew=20:3:4 gray=25+30:6:3+4").unwrap();
        let at = |round: u64| scenario.actions_at(Round::new(round));
        let set = |victim: u32, period: Option<u64>| FaultAction::SetTimer {
            victim: p(victim),
            period,
        };
        assert_eq!(at(20), vec![set(3, None), set(4, Some(3))]);
        assert!(at(21).is_empty());
        assert_eq!(at(25), vec![set(3, Some(6)), set(4, Some(6))]);
        assert_eq!(at(55), vec![set(3, None), set(4, Some(3))]);
        assert!(at(56).is_empty());
    }

    #[test]
    fn action_phases_order_the_fault_classes() {
        let p = ProcessId::new(0);
        let actions = [
            FaultAction::HealSplits,
            FaultAction::Split(vec![vec![p]]),
            FaultAction::HealOneway,
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
        sorted.dedup();
        assert_eq!(
            phases, sorted,
            "class order is heal → cut → … → injection, one phase each"
        );
        assert_eq!(
            FaultAction::Rejoin { count: 1 }.phase(),
            FaultAction::JOIN_PHASE
        );
        assert_eq!(
            FaultAction::Join { count: 1 }.phase(),
            FaultAction::JOIN_PHASE
        );
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
        // One fault per token, in order.
        let tokens: Vec<&str> = scenario.plans().iter().map(Fault::token).collect();
        assert_eq!(
            tokens,
            [
                "crash",
                "crash",
                "join",
                "split",
                "heal",
                "spike",
                "gray",
                "skew",
                "recover",
                "byzantine"
            ]
        );
        assert_eq!(
            scenario.plans()[3],
            Fault::Split {
                round: Round::new(20),
                groups: vec![vec![p(0), p(1), p(2)], vec![p(3), p(4), p(5)]],
            }
        );
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
        assert_eq!(one.plans(), many.plans());
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
    /// scenario, gives back the same faults and renders to the same string.
    #[test]
    fn every_catalog_schedule_round_trips_through_its_rendering() {
        for n in 2..=8 {
            for scenario in catalog(n) {
                let rendered = scenario.render_schedule();
                let parsed = apply_spec(Scenario::new(scenario.name(), n), &rendered)
                    .unwrap_or_else(|err| panic!("{}: {err}", scenario.name()));
                assert_eq!(
                    parsed.plans(),
                    scenario.plans(),
                    "{} at n = {n}: `{rendered}`",
                    scenario.name()
                );
                assert_eq!(parsed.render_schedule(), rendered, "{}", scenario.name());
            }
        }
    }

    /// An empty id list is a fault with no victims: `crash=30:` parses to
    /// a crash of nobody, renders back to itself, does not act, and a run
    /// of it registers the `crashes` counter at zero and crashes nobody.
    /// The catalog's minority faults at n = 2 are such faults.
    #[test]
    fn an_empty_victim_list_parses_renders_and_crashes_nobody() {
        let scenario = apply_spec(Scenario::new("nobody", 3), "crash=30:")
            .unwrap()
            .with_rounds(60);
        let crash = Fault::Crash {
            round: Round::new(30),
            victims: Vec::new(),
        };
        assert_eq!(crash.render(), "crash=30:");
        assert!(!crash.acts());
        assert_eq!(scenario.plans(), [crash]);
        assert_eq!(scenario.render_schedule(), "crash=30:");
        assert!(scenario.actions_at(Round::new(30)).is_empty());
        let mut sim = scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven);
        let run = run_scenario(&scenario, &mut sim);
        assert_eq!(run.counters.get("crashes"), Some(&0), "{run:?}");
        assert_eq!(sim.active_ids(), vec![p(0), p(1), p(2)]);
    }

    /// Typed schedules the catalog does not use: explicit split and cut
    /// groups, mixed skew periods, recoveries with different downtimes,
    /// and Byzantine runs with several senders.
    #[test]
    fn explicit_groups_and_mixed_runs_round_trip() {
        let r = Round::new;
        let recover = |round: u64, victim: u32, downtime: u64| Fault::Recover {
            round: r(round),
            downtime,
            victims: vec![p(victim)],
        };
        let inject = |forge: ForgeKind, claimed: u32, targets: Vec<ProcessId>| Fault::Byzantine {
            round: r(7),
            forge,
            claimed: p(claimed),
            targets,
        };
        let faults = [
            Fault::Split {
                round: r(3),
                groups: vec![vec![p(0), p(2)], vec![p(1)], vec![p(3), p(4)]],
            },
            Fault::Heal { round: r(3) },
            Fault::Oneway {
                round: r(5),
                from: vec![p(4)],
                to: vec![p(0), p(1)],
            },
            Fault::HealOneway { round: r(9) },
            Fault::Skew {
                round: r(2),
                period: 3,
                victims: vec![p(1), p(2)],
            },
            Fault::Skew {
                round: r(2),
                period: 5,
                victims: vec![p(3)],
            },
            recover(4, 1, 10),
            recover(4, 2, 3),
            recover(6, 3, 1),
            inject(ForgeKind::Replay, 0, vec![p(1), p(2)]),
            inject(ForgeKind::StaleState, 3, vec![p(1)]),
            Fault::Spike {
                round: r(1),
                duration: 4,
                spec: SpikeSpec {
                    loss: 0.125,
                    duplication: 1.0 / 3.0,
                    extra_delay: 2,
                },
            },
        ];
        let scenario = faults
            .into_iter()
            .fold(Scenario::new("mixed", 5), Scenario::with_fault);
        let rendered = scenario.render_schedule();
        let parsed = apply_spec(Scenario::new("mixed", 5), &rendered).unwrap();
        assert_eq!(parsed.plans(), scenario.plans(), "{rendered}");
        assert_eq!(parsed.render_schedule(), rendered);
        assert!(rendered.contains("split=3:0+2/1/3+4"), "{rendered}");
        assert!(rendered.contains("oneway=5:4>0+1"), "{rendered}");
    }

    /// Windows and periods that overflow a round parse, and their cells
    /// finish: the overflowing round saturates to "never". Whether a
    /// schedule is live-capable does not depend on how long it lasts.
    #[test]
    fn overflowing_windows_and_periods_parse_and_finish() {
        let max = u64::MAX;
        for (spec, live) in [
            (format!("spike={max}+5:0.1/0.1/1"), false),
            (format!("gray=30+{max}:6:1"), true),
            ("gray=30+100000000:6:1".to_string(), true),
            (format!("recover=30+{max}:4"), true),
            (format!("skew=30:{max}:1"), true),
        ] {
            let scenario = apply_spec(Scenario::new("overflow", 5), &spec)
                .unwrap()
                .with_rounds(120);
            assert_eq!(scenario.live_capable(), live, "{spec}");
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
