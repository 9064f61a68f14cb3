//! Fault and churn injection helpers.
//!
//! Self-stabilization is about recovery from *transient faults* — an
//! arbitrary starting state — combined with ordinary crash failures and
//! churn. This module provides declarative schedules for crashes
//! ([`CrashPlan`]), joins ([`ChurnPlan`]), transient state corruption
//! ([`CorruptionPlan`]) and channel-behaviour spikes ([`SpikePlan`]).
//!
//! The plans are the building blocks of the chaos-campaign engine: a
//! [`crate::scenario::Scenario`] composes them into one declarative fault
//! schedule, and the scenario runner ([`crate::scenario::ScenarioRunner`])
//! is the one place that applies them, at round boundaries. A plan only
//! decides *who* and *when*; *how* to corrupt a processor's state is
//! protocol-specific and lives in
//! [`crate::scenario::ScenarioTarget::corrupt`].

use std::collections::{BTreeMap, BTreeSet};

use crate::channel::ChannelPolicy;
use crate::process::ProcessId;
use crate::time::Round;

/// A schedule of crash failures: which processors crash at which round.
///
/// ```
/// use simnet::{CrashPlan, ProcessId, Round};
/// let plan = CrashPlan::new()
///     .crash_at(Round::new(5), ProcessId::new(2))
///     .crash_at(Round::new(5), ProcessId::new(3));
/// assert_eq!(plan.due(Round::new(5)).len(), 2);
/// assert!(plan.due(Round::new(4)).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    pub(crate) schedule: BTreeMap<Round, Vec<ProcessId>>,
}

impl CrashPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `victim` to crash at `round` (builder style).
    pub fn crash_at(mut self, round: Round, victim: ProcessId) -> Self {
        self.schedule.entry(round).or_default().push(victim);
        self
    }

    /// Schedules a group of victims at `round`.
    pub fn crash_all_at(
        mut self,
        round: Round,
        victims: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        self.schedule.entry(round).or_default().extend(victims);
        self
    }

    /// The victims scheduled for exactly `round`.
    pub fn due(&self, round: Round) -> &[ProcessId] {
        self.schedule.get(&round).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of scheduled crashes.
    pub fn total(&self) -> usize {
        self.schedule.values().map(Vec::len).sum()
    }

    /// The last round with a scheduled crash.
    pub fn last_round(&self) -> Option<Round> {
        self.schedule.keys().next_back().copied()
    }
}

/// A schedule of joins: how many new processors join at which round. The
/// runner builds each joiner through
/// [`crate::scenario::ScenarioTarget::spawn_joiner`], because only the
/// protocol knows how to construct a freshly joining node.
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    pub(crate) joins: BTreeMap<Round, u32>,
}

impl ChurnPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `count` joins at `round` (builder style).
    pub fn join_at(mut self, round: Round, count: u32) -> Self {
        *self.joins.entry(round).or_insert(0) += count;
        self
    }

    /// Number of joins due at exactly `round`.
    pub fn due(&self, round: Round) -> u32 {
        self.joins.get(&round).copied().unwrap_or(0)
    }

    /// Total number of scheduled joins.
    pub fn total(&self) -> u32 {
        self.joins.values().sum()
    }

    /// The last round with a scheduled join.
    pub fn last_round(&self) -> Option<Round> {
        self.joins.keys().next_back().copied()
    }
}

/// A schedule of transient state corruptions: which processors have their
/// local state corrupted at which round. The plan only records *who* and
/// *when*; the protocol-specific *how* is
/// [`crate::scenario::ScenarioTarget::corrupt`], which the runner calls.
///
/// ```
/// use simnet::{fault::CorruptionPlan, ProcessId, Round};
/// let plan = CorruptionPlan::new()
///     .corrupt_at(Round::new(10), [ProcessId::new(0), ProcessId::new(2)]);
/// assert_eq!(plan.due(Round::new(10)).len(), 2);
/// assert_eq!(plan.total(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CorruptionPlan {
    pub(crate) schedule: BTreeMap<Round, Vec<ProcessId>>,
}

impl CorruptionPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the state of `victims` to be corrupted at `round` (builder
    /// style).
    pub fn corrupt_at(
        mut self,
        round: Round,
        victims: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        self.schedule.entry(round).or_default().extend(victims);
        self
    }

    /// The victims scheduled for exactly `round`.
    pub fn due(&self, round: Round) -> &[ProcessId] {
        self.schedule.get(&round).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of scheduled corruptions.
    pub fn total(&self) -> usize {
        self.schedule.values().map(Vec::len).sum()
    }

    /// The last round with a scheduled corruption.
    pub fn last_round(&self) -> Option<Round> {
        self.schedule.keys().next_back().copied()
    }
}

/// Overrides a [`ChannelPolicy`] for the duration of a spike: the paper's
/// lossy, duplicating, delaying links turned up to adversarial levels for a
/// bounded window of rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeSpec {
    /// Per-packet loss probability during the spike.
    pub loss: f64,
    /// Per-packet duplication probability during the spike.
    pub duplication: f64,
    /// Extra delivery delay added on top of the base maximum delay.
    pub extra_delay: u64,
}

impl SpikeSpec {
    /// Applies the spike on top of `base`, returning the spiked policy.
    pub fn apply_to(&self, base: &ChannelPolicy) -> ChannelPolicy {
        ChannelPolicy {
            loss_probability: self.loss.max(base.loss_probability),
            duplication_probability: self.duplication.max(base.duplication_probability),
            max_delay_rounds: base.max_delay_rounds + self.extra_delay,
            ..base.clone()
        }
    }
}

/// A schedule of channel-behaviour spikes: windows of rounds during which
/// every link loses, duplicates and delays packets more aggressively than
/// its base policy. Spikes start and end at round boundaries, so scenario
/// executions remain byte-identical for the same seed.
///
/// Overlapping windows compose: at any round, the network runs the base
/// policy spiked by *every* window covering that round (element-wise worst
/// case), so a short spike inside a longer one never truncates the longer
/// window on its way out.
#[derive(Debug, Clone, Default)]
pub struct SpikePlan {
    /// Half-open windows `[start, end)` with their specs.
    pub(crate) windows: Vec<(Round, Round, SpikeSpec)>,
    /// Every window start and end: the rounds at which the composed policy
    /// may change.
    boundaries: BTreeSet<Round>,
}

impl SpikePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `spec` to hold from `round` for `duration` rounds (builder
    /// style). Windows may overlap; the covering specs compose.
    pub fn spike_at(mut self, round: Round, duration: u64, spec: SpikeSpec) -> Self {
        self.windows.push((round, round + duration, spec));
        self.boundaries.insert(round);
        self.boundaries.insert(round + duration);
        self
    }

    /// Total number of scheduled spike windows.
    pub fn total(&self) -> usize {
        self.windows.len()
    }

    /// The last round at which this plan changes the policy (including the
    /// final restore).
    pub fn last_round(&self) -> Option<Round> {
        self.boundaries.iter().next_back().copied()
    }

    /// The policy change due at exactly `round`, if any: `Some(policy)`
    /// means "switch the network to `policy` now". The policy is `base`
    /// spiked by the element-wise worst case of every window covering
    /// `round` (the covering specs are combined first, then applied once,
    /// so overlapping delays take the maximum rather than summing).
    pub fn due(&self, round: Round, base: &ChannelPolicy) -> Option<ChannelPolicy> {
        if !self.boundaries.contains(&round) {
            return None;
        }
        let combined = self
            .windows
            .iter()
            .filter(|(start, end, _)| *start <= round && round < *end)
            .fold(None::<SpikeSpec>, |acc, (_, _, spec)| {
                Some(match acc {
                    None => *spec,
                    Some(a) => SpikeSpec {
                        loss: a.loss.max(spec.loss),
                        duplication: a.duplication.max(spec.duplication),
                        extra_delay: a.extra_delay.max(spec.extra_delay),
                    },
                })
            });
        Some(match combined {
            None => base.clone(),
            Some(spec) => spec.apply_to(base),
        })
    }
}

/// A schedule of *gray failures*: windows of rounds during which a set of
/// processors runs slow — their timer period is multiplied far beyond the
/// common rate — without being dead. Gray failures are the asymmetric
/// middle ground crash detectors are worst at: the slow processor still
/// emits (occasional) heartbeats, still answers (late), and must neither be
/// permanently expelled nor allowed to wedge the system.
///
/// Overlapping windows compose element-wise like [`SpikePlan`] windows: at
/// any boundary round every mentioned victim is set to the *slowest* period
/// of the windows covering that round, or restored when none covers it.
/// Zero-length windows therefore never leave a stale override behind.
///
/// ```
/// use simnet::{fault::GrayFailurePlan, ProcessId, Round};
/// let plan = GrayFailurePlan::new()
///     .slow_at(Round::new(10), 20, 8, [ProcessId::new(2)]);
/// assert_eq!(plan.total(), 1);
/// assert_eq!(plan.last_round(), Some(Round::new(30)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GrayFailurePlan {
    /// Half-open windows `[start, end)` with their victims and slow period.
    windows: Vec<(Round, Round, Vec<ProcessId>, u64)>,
    /// Every window start and end: the rounds at which overrides change.
    boundaries: BTreeSet<Round>,
}

impl GrayFailurePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `victims` to run at timer period `period` (instead of the
    /// simulation's base period) from `round` for `duration` rounds
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn slow_at(
        mut self,
        round: Round,
        duration: u64,
        period: u64,
        victims: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        assert!(period > 0, "gray-failure timer period must be at least 1");
        self.windows.push((
            round,
            round + duration,
            victims.into_iter().collect(),
            period,
        ));
        self.boundaries.insert(round);
        self.boundaries.insert(round + duration);
        self
    }

    /// Total number of scheduled gray windows.
    pub fn total(&self) -> usize {
        self.windows.len()
    }

    /// The scheduled windows as `(start, end, victims, period)` tuples.
    pub fn windows(&self) -> &[(Round, Round, Vec<ProcessId>, u64)] {
        &self.windows
    }

    /// The last round at which this plan changes a timer period (including
    /// the final restore).
    pub fn last_round(&self) -> Option<Round> {
        self.boundaries.iter().next_back().copied()
    }

    /// The override changes due at exactly `round`: for every victim
    /// mentioned anywhere in the plan, the period it should run at from
    /// this round on (`None` = the base period). Returns `None` when
    /// `round` is not a boundary.
    pub fn due(&self, round: Round) -> Option<BTreeMap<ProcessId, Option<u64>>> {
        if !self.boundaries.contains(&round) {
            return None;
        }
        let mut desired: BTreeMap<ProcessId, Option<u64>> = self
            .windows
            .iter()
            .flat_map(|(_, _, victims, _)| victims.iter().copied())
            .map(|v| (v, None))
            .collect();
        for (start, end, victims, period) in &self.windows {
            if *start <= round && round < *end {
                for v in victims {
                    let slot = desired.entry(*v).or_insert(None);
                    *slot = Some(slot.map_or(*period, |p: u64| p.max(*period)));
                }
            }
        }
        Some(desired)
    }
}

/// A schedule of permanent *clock skew*: from a given round on, a set of
/// processors runs its timer at a different (slower) period than the rest
/// of the system, and never recovers. Relative timer rate is the only
/// notion of clock the asynchronous model has, so skewing one processor's
/// period models drift between local clocks; speeding a processor up is
/// expressed by slowing everyone else down.
///
/// Unlike [`GrayFailurePlan`] there is no restore: the system must reach
/// (and hold) its convergence predicate *with* the skew in force. When the
/// same processor is targeted by both plans, the runner treats the skew as
/// a floor ([`crate::plan::FaultAction::SetTimerFloor`]): a gray window
/// slower than the skew wins while it covers, and a gray restore never
/// wipes the skew.
///
/// ```
/// use simnet::{fault::SkewPlan, ProcessId, Round};
/// let plan = SkewPlan::new().skew_at(Round::new(5), 3, [ProcessId::new(0)]);
/// assert_eq!(plan.total(), 1);
/// assert_eq!(plan.last_round(), Some(Round::new(5)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SkewPlan {
    schedule: BTreeMap<Round, Vec<(ProcessId, u64)>>,
}

impl SkewPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `victims` to run at timer period `period` from `round` on,
    /// permanently (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn skew_at(
        mut self,
        round: Round,
        period: u64,
        victims: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        assert!(period > 0, "skewed timer period must be at least 1");
        self.schedule
            .entry(round)
            .or_default()
            .extend(victims.into_iter().map(|v| (v, period)));
        self
    }

    /// The skews scheduled for exactly `round`.
    pub fn due(&self, round: Round) -> &[(ProcessId, u64)] {
        self.schedule.get(&round).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of scheduled skews.
    pub fn total(&self) -> usize {
        self.schedule.values().map(Vec::len).sum()
    }

    /// Every `(victim, period)` pair the plan ever schedules.
    pub fn all_skews(&self) -> impl Iterator<Item = (Round, ProcessId, u64)> + '_ {
        self.schedule
            .iter()
            .flat_map(|(r, v)| v.iter().map(move |(id, p)| (*r, *id, *p)))
    }

    /// The last round with a scheduled skew.
    pub fn last_round(&self) -> Option<Round> {
        self.schedule.keys().next_back().copied()
    }
}

/// A schedule of in-flight payload corruption: at given rounds, the
/// contents of every packet currently travelling towards the victims are
/// corrupted through [`crate::Network::corrupt_inbound_payloads`]. The packets
/// themselves survive — corruption never creates or destroys packets, per
/// the paper's channel model — but their payloads are shuffled across the
/// victim's inbound channels (so a packet arrives attributed to the wrong
/// sender) and then offered to a protocol-specific mutator
/// ([`crate::scenario::ScenarioTarget::corrupt_payload`]).
///
/// All mutation draws from the adversary's random stream at a round
/// boundary, so executions stay byte-identical for the same seed.
///
/// ```
/// use simnet::{fault::PayloadCorruptionPlan, ProcessId, Round};
/// let plan = PayloadCorruptionPlan::new()
///     .corrupt_inbound_at(Round::new(7), [ProcessId::new(1)]);
/// assert_eq!(plan.total(), 1);
/// assert_eq!(plan.last_round(), Some(Round::new(7)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PayloadCorruptionPlan {
    pub(crate) schedule: BTreeMap<Round, Vec<ProcessId>>,
}

impl PayloadCorruptionPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the packets in flight towards `victims` to be corrupted at
    /// `round` (builder style).
    pub fn corrupt_inbound_at(
        mut self,
        round: Round,
        victims: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        self.schedule.entry(round).or_default().extend(victims);
        self
    }

    /// The victims scheduled for exactly `round`.
    pub fn due(&self, round: Round) -> &[ProcessId] {
        self.schedule.get(&round).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of scheduled corruption events.
    pub fn total(&self) -> usize {
        self.schedule.values().map(Vec::len).sum()
    }

    /// The last round with a scheduled corruption.
    pub fn last_round(&self) -> Option<Round> {
        self.schedule.keys().next_back().copied()
    }
}

/// A schedule of crash–recovery events: processors crash and later rejoin
/// the system *under fresh identifiers*, exactly as the paper prescribes
/// (identifiers are never reused; a recovering processor re-enters through
/// the joining mechanism like any newcomer, forcing labeler rebuilds and
/// configuration replacement instead of silent state resurrection).
///
/// ```
/// use simnet::{fault::RecoveryPlan, ProcessId, Round};
/// let plan = RecoveryPlan::new()
///     .crash_recover_at(Round::new(10), [ProcessId::new(3)], 15);
/// assert_eq!(plan.total(), 1);
/// assert_eq!(plan.crashes_due(Round::new(10)).len(), 1);
/// assert_eq!(plan.rejoins_due(Round::new(25)), 1);
/// assert_eq!(plan.last_round(), Some(Round::new(25)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecoveryPlan {
    pub(crate) crashes: BTreeMap<Round, Vec<ProcessId>>,
    pub(crate) rejoins: BTreeMap<Round, u32>,
}

impl RecoveryPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `victims` to crash at `round` and to rejoin — one fresh
    /// identifier per victim — `downtime` rounds later (builder style).
    pub fn crash_recover_at(
        mut self,
        round: Round,
        victims: impl IntoIterator<Item = ProcessId>,
        downtime: u64,
    ) -> Self {
        let victims: Vec<ProcessId> = victims.into_iter().collect();
        *self.rejoins.entry(round + downtime).or_insert(0) += victims.len() as u32;
        self.crashes.entry(round).or_default().extend(victims);
        self
    }

    /// The crash victims scheduled for exactly `round`.
    pub fn crashes_due(&self, round: Round) -> &[ProcessId] {
        self.crashes.get(&round).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of fresh-identifier rejoins due at exactly `round`.
    pub fn rejoins_due(&self, round: Round) -> u32 {
        self.rejoins.get(&round).copied().unwrap_or(0)
    }

    /// Total number of scheduled crash–recovery events (victims).
    pub fn total(&self) -> usize {
        self.crashes.values().map(Vec::len).sum()
    }

    /// Every processor the plan ever crashes.
    pub fn all_victims(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.crashes.values().flatten().copied()
    }

    /// The last round with a scheduled crash or rejoin.
    pub fn last_round(&self) -> Option<Round> {
        let last_crash = self.crashes.keys().next_back().copied();
        let last_rejoin = self.rejoins.keys().next_back().copied();
        last_crash.max(last_rejoin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerMode;
    use crate::scenario::{run_scenario, Scenario, ScenarioRun, ScenarioRunner};
    use crate::scheduler::Simulation;
    use crate::testutil::MaxNode;

    /// Runs `scenario` over the toy target, returning the run and the
    /// simulation it left behind.
    fn run(scenario: &Scenario) -> (ScenarioRun, Simulation<MaxNode>) {
        let mut sim = scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven);
        let run = run_scenario(scenario, &mut sim);
        (run, sim)
    }

    #[test]
    fn crash_plan_applies_at_scheduled_round() {
        let plan = CrashPlan::new()
            .crash_at(Round::new(2), ProcessId::new(0))
            .crash_all_at(Round::new(3), [ProcessId::new(1), ProcessId::new(2)]);
        assert_eq!(plan.total(), 3);
        let (run, sim) = run(&Scenario::new("crash", 4).with_plan(plan).with_rounds(5));
        assert_eq!(run.counter("crashes"), 3);
        assert_eq!(sim.active_ids(), vec![ProcessId::new(3)]);
    }

    #[test]
    fn churn_plan_adds_processes() {
        let plan = ChurnPlan::new()
            .join_at(Round::new(1), 2)
            .join_at(Round::new(3), 1);
        assert_eq!(plan.total(), 3);
        let (run, sim) = run(&Scenario::new("churn", 1).with_plan(plan).with_rounds(5));
        assert_eq!(run.counter("joins"), 3);
        assert_eq!(sim.ids().len(), 4);
    }

    #[test]
    fn corruption_plan_mutates_scheduled_victims_only() {
        let plan = CorruptionPlan::new().corrupt_at(
            Round::new(1),
            [ProcessId::new(0), ProcessId::new(2), ProcessId::new(9)],
        );
        assert_eq!(plan.total(), 3);
        assert_eq!(plan.last_round(), Some(Round::new(1)));
        // p2 crashes in the same round, before corruption lands.
        let scenario = Scenario::new("corrupt", 3)
            .crash_at(Round::new(1), [ProcessId::new(2)])
            .with_plan(plan)
            .with_rounds(5);
        let (run, _) = run(&scenario);
        // The crashed and the unknown victim are skipped.
        assert_eq!(run.counter("corruptions"), 1);
    }

    #[test]
    fn spike_plan_switches_and_restores_the_policy() {
        let base = ChannelPolicy::default();
        let plan = SpikePlan::new().spike_at(
            Round::new(5),
            10,
            SpikeSpec {
                loss: 0.4,
                duplication: 0.2,
                extra_delay: 3,
            },
        );
        assert_eq!(plan.total(), 1);
        assert_eq!(plan.last_round(), Some(Round::new(15)));
        assert!(plan.due(Round::new(4), &base).is_none());
        let spiked = plan.due(Round::new(5), &base).unwrap();
        assert_eq!(spiked.loss_probability, 0.4);
        assert_eq!(spiked.duplication_probability, 0.2);
        assert_eq!(spiked.max_delay_rounds, base.max_delay_rounds + 3);
        let restored = plan.due(Round::new(15), &base).unwrap();
        assert_eq!(restored, base);
    }

    #[test]
    fn back_to_back_spikes_do_not_restore_early() {
        let base = ChannelPolicy::default();
        let first = SpikeSpec {
            loss: 0.5,
            duplication: 0.0,
            extra_delay: 0,
        };
        let second = SpikeSpec {
            loss: 0.1,
            duplication: 0.0,
            extra_delay: 0,
        };
        let plan =
            SpikePlan::new()
                .spike_at(Round::new(0), 5, first)
                .spike_at(Round::new(5), 5, second);
        // The restore of the first spike coincides with the start of the
        // second: the second spike wins.
        let at_five = plan.due(Round::new(5), &base).unwrap();
        assert_eq!(at_five.loss_probability, 0.1);
        assert_eq!(plan.due(Round::new(10), &base).unwrap(), base);
    }

    #[test]
    fn gray_failure_plan_slows_and_restores() {
        let victim = ProcessId::new(1);
        let plan = GrayFailurePlan::new().slow_at(Round::new(2), 6, 4, [victim]);
        assert_eq!(plan.total(), 1);
        assert_eq!(plan.last_round(), Some(Round::new(8)));
        // The workload window keeps the run going for all 12 rounds.
        let scenario = Scenario::new("gray", 3)
            .with_plan(plan)
            .with_rounds(12)
            .with_workload_until(12);
        let (run, sim) = run(&scenario);
        assert_eq!(run.counter("slowdowns"), 1);
        // Override cleared at the window's end.
        assert_eq!(sim.timer_period_override(victim), None);
        // Steps: rounds 0,1 at period 1, round 2 fires then period 4 → 6,
        // restore at 8 pulls the timer forward, then 8..11 at period 1.
        assert_eq!(sim.timer_steps_of(victim), Some(2 + 2 + 4));
        assert_eq!(sim.timer_steps_of(ProcessId::new(0)), Some(12));
    }

    #[test]
    fn gray_windows_compose_and_zero_length_windows_leave_no_override() {
        let v = ProcessId::new(0);
        // Overlap: the slower (larger) period wins while both windows cover.
        let plan = GrayFailurePlan::new()
            .slow_at(Round::new(0), 10, 3, [v])
            .slow_at(Round::new(5), 10, 8, [v]);
        assert_eq!(plan.due(Round::new(0)).unwrap()[&v], Some(3));
        assert_eq!(plan.due(Round::new(5)).unwrap()[&v], Some(8));
        assert_eq!(plan.due(Round::new(10)).unwrap()[&v], Some(8));
        assert_eq!(plan.due(Round::new(15)).unwrap()[&v], None);
        assert!(plan.due(Round::new(7)).is_none(), "not a boundary");
        // A zero-length window is a boundary but covers nothing.
        let degenerate = GrayFailurePlan::new().slow_at(Round::new(4), 0, 9, [v]);
        assert_eq!(degenerate.due(Round::new(4)).unwrap()[&v], None);
    }

    #[test]
    fn adjacent_gray_windows_keep_the_victim_slowed_across_the_seam() {
        let v = ProcessId::new(0);
        let plan = GrayFailurePlan::new()
            .slow_at(Round::new(0), 5, 6, [v])
            .slow_at(Round::new(5), 5, 6, [v]);
        // At the seam the second window covers: no restore in between.
        assert_eq!(plan.due(Round::new(5)).unwrap()[&v], Some(6));
        assert_eq!(plan.due(Round::new(10)).unwrap()[&v], None);
    }

    #[test]
    fn skew_plan_is_permanent() {
        let victim = ProcessId::new(1);
        let plan = SkewPlan::new().skew_at(Round::new(3), 5, [victim]);
        assert_eq!(plan.total(), 1);
        assert_eq!(plan.all_skews().count(), 1);
        let scenario = Scenario::new("skew", 2)
            .with_plan(plan)
            .with_rounds(20)
            .with_workload_until(20);
        let (run, sim) = run(&scenario);
        assert_eq!(run.counter("slowdowns"), 1);
        assert_eq!(sim.timer_period_override(victim), Some(5));
        // Steps 0,1,2,3 at period 1, then rounds 8, 13, 18.
        assert_eq!(sim.timer_steps_of(victim), Some(4 + 3));
        assert_eq!(sim.timer_steps_of(ProcessId::new(0)), Some(20));
    }

    /// Payload corruption touches exactly the packets in flight towards
    /// the victim, and never creates or destroys one: the runner's packet
    /// conservation check stays silent. The victim crashes first, so
    /// nothing drains its inbound channels.
    #[test]
    fn payload_corruption_mutates_in_flight_packets_only() {
        let victim = ProcessId::new(2);
        let plan = PayloadCorruptionPlan::new().corrupt_inbound_at(Round::ZERO, [victim]);
        assert_eq!(plan.total(), 1);
        let scenario = Scenario::new("wire", 3)
            .crash_at(Round::ZERO, [victim])
            .with_plan(plan)
            .with_rounds(5);
        let mut sim = scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven);
        sim.network_mut().inject(ProcessId::new(0), victim, 10);
        sim.network_mut().inject(ProcessId::new(1), victim, 20);
        let run = run_scenario(&scenario, &mut sim);
        assert_eq!(run.counter("payload_corruptions"), 2);
        assert!(run.invariant_violations.is_empty(), "{run:?}");
    }

    /// The runner's misattribution permutation moves payload *values*
    /// between the victim's inbound channels — not just references in a
    /// temporary list. The victim crashes first, so nothing drains its
    /// inbound channels and the packets injected before the run are the
    /// oldest on each link.
    #[test]
    fn payload_corruption_permutes_values_across_channels() {
        let victim = ProcessId::new(2);
        let scenario = Scenario::new("wire", 3)
            .crash_at(Round::ZERO, [victim])
            .corrupt_payloads_at(Round::ZERO, [victim])
            .with_rounds(5);
        let (mut swapped, mut kept) = (0, 0);
        for seed in 0..16 {
            let mut sim = scenario.build_sim::<MaxNode>(seed, SchedulerMode::EventDriven);
            sim.network_mut().inject(ProcessId::new(0), victim, 10);
            sim.network_mut().inject(ProcessId::new(1), victim, 20);
            let mut runner = ScenarioRunner::new(&scenario, sim);
            runner.advance_to(Round::new(1));
            let via_p0 = *runner
                .sim()
                .network()
                .channel(ProcessId::new(0), victim)
                .unwrap()
                .in_flight()
                .next()
                .unwrap()
                .msg();
            match via_p0 {
                20 => swapped += 1,
                10 => kept += 1,
                // `MaxNode::corrupt_payload` rewrote the value.
                300..=400 => {}
                other => panic!("payload corrupted out of thin air: {other}"),
            }
        }
        // A two-element permutation swaps about half the time: both
        // outcomes must occur, or the shuffle is not touching the channels.
        assert!(swapped > 0, "values never moved between channels");
        assert!(kept > 0, "values always moved — not a permutation draw");
    }

    #[test]
    fn recovery_plan_crashes_then_rejoins_under_fresh_identifiers() {
        let plan = RecoveryPlan::new().crash_recover_at(
            Round::new(1),
            [ProcessId::new(2), ProcessId::new(3)],
            3,
        );
        assert_eq!(plan.total(), 2);
        assert_eq!(plan.all_victims().count(), 2);
        assert_eq!(plan.last_round(), Some(Round::new(4)));
        let (run, sim) = run(&Scenario::new("recover", 4).with_plan(plan).with_rounds(6));
        assert_eq!(run.counter("crashes"), 2);
        assert_eq!(run.counter("recoveries"), 2);
        // The fresh identifiers continue the sequence; the victims stay dead.
        assert!(!sim.is_active(ProcessId::new(2)));
        assert!(!sim.is_active(ProcessId::new(3)));
        assert!(sim.is_active(ProcessId::new(4)));
        assert!(sim.is_active(ProcessId::new(5)));
    }

    #[test]
    fn empty_plans_are_noops() {
        let scenario = Scenario::new("empty", 1)
            .with_plan(CrashPlan::new())
            .with_plan(ChurnPlan::new())
            .with_rounds(3);
        let (_, sim) = run(&scenario);
        assert_eq!(sim.ids().len(), 1);
        assert!(sim.is_active(ProcessId::new(0)));
    }
}

/// Window-composition properties shared by [`SpikePlan`] and
/// [`GrayFailurePlan`]: replaying the boundary-triggered `due` changes
/// round by round must reproduce, at *every* round, the value computed
/// directly from the covering windows — across overlapping, adjacent and
/// zero-length windows.
#[cfg(test)]
mod window_proptests {
    use super::*;
    use proptest::prelude::*;

    /// The ground truth: `base` spiked by the element-wise worst case of
    /// every window covering `round`.
    fn spiked_directly(
        windows: &[(u64, u64, SpikeSpec)],
        round: u64,
        base: &ChannelPolicy,
    ) -> ChannelPolicy {
        let mut policy = base.clone();
        let mut covered = false;
        let mut worst = SpikeSpec {
            loss: 0.0,
            duplication: 0.0,
            extra_delay: 0,
        };
        for (start, duration, spec) in windows {
            if *start <= round && round < start + duration {
                covered = true;
                worst.loss = worst.loss.max(spec.loss);
                worst.duplication = worst.duplication.max(spec.duplication);
                worst.extra_delay = worst.extra_delay.max(spec.extra_delay);
            }
        }
        if covered {
            policy = worst.apply_to(base);
        }
        policy
    }

    proptest! {
        /// Arbitrary spike windows — overlapping, adjacent, zero-length —
        /// compose to the element-wise worst case at every round, and the
        /// base policy is restored exactly when no window covers.
        #[test]
        fn spike_windows_compose_to_the_covering_worst_case(
            raw in proptest::collection::vec(
                (0u64..30, 0u64..12, (0u8..5, 0u8..4, 0u64..5)),
                1..6,
            ),
        ) {
            let windows: Vec<(u64, u64, SpikeSpec)> = raw
                .into_iter()
                .map(|(start, duration, (loss, dup, delay))| {
                    (
                        start,
                        duration,
                        SpikeSpec {
                            loss: f64::from(loss) * 0.1,
                            duplication: f64::from(dup) * 0.05,
                            extra_delay: delay,
                        },
                    )
                })
                .collect();
            let base = ChannelPolicy::default();
            let mut plan = SpikePlan::new();
            for (start, duration, spec) in &windows {
                plan = plan.spike_at(Round::new(*start), *duration, *spec);
            }
            // Replay: the policy in force changes only at boundaries.
            let mut in_force = base.clone();
            for round in 0..=45u64 {
                if let Some(next) = plan.due(Round::new(round), &base) {
                    in_force = next;
                }
                let expected = spiked_directly(&windows, round, &base);
                prop_assert_eq!(
                    &in_force, &expected,
                    "round {}: composed policy diverges from covering windows", round
                );
            }
            // Past every window the base policy is back in force.
            prop_assert_eq!(&in_force, &base);
        }

        /// Arbitrary gray-failure windows leave every victim at the slowest
        /// covering period at every round, and no override survives past
        /// its last window (zero-length windows leave none at all).
        #[test]
        fn gray_windows_compose_to_the_slowest_covering_period(
            windows in proptest::collection::vec(
                (0u64..30, 0u64..12, 1u64..10, 0u32..3),
                1..6,
            ),
        ) {
            let mut plan = GrayFailurePlan::new();
            for (start, duration, period, victim) in &windows {
                plan = plan.slow_at(
                    Round::new(*start),
                    *duration,
                    *period,
                    [ProcessId::new(*victim)],
                );
            }
            // Replay: overrides change only at boundaries.
            let mut in_force: BTreeMap<ProcessId, Option<u64>> = BTreeMap::new();
            for round in 0..=45u64 {
                if let Some(desired) = plan.due(Round::new(round)) {
                    in_force.extend(desired);
                }
                for victim in 0u32..3 {
                    let expected = windows
                        .iter()
                        .filter(|(s, d, _, v)| {
                            *v == victim && *s <= round && round < s + d
                        })
                        .map(|(_, _, p, _)| *p)
                        .max();
                    prop_assert_eq!(
                        in_force.get(&ProcessId::new(victim)).copied().flatten(),
                        expected,
                        "round {}, victim {}: override diverges from covering windows",
                        round,
                        victim
                    );
                }
            }
        }
    }
}
