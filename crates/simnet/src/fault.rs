//! Fault windows: the channel-behaviour spikes and timer faults of a
//! schedule compose over time.
//!
//! Self-stabilization is about recovery from *transient faults* — an
//! arbitrary starting state — combined with ordinary crash failures and
//! churn. Most faults of a [`crate::plan::Fault`] schedule act at one round;
//! [`crate::plan::Fault::Spike`] and [`crate::plan::Fault::Gray`] windows
//! instead hold for a span of rounds and may overlap, and a
//! [`crate::plan::Fault::Skew`] is a timer window that never ends. At any
//! round the network runs the base policy spiked by *every* window covering
//! that round (element-wise worst case), and every timer victim runs at the
//! slowest period of the gray and skew windows covering it, so a short
//! window inside a longer one never truncates the longer window on its way
//! out, and a gray restore never wipes a skew. The functions here compute
//! that composition over the whole schedule at each window start and end;
//! everything happens at round boundaries, so scenario executions stay
//! byte-identical for the same seed.

use std::collections::BTreeMap;

use crate::channel::ChannelPolicy;
use crate::plan::Fault;
use crate::process::ProcessId;
use crate::time::Round;

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

/// The timer windows of `faults`, with their victims and period: each
/// `Fault::Gray` covers `[start, end)`, each `Fault::Skew` covers every
/// round from its start on (`None` = no end).
fn timer_windows(
    faults: &[Fault],
) -> impl Iterator<Item = (Round, Option<Round>, &[ProcessId], u64)> {
    faults.iter().filter_map(|fault| match fault {
        Fault::Gray {
            round,
            period,
            victims,
            ..
        } => Some((
            *round,
            Some(fault.last_round()),
            victims.as_slice(),
            *period,
        )),
        Fault::Skew {
            round,
            period,
            victims,
        } => Some((*round, None, victims.as_slice(), *period)),
        _ => None,
    })
}

/// The policy change `faults`' spike windows make at exactly `round`, if
/// any: at a window's start or end the network switches to `base` spiked by
/// the element-wise worst case of every window covering `round` (the
/// covering specs are combined first, then applied once, so overlapping
/// delays take the maximum rather than summing), or back to `base` when
/// none covers it. `None` when `round` starts or ends no window.
pub(crate) fn spike_policy_at(
    faults: &[Fault],
    round: Round,
    base: &ChannelPolicy,
) -> Option<ChannelPolicy> {
    let windows = || {
        faults.iter().filter_map(|fault| match fault {
            Fault::Spike {
                round: start, spec, ..
            } => Some((*start, fault.last_round(), spec)),
            _ => None,
        })
    };
    if !windows().any(|(start, end, _)| start == round || end == round) {
        return None;
    }
    let combined = windows()
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

/// The timer periods `faults`' gray and skew windows set at exactly
/// `round`, if it starts or ends a window: for every victim of any timer
/// window, the slowest period of the windows covering `round` (`None` = the
/// base period). Zero-length windows therefore never leave a stale override
/// behind, and a skew, which covers every round from its start on, is a
/// floor under every gray window. `None` when `round` starts or ends no
/// window.
pub(crate) fn timer_periods_at(
    faults: &[Fault],
    round: Round,
) -> Option<BTreeMap<ProcessId, Option<u64>>> {
    if !timer_windows(faults).any(|(start, end, _, _)| start == round || end == Some(round)) {
        return None;
    }
    let mut desired: BTreeMap<ProcessId, Option<u64>> = timer_windows(faults)
        .flat_map(|(_, _, victims, _)| victims.iter().map(|v| (*v, None)))
        .collect();
    for (start, end, victims, period) in timer_windows(faults) {
        if start <= round && end.map_or(true, |end| round < end) {
            for v in victims {
                let slot = desired.entry(*v).or_insert(None);
                *slot = Some(slot.map_or(period, |p: u64| p.max(period)));
            }
        }
    }
    Some(desired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerMode;
    use crate::scenario::{run_scenario, Scenario, ScenarioRun, ScenarioRunner};
    use crate::scheduler::Simulation;
    use crate::testutil::{planned, MaxNode};

    /// Runs `scenario` over the toy target, returning the run and the
    /// simulation it left behind.
    fn run(scenario: &Scenario) -> (ScenarioRun, Simulation<MaxNode>) {
        let mut sim = scenario.build_sim::<MaxNode>(1, SchedulerMode::EventDriven);
        let run = run_scenario(scenario, &mut sim);
        (run, sim)
    }

    fn spike(start: u64, duration: u64, spec: SpikeSpec) -> Fault {
        Fault::Spike {
            round: Round::new(start),
            duration,
            spec,
        }
    }

    fn gray(start: u64, duration: u64, period: u64, victim: ProcessId) -> Fault {
        Fault::Gray {
            round: Round::new(start),
            duration,
            period,
            victims: vec![victim],
        }
    }

    #[test]
    fn crash_plan_applies_at_scheduled_round() {
        let scenario = planned("crash", 4, "crash=2:0 crash=3:1+2").with_rounds(5);
        let (run, sim) = run(&scenario);
        assert_eq!(run.counter("crashes"), 3);
        assert_eq!(sim.active_ids(), vec![ProcessId::new(3)]);
    }

    #[test]
    fn churn_plan_adds_processes() {
        let scenario = planned("churn", 1, "join=1:2 join=3:1").with_rounds(5);
        let (run, sim) = run(&scenario);
        assert_eq!(run.counter("joins"), 3);
        assert_eq!(sim.ids().len(), 4);
    }

    #[test]
    fn corruption_plan_mutates_scheduled_victims_only() {
        // p2 crashes in the same round, before corruption lands.
        let scenario = planned("corrupt", 3, "crash=1:2 corrupt=1:0+2+9").with_rounds(5);
        assert_eq!(scenario.last_fault_round(), Round::new(1));
        let (run, _) = run(&scenario);
        // The crashed and the unknown victim are skipped.
        assert_eq!(run.counter("corruptions"), 1);
    }

    #[test]
    fn spike_plan_switches_and_restores_the_policy() {
        let base = ChannelPolicy::default();
        let faults = [spike(
            5,
            10,
            SpikeSpec {
                loss: 0.4,
                duplication: 0.2,
                extra_delay: 3,
            },
        )];
        assert_eq!(faults[0].last_round(), Round::new(15));
        assert!(spike_policy_at(&faults, Round::new(4), &base).is_none());
        let spiked = spike_policy_at(&faults, Round::new(5), &base).unwrap();
        assert_eq!(spiked.loss_probability, 0.4);
        assert_eq!(spiked.duplication_probability, 0.2);
        assert_eq!(spiked.max_delay_rounds, base.max_delay_rounds + 3);
        let restored = spike_policy_at(&faults, Round::new(15), &base).unwrap();
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
        let faults = [spike(0, 5, first), spike(5, 5, second)];
        // The restore of the first spike coincides with the start of the
        // second: the second spike wins.
        let at_five = spike_policy_at(&faults, Round::new(5), &base).unwrap();
        assert_eq!(at_five.loss_probability, 0.1);
        assert_eq!(
            spike_policy_at(&faults, Round::new(10), &base).unwrap(),
            base
        );
    }

    #[test]
    fn gray_failure_plan_slows_and_restores() {
        let victim = ProcessId::new(1);
        // The workload window keeps the run going for all 12 rounds.
        let scenario = planned("gray", 3, "gray=2+6:4:1")
            .with_rounds(12)
            .with_workload_until(12);
        assert_eq!(scenario.last_fault_round(), Round::new(8));
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
        let faults = [gray(0, 10, 3, v), gray(5, 10, 8, v)];
        let at = |round: u64| timer_periods_at(&faults, Round::new(round));
        assert_eq!(at(0).unwrap()[&v], Some(3));
        assert_eq!(at(5).unwrap()[&v], Some(8));
        assert_eq!(at(10).unwrap()[&v], Some(8));
        assert_eq!(at(15).unwrap()[&v], None);
        assert!(at(7).is_none(), "not a boundary");
        // A zero-length window is a boundary but covers nothing.
        let degenerate = [gray(4, 0, 9, v)];
        assert_eq!(
            timer_periods_at(&degenerate, Round::new(4)).unwrap()[&v],
            None
        );
    }

    #[test]
    fn adjacent_gray_windows_keep_the_victim_slowed_across_the_seam() {
        let v = ProcessId::new(0);
        let faults = [gray(0, 5, 6, v), gray(5, 5, 6, v)];
        // At the seam the second window covers: no restore in between.
        assert_eq!(
            timer_periods_at(&faults, Round::new(5)).unwrap()[&v],
            Some(6)
        );
        assert_eq!(timer_periods_at(&faults, Round::new(10)).unwrap()[&v], None);
    }

    #[test]
    fn skew_plan_is_permanent() {
        let victim = ProcessId::new(1);
        let scenario = planned("skew", 2, "skew=3:5:1")
            .with_rounds(20)
            .with_workload_until(20);
        assert_eq!(scenario.plans().len(), 1);
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
        let scenario = planned("wire", 3, "crash=0:2 payload=0:2").with_rounds(5);
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
        let scenario = planned("wire", 3, "crash=0:2 payload=0:2").with_rounds(5);
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
        let scenario = planned("recover", 4, "recover=1+3:2+3").with_rounds(6);
        assert_eq!(scenario.last_fault_round(), Round::new(4));
        let (run, sim) = run(&scenario);
        assert_eq!(run.counter("crashes"), 2);
        assert_eq!(run.counter("recoveries"), 2);
        // The fresh identifiers continue the sequence; the victims stay dead.
        assert!(!sim.is_active(ProcessId::new(2)));
        assert!(!sim.is_active(ProcessId::new(3)));
        assert!(sim.is_active(ProcessId::new(4)));
        assert!(sim.is_active(ProcessId::new(5)));
    }

    /// Faults with no victim and joins of nobody schedule no action.
    #[test]
    fn empty_plans_are_noops() {
        let scenario = planned("empty", 1, "crash=1: join=1:0").with_rounds(3);
        assert!(scenario.actions_at(Round::new(1)).is_empty());
        let (_, sim) = run(&scenario);
        assert_eq!(sim.ids().len(), 1);
        assert!(sim.is_active(ProcessId::new(0)));
    }
}

/// Window-composition properties of spike and gray windows: replaying the
/// boundary-triggered changes round by round must reproduce, at *every*
/// round, the value computed directly from the covering windows — across
/// overlapping, adjacent and zero-length windows.
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
            let faults: Vec<Fault> = windows
                .iter()
                .map(|(start, duration, spec)| Fault::Spike {
                    round: Round::new(*start),
                    duration: *duration,
                    spec: *spec,
                })
                .collect();
            // Replay: the policy in force changes only at boundaries.
            let mut in_force = base.clone();
            for round in 0..=45u64 {
                if let Some(next) = spike_policy_at(&faults, Round::new(round), &base) {
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
            let faults: Vec<Fault> = windows
                .iter()
                .map(|(start, duration, period, victim)| Fault::Gray {
                    round: Round::new(*start),
                    duration: *duration,
                    period: *period,
                    victims: vec![ProcessId::new(*victim)],
                })
                .collect();
            // Replay: overrides change only at boundaries.
            let mut in_force: BTreeMap<ProcessId, Option<u64>> = BTreeMap::new();
            for round in 0..=45u64 {
                if let Some(desired) = timer_periods_at(&faults, Round::new(round)) {
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
