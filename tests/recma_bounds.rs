//! E3/E4 — Reconfiguration Management (recMA) triggering behaviour.
//!
//! Lemma 3.18 bounds the number of spurious recMA triggerings caused by
//! stale `noMaj`/`needReconf` information; Lemma 3.19 shows a steady
//! configuration stays steady when the majority survives and the prediction
//! function stays quiet; Lemma 3.20 shows that majority loss and a
//! majority-supported prediction function both lead to a reconfiguration;
//! Lemma 3.21 shows each event triggers at most once per participant. E3 and
//! E4 bound triggerings and time the survivors' install; these tests check
//! the prediction function and that a triggering happened at all.

use bench::steady_reconfig_sim;
use reconfig::{config_set, converged_config, EvalPolicy, ReconfigNode};
use simnet::{ProcessId, Simulation};

fn total_triggerings(sim: &Simulation<ReconfigNode>) -> u64 {
    sim.active_ids()
        .iter()
        .map(|id| sim.process(*id).unwrap().recma_triggerings())
        .sum()
}

/// Every node's `N` is 16.
const POPULATION: u32 = 8;

/// Switches every node of `sim` to the prediction function `policy`.
fn with_policy(mut sim: Simulation<ReconfigNode>, policy: EvalPolicy) -> Simulation<ReconfigNode> {
    for id in sim.ids() {
        sim.process_mut(id)
            .expect("the builder added it")
            .set_eval_policy(policy.clone());
    }
    sim
}

/// Lemma 3.19: with a surviving majority and a quiet prediction function, a
/// long fault-free execution contains no triggering at all.
#[test]
fn steady_state_never_triggers() {
    let mut sim = steady_reconfig_sim(5, POPULATION, 301);
    sim.run_rounds(500);
    assert_eq!(total_triggerings(&sim), 0);
    assert_eq!(converged_config(&sim), Some(config_set(0..5)));
}

/// Lemma 3.18: corrupt `noMaj` flags cause at most a bounded number of
/// triggerings, after which the system returns to (and stays in) a steady
/// configuration.
#[test]
fn corrupt_no_majority_flags_cause_bounded_triggerings() {
    let mut sim = steady_reconfig_sim(5, POPULATION, 302);
    // Transient fault: p0 believes every peer reported "no majority".
    {
        let node = sim.process_mut(ProcessId::new(0)).unwrap();
        for peer in 0..5u32 {
            node.recma_mut()
                .corrupt_flags(ProcessId::new(peer), true, false);
        }
    }
    sim.run_rounds(400);
    let after_recovery = total_triggerings(&sim);
    // The paper's bound is O(N²·cap); for this tiny system a handful of
    // triggerings is already generous.
    assert!(
        after_recovery <= 5,
        "corrupt flags caused {after_recovery} triggerings"
    );
    // The system is steady again: no further triggerings accumulate.
    sim.run_rounds(300);
    assert_eq!(total_triggerings(&sim), after_recovery);
    assert!(converged_config(&sim).is_some());
}

/// Lemma 3.18, second source: corrupt `needReconf` flags.
#[test]
fn corrupt_need_reconf_flags_cause_bounded_triggerings() {
    let mut sim = steady_reconfig_sim(4, POPULATION, 303);
    {
        let node = sim.process_mut(ProcessId::new(2)).unwrap();
        for peer in 0..4u32 {
            node.recma_mut()
                .corrupt_flags(ProcessId::new(peer), false, true);
        }
    }
    sim.run_rounds(400);
    let after_recovery = total_triggerings(&sim);
    assert!(
        after_recovery <= 4,
        "corrupt needReconf caused {after_recovery} triggerings"
    );
    sim.run_rounds(300);
    assert_eq!(total_triggerings(&sim), after_recovery);
}

/// Lemma 3.20, case 1: when a majority of the configuration crashes, the
/// survivors trigger a reconfiguration and install a configuration of
/// survivors only.
#[test]
fn majority_collapse_triggers_reconfiguration() {
    let mut sim = steady_reconfig_sim(5, POPULATION, 304);
    for i in 2..5u32 {
        sim.crash(ProcessId::new(i));
    }
    let rounds = sim.run_until(1200, |s| converged_config(s) == Some(config_set(0..2)));
    assert!(
        rounds < 1200,
        "survivors never installed a new configuration"
    );
    assert!(total_triggerings(&sim) >= 1);
}

/// Lemma 3.20, case 2: the prediction function path. A single crash is below
/// the majority threshold, but an eager `evalConf()` asks a majority of the
/// members for a reconfiguration.
#[test]
fn prediction_function_majority_triggers_reconfiguration() {
    let mut sim = with_policy(
        steady_reconfig_sim(4, POPULATION, 305),
        EvalPolicy::MissingFraction { fraction: 0.25 },
    );
    sim.crash(ProcessId::new(3));
    let rounds = sim.run_until(1000, |s| converged_config(s) == Some(config_set(0..3)));
    assert!(
        rounds < 1000,
        "prediction-driven reconfiguration never happened"
    );
    assert!(total_triggerings(&sim) >= 1);
}

/// With `EvalPolicy::Never` and a *minority* crash, the configuration keeps
/// its crashed member: nothing in recMA forces an unnecessary replacement.
#[test]
fn minority_crash_without_prediction_does_not_reconfigure() {
    let mut sim = steady_reconfig_sim(5, POPULATION, 306);
    sim.crash(ProcessId::new(4));
    sim.run_rounds(400);
    assert_eq!(total_triggerings(&sim), 0);
    assert_eq!(converged_config(&sim), Some(config_set(0..5)));
}

/// Lemma 3.21: one event (a majority collapse) causes at most one triggering
/// per surviving participant, not a storm.
#[test]
fn one_event_triggers_at_most_once_per_participant() {
    let mut sim = steady_reconfig_sim(5, POPULATION, 307);
    for i in 3..5u32 {
        sim.crash(ProcessId::new(i));
    }
    // 3 of 5 alive is still a majority; now lose it.
    sim.crash(ProcessId::new(2));
    let rounds = sim.run_until(1200, |s| converged_config(s) == Some(config_set(0..2)));
    assert!(rounds < 1200);
    sim.run_rounds(300);
    for id in sim.active_ids() {
        assert!(
            sim.process(id).unwrap().recma_triggerings() <= 2,
            "participant {id} triggered more than expected"
        );
    }
}

/// A crashed minority plus a prediction threshold that is *not* reached
/// leaves the configuration untouched — the `MissingFraction` policy only
/// fires at its configured fraction.
#[test]
fn prediction_threshold_below_fraction_stays_quiet() {
    // Threshold ½, only ¼ of the members crash.
    let mut sim = with_policy(
        steady_reconfig_sim(4, POPULATION, 308),
        EvalPolicy::MissingFraction { fraction: 0.5 },
    );
    sim.crash(ProcessId::new(0));
    sim.run_rounds(400);
    assert_eq!(total_triggerings(&sim), 0);
    assert_eq!(converged_config(&sim), Some(config_set(0..4)));
}

/// Changing the policy at run time takes effect: after switching from
/// `Never` to an eager fraction, an old crash is finally acted upon.
#[test]
fn runtime_policy_change_takes_effect() {
    let mut sim = steady_reconfig_sim(4, POPULATION, 309);
    sim.crash(ProcessId::new(3));
    sim.run_rounds(300);
    assert_eq!(
        converged_config(&sim),
        Some(config_set(0..4)),
        "Never policy must not react"
    );
    for i in 0..3u32 {
        sim.process_mut(ProcessId::new(i))
            .unwrap()
            .set_eval_policy(EvalPolicy::MissingFraction { fraction: 0.25 });
    }
    let rounds = sim.run_until(1000, |s| converged_config(s) == Some(config_set(0..3)));
    assert!(
        rounds < 1000,
        "policy change never caused the reconfiguration"
    );
}
