//! The temporal layer of the chaos campaigns: *eventually-stays-converged*
//! probing and linearizability checking over recorded operation histories.
//!
//! PR-2's campaigns verified `eventually-converges`; an armed run
//! (`Scenario::with_history`) must also verify the *stays* part — a run
//! that converges and then falls out of convergence inside the probe
//! window is a failure, not a success that happened to be sampled early.
//! These tests drive the probe with a white-box fault plan that corrupts
//! state *after* convergence (which no built-in plan schedules, because
//! `CorruptionPlan::last_round` defers convergence counting past it), and
//! pin the armed/unarmed report contract: unarmed runs carry none of the
//! history counters and stop at first convergence exactly as before.

use selfstab_reconfig::counting::CounterNode;
use selfstab_reconfig::reconfiguration::ReconfigNode;
use selfstab_reconfig::replication::SmrNode;
use selfstab_reconfig::shared_memory::SharedMemNode;
use selfstab_reconfig::sim::scenario::{run_scenario, ScenarioTarget};
use selfstab_reconfig::sim::{
    Arrival, Campaign, FaultAction, FaultPlan, HistoryCfg, LoadProfile, PlanCtx, ProcessId, Round,
    Scenario, ScenarioRun, SchedulerMode, Simulation,
};

/// A fault plan that corrupts the given victims at one round but reports
/// `last_round() == None`, so the runner counts convergence *before* the
/// corruption lands. Built-in plans deliberately defer convergence past
/// their last action; the stays-converged probe needs the opposite — a
/// fault landing inside the probe window, after convergence was recorded.
#[derive(Debug, Clone)]
struct LateCorruption {
    round: Round,
    victims: Vec<ProcessId>,
}

impl FaultPlan for LateCorruption {
    fn kind(&self) -> &'static str {
        "late-corruption"
    }

    fn schedule(&self, round: Round, _ctx: &PlanCtx) -> Vec<FaultAction> {
        if round != self.round {
            return Vec::new();
        }
        self.victims
            .iter()
            .copied()
            .map(FaultAction::CorruptState)
            .collect()
    }

    /// `None` on purpose: the runner must *not* wait this plan out before
    /// counting convergence — the corruption is meant to land inside the
    /// stays-converged probe window.
    fn last_round(&self) -> Option<Round> {
        None
    }

    fn events(&self) -> usize {
        self.victims.len()
    }

    fn counter_keys(&self) -> Vec<&'static str> {
        vec!["corruptions"]
    }
}

/// A reconfiguration scenario that converges early and is then corrupted
/// at round 450 — far inside the 600-round probe window. The victim is the
/// recSA/recMA stack because its recovery from conflicting configurations
/// takes many rounds (conflict resolution, possibly the brute-force
/// reset), so the per-round probe is guaranteed to observe the
/// unconverged window; the counter's `max`-merge gossip can repair an
/// erased maximum within a single round on a healthy 4-clique, which the
/// probe may never see.
fn late_corruption_scenario(n: usize) -> Scenario {
    Scenario::new("late-corruption", n)
        .describe("state corruption after convergence, inside the probe window")
        .with_workload_until(40)
        .with_rounds(900)
        .with_plan(LateCorruption {
            round: Round::new(450),
            victims: (0..n as u32).map(ProcessId::new).collect(),
        })
        .with_history_cfg(HistoryCfg {
            probe_rounds: 600,
            ..HistoryCfg::default()
        })
}

fn run<T: ScenarioTarget>(scenario: &Scenario, seed: u64) -> ScenarioRun {
    let mut sim: Simulation<T> = scenario.build_sim(seed, SchedulerMode::EventDriven);
    run_scenario(scenario, &mut sim)
}

/// The stability satellite: corrupting state *after* convergence must trip
/// `stability_violations` (with the `stability:` witness naming the first
/// unstable round), byte-identically on a rerun.
#[test]
fn late_corruption_trips_stability_violations_reproducibly() {
    let scenario = late_corruption_scenario(4);
    for seed in [1u64, 2] {
        let event = run::<ReconfigNode>(&scenario, seed);
        assert_eq!(
            event,
            run::<ReconfigNode>(&scenario, seed),
            "runs diverged on a rerun (seed {seed})"
        );
        assert_eq!(
            event.counter("corruptions"),
            4,
            "the late plan fired (seed {seed})"
        );
        assert!(
            event.counter("stability_violations") >= 1,
            "post-convergence corruption must break stays-converged (seed {seed}): {:?}",
            event.counters
        );
        assert!(
            event
                .invariant_violations
                .iter()
                .any(|v| v.starts_with("stability:")),
            "the probe reports a witness (seed {seed}): {:?}",
            event.invariant_violations
        );
    }
}

/// The same cell through the campaign driver is byte-identical across
/// jobs ∈ {1, 4}: the parallel driver may not perturb armed runs.
#[test]
fn late_corruption_campaign_reports_are_identical_across_jobs() {
    let scenarios = [late_corruption_scenario(4)];
    let render = |jobs: usize| {
        Campaign::new("stability-probe")
            .with_seeds([1u64, 2])
            .with_jobs(jobs)
            .run::<ReconfigNode>(&scenarios)
            .render()
    };
    assert_eq!(render(1), render(4), "campaign report depends on job count");
}

/// Arming a quiescent run changes its *report*, not its behaviour: the
/// armed `converged_round` equals the unarmed `rounds_to_convergence`, the
/// probe window stays clean, and the full catalog of history counters is
/// present (zero included).
#[test]
fn armed_quiescent_run_matches_unarmed_convergence_and_stays_stable() {
    let base = Scenario::new("quiescent", 4)
        .with_workload_until(40)
        .with_rounds(900);
    let unarmed = run::<CounterNode>(&base, 1);
    let armed = run::<CounterNode>(&base.clone().with_history(), 1);
    let converged_at = unarmed
        .rounds_to_convergence
        .expect("quiescent run converges");
    assert_eq!(armed.counter("converged_round"), converged_at);
    assert_eq!(armed.counter("stability_violations"), 0);
    assert_eq!(armed.counter("lin_result"), 0);
    for key in [
        "converged_round",
        "stability_violations",
        "lin_ops_checked",
        "lin_result",
    ] {
        assert!(
            armed.counters.contains_key(key),
            "armed run publishes `{key}`"
        );
    }
}

/// Unarmed runs are untouched: none of the history counters appear in the
/// report (its shape is exactly the pre-history one).
#[test]
fn unarmed_runs_carry_no_history_counters() {
    let base = Scenario::new("quiescent", 4)
        .with_workload_until(40)
        .with_rounds(900);
    let unarmed = run::<CounterNode>(&base, 1);
    for key in [
        "converged_round",
        "stability_violations",
        "lin_ops_checked",
        "lin_result",
    ] {
        assert!(
            !unarmed.counters.contains_key(key),
            "unarmed report must not grow a `{key}` column: {:?}",
            unarmed.counters
        );
    }
}

/// An armed fault-free cell under open-loop load linearizes on both
/// checked services: the MWMR register emulation (read/write histories
/// against the atomic-register spec) and the counter (increment histories
/// against the monotone-token spec).
#[test]
fn armed_loaded_runs_linearize_on_both_services() {
    let loaded = |name: &str| {
        Scenario::new(name, 4)
            .with_workload_until(60)
            .with_rounds(900)
            .with_load(
                LoadProfile::new(20, Arrival::parse("poisson:1").unwrap()).with_op_timeout(300),
            )
            .with_history()
    };
    let counter = run::<CounterNode>(&loaded("counter-load"), 1);
    assert!(
        counter.counter("lin_ops_checked") > 0,
        "{:?}",
        counter.counters
    );
    assert_eq!(
        counter.counter("lin_result"),
        0,
        "{:?}",
        counter.invariant_violations
    );
    let register = run::<SharedMemNode>(&loaded("sharedmem-load"), 1);
    assert!(
        register.counter("lin_ops_checked") > 0,
        "{:?}",
        register.counters
    );
    assert_eq!(
        register.counter("lin_result"),
        0,
        "{:?}",
        register.invariant_violations
    );
}

/// `smr/clock-skew`, n = 4, seed 1, armed exactly as `simctl run
/// --check-histories` arms it. The skewed replicas broadcast their snapshot
/// only every few rounds, and the coordinator used to apply the input of
/// such a snapshot once per coordinator step until the next one arrived:
/// the replicas' `applied` counts drifted apart one round after the cell
/// first converged, and the stays-converged probe failed the cell.
#[test]
fn smr_clock_skew_stays_converged_with_checked_histories() {
    let scenario = selfstab_reconfig::sim::scenario::find("clock-skew", 4)
        .expect("the catalog has `clock-skew`")
        .with_load(LoadProfile::new(200, Arrival::Poisson { rate: 1.0 }).with_op_timeout(300))
        .with_history();
    let run = run::<SmrNode>(&scenario, 1);
    assert!(run.converged, "{:?}", run.counters);
    assert_eq!(
        run.counter("stability_violations"),
        0,
        "{:?}",
        run.invariant_violations
    );
    assert!(
        run.invariant_violations.is_empty(),
        "{:?}",
        run.invariant_violations
    );
}
