//! Property: the incremental state digest is bit-identical to the full
//! recompute, for every node type, after arbitrary fault interleavings.
//!
//! `Simulation::state_digest_with` caches one formatted line per processor
//! and re-formats only the lines of processors that stepped since the last
//! digest. Every report's state digest rests on that cache never serving
//! a stale line — an invalidation path missed by *any* mutation
//! route (timer step, delivery, crash, churn, white-box corruption through
//! `process_mut`, timer overrides, …) would silently freeze part of the
//! digest. This test drives randomly composed fault plans through the real
//! scenario runner against all four protocol stacks and asserts the cached
//! digest equals `digest_lines` over freshly formatted lines. Each run also
//! drives the scheduler's debug-build due-set check under those faults.

use counters::CounterNode;
use proptest::prelude::*;
use reconfig::ReconfigNode;
use sharedmem::SharedMemNode;
use simnet::plan::apply_spec;
use simnet::report::digest_lines;
use simnet::scenario::{run_scenario, Scenario, ScenarioTarget};
use simnet::SchedulerMode;
use vssmr::SmrNode;

/// One raw fault draw: `(kind, round, a, b)`. The kind selects the fault
/// class (modulo the number of classes); `a` and `b` parameterize it —
/// victim index, joiner count, heal delay, slow-down period, downtime —
/// reduced modulo whatever range the class needs, so any draw is valid.
type RawFault = (u32, u64, u32, u64);

/// One drawn fault as `--plan` text. Fault rounds stay inside [5, 40) and
/// deferred effects (heals, rejoins) within ~10 rounds, so a 60-round
/// scenario contains every effect.
fn token(fault: RawFault, n: usize) -> String {
    let (kind, round, a, b) = fault;
    let victim = a % n as u32;
    let later = round + 2 + b % 8;
    match kind % 8 {
        0 => format!("crash={round}:{victim}"),
        1 => format!("join={round}:{}", 1 + a % 2),
        2 => format!("split={round} heal={later}"),
        3 => format!("oneway={round} healoneway={later}"),
        4 => format!("gray={round}+{}:{}:{victim}", 2 + b % 6, 2 + a % 3),
        5 => format!("skew={round}:{}:{victim}", 2 + b % 3),
        6 => format!("recover={round}+{}:{victim}", 2 + b % 6),
        _ => format!("corrupt={round}:{victim}"),
    }
}

/// Runs the scenario on one protocol stack and checks the cached digest
/// against a from-scratch recompute.
fn check_target<T: ScenarioTarget>(scenario: &Scenario, seed: u64) {
    let mut sim = scenario.build_sim::<T>(seed, SchedulerMode::EventDriven);
    let run = run_scenario(scenario, &mut sim);
    let full = digest_lines(sim.processes().map(|(id, p)| T::state_line(id, p)));
    prop_assert_eq!(
        run.state_digest,
        full,
        "incremental digest diverged from the full recompute"
    );
    // A second digest with no intervening activity exercises the pure
    // cache-hit path: every line must come back verbatim.
    prop_assert_eq!(T::state_digest(&sim), full, "warm-cache digest drifted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_digest_matches_full_recompute(
        seed in 1u64..1000,
        n in 4usize..=8,
        faults in proptest::collection::vec(
            (any::<u32>(), 5u64..40, any::<u32>(), any::<u64>()),
            0..6,
        ),
    ) {
        let schedule: Vec<String> = faults.into_iter().map(|fault| token(fault, n)).collect();
        let scenario = apply_spec(Scenario::new("digest-property", n), &schedule.join(" "))
            .unwrap()
            .with_rounds(60);
        check_target::<ReconfigNode>(&scenario, seed);
        check_target::<CounterNode>(&scenario, seed);
        check_target::<SmrNode>(&scenario, seed);
        check_target::<SharedMemNode>(&scenario, seed);
    }
}
