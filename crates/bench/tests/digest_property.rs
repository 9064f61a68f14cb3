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
use simnet::report::digest_lines;
use simnet::scenario::{run_scenario, Scenario, ScenarioTarget};
use simnet::{ProcessId, Round, SchedulerMode};
use vssmr::SmrNode;

/// One raw fault draw: `(kind, round, a, b)`. The kind selects the fault
/// class (modulo the number of classes); `a` and `b` parameterize it —
/// victim index, joiner count, heal delay, slow-down period, downtime —
/// reduced modulo whatever range the class needs, so any draw is valid.
type RawFault = (u32, u64, u32, u64);

/// Composes one drawn fault onto the scenario. Fault rounds stay inside
/// [5, 40) and deferred effects (heals, rejoins) within ~10 rounds, so a
/// 60-round scenario contains every effect.
fn apply(scenario: Scenario, fault: RawFault, n: usize) -> Scenario {
    let (kind, round, a, b) = fault;
    let victim = ProcessId::new(a % n as u32);
    let at = Round::new(round);
    match kind % 8 {
        0 => scenario.crash_at(at, [victim]),
        1 => scenario.join_at(at, 1 + a % 2),
        2 => scenario
            .split_halves_at(at)
            .heal_at(Round::new(round + 2 + b % 8)),
        3 => scenario
            .cut_oneway_halves_at(at)
            .heal_oneway_at(Round::new(round + 2 + b % 8)),
        4 => scenario.slow_at(at, 2 + b % 6, 2 + u64::from(a) % 3, [victim]),
        5 => scenario.skew_at(at, 2 + b % 3, [victim]),
        6 => scenario.crash_recover_at(at, [victim], 2 + b % 6),
        _ => scenario.corrupt_at(at, [victim]),
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
        let mut scenario = Scenario::new("digest-property", n).with_rounds(60);
        for fault in faults {
            scenario = apply(scenario, fault, n);
        }
        check_target::<ReconfigNode>(&scenario, seed);
        check_target::<CounterNode>(&scenario, seed);
        check_target::<SmrNode>(&scenario, seed);
        check_target::<SharedMemNode>(&scenario, seed);
    }
}
