//! The services read the reconfiguration scheme through one glue.
//!
//! `SharedMemNode` and `SmrNode` read recSA only through `ReconfigNode`'s
//! service-facing methods, and each keeps its own definition of
//! "reconfiguring": sharedmem suspends register operations while
//! `config_in_flux()` holds, SMR's counter aborts quorum requests while
//! `noReco()` is false. Sharedmem's doc calls its definition narrower; this
//! file checks that claim in every executed round of every `sharedmem` and
//! `smr` catalog cell at n = 4 and 6, seed 1.
//!
//! It also pins the counter stack's known gap under a loaded majority
//! crash, which the counter composite over `ReconfigNode` (ROADMAP item 25
//! step 2) is to close.

use counters::CounterNode;
use reconfig::ReconfigNode;
use sharedmem::SharedMemNode;
use simnet::plan::apply_spec;
use simnet::scenario::{catalog, run_scenario, Scenario, ScenarioRunner, ScenarioTarget};
use simnet::{Arrival, LoadProfile, SchedulerMode, Simulation};
use vssmr::SmrNode;

/// How often the two definitions were compared and how often they differed.
#[derive(Debug, Default)]
struct Tally {
    /// (round, active participant) pairs compared.
    pairs: u64,
    /// Pairs where `config_in_flux()` held (and so, checked, `!noReco()`).
    in_flux: u64,
    /// Pairs where `!noReco()` held but `config_in_flux()` did not.
    differ: u64,
}

/// Steps every catalog cell of `T` at n = 4 and 6, seed 1, round by round,
/// and asserts for every active participant after every round that the
/// narrow predicate implies the wide one.
fn narrow_implies_wide<T: ScenarioTarget>(reconfig: fn(&T) -> &ReconfigNode) -> Tally {
    let mut tally = Tally::default();
    for n in [4, 6] {
        for scenario in catalog(n) {
            let mut runner = ScenarioRunner::new(
                &scenario,
                scenario.build_sim::<T>(1, SchedulerMode::EventDriven),
            );
            loop {
                let now = runner.sim().now();
                runner.advance_to(now + 1);
                if runner.sim().now() == now {
                    break;
                }
                for (id, node) in runner.sim().active_processes() {
                    let node = reconfig(node);
                    if !node.is_participant() {
                        continue;
                    }
                    let narrow = node.config_in_flux();
                    let wide = !node.no_reconfiguration();
                    assert!(
                        !narrow || wide,
                        "{}/{} n={n}: {id} has its configuration in flux but noReco() holds \
                         at round {}",
                        T::NAME,
                        scenario.name(),
                        now.as_u64(),
                    );
                    tally.pairs += 1;
                    tally.in_flux += u64::from(narrow);
                    tally.differ += u64::from(narrow != wide);
                }
            }
        }
    }
    tally
}

#[test]
fn config_in_flux_is_narrower_than_no_reco_on_both_services() {
    for (stack, tally) in [
        (
            SharedMemNode::NAME,
            narrow_implies_wide::<SharedMemNode>(SharedMemNode::reconfig),
        ),
        (
            SmrNode::NAME,
            narrow_implies_wide::<SmrNode>(SmrNode::reconfig),
        ),
    ] {
        println!(
            "{stack}: {} (round, participant) pairs, config in flux in {}, \
             the two definitions differ in {}",
            tally.pairs, tally.in_flux, tally.differ
        );
        // Not vacuous: the catalog drives both definitions.
        assert!(
            tally.in_flux > 0,
            "{stack}: no configuration was ever in flux"
        );
        assert!(tally.differ > 0, "{stack}: the definitions never differed");
    }
}

/// Known gap, pinned so that it shows: the `counter` stack serves a fixed
/// `{0..n}` with no recSA or recMA under it, so after a majority crash under
/// client load it never converges within the 1,000-round cap. ROADMAP item
/// 25 step 2 (the counter composite over `ReconfigNode`, reusing
/// `CounterNode::follow_reconfig`) is the fix, and it flips this test:
/// invert the assertion there.
#[test]
fn fixed_config_counter_stays_unconverged_after_a_loaded_majority_crash_until_item_25_step_2() {
    let load = LoadProfile::new(200, Arrival::parse("poisson:1").unwrap());
    let scenario: Scenario = apply_spec(Scenario::new("majority-crash", 5), "crash=30:2+3+4")
        .unwrap()
        .with_workload_until(100)
        .with_load(load);
    let mut sim: Simulation<CounterNode> = scenario.build_sim(1, SchedulerMode::EventDriven);
    let run = run_scenario(&scenario, &mut sim);
    assert_eq!(run.counter("crashes"), 3, "{run:?}");
    assert!(!run.converged, "{run:?}");
    assert_eq!(run.rounds_run, scenario.rounds(), "{run:?}");
}
