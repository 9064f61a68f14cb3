//! The two convergence predicates agree.
//!
//! Every stack defines convergence twice: the simulator's typed
//! `ScenarioTarget::converged(sim)`, and the per-process rule the live
//! driver assembles from what each node reports — every active process
//! `settled()` and their `settle_token()`s agree (`tokens_agree`). The
//! typed predicate stays because it is far cheaper to evaluate every round
//! than formatting every node's token; this test is the oracle that ties
//! the two together, in both directions, in every executed round of every
//! catalog cell at n = 4 and 6, seed 1.

use selfstab_reconfig::counting::CounterNode;
use selfstab_reconfig::reconfiguration::ReconfigNode;
use selfstab_reconfig::replication::SmrNode;
use selfstab_reconfig::shared_memory::SharedMemNode;
use selfstab_reconfig::sim::scenario::{catalog, tokens_agree, ScenarioRunner, ScenarioTarget};
use selfstab_reconfig::sim::{SchedulerMode, Simulation};

/// The live driver's rule, evaluated on a simulation.
fn settled_and_agreed<T: ScenarioTarget>(sim: &Simulation<T>) -> bool {
    let tokens: Vec<String> = sim
        .active_processes()
        .map(|(_, p)| p.settle_token())
        .collect();
    sim.active_processes().all(|(_, p)| p.settled()) && tokens_agree(&tokens)
}

/// Runs every catalog cell of `T` round by round and compares the two
/// predicates after each round; returns how many rounds held each verdict.
fn predicates_agree_every_round<T: ScenarioTarget>() -> (u64, u64) {
    let (mut converged_rounds, mut other_rounds) = (0, 0);
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
                let typed = T::converged(runner.sim());
                assert_eq!(
                    typed,
                    settled_and_agreed(runner.sim()),
                    "{}/{} n={n}: converged() and settled()+tokens disagree at round {}",
                    T::NAME,
                    scenario.name(),
                    now.as_u64(),
                );
                if typed {
                    converged_rounds += 1;
                } else {
                    other_rounds += 1;
                }
            }
        }
    }
    (converged_rounds, other_rounds)
}

#[test]
fn converged_matches_settled_and_agreeing_tokens_on_every_stack() {
    for (stack, (converged, other)) in [
        (
            ReconfigNode::NAME,
            predicates_agree_every_round::<ReconfigNode>(),
        ),
        (
            CounterNode::NAME,
            predicates_agree_every_round::<CounterNode>(),
        ),
        (SmrNode::NAME, predicates_agree_every_round::<SmrNode>()),
        (
            SharedMemNode::NAME,
            predicates_agree_every_round::<SharedMemNode>(),
        ),
    ] {
        // Both verdicts occur, so the comparison tested both directions.
        assert!(
            converged > 0 && other > 0,
            "{stack}: {converged} converged and {other} unconverged rounds"
        );
    }
}
