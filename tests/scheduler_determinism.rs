//! Scheduler determinism over the full protocol stack.
//!
//! A simulation must be reproducible from its seed. These tests drive the
//! complete reconfiguration stack (`ReconfigNode`: failure detector,
//! recSA, recMA and joining) rather than a toy process, so the check covers
//! the real message mix of the middleware; in debug builds every round also
//! passes the scheduler's check that its run queue visits exactly the
//! processes a scan over all of them finds due.

use reconfig::{NodeConfig, ReconfigNode};
use simnet::{ProcessId, SimConfig, Simulation};

fn stack_sim(seed: u64, n: u32) -> Simulation<ReconfigNode> {
    let cfg = SimConfig::default()
        .with_seed(seed)
        .with_loss_probability(0.1)
        .with_max_delay(2)
        .with_channel_capacity(8);
    let mut sim = Simulation::new(cfg);
    for i in 0..n {
        let id = ProcessId::new(i);
        sim.add_process_with_id(id, ReconfigNode::new_participant(id, NodeConfig::for_n(16)));
    }
    sim.trace_mut().set_enabled(true);
    sim
}

fn run_and_fingerprint(mut sim: Simulation<ReconfigNode>, rounds: u64) -> (String, String, u64) {
    sim.run_rounds(rounds);
    let trace: String = sim.trace().iter().map(|e| format!("{e:?}\n")).collect();
    let states: String = sim
        .processes()
        .map(|(id, p)| {
            format!(
                "{id}: participant={} config={:?} trusted={:?}\n",
                p.is_participant(),
                p.installed_config(),
                p.trusted()
            )
        })
        .collect();
    (trace, states, sim.metrics().messages_delivered())
}

/// Same seed ⇒ identical re-run.
#[test]
fn full_stack_runs_are_reproducible_per_seed() {
    let a = run_and_fingerprint(stack_sim(7, 5), 50);
    let b = run_and_fingerprint(stack_sim(7, 5), 50);
    assert_eq!(a, b, "non-deterministic execution");
}
