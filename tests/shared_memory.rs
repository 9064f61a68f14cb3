//! MWMR shared-memory emulation over quorum configurations (Section 4.3).
//!
//! The emulation is suspending: operations abort while the configuration is
//! being replaced and resume afterwards; completed writes survive delicate
//! reconfigurations; reads never travel backwards in time while the
//! configuration is stable; network partitions block operations on the side
//! without a quorum and completed values win after the heal. E11 and E12 time
//! one write and one read; these tests check the values reads return.

use bench::steady_sharedmem_sim;
use reconfig::{config_set, NodeConfig, QuorumSystem};
use sharedmem::{OpOutcome, RegisterId, SharedMemNode};
use simnet::{ProcessId, ScenarioTarget, Simulation};

fn committed_read_value(outcomes: &[OpOutcome]) -> Option<Option<u64>> {
    outcomes.iter().find_map(|o| match o {
        OpOutcome::ReadCommitted { value, .. } => Some(*value),
        _ => None,
    })
}

/// Regular register semantics while the configuration is stable: a read that
/// follows a completed write returns that write (or a newer one) — never an
/// older value. Exercised as an alternating write/read history.
#[test]
fn reads_never_return_stale_values() {
    let mut sim = steady_sharedmem_sim(3, QuorumSystem::Majority, 601);
    let key = RegisterId::new(1);
    let writer = ProcessId::new(0);
    let reader = ProcessId::new(2);
    for v in 1..=6u64 {
        sim.process_mut(writer).unwrap().submit_write(key, v);
        let rounds = sim.run_until(300, |s| s.process(writer).unwrap().writes_committed() == v);
        assert!(rounds < 300, "write {v} never committed");
        let last_written = v;

        sim.process_mut(reader).unwrap().submit_read(key);
        let rounds = sim.run_until(300, |s| s.process(reader).unwrap().reads_committed() == v);
        assert!(rounds < 300, "read {v} never committed");
        let outcomes = sim.process_mut(reader).unwrap().take_completed();
        let value = committed_read_value(&outcomes)
            .expect("a committed read")
            .expect("the register has been written");
        assert!(
            value >= last_written,
            "read returned {value} although {last_written} was already completed"
        );
    }
}

/// Read-your-writes for a single client interleaving its own writes and
/// reads through the quorum.
#[test]
fn a_client_reads_its_own_writes() {
    let mut sim = steady_sharedmem_sim(3, QuorumSystem::Majority, 602);
    let node = ProcessId::new(1);
    let key = RegisterId::new(3);
    for v in [10u64, 20, 30] {
        sim.process_mut(node).unwrap().submit_write(key, v);
        sim.process_mut(node).unwrap().submit_read(key);
        let expected_reads = v / 10;
        let rounds = sim.run_until(400, |s| {
            s.process(node).unwrap().reads_committed() == expected_reads
        });
        assert!(rounds < 400);
        let outcomes = sim.process_mut(node).unwrap().take_completed();
        assert_eq!(committed_read_value(&outcomes), Some(Some(v)));
    }
}

/// Different registers are independent: writes to one never leak into
/// another.
#[test]
fn registers_are_independent() {
    let mut sim = steady_sharedmem_sim(3, QuorumSystem::Majority, 603);
    for (i, key) in [1u64, 2, 3].into_iter().enumerate() {
        sim.process_mut(ProcessId::new(i as u32))
            .unwrap()
            .submit_write(RegisterId::new(key), key * 100);
    }
    let rounds = sim.run_until(600, |s| {
        (0..3u32).all(|i| s.process(ProcessId::new(i)).unwrap().writes_committed() == 1)
    });
    assert!(rounds < 600);
    sim.run_rounds(20);
    let reader = ProcessId::new(0);
    for key in [1u64, 2, 3] {
        sim.process_mut(reader)
            .unwrap()
            .submit_read(RegisterId::new(key));
    }
    let rounds = sim.run_until(600, |s| s.process(reader).unwrap().reads_committed() == 3);
    assert!(rounds < 600);
    let outcomes = sim.process_mut(reader).unwrap().take_completed();
    for key in [1u64, 2, 3] {
        assert!(
            outcomes.iter().any(|o| matches!(
                o,
                OpOutcome::ReadCommitted { key: k, value: Some(v), .. }
                    if *k == RegisterId::new(key) && *v == key * 100
            )),
            "register {key} lost its value: {outcomes:?}"
        );
    }
}

/// Operations submitted while a delicate replacement is in flight abort
/// (suspending emulation); resubmitting after the new configuration is
/// installed succeeds and still sees the pre-reconfiguration value.
#[test]
fn operations_abort_during_reconfiguration_and_resume_after() {
    let mut sim = steady_sharedmem_sim(4, QuorumSystem::Majority, 604);
    let key = RegisterId::new(9);
    let writer = ProcessId::new(0);
    sim.process_mut(writer).unwrap().submit_write(key, 111);
    let rounds = sim.run_until(300, |s| s.process(writer).unwrap().writes_committed() == 1);
    assert!(rounds < 300);
    sim.process_mut(writer).unwrap().take_completed();

    // Start a delicate replacement and immediately submit a read at another
    // member: the read either aborts (suspension) or completes — it must
    // never return a value older than the committed write.
    let target = config_set(0..3);
    assert!(sim
        .process_mut(ProcessId::new(1))
        .unwrap()
        .reconfig_mut()
        .request_reconfiguration(target.clone()));
    let reader = ProcessId::new(2);
    sim.process_mut(reader).unwrap().submit_read(key);
    let rounds = sim.run_until(800, |s| {
        let r = s.process(reader).unwrap();
        r.reads_committed() + r.ops_aborted() >= 1
    });
    assert!(rounds < 800, "the read neither completed nor aborted");
    let outcomes = sim.process_mut(reader).unwrap().take_completed();
    if let Some(value) = committed_read_value(&outcomes) {
        assert_eq!(value, Some(111));
    }

    // Wait for the new configuration, then operations work again.
    let rounds = sim.run_until(800, |s| {
        s.active_ids()
            .iter()
            .all(|id| s.process(*id).unwrap().reconfig().installed_config() == Some(target.clone()))
    });
    assert!(rounds < 800, "replacement never completed");
    sim.run_rounds(60);
    sim.process_mut(reader).unwrap().submit_read(key);
    let before = sim.process(reader).unwrap().reads_committed();
    let rounds = sim.run_until(600, |s| {
        s.process(reader).unwrap().reads_committed() > before
    });
    assert!(
        rounds < 600,
        "reads never resumed after the reconfiguration"
    );
    let outcomes = sim.process_mut(reader).unwrap().take_completed();
    assert_eq!(committed_read_value(&outcomes), Some(Some(111)));
}

/// A member cut off from the majority by a network partition cannot commit
/// writes; after the heal its operations complete and the value written by
/// the majority side is preserved.
#[test]
fn minority_partition_blocks_until_healed() {
    let mut sim = steady_sharedmem_sim(5, QuorumSystem::Majority, 605);
    let key = RegisterId::new(2);
    // Partition {4} away from {0,1,2,3}.
    let minority = vec![ProcessId::new(4)];
    let majority: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
    sim.network_mut()
        .split_into(&[majority.clone(), minority.clone()]);

    // The majority side commits a write.
    sim.process_mut(ProcessId::new(0))
        .unwrap()
        .submit_write(key, 500);
    let rounds = sim.run_until(400, |s| {
        s.process(ProcessId::new(0)).unwrap().writes_committed() == 1
    });
    assert!(
        rounds < 400,
        "majority side could not commit during the partition"
    );

    // The minority member tries to write; it cannot reach a quorum.
    sim.process_mut(ProcessId::new(4))
        .unwrap()
        .submit_write(key, 9999);
    sim.run_rounds(150);
    assert_eq!(
        sim.process(ProcessId::new(4)).unwrap().writes_committed(),
        0,
        "a single partitioned member must not commit"
    );

    // Heal: the stuck write eventually completes (with a tag above the
    // majority's write, because its query now sees that value).
    sim.network_mut().heal_all_links();
    let rounds = sim.run_until(800, |s| {
        s.process(ProcessId::new(4)).unwrap().writes_committed() == 1
    });
    assert!(
        rounds < 800,
        "the minority write never completed after the heal"
    );

    // A final read observes the newest committed value.
    let reader = ProcessId::new(1);
    sim.process_mut(reader).unwrap().submit_read(key);
    sim.run_until(300, |s| s.process(reader).unwrap().reads_committed() == 1);
    let outcomes = sim.process_mut(reader).unwrap().take_completed();
    assert_eq!(committed_read_value(&outcomes), Some(Some(9999)));
}

/// The emulation also runs over a grid quorum system (the generalization the
/// paper sketches): reads and writes complete and stay coherent.
#[test]
fn grid_quorums_serve_reads_and_writes() {
    let mut sim = steady_sharedmem_sim(4, QuorumSystem::Grid { columns: 2 }, 606);
    let key = RegisterId::new(1);
    sim.process_mut(ProcessId::new(0))
        .unwrap()
        .submit_write(key, 77);
    let rounds = sim.run_until(400, |s| {
        s.process(ProcessId::new(0)).unwrap().writes_committed() == 1
    });
    assert!(rounds < 400, "grid-quorum write never committed");
    sim.process_mut(ProcessId::new(3)).unwrap().submit_read(key);
    let rounds = sim.run_until(400, |s| {
        s.process(ProcessId::new(3)).unwrap().reads_committed() == 1
    });
    assert!(rounds < 400, "grid-quorum read never committed");
    let outcomes = sim.process_mut(ProcessId::new(3)).unwrap().take_completed();
    assert_eq!(committed_read_value(&outcomes), Some(Some(77)));
}

/// Growing the configuration: a joiner is admitted, the configuration is
/// replaced by one that includes it, and the register contents reach the new
/// member through the post-reconfiguration state transfer.
#[test]
fn new_member_learns_the_registers_after_joining_the_configuration() {
    let mut sim = steady_sharedmem_sim(3, QuorumSystem::Majority, 607);
    let key = RegisterId::new(6);
    sim.process_mut(ProcessId::new(0))
        .unwrap()
        .submit_write(key, 4242);
    let rounds = sim.run_until(300, |s| {
        s.process(ProcessId::new(0)).unwrap().writes_committed() == 1
    });
    assert!(rounds < 300);

    // The newcomer joins as a participant first.
    let newbie = ProcessId::new(7);
    sim.add_process_with_id(
        newbie,
        SharedMemNode::new_joiner(newbie, NodeConfig::for_n(16)),
    );
    let rounds = sim.run_until(600, |s| {
        s.process(newbie).unwrap().reconfig().is_participant()
    });
    assert!(rounds < 600, "newcomer never became a participant");

    // Replace the configuration with one that includes it.
    let target = config_set([0, 1, 2, 7]);
    assert!(sim
        .process_mut(ProcessId::new(1))
        .unwrap()
        .reconfig_mut()
        .request_reconfiguration(target.clone()));
    let rounds = sim.run_until(1500, |s| {
        s.active_ids()
            .iter()
            .all(|id| s.process(*id).unwrap().reconfig().installed_config() == Some(target.clone()))
    });
    assert!(
        rounds < 1500,
        "replacement onto the grown configuration never completed"
    );

    // The new member eventually holds the register locally (state transfer)…
    let rounds = sim.run_until(600, |s| {
        s.process(newbie).unwrap().local_value(key) == Some(4242)
    });
    assert!(
        rounds < 600,
        "state transfer to the new member never happened"
    );
    // …and serves it through the quorum protocol.
    sim.process_mut(newbie).unwrap().submit_read(key);
    let rounds = sim.run_until(600, |s| s.process(newbie).unwrap().reads_committed() == 1);
    assert!(rounds < 600);
    let outcomes = sim.process_mut(newbie).unwrap().take_completed();
    assert_eq!(committed_read_value(&outcomes), Some(Some(4242)));
}

/// Write-heavy workload with several concurrent writers on the same key: all
/// writes commit, every member converges on the same final tag, and a final
/// read returns one of the written values.
#[test]
fn concurrent_writers_converge_on_one_final_value() {
    let mut sim = steady_sharedmem_sim(4, QuorumSystem::Majority, 608);
    let key = RegisterId::new(5);
    for i in 0..4u32 {
        sim.process_mut(ProcessId::new(i))
            .unwrap()
            .submit_write(key, 1000 + i as u64);
    }
    let rounds = sim.run_until(800, |s| {
        (0..4u32).all(|i| s.process(ProcessId::new(i)).unwrap().writes_committed() == 1)
    });
    assert!(rounds < 800, "not every concurrent write committed");
    sim.run_rounds(60);

    let reader = ProcessId::new(2);
    sim.process_mut(reader).unwrap().submit_read(key);
    sim.run_until(300, |s| s.process(reader).unwrap().reads_committed() >= 1);
    let outcomes = sim.process_mut(reader).unwrap().take_completed();
    let value = committed_read_value(&outcomes).unwrap().unwrap();
    assert!(
        (1000..1004).contains(&value),
        "read returned a never-written value {value}"
    );

    // All members agree on the final stored tag for the key.
    let tags: std::collections::BTreeSet<(u64, u32)> = sim
        .active_ids()
        .into_iter()
        .filter_map(|id| {
            sim.process(id)
                .unwrap()
                .store()
                .get(key)
                .map(|tv| (tv.tag.seqn, tv.tag.wid.as_u32()))
        })
        .collect();
    assert_eq!(tags.len(), 1, "members hold different final tags: {tags:?}");
}

/// The early start the live runtime gives client operations
/// ([`ScenarioTarget::start_local`]), reproduced inside the simulator to
/// check that it is safe and not only fast: the wrapped node is kicked at
/// the end of every delivery — in a simulation that is where a `Context`
/// exists between timer steps, and gossip arrives every round, so a queued
/// operation starts on the first delivery after its submit (or after the
/// completion that freed the slot) instead of at the node's next timer step.
#[derive(Clone)]
struct Eager<P> {
    node: P,
}

impl<P: ScenarioTarget> simnet::Process for Eager<P> {
    type Msg = P::Msg;

    fn on_timer(&mut self, ctx: &mut simnet::Context<'_, Self::Msg>) {
        self.node.on_timer(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut simnet::Context<'_, Self::Msg>,
    ) {
        self.node.on_message(from, msg, ctx);
        self.node.start_local(ctx);
    }
}

/// The shared-memory adapter re-expressed over the wrapper from the node's
/// per-process hooks: settlement, agreement and claims are the node's own.
impl ScenarioTarget for Eager<SharedMemNode> {
    const NAME: &'static str = "eager-sharedmem";

    fn spawn_initial(id: ProcessId, n: usize) -> Self {
        Eager {
            node: SharedMemNode::spawn_initial(id, n),
        }
    }

    fn spawn_joiner(id: ProcessId, n: usize) -> Self {
        Eager {
            node: SharedMemNode::spawn_joiner(id, n),
        }
    }

    fn corrupt(&mut self, rng: &mut simnet::SimRng) -> Vec<(u64, u64)> {
        self.node.corrupt(rng)
    }

    fn submit_local(&mut self, key: u64, value: u64) -> bool {
        self.node.submit_local(key, value)
    }

    fn op_spec(key: u64, value: u64) -> Option<(u64, simnet::OpKind)> {
        SharedMemNode::op_spec(key, value)
    }

    fn claim_local(&mut self) -> Option<simnet::OpResponse> {
        self.node.claim_local()
    }

    fn lin_spec() -> Option<simnet::Spec> {
        SharedMemNode::lin_spec()
    }

    fn settled(&self) -> bool {
        self.node.settled()
    }

    type State<'a> = <SharedMemNode as ScenarioTarget>::State<'a>;

    fn agreement(&self) -> simnet::Agreement<'_, Self::State<'_>> {
        self.node.agreement()
    }

    fn invariant_violations(_sim: &Simulation<Self>) -> Vec<String> {
        Vec::new()
    }

    fn state_line(id: ProcessId, p: &Self) -> String {
        SharedMemNode::state_line(id, &p.node)
    }
}

/// `--check-histories` on `quiescent` and `gray-lag` at n = 8, plain and
/// eager: with the early start every op still completes, the history is
/// still linearizable, the cluster converges and stays converged — and the
/// ops are no slower (under `gray-lag`, where a minority's timer runs at a
/// sixth of the message rate, the tail is shorter).
#[test]
fn early_started_operations_are_linearizable_and_no_slower() {
    use simnet::scenario::{find, run_scenario};
    let load =
        simnet::LoadProfile::new(200, simnet::Arrival::Poisson { rate: 1.0 }).with_op_timeout(300);
    for name in ["quiescent", "gray-lag"] {
        let scenario = find(name, 8)
            .expect("catalog scenario")
            .with_load(load.clone())
            .with_history();
        let mode = simnet::SchedulerMode::EventDriven;
        let plain = run_scenario(&scenario, &mut scenario.build_sim::<SharedMemNode>(3, mode));
        let eager = run_scenario(
            &scenario,
            &mut scenario.build_sim::<Eager<SharedMemNode>>(3, mode),
        );
        for (what, run) in [("plain", &plain), ("eager", &eager)] {
            assert!(run.converged, "{name}/{what} never converged");
            assert_eq!(
                run.invariant_violations,
                Vec::<String>::new(),
                "{name}/{what}"
            );
            assert_eq!(run.counter("lin_result"), 0, "{name}/{what}");
            assert_eq!(run.counter("stability_violations"), 0, "{name}/{what}");
            assert!(run.counter("ops_submitted") > 30, "{name}/{what}");
            assert_eq!(
                run.counter("ops_completed"),
                run.counter("ops_submitted"),
                "{name}/{what}: an op was lost"
            );
            assert_eq!(run.counter("ops_failed"), 0, "{name}/{what}");
            assert_eq!(
                run.counter("lin_ops_checked"),
                run.counter("ops_completed"),
                "{name}/{what}"
            );
        }
        // The load engine's arrivals do not depend on the system under it.
        assert_eq!(
            eager.counter("ops_submitted"),
            plain.counter("ops_submitted")
        );
        for quantile in ["op_latency_p50_rounds", "op_latency_p99_rounds"] {
            let (was, is) = (plain.counter(quantile), eager.counter(quantile));
            println!("{name}: {quantile} {was} -> {is}");
            assert!(is <= was, "{name}: {quantile} rose with the early start");
        }
    }
}
