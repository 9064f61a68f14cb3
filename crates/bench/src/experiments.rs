//! The paper's experiments E1–E13 as one table of exact counts.
//!
//! Every experiment is a function returning its rows: the parameters it ran
//! with, the counts it measured (rounds, messages, label creations,
//! triggerings, estimates), the bound where the code states one, and
//! whether the predicate the row waits for held within its round cap. The
//! counts are deterministic under the seeds given, and no row holds a wall
//! time, so [`render`] writes the same bytes on every machine.
//! `simctl experiments` prints it and `docs/EXPERIMENTS.md` is that output,
//! committed; `crates/bench/tests/experiments.rs` regenerates it byte for
//! byte and asserts every bound.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::Arc;

use counters::{Counter, CounterMsg, CounterNode, IncrementOutcome};
use failure_detector::ThetaFailureDetector;
use labels::{Label, LabelPair, Labeler};
use reconfig::{config_set, converged_config, ConfigValue, NodeConfig, QuorumSystem, ReconfigNode};
use sharedmem::RegisterId;
use simnet::plan::apply_spec;
use simnet::stack::{Layer, Outbox};
use simnet::{ProcessId, Scenario, SimConfig, Simulation};

use crate::{
    catalog_scenario, fresh_reconfig_sim, run_scenario_bench, smr_cluster, steady_reconfig_sim,
    steady_sharedmem_sim,
};

/// An experiment addresses only processes it added and never crashed.
const ADDED: &str = "the experiment added this process";

/// One experiment of the paper: the claim it checks and how it gets its
/// rows.
pub struct Experiment {
    /// `E1` … `E13`.
    pub id: &'static str,
    /// The theorem or lemma the rows check.
    pub claim: &'static str,
    /// What one row measures.
    pub measures: &'static str,
    /// Runs the experiment.
    pub rows: fn() -> Vec<Row>,
}

/// The experiments, in table order.
pub const EXPERIMENTS: [Experiment; 13] = [
    Experiment {
        id: "E1",
        claim: "Theorem 3.15",
        measures: "n participants boot with no agreed configuration (brute-force bootstrap); rounds and messages until all install {p0 … p(n-1)}",
        rows: e1_recsa_convergence,
    },
    Experiment {
        id: "E2",
        claim: "Theorem 3.16",
        measures: "in a steady configuration of n, p0 proposes dropping p(n-1); rounds until every node installs the proposal",
        rows: e2_delicate_replacement,
    },
    Experiment {
        id: "E3",
        claim: "Lemma 3.18",
        measures: "every node's noMaj/needReconf flags are corrupted; recMA triggerings in the next 200 rounds, reached when calm on the original configuration",
        rows: e3_recma_triggerings,
    },
    Experiment {
        id: "E4",
        claim: "Lemma 3.20",
        measures: "⌈n/2⌉ of n members crash; rounds until the ⌊n/2⌋ survivors install themselves",
        rows: e4_majority_loss,
    },
    Experiment {
        id: "E5",
        claim: "Theorem 3.26",
        measures: "joiners arrive at a steady configuration of 4; rounds until all participate, reached when the configuration is unchanged",
        rows: e5_joins,
    },
    Experiment {
        id: "E6",
        claim: "Theorem 4.4",
        measures: "n labelers, clean or holding corrupted maximal labels, step in lock-step rounds; rounds and label creations until all hold one maximal label",
        rows: e6_label_convergence,
    },
    Experiment {
        id: "E7",
        claim: "Theorem 4.6",
        measures: "increments requested round-robin; committed increments, each larger than the last",
        rows: e7_counter_increments,
    },
    Experiment {
        id: "E8",
        claim: "Theorem 4.13",
        measures: "20 writes submitted round-robin to a VS-SMR cluster; rounds until every replica applied all",
        rows: e8_smr_writes,
    },
    Experiment {
        id: "E9",
        claim: "Theorem 3.16 vs 3.15",
        measures: "delicate: as E2; brute: p(n-1) crashes and every survivor's configuration is reset to ⊥; rounds until some calm configuration, and that configuration's size",
        rows: e9_brute_vs_delicate,
    },
    Experiment {
        id: "E10",
        claim: "Section 2",
        measures: "Θ-detector fed 50 heartbeat rounds by all, then 50 by the live only; estimate nᵢ and suspicions",
        rows: e10_fd_estimate,
    },
    Experiment {
        id: "E11",
        claim: "Section 4.3",
        measures: "one write by p0, then one read by p1, on the shared-memory registers; rounds of each and messages sent meanwhile",
        rows: e11_register_ops,
    },
    Experiment {
        id: "E12",
        claim: "Section 4.3",
        measures: "one write by p0 under majority or grid quorums",
        rows: e12_quorum_systems,
    },
    Experiment {
        id: "E13",
        claim: "Theorem 3.15",
        measures: "halves split at round 30 and heal after the given rounds; rounds until reconverged",
        rows: e13_partition_recovery,
    },
];

/// One measured row of the table.
#[derive(Debug)]
pub struct Row {
    /// The experiment's id.
    pub experiment: &'static str,
    /// The parameters, as `(name, value)` pairs.
    pub params: Vec<(&'static str, String)>,
    /// The exact counts, as `(name, value)` pairs.
    pub counts: Vec<(&'static str, u64)>,
    /// The bound the code states on one of the counts.
    pub bound: Option<Bound>,
    /// Whether the predicate the row waits for held at the end of the run.
    pub reached: bool,
}

/// A stated upper bound on one count of a row.
#[derive(Debug)]
pub struct Bound {
    /// The bounded count's name.
    pub count: &'static str,
    /// The bound as the code states it.
    pub formula: &'static str,
    /// Its value for the row's parameters.
    pub limit: u64,
}

impl Row {
    /// A row of no experiment yet: [`run`] names it.
    fn new(reached: bool) -> Row {
        Row {
            experiment: "",
            params: Vec::new(),
            counts: Vec::new(),
            bound: None,
            reached,
        }
    }

    fn with_param(mut self, name: &'static str, value: impl Display) -> Row {
        self.params.push((name, value.to_string()));
        self
    }

    fn with_count(mut self, name: &'static str, value: u64) -> Row {
        self.counts.push((name, value));
        self
    }

    fn with_bound(mut self, count: &'static str, formula: &'static str, limit: u64) -> Row {
        self.bound = Some(Bound {
            count,
            formula,
            limit,
        });
        self
    }

    /// The value of parameter `name`. Panics when the row has none.
    pub fn param(&self, name: &str) -> &str {
        self.params
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("{} row has no parameter `{name}`", self.experiment))
    }

    /// The value of count `name`. Panics when the row has none.
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{} row has no count `{name}`", self.experiment))
    }
}

/// Runs every experiment, in table order.
pub fn run() -> Vec<Row> {
    EXPERIMENTS
        .iter()
        .flat_map(|e| {
            (e.rows)().into_iter().map(|row| Row {
                experiment: e.id,
                ..row
            })
        })
        .collect()
}

/// Renders measured rows as the Markdown table `simctl experiments` prints;
/// `render(&run())` is `docs/EXPERIMENTS.md`.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "# The paper's experiments\n\
         \n\
         The output of `simctl experiments` (`crates/bench/src/experiments.rs`).\n\
         `cargo test -p bench --test experiments` regenerates it byte for byte\n\
         and asserts every bound, so change the code, not this file.\n\
         \n\
         Every count is exact under the seeds shown. *Reached* says whether the\n\
         predicate the row waits for held within its round cap; the test fails a\n\
         row that did not.\n\
         \n\
         | Exp | Claim | Parameters | Counts | Bound | Reached |\n\
         |-----|-------|------------|--------|-------|---------|\n",
    );
    for row in rows {
        let experiment = EXPERIMENTS
            .iter()
            .find(|e| e.id == row.experiment)
            .expect("rows come from EXPERIMENTS");
        let params: Vec<String> = row.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let counts: Vec<String> = row.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let bound = row.bound.as_ref().map_or(String::new(), |b| {
            format!("{} ≤ {} = {}", b.count, b.formula, b.limit)
        });
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            experiment.id,
            experiment.claim,
            params.join(" "),
            counts.join(" "),
            bound,
            if row.reached { "yes" } else { "no" },
        );
    }
    out.push_str("\n## What each experiment measures\n\n");
    for e in &EXPERIMENTS {
        let _ = writeln!(out, "- **{}** ({}): {}.", e.id, e.claim, e.measures);
    }
    out
}

/// Runs `sim` until `done` holds, for at most `max_rounds` rounds. Returns
/// the rounds run and whether `done` held at the end: `run_until` returns
/// its cap both on a timeout and on success in the last round.
fn run_until_reached<P: simnet::Process>(
    sim: &mut Simulation<P>,
    max_rounds: u64,
    done: impl Fn(&Simulation<P>) -> bool,
) -> (u64, bool) {
    let rounds = sim.run_until(max_rounds, &done);
    (rounds, done(sim))
}

fn e1_recsa_convergence() -> Vec<Row> {
    [4u32, 8, 16, 24]
        .into_iter()
        .map(|n| {
            let seed = 7;
            let mut sim =
                fresh_reconfig_sim(n, SimConfig::default().with_seed(seed).with_max_delay(0));
            let expected = config_set(0..n);
            let (rounds, reached) = run_until_reached(&mut sim, 2000, |s| {
                converged_config(s).as_ref() == Some(&expected)
            });
            Row::new(reached)
                .with_param("n", n)
                .with_param("seed", seed)
                .with_count("rounds", rounds)
                .with_count("messages", sim.metrics().messages_sent())
        })
        .collect()
}

/// Delicate replacement: in a steady configuration of `n`, p0 proposes
/// dropping p(n-1). Returns the rounds, whether it was installed, and the size of the
/// configuration the system holds at the end.
fn delicate_replacement(n: u32, seed: u64, max_rounds: u64) -> (u64, bool, u64) {
    let mut sim = steady_reconfig_sim(n, n, seed);
    let target = config_set(0..n - 1);
    sim.process_mut(ProcessId::new(0))
        .expect(ADDED)
        .request_reconfiguration(target.clone());
    let (rounds, reached) = run_until_reached(&mut sim, max_rounds, |s| {
        converged_config(s).as_ref() == Some(&target)
    });
    (rounds, reached, config_size(&sim))
}

/// The size of the configuration `sim` agrees on, or 0 when it agrees on
/// none.
fn config_size(sim: &Simulation<ReconfigNode>) -> u64 {
    converged_config(sim).map_or(0, |c| c.len() as u64)
}

fn e2_delicate_replacement() -> Vec<Row> {
    [3u32, 6, 12, 20]
        .into_iter()
        .map(|n| {
            let seed = 11;
            let (rounds, reached, _) = delicate_replacement(n, seed, 2000);
            Row::new(reached)
                .with_param("n", n)
                .with_param("seed", seed)
                .with_count("rounds", rounds)
        })
        .collect()
}

fn e3_recma_triggerings() -> Vec<Row> {
    let cap = SimConfig::default().channel_policy().capacity as u64;
    [4u32, 8, 16]
        .into_iter()
        .map(|n| {
            let seed = 13;
            let mut sim = steady_reconfig_sim(n, n, seed);
            // Transient fault: every node believes every other node reported
            // noMaj and needReconf.
            for i in 0..n {
                for k in 0..n {
                    sim.process_mut(ProcessId::new(i))
                        .expect(ADDED)
                        .recma_mut()
                        .corrupt_flags(ProcessId::new(k), true, true);
                }
            }
            sim.run_rounds(200);
            let triggerings = sim
                .active_processes()
                .map(|(_, p)| p.recma_triggerings())
                .sum();
            let n64 = u64::from(n);
            let calm = converged_config(&sim) == Some(config_set(0..n))
                && sim.active_processes().all(|(_, p)| p.no_reconfiguration());
            Row::new(calm)
                .with_param("n", n)
                .with_param("seed", seed)
                .with_count("triggerings", triggerings)
                .with_bound("triggerings", "N²·cap", n64 * n64 * cap)
        })
        .collect()
}

fn e4_majority_loss() -> Vec<Row> {
    [5u32, 9, 15]
        .into_iter()
        .map(|n| {
            let seed = 17;
            let mut sim = steady_reconfig_sim(n, n, seed);
            // Keep strictly less than a majority alive.
            let survivors = n / 2;
            for i in survivors..n {
                sim.crash(ProcessId::new(i));
            }
            let expected = config_set(0..survivors);
            let (rounds, reached) = run_until_reached(&mut sim, 4000, |s| {
                converged_config(s).as_ref() == Some(&expected)
            });
            Row::new(reached)
                .with_param("n", n)
                .with_param("crashed", n - survivors)
                .with_param("seed", seed)
                .with_count("rounds", rounds)
        })
        .collect()
}

fn e5_joins() -> Vec<Row> {
    let members = 4u32;
    [1u32, 4, 8]
        .into_iter()
        .map(|joiners| {
            let seed = 23;
            // N must bound the whole population, joiners included.
            let mut sim = steady_reconfig_sim(members, members + joiners, seed);
            let before = converged_config(&sim);
            let joiner_ids: Vec<ProcessId> =
                (0..joiners).map(|j| ProcessId::new(100 + j)).collect();
            for &id in &joiner_ids {
                sim.add_process_with_id(
                    id,
                    ReconfigNode::new_joiner(
                        id,
                        NodeConfig::for_n(2 * (members + joiners) as usize),
                    ),
                );
            }
            let admitted = |s: &Simulation<ReconfigNode>| {
                joiner_ids
                    .iter()
                    .filter(|id| s.process(**id).is_some_and(|p| p.is_participant()))
                    .count() as u64
            };
            let (rounds, _) =
                run_until_reached(&mut sim, 3000, |s| admitted(s) == u64::from(joiners));
            let unchanged = before.is_some() && converged_config(&sim) == before;
            Row::new(admitted(&sim) == u64::from(joiners) && unchanged)
                .with_param("members", members)
                .with_param("joiners", joiners)
                .with_param("seed", seed)
                .with_count("rounds", rounds)
                .with_count("admitted", admitted(&sim))
                .with_count("config_changes", u64::from(!unchanged))
        })
        .collect()
}

/// Runs labelers over `{0..n}` in lock-step rounds until every member holds
/// the same maximal label, for at most 200 rounds. Returns the rounds, the
/// label creations, and whether they agreed.
fn run_labelers(n: u32, corrupt: bool, seed: u64) -> (u64, u64, bool) {
    let cfg = config_set(0..n);
    let mut nodes: BTreeMap<ProcessId, Labeler> = cfg
        .iter()
        .map(|id| (*id, Labeler::new(*id, cfg.clone())))
        .collect();
    if corrupt {
        // Inject wild labels attributed to other members.
        for i in 0..n {
            let victim = ProcessId::new(i);
            let wild = Label {
                creator: ProcessId::new((i + 1) % n),
                sting: 1000 + seed as u32 + i,
                antistings: Arc::new([i, i + 1, i + 2].into()),
            };
            nodes
                .get_mut(&victim)
                .expect("victims are members")
                .corrupt_max(victim, LabelPair::legit(wild));
        }
    }
    let agreed = |nodes: &BTreeMap<ProcessId, Labeler>| {
        let maxes: Vec<_> = nodes.values().map(|n| n.local_max()).collect();
        maxes.iter().all(|m| m.is_some() && *m == maxes[0])
    };
    let mut rounds = 0u64;
    while rounds < 200 {
        rounds += 1;
        let mut outbox = Vec::new();
        for (id, node) in nodes.iter_mut() {
            let mut out = Outbox::new();
            node.step(&mut out);
            for (to, m) in out.into_messages() {
                outbox.push((*id, to, m));
            }
        }
        for (from, to, m) in outbox {
            if let Some(node) = nodes.get_mut(&to) {
                node.on_message(from, &m);
            }
        }
        if agreed(&nodes) {
            break;
        }
    }
    let creations = nodes.values().map(|n| n.label_creations()).sum();
    (rounds, creations, agreed(&nodes))
}

fn e6_label_convergence() -> Vec<Row> {
    // The paper's m, the bound on labels in transit: the link capacity.
    let m = SimConfig::default().channel_policy().capacity as u64;
    let mut rows = Vec::new();
    for n in [4u32, 8, 16] {
        let n64 = u64::from(n);
        for (state, corrupt) in [("clean", false), ("corrupted", true)] {
            let seed = 1;
            let (rounds, creations, agreed) = run_labelers(n, corrupt, seed);
            let row = Row::new(agreed)
                .with_param("n", n)
                .with_param("state", state)
                .with_param("seed", seed)
                .with_count("rounds", rounds)
                .with_count("creations", creations);
            rows.push(if corrupt {
                row.with_bound("creations", "N(N²+m)", n64 * (n64 * n64 + m))
            } else {
                row.with_bound("creations", "N²", n64 * n64)
            });
        }
    }
    rows
}

/// Requests `increments` increments round-robin from `members` counter
/// nodes, delivering every message at once, with one gossip step after
/// each. Returns the committed increments and whether each one was larger
/// than the one before.
fn run_increments(members: u32, increments: u32, bound: u64) -> (u64, bool) {
    type Batch = Vec<(ProcessId, ProcessId, CounterMsg)>;
    let cfg = config_set(0..members);
    let mut nodes: BTreeMap<ProcessId, CounterNode> = cfg
        .iter()
        .map(|id| {
            (
                *id,
                CounterNode::new(*id, cfg.clone()).with_exhaustion_bound(bound),
            )
        })
        .collect();
    let deliver = |nodes: &mut BTreeMap<ProcessId, CounterNode>, mut queue: Batch| {
        while let Some((from, to, msg)) = queue.pop() {
            if let Some(node) = nodes.get_mut(&to) {
                let mut replies = Outbox::new();
                node.handle(from, &msg, &mut replies);
                for (next, reply) in replies.into_messages() {
                    queue.push((to, next, reply));
                }
            }
        }
    };
    let gossip = |nodes: &mut BTreeMap<ProcessId, CounterNode>| {
        let mut batch = Vec::new();
        for (id, node) in nodes.iter_mut() {
            let mut out = Outbox::new();
            node.poll(&[], &mut out);
            for (to, m) in out.into_messages() {
                batch.push((*id, to, m));
            }
        }
        deliver(nodes, batch);
    };
    for _ in 0..5 {
        gossip(&mut nodes);
    }
    let mut committed = 0u64;
    let mut monotone = true;
    let mut last: Option<Counter> = None;
    for i in 0..increments {
        let who = ProcessId::new(i % members);
        let mut reqs = Outbox::new();
        nodes
            .get_mut(&who)
            .expect("increments go to members")
            .request_increment(&mut reqs);
        let batch = reqs
            .into_messages()
            .into_iter()
            .map(|(to, m)| (who, to, m))
            .collect();
        deliver(&mut nodes, batch);
        for outcome in nodes
            .get_mut(&who)
            .expect("increments go to members")
            .take_completed()
        {
            if let IncrementOutcome::Committed(c) = outcome {
                monotone &= last.as_ref().map_or(true, |prev| prev.ct_less(&c));
                last = Some(c);
                committed += 1;
            }
        }
        gossip(&mut nodes);
    }
    (committed, monotone)
}

fn e7_counter_increments() -> Vec<Row> {
    let increments = 100;
    let mut rows = Vec::new();
    for members in [3u32, 5, 9] {
        for (label, bound) in [("none", u64::MAX >> 1), ("8", 8)] {
            let (committed, monotone) = run_increments(members, increments, bound);
            rows.push(
                Row::new(committed == u64::from(increments) && monotone)
                    .with_param("members", members)
                    .with_param("increments", increments)
                    .with_param("exhaustion_bound", label)
                    .with_count("committed", committed),
            );
        }
    }
    rows
}

fn e8_smr_writes() -> Vec<Row> {
    let writes = 20u32;
    [3u32, 5, 7]
        .into_iter()
        .map(|n| {
            let seed = 29;
            let mut sim = smr_cluster(n, seed);
            for w in 0..writes {
                sim.process_mut(ProcessId::new(w % n))
                    .expect(ADDED)
                    .submit_write(w, u64::from(w));
            }
            let (rounds, reached) = run_until_reached(&mut sim, 4000, |s| {
                s.active_processes().all(|(_, node)| {
                    (0..writes).all(|w| node.read_register(w) == Some(u64::from(w)))
                })
            });
            Row::new(reached)
                .with_param("replicas", n)
                .with_param("writes", writes)
                .with_param("seed", seed)
                .with_count("rounds", rounds)
        })
        .collect()
}

/// Brute force is not a cheaper delicate replacement: the two reach
/// different configurations. Delicate replacement names its target and
/// installs the n−1 survivors in 5–7 rounds. The brute-force reset settles
/// in 1 round on whatever the failure-detector readings agree on, here all
/// n with the crashed member (not yet suspected), and in probes over seeds
/// 31, 1 and 2 it did not reach the n−1 survivors within 3,000 more rounds.
/// So each row shows the size of the configuration it reached.
fn e9_brute_vs_delicate() -> Vec<Row> {
    let seed = 31;
    let mut rows = Vec::new();
    for n in [4u32, 8, 16] {
        let (rounds, reached, size) = delicate_replacement(n, seed, 3000);
        rows.push(
            Row::new(reached)
                .with_param("n", n)
                .with_param("path", "delicate")
                .with_param("seed", seed)
                .with_count("rounds", rounds)
                .with_count("config_size", size),
        );
        // A transient fault leaves every survivor with ⊥ (a reset in
        // progress); the row waits for *some* calm configuration.
        let mut sim = steady_reconfig_sim(n, n, seed);
        sim.crash(ProcessId::new(n - 1));
        for i in 0..n - 1 {
            sim.process_mut(ProcessId::new(i))
                .expect(ADDED)
                .recsa_mut()
                .corrupt_config(ProcessId::new(i), ConfigValue::Bottom);
        }
        let (rounds, reached) = run_until_reached(&mut sim, 3000, |s| {
            converged_config(s).is_some()
                && s.active_processes().all(|(_, p)| p.no_reconfiguration())
        });
        rows.push(
            Row::new(reached)
                .with_param("n", n)
                .with_param("path", "brute")
                .with_param("seed", seed)
                .with_count("rounds", rounds)
                .with_count("config_size", config_size(&sim)),
        );
    }
    rows
}

fn e10_fd_estimate() -> Vec<Row> {
    let rounds = 50;
    [(4u32, 2u32), (8, 4), (16, 8)]
        .into_iter()
        .map(|(live, crashed)| {
            let mut fd = ThetaFailureDetector::new(
                ProcessId::new(0),
                (live + crashed + 1) as usize,
                4 * (u64::from(live) + 1),
            );
            // Every processor heartbeats for a while, then the crashed ones
            // stop.
            for _ in 0..rounds {
                for p in 1..=live + crashed {
                    fd.heartbeat(ProcessId::new(p));
                }
            }
            for _ in 0..rounds {
                for p in 1..=live {
                    fd.heartbeat(ProcessId::new(p));
                }
            }
            let estimate = fd.estimate_active() as u64;
            let suspected = (live + 1..=live + crashed)
                .filter(|p| !fd.trusts(ProcessId::new(*p)))
                .count() as u64;
            Row::new(estimate == u64::from(live) + 1 && suspected == u64::from(crashed))
                .with_param("live", live)
                .with_param("crashed", crashed)
                .with_param("rounds", rounds)
                .with_count("estimate_active", estimate)
                .with_count("crashed_suspected", suspected)
        })
        .collect()
}

/// Submits one write of `value` to register 1 at p0 and runs until it
/// commits, for at most 1,000 rounds. Returns the rounds and whether it
/// committed.
fn commit_one_write(sim: &mut Simulation<sharedmem::SharedMemNode>, value: u64) -> (u64, bool) {
    let writer = ProcessId::new(0);
    let before = sim.process(writer).expect(ADDED).writes_committed();
    sim.process_mut(writer)
        .expect(ADDED)
        .submit_write(RegisterId::new(1), value);
    run_until_reached(sim, 1000, |s| {
        s.process(writer).expect(ADDED).writes_committed() > before
    })
}

fn e11_register_ops() -> Vec<Row> {
    [3u32, 5, 9]
        .into_iter()
        .map(|n| {
            let seed = 61;
            let mut sim = steady_sharedmem_sim(n, QuorumSystem::Majority, seed);
            let messages_before = sim.metrics().messages_sent();
            let (write_rounds, written) = commit_one_write(&mut sim, 42);
            let reader = ProcessId::new(1);
            let reads_before = sim.process(reader).expect(ADDED).reads_committed();
            sim.process_mut(reader)
                .expect(ADDED)
                .submit_read(RegisterId::new(1));
            let (read_rounds, read) = run_until_reached(&mut sim, 1000, |s| {
                s.process(reader).expect(ADDED).reads_committed() > reads_before
            });
            Row::new(written && read)
                .with_param("members", n)
                .with_param("seed", seed)
                .with_count("write_rounds", write_rounds)
                .with_count("read_rounds", read_rounds)
                .with_count("messages", sim.metrics().messages_sent() - messages_before)
        })
        .collect()
}

fn e12_quorum_systems() -> Vec<Row> {
    let seed = 71;
    let mut rows = Vec::new();
    for n in [4u32, 9] {
        let columns = (n as f64).sqrt().ceil() as usize;
        for (name, quorum) in [
            ("majority", QuorumSystem::Majority),
            ("grid", QuorumSystem::Grid { columns }),
        ] {
            let min_quorum = quorum.minimum_quorum_size(&config_set(0..n)) as u64;
            let mut sim = steady_sharedmem_sim(n, quorum, seed);
            let (rounds, reached) = commit_one_write(&mut sim, 7);
            rows.push(
                Row::new(reached)
                    .with_param("members", n)
                    .with_param("quorums", name)
                    .with_param("seed", seed)
                    .with_count("write_rounds", rounds)
                    .with_count("min_quorum_size", min_quorum),
            );
        }
    }
    rows
}

/// The `partition-heal` catalog scenario for the default 40-round window,
/// or a stretched variant with the same `--plan` schedule.
fn partition_scenario(n: usize, duration: u64) -> Scenario {
    if duration == 40 {
        return catalog_scenario("partition-heal", n);
    }
    let scenario = Scenario::new(format!("partition-heal-{duration}"), n)
        .describe("halves split, stretched heal")
        .with_rounds(4_000)
        .with_workload_until(70 + duration);
    apply_spec(scenario, &format!("split=30 heal={}", 30 + duration))
        .expect("a valid --plan schedule")
}

fn e13_partition_recovery() -> Vec<Row> {
    [(4usize, 40u64), (6, 40), (6, 100), (6, 300)]
        .into_iter()
        .map(|(n, duration)| {
            let seed = 81;
            let run = run_scenario_bench::<ReconfigNode>(&partition_scenario(n, duration), seed);
            // The runner counts convergence only after the last fault, so
            // the rounds include the partition window.
            Row::new(run.converged && run.invariant_violations.is_empty())
                .with_param("n", n)
                .with_param("partition_rounds", duration)
                .with_param("seed", seed)
                .with_count(
                    "rounds_to_reconverge",
                    run.rounds_to_convergence.unwrap_or(0),
                )
                .with_count("splits", run.counter("splits"))
        })
        .collect()
}
