//! `Campaign` forks every cell from a fault-free prefix it runs once per
//! group of cells (`simnet::campaign`, "Shared prefixes"). That
//! must change no report byte: this renders the n = 4, 5 catalog matrix,
//! all four stacks, through `Campaign` and compares it with the cold
//! per-cell loop, in which every cell builds its simulation from ⊥ and runs
//! its scenario start to finish.

use bench::catalog_matrix_report;
use counters::CounterNode;
use reconfig::ReconfigNode;
use sharedmem::SharedMemNode;
use simnet::scenario::{catalog, run_scenario, ScenarioTarget};
use simnet::{CampaignReport, RunRecord, SchedulerMode};
use vssmr::SmrNode;

const NS: [usize; 2] = [4, 5];
const SEEDS: [u64; 2] = [1, 2];

/// One stack's cells at population `n`, each run cold, in the campaign's
/// enumeration order (scenario-major, seed-minor).
fn cold_cells<T: ScenarioTarget>(n: usize) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for scenario in catalog(n) {
        for seed in SEEDS {
            let mut sim = scenario.build_sim::<T>(seed, SchedulerMode::EventDriven);
            let run = run_scenario(&scenario, &mut sim);
            let metrics = sim.metrics();
            records.push(RunRecord {
                node: T::NAME.to_string(),
                scenario: scenario.name().to_string(),
                seed,
                n,
                rounds_run: run.rounds_run,
                converged: run.converged,
                rounds_to_convergence: run.rounds_to_convergence,
                counters: run.counters,
                messages_sent: metrics.messages_sent(),
                messages_delivered: metrics.messages_delivered(),
                messages_lost: metrics.messages_lost(),
                messages_duplicated: metrics.messages_duplicated(),
                timer_steps: metrics.timer_steps(),
                state_digest: run.state_digest,
                modes_agree: true,
                invariant_violations: run.invariant_violations,
                wall_ms: None,
                budget_overrun: None,
            });
        }
    }
    records
}

#[test]
fn forked_campaign_renders_the_cold_per_cell_report() {
    let mut cold = CampaignReport::new("catalog-matrix", SEEDS.to_vec());
    for n in NS {
        cold.runs.extend(cold_cells::<ReconfigNode>(n));
        cold.runs.extend(cold_cells::<CounterNode>(n));
        cold.runs.extend(cold_cells::<SmrNode>(n));
        cold.runs.extend(cold_cells::<SharedMemNode>(n));
    }
    let cold = cold.render();
    // At two workers a cell may fork a prefix another worker ran.
    for jobs in [1, 2] {
        assert_eq!(
            catalog_matrix_report(&NS, &SEEDS, jobs).render(),
            cold,
            "the forked campaign at jobs={jobs} differs from the cold cells"
        );
    }
}
