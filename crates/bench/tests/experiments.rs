//! The experiment table: `docs/EXPERIMENTS.md` is exactly what
//! `simctl experiments` prints, every row reached the predicate it waits
//! for, and every bound the code states holds.
//!
//! The experiments run once per test binary (`rows()`); each test reads
//! the shared result. After a deliberate change to an experiment,
//! regenerate the document with
//! `cargo run -q -p simctl -- experiments > docs/EXPERIMENTS.md`.

use std::sync::OnceLock;

use bench::experiments::{render, run, Row, EXPERIMENTS};
use simnet::SimConfig;

const COMMITTED: &str = include_str!("../../../docs/EXPERIMENTS.md");

fn rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(run)
}

fn rows_of(experiment: &str) -> impl Iterator<Item = &'static Row> + '_ {
    rows().iter().filter(move |r| r.experiment == experiment)
}

fn param(row: &Row, name: &str) -> u64 {
    row.param(name)
        .parse()
        .unwrap_or_else(|_| panic!("{} parameter `{name}` is not a number", row.experiment))
}

#[test]
fn the_committed_table_is_what_simctl_prints() {
    let table = render(rows());
    assert!(
        table == COMMITTED,
        "docs/EXPERIMENTS.md is stale; regenerate it with \
         `cargo run -q -p simctl -- experiments > docs/EXPERIMENTS.md`\n\
         --- committed\n{COMMITTED}\n--- measured\n{table}"
    );
}

#[test]
fn every_experiment_has_rows_and_every_row_reached_its_predicate() {
    for e in &EXPERIMENTS {
        assert!(rows_of(e.id).count() > 0, "{} has no rows", e.id);
    }
    for row in rows() {
        assert!(row.reached, "row did not reach its predicate: {row:?}");
    }
}

#[test]
fn every_stated_bound_holds() {
    for row in rows() {
        if let Some(bound) = &row.bound {
            assert!(
                row.count(bound.count) <= bound.limit,
                "{} > {} = {}: {row:?}",
                bound.count,
                bound.formula,
                bound.limit
            );
        }
    }
}

#[test]
fn e3_spurious_triggerings_stay_within_n_squared_cap() {
    let cap = SimConfig::default().channel_policy().capacity as u64;
    for row in rows_of("E3") {
        let n = param(row, "n");
        assert_eq!(row.bound.as_ref().map(|b| b.limit), Some(n * n * cap));
        assert!(row.count("triggerings") <= n * n * cap, "{row:?}");
    }
}

#[test]
fn e5_admits_every_joiner_without_changing_the_configuration() {
    for row in rows_of("E5") {
        assert_eq!(row.count("admitted"), param(row, "joiners"), "{row:?}");
        assert_eq!(row.count("config_changes"), 0, "{row:?}");
    }
}

#[test]
fn e6_label_creations_stay_within_the_stated_figures() {
    let m = SimConfig::default().channel_policy().capacity as u64;
    for row in rows_of("E6") {
        let n = param(row, "n");
        let limit = match row.param("state") {
            "clean" => n * n,
            "corrupted" => n * (n * n + m),
            other => panic!("unknown E6 state `{other}`"),
        };
        assert!(row.count("creations") <= limit, "{row:?}");
    }
}

#[test]
fn e7_every_increment_commits_including_across_exhaustion() {
    let bounds: Vec<&str> = rows_of("E7").map(|r| r.param("exhaustion_bound")).collect();
    assert!(bounds.contains(&"8") && bounds.contains(&"none"));
    for row in rows_of("E7") {
        assert_eq!(row.count("committed"), param(row, "increments"), "{row:?}");
    }
}

#[test]
fn e10_estimates_the_live_population_and_suspects_every_crashed_peer() {
    for row in rows_of("E10") {
        // The detector's own processor counts among the active.
        assert_eq!(
            row.count("estimate_active"),
            param(row, "live") + 1,
            "{row:?}"
        );
        assert_eq!(
            row.count("crashed_suspected"),
            param(row, "crashed"),
            "{row:?}"
        );
    }
}

#[test]
fn e13_every_partition_run_reconverges() {
    for row in rows_of("E13") {
        assert!(row.reached, "{row:?}");
        assert!(
            row.count("rounds_to_reconverge") > param(row, "partition_rounds"),
            "convergence is counted only after the heal: {row:?}"
        );
    }
}
