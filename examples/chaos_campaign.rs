//! A chaos campaign from code: sweep the scenario catalog over the SMR
//! stack, print the per-run outcomes and the deterministic JSON report.
//!
//! The same sweep is available from the command line:
//!
//! ```text
//! cargo run --release -p simctl -- run all --node smr --n 5 --seeds 1,2
//! ```
//!
//! Run with: `cargo run --release --example chaos_campaign`

use selfstab_reconfig::replication::SmrNode;
use selfstab_reconfig::sim::scenario::catalog;
use selfstab_reconfig::sim::Campaign;

fn main() {
    let scenarios = catalog(5);
    println!("catalog:");
    for s in &scenarios {
        println!("  {:<16} {}", s.name(), s.description());
    }

    // Every cell runs once and records one canonical result; a debug build
    // also checks, every round, that the scheduler visits exactly the due
    // processes.
    let report = Campaign::new("example")
        .with_seeds([1, 2])
        .run::<SmrNode>(&scenarios);

    println!();
    for run in &report.runs {
        let counters: Vec<String> = run
            .counters
            .iter()
            .map(|(key, value)| format!("{key}={value}"))
            .collect();
        println!(
            "{:<16} seed={} converged={} rounds={:<4} msgs={:<6} {}",
            run.scenario,
            run.seed,
            run.converged,
            run.rounds_run,
            run.messages_sent,
            counters.join(" "),
        );
    }
    println!();
    println!("passed: {}", report.passed());
    println!("{}", report.render());
}
