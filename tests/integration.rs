//! E1 and E2 where the experiment table does not reach: at n = 128, and over
//! lossy, delaying links.
//!
//! `bench::experiments` checks Theorems 3.15 and 3.16 (E1, E2) on loss-free
//! links at n ≤ 24. Each test here checks the same predicate at a scope no
//! row, catalog cell or other test covers; its doc comment says which.

use bench::fresh_reconfig_sim;
use reconfig::{config_set, converged_config, NodeConfig, ReconfigNode};
use simnet::{ProcessId, SimConfig, Simulation};

/// E1 at n = 128, where the table stops at 24: a 128-process cluster
/// bootstraps from `⊥` to `{p0 … p127}` and calms down within 16 rounds.
/// Guards the `(N,Θ)` calibration of `NodeConfig::for_n` (a too-tight `Θ`
/// makes large clusters suspect live peers spuriously, and the brute-force
/// reset then never completes) and the shared-payload message path that
/// makes this scale affordable in CI.
#[test]
fn e1_large_scale_bootstrap_from_bottom() {
    let n: u32 = 128;
    let mut sim = fresh_reconfig_sim(n, SimConfig::default().with_seed(7).with_max_delay(0));
    assert_eq!(converged_config(&sim), None, "must start unconverged");
    let rounds = sim.run_until(16, |s| {
        converged_config(s) == Some(config_set(0..n))
            && s.active_ids()
                .iter()
                .all(|id| s.process(*id).unwrap().no_reconfiguration())
    });
    assert!(rounds < 16, "128-process bootstrap did not converge");
}

/// E1 from `⊥` over links that lose 10 %, duplicate 5 %, delay up to 2
/// rounds and hold at most 8 packets. E1's rows are loss-free, and the lossy
/// test of `tests/stale_information.rs` starts from installed singleton
/// configurations, not from `⊥`.
#[test]
fn e1_convergence_under_lossy_network() {
    let mut sim = fresh_reconfig_sim(
        6,
        SimConfig::default()
            .with_seed(101)
            .with_loss_probability(0.1)
            .with_duplication_probability(0.05)
            .with_max_delay(2)
            .with_channel_capacity(8),
    );
    let rounds = sim.run_until(1500, |s| converged_config(s) == Some(config_set(0..6)));
    assert!(rounds < 1500, "did not converge under a lossy network");
}

/// E2 over links that lose 5 % and delay up to 1 round: a delicate
/// replacement installs exactly the proposed configuration. E2's rows are
/// loss-free.
#[test]
fn e2_delicate_replacement_end_to_end() {
    let mut sim = Simulation::new(
        SimConfig::default()
            .with_seed(103)
            .with_loss_probability(0.05)
            .with_max_delay(1),
    );
    for i in 0..5u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(
            id,
            ReconfigNode::new_with_config(id, config_set(0..5), NodeConfig::for_n(16)),
        );
    }
    sim.run_rounds(80);
    let target = config_set([0, 1, 2, 3]);
    assert!(sim
        .process_mut(ProcessId::new(2))
        .unwrap()
        .request_reconfiguration(target.clone()));
    let rounds = sim.run_until(1200, |s| converged_config(s) == Some(target.clone()));
    assert!(rounds < 1200, "delicate replacement did not complete");
}
