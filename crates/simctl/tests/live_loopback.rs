//! Loopback conformance for the live backend: boot real OS processes over
//! real localhost sockets via `simctl deploy`, replay catalog scenarios
//! with `simctl drive`, and assert the same per-class runner invariants
//! the simulator enforces — convergence, no id resurrection after a real
//! `kill -9`, slow-not-dead under timer degradation, and client ops
//! completing under open-loop load — reported under the simulator's
//! counter keys.

use livenet::ControlClient;
use simnet::report::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

const SIMCTL: &str = env!("CARGO_BIN_EXE_simctl");

static NEXT: AtomicU32 = AtomicU32::new(0);

fn unique_path(tag: &str) -> PathBuf {
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("live-loopback-{}-{seq}-{tag}", std::process::id()))
}

/// A deployed cluster that tears itself down even when an assertion
/// panics: graceful `simctl down` first, then `kill -9` straight from the
/// pids recorded in the cluster file, then delete the file.
struct Cluster {
    file: PathBuf,
}

impl Cluster {
    fn deploy(kind: &str, n: usize) -> Cluster {
        Cluster::deploy_with(kind, n, &[])
    }

    fn deploy_with(kind: &str, n: usize, extra: &[&str]) -> Cluster {
        let file = unique_path("cluster.json");
        let cluster = Cluster { file };
        let output = Command::new(SIMCTL)
            .args(["deploy", "--node", kind, "--n", &n.to_string()])
            .args(extra)
            .arg("--cluster")
            .arg(&cluster.file)
            .output()
            .expect("spawning simctl deploy");
        assert!(
            output.status.success(),
            "deploy {kind} n={n} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        cluster
    }

    fn path(&self) -> &Path {
        &self.file
    }

    /// One control connection per node, in id order.
    fn connect(&self) -> Vec<ControlClient> {
        let spec = livenet::ClusterSpec::load(&self.file).expect("cluster file");
        spec.nodes
            .iter()
            .map(|node| {
                ControlClient::connect(&node.control_addr(), Duration::from_secs(2))
                    .expect("control connection")
            })
            .collect()
    }

    /// Blocks until every node has taken a timer step and reports `settled`,
    /// and their settle tokens agree by `simctl drive`'s rule
    /// (`tokens_agree`). (An initial member is settled as spawned; it
    /// is its first step that synchronises its store towards the
    /// configuration and makes it ready to serve.)
    fn wait_settled(&self, nodes: &mut [ControlClient]) {
        let deadline = Instant::now() + Duration::from_secs(90);
        loop {
            let statuses: Vec<Json> = nodes
                .iter_mut()
                .map(|node| node.request("status").expect("status"))
                .collect();
            let settled = statuses.iter().all(|s| {
                s.get("settled").and_then(Json::as_bool) == Some(true)
                    && s.get("ticks").and_then(Json::as_u64) >= Some(1)
            });
            let tokens: Vec<String> = statuses
                .iter()
                .map(|s| {
                    let hex = s.get("token").and_then(Json::as_str).expect("token");
                    String::from_utf8(livenet::hex_decode(hex).expect("hex token"))
                        .expect("utf-8 token")
                })
                .collect();
            if settled && simnet::scenario::tokens_agree(&tokens) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "cluster never settled: {statuses:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// The timer period of the slow-tick clusters below, and the bound an op
/// must beat on them: half a period. The two-phase exchange itself takes
/// well under a millisecond on loopback, so an op that needs ≥ 100 ms sat
/// in the node's queue waiting for a timer tick.
const SLOW_TICK_MS: u64 = 200;
const HALF_TICK: Duration = Duration::from_millis(SLOW_TICK_MS / 2);

fn submit(node: &mut ControlClient, key: u64, value: u64) {
    let reply = node
        .request(&format!("submit {key} {value}"))
        .expect("submit");
    assert_eq!(
        reply.get("accepted").and_then(Json::as_bool),
        Some(true),
        "submit refused: {reply:?}"
    );
}

/// Polls `claim` every millisecond until one completion is claimed `ok`;
/// panics when `deadline` passes first.
fn claim_ok_before(node: &mut ControlClient, deadline: Instant, what: &str) {
    loop {
        let reply = node.request("claim").expect("claim");
        if reply.get("claimed").and_then(Json::as_bool) == Some(true) {
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{what}: the op failed: {reply:?}"
            );
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: not claimed within half a {SLOW_TICK_MS} ms tick — it waited for the timer"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// On a cluster whose timer ticks every 200 ms, ops at p0 cost message
/// delays, not timer periods: five closed-loop ops each complete within
/// half a tick (started by the submit itself), and so do three ops
/// submitted back to back (the second and third are started by the packet
/// that completes their predecessor).
fn ops_do_not_wait_for_the_timer(kind: &str) {
    let tick = SLOW_TICK_MS.to_string();
    let cluster = Cluster::deploy_with(kind, 4, &["--tick-ms", &tick]);
    let mut nodes = cluster.connect();
    cluster.wait_settled(&mut nodes);
    let p0 = &mut nodes[0];

    for i in 0..5u64 {
        let submitted = Instant::now();
        submit(p0, i, 3 * i + 1);
        claim_ok_before(
            p0,
            submitted + HALF_TICK,
            &format!("{kind} closed-loop op {i}"),
        );
    }

    let submitted = Instant::now();
    for i in 0..3u64 {
        // One write, one read, one write.
        submit(p0, i, 100 + i);
    }
    for i in 0..3 {
        claim_ok_before(p0, submitted + HALF_TICK, &format!("{kind} queued op {i}"));
    }
}

#[test]
fn sharedmem_ops_start_on_submission_not_on_the_next_tick() {
    ops_do_not_wait_for_the_timer("sharedmem");
}

#[test]
fn counter_ops_start_on_submission_not_on_the_next_tick() {
    ops_do_not_wait_for_the_timer("counter");
}

/// A `claim` on a connection with an unclaimed `submit` of its own waits
/// for the completion: on a 200 ms-tick `sharedmem` cluster, each of 20
/// closed-loop ops at p0 is claimed `ok` by the first `claim` after its
/// `submit`. A `claim` on a fresh connection that submitted nothing does
/// not wait: it answers `claimed: false` well inside the tick.
#[test]
fn the_first_claim_after_a_submit_claims_the_op() {
    let tick = SLOW_TICK_MS.to_string();
    let cluster = Cluster::deploy_with("sharedmem", 4, &["--tick-ms", &tick]);
    let mut nodes = cluster.connect();
    cluster.wait_settled(&mut nodes);
    let p0 = &mut nodes[0];
    for i in 0..20u64 {
        submit(p0, i, 3 * i + 1);
        let reply = p0.request("claim").expect("claim");
        assert_eq!(
            reply.get("claimed").and_then(Json::as_bool),
            Some(true),
            "op {i}: the first claim after its submit claimed nothing: {reply:?}"
        );
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "op {i} failed: {reply:?}"
        );
    }

    let spec = livenet::ClusterSpec::load(cluster.path()).expect("cluster file");
    let mut fresh = ControlClient::connect(&spec.nodes[0].control_addr(), Duration::from_secs(2))
        .expect("control connection");
    let asked = Instant::now();
    let reply = fresh.request("claim").expect("claim");
    assert_eq!(
        reply.get("claimed").and_then(Json::as_bool),
        Some(false),
        "{reply:?}"
    );
    assert!(
        asked.elapsed() < HALF_TICK / 2,
        "a claim from a connection that submitted nothing waited {:?}",
        asked.elapsed()
    );
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let _ = Command::new(SIMCTL)
            .arg("down")
            .arg("--cluster")
            .arg(&self.file)
            .output();
        if let Ok(text) = std::fs::read_to_string(&self.file) {
            if let Ok(json) = Json::parse(&text) {
                for node in json.get("nodes").and_then(Json::as_arr).unwrap_or(&[]) {
                    if let Some(pid) = node.get("pid").and_then(Json::as_u64) {
                        let _ = Command::new("kill").args(["-9", &pid.to_string()]).output();
                    }
                }
            }
        }
        // Sweep the cluster spec and the per-node stderr logs beside it.
        let stem = self
            .file
            .file_stem()
            .and_then(|s| s.to_str())
            .map(String::from);
        let _ = std::fs::remove_file(&self.file);
        if let (Some(stem), Some(dir)) = (stem, self.file.parent()) {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    if entry.file_name().to_string_lossy().starts_with(&stem) {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
    }
}

/// Drive one scenario against a deployed cluster and return the single
/// RunRecord-shaped entry from the report, asserting the drive passed.
fn drive(cluster: &Cluster, scenario: &str, clients: u64) -> Json {
    let out = unique_path(&format!("{scenario}.json"));
    let output = Command::new(SIMCTL)
        .args(["drive", scenario])
        .arg("--cluster")
        .arg(cluster.path())
        .args(["--clients", &clients.to_string()])
        .args([
            "--arrival",
            "poisson:2",
            "--seed",
            "7",
            "--timeout-secs",
            "60",
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawning simctl drive");
    assert!(
        output.status.success(),
        "drive {scenario} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("reading drive report");
    let _ = std::fs::remove_file(&out);
    let report = Json::parse(&text).expect("drive report is valid json");
    assert_eq!(report.get("live").and_then(Json::as_bool), Some(true));
    let runs = report
        .get("runs")
        .and_then(Json::as_arr)
        .expect("runs array");
    assert_eq!(runs.len(), 1, "one live run per drive");
    let run = runs[0].clone();
    assert_simulator_counter_keys(&run, scenario);
    run
}

/// A live record speaks the simulator's counter vocabulary: exactly the
/// load engine's keys, the keys the scenario's faults register (zero
/// included, as a simulated cell starts them) and the live-only
/// `live_converged_ms`.
fn assert_simulator_counter_keys(run: &Json, scenario: &str) {
    let n = run.get("n").and_then(Json::as_u64).expect("n") as usize;
    let mut expected: Vec<String> = simnet::scenario::find(scenario, n)
        .expect("a catalog scenario")
        .zeroed_counters()
        .into_keys()
        .chain(simnet::load::COUNTER_KEYS.map(String::from))
        .chain(["live_converged_ms".to_string()])
        .collect();
    expected.sort();
    let Some(Json::Obj(counters)) = run.get("counters") else {
        panic!("{scenario}: no counters object: {run:?}");
    };
    let mut keys: Vec<String> = counters.iter().map(|(key, _)| key.clone()).collect();
    keys.sort();
    assert_eq!(keys, expected, "{scenario}: live counter keys");
}

fn counter(run: &Json, key: &str) -> u64 {
    run.get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn assert_clean(run: &Json, scenario: &str) {
    assert_eq!(
        run.get("converged").and_then(Json::as_bool),
        Some(true),
        "{scenario}: cluster never converged: {run:?}"
    );
    let violations = run
        .get("invariant_violations")
        .and_then(Json::as_arr)
        .expect("invariant_violations array");
    assert!(
        violations.is_empty(),
        "{scenario}: live invariant violations: {violations:?}"
    );
    assert!(
        counter(run, "ops_completed") > 0,
        "{scenario}: no client ops completed under load: {run:?}"
    );
    assert_eq!(
        run.get("decode_errors").and_then(Json::as_u64),
        Some(0),
        "{scenario}: wire decode errors on loopback: {run:?}"
    );
}

#[test]
fn quiescent_cluster_converges_over_real_sockets() {
    let cluster = Cluster::deploy("reconfig", 4);
    let run = drive(&cluster, "quiescent", 3);
    assert_clean(&run, "quiescent");
    // Convergence over sockets still means real traffic flowed.
    assert!(
        run.get("messages_delivered")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
    );

    // Simulator-only scenarios must be refused up front, not hang the
    // cluster: partitions cannot be faithfully injected into live TCP.
    let refused = Command::new(SIMCTL)
        .args(["drive", "partition-heal"])
        .arg("--cluster")
        .arg(cluster.path())
        .output()
        .expect("spawning simctl drive");
    assert!(!refused.status.success());
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("simulator-only"),
        "refusal should explain the scenario is simulator-only: {stderr}"
    );
}

#[test]
fn crash_minority_survives_a_real_kill_minus_nine() {
    let cluster = Cluster::deploy("counter", 4);
    let run = drive(&cluster, "crash-minority", 3);
    assert_clean(&run, "crash-minority");
    assert!(
        counter(&run, "crashes") >= 1,
        "crash adapter never fired: {run:?}"
    );
    // The victim was really killed: the cluster file no longer lists it,
    // and the no-resurrection probe (already asserted clean above) proved
    // its control port went dark for good.
    let text = std::fs::read_to_string(cluster.path()).expect("cluster file");
    let spec = Json::parse(&text).expect("cluster file is valid json");
    let nodes = spec.get("nodes").and_then(Json::as_arr).expect("nodes");
    assert!(
        nodes.len() < 4,
        "killed node still listed in the cluster file: {text}"
    );
}

#[test]
fn gray_lag_keeps_slowed_nodes_alive() {
    let cluster = Cluster::deploy("smr", 4);
    let run = drive(&cluster, "gray-lag", 3);
    assert_clean(&run, "gray-lag");
    // SetTimer faults went through the live control plane, and the
    // slow-not-dead invariant (asserted clean above) watched the slowed
    // nodes keep stepping.
    assert!(
        counter(&run, "slowdowns") >= 1,
        "timer adapter never fired: {run:?}"
    );
}

#[test]
fn clock_skew_keeps_the_skewed_node_stepping() {
    let cluster = Cluster::deploy("sharedmem", 4);
    let run = drive(&cluster, "clock-skew", 3);
    // The skew stays in force through convergence. Slow-not-dead (asserted
    // clean here) applies the simulator's rule: once two skewed periods
    // have passed, the victim has stepped since it was slowed.
    assert_clean(&run, "clock-skew");
    assert!(
        counter(&run, "slowdowns") >= 1,
        "timer adapter never fired: {run:?}"
    );
}
