//! What the measurements were taken on, and the `/proc` readings the
//! benchmark takes from outside a process.

use std::path::{Path, PathBuf};
use std::process::Command;

use simnet::report::Json;

/// The repository root: the parent of this package's directory. Baked in at
/// build time, and the benchmark is always built inside the checkout it
/// measures.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

/// Where cargo puts the root workspace's artefacts (and so `simctl`):
/// `CARGO_TARGET_DIR` when set — relative values resolve against the
/// repository root, where the benchmark runs its cargo — else `target/`.
pub fn root_target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => repo_root().join(dir),
        None => repo_root().join("target"),
    }
}

/// Where the benchmark writes its own files (span traces, live cluster
/// directories): inside the build directory, which is inside the checkout
/// and ignored by git.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => repo_root().join(dir).join("bench-out"),
        None => repo_root().join("benchmark/target/bench-out"),
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The machine descriptor stored with every result: the ledger row header
/// that makes later rows comparable, or visibly not.
pub fn descriptor(seed: u64, tick_ms: u64) -> Json {
    let unknown = || "unknown".to_string();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| unknown());
    Json::obj()
        .field("nproc", simnet::exec::available_jobs())
        .field(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        )
        // A driver checkout is not a git repository; say so instead of
        // failing.
        .field(
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .field("kernel", kernel)
        .field("tick_ms", tick_ms)
        .field("seed", seed)
}

fn status_kb(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn own_peak_rss_mb() -> Option<f64> {
    status_kb("self", "VmHWM:").map(|kb| kb / 1024.0)
}

/// Peak resident set of another process in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_kb(&pid.to_string(), "VmHWM:").map(|kb| kb / 1024.0)
}

/// CPU time a process's threads have consumed so far, in nanoseconds: the
/// first field (time on a CPU) of every `/proc/<pid>/task/*/schedstat` —
/// the per-process file counts the main thread only.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0u64;
    for task in tasks.flatten() {
        let text = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        total += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}
