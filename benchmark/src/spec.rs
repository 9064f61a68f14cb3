//! The benchmark's declaration: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is this table rendered (`benchmark manifest`); a test keeps the two
//! equal.

use simnet::report::Json;

/// How long one run measures, in seconds (`run_seconds` of the manifest).
/// Workload sizes are a fixed function of `--seconds`, so the same seed and
/// the same seconds always execute the same simulated work.
pub const RUN_SECONDS: u64 = 10;

/// One workload: a name and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const STEADY: &str = "steady-n256";
pub const CAMPAIGN: &str = "campaign-n8";
pub const OPS: &str = "ops-n24";
pub const LIVE: &str = "live-n4";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: STEADY,
        why: "n=256 reconfig rounds: n^2 cheap broadcasts, so simnet scheduler, network and payload dominate",
    },
    Workload {
        name: CAMPAIGN,
        why: "14 fault scenarios x 4 stacks x n=4..8 via Campaign: many tiny systems, so the scenario runner per cell is the cost, not one big network",
    },
    Workload {
        name: OPS,
        why: "open-loop client ops on counter, sharedmem and smr at n=24: layers above recSA and the linearizability checker dominate",
    },
    Workload {
        name: LIVE,
        why: "closed-loop ops on 4 real sharedmem processes over loopback TCP: the only user of codec, frames, sockets and control plane",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with tracing off, and
/// guarded by `bound` (the share of the baseline median it may worsen by).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const NS_PER_MSG: &str = "ns_per_msg";
pub const WORK_PER_S: &str = "work_per_s";
pub const RESPONSE_TICKS_P50: &str = "response_ticks_p50";
pub const MSGS_PER_WORK: &str = "msgs_per_work";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// The end-to-end metrics. Every one is defined on every workload (the
/// README's table says what it means on each), because the benchmark
/// contract compares each metric on each workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: NS_PER_MSG,
        unit: "ns",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: WORK_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: RESPONSE_TICKS_P50,
        unit: "tick",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: MSGS_PER_WORK,
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload's traced run (0 where the
/// layer does no work on that workload), no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, grouped by the module that does the work.
pub const PER_LAYER: &[PerLayer] = &[
    // simnet: scheduler + network + channels + payload arena, as self time
    // of a round (round wall minus the node calls inside it), and the exact
    // work counts of `simnet::Metrics`.
    lower("simnet.self_ns_per_msg", "ns"),
    lower("simnet.round_wall_ms_p50", "ms"),
    lower("simnet.round_wall_ms_max", "ms"),
    lower("simnet.messages_sent", "count"),
    lower("simnet.messages_delivered", "count"),
    lower("simnet.messages_lost", "count"),
    lower("simnet.timer_steps", "count"),
    lower("simnet.wakeups", "count"),
    lower("simnet.delivery_batches", "count"),
    lower("simnet.channel_visits", "count"),
    // The composite `on_timer` path of each stack, sub-layers included.
    lower("reconfig.poll_ns_per_call", "ns"),
    lower("reconfig.poll_calls", "count"),
    lower("counters.poll_ns_per_call", "ns"),
    lower("counters.poll_calls", "count"),
    lower("vssmr.poll_ns_per_call", "ns"),
    lower("vssmr.poll_calls", "count"),
    lower("sharedmem.poll_ns_per_call", "ns"),
    lower("sharedmem.poll_calls", "count"),
    // `on_message` by wire lane.
    lower("failure-detector.handle_ns_per_msg", "ns"),
    lower("failure-detector.handle_msgs", "count"),
    lower("failure-detector.bytes_per_msg", "B"),
    lower("reconfig.recsa.handle_ns_per_msg", "ns"),
    lower("reconfig.recsa.handle_msgs", "count"),
    lower("reconfig.recsa.bytes_per_msg", "B"),
    lower("reconfig.recma.handle_ns_per_msg", "ns"),
    lower("reconfig.recma.handle_msgs", "count"),
    lower("reconfig.recma.bytes_per_msg", "B"),
    lower("reconfig.join.handle_ns_per_msg", "ns"),
    lower("reconfig.join.handle_msgs", "count"),
    lower("reconfig.join.bytes_per_msg", "B"),
    lower("labels.handle_ns_per_msg", "ns"),
    lower("labels.handle_msgs", "count"),
    lower("labels.bytes_per_msg", "B"),
    lower("counters.handle_ns_per_msg", "ns"),
    lower("counters.handle_msgs", "count"),
    lower("counters.bytes_per_msg", "B"),
    lower("vssmr.handle_ns_per_msg", "ns"),
    lower("vssmr.handle_msgs", "count"),
    lower("vssmr.bytes_per_msg", "B"),
    lower("sharedmem.handle_ns_per_msg", "ns"),
    lower("sharedmem.handle_msgs", "count"),
    lower("sharedmem.bytes_per_msg", "B"),
    // Protocol progress, exact, from public accessors.
    lower("reconfig.recma_triggerings", "count"),
    lower("reconfig.resets_started", "count"),
    lower("reconfig.delicate_installs", "count"),
    lower("vssmr.views_installed", "count"),
    higher("vssmr.commands_applied", "count"),
    higher("sharedmem.reads_committed", "count"),
    higher("sharedmem.writes_committed", "count"),
    lower("sharedmem.ops_aborted", "count"),
    lower("sharedmem.syncs_sent", "count"),
    // Per op-serving stack: the runner's op latency and the cell's wall.
    lower("counters.op_p50_rounds", "tick"),
    lower("counters.op_p99_rounds", "tick"),
    lower("counters.cell_wall_s", "s"),
    lower("sharedmem.op_p50_rounds", "tick"),
    lower("sharedmem.op_p99_rounds", "tick"),
    lower("sharedmem.cell_wall_s", "s"),
    lower("vssmr.op_p50_rounds", "tick"),
    lower("vssmr.op_p99_rounds", "tick"),
    lower("vssmr.cell_wall_s", "s"),
    // The campaign path, one span per public per-cell phase.
    lower("simnet.scenario.build_ms_per_cell", "ms"),
    lower("simnet.scenario.run_ms_per_cell", "ms"),
    lower("simnet.report.render_ms", "ms"),
    lower("simnet.campaign.cell_wall_ms_p50", "ms"),
    lower("simnet.campaign.cell_wall_ms_p95", "ms"),
    lower("simnet.campaign.wall_share.reconfig", "%"),
    lower("simnet.campaign.wall_share.counter", "%"),
    lower("simnet.campaign.wall_share.smr", "%"),
    lower("simnet.campaign.wall_share.sharedmem", "%"),
    lower("simnet.campaign.converge_rounds_p50", "tick"),
    lower("simnet.campaign.converge_rounds_max", "tick"),
    higher("simnet.exec.parallel_speedup", "x"),
    higher("simnet.exec.jobs", "count"),
    // The linearizability checker: cell wall with histories minus without.
    lower("simnet.linearize.check_s.counter", "s"),
    lower("simnet.linearize.check_s.sharedmem", "s"),
    higher("simnet.linearize.ops_checked", "count"),
    // Wire: codec and framing against in-memory buffers.
    lower("simnet.codec.encode_ns_per_msg", "ns"),
    lower("simnet.codec.decode_ns_per_msg", "ns"),
    lower("simnet.codec.bytes_per_msg", "B"),
    lower("livenet.frame.write_ns_per_frame", "ns"),
    lower("livenet.frame.read_ns_per_frame", "ns"),
    // The live runtime, from outside: /proc and the nodes' `status` replies.
    lower("livenet.runtime.boot_ms", "ms"),
    lower("livenet.control.rtt_us_p50", "us"),
    lower("livenet.runtime.frames_per_op", "count"),
    lower("livenet.runtime.cpu_us_per_frame", "us"),
    higher("livenet.runtime.tick_rate_ratio", "ratio"),
    lower("livenet.runtime.drops", "count"),
    lower("livenet.runtime.decode_errors", "count"),
    lower("livenet.runtime.op_p50_ms", "ms"),
    lower("livenet.runtime.op_p99_ms", "ms"),
    lower("livenet.runtime.kill_max_gap_ms", "ms"),
    lower("livenet.runtime.resettle_ms", "ms"),
    lower("livenet.runtime.forced_kills", "count"),
    // The instrument itself.
    lower("trace.overhead_pct", "%"),
    lower("trace.unattributed_pct", "%"),
    higher("trace.spans", "count"),
];

#[cfg(test)]
/// Whether `name` is a legal metric or workload name under the benchmark
/// contract: starts with a letter or digit, at most 64 of letters, digits,
/// `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a legal unit: 1 to 16 of letters, digits, `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The declared name and unit of a metric, end-to-end or per-layer.
pub fn declared(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    Json::obj()
        .field(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        )
        .field("paths", strings(&["benchmark"]))
        .field("run_seconds", RUN_SECONDS)
        .field(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj().field("name", w.name).field("why", w.why))
                    .collect(),
            ),
        )
        .field(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .field("name", m.name)
                            .field("unit", m.unit)
                            .field("better", m.better.as_str())
                            .field("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .field(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .field("name", m.name)
                            .field("unit", m.unit)
                            .field("better", m.better.as_str())
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_obey_the_contract_charset() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name `{name}`");
            assert!(seen.insert(name), "name `{name}` used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit `{unit}`");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "accepted `{bad}`");
        }
        assert!(valid_name("failure-detector.handle_ns_per_msg"));
        assert!(valid_name("9lives"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("ms per op"));
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end(SETUP_S).expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().render().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest`"
        );
    }
}
