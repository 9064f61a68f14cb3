//! Result files and their comparison: `benchmark suite` runs every workload
//! (each run in its own child process, so memory high-water marks are per
//! run) and stores the result lines under a machine descriptor;
//! `benchmark compare` judges two such files against the metrics' bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use simnet::report::Json;

use crate::harness::json_number;
use crate::spec::{self, Better};
use crate::{live, machine, stats};

/// `Json::render` prints floats with three decimals; a result file keeps
/// every digit a measurement had.
fn render(json: &Json, out: &mut String, indent: usize) {
    let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
    match json {
        Json::Float(f) => out.push_str(&json_number(*f)),
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, indent + 1);
                render(item, out, indent + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, indent);
            out.push(']');
        }
        Json::Obj(fields) if !fields.is_empty() => {
            // One line per leaf object keeps a run's metrics greppable.
            let flat = fields
                .iter()
                .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if !flat {
                    out.push('\n');
                    pad(out, indent + 1);
                }
                out.push_str(Json::from(key.as_str()).render().trim_end());
                out.push_str(": ");
                render(value, out, indent + 1);
                if i + 1 < fields.len() {
                    out.push_str(if flat { ", " } else { "," });
                }
            }
            if !flat {
                out.push('\n');
                pad(out, indent);
            }
            out.push('}');
        }
        scalar => out.push_str(scalar.render().trim_end()),
    }
}

pub fn render_file(json: &Json) -> String {
    let mut out = String::new();
    render(json, &mut out, 0);
    out.push('\n');
    out
}

/// Runs this binary once under the contract's arguments and returns its
/// result line, parsed.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {}: {}",
            trace as u8, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let result = Json::parse(line)?;
    Ok(Json::obj()
        .field("workload", workload)
        .field("seed", seed)
        .field("trace", trace as u64)
        .field(
            "attempted",
            result.get("attempted").cloned().unwrap_or(Json::Null),
        )
        .field(
            "failed",
            result.get("failed").cloned().unwrap_or(Json::Null),
        )
        .field(
            "metrics",
            result.get("metrics").cloned().unwrap_or(Json::Null),
        ))
}

/// `benchmark suite`: `runs` seeds × every workload × untraced and traced.
pub fn suite(out: &Path, runs: u64, seed: u64, seconds: u64) -> Result<(), String> {
    let mut results = Vec::new();
    for run in 0..runs {
        for workload in &spec::WORKLOADS {
            for trace in [false, true] {
                eprintln!(
                    "suite: {} seed {} trace {}",
                    workload.name,
                    seed + run,
                    trace as u8
                );
                results.push(child_run(workload.name, seed + run, seconds, trace)?);
            }
        }
    }
    let file = Json::obj()
        .field("machine", machine::descriptor(seed, live::TICK_MS))
        .field("seconds", seconds)
        .field("runs", results);
    std::fs::write(out, render_file(&file))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("suite: wrote {}", out.display());
    Ok(())
}

/// Every value of every (workload, metric) pair in a result file, in run
/// order; `traced` selects the per-layer runs.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn series(file: &Json, traced: bool) -> Result<Series, String> {
    let runs = file
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no `runs`")?;
    let mut out = Series::new();
    for run in runs {
        if (run.get("trace").and_then(Json::as_u64) == Some(1)) != traced {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{workload}: run without metrics"));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// How one end-to-end metric fared between two result sets.
#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// One side's own run-to-run spread exceeds the bound, so the medians
    /// cannot be told apart at this resolution.
    Unresolved,
}

/// `b` against the base `a`: the ratio of medians and the verdict under
/// `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<(f64, f64, f64, Verdict)> {
    let (base, new) = (stats::median(a)?, stats::median(b)?);
    let worse_by = match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    };
    let noisy = |v: &[f64]| stats::spread(v).is_some_and(|s| s > bound);
    let verdict = if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    Some((base, new, new / base, verdict))
}

/// Compares two parsed result files; returns the report and whether any
/// end-to-end metric regressed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut report = String::new();
    for (label, file) in [("A", a), ("B", b)] {
        let machine = file.get("machine").map(render_file);
        report.push_str(&format!(
            "{label}: {}",
            machine.unwrap_or_else(|| "no machine descriptor\n".into())
        ));
    }
    if a.get("machine").map(strip_seed) != b.get("machine").map(strip_seed) {
        report.push_str("note: the two sets were recorded on different machines or commits\n");
    }
    let mut regressed = false;
    let (ea, eb) = (series(a, false)?, series(b, false)?);
    report.push_str(&format!(
        "\n{:<14} {:<22} {:>14} {:>14} {:>8}  verdict (bound)\n",
        "workload", "end-to-end metric", "A median", "B median", "B/A"
    ));
    for ((workload, name), va) in &ea {
        let Some(metric) = spec::end_to_end(name) else {
            continue;
        };
        let Some(vb) = eb.get(&(workload.clone(), name.clone())) else {
            report.push_str(&format!("{workload:<14} {name:<22} missing from B\n"));
            regressed = true;
            continue;
        };
        let (base, new, ratio, verdict) =
            judge(va, vb, metric.better, metric.bound).ok_or("empty series")?;
        regressed |= verdict == Verdict::Regressed;
        report.push_str(&format!(
            "{workload:<14} {name:<22} {base:>14.4} {new:>14.4} {ratio:>8.3}  {verdict:?} ({:.0} %, n={}/{})\n",
            metric.bound * 100.0,
            va.len(),
            vb.len()
        ));
    }
    let (la, lb) = (series(a, true)?, series(b, true)?);
    report.push_str(&format!(
        "\n{:<14} {:<40} {:>14} {:>14} {:>8}\n",
        "workload", "per-layer metric (no bound)", "A median", "B median", "B/A"
    ));
    for ((workload, name), va) in &la {
        let Some(vb) = lb.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (base, new) = (
            stats::median(va).ok_or("empty series")?,
            stats::median(vb).ok_or("empty series")?,
        );
        if base == 0.0 && new == 0.0 {
            continue;
        }
        let ratio = if va == vb {
            "=".to_string()
        } else if base == 0.0 {
            "new".to_string()
        } else {
            format!("{:.3}", new / base)
        };
        report.push_str(&format!(
            "{workload:<14} {name:<40} {base:>14.4} {new:>14.4} {ratio:>8}\n"
        ));
    }
    Ok((report, regressed))
}

/// The machine descriptor without its seed (two sets may differ in seed and
/// still be comparable).
fn strip_seed(machine: &Json) -> Json {
    match machine {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "seed")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `benchmark compare A.json B.json`: prints the comparison; `Ok(false)`
/// (exit code 1) when an end-to-end metric regressed.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (report, regressed) = compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, trace: u64, metrics: &[(&str, f64, &str)]) -> Json {
        let mut obj = Json::obj();
        for (name, value, unit) in metrics {
            obj = obj.field(
                name,
                Json::obj().field("value", *value).field("unit", *unit),
            );
        }
        Json::obj()
            .field("workload", workload)
            .field("seed", seed)
            .field("trace", trace)
            .field("attempted", 10u64)
            .field("failed", 0u64)
            .field("metrics", obj)
    }

    fn file(ns_per_msg: [f64; 3]) -> Json {
        let mut runs = Vec::new();
        for (i, ns) in ns_per_msg.iter().enumerate() {
            runs.push(run(
                spec::STEADY,
                i as u64,
                0,
                &[
                    (spec::NS_PER_MSG, *ns, "ns"),
                    (spec::WORK_PER_S, 4.000123456789, "1/s"),
                ],
            ));
            runs.push(run(
                spec::STEADY,
                i as u64,
                1,
                &[("simnet.messages_sent", 7833600.0, "count")],
            ));
        }
        Json::obj()
            .field("machine", machine::descriptor(1, 2))
            .field("seconds", 10u64)
            .field("runs", runs)
    }

    #[test]
    fn result_files_round_trip_with_every_digit() {
        let original = file([1234.567891234, 1240.1, 1229.9]);
        let text = render_file(&original);
        assert!(text.contains("1234.567891234"), "{text}");
        assert!(text.contains("4.000123456789"));
        let parsed = Json::parse(&text).expect("result file parses");
        assert_eq!(
            series(&parsed, false).unwrap(),
            series(&original, false).unwrap()
        );
        assert_eq!(
            series(&parsed, true).unwrap(),
            series(&original, true).unwrap()
        );
        for key in ["nproc", "rustc", "commit", "kernel", "tick_ms", "seed"] {
            assert!(
                parsed.get("machine").and_then(|m| m.get(key)).is_some(),
                "no `{key}`"
            );
        }
    }

    #[test]
    fn compare_judges_against_the_bound_and_the_spread() {
        let base = Json::parse(&render_file(&file([1000.0, 1010.0, 990.0]))).unwrap();
        // The same set against itself: nothing moved.
        let (report, regressed) = compare(&base, &base).unwrap();
        assert!(!regressed, "{report}");
        assert!(report.contains("Same"));
        assert!(report.contains("simnet.messages_sent") && report.contains('='));
        // 30 % slower than a 15 % bound allows.
        let slow = file([1300.0, 1310.0, 1290.0]);
        let (report, regressed) = compare(&base, &slow).unwrap();
        assert!(regressed && report.contains("Regressed"), "{report}");
        // Better is not a regression.
        let (report, regressed) = compare(&slow, &base).unwrap();
        assert!(!regressed && report.contains("Improved"), "{report}");
        // A set that cannot tell 1000 from 1400 itself resolves nothing.
        let noisy = file([1000.0, 1400.0, 1800.0]);
        let (report, regressed) = compare(&base, &noisy).unwrap();
        assert!(!regressed && report.contains("Unresolved"), "{report}");
    }

    #[test]
    fn judge_respects_direction() {
        let (_, _, ratio, verdict) = judge(&[100.0], &[80.0], Better::Higher, 0.1).unwrap();
        assert_eq!((ratio, verdict), (0.8, Verdict::Regressed));
        let (_, _, _, verdict) = judge(&[100.0], &[80.0], Better::Lower, 0.1).unwrap();
        assert_eq!(verdict, Verdict::Improved);
        let (_, _, _, verdict) = judge(&[100.0], &[105.0], Better::Lower, 0.1).unwrap();
        assert_eq!(verdict, Verdict::Same);
        assert_eq!(judge(&[], &[1.0], Better::Lower, 0.1), None);
    }
}
