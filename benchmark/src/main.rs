//! The repository's benchmark: four workloads on both backends, end-to-end
//! metrics with regression bounds, and a separate traced run that attributes
//! time to layers. See `README.md` next to this package.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (the contract `BENCHMARK.json` names)
//! benchmark suite --out FILE [--runs N] [--seed N]          every workload N times into a result file
//! benchmark compare A.json B.json                            two result files against the bounds
//! benchmark manifest                                         print BENCHMARK.json
//! ```

mod campaign;
mod harness;
mod layers;
mod live;
mod machine;
mod ops;
mod results;
mod spec;
mod stats;
mod steady;
mod timed;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::RunArgs;

const USAGE: &str = "usage:
  benchmark --workload <steady-n256|campaign-n8|ops-n24|live-n4> [--seed N] [--seconds S] [--trace 0|1]
  benchmark suite --out FILE [--runs N] [--seed N] [--seconds S]
  benchmark compare A.json B.json
  benchmark manifest";

/// `--name value` pairs after the subcommand; anything else is an error.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unexpected argument `{arg}`\n{USAGE}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("`--{name}` needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.iter().rev().find(|(n, _)| n == name) {
        Some((_, v)) => v.parse().map_err(|_| format!("bad --{name} value `{v}`")),
        None => default.ok_or_else(|| format!("missing --{name}\n{USAGE}")),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let flags = flags(args, &["workload", "seed", "seconds", "trace"])?;
    let run = RunArgs {
        workload: flag(&flags, "workload", None)?,
        seed: flag(&flags, "seed", Some(1))?,
        seconds: flag(&flags, "seconds", Some(spec::RUN_SECONDS))?,
        trace: match flag::<u8>(&flags, "trace", Some(0))? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        },
    };
    if !(1..=60).contains(&run.seconds) {
        return Err(format!("--seconds must be 1..=60, not {}", run.seconds));
    }
    Ok(run)
}

/// Runs one workload and prints its report; the result line is the last
/// line of standard output. Any failed check is an error: no metrics are
/// printed and the exit code is non-zero.
fn run_once(args: &RunArgs) -> Result<(), String> {
    // Whichever workload runs first in a checkout builds everything: cargo
    // built this binary, this builds `simctl` (a no-op from then on). Only
    // `live-n4` runs `simctl`; the simulator workloads measure this binary,
    // so for them a `simctl` that does not build is a warning, not a failure.
    let simctl = live::ensure_simctl();
    if let (Err(why), true) = (&simctl, args.workload != spec::LIVE) {
        eprintln!("benchmark: warning: {why} (only `{}` needs it)", spec::LIVE);
    }
    let outcome = match args.workload.as_str() {
        spec::STEADY => steady::run(args),
        spec::CAMPAIGN => campaign::run(args),
        spec::OPS => ops::run(args),
        spec::LIVE => live::run(args, &simctl?),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }?;
    print!("{}", harness::report(args, &outcome)?);
    Ok(())
}

/// Writes a traced pass's spans next to the build artefacts.
fn write_trace(args: &RunArgs, spans: &str) -> Result<PathBuf, String> {
    let dir = machine::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest().render());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => results::compare_files(a.as_ref(), b.as_ref()),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        Some("suite") => {
            let flags = flags(&args[1..], &["out", "runs", "seed", "seconds"])?;
            results::suite(
                &flag::<PathBuf>(&flags, "out", None)?,
                flag(&flags, "runs", Some(3))?,
                flag(&flags, "seed", Some(1))?,
                flag(&flags, "seconds", Some(spec::RUN_SECONDS))?,
            )?;
            Ok(true)
        }
        Some(_) => run_once(&parse_run(args)?).map(|()| true),
        None => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
