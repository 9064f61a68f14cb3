//! What every workload shares: its arguments, its outcome, repeated set-up,
//! and the result line the benchmark contract asks for.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spec;

/// The arguments of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One measured value and how many samples stand behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
}

/// What one run of one workload produced. A run that fails a correctness
/// check produces an `Err(String)` instead and prints no metrics.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Value>,
    /// Free-form lines for the human-readable report (inputs, link profile,
    /// approximations) — never parsed.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric. The name must be declared in [`spec`].
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let (declared, _) = spec::declared(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in spec.rs"));
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.metrics.insert(declared, Value { value, samples });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Whether a set of settle tokens agree: every `key=value` line is compared
/// per key across the nodes that report it; a node reports only the
/// components it has a stake in, and an empty token abstains (the rule of
/// `ScenarioTarget::settle_token`, as `simctl drive` applies it).
pub fn tokens_agree(tokens: impl IntoIterator<Item = String>) -> bool {
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for token in tokens {
        for line in token.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match seen.get(key) {
                Some(prior) if prior != value => return false,
                Some(_) => {}
                None => {
                    seen.insert(key.to_string(), value.to_string());
                }
            }
        }
    }
    true
}

/// Times a workload's set-ups. A workload sets up several times in a run
/// and reports the median, so that work moved into set-up shows and one slow
/// set-up does not.
#[derive(Default)]
pub struct SetupClock {
    seconds: Vec<f64>,
}

impl SetupClock {
    /// Runs and times one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let started = Instant::now();
        let input = setup()?;
        self.record(started.elapsed().as_secs_f64());
        Ok(input)
    }

    /// Records a set-up that was timed elsewhere.
    pub fn record(&mut self, seconds: f64) {
        self.seconds.push(seconds);
    }

    /// Median over the set-ups timed, in seconds.
    pub fn median(&self) -> Result<f64, String> {
        crate::stats::median(&self.seconds).ok_or_else(|| "the workload never set up".to_string())
    }

    /// Records the `setup_s` metric.
    pub fn report(&self, out: &mut Outcome) -> Result<(), String> {
        out.set(spec::SETUP_S, self.median()?, self.seconds.len() as u64);
        Ok(())
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::declared(name)
        .expect("Outcome::set only accepts declared metrics")
        .1
}

/// Formats a float with every digit it has (shortest representation that
/// round-trips), as JSON.
pub fn json_number(value: f64) -> String {
    let text = format!("{value}");
    // `{}` prints integral floats without a fraction ("12"); keep them
    // recognisably floats for readers that care, and never print "NaN".
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// The metrics a run must print: every end-to-end metric untraced, every
/// per-layer metric traced. A missing end-to-end metric is a bug in the
/// workload; a per-layer metric the workload never touched is a layer that
/// did no work in it, which is 0.
fn required(outcome: &Outcome, trace: bool) -> Result<Vec<(&'static str, Value)>, String> {
    if trace {
        Ok(spec::PER_LAYER
            .iter()
            .map(|m| {
                let idle = Value {
                    value: 0.0,
                    samples: 0,
                };
                (m.name, outcome.metrics.get(m.name).copied().unwrap_or(idle))
            })
            .collect())
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let value = outcome
                    .metrics
                    .get(m.name)
                    .copied()
                    .ok_or_else(|| format!("workload did not measure `{}`", m.name))?;
                if value.value == 0.0 {
                    return Err(format!("end-to-end metric `{}` measured 0", m.name));
                }
                Ok((m.name, value))
            })
            .collect()
    }
}

/// The human-readable report followed by the contract's result line (the
/// last line of standard output).
pub fn report(args: &RunArgs, outcome: &Outcome) -> Result<String, String> {
    let metrics = required(outcome, args.trace)?;
    let mut out = String::new();
    out.push_str(&format!(
        "# {} seed={} seconds={} trace={}\n",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    for note in &outcome.notes {
        out.push_str(&format!("# {note}\n"));
    }
    for (name, v) in &metrics {
        out.push_str(&format!(
            "{name:<44} {:>16.4} {:<6} n={}\n",
            v.value,
            unit_of(name),
            v.samples
        ));
    }
    // Extra metrics a workload measured beyond the required set (the traced
    // run's own end-to-end figures, printed beside the untraced ones).
    for (name, v) in &outcome.metrics {
        if !metrics.iter().any(|(n, _)| n == name) {
            out.push_str(&format!(
                "{:<44} {:>16.4} {:<6} n={}\n",
                format!("({name})"),
                v.value,
                unit_of(name),
                v.samples
            ));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(v.value),
                unit_of(name)
            )
        })
        .collect();
    out.push_str(&format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::report::Json;

    #[test]
    fn tokens_agree_per_key_and_let_nodes_abstain() {
        let t = |s: &str| s.to_string();
        assert!(tokens_agree([
            t("config={0,1}\nr1=5"),
            t("config={0,1}"),
            t("")
        ]));
        assert!(!tokens_agree([t("config={0,1}"), t("config={0,2}")]));
        assert!(!tokens_agree([t("config=a\nr1=5"), t("config=a\nr1=6")]));
        assert!(tokens_agree(Vec::<String>::new()));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034567891234), "1.2034567891234");
        assert_eq!(json_number(12.0), "12.0");
        assert_eq!(json_number(1e-7), "0.0000001");
        let parsed = Json::parse(&json_number(0.1 + 0.2)).unwrap();
        assert_eq!(parsed.as_f64(), Some(0.1 + 0.2));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let args = RunArgs {
            workload: "steady-n256".into(),
            seed: 1,
            seconds: 1,
            trace: false,
        };
        let mut outcome = Outcome {
            attempted: 40,
            ..Outcome::default()
        };
        // One end-to-end metric missing: refused.
        for m in &spec::END_TO_END[1..] {
            outcome.set(m.name, 1.5, 3);
        }
        assert!(report(&args, &outcome).unwrap_err().contains("setup_s"));
        outcome.set(spec::SETUP_S, 0.25, 3);
        let text = report(&args, &outcome).unwrap();
        let last = text.lines().last().unwrap();
        let json = Json::parse(last).unwrap();
        let Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        // Traced: every per-layer metric, idle layers as 0.
        let traced = RunArgs {
            trace: true,
            ..args
        };
        let text = report(&traced, &Outcome::default()).unwrap();
        let json = Json::parse(text.lines().last().unwrap()).unwrap();
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), spec::PER_LAYER.len());
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(1));
    }
}
