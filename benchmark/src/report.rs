//! Result records: the one-line JSON the contract asks for, the
//! human-readable table above it, and the multi-run file `--repeat` writes
//! and `--compare` reads.

use pmg_telemetry::json::{self, Value};
use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Outcome of one run of one workload.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Un-normalised statistics of the timed metrics (`raw_median.<name>`,
    /// `raw_lh.<name>`), kept beside the compared values so the effect of
    /// the estimator stays visible.
    pub raw: Vec<(String, f64)>,
}

impl RunResult {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`; every value with all its digits.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, &m.name);
            out.push_str(": {\"value\": ");
            json::write_num(&mut out, m.value);
            out.push_str(", \"unit\": ");
            json::write_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// One run as an entry of a runs file.
    pub fn to_record(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, \"correct\": {}, \"metrics\": {{",
            self.workload, self.seed, self.correct
        );
        let pairs = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value))
            .chain(self.raw.iter().cloned());
        for (i, (name, value)) in pairs.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, &name);
            out.push_str(": ");
            json::write_num(&mut out, value);
        }
        out.push_str("}}");
        out
    }
}

/// Parsed entry of a runs file.
pub struct Record {
    pub workload: String,
    pub metrics: Vec<(String, f64)>,
}

/// `{"runs": [record, ...], "claim": null}`.
pub fn runs_file(records: &[String]) -> String {
    format!(
        "{{\"runs\": [\n  {}\n], \"claim\": null}}\n",
        records.join(",\n  ")
    )
}

pub fn parse_runs_file(text: &str) -> Result<Vec<Record>, String> {
    let doc = json::parse(text)?;
    let Some(Value::Arr(runs)) = doc.get("runs") else {
        return Err("no \"runs\" array".into());
    };
    runs.iter()
        .map(|r| {
            let workload = r
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run without a workload")?
                .to_string();
            let Some(Value::Obj(pairs)) = r.get("metrics") else {
                return Err("run without metrics".to_string());
            };
            let metrics = pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect();
            Ok(Record { workload, metrics })
        })
        .collect()
}

/// Parse a contract result line back into `(name, value)` pairs.
pub fn parse_result_line(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let doc = json::parse(line)?;
    let correct = matches!(doc.get("correct"), Some(Value::Bool(true)));
    let Some(Value::Obj(pairs)) = doc.get("metrics") else {
        return Err("no metrics object".into());
    };
    let metrics = pairs
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok((correct, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "cold10k".into(),
            seed: 3,
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "setup_s".into(),
                    unit: "s".into(),
                    value: 0.912345678912,
                },
                Metric {
                    name: "peak_rss_mb".into(),
                    unit: "MB".into(),
                    value: 245.5,
                },
            ],
            raw: vec![("raw_median.setup_s".into(), 1.01)],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let line = sample().to_json();
        let doc = json::parse(&line).unwrap();
        let Value::Obj(pairs) = &doc else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let (correct, metrics) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(metrics[0], ("setup_s".to_string(), 0.912345678912));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn runs_file_round_trips_and_ends_with_a_null_claim() {
        let text = runs_file(&[sample().to_record(), sample().to_record()]);
        assert!(text.trim_end().ends_with("\"claim\": null}"));
        let runs = parse_runs_file(&text).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].workload, "cold10k");
        assert!(runs[0]
            .metrics
            .contains(&("raw_median.setup_s".to_string(), 1.01)));
    }
}
