//! What one run of a workload found: metric values with their sample
//! counts, correctness checks, operation counts and descriptive notes,
//! printed for people and as the one-line JSON result.

use std::fmt::Display;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit the value is expressed in.
    pub unit: &'static str,
    /// The value; medians and percentiles are taken before it lands here.
    pub value: f64,
    /// Number of samples the value summarizes.
    pub samples: usize,
}

/// Everything one run records.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    checks: Vec<(String, bool)>,
    notes: Vec<(String, String)>,
    /// Operations attempted: timed operations, offered queries, label
    /// folds and correctness checks.
    pub attempted: u64,
    /// Attempted operations that errored, were shed, or (for checks)
    /// failed.
    pub failed: u64,
}

impl Report {
    /// Records a metric value summarizing `samples` measurements.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// The recorded metric called `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Records a correctness check; a failing check counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
        self.checks.push((name.into(), passed));
    }

    /// Counts `attempted` operations of which `failed` did not succeed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a descriptive label, such as the solver backend chosen.
    pub fn note(&mut self, key: impl Into<String>, value: impl Display) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Human-readable lines: notes, metrics with units and sample counts,
    /// and check outcomes.
    pub fn human_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (key, value) in &self.notes {
            lines.push(format!("note   {key} = {value}"));
        }
        for m in &self.metrics {
            lines.push(format!(
                "metric {:<28} {:>16} {:<6} (n={})",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            ));
        }
        for (name, ok) in &self.checks {
            lines.push(format!(
                "check  {name}: {}",
                if *ok { "pass" } else { "FAIL" }
            ));
        }
        lines.push(format!(
            "ops    attempted {} failed {} failed_frac {}",
            self.attempted,
            self.failed,
            format_value(self.failed as f64 / self.attempted.max(1) as f64)
        ));
        lines
    }

    /// The one-line JSON result carrying exactly the metrics in `names`
    /// (name, unit); a listed metric the run did not record is reported
    /// as 0 — the workload does not exercise that layer.
    pub fn json_line(&self, names: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).map_or(0.0, |m| m.value);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    format_value(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot carry) print as 0.
fn format_value(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_owned()
    }
}
