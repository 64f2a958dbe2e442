//! What one run reports: operations attempted and failed, violated
//! checks, and named metrics with units — printed as the single JSON
//! line that ends standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Violations kept verbatim (the rest are only counted).
const KEPT_VIOLATIONS: usize = 20;

/// The accumulating result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, sweep jobs, training runs).
    pub attempted: u64,
    /// Operations that failed: non-2xx, transport error, timeout, or an
    /// output that failed its check.
    pub failed: u64,
    violations: u64,
    first_violations: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Counts operation `index` of kind `what`; an error marks it
    /// failed and the run incorrect.
    pub fn op(&mut self, what: &str, index: usize, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.violation(format!("{what} {index}: {e}"));
        }
    }

    /// Records a failed check that is not one operation (a count
    /// reconciliation, a training invariant).
    pub fn violation(&mut self, message: String) {
        self.violations += 1;
        if self.first_violations.len() < KEPT_VIOLATIONS {
            self.first_violations.push(message);
        }
    }

    /// Fails the run unless `got == want`.
    pub fn reconcile(&mut self, what: &str, got: f64, want: f64) {
        if got != want {
            self.violation(format!("reconciliation {what}: got {got}, want {want}"));
        }
    }

    /// Sets metric `name`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// True when every output passed its check and every count
    /// reconciled.
    pub fn correct(&self) -> bool {
        self.violations == 0
    }

    /// The first violations, for the human-readable summary.
    pub fn first_violations(&self) -> &[String] {
        &self.first_violations
    }

    /// The metrics, by name.
    pub fn metrics(&self) -> &BTreeMap<String, (f64, &'static str)> {
        &self.metrics
    }

    /// The result line. A non-finite value cannot be written as JSON
    /// and marks the run incorrect.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct();
        let mut metrics = String::new();
        for (i, (name, &(value, unit))) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Reply;
    use crate::oracle;

    #[test]
    fn an_altered_body_is_counted_failed_and_incorrect() {
        let spec = r#"{"type":"simulate","arch":"tc","model":{"kind":"gcn","nodes":16,"features":16},"seed":9}"#;
        let expected = oracle::expect(spec).unwrap();
        let good = Reply {
            status: 200,
            headers: vec![
                ("x-cache".into(), "miss".into()),
                ("x-job-key".into(), expected.key.clone()),
            ],
            body: expected.body.clone(),
        };
        let mut bad = good.clone();
        let digit = bad.body.find(|c: char| c.is_ascii_digit()).unwrap();
        let flipped = if &bad.body[digit..=digit] == "7" {
            "8"
        } else {
            "7"
        };
        bad.body.replace_range(digit..=digit, flipped);
        let mut report = Report::default();
        report.op("job", 0, oracle::check(&good, &expected, Some("miss")));
        assert!(report.correct());
        report.op("job", 1, oracle::check(&bad, &expected, Some("miss")));
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert!(!report.correct());
        assert!(report
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn reconciliation_mismatch_fails_the_run() {
        let mut report = Report::default();
        report.reconcile("executed", 3.0, 3.0);
        assert!(report.correct());
        report.reconcile("coalesced", 1.0, 0.0);
        assert!(!report.correct());
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut report = Report::default();
        report.op("x", 0, Ok(()));
        report.metric("setup_s", 0.25, "s");
        report.metric("hits_per_s", 1234.5, "1/s");
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"hits_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        report.metric("bad", f64::NAN, "s");
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }
}
