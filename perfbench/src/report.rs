//! The one-line JSON result every run ends with.

use std::fmt::Write as _;

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run hands back: operation accounting plus metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (timed out or went unanswered).
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Output checks that failed, for the log.
    pub errors: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record an output check: a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values are not JSON; a run never produces one
            // on purpose, so print it as null and let the reader refuse.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Default::default()
        };
        r.put("setup_s", 0.8127, "s");
        r.put("p99_us", 12.0, "us");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"p99_us\": {\"value\": 12.0, \"unit\": \"us\"}}}"
        );
        assert_eq!(r.get("p99_us"), Some(12.0));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            ..Default::default()
        };
        r.check(true, || unreachable!());
        r.check(false, || "wrong codes".to_string());
        assert!(r.to_json().starts_with("{\"correct\": false"));
        assert_eq!(r.errors, vec!["wrong codes".to_string()]);
    }
}
