//! The ledger's output: one `<workload> <metric> <value> <unit>` line
//! per metric, then one JSON object as the last line of stdout.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `host_call_ms_p50`.
    pub name: String,
    /// Measured value (always finite).
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric. Undefined quantities must be resolved by the
    /// caller: the JSON output has no NaN.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }
}

/// What one run prints.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// No exact answer was wrong.
    pub correct: bool,
    /// Rows (select workloads) or queries (serving workloads) checked.
    pub attempted: u64,
    /// Rows or queries that returned an error or a wrong answer.
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Metrics,
}

impl Report {
    /// One `<workload> <metric> <value> <unit>` line per metric.
    pub fn lines(&self) -> String {
        self.metrics
            .0
            .iter()
            .map(|m| format!("{} {} {} {}\n", self.workload, m.name, m.value, m.unit))
            .collect()
    }

    /// The single-line JSON summary.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_four_keys_and_plain_numbers() {
        let mut metrics = Metrics::default();
        metrics.push("latency_ms", 1.2034, "ms");
        metrics.push("tiny", 1e-7, "s");
        metrics.push("big", 3.0e9, "1/s");
        let r = Report {
            workload: "hit",
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"tiny\": {\"value\": 0.0000001, \"unit\": \"s\"}, \
             \"big\": {\"value\": 3000000000, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(r.lines().lines().next(), Some("hit latency_ms 1.2034 ms"));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_metrics_are_refused() {
        Metrics::default().push("x", f64::NAN, "ms");
    }
}
