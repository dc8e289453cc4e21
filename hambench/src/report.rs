//! The result a run prints: metrics by name with units, labels, and the
//! final one-line JSON verdict.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output checked out (the run exits non-zero otherwise).
    pub correct: bool,
    /// Requests attempted (reads and publishes).
    pub attempted: usize,
    /// Requests that failed, were shed, timed out, were quota-rejected
    /// or hit an I/O error.
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Non-numeric facts worth keeping next to the numbers, such as the
    /// scan strategy `Auto` resolved to.
    pub labels: Vec<(String, String)>,
    /// Why the run is not correct, one line each.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn label(&mut self, name: &str, value: impl Into<String>) {
        self.labels.push((name.to_string(), value.into()));
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: String) {
        self.errors.push(why);
    }

    /// Prints the human-readable lines, then the JSON verdict as the last
    /// line of standard output. Metrics that are not finite (a phase that
    /// produced no samples) make the run incorrect.
    pub fn print(&mut self, host: &str) {
        if self.attempted == 0 {
            self.errors.push("no request was attempted".to_string());
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.errors.push(format!("metric {} has no value", m.name));
            }
        }
        self.correct = self.errors.is_empty();
        println!("host {host}");
        for (name, value) in &self.labels {
            println!("label {name} = {value}");
        }
        for m in &self.metrics {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
        for e in &self.errors {
            println!("incorrect: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}
