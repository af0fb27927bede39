//! The run's result: named metrics with units, a human-readable table,
//! and the one-line JSON object the last line of standard output holds.

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a run measured, and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Report {
    /// Queries issued.
    pub attempted: u64,
    /// Queries that failed: sheds, errors, transport errors, wrong
    /// answers.
    pub failed: u64,
    /// Every correctness check that failed, in words. Empty means
    /// correct.
    pub problems: Vec<String>,
    /// End-to-end metrics (the untraced run's result).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (the traced run's result).
    pub per_layer: Vec<Metric>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Records the end-to-end metrics that have no bound: a note line in
    /// every run, and the first per-layer metrics in a traced run.
    pub fn unbounded(&mut self, traced: bool, metrics: &[(&'static str, f64, &'static str)]) {
        let line: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| format!("{name} {value:.4} {unit}"))
            .collect();
        self.note(format!("unbounded end to end: {}", line.join("; ")));
        if traced {
            for &(name, value, unit) in metrics {
                self.layer(name, value, unit);
            }
        }
    }

    /// Records a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// True when every check passed and no query failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The table printed before the JSON line: every metric measured,
    /// by name and unit, then any failed checks.
    pub fn render_table(&self, workload: &str) -> String {
        let mut out = String::new();
        for line in &self.notes {
            out.push_str(&format!("# {line}\n"));
        }
        for (title, metrics) in [
            ("end to end", &self.end_to_end),
            ("per layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            out.push_str(&format!("## {workload}: {title}\n"));
            for m in metrics.iter() {
                out.push_str(&format!("{:<28} {:>16.4} {}\n", m.name, m.value, m.unit));
            }
        }
        for p in &self.problems {
            out.push_str(&format!("FAILED CHECK: {p}\n"));
        }
        out
    }

    /// The result line: `metrics` holds exactly `selected`.
    pub fn json_line(&self, selected: &[Metric]) -> String {
        let metrics: Vec<String> = selected
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
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

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (which JSON cannot hold) read 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
