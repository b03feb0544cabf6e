//! What one benchmark invocation reports: named metrics with units, the
//! attempted/failed operation counts, and the correctness gates. The
//! human-readable lines go first; the single JSON object is always the
//! last line of standard output.

use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Report {
    /// The metrics of the JSON line: exactly `BENCHMARK.json`'s
    /// `end_to_end` list (untraced) or `per_layer` list (traced), which
    /// every workload reports.
    pub metrics: Vec<Metric>,
    /// Metrics of one workload only, printed with the human-readable
    /// lines and kept out of the JSON.
    pub printed: Vec<Metric>,
    pub gates: Vec<Gate>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let m = self.checked(name.into(), value, unit);
        self.metrics.push(m);
    }

    /// A metric for the human-readable lines only (see [`Report::printed`]).
    pub fn print_only(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let m = self.checked(name.into(), value, unit);
        self.printed.push(m);
    }

    fn checked(&mut self, name: String, value: f64, unit: &'static str) -> Metric {
        self.gate(
            format!("{name} is finite"),
            value.is_finite(),
            format!("{value}"),
        );
        Metric { name, value, unit }
    }

    /// Gates that the JSON metrics are exactly `expected`, each once.
    pub fn expect_metrics(&mut self, expected: &[&str]) {
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        got.sort_unstable();
        let mut want = expected.to_vec();
        want.sort_unstable();
        let ok = got == want;
        let detail = format!("reported {got:?}, manifest {want:?}");
        self.gate("reports exactly the manifest's metrics", ok, detail);
    }

    pub fn gate(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds `attempted` operations of which `failed` went wrong.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok) && self.failed == 0 && self.attempted > 0
    }

    /// Failed operations over attempted ones (lost, gapped, corrupt or
    /// disconnected frames; failed simulator points).
    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            // Non-finite values already failed their gate; JSON has no
            // spelling for them.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        // Every failure, but each passing gate only once (rounds repeat
        // them).
        let mut shown: Vec<&str> = Vec::new();
        for g in &self.gates {
            if g.ok && (g.name.ends_with(" is finite") || shown.contains(&g.name.as_str())) {
                continue;
            }
            shown.push(&g.name);
            let mark = if g.ok { "ok  " } else { "FAIL" };
            println!("gate {mark} {}: {}", g.name, g.detail);
        }
        for m in &self.metrics {
            println!("metric {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for m in &self.printed {
            println!("extra  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "attempted {} failed {} error_ratio {:.6}",
            self.attempted,
            self.failed,
            self.error_ratio()
        );
        println!("{}", self.json());
    }
}

/// A JSON number carrying every digit `f64` formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_ratio_counts_failures_against_attempts() {
        let mut r = Report::default();
        r.count(1000, 0);
        r.count(1000, 5);
        assert_eq!(r.error_ratio(), 5.0 / 2000.0);
        assert!(!r.correct(), "a failed operation makes the run incorrect");
        let mut clean = Report::default();
        clean.count(10, 0);
        assert_eq!(clean.error_ratio(), 0.0);
        assert!(clean.correct());
        assert!(
            !Report::default().correct(),
            "nothing attempted is not a result"
        );
    }

    #[test]
    fn failed_gate_or_non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.count(1, 0);
        r.metric("x", f64::NAN, "s");
        assert!(!r.correct());
        assert!(r
            .json()
            .contains("\"x\": {\"value\": 0.0, \"unit\": \"s\"}"));
        let mut g = Report::default();
        g.count(1, 0);
        g.gate("parity", false, "mismatch");
        assert!(!g.correct());
    }

    #[test]
    fn print_only_metrics_stay_out_of_the_json() {
        let mut r = Report::default();
        r.count(1, 0);
        r.metric("setup_s", 0.5, "s");
        r.print_only("late_ratio", 0.25, "ratio");
        assert!(!r.json().contains("late_ratio"));
        r.expect_metrics(&["setup_s"]);
        assert!(r.correct());
        r.expect_metrics(&["setup_s", "ops_per_s"]);
        assert!(!r.correct(), "a missing manifest metric fails the run");
    }

    #[test]
    fn json_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.count(3, 0);
        r.metric("setup_s", 0.25, "s");
        r.metric("ops_per_s", 8291.0, "1/s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 8291.0, \"unit\": \"1/s\"}}}"
        );
    }
}
