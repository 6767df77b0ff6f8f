//! The result of one run and how it is printed.
//!
//! The last line of standard output is the machine-readable result:
//! `correct`, `attempted`, `failed` and every metric's value and unit. The
//! line before it carries the same metrics with their sample counts and
//! the run's context stamp; standard error gets a readable table.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    /// Correctness problems found; the run is correct when empty.
    pub problems: Vec<String>,
    /// Requests sent (plus update batches applied, where a workload writes).
    pub attempted: u64,
    /// Requests that failed: rejected, shed or canceled.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Context stamp entries: name and a JSON value.
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Add a context entry whose value is already JSON.
    pub fn context(&mut self, name: &'static str, json: String) {
        self.context.push((name, json));
    }

    /// Record a correctness problem (kept to the first few per kind by the
    /// callers).
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Keep only the metrics listed, in that order; a listed metric that
    /// is missing or has another unit is a bug in the workload.
    pub fn select(&mut self, listed: &[(&str, &str)]) {
        let mut kept = Vec::with_capacity(listed.len());
        for &(name, unit) in listed {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("workload did not produce metric {name}"));
            assert_eq!(m.unit, unit, "unit of {name}");
            kept.push(m.clone());
        }
        self.metrics = kept;
    }

    /// Print the table to standard error and the two JSON lines to
    /// standard output.
    pub fn print(&self, workload: &str, seed: u64) {
        for p in self.problems.iter().take(20) {
            eprintln!("CORRECTNESS: {p}");
        }
        eprintln!(
            "{:<32} {:>14} {:<6} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            eprintln!(
                "{:<32} {:>14.4} {:<6} {:>9}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let mut detail = String::new();
        let _ = write!(
            detail,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"context\": {{"
        );
        for (i, (k, v)) in self.context.iter().enumerate() {
            let _ = write!(detail, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
        }
        detail.push_str("}, \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                detail,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                if i > 0 { ", " } else { "" },
                m.name,
                number(m.value),
                m.unit,
                m.samples
            );
        }
        detail.push_str("}}");
        println!("{detail}");

        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                line,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                number(m.value),
                m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// A JSON number with all its digits; non-finite values (a bug) print as
/// -1 so the line stays valid JSON and the problem list says why.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

/// A JSON array of numbers.
pub fn array<T: std::fmt::Display>(values: &[T]) -> String {
    let parts: Vec<String> = values.iter().map(ToString::to_string).collect();
    format!("[{}]", parts.join(", "))
}

/// Reset this process's peak resident set size to its current size, so
/// the next [`rss_peak_mb`] covers only what ran since (Linux; a no-op
/// where `/proc/self/clear_refs` cannot be written).
pub fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB, from `/proc`.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "-1");
    }

    #[test]
    fn select_orders_and_filters() {
        let mut r = Report::default();
        r.metric("b", 2.0, "ms", 1);
        r.metric("a", 1.0, "ms", 1);
        r.metric("c", 3.0, "ms", 1);
        r.select(&[("a", "ms"), ("b", "ms")]);
        let names: Vec<_> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "unit of a")]
    fn select_checks_units() {
        let mut r = Report::default();
        r.metric("a", 1.0, "ms", 1);
        r.select(&[("a", "s")]);
    }
}
