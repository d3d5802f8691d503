//! What one run prints: named metrics with units, correctness checks, and
//! the final one-line JSON result.

use crate::host::json_str;

/// Median of `v` (0 when empty). Sorts a copy.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, q)
}

/// [`quantile`] over an already sorted slice.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Ratio `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Records the latency tail of a run from its sorted samples (ms): the
/// percentiles that are printed with their sample count but not gated.
pub fn latency_tail(report: &mut Report, sorted_ms: &[f64]) {
    report.metric("latency.p90_ms", quantile_sorted(sorted_ms, 0.9), "ms");
    report.metric("latency.p99_ms", quantile_sorted(sorted_ms, 0.99), "ms");
    report.metric("latency.p999_ms", quantile_sorted(sorted_ms, 0.999), "ms");
    report.metric("latency.samples", sorted_ms.len() as f64, "count");
}

/// The metrics and checks of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    /// Expected (node, message) deliveries over every measured run.
    pub attempted: u64,
    /// Expected deliveries that did not happen.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a correctness check; a failed one is printed immediately
    /// with its name and detail.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            let line = format!("{name}: {}", detail());
            eprintln!("CHECK FAILED {line}");
            self.failures.push(line);
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the human-readable metric table to stdout.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }

    /// The final result object: `correct`, `attempted`, `failed` and the
    /// metrics whose names appear in `keep`, in that order.
    pub fn result_json(&self, keep: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for name in keep {
            let Some((_, value, unit)) = self.metrics.iter().find(|(n, ..)| n == name) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let value = if value.is_finite() { *value } else { 0.0 };
            out.push_str(&format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                value,
                json_str(unit)
            ));
        }
        out.push_str("}}");
        out
    }

    /// Names of every recorded metric.
    pub fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|(n, ..)| n.as_str()).collect()
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
