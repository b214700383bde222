//! The result a run prints: metrics with units, run context, and the
//! outcome of every output check.

use std::fmt::Write as _;

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in the order BENCHMARK.json lists them.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Timed units attempted (epochs, runs or requests).
    pub attempted: u64,
    /// Timed units that failed.
    pub failed: u64,
    /// Failed output checks; empty means correct.
    pub check_failures: Vec<String>,
    /// Run context: `(key, value)`, values already JSON-encoded.
    pub context: Vec<(String, String)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a context entry whose value is a number.
    pub fn context_num(&mut self, key: &str, value: f64) {
        self.context.push((key.to_string(), json_num(value)));
    }

    /// Records a context entry whose value is a string.
    pub fn context_str(&mut self, key: &str, value: &str) {
        self.context.push((key.to_string(), json_str(value)));
    }

    /// Fails the run's output checks unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// True when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The context line: run settings, sample counts and other names for
    /// the metrics, for people reading the output.
    pub fn context_line(&self) -> String {
        let mut s = String::from("{\"perfbench\":{");
        for (i, (k, v)) in self.context.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", json_str(k));
        }
        s.push_str(",\"check_failures\":[");
        for (i, f) in self.check_failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json_str(f));
        }
        s.push_str("]}}");
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which fail the run) print as 0.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("p50_ms", 1.25, "ms");
        r.metric("setup_s", 2.0, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":2.0,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn non_finite_metrics_and_failed_checks_are_incorrect() {
        let mut r = Report::default();
        r.metric("x", f64::NAN, "ms");
        assert!(!r.correct());
        let mut r = Report::default();
        r.check(false, || "node not echoed".into());
        assert!(!r.correct());
        assert!(r.context_line().contains("node not echoed"));
    }
}
