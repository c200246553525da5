//! Metric records, summary statistics and the result line.

use std::fmt::Write as _;

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one invocation produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Operations attempted: rounds, requests or simulator runs.
    pub attempted: u64,
    /// Operations that failed a correctness check, plus failed pool-level
    /// checks (accounting identities at shutdown).
    pub failed: u64,
    /// A description of each failure (capped).
    pub failures: Vec<String>,
    /// Measurement-validity violations (e.g. a lagging generator): the
    /// run's outputs may be right, but its numbers are not trustworthy.
    pub invalid: Vec<String>,
    /// The metrics of the result line: the end-to-end set untraced, the
    /// per-layer set traced.
    pub metrics: Vec<Metric>,
    /// Report-only numbers printed above the result line.
    pub extra: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
    }

    /// Human-readable lines, one per number, with units.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {} seed {} trace {}",
            self.workload, self.seed, self.trace as u8
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(s, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            s,
            "  {:<34} {:>16.4} ratio ({} of {} failed)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(s, "  FAIL {f}");
        }
        for f in &self.invalid {
            let _ = writeln!(s, "  INVALID {f}");
        }
        s
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The `q`-quantile of `xs` (linear interpolation between order
/// statistics); NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
