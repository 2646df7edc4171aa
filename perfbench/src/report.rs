//! The result of one benchmark run and its output format.

use crate::Args;
use std::fmt::Write as _;

#[derive(Default)]
pub struct Report {
    /// Operations attempted (end-to-end) or layer calls checked (traced).
    attempted: u64,
    /// Of those, how many failed their output check, panicked or timed
    /// out.
    failed: u64,
    /// `(name, value, unit)` in output order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the JSON line.
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one checked call; `ok == false` is a failure, described by
    /// `what` on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn print(&self, args: &Args) {
        let mut correct = self.failed == 0 && self.attempted > 0;
        println!(
            "# {} seed={} trace={} attempted={} failed={} fail_frac={}",
            args.workload.name(),
            args.seed.map_or("default".to_string(), |s| s.to_string()),
            u8::from(args.trace),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for line in &self.notes {
            println!("# {line}");
        }
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("# {name} = {value} {unit}");
            let value = if value.is_finite() {
                *value
            } else {
                eprintln!("perfbench: metric {name} is not finite");
                correct = false;
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
        );
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A timing summary for the notes: median, the quartiles, and the
/// highest percentile with at least ten samples beyond it.
pub fn describe(name: &str, xs: &[f64]) -> String {
    let mut s = format!(
        "{name}: n={} median={:.6} q1={:.6} q3={:.6}",
        xs.len(),
        median(xs),
        quantile(xs, 0.25),
        quantile(xs, 0.75)
    );
    for (label, q) in [("p99", 0.99), ("p90", 0.9)] {
        if xs.len() as f64 * (1.0 - q) >= 10.0 {
            let _ = write!(s, " {label}={:.6}", quantile(xs, q));
            break;
        }
    }
    s
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
