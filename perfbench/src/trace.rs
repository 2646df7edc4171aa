//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records its name, start, end and the span open when it began
//! (its cause). Spans stay in memory and are written out once, when the
//! traced run ends. A disabled tracer records nothing, so the untraced
//! end-to-end runs pay nothing for the calls.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// Handle of an open span.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    /// Durations of every closed span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes the spans to `perfbench/out/trace-<label>.json` and returns
    /// the path, or a message on failure.
    pub fn write(&self, label: &str) -> Result<String, String> {
        let path = format!("perfbench/out/trace-{label}.json");
        std::fs::create_dir_all("perfbench/out")
            .and_then(|_| std::fs::write(&path, self.to_json()))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        Ok(path)
    }

    /// The spans as a JSON array (`name`, `start_s`, `end_s`, `parent`).
    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start,
                s.end,
            );
        }
        out.push_str("\n]\n");
        out
    }
}
