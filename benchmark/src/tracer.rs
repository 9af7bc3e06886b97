//! Harness-side spans around the calls into each layer.
//!
//! Spans are recorded from the benchmark's own files (spans inside the
//! crates are a later change), kept in memory, and written once at exit as
//! a Chrome-trace array that Perfetto / `chrome://tracing` loads. Each span
//! carries its layer, the span that caused it and the pass it belongs to;
//! a span's self time is its duration minus what its children cover.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the wrapped call belongs to (a crate/module name).
    pub layer: &'static str,
    pub name: String,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Shared by every span of one pass.
    pub pass: u64,
    pub start_us: f64,
    pub dur_us: f64,
    /// Simulator events the wrapped call reported, when it reports any.
    pub events: u64,
}

/// The in-memory span store. A disabled tracer runs the wrapped calls and
/// records nothing, so traced and untraced passes share one code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new pass: later spans carry a fresh pass identifier.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Runs `f` inside a span. `f` gets the tracer back for nested spans
    /// and returns its value plus the events it processed (0 if unknown).
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name: name.to_owned(),
            parent: self.open.last().copied(),
            pass: self.pass,
            start_us: 0.0,
            dur_us: 0.0,
            events: 0,
        });
        self.open.push(idx);
        let start = Instant::now();
        let (value, events) = f(self);
        let dur = start.elapsed();
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
        span.dur_us = dur.as_secs_f64() * 1e6;
        span.events = events;
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in seconds, of the spans of `pass` whose name
    /// starts with `prefix`.
    pub fn total_s(&self, pass: u64, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.pass == pass && s.name.starts_with(prefix))
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e6
    }

    /// The current pass identifier.
    pub fn pass(&self) -> u64 {
        self.pass
    }

    /// Every span's self time: its duration minus the part its direct
    /// children cover.
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = (own[p] - s.dur_us).max(0.0);
            }
        }
        own
    }

    /// Renders every span as one Chrome-trace `"X"` event. Layers become
    /// thread tracks so a pass reads top-down in Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut layers: Vec<&'static str> = Vec::new();
        let self_us = self.self_us();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match layers.iter().position(|l| *l == s.layer) {
                Some(t) => t,
                None => {
                    layers.push(s.layer);
                    layers.len() - 1
                }
            };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"pass\":{},\"events\":{},\"self_us\":{:.3}}}}},",
                s.name,
                s.layer,
                tid + 1,
                s.start_us,
                s.dur_us,
                s.pass,
                s.events,
                self_us[i]
            );
        }
        for (t, layer) in layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{layer}\"}}}},",
                t + 1
            );
        }
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"fh-perf\"}}\n]\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.next_pass();
        let got = t.span("bench", "outer", |t| {
            let inner = t.span("simcore", "inner", |_| (7u64, 7));
            (inner + 1, 0)
        });
        assert_eq!(got, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].events, 7);
        assert!(spans[0].dur_us >= spans[1].dur_us);
        let own = t.self_us();
        assert!(own[0] <= spans[0].dur_us);
        assert_eq!(own[1], spans[1].dur_us);
        assert!(t.total_s(1, "inner") > 0.0 || spans[1].dur_us == 0.0);
        let json = t.chrome_json();
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert!(json.contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("bench", "x", |_| (3, 0)), 3);
        assert!(t.spans().is_empty());
    }
}
