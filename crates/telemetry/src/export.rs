//! Deterministic exporters: Chrome-trace JSON and a shared CSV table
//! writer.
//!
//! Every exporter here is a pure function of the recorded history: no
//! wall clocks, no hash-map iteration order, no locale-dependent
//! formatting. Given the same events, the output bytes are identical —
//! which is what lets CI `cmp` timelines across `--threads` counts.

use std::fmt::Write as _;

use fh_sim::SimTime;

/// One typed CSV cell.
///
/// The two float variants exist because the bench CSVs mix styles: some
/// columns print with Rust's shortest-roundtrip `Display` (`0.05`),
/// others with fixed precision (`12.345`). Both must be reproducible
/// byte-for-byte, so the cell carries its formatting.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// A literal string.
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A float via `Display` (shortest roundtrip, e.g. `0.05`).
    F64(f64),
    /// A float with fixed decimal places, e.g. `Fixed(1.5, 3)` → `1.500`.
    Fixed(f64, usize),
    /// An empty cell (e.g. "no sample" in a delay column).
    Empty,
}

impl From<u64> for Cell<'_> {
    fn from(v: u64) -> Self {
        Cell::U64(v)
    }
}

impl From<usize> for Cell<'_> {
    fn from(v: usize) -> Self {
        Cell::U64(v as u64)
    }
}

impl<'a> From<&'a str> for Cell<'a> {
    fn from(v: &'a str) -> Self {
        Cell::Str(v)
    }
}

impl From<f64> for Cell<'_> {
    fn from(v: f64) -> Self {
        Cell::F64(v)
    }
}

/// The shared CSV writer used by every bench bin.
///
/// Centralizes the comma-joining, newline and column-count discipline
/// that was previously copy-pasted per figure. Output is plain
/// `name,name\nv,v\n` with a trailing newline per row and no quoting —
/// the repo's CSV values never contain commas.
#[derive(Debug, Clone)]
pub struct CsvTable {
    cols: usize,
    out: String,
}

impl CsvTable {
    /// Starts a table with the given header row.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "CSV header needs at least one column");
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        CsvTable {
            cols: header.len(),
            out,
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row's cell count differs from the header's column
    /// count — a malformed table should fail loudly at write time, not
    /// at plot time.
    pub fn row(&mut self, cells: &[Cell<'_>]) {
        assert_eq!(
            cells.len(),
            self.cols,
            "CSV row has {} cells but the header declared {} columns",
            cells.len(),
            self.cols
        );
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            match *cell {
                Cell::Str(s) => self.out.push_str(s),
                Cell::U64(v) => {
                    let _ = write!(self.out, "{v}");
                }
                Cell::F64(v) => {
                    let _ = write!(self.out, "{v}");
                }
                Cell::Fixed(v, places) => {
                    let _ = write!(self.out, "{v:.places$}");
                }
                Cell::Empty => {}
            }
        }
        self.out.push('\n');
    }

    /// Finishes the table and returns its bytes.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// An event that knows how to render itself on a timeline.
///
/// Implemented by each layer's event vocabulary (e.g. `fh_net`'s
/// `TraceEvent`) so the exporters stay generic: `name` is the short
/// label shown on the track, `track` groups events by actor, and
/// `write_args` appends a complete JSON object (`{...}`) of event
/// details straight into the exporter's buffer.
pub trait TraceInstant {
    /// Short label for the timeline (e.g. `"buffer-admit"`).
    fn name(&self) -> &'static str;
    /// Track (timeline row) the event belongs to — usually the actor id.
    fn track(&self) -> u64;
    /// Appends the event details to `out` as one serialized JSON object,
    /// e.g. `{"class":"ef"}`.
    fn write_args(&self, out: &mut String);
}

/// A multi-phase operation that knows how to render itself on a
/// timeline: one interval plus a timestamped mark per phase.
///
/// Implemented by the records that own such operations (e.g. `fh_net`'s
/// `HandoverAttempt`), the way [`TraceInstant`] is implemented by event
/// vocabularies, so the exporter needs no store of its own.
pub trait TraceSpan {
    /// Operation name (e.g. `"handover"`).
    fn name(&self) -> &'static str;
    /// Track (timeline row) the span belongs to — usually the actor id.
    fn track(&self) -> u64;
    /// When the operation began.
    fn start(&self) -> SimTime;
    /// When the operation ended and its terminal label (e.g.
    /// `"predictive"`); `None` while still open.
    fn end(&self) -> Option<(SimTime, &'static str)>;
    /// The phase marks as `(time, label)`, in recording order.
    fn marks(&self) -> impl Iterator<Item = (SimTime, &'static str)>;
}

/// Appends `s` to `out`, escaped for a JSON string literal. Every byte
/// that needs escaping is ASCII, so clean runs are copied whole.
fn escape_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
}

/// Appends `ns` nanoseconds as microseconds with three decimals — the
/// Chrome trace `ts`/`dur` unit at full nanosecond resolution.
///
/// Integer arithmetic, so it allocates nothing and is exact at any
/// value. It prints the same bytes as `format!("{:.3}", ns as f64 /
/// 1000.0)` for every `ns < 2^52` (≈ 52 simulated days); above that the
/// `f64` form stops being exact, this one does not.
fn push_micros(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Builder for a Chrome-trace ("trace event format") JSON array,
/// loadable in `chrome://tracing` and Perfetto.
///
/// Spans become `"ph":"X"` complete events; span marks and flight
/// recorder events become `"ph":"i"` instants. `pid` partitions
/// independent simulations (e.g. sweep points) and `tid` is the
/// actor-level track within one simulation.
///
/// Every event is written straight into one growing buffer, so
/// rendering allocates only when that buffer grows.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    /// `[` and the events so far, each after a newline and all but the
    /// first after a comma; empty until the first event.
    out: String,
    events: usize,
}

impl ChromeTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Opens the next array element and returns the buffer to write it
    /// into.
    fn next_event(&mut self) -> &mut String {
        self.out
            .push_str(if self.events == 0 { "[\n" } else { ",\n" });
        self.events += 1;
        &mut self.out
    }

    /// Adds a span as a complete (`"ph":"X"`) event plus one instant
    /// per mark. Open spans are closed at `fallback_end` and labeled
    /// `"open"` so an aborted run still renders.
    pub fn add_span<S: TraceSpan>(&mut self, pid: u64, span: &S, fallback_end: SimTime) {
        let (name, track, start) = (span.name(), span.track(), span.start());
        let (end, outcome) = span.end().unwrap_or((fallback_end, "open"));
        let out = self.next_event();
        out.push_str("{\"name\":\"");
        escape_into(out, name);
        out.push_str("\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
        push_micros(out, start.as_nanos());
        out.push_str(",\"dur\":");
        push_micros(out, end.saturating_since(start).as_nanos());
        let _ = write!(
            out,
            ",\"pid\":{pid},\"tid\":{track},\"args\":{{\"outcome\":\""
        );
        escape_into(out, outcome);
        out.push_str("\"}}");
        for (t, label) in span.marks() {
            let out = self.next_event();
            out.push_str("{\"name\":\"");
            escape_into(out, label);
            out.push_str("\",\"cat\":\"mark\",\"ph\":\"i\",\"ts\":");
            push_micros(out, t.as_nanos());
            let _ = write!(
                out,
                ",\"pid\":{pid},\"tid\":{track},\"s\":\"t\",\"args\":{{\"span\":\""
            );
            escape_into(out, name);
            out.push_str("\"}}");
        }
    }

    /// Adds one flight-recorder event as an instant (`"ph":"i"`).
    pub fn add_instant<E: TraceInstant>(&mut self, pid: u64, t: SimTime, event: &E) {
        let out = self.next_event();
        out.push_str("{\"name\":\"");
        escape_into(out, event.name());
        out.push_str("\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":");
        push_micros(out, t.as_nanos());
        let _ = write!(
            out,
            ",\"pid\":{pid},\"tid\":{},\"s\":\"t\",\"args\":",
            event.track()
        );
        event.write_args(out);
        out.push('}');
    }

    /// Number of events added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events
    }

    /// `true` when no events have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Closes the JSON array of trace events and returns its bytes.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out
            .push_str(if self.events == 0 { "[\n]\n" } else { "\n]\n" });
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ping(u64);

    /// A plain-data [`TraceSpan`].
    struct Op {
        track: u64,
        start: SimTime,
        end: Option<(SimTime, &'static str)>,
        marks: Vec<(SimTime, &'static str)>,
    }

    impl TraceSpan for Op {
        fn name(&self) -> &'static str {
            "handover"
        }
        fn track(&self) -> u64 {
            self.track
        }
        fn start(&self) -> SimTime {
            self.start
        }
        fn end(&self) -> Option<(SimTime, &'static str)> {
            self.end
        }
        fn marks(&self) -> impl Iterator<Item = (SimTime, &'static str)> {
            self.marks.iter().copied()
        }
    }

    impl TraceInstant for Ping {
        fn name(&self) -> &'static str {
            "ping"
        }
        fn track(&self) -> u64 {
            self.0
        }
        fn write_args(&self, out: &mut String) {
            let _ = write!(out, "{{\"n\":{}}}", self.0);
        }
    }

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    fn micros(ns: u64) -> String {
        let mut out = String::new();
        push_micros(&mut out, ns);
        out
    }

    #[test]
    fn csv_table_formats_each_cell_kind() {
        let mut t = CsvTable::new(&["a", "b", "c", "d", "e"]);
        t.row(&[
            Cell::Str("x"),
            Cell::U64(7),
            Cell::F64(0.05),
            Cell::Fixed(1.5, 3),
            Cell::Empty,
        ]);
        assert_eq!(t.finish(), "a,b,c,d,e\nx,7,0.05,1.500,\n");
    }

    #[test]
    #[should_panic(expected = "2 cells")]
    fn csv_table_rejects_ragged_rows() {
        let mut t = CsvTable::new(&["a", "b", "c"]);
        t.row(&[Cell::U64(1), Cell::U64(2)]);
    }

    #[test]
    fn chrome_trace_emits_spans_marks_and_instants() {
        let span = Op {
            track: 3,
            start: SimTime::from_millis(1),
            end: Some((SimTime::from_millis(5), "predictive")),
            marks: vec![(SimTime::from_millis(2), "link-down")],
        };

        let mut trace = ChromeTrace::new();
        trace.add_span(0, &span, SimTime::from_millis(9));
        trace.add_instant(0, SimTime::from_millis(4), &Ping(3));
        let json = trace.finish();

        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":4000.000"));
        assert!(json.contains("\"ts\":1000.000"));
        assert!(json.contains("\"outcome\":\"predictive\""));
        assert!(json.contains("\"name\":\"link-down\""));
        assert!(json.contains("\"args\":{\"n\":3}"));
        // Exactly one trailing comma-less element: valid JSON array shape.
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
    }

    #[test]
    fn open_spans_render_with_fallback_end() {
        let span = Op {
            track: 1,
            start: SimTime::from_millis(10),
            end: None,
            marks: Vec::new(),
        };
        let mut trace = ChromeTrace::new();
        trace.add_span(0, &span, SimTime::from_millis(15));
        let json = trace.finish();
        assert!(json.contains("\"outcome\":\"open\""));
        assert!(json.contains("\"dur\":5000.000"));
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        let span = Op {
            track: 3,
            start: SimTime::from_nanos(1_000_001),
            end: Some((SimTime::from_nanos(5_000_999), "predictive")),
            marks: vec![(SimTime::from_nanos(2_500_000), "link-down")],
        };
        let mut trace = ChromeTrace::new();
        assert!(trace.is_empty());
        trace.add_span(7, &span, SimTime::ZERO);
        trace.add_instant(7, SimTime::from_nanos(4), &Ping(3));
        assert_eq!(trace.len(), 3);
        assert_eq!(
            trace.finish(),
            "[\n\
             {\"name\":\"handover\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1000.001,\"dur\":4000.998,\"pid\":7,\"tid\":3,\"args\":{\"outcome\":\"predictive\"}},\n\
             {\"name\":\"link-down\",\"cat\":\"mark\",\"ph\":\"i\",\"ts\":2500.000,\"pid\":7,\"tid\":3,\"s\":\"t\",\"args\":{\"span\":\"handover\"}},\n\
             {\"name\":\"ping\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":0.004,\"pid\":7,\"tid\":3,\"s\":\"t\",\"args\":{\"n\":3}}\n\
             ]\n"
        );
        assert_eq!(ChromeTrace::new().finish(), "[\n]\n");
    }

    /// The integer printer equals the old `{:.3}`-on-`f64` form wherever
    /// that form is exact: every `ns < 2^52`.
    #[test]
    fn micros_match_the_f64_form_below_2_pow_52() {
        let f64_form = |ns: u64| format!("{:.3}", ns as f64 / 1_000.0);
        for ns in [0, 1, 999, 1_000, 1_000_999, (1 << 52) - 1] {
            assert_eq!(micros(ns), f64_form(ns), "ns = {ns}");
        }
        let mut rng = fh_sim::Rng64::seed_from(2003);
        for _ in 0..10_000 {
            // Every magnitude from 1 bit to 52 bits.
            let ns = rng.next_u64() >> (12 + rng.gen_range_u64(52));
            assert_eq!(micros(ns), f64_form(ns), "ns = {ns}");
        }
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escaped("\r\t"), "\\r\\t");
        assert_eq!(escaped("plain-label é"), "plain-label é");
        for c in (0u8..0x20).map(char::from) {
            let expected = match c {
                '\n' => "\\n".to_owned(),
                '\r' => "\\r".to_owned(),
                '\t' => "\\t".to_owned(),
                c => format!("\\u{:04x}", c as u32),
            };
            assert_eq!(escaped(&format!("x{c}y")), format!("x{expected}y"));
        }
        assert_eq!(escaped("\u{1}"), "\\u0001");
    }
}
