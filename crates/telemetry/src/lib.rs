//! # fh-telemetry — deterministic observability for the simulator
//!
//! The paper's claims are per-phase quantities — L2 blackout windows,
//! per-class buffering decisions, piggybacked signaling round-trips — so
//! the reproduction needs more than end-of-run aggregates. This crate is
//! the observability spine every layer above `fh-sim` shares:
//!
//! * [`MetricsRegistry`] — typed counters, gauges and histograms behind a
//!   handle-based API. Registration returns a small copyable id; the hot
//!   path is an array index, not a string hash. Registries from
//!   independent shards [`MetricsRegistry::merge`] by name.
//! * [`FlightRecorder`] — a fixed-capacity ring buffer of timestamped
//!   structured events, generic over the event vocabulary. Cheap enough
//!   to leave on (one branch when disabled).
//! * [`SpanStore`] — begin/annotate/end spans so a multi-phase operation
//!   (a handover attempt) is a first-class measurement: per-phase latency
//!   is read off the span's marks instead of re-derived in analysis code.
//! * [`export`] — Chrome-trace JSON (`chrome://tracing` / Perfetto) and
//!   a shared CSV table writer. Every exporter is byte-deterministic for
//!   a given recorded history.
//!
//! Everything in this crate is driven by [`fh_sim::SimTime`]: no wall
//! clocks, no global state, no interior mutability — determinism is
//! inherited from the simulator, and exported artifacts are comparable
//! byte-for-byte across thread counts.
//!
//! ## Example
//!
//! ```
//! use fh_sim::SimTime;
//! use fh_telemetry::{FlightRecorder, MetricsRegistry, SpanStore};
//!
//! // Handle-based counters: register once, bump cheaply.
//! let mut reg = MetricsRegistry::new();
//! let drops = reg.counter("drops");
//! reg.add(drops, 3);
//! assert_eq!(reg.get(drops), 3);
//!
//! // A span with per-phase marks.
//! let mut spans = SpanStore::new();
//! spans.enable();
//! let s = spans.begin("handover", 0, SimTime::ZERO);
//! spans.annotate(s, SimTime::from_millis(10), "link-down");
//! spans.annotate(s, SimTime::from_millis(210), "link-up");
//! spans.end(s, SimTime::from_millis(250), "predictive");
//! let blackout = spans.spans()[0].phase("link-down", "link-up").unwrap();
//! assert_eq!(blackout.as_nanos(), 200_000_000);
//!
//! // A flight recorder over any event type.
//! let mut rec: FlightRecorder<&'static str> = FlightRecorder::new();
//! rec.enable(2);
//! rec.record(SimTime::ZERO, "a");
//! rec.record(SimTime::from_secs(1), "b");
//! rec.record(SimTime::from_secs(2), "c"); // wraps: "a" is overwritten
//! let kept: Vec<_> = rec.events().map(|&(_, e)| e).collect();
//! assert_eq!(kept, ["b", "c"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod export;
mod recorder;
mod registry;
pub mod report;
mod span;

pub use export::{Cell, ChromeTrace, CsvTable, TraceInstant};
pub use recorder::FlightRecorder;
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use report::{FailureReport, ReportEntry};
pub use span::{Span, SpanId, SpanStore};
