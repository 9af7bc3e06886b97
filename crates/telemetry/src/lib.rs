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
//! * [`export`] — Chrome-trace JSON (`chrome://tracing` / Perfetto) and
//!   a shared CSV table writer. Every exporter is byte-deterministic for
//!   a given recorded history. The trace renders any [`TraceInstant`]
//!   (one recorded event) and any [`TraceSpan`] (a multi-phase operation
//!   with timestamped marks, such as `fh_net`'s handover record); the
//!   records themselves live with the layer that owns them.
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
//! use fh_telemetry::{ChromeTrace, FlightRecorder, MetricsRegistry, TraceSpan};
//!
//! // Handle-based counters: register once, bump cheaply.
//! let mut reg = MetricsRegistry::new();
//! let drops = reg.counter("drops");
//! reg.add(drops, 3);
//! assert_eq!(reg.get(drops), 3);
//!
//! // Any record with per-phase marks renders as a span.
//! struct Blackout;
//! impl TraceSpan for Blackout {
//!     fn name(&self) -> &'static str { "blackout" }
//!     fn track(&self) -> u64 { 0 }
//!     fn start(&self) -> SimTime { SimTime::from_millis(10) }
//!     fn end(&self) -> Option<(SimTime, &'static str)> {
//!         Some((SimTime::from_millis(210), "done"))
//!     }
//!     fn marks(&self) -> impl Iterator<Item = (SimTime, &'static str)> {
//!         [(SimTime::from_millis(10), "link-down")].into_iter()
//!     }
//! }
//! let mut trace = ChromeTrace::new();
//! trace.add_span(0, &Blackout, SimTime::ZERO);
//! assert_eq!(trace.len(), 2); // the span and its one mark
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

pub use export::{Cell, ChromeTrace, CsvTable, TraceInstant, TraceSpan};
pub use recorder::FlightRecorder;
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use report::{FailureReport, ReportEntry};
