//! Protocol event tracing (the ns-2 trace-file analog).
//!
//! When enabled, the [`FlightRecorder`] in [`crate::NetStats::trace`]
//! records the structured simulation events — control messages sent /
//! received / retransmitted, packet drops with their reason, link-layer
//! events, per-class buffer admissions / evictions / flushes, injected
//! faults and soft-state expiry — timestamped, in global event order.
//! [`render_trace`] prints the log like a protocol analyzer's view of a
//! handover:
//!
//! ```text
//! 1.200000s  ctrl RtSolPr 60B piggyback
//! 1.206842s  ctrl FBU 88B
//! 1.209422s  l2 actor#4 LinkDown { ap: ap0 }
//! 1.409422s  l2 actor#4 LinkUp { ap: ap1 }
//! ```
//!
//! The recorder is a ring buffer: when it fills, the **oldest** events
//! are overwritten (and counted), so the most recent history is always
//! available. Tracing is off by default (zero overhead beyond a branch);
//! enable it with [`FlightRecorder::enable`] before the run. Each
//! [`TraceEvent`] implements [`fh_telemetry::TraceInstant`], so a
//! recorded log exports straight to Chrome-trace via
//! `fh_telemetry::export`.

use std::fmt::Write as _;

use fh_telemetry::{FlightRecorder, TraceInstant};

use crate::class::ServiceClass;
use crate::packet::FlowId;
use crate::world::{DropReason, L2Event};
use crate::NodeId;

/// One traced protocol event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A signaling message entered the network.
    ControlSent {
        /// Message kind (`"RtSolPr"`, `"HI"`, …).
        kind: &'static str,
        /// On-wire size including the IPv6 header.
        bytes: u32,
        /// Whether a buffer-management option rode along.
        piggybacked: bool,
    },
    /// A signaling message reached a protocol agent.
    ControlReceived {
        /// Message kind.
        kind: &'static str,
        /// The node whose agent consumed it.
        at: NodeId,
    },
    /// A signaling exchange timed out and was retransmitted.
    ControlRetransmit {
        /// Message kind being retried.
        kind: &'static str,
        /// The node that retransmitted.
        by: NodeId,
    },
    /// A data or control packet was lost.
    Drop {
        /// The flow the packet belonged to (0 = control plane).
        flow: FlowId,
        /// Why it was lost.
        reason: DropReason,
    },
    /// A link-layer event at a mobile host.
    L2 {
        /// The host.
        mh: NodeId,
        /// The event.
        event: L2Event,
    },
    /// A handover buffer accepted a packet.
    BufferAdmit {
        /// The buffering access router.
        ar: NodeId,
        /// Service class of the admitted packet.
        class: ServiceClass,
        /// The packet's flow.
        flow: FlowId,
    },
    /// A handover buffer pushed out a queued packet to admit a more
    /// important one (Table 3.3 drop-front).
    BufferEvict {
        /// The buffering access router.
        ar: NodeId,
        /// Service class of the *evicted* packet.
        class: ServiceClass,
        /// The evicted packet's flow.
        flow: FlowId,
    },
    /// A handover buffer started draining toward the mobile host.
    BufferFlush {
        /// The flushing access router.
        ar: NodeId,
        /// Which flush path (`"par"`, `"nar"`, `"local"`).
        path: &'static str,
        /// Packets queued at flush start.
        pkts: usize,
    },
    /// The fault-injection layer fired a scheduled node fault.
    FaultFired {
        /// The faulted node.
        node: NodeId,
        /// What happened (`"crash"`, `"restart"`, `"power-off"`).
        what: &'static str,
    },
    /// A piece of soft state reached its lifetime without a refresh.
    StateExpired {
        /// The node holding the state.
        node: NodeId,
        /// What expired (`"host-route"`, `"reservation"`, …).
        what: &'static str,
    },
    /// Dead-peer or crash cleanup reclaimed buffered state.
    StateReclaimed {
        /// The node that reclaimed.
        node: NodeId,
        /// Packets released by the reclaim.
        pkts: usize,
    },
    /// The overload-control layer shed a parked packet to relieve byte
    /// pressure.
    PressureShed {
        /// The shedding access router.
        ar: NodeId,
        /// Shed-ladder rung that fired (`"best-effort"`, `"drop-front"`,
        /// `"force-flush"`).
        rung: &'static str,
        /// Service class of the shed packet.
        class: ServiceClass,
        /// The shed packet's flow.
        flow: FlowId,
    },
    /// The handover watchdog force-resolved a wedged buffering session.
    WatchdogFired {
        /// The router whose session was wedged.
        node: NodeId,
        /// Packets re-accounted by the forced resolution.
        pkts: usize,
    },
}

impl TraceEvent {
    /// The node a timeline should attribute the event to (`None` for
    /// network-global events such as sends and drops, which are recorded
    /// at the statistics hub rather than at a node).
    #[must_use]
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            TraceEvent::ControlSent { .. } | TraceEvent::Drop { .. } => None,
            TraceEvent::ControlReceived { at: n, .. }
            | TraceEvent::ControlRetransmit { by: n, .. }
            | TraceEvent::L2 { mh: n, .. }
            | TraceEvent::BufferAdmit { ar: n, .. }
            | TraceEvent::BufferEvict { ar: n, .. }
            | TraceEvent::BufferFlush { ar: n, .. }
            | TraceEvent::FaultFired { node: n, .. }
            | TraceEvent::StateExpired { node: n, .. }
            | TraceEvent::StateReclaimed { node: n, .. }
            | TraceEvent::PressureShed { ar: n, .. }
            | TraceEvent::WatchdogFired { node: n, .. } => Some(n),
        }
    }
}

impl TraceInstant for TraceEvent {
    fn name(&self) -> &'static str {
        match self {
            TraceEvent::ControlSent { .. } => "ctrl-sent",
            TraceEvent::ControlReceived { .. } => "ctrl-recv",
            TraceEvent::ControlRetransmit { .. } => "ctrl-rtx",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::L2 { .. } => "l2",
            TraceEvent::BufferAdmit { .. } => "buffer-admit",
            TraceEvent::BufferEvict { .. } => "buffer-evict",
            TraceEvent::BufferFlush { .. } => "buffer-flush",
            TraceEvent::FaultFired { .. } => "fault",
            TraceEvent::StateExpired { .. } => "state-expired",
            TraceEvent::StateReclaimed { .. } => "state-reclaimed",
            TraceEvent::PressureShed { .. } => "pressure-shed",
            TraceEvent::WatchdogFired { .. } => "watchdog",
        }
    }

    fn track(&self) -> u64 {
        self.node().map_or(0, |n| n.index() as u64)
    }

    fn write_args(&self, out: &mut String) {
        let _ = match *self {
            TraceEvent::ControlSent {
                kind,
                bytes,
                piggybacked,
            } => write!(
                out,
                "{{\"kind\":\"{kind}\",\"bytes\":{bytes},\"piggyback\":{piggybacked}}}"
            ),
            TraceEvent::ControlReceived { kind, at } => {
                write!(out, "{{\"kind\":\"{kind}\",\"at\":{}}}", at.index())
            }
            TraceEvent::ControlRetransmit { kind, by } => {
                write!(out, "{{\"kind\":\"{kind}\",\"by\":{}}}", by.index())
            }
            TraceEvent::Drop { flow, reason } => write!(
                out,
                "{{\"flow\":{},\"reason\":\"{}\"}}",
                flow.0,
                reason.label()
            ),
            TraceEvent::L2 { mh, event } => {
                write!(out, "{{\"mh\":{},\"event\":\"{event:?}\"}}", mh.index())
            }
            TraceEvent::BufferAdmit { ar, class, flow }
            | TraceEvent::BufferEvict { ar, class, flow } => write!(
                out,
                "{{\"ar\":{},\"class\":\"{class}\",\"flow\":{}}}",
                ar.index(),
                flow.0
            ),
            TraceEvent::BufferFlush { ar, path, pkts } => write!(
                out,
                "{{\"ar\":{},\"path\":\"{path}\",\"pkts\":{pkts}}}",
                ar.index()
            ),
            TraceEvent::FaultFired { node, what } | TraceEvent::StateExpired { node, what } => {
                write!(out, "{{\"node\":{},\"what\":\"{what}\"}}", node.index())
            }
            TraceEvent::StateReclaimed { node, pkts }
            | TraceEvent::WatchdogFired { node, pkts } => {
                write!(out, "{{\"node\":{},\"pkts\":{pkts}}}", node.index())
            }
            TraceEvent::PressureShed {
                ar,
                rung,
                class,
                flow,
            } => write!(
                out,
                "{{\"ar\":{},\"rung\":\"{rung}\",\"class\":\"{class}\",\"flow\":{}}}",
                ar.index(),
                flow.0
            ),
        };
    }
}

/// Renders a recorded trace as one line per event, oldest surviving
/// first, after a note of how many events the ring overwrote.
#[must_use]
pub fn render_trace(rec: &FlightRecorder<TraceEvent>) -> String {
    let mut out = String::new();
    if rec.overwritten() > 0 {
        let _ = writeln!(out, "… {} earlier events overwritten", rec.overwritten());
    }
    for (t, ev) in rec.events() {
        match ev {
            TraceEvent::ControlSent {
                kind,
                bytes,
                piggybacked,
            } => {
                let _ = writeln!(
                    out,
                    "{t}  ctrl {kind} {bytes}B{}",
                    if *piggybacked { " piggyback" } else { "" }
                );
            }
            TraceEvent::ControlReceived { kind, at } => {
                let _ = writeln!(out, "{t}  recv {kind} @{at}");
            }
            TraceEvent::ControlRetransmit { kind, by } => {
                let _ = writeln!(out, "{t}  rtx {kind} by {by}");
            }
            TraceEvent::Drop { flow, reason } => {
                let _ = writeln!(out, "{t}  drop {flow} {reason:?}");
            }
            TraceEvent::L2 { mh, event } => {
                let _ = writeln!(out, "{t}  l2 {mh} {event:?}");
            }
            TraceEvent::BufferAdmit { ar, class, flow } => {
                let _ = writeln!(out, "{t}  buf+ {ar} {class} {flow}");
            }
            TraceEvent::BufferEvict { ar, class, flow } => {
                let _ = writeln!(out, "{t}  buf- {ar} {class} {flow}");
            }
            TraceEvent::BufferFlush { ar, path, pkts } => {
                let _ = writeln!(out, "{t}  flush {ar} {path} {pkts}pkt");
            }
            TraceEvent::FaultFired { node, what } => {
                let _ = writeln!(out, "{t}  fault {node} {what}");
            }
            TraceEvent::StateExpired { node, what } => {
                let _ = writeln!(out, "{t}  expire {node} {what}");
            }
            TraceEvent::StateReclaimed { node, pkts } => {
                let _ = writeln!(out, "{t}  reclaim {node} {pkts}pkt");
            }
            TraceEvent::PressureShed {
                ar,
                rung,
                class,
                flow,
            } => {
                let _ = writeln!(out, "{t}  shed {ar} {rung} {class} {flow}");
            }
            TraceEvent::WatchdogFired { node, pkts } => {
                let _ = writeln!(out, "{t}  watchdog {node} {pkts}pkt");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fh_sim::SimTime;

    fn args_json(ev: &TraceEvent) -> String {
        let mut out = String::new();
        ev.write_args(&mut out);
        out
    }

    #[test]
    fn render_formats_each_kind() {
        let mut log = FlightRecorder::new();
        log.enable(32);
        let node = NodeId::from_index(0);
        log.record(
            SimTime::from_millis(1),
            TraceEvent::ControlSent {
                kind: "HI",
                bytes: 120,
                piggybacked: true,
            },
        );
        log.record(
            SimTime::from_millis(2),
            TraceEvent::Drop {
                flow: FlowId(3),
                reason: DropReason::BufferOverflow,
            },
        );
        log.record(
            SimTime::from_millis(3),
            TraceEvent::BufferAdmit {
                ar: node,
                class: ServiceClass::RealTime,
                flow: FlowId(3),
            },
        );
        log.record(
            SimTime::from_millis(4),
            TraceEvent::BufferFlush {
                ar: node,
                path: "nar",
                pkts: 9,
            },
        );
        log.record(
            SimTime::from_millis(5),
            TraceEvent::StateReclaimed { node, pkts: 4 },
        );
        log.record(
            SimTime::from_millis(6),
            TraceEvent::PressureShed {
                ar: node,
                rung: "best-effort",
                class: ServiceClass::BestEffort,
                flow: FlowId(3),
            },
        );
        log.record(
            SimTime::from_millis(7),
            TraceEvent::WatchdogFired { node, pkts: 2 },
        );
        let s = render_trace(&log);
        assert!(s.contains("ctrl HI 120B piggyback"));
        assert!(s.contains("drop flow3 BufferOverflow"));
        assert!(s.contains("buf+ actor#0 real-time flow3"));
        assert!(s.contains("flush actor#0 nar 9pkt"));
        assert!(s.contains("reclaim actor#0 4pkt"));
        assert!(s.contains("shed actor#0 best-effort best-effort flow3"));
        assert!(s.contains("watchdog actor#0 2pkt"));
        assert!(!s.contains("overwritten"));

        let mut ring = FlightRecorder::new();
        ring.enable(2);
        for i in 0..5 {
            ring.record(
                SimTime::from_millis(i),
                TraceEvent::ControlReceived {
                    kind: "RA",
                    at: node,
                },
            );
        }
        let s = render_trace(&ring);
        assert!(s.starts_with("… 3 earlier events overwritten\n"));
        assert_eq!(s.matches("recv RA @actor#0").count(), 2);
    }

    #[test]
    fn trace_events_export_as_instants() {
        let ev = TraceEvent::BufferAdmit {
            ar: NodeId::from_index(0),
            class: ServiceClass::HighPriority,
            flow: FlowId(2),
        };
        assert_eq!(ev.name(), "buffer-admit");
        assert_eq!(ev.track(), 0);
        assert_eq!(
            args_json(&ev),
            "{\"ar\":0,\"class\":\"high-priority\",\"flow\":2}"
        );
        let send = TraceEvent::ControlSent {
            kind: "FBU",
            bytes: 88,
            piggybacked: false,
        };
        assert_eq!(send.node(), None);
        assert_eq!(
            args_json(&send),
            "{\"kind\":\"FBU\",\"bytes\":88,\"piggyback\":false}"
        );
        let shed = TraceEvent::PressureShed {
            ar: NodeId::from_index(1),
            rung: "drop-front",
            class: ServiceClass::RealTime,
            flow: FlowId(5),
        };
        assert_eq!(shed.name(), "pressure-shed");
        assert_eq!(shed.track(), 1);
        assert_eq!(
            args_json(&shed),
            "{\"ar\":1,\"rung\":\"drop-front\",\"class\":\"real-time\",\"flow\":5}"
        );
        let wd = TraceEvent::WatchdogFired {
            node: NodeId::from_index(2),
            pkts: 3,
        };
        assert_eq!(wd.name(), "watchdog");
        assert_eq!(args_json(&wd), "{\"node\":2,\"pkts\":3}");
    }
}
