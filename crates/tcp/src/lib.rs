//! # fh-tcp — TCP Reno with coarse-grained timers
//!
//! A from-scratch TCP Reno implementation in the style of the ns-2 agents
//! the thesis used for its link-layer handoff experiments (§4.2.4):
//!
//! * slow start, congestion avoidance, fast retransmit, fast recovery;
//! * BSD-style **coarse timers**: a 500 ms tick clock, a 1 s minimum
//!   retransmission timeout, exponential backoff, Karn's algorithm;
//! * an immediate-ACK receiver with out-of-order hole tracking;
//! * built-in sequence/throughput tracing for the Fig 4.12–4.14 plots.
//!
//! Both endpoints are sans-I/O components: they consume segments and
//! return packets, so the same code runs on a wired correspondent node and
//! on a mobile host behind a lossy radio.
//!
//! The coarse timers are the whole point of the TCP experiments: a 200 ms
//! radio black-out loses a window of data, and the connection then sits
//! idle for 1–1.5 s waiting for the coarse RTO — unless the access router
//! buffered the packets, in which case the window arrives late but intact
//! and the sender never notices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod receiver;
mod sender;

pub use receiver::{ReceiverTrace, TcpReceiver};
pub use sender::{SenderTrace, TcpConfig, TcpSender};
