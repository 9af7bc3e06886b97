//! # fh-wireless — 802.11-style wireless substrate
//!
//! The radio layer under the fast-handover reproduction:
//!
//! * [`Position`] / [`Mobility`] — the thesis' geometry (§4.1): linear and
//!   ping-pong constant-speed movement evaluated as pure functions of time.
//! * [`AccessPoint`] / [`RadioEnv`] — disc coverage, one association per
//!   host, and a shared half-duplex channel per AP so buffer flushes
//!   serialize realistically.
//! * [`MhRadio`] — the link-layer process on each mobile host: it raises
//!   L2 source triggers when the signal degrades within reach of another
//!   AP, and models the L2 black-out (default 200 ms) between `LinkDown`
//!   and `LinkUp`.
//!
//! What the paper's 802.11 testbed provides physically, this crate provides
//! behaviourally: a trigger to anticipate handoffs, a black-out during which
//! frames to the host are lost, and a serialized air interface.
//!
//! The substrate is technology-agnostic: every AP carries a
//! [`RadioTechnology`] (WLAN or wide-area cellular, with per-technology
//! rate/latency/coverage), a multi-homed host can hold a second
//! ([`IfaceId::WIDE_AREA`]) association for make-before-break vertical
//! handoffs, and [`MihEngine`] derives 802.21-style
//! `LinkGoingDown`/`LinkUp`/`LinkDown` events that feed the same trigger
//! path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod l2;
mod mih;
mod position;
mod radio;
mod signal;
mod tech;

pub use l2::{MhRadio, RadioConfig, TriggerMode};
pub use mih::{MihConfig, MihEngine, MihEvent};
pub use position::{Mobility, Position};
pub use radio::{send_downlink, send_uplink, AccessPoint, RadioEnv, RadioWorld, WirelessSpec};
pub use signal::SignalModel;
pub use tech::{IfaceId, RadioTechnology};
