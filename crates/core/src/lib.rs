//! # fh-core — the enhanced buffer management scheme for fast handover
//!
//! This crate implements the paper's contribution (Wei-Min Yao & Yaw-Chung
//! Chen, *An Enhanced Buffer Management Scheme for Fast Handover Protocol*):
//! the FMIPv6 fast-handover protocol with class-aware, dual-router handover
//! buffering, plus every baseline the thesis compares against.
//!
//! * [`Scheme`] / [`ProtocolConfig`] — scheme selection (proposed DUAL ±
//!   classification, NAR-only original FMIPv6, PAR-only smooth-handover
//!   draft, no-buffer FH) and the thesis' tunables (buffer request size,
//!   BI start-time/lifetime, the best-effort threshold `a`, optional
//!   handover authentication, optional precise per-class negotiation).
//! * [`policy`] — the buffer-policy layer: Tables 3.2 / 3.3 as pure,
//!   exhaustively tested functions ([`policy::matrix`]), served to the
//!   datapath by [`policy::PolicyEngine`].
//! * [`BufferPool`] — the per-router handover buffer: all-or-nothing
//!   grants, two-level admission, real-time drop-front, lifetimes.
//! * [`ArAgent`] — the access router (PAR + NAR roles), an orchestrator
//!   over three layers: `policy` (per-packet decisions) ← `datapath` (the
//!   one `classify → admit → park | forward | tunnel` pipeline) ←
//!   `signaling` (the PAR/NAR/MH state machines).
//! * [`MhAgent`] — the mobile host: trigger handling, RtSolPr+BI → FBU →
//!   FNA+BF choreography, MAP binding updates.
//!
//! ## Message flow (Fig 3.2)
//!
//! ```text
//! MH            PAR              NAR
//! | --RtSolPr+BI-> |                |
//! |                | ---HI+BR-----> |
//! |                | <--HAck+BA---- |
//! | <--PrRtAdv+BA- |                |
//! | --FBU--------> |                |
//! |   (black-out)  | ==redirect===> |   per Table 3.3
//! | ---------------+--- FNA+BF ---> |
//! | <==============+== flush ====== |
//! |                | <----BF------- |
//! | <== flush ==== |                |
//! | --BU to MAP--------------------->
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ar;
mod buffer;
mod datapath;
mod metrics;
pub mod policy;
mod scheme;
mod signaling;
mod soft_state;

pub use ar::ArAgent;
pub use buffer::{BufferPool, BufferStats};
pub use metrics::{ArMetrics, ArSoftState};
pub use policy::AdmissionLimit;
pub use scheme::{
    ParseRetransmitError, ParseSchemeError, ProtocolConfig, RetransmitConfig, Scheme,
};
pub use signaling::mh::MhAgent;
