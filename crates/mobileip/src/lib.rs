//! # fh-mip — Mobile IPv6 and Hierarchical Mobile IPv6
//!
//! The mobility-management substrate under the fast-handover scheme
//! (thesis chapter 2):
//!
//! * [`BindingCache`] — the mobility binding table of home agents, MAPs and
//!   correspondents, with association lifetimes.
//! * [`MobilityAnchor`] — home agent and HMIPv6 Mobility Anchor Point
//!   behaviour: binding-update processing, interception of traffic into the
//!   served prefix and IPv6-in-IPv6 tunneling toward the registered care-of
//!   address.
//! * [`MipClient`] — the mobile-host side: home address / RCoA / LCoA
//!   bookkeeping, binding-update construction, acknowledgement handling and
//!   registration-delay measurement.
//!
//! Hierarchy is what makes the fast-handover experiments meaningful: with a
//! MAP in the domain, an intra-domain handoff needs only a *local* binding
//! update (LCoA at the MAP), so the residual disruption is exactly the L2
//! black-out plus buffer flushing — the part the thesis' scheme manages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod anchor;
mod binding;
mod client;

pub use anchor::MobilityAnchor;
pub use binding::{BindingCache, BindingEntry};
pub use client::MipClient;
