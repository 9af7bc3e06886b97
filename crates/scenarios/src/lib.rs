//! # fh-scenarios — composed simulations and experiment runners
//!
//! This crate assembles the substrates (`fh-sim`, `fh-net`, `fh-wireless`,
//! `fh-mip`, `fh-tcp`, `fh-traffic`) and the paper's contribution
//! (`fh-core`) into runnable scenarios:
//!
//! * [`HmipScenario`] — one world builder, three worlds. The thesis'
//!   Fig 4.1 network ([`HmipScenario::build`]: CN → MAP → {PAR, NAR} with
//!   802.11-style cells 212 m apart and mobile hosts walking between
//!   them), the Fig 4.11 WLAN ([`HmipScenario::wlan`]: one router, two
//!   cells, a pure link-layer handoff under a TCP download) and the
//!   chapter-2 roaming across two MAP domains behind a home agent
//!   ([`HmipScenario::roaming`]) are three specs for the same builder.
//! * [`experiments`] — one runner per evaluation figure (4.2 through 4.14)
//!   plus ablations (threshold `a` sweep, black-out sweep, signaling
//!   accounting).
//! * [`plan`] — declarative scenario plans: a TOML file describing
//!   topology, workloads, faults, the sweep axis and post-quiesce
//!   [`expectations`], run through the same deterministic grid engine
//!   the experiments use, plus a seeded plan fuzzer.
//!
//! ## Quickstart
//!
//! ```
//! use fh_net::ServiceClass;
//! use fh_scenarios::{HmipConfig, HmipScenario};
//! use fh_sim::SimTime;
//!
//! let mut scenario = HmipScenario::build(HmipConfig::default());
//! let flow = scenario.add_audio_64k(0, ServiceClass::RealTime);
//! scenario.run_until(SimTime::from_secs(16));
//! assert_eq!(scenario.mh_agent(0).handoffs, 1, "one PAR→NAR handover");
//! assert!(scenario.flow_sink(flow).received() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod build;
pub mod expectations;
pub mod experiments;
mod hmip;
pub mod metro;
mod nodes;
pub mod plan;
pub mod sweep;
mod toml;
mod world;

pub use hmip::{
    geometry, CellularConfig, HmipConfig, HmipScenario, LeakReport, MovementPlan, RoamingConfig,
    WlanConfig,
};
pub use nodes::{ArNode, CnNode, MapNode, MhNode};
pub use world::World;
