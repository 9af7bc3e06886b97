//! # fh-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the *Enhanced Buffer Management for Fast
//! Handover* reproduction: a small, single-threaded, fully deterministic
//! discrete-event simulator in the spirit of the ns-2 core that the original
//! thesis used. Everything above it (links, radios, Mobile IPv6, TCP, the
//! buffer-management scheme under study) is expressed as [`Actor`]s exchanging
//! time-stamped messages.
//!
//! ## Design
//!
//! * **Virtual time** — integer nanoseconds ([`SimTime`] / [`SimDuration`]);
//!   no floating-point clock drift, exact event ordering.
//! * **Determinism** — one global event queue with FIFO tie-breaking, and a
//!   self-contained xoshiro256++ RNG ([`Rng64`]) so identical seeds replay
//!   identical runs on every platform.
//! * **Actors + shared world** — protocol entities are actors; topology,
//!   radio environment and statistics live in a shared state value every
//!   actor can reach through its [`Ctx`].
//!
//! ## Example
//!
//! ```
//! use fh_sim::{Actor, Ctx, SimDuration, SimTime, Simulator};
//!
//! struct Counter;
//! impl Actor<(), u64> for Counter {
//!     fn handle(&mut self, ctx: &mut Ctx<'_, (), u64>, _msg: ()) {
//!         *ctx.shared += 1;
//!         if *ctx.shared < 3 {
//!             ctx.send_self(SimDuration::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(0u64, 7);
//! let id = sim.add_actor(Box::new(Counter));
//! sim.schedule(SimTime::ZERO, id, ());
//! sim.run();
//! assert_eq!(sim.shared, 3);
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod actor;
mod backoff;
mod calendar;
mod hash;
mod lanes;
mod queue;
mod rng;
pub mod shard;
pub mod stats;
mod time;

pub use actor::{Actor, ActorId, AsAny, Ctx, Simulator};
pub use backoff::Backoff;
pub use hash::{FastHasher, FastMap, FastSet};
pub use lanes::LaneQueue;
pub use queue::{EventKey, EventQueue, QueueKind};
pub use rng::{derive_domain_seed, derive_seed, Rng64, DOMAIN_SALT};
pub use shard::{run_epochs, EpochReport, Outbox, ShardState};
pub use time::{SimDuration, SimTime};
