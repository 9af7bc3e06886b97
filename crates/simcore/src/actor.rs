//! The actor-based discrete-event kernel.
//!
//! A [`Simulator`] owns a set of actors (protocol entities, hosts, routers…),
//! a shared world state `S` (topology, radio environment, statistics hub) and
//! the pending-event queue. Actors communicate *only* by scheduling messages
//! for each other; a message scheduled with zero delay is still delivered
//! through the queue, after the current handler returns. This gives every
//! simulation a single, deterministic total order of events.
//!
//! # Examples
//!
//! A two-actor ping-pong that counts rounds in shared state:
//!
//! ```
//! use fh_sim::{Actor, ActorId, Ctx, SimDuration, SimTime, Simulator};
//!
//! struct Player { peer: Option<ActorId> }
//!
//! impl Actor<&'static str, u32> for Player {
//!     fn handle(&mut self, ctx: &mut Ctx<'_, &'static str, u32>, msg: &'static str) {
//!         *ctx.shared += 1;
//!         if *ctx.shared < 10 {
//!             let peer = self.peer.unwrap();
//!             let reply = if msg == "ping" { "pong" } else { "ping" };
//!             ctx.send(peer, SimDuration::from_millis(1), reply);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(0u32, 42);
//! let a = sim.add_actor(Box::new(Player { peer: None }));
//! let b = sim.add_actor(Box::new(Player { peer: None }));
//! sim.actor_mut::<Player>(a).unwrap().peer = Some(b);
//! sim.actor_mut::<Player>(b).unwrap().peer = Some(a);
//! sim.schedule(SimTime::ZERO, a, "ping");
//! sim.run();
//! assert_eq!(sim.shared, 10);
//! assert_eq!(sim.now(), SimTime::from_millis(9));
//! ```

use std::any::Any;
use std::fmt;

use crate::queue::{EventKey, EventQueue};
use crate::rng::Rng64;
use crate::time::{SimDuration, SimTime};

/// Identifies an actor within one [`Simulator`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ActorId(usize);

impl ActorId {
    /// The raw slot index (stable for the lifetime of the simulator).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds an id from a raw slot index. Only meaningful for the
    /// simulator whose [`Simulator::add_actor`] produced that index — for
    /// tests and trace tooling that label events by index, and for world
    /// builders that compute ids before adding the actors.
    #[must_use]
    pub fn from_index(index: usize) -> ActorId {
        ActorId(index)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Object-safe access to `Any`, blanket-implemented for every `'static` type.
///
/// This exists so concrete actor types can be recovered from
/// `Box<dyn Actor<M, S>>` after a run (for reading final statistics) without
/// each implementation writing downcast boilerplate.
pub trait AsAny: Any {
    /// Upcasts to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcasts to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulation entity that reacts to messages of type `M` with access to
/// shared world state `S`.
pub trait Actor<M, S>: AsAny {
    /// Handles one message delivered at the current simulation time.
    fn handle(&mut self, ctx: &mut Ctx<'_, M, S>, msg: M);
}

/// The per-dispatch view an actor gets of the simulation world.
///
/// Borrowed access to the clock, the event queue (via `send*`), the shared
/// state and the deterministic RNG.
pub struct Ctx<'a, M, S> {
    now: SimTime,
    self_id: ActorId,
    events: &'a mut EventQueue<(ActorId, M)>,
    /// Shared world state (topology, statistics, radio environment, …).
    pub shared: &'a mut S,
    /// The simulation-wide deterministic random number generator.
    pub rng: &'a mut Rng64,
}

impl<'a, M, S> Ctx<'a, M, S> {
    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor currently being dispatched.
    #[must_use]
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Schedules `msg` for delivery to `to` after `delay`.
    pub fn send(&mut self, to: ActorId, delay: SimDuration, msg: M) {
        self.events.push(self.now + delay, (to, msg));
    }

    /// Schedules `msg` for delivery to `to` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past.
    pub fn send_at(&mut self, to: ActorId, at: SimTime, msg: M) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        self.events.push(at, (to, msg));
    }

    /// Schedules `msg` back to the current actor after `delay`.
    pub fn send_self(&mut self, delay: SimDuration, msg: M) {
        self.send(self.self_id, delay, msg);
    }

    /// Schedules `msg` for `to` after `delay` and returns a key that can
    /// cancel the delivery until it fires (see [`Ctx::cancel`]).
    pub fn send_keyed(&mut self, to: ActorId, delay: SimDuration, msg: M) -> EventKey {
        self.events.push(self.now + delay, (to, msg))
    }

    /// Schedules a cancellable timer back to the current actor.
    pub fn send_self_keyed(&mut self, delay: SimDuration, msg: M) -> EventKey {
        self.send_keyed(self.self_id, delay, msg)
    }

    /// Cancels a pending delivery in O(1), returning its message.
    ///
    /// Returns `None` if the event already fired or was already cancelled.
    pub fn cancel(&mut self, key: EventKey) -> Option<M> {
        self.events.cancel(key).map(|(_, msg)| msg)
    }
}

/// A single-threaded deterministic discrete-event simulator.
pub struct Simulator<M, S> {
    now: SimTime,
    events: EventQueue<(ActorId, M)>,
    actors: Vec<Option<Box<dyn Actor<M, S>>>>,
    /// Shared world state, accessible between runs and from every actor.
    pub shared: S,
    rng: Rng64,
    processed: u64,
    event_limit: u64,
}

impl<M: 'static, S: 'static> Simulator<M, S> {
    /// Creates a simulator with the given shared state and RNG seed.
    #[must_use]
    pub fn new(shared: S, seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            actors: Vec::new(),
            shared,
            rng: Rng64::seed_from(seed),
            processed: 0,
            event_limit: u64::MAX,
        }
    }

    /// Registers an actor and returns its id. Ids are insertion indices:
    /// the `n`-th actor added (from 0) gets `ActorId::from_index(n)`.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M, S>>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        id
    }

    /// Schedules `msg` for `to` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past.
    pub fn schedule(&mut self, at: SimTime, to: ActorId, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.events.push(at, (to, msg));
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Caps the total number of events a run may dispatch (runaway guard).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Borrows a registered actor, downcast to its concrete type.
    ///
    /// Returns `None` if the id is unknown or the type does not match.
    #[must_use]
    pub fn actor<T: Actor<M, S>>(&self, id: ActorId) -> Option<&T> {
        // Deref through the Box explicitly: `Box<dyn Actor>` is itself
        // `'static` and would otherwise satisfy the `AsAny` blanket impl.
        let actor: &dyn Actor<M, S> = &**self.actors.get(id.0)?.as_ref()?;
        actor.as_any().downcast_ref::<T>()
    }

    /// Mutably borrows a registered actor, downcast to its concrete type.
    ///
    /// Returns `None` if the id is unknown or the type does not match.
    #[must_use]
    pub fn actor_mut<T: Actor<M, S>>(&mut self, id: ActorId) -> Option<&mut T> {
        let actor: &mut dyn Actor<M, S> = &mut **self.actors.get_mut(id.0)?.as_mut()?;
        actor.as_any_mut().downcast_mut::<T>()
    }

    /// Dispatches the next event, if any. Returns `false` when the queue is
    /// empty or the event limit has been reached.
    pub fn step(&mut self) -> bool {
        if self.processed >= self.event_limit {
            return false;
        }
        let Some((time, event)) = self.events.pop_in_place() else {
            return false;
        };
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.processed += 1;
        let to = event.as_ref().expect("backend returned a live entry").0;
        // Temporarily detach the actor so `Ctx` can borrow everything else.
        let Some(mut actor) = self.actors.get_mut(to.0).and_then(Option::take) else {
            *event = None;
            return true;
        };
        // One move, slot → handler argument; the handler may reuse the slot.
        // Taking it before the actor lookup parks it on the stack (+8 % on the
        // Fig 4.2 grid, DESIGN §13).
        let (_, msg) = event.take().expect("backend returned a live entry");
        let mut ctx = Ctx {
            now: self.now,
            self_id: to,
            events: &mut self.events,
            shared: &mut self.shared,
            rng: &mut self.rng,
        };
        actor.handle(&mut ctx, msg);
        self.actors[to.0] = Some(actor);
        true
    }

    /// Runs until the event queue is empty (or the event limit is reached).
    /// Returns the number of events dispatched by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.processed;
        while self.step() {}
        self.processed - before
    }

    /// Runs every event scheduled at or before `until`, then advances the
    /// clock to exactly `until`. Returns the number of events dispatched.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let before = self.processed;
        while self.processed < self.event_limit {
            match self.events.peek_time() {
                Some(t) if t <= until => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < until {
            self.now = until;
        }
        self.processed - before
    }
}

impl<M: 'static, S: 'static + fmt::Debug> fmt::Debug for Simulator<M, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("actors", &self.actors.len())
            .field("pending", &self.events.len())
            .field("processed", &self.processed)
            .field("shared", &self.shared)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    enum Msg {
        Tick,
        Stop,
    }

    struct Ticker {
        ticks: u32,
        period: SimDuration,
    }

    impl Actor<Msg, Vec<SimTime>> for Ticker {
        fn handle(&mut self, ctx: &mut Ctx<'_, Msg, Vec<SimTime>>, msg: Msg) {
            match msg {
                Msg::Tick => {
                    self.ticks += 1;
                    ctx.shared.push(ctx.now());
                    ctx.send_self(self.period, Msg::Tick);
                }
                Msg::Stop => {}
            }
        }
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut sim: Simulator<Msg, Vec<SimTime>> = Simulator::new(Vec::new(), 1);
        let t = sim.add_actor(Box::new(Ticker {
            ticks: 0,
            period: SimDuration::from_millis(100),
        }));
        sim.schedule(SimTime::ZERO, t, Msg::Tick);
        sim.run_until(SimTime::from_millis(450));
        assert_eq!(sim.now(), SimTime::from_millis(450));
        // Ticks at 0, 100, 200, 300, 400.
        assert_eq!(sim.shared.len(), 5);
        assert_eq!(sim.actor::<Ticker>(t).unwrap().ticks, 5);
    }

    #[test]
    fn run_until_is_resumable() {
        let mut sim: Simulator<Msg, Vec<SimTime>> = Simulator::new(Vec::new(), 1);
        let t = sim.add_actor(Box::new(Ticker {
            ticks: 0,
            period: SimDuration::from_millis(10),
        }));
        sim.schedule(SimTime::ZERO, t, Msg::Tick);
        sim.run_until(SimTime::from_millis(25));
        let first = sim.shared.len();
        sim.run_until(SimTime::from_millis(55));
        assert_eq!(first, 3); // 0, 10, 20
        assert_eq!(sim.shared.len(), 6); // + 30, 40, 50
    }

    #[test]
    fn event_limit_stops_runaway() {
        let mut sim: Simulator<Msg, Vec<SimTime>> = Simulator::new(Vec::new(), 1);
        let t = sim.add_actor(Box::new(Ticker {
            ticks: 0,
            period: SimDuration::ZERO, // would loop forever at t=0
        }));
        sim.schedule(SimTime::ZERO, t, Msg::Tick);
        sim.set_event_limit(1000);
        let n = sim.run();
        assert_eq!(n, 1000);
    }

    #[test]
    fn messages_to_unknown_actors_are_dropped() {
        let mut sim: Simulator<Msg, Vec<SimTime>> = Simulator::new(Vec::new(), 1);
        let ghost = ActorId(17);
        sim.events.push(SimTime::from_secs(1), (ghost, Msg::Stop));
        let n = sim.run();
        assert_eq!(n, 1); // dispatched (and ignored) without panicking
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn downcast_rejects_wrong_type() {
        struct Other;
        impl Actor<Msg, Vec<SimTime>> for Other {
            fn handle(&mut self, _: &mut Ctx<'_, Msg, Vec<SimTime>>, _: Msg) {}
        }
        let mut sim: Simulator<Msg, Vec<SimTime>> = Simulator::new(Vec::new(), 1);
        let id = sim.add_actor(Box::new(Other));
        assert!(sim.actor::<Ticker>(id).is_none());
        assert!(sim.actor::<Other>(id).is_some());
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct Arm;
        impl Actor<Msg, Vec<SimTime>> for Arm {
            fn handle(&mut self, ctx: &mut Ctx<'_, Msg, Vec<SimTime>>, msg: Msg) {
                match msg {
                    Msg::Tick => {
                        // Arm a timer, then immediately cancel it.
                        let key = ctx.send_self_keyed(SimDuration::from_millis(10), Msg::Stop);
                        assert!(matches!(ctx.cancel(key), Some(Msg::Stop)));
                        assert!(ctx.cancel(key).is_none(), "keys are single-use");
                    }
                    Msg::Stop => panic!("cancelled timer fired"),
                }
            }
        }
        let mut sim: Simulator<Msg, Vec<SimTime>> = Simulator::new(Vec::new(), 1);
        let a = sim.add_actor(Box::new(Arm));
        sim.schedule(SimTime::ZERO, a, Msg::Tick);
        assert_eq!(sim.run(), 1);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn message_survives_its_handler_reusing_the_queue() {
        // The message is taken out of its queue slot for the handler; a
        // handler that schedules before reading must still see it whole,
        // even when its pushes recycle that slot and reallocate both the
        // slot arena and the heap under it.
        struct Burst;
        impl Actor<Vec<u64>, Vec<Vec<u64>>> for Burst {
            fn handle(&mut self, ctx: &mut Ctx<'_, Vec<u64>, Vec<Vec<u64>>>, msg: Vec<u64>) {
                if msg.len() > 1 {
                    for i in 0..1_000 {
                        ctx.send_self(SimDuration::from_micros(i), vec![i]);
                    }
                }
                ctx.shared.push(msg);
            }
        }
        let mut sim: Simulator<Vec<u64>, Vec<Vec<u64>>> = Simulator::new(Vec::new(), 1);
        let a = sim.add_actor(Box::new(Burst));
        let original: Vec<u64> = (0..64).collect();
        sim.schedule(SimTime::ZERO, a, original.clone());
        assert_eq!(sim.run(), 1_001);
        assert_eq!(sim.shared[0], original);
        let echoed: Vec<u64> = sim.shared[1..].iter().map(|m| m[0]).collect();
        assert_eq!(echoed, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_same_event_trace() {
        fn trace() -> Vec<SimTime> {
            struct Jitter;
            impl Actor<Msg, Vec<SimTime>> for Jitter {
                fn handle(&mut self, ctx: &mut Ctx<'_, Msg, Vec<SimTime>>, _: Msg) {
                    ctx.shared.push(ctx.now());
                    if ctx.shared.len() < 50 {
                        let d = SimDuration::from_micros(ctx.rng.gen_range_u64(1000) + 1);
                        ctx.send_self(d, Msg::Tick);
                    }
                }
            }
            let mut sim: Simulator<Msg, Vec<SimTime>> = Simulator::new(Vec::new(), 99);
            let a = sim.add_actor(Box::new(Jitter));
            sim.schedule(SimTime::ZERO, a, Msg::Tick);
            sim.run();
            sim.shared
        }
        assert_eq!(trace(), trace());
    }
}
