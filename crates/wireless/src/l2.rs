//! The mobile host's link-layer process: coverage sampling, handoff
//! triggers and the L2 black-out.
//!
//! [`MhRadio`] is a component embedded in a mobile-host actor. It samples
//! the mobility model on a timer and raises [`L2Event`]s to its owner:
//!
//! * **`SourceTrigger` (L2-ST)** — the signal from the current AP is
//!   degrading (distance increasing) while another AP covers the host:
//!   the cue for the Fast Handover protocol to start anticipating
//!   (thesis §3.2.2.1).
//! * **`LinkDown` / `LinkUp`** — bracket the L2 black-out. Between them the
//!   host can neither send nor receive; the black-out length is
//!   configurable (60–400 ms per the 802.11 measurement study the thesis
//!   cites; 200 ms in its simulations).
//!
//! The *protocol* decides when to actually switch by calling
//! [`MhRadio::begin_handoff`]; if the host runs out of coverage first, the
//! radio detaches on its own and re-attaches to the best AP it finds —
//! modelling a handoff without anticipation.

use fh_sim::{SimDuration, SimTime};

use fh_net::{ApId, L2Event, NetCtx, NetMsg, NodeId, TimerKind};

/// Emits an L2 event to the owning actor and mirrors it into the protocol
/// trace (when tracing is enabled).
fn emit_l2<S: RadioWorld>(ctx: &mut NetCtx<'_, S>, mh: NodeId, event: L2Event) {
    let now = ctx.now();
    ctx.shared
        .stats_mut()
        .trace
        .record(now, fh_net::trace::TraceEvent::L2 { mh, event });
    ctx.send_at(mh, now, NetMsg::L2(event));
}

use crate::mih::MihEngine;
use crate::position::{Mobility, Position};
use crate::radio::RadioWorld;

/// How the radio decides to raise an L2 source trigger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TriggerMode {
    /// The legacy rules: geometric signal-degrading, or raw RSSI
    /// hysteresis when [`RadioConfig::signal`] is set.
    #[default]
    Legacy,
    /// 802.21 Media Independent Handover: a [`MihEngine`] derives
    /// `LinkGoingDown` from the serving signal, which maps onto the
    /// existing source-trigger path. Technology-agnostic and storm-free
    /// by construction.
    Mih,
}

impl TriggerMode {
    /// Both modes, in the order scenario plans list them.
    pub const ALL: [TriggerMode; 2] = [TriggerMode::Legacy, TriggerMode::Mih];

    /// The name the scenario-plan `trigger` key uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TriggerMode::Legacy => "legacy",
            TriggerMode::Mih => "mih",
        }
    }
}

/// Configuration for a mobile host's radio process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioConfig {
    /// How often the radio samples position/signal.
    pub sample_every: SimDuration,
    /// Length of the L2 black-out between detach and attach (200 ms in the
    /// thesis' simulations). For make-before-break this is the network
    /// entry time of the second radio instead — the serving link keeps
    /// receiving throughout.
    pub l2_handoff_delay: SimDuration,
    /// When set, triggers use received signal strength with hysteresis
    /// (the way real stations decide) instead of the geometric
    /// signal-degrading rule. Association limits stay geometric.
    pub signal: Option<crate::SignalModel>,
    /// Source-trigger derivation (legacy rules by default).
    pub trigger: TriggerMode,
    /// MIH tuning, used when `trigger` is [`TriggerMode::Mih`].
    pub mih: crate::MihConfig,
    /// The host carries a second wide-area radio: cross-technology
    /// handoffs run make-before-break (no L2 black-out).
    pub multi_iface: bool,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            sample_every: SimDuration::from_millis(50),
            l2_handoff_delay: SimDuration::from_millis(200),
            signal: None,
            trigger: TriggerMode::Legacy,
            mih: crate::MihConfig::default(),
            multi_iface: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RadioState {
    /// Not started yet.
    Off,
    /// Associated with an AP.
    Attached { ap: ApId, triggered: bool },
    /// In the L2 black-out, will associate with `target`.
    BlackOut { target: ApId },
    /// Make-before-break: still served by `old` while the second radio
    /// performs network entry toward `target`.
    Bringing { old: ApId, target: ApId },
    /// Detached with no target; scanning for coverage.
    Searching,
}

/// The link-layer radio component of one mobile host.
#[derive(Debug)]
pub struct MhRadio {
    mh: NodeId,
    mobility: Mobility,
    config: RadioConfig,
    state: RadioState,
    handoff_seq: u64,
    prev_dist: Option<f64>,
    /// MIH event derivation for the serving link (present in MIH mode).
    mih: Option<MihEngine>,
    /// Completed handoffs (LinkUp count after the initial attach).
    pub handoffs_completed: u64,
}

impl MhRadio {
    /// Creates a radio for mobile host `mh` following `mobility`.
    #[must_use]
    pub fn new(mh: NodeId, mobility: Mobility, config: RadioConfig) -> Self {
        let mih = (config.trigger == TriggerMode::Mih)
            .then(|| MihEngine::new(config.mih, config.signal.unwrap_or_default()));
        MhRadio {
            mh,
            mobility,
            config,
            state: RadioState::Off,
            handoff_seq: 0,
            prev_dist: None,
            mih,
            handoffs_completed: 0,
        }
    }

    /// The host's position at `t`.
    #[must_use]
    pub fn position_at(&self, t: SimTime) -> Position {
        self.mobility.position_at(t)
    }

    /// The AP the radio's serving interface is currently associated with.
    #[must_use]
    pub fn current_ap(&self) -> Option<ApId> {
        match self.state {
            RadioState::Attached { ap, .. } => Some(ap),
            RadioState::Bringing { old, .. } => Some(old),
            _ => None,
        }
    }

    /// `true` while associated (including make-before-break, where the old
    /// link keeps serving).
    #[must_use]
    pub fn is_attached(&self) -> bool {
        matches!(
            self.state,
            RadioState::Attached { .. } | RadioState::Bringing { .. }
        )
    }

    /// Brings the radio up: associates with the nearest covering AP (if
    /// any), emits `LinkUp`, and starts the sampling timer. Call once, from
    /// the owner's `Start` handler.
    pub fn start<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        let pos = self.position_at(ctx.now());
        if let Some(ap) = ctx.shared.radio().nearest_covering(pos, None) {
            ctx.shared.radio_mut().attach(self.mh, ap);
            self.state = RadioState::Attached {
                ap,
                triggered: false,
            };
            if let Some(m) = self.mih.as_mut() {
                let _ = m.on_attach();
            }
            emit_l2(ctx, self.mh, L2Event::LinkUp { ap });
        } else {
            self.state = RadioState::Searching;
        }
        ctx.send_self(
            self.config.sample_every,
            NetMsg::Timer {
                kind: TimerKind::Mobility,
                token: 0,
            },
        );
    }

    /// Starts a handoff toward `target`.
    ///
    /// Same-technology (or single-radio) handoffs detach first — emitting
    /// `LinkDown` and entering the L2 black-out — and attach after
    /// `l2_handoff_delay`. A multi-homed host switching technologies runs
    /// **make-before-break** instead: the second radio associates with
    /// `target` immediately and performs network entry for
    /// `l2_handoff_delay` while the serving link keeps receiving; no
    /// `LinkDown` is emitted and no black-out occurs.
    ///
    /// No-op if a handoff is already in progress or the radio is already
    /// on `target`.
    pub fn begin_handoff<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, target: ApId) {
        let RadioState::Attached { ap, .. } = self.state else {
            return;
        };
        if ap == target {
            return;
        }
        let cross_tech = ctx.shared.radio().ap(target).tech != ctx.shared.radio().ap(ap).tech;
        if self.config.multi_iface && cross_tech {
            ctx.shared.radio_mut().attach_aux(self.mh, target);
            self.state = RadioState::Bringing { old: ap, target };
            self.handoff_seq += 1;
            ctx.send_self(
                self.config.l2_handoff_delay,
                NetMsg::Timer {
                    kind: TimerKind::Attach,
                    token: self.handoff_seq,
                },
            );
            return;
        }
        ctx.shared.radio_mut().detach(self.mh);
        self.state = RadioState::BlackOut { target };
        self.handoff_seq += 1;
        if let Some(m) = self.mih.as_mut() {
            let _ = m.on_detach();
        }
        emit_l2(ctx, self.mh, L2Event::LinkDown { ap });
        ctx.send_self(
            self.config.l2_handoff_delay,
            NetMsg::Timer {
                kind: TimerKind::Attach,
                token: self.handoff_seq,
            },
        );
    }

    /// Suspends the radio for `duration` and re-associates with the same
    /// AP afterwards — a firmware scan pause or an interference burst, the
    /// "poor connection quality" episode of thesis §3.3. Emits `LinkDown`
    /// now and `LinkUp` at resume. No-op while detached.
    pub fn suspend<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, duration: SimDuration) {
        let RadioState::Attached { ap, .. } = self.state else {
            return;
        };
        ctx.shared.radio_mut().detach(self.mh);
        self.state = RadioState::BlackOut { target: ap };
        self.handoff_seq += 1;
        if let Some(m) = self.mih.as_mut() {
            let _ = m.on_detach();
        }
        emit_l2(ctx, self.mh, L2Event::LinkDown { ap });
        ctx.send_self(
            duration,
            NetMsg::Timer {
                kind: TimerKind::Attach,
                token: self.handoff_seq,
            },
        );
    }

    /// Feeds a timer event to the radio. Returns `true` if the event was
    /// consumed (owners must not interpret consumed timers themselves).
    pub fn on_timer<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        kind: TimerKind,
        token: u64,
    ) -> bool {
        match kind {
            TimerKind::Mobility => {
                self.sample(ctx);
                ctx.send_self(
                    self.config.sample_every,
                    NetMsg::Timer {
                        kind: TimerKind::Mobility,
                        token: 0,
                    },
                );
                true
            }
            TimerKind::Attach => {
                if token != self.handoff_seq {
                    return true; // stale attach from a superseded handoff
                }
                match self.state {
                    RadioState::BlackOut { target } => {
                        ctx.shared.radio_mut().attach(self.mh, target);
                        self.state = RadioState::Attached {
                            ap: target,
                            triggered: false,
                        };
                        self.prev_dist = None;
                        self.handoffs_completed += 1;
                        if let Some(m) = self.mih.as_mut() {
                            let _ = m.on_attach();
                        }
                        emit_l2(ctx, self.mh, L2Event::LinkUp { ap: target });
                    }
                    RadioState::Bringing { target, .. } => {
                        // Network entry finished: the second radio becomes
                        // the serving interface; the old link stays
                        // associated so in-flight frames still arrive.
                        ctx.shared.radio_mut().promote_aux(self.mh);
                        self.state = RadioState::Attached {
                            ap: target,
                            triggered: false,
                        };
                        self.prev_dist = None;
                        self.handoffs_completed += 1;
                        if let Some(m) = self.mih.as_mut() {
                            let _ = m.on_attach();
                        }
                        emit_l2(ctx, self.mh, L2Event::LinkUp { ap: target });
                    }
                    _ => {}
                }
                true
            }
            _ => false,
        }
    }

    fn sample<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        let now = ctx.now();
        let pos = self.position_at(now);
        match self.state {
            RadioState::Off | RadioState::BlackOut { .. } | RadioState::Bringing { .. } => {}
            RadioState::Searching => {
                // Scan: associate with the best covering AP after a full
                // black-out (scan + associate, no anticipation possible).
                if let Some(ap) = ctx.shared.radio().nearest_covering(pos, None) {
                    self.state = RadioState::BlackOut { target: ap };
                    self.handoff_seq += 1;
                    ctx.send_self(
                        self.config.l2_handoff_delay,
                        NetMsg::Timer {
                            kind: TimerKind::Attach,
                            token: self.handoff_seq,
                        },
                    );
                }
            }
            RadioState::Attached { ap, triggered } => {
                // Retire the old make-before-break link once the host
                // leaves its coverage: the last moment frames multicast on
                // the old path can still arrive.
                if let Some(old_ap) = ctx.shared.radio().aux_attachment(self.mh) {
                    if !ctx.shared.radio().ap(old_ap).covers(pos) {
                        ctx.shared.radio_mut().detach_aux(self.mh);
                        emit_l2(ctx, self.mh, L2Event::LinkDown { ap: old_ap });
                    }
                }
                let ap_info = *ctx.shared.radio().ap(ap);
                let dist = ap_info.pos.distance(pos);
                let degrading = self.prev_dist.is_some_and(|prev| dist > prev + 1e-9);
                self.prev_dist = Some(dist);
                if !ap_info.covers(pos) {
                    // Walked out of coverage before the protocol reacted.
                    ctx.shared.radio_mut().detach(self.mh);
                    if let Some(m) = self.mih.as_mut() {
                        let _ = m.on_detach();
                    }
                    emit_l2(ctx, self.mh, L2Event::LinkDown { ap });
                    let next = ctx.shared.radio().nearest_covering(pos, Some(ap));
                    if let Some(target) = next {
                        self.state = RadioState::BlackOut { target };
                        self.handoff_seq += 1;
                        ctx.send_self(
                            self.config.l2_handoff_delay,
                            NetMsg::Timer {
                                kind: TimerKind::Attach,
                                token: self.handoff_seq,
                            },
                        );
                    } else {
                        self.state = RadioState::Searching;
                    }
                    return;
                }
                let trigger_candidate = if let Some(m) = self.mih.as_mut() {
                    // MIH mode: the 802.21 LinkGoingDown event — derived
                    // from the serving signal, independent of the target's
                    // technology — is the predictive cue. Map it onto the
                    // existing source-trigger path, aiming at the best
                    // covering alternative. The model is re-budgeted to the
                    // serving cell's size so each medium judges its own
                    // link: a blanket cellular sector is healthy at
                    // distances that would end a WLAN association.
                    let serving = m.signal().scaled_to_range(ap_info.radius).rssi_at(dist);
                    let _ = m.on_sample(serving);
                    if m.going_down() {
                        // Latched LinkGoingDown: trigger as soon as any
                        // alternative AP covers the host (it may appear
                        // later than the event itself).
                        ctx.shared.radio().nearest_covering(pos, Some(ap))
                    } else {
                        None
                    }
                } else if let Some(model) = self.config.signal {
                    // Signal mode: a neighbor must beat the serving AP by
                    // the hysteresis margin.
                    let serving = model.rssi_at(dist);
                    ctx.shared
                        .radio()
                        .aps_covering(pos)
                        .into_iter()
                        .filter(|&c| c != ap)
                        .find(|&c| {
                            let d = ctx.shared.radio().ap(c).pos.distance(pos);
                            let candidate = model.rssi_at(d);
                            model.is_usable(candidate) && model.should_switch(serving, candidate)
                        })
                } else if degrading {
                    ctx.shared.radio().nearest_covering(pos, Some(ap))
                } else {
                    None
                };
                if !triggered {
                    if let Some(next) = trigger_candidate {
                        self.state = RadioState::Attached {
                            ap,
                            triggered: true,
                        };
                        emit_l2(ctx, self.mh, L2Event::SourceTrigger { current: ap, next });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::{RadioEnv, WirelessSpec};
    use fh_net::{NetStats, NetWorld, Topology};
    use fh_sim::{Actor, Simulator};

    struct World {
        topo: Topology,
        stats: NetStats,
        radio: RadioEnv,
    }
    impl NetWorld for World {
        fn topology(&self) -> &Topology {
            &self.topo
        }
        fn topology_mut(&mut self) -> &mut Topology {
            &mut self.topo
        }
        fn stats(&self) -> &NetStats {
            &self.stats
        }
        fn stats_mut(&mut self) -> &mut NetStats {
            &mut self.stats
        }
    }
    impl RadioWorld for World {
        fn radio(&self) -> &RadioEnv {
            &self.radio
        }
        fn radio_mut(&mut self) -> &mut RadioEnv {
            &mut self.radio
        }
    }

    /// A mobile host that records its L2 events and (optionally) reacts to
    /// triggers by switching immediately — a degenerate "protocol".
    struct Mh {
        radio: Option<MhRadio>,
        events: Vec<(SimTime, L2Event)>,
        switch_on_trigger: bool,
    }

    impl Actor<NetMsg, World> for Mh {
        fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
            let mut radio = self.radio.take().expect("radio installed");
            match msg {
                NetMsg::Start => radio.start(ctx),
                NetMsg::Timer { kind, token } => {
                    let _ = radio.on_timer(ctx, kind, token);
                }
                NetMsg::L2(ev) => {
                    self.events.push((ctx.now(), ev));
                    if self.switch_on_trigger {
                        if let L2Event::SourceTrigger { next, .. } = ev {
                            radio.begin_handoff(ctx, next);
                        }
                    }
                }
                _ => {}
            }
            self.radio = Some(radio);
        }
    }

    struct Nop;
    impl Actor<NetMsg, World> for Nop {
        fn handle(&mut self, _: &mut NetCtx<'_, World>, _: NetMsg) {}
    }

    /// Two APs in the thesis geometry: centres 212 m apart, radius 112 m.
    fn thesis_world(
        switch_on_trigger: bool,
        mobility: Mobility,
    ) -> (Simulator<NetMsg, World>, fh_sim::ActorId) {
        let mut sim = Simulator::new(
            World {
                topo: Topology::new(),
                stats: NetStats::new(),
                radio: RadioEnv::new(WirelessSpec::default_80211b()),
            },
            5,
        );
        let ar1 = sim.add_actor(Box::new(Nop));
        let ar2 = sim.add_actor(Box::new(Nop));
        sim.shared.radio.add_ap(ar1, Position::new(0.0, 0.0), 112.0);
        sim.shared
            .radio
            .add_ap(ar2, Position::new(212.0, 0.0), 112.0);
        let mh = sim.add_actor(Box::new(Mh {
            radio: None,
            events: vec![],
            switch_on_trigger,
        }));
        let radio = MhRadio::new(mh, mobility, RadioConfig::default());
        sim.actor_mut::<Mh>(mh).unwrap().radio = Some(radio);
        sim.schedule(SimTime::ZERO, mh, NetMsg::Start);
        (sim, mh)
    }

    fn walk() -> Mobility {
        Mobility::linear(Position::new(0.0, 0.0), Position::new(212.0, 0.0), 10.0)
    }

    #[test]
    fn initial_attach_emits_link_up() {
        let (mut sim, mh) = thesis_world(false, Mobility::Stationary(Position::new(0.0, 0.0)));
        sim.run_until(SimTime::from_secs(1));
        let events = &sim.actor::<Mh>(mh).unwrap().events;
        assert!(matches!(events[0].1, L2Event::LinkUp { ap } if ap == ApId(0)));
    }

    #[test]
    fn trigger_fires_inside_the_overlap() {
        let (mut sim, mh) = thesis_world(false, walk());
        sim.run_until(SimTime::from_secs(15));
        let events = &sim.actor::<Mh>(mh).unwrap().events;
        let trig = events
            .iter()
            .find(|(_, e)| matches!(e, L2Event::SourceTrigger { .. }))
            .expect("trigger expected");
        // Overlap spans x in [100, 112] → t in [10 s, 11.2 s].
        assert!(trig.0 >= SimTime::from_secs(10), "at {}", trig.0);
        assert!(trig.0 <= SimTime::from_millis(11_300), "at {}", trig.0);
        match trig.1 {
            L2Event::SourceTrigger { current, next } => {
                assert_eq!(current, ApId(0));
                assert_eq!(next, ApId(1));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn protocol_driven_handoff_completes_after_blackout() {
        let (mut sim, mh) = thesis_world(true, walk());
        sim.run_until(SimTime::from_secs(15));
        let m = sim.actor::<Mh>(mh).unwrap();
        let down = m
            .events
            .iter()
            .find(|(_, e)| matches!(e, L2Event::LinkDown { .. }))
            .expect("link down");
        let up = m
            .events
            .iter()
            .find(|(t, e)| matches!(e, L2Event::LinkUp { ap } if *ap == ApId(1)) && *t > down.0)
            .expect("link up on new AP");
        let blackout = up.0 - down.0;
        assert_eq!(blackout, SimDuration::from_millis(200));
        assert_eq!(sim.shared.radio.attachment(mh), Some(ApId(1)));
    }

    #[test]
    fn unanticipated_handoff_happens_on_coverage_loss() {
        // No protocol reaction: the radio must save itself at x > 112.
        let (mut sim, mh) = thesis_world(false, walk());
        sim.run_until(SimTime::from_secs(15));
        let m = sim.actor::<Mh>(mh).unwrap();
        let down = m
            .events
            .iter()
            .find(|(_, e)| matches!(e, L2Event::LinkDown { .. }))
            .expect("link down");
        // Coverage ends at x = 112 → t = 11.2 s.
        assert!(down.0 >= SimTime::from_millis(11_200));
        assert!(down.0 <= SimTime::from_millis(11_400));
        assert_eq!(sim.shared.radio.attachment(mh), Some(ApId(1)));
        assert_eq!(m.radio.as_ref().unwrap().handoffs_completed, 1);
    }

    #[test]
    fn ping_pong_triggers_on_both_directions() {
        let mobility =
            Mobility::ping_pong(Position::new(20.0, 0.0), Position::new(192.0, 0.0), 10.0);
        let (mut sim, mh) = thesis_world(true, mobility);
        // One full period is 2 * 172 m / 10 m/s = 34.4 s.
        sim.run_until(SimTime::from_secs(70));
        let m = sim.actor::<Mh>(mh).unwrap();
        let handoffs = m.radio.as_ref().unwrap().handoffs_completed;
        assert!(handoffs >= 4, "expected ≥4 handoffs, got {handoffs}");
        // Alternating attachment directions.
        let ups: Vec<ApId> = m
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                L2Event::LinkUp { ap } => Some(*ap),
                _ => None,
            })
            .collect();
        for w in ups.windows(2) {
            assert_ne!(w[0], w[1], "consecutive attaches must alternate");
        }
    }

    #[test]
    fn no_trigger_while_approaching_the_ap() {
        // Walking toward AP0's centre from the overlap: signal improves,
        // no trigger even though AP1 also covers the start.
        let mobility = Mobility::linear(Position::new(105.0, 0.0), Position::new(10.0, 0.0), 10.0);
        let (mut sim, mh) = thesis_world(false, mobility);
        sim.run_until(SimTime::from_secs(12));
        let m = sim.actor::<Mh>(mh).unwrap();
        assert!(
            !m.events
                .iter()
                .any(|(_, e)| matches!(e, L2Event::SourceTrigger { .. })),
            "no trigger expected: {:?}",
            m.events
        );
    }

    #[test]
    fn signal_mode_triggers_later_than_geometry() {
        // With discs sized to the signal model's usable range (≈132 m),
        // the geometric rule triggers as soon as the far AP covers the
        // host; the 5 dB hysteresis rule waits until the NAR is decisively
        // stronger (x ≈ 124 m — well past the midpoint).
        let model = crate::SignalModel::default();
        let radius = model.usable_range_m();
        let walk = Mobility::linear(Position::new(88.0, 0.0), Position::new(212.0, 0.0), 10.0);
        let trigger_time = |signal: Option<crate::SignalModel>| -> SimTime {
            let mut sim = Simulator::new(
                World {
                    topo: Topology::new(),
                    stats: NetStats::new(),
                    radio: RadioEnv::new(WirelessSpec::default_80211b()),
                },
                5,
            );
            let ar1 = sim.add_actor(Box::new(Nop));
            let ar2 = sim.add_actor(Box::new(Nop));
            sim.shared
                .radio
                .add_ap(ar1, Position::new(0.0, 0.0), radius);
            sim.shared
                .radio
                .add_ap(ar2, Position::new(212.0, 0.0), radius);
            let mh = sim.add_actor(Box::new(Mh {
                radio: None,
                events: vec![],
                switch_on_trigger: false,
            }));
            let config = RadioConfig {
                signal,
                ..RadioConfig::default()
            };
            let radio = MhRadio::new(mh, walk.clone(), config);
            sim.actor_mut::<Mh>(mh).unwrap().radio = Some(radio);
            sim.schedule(SimTime::ZERO, mh, NetMsg::Start);
            sim.run_until(SimTime::from_secs(15));
            sim.actor::<Mh>(mh)
                .unwrap()
                .events
                .iter()
                .find(|(_, e)| matches!(e, L2Event::SourceTrigger { .. }))
                .map(|&(t, _)| t)
                .expect("trigger expected")
        };
        let geometric = trigger_time(None);
        let signal = trigger_time(Some(model));
        assert!(
            signal > geometric + SimDuration::from_millis(1_000),
            "hysteresis must delay the trigger: {geometric} vs {signal}"
        );
        // But it still fires inside the coverage (x ≤ 132 → t ≤ 4.45 s).
        assert!(signal <= SimTime::from_millis(4_450), "at {signal}");
    }

    #[test]
    fn make_before_break_skips_the_blackout() {
        // AP0 is the thesis WLAN cell; AP1 is a wide-area cellular sector
        // covering the whole walk. A multi-homed host switching
        // technologies must come up on the new link *before* the old one
        // goes down — no black-out window at all.
        let mut sim = Simulator::new(
            World {
                topo: Topology::new(),
                stats: NetStats::new(),
                radio: RadioEnv::new(WirelessSpec::default_80211b()),
            },
            5,
        );
        let ar1 = sim.add_actor(Box::new(Nop));
        let ar2 = sim.add_actor(Box::new(Nop));
        sim.shared.radio.add_ap(ar1, Position::new(0.0, 0.0), 112.0);
        sim.shared.radio.add_ap_tech(
            ar2,
            Position::new(212.0, 0.0),
            1_500.0,
            crate::RadioTechnology::Cellular,
        );
        let mh = sim.add_actor(Box::new(Mh {
            radio: None,
            events: vec![],
            switch_on_trigger: true,
        }));
        let config = RadioConfig {
            multi_iface: true,
            ..RadioConfig::default()
        };
        let radio = MhRadio::new(mh, walk(), config);
        sim.actor_mut::<Mh>(mh).unwrap().radio = Some(radio);
        sim.schedule(SimTime::ZERO, mh, NetMsg::Start);
        sim.run_until(SimTime::from_secs(15));
        let m = sim.actor::<Mh>(mh).unwrap();
        let up_new = m
            .events
            .iter()
            .find(|(_, e)| matches!(e, L2Event::LinkUp { ap } if *ap == ApId(1)))
            .expect("LinkUp on the cellular link");
        let down_old = m
            .events
            .iter()
            .find(|(_, e)| matches!(e, L2Event::LinkDown { ap } if *ap == ApId(0)))
            .expect("LinkDown on the old WLAN link");
        assert!(
            up_new.0 < down_old.0,
            "make-before-break: new link up ({}) before old link down ({})",
            up_new.0,
            down_old.0
        );
        // The old link is retired only at WLAN coverage loss (x = 112 m).
        assert!(down_old.0 >= SimTime::from_millis(11_200));
        assert_eq!(sim.shared.radio.attachment(mh), Some(ApId(1)));
        assert_eq!(sim.shared.radio.aux_attachment(mh), None);
        assert_eq!(m.radio.as_ref().unwrap().handoffs_completed, 1);
    }

    #[test]
    fn mih_trigger_precedes_link_down() {
        // MIH mode with discs sized to the signal model's usable range:
        // the LinkGoingDown-derived source trigger must fire while the
        // serving link is still up, before any LinkDown.
        let model = crate::SignalModel::default();
        let radius = model.usable_range_m();
        let mut sim = Simulator::new(
            World {
                topo: Topology::new(),
                stats: NetStats::new(),
                radio: RadioEnv::new(WirelessSpec::default_80211b()),
            },
            5,
        );
        let ar1 = sim.add_actor(Box::new(Nop));
        let ar2 = sim.add_actor(Box::new(Nop));
        sim.shared
            .radio
            .add_ap(ar1, Position::new(0.0, 0.0), radius);
        sim.shared
            .radio
            .add_ap(ar2, Position::new(212.0, 0.0), radius);
        let mh = sim.add_actor(Box::new(Mh {
            radio: None,
            events: vec![],
            switch_on_trigger: false,
        }));
        let config = RadioConfig {
            trigger: TriggerMode::Mih,
            signal: Some(model),
            ..RadioConfig::default()
        };
        let radio = MhRadio::new(mh, walk(), config);
        sim.actor_mut::<Mh>(mh).unwrap().radio = Some(radio);
        sim.schedule(SimTime::ZERO, mh, NetMsg::Start);
        sim.run_until(SimTime::from_secs(20));
        let m = sim.actor::<Mh>(mh).unwrap();
        let trig = m
            .events
            .iter()
            .find(|(_, e)| matches!(e, L2Event::SourceTrigger { .. }))
            .expect("MIH-derived trigger expected");
        let down = m
            .events
            .iter()
            .find(|(_, e)| matches!(e, L2Event::LinkDown { .. }))
            .expect("link down at coverage loss");
        assert!(
            trig.0 < down.0,
            "LinkGoingDown trigger ({}) must precede LinkDown ({})",
            trig.0,
            down.0
        );
        match trig.1 {
            L2Event::SourceTrigger { current, next } => {
                assert_eq!(current, ApId(0));
                assert_eq!(next, ApId(1));
            }
            _ => unreachable!(),
        }
        // Exactly one trigger: the latch plus the `triggered` flag keep
        // the storm away even though the degraded condition persists for
        // seconds.
        assert_eq!(
            m.events
                .iter()
                .filter(|(_, e)| matches!(e, L2Event::SourceTrigger { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn searching_host_attaches_when_coverage_appears() {
        // Starts outside all coverage, walks into AP0.
        let mobility = Mobility::linear(Position::new(-200.0, 0.0), Position::new(0.0, 0.0), 10.0);
        let (mut sim, mh) = thesis_world(false, mobility);
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(sim.shared.radio.attachment(mh), Some(ApId(0)));
    }
}
