//! The radio environment: access points, attachments and the shared
//! wireless channel.
//!
//! Each access point (AP) sits on an access router's node and covers a disc
//! of configurable radius. A mobile host is attached to at most one AP at a
//! time — the thesis' key constraint ("currently available IEEE 802.11
//! wireless LAN cards can only access one access point at a time", §2.4) —
//! and all frames through one AP share a single half-duplex channel, so
//! buffer flushes serialize naturally instead of arriving as an impossible
//! burst.
//!
//! Frames sent to a detached host are lost and recorded under
//! [`DropReason::RadioDetached`]: this is exactly the loss the buffer
//! management scheme exists to prevent.

use fh_sim::{FastMap, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use fh_net::{
    ApId, DropReason, FaultSpec, FaultState, FaultVerdict, NetCtx, NetMsg, NetWorld, NodeId, Packet,
};

use crate::position::Position;
use crate::tech::RadioTechnology;

/// Static parameters of the shared wireless channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WirelessSpec {
    /// Channel capacity in bits per second (11 Mb/s by default, as 802.11b).
    pub bandwidth_bps: u64,
    /// Over-the-air propagation plus MAC access delay.
    pub delay: SimDuration,
}

impl WirelessSpec {
    /// 802.11b-flavoured defaults: 11 Mb/s, 1 ms access+propagation delay.
    #[must_use]
    pub fn default_80211b() -> Self {
        WirelessSpec {
            bandwidth_bps: 11_000_000,
            delay: SimDuration::from_millis(1),
        }
    }

    /// Serialization time of `bytes` on the channel (never zero).
    #[must_use]
    #[inline]
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        fh_net::serialization_time(bytes, self.bandwidth_bps)
    }
}

impl Default for WirelessSpec {
    fn default() -> Self {
        WirelessSpec::default_80211b()
    }
}

/// One access point (WLAN cell or cellular sector), co-located with an
/// access router node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessPoint {
    /// Link-layer identifier.
    pub id: ApId,
    /// The access-router actor this AP hangs off.
    pub router: NodeId,
    /// Centre of the coverage disc.
    pub pos: Position,
    /// Coverage radius in meters (112 m in the thesis topology).
    pub radius: f64,
    /// The link-layer technology behind this AP (WLAN by default).
    pub tech: RadioTechnology,
}

impl AccessPoint {
    /// `true` if `p` lies inside this AP's coverage disc.
    #[must_use]
    pub fn covers(&self, p: Position) -> bool {
        self.pos.distance(p) <= self.radius
    }
}

/// The shared radio world: APs, attachments and per-AP channel state.
#[derive(Debug)]
pub struct RadioEnv {
    aps: Vec<AccessPoint>,
    spec: WirelessSpec,
    /// Channel parameters of every [`RadioTechnology::Cellular`] AP (the
    /// WLAN spec stays per-environment in `spec`, preserving every legacy
    /// custom-bandwidth scenario byte-for-byte).
    cellular_spec: WirelessSpec,
    attachments: FastMap<NodeId, ApId>,
    /// Secondary-interface attachments of multi-homed hosts (the wide-area
    /// radio during make-before-break). Legacy single-interface hosts
    /// never appear here.
    aux: FastMap<NodeId, ApId>,
    busy_until: Vec<SimTime>,
    faults: Vec<Option<Box<FaultState>>>,
    /// Frames lost to detached receivers, per mobile host.
    pub airtime_frames: u64,
}

impl Default for RadioEnv {
    fn default() -> Self {
        RadioEnv {
            aps: Vec::new(),
            spec: WirelessSpec::default(),
            cellular_spec: RadioTechnology::Cellular.default_spec(),
            attachments: FastMap::default(),
            aux: FastMap::default(),
            busy_until: Vec::new(),
            faults: Vec::new(),
            airtime_frames: 0,
        }
    }
}

impl RadioEnv {
    /// Creates an empty environment with the given channel parameters.
    #[must_use]
    pub fn new(spec: WirelessSpec) -> Self {
        RadioEnv {
            spec,
            ..RadioEnv::default()
        }
    }

    /// The WLAN channel parameters.
    #[must_use]
    pub fn spec(&self) -> WirelessSpec {
        self.spec
    }

    /// The cellular channel parameters.
    #[must_use]
    pub fn cellular_spec(&self) -> WirelessSpec {
        self.cellular_spec
    }

    /// Overrides the channel parameters shared by all cellular APs.
    pub fn set_cellular_spec(&mut self, spec: WirelessSpec) {
        self.cellular_spec = spec;
    }

    /// The channel parameters governing `ap`'s air interface.
    #[must_use]
    pub fn spec_of(&self, ap: ApId) -> WirelessSpec {
        match self.aps[ap.0 as usize].tech {
            RadioTechnology::Wlan => self.spec,
            RadioTechnology::Cellular => self.cellular_spec,
        }
    }

    /// Registers a WLAN access point and returns its id.
    pub fn add_ap(&mut self, router: NodeId, pos: Position, radius: f64) -> ApId {
        self.add_ap_tech(router, pos, radius, RadioTechnology::Wlan)
    }

    /// Registers an access point of an explicit technology.
    pub fn add_ap_tech(
        &mut self,
        router: NodeId,
        pos: Position,
        radius: f64,
        tech: RadioTechnology,
    ) -> ApId {
        assert!(radius > 0.0, "coverage radius must be positive");
        let id = ApId(self.aps.len() as u32);
        self.aps.push(AccessPoint {
            id,
            router,
            pos,
            radius,
            tech,
        });
        self.busy_until.push(SimTime::ZERO);
        self.faults.push(None);
        id
    }

    /// Installs a seeded fault model on `ap`'s air interface.
    ///
    /// Every frame through the AP — uplink and downlink, control and data —
    /// passes the fault layer. Seed per AP via [`fh_sim::derive_seed`] so
    /// fault decisions stay independent of other channels.
    ///
    /// # Panics
    ///
    /// Panics on an unknown AP id.
    pub fn set_fault(&mut self, ap: ApId, spec: FaultSpec, seed: u64) {
        let idx = ap.0 as usize;
        assert!(idx < self.aps.len(), "unknown AP");
        self.faults[idx] = if spec.is_noop() {
            None
        } else {
            Some(Box::new(FaultState::new(spec, seed)))
        };
    }

    /// The fault spec active on `ap`'s air interface, if any.
    #[must_use]
    pub fn fault_spec(&self, ap: ApId) -> Option<&FaultSpec> {
        self.faults
            .get(ap.0 as usize)?
            .as_deref()
            .map(FaultState::spec)
    }

    /// Runs the fault layer for one frame entering `ap`'s channel.
    fn fault_decision(&mut self, now: SimTime, ap: ApId) -> FaultVerdict {
        match self.faults[ap.0 as usize].as_mut() {
            Some(state) => state.decide(now),
            None => FaultVerdict::Pass {
                extra_delay: SimDuration::ZERO,
                duplicate: false,
            },
        }
    }

    /// Access-point lookup.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    #[must_use]
    pub fn ap(&self, id: ApId) -> &AccessPoint {
        &self.aps[id.0 as usize]
    }

    /// All registered APs.
    #[must_use]
    pub fn aps(&self) -> &[AccessPoint] {
        &self.aps
    }

    /// APs whose coverage disc contains `p`, nearest first; equal
    /// distances keep AP index order.
    #[must_use]
    pub fn aps_covering(&self, p: Position) -> Vec<ApId> {
        let mut v: Vec<&AccessPoint> = self.aps.iter().filter(|ap| ap.covers(p)).collect();
        v.sort_by(|a, b| {
            a.pos
                .distance(p)
                .partial_cmp(&b.pos.distance(p))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        v.into_iter().map(|ap| ap.id).collect()
    }

    /// The first AP of [`RadioEnv::aps_covering`] other than `except`,
    /// found without allocating: the nearest covering AP, the lowest
    /// index among equally near ones. A covered point's distance is
    /// never `NaN` (`covers` is `distance <= radius`), so the strict `<`
    /// keeps exactly the AP the stable sort would put first.
    #[must_use]
    pub fn nearest_covering(&self, p: Position, except: Option<ApId>) -> Option<ApId> {
        let mut best: Option<(ApId, f64)> = None;
        for ap in &self.aps {
            let d = ap.pos.distance(p);
            if d <= ap.radius
                && Some(ap.id) != except
                && best.is_none_or(|(_, nearest)| d < nearest)
            {
                best = Some((ap.id, d));
            }
        }
        best.map(|(id, _)| id)
    }

    /// Associates `mh`'s serving interface with `ap`, replacing any
    /// previous serving association (one card talks to one AP at a time).
    pub fn attach(&mut self, mh: NodeId, ap: ApId) {
        assert!((ap.0 as usize) < self.aps.len(), "unknown AP");
        self.attachments.insert(mh, ap);
    }

    /// Drops `mh`'s serving association. Returns the AP it was attached to.
    pub fn detach(&mut self, mh: NodeId) -> Option<ApId> {
        self.attachments.remove(&mh)
    }

    /// The AP `mh`'s serving interface is currently associated with.
    #[must_use]
    #[inline]
    pub fn attachment(&self, mh: NodeId) -> Option<ApId> {
        self.attachments.get(&mh).copied()
    }

    /// Associates `mh`'s secondary (wide-area) interface with `ap` — the
    /// make-before-break step of a multi-homed host: the new radio comes
    /// up while the serving one keeps receiving.
    pub fn attach_aux(&mut self, mh: NodeId, ap: ApId) {
        assert!((ap.0 as usize) < self.aps.len(), "unknown AP");
        self.aux.insert(mh, ap);
    }

    /// Drops `mh`'s secondary association. Returns the AP it was on.
    pub fn detach_aux(&mut self, mh: NodeId) -> Option<ApId> {
        self.aux.remove(&mh)
    }

    /// The AP `mh`'s secondary interface is associated with, if any.
    #[must_use]
    pub fn aux_attachment(&self, mh: NodeId) -> Option<ApId> {
        self.aux.get(&mh).copied()
    }

    /// Completes make-before-break: the secondary interface becomes the
    /// serving one, and the old serving attachment (if any) moves to the
    /// secondary slot so in-flight frames on the old link still arrive.
    /// Returns the new serving AP. No-op without a secondary association.
    pub fn promote_aux(&mut self, mh: NodeId) -> Option<ApId> {
        let new_serving = self.aux.remove(&mh)?;
        if let Some(old) = self.attachments.insert(mh, new_serving) {
            self.aux.insert(mh, old);
        }
        Some(new_serving)
    }

    /// `true` if any of `mh`'s interfaces is associated with `ap` — the
    /// downlink gate. For single-interface hosts this is exactly
    /// `attachment(mh) == Some(ap)`.
    #[must_use]
    #[inline]
    pub fn is_attached(&self, mh: NodeId, ap: ApId) -> bool {
        self.attachments.get(&mh) == Some(&ap) || self.aux.get(&mh) == Some(&ap)
    }

    /// Fills `out` (cleared first) with the mobile hosts that have any
    /// interface associated with `ap`, sorted. The buffer is the
    /// caller's so a per-beacon caller reuses one allocation.
    pub fn attached_mhs(&self, ap: ApId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.attachments
                .iter()
                .chain(&self.aux)
                .filter(|&(_, &a)| a == ap)
                .map(|(&mh, _)| mh),
        );
        out.sort(); // deterministic order
        out.dedup();
    }

    /// Reserves airtime for one frame of `bytes` on `ap`'s channel and
    /// returns the arrival instant at the receiver.
    fn reserve_airtime(&mut self, now: SimTime, ap: ApId, bytes: u32) -> SimTime {
        let spec = self.spec_of(ap);
        let tx = spec.tx_time(bytes);
        let idx = ap.0 as usize;
        let start = self.busy_until[idx].max(now);
        self.busy_until[idx] = start + tx;
        self.airtime_frames += 1;
        self.busy_until[idx] + spec.delay
    }
}

/// Shared-state contract for worlds with a radio environment.
pub trait RadioWorld: NetWorld {
    /// The radio environment.
    fn radio(&self) -> &RadioEnv;
    /// Mutable radio environment.
    fn radio_mut(&mut self) -> &mut RadioEnv;
}

/// Sends `pkt` from `ap` down to mobile host `mh`.
///
/// The frame is lost (and recorded as [`DropReason::RadioDetached`]) unless
/// `mh` is currently attached to `ap` — this is the black-out loss the
/// buffering scheme protects against.
pub fn send_downlink<S: RadioWorld>(
    ctx: &mut NetCtx<'_, S>,
    ap: ApId,
    mh: NodeId,
    pkt: Packet,
) -> bool {
    if !ctx.shared.radio().is_attached(mh, ap) {
        fh_net::record_drop(ctx, pkt.flow, DropReason::RadioDetached);
        return false;
    }
    let now = ctx.now();
    let (extra_delay, duplicate) = match ctx.shared.radio_mut().fault_decision(now, ap) {
        FaultVerdict::Drop => {
            fh_net::record_drop(ctx, pkt.flow, DropReason::FaultInjected);
            return false;
        }
        FaultVerdict::Pass {
            extra_delay,
            duplicate,
        } => (extra_delay, duplicate),
    };
    let router = ctx.shared.radio().ap(ap).router;
    let arrival = ctx.shared.radio_mut().reserve_airtime(now, ap, pkt.size) + extra_delay;
    if duplicate {
        let dup_arrival = ctx.shared.radio_mut().reserve_airtime(now, ap, pkt.size) + extra_delay;
        ctx.shared.stats_mut().record_duplicate(pkt.flow);
        ctx.send_at(
            mh,
            dup_arrival,
            NetMsg::RadioPacket {
                ap,
                from: router,
                pkt: pkt.clone(),
            },
        );
    }
    ctx.send_at(
        mh,
        arrival,
        NetMsg::RadioPacket {
            ap,
            from: router,
            pkt,
        },
    );
    true
}

/// Sends `pkt` from mobile host `mh` up to its current AP's router.
///
/// Returns `false` (recording the drop) if the host is detached.
pub fn send_uplink<S: RadioWorld>(ctx: &mut NetCtx<'_, S>, mh: NodeId, pkt: Packet) -> bool {
    let Some(ap) = ctx.shared.radio().attachment(mh) else {
        fh_net::record_drop(ctx, pkt.flow, DropReason::RadioDetached);
        return false;
    };
    let now = ctx.now();
    let (extra_delay, duplicate) = match ctx.shared.radio_mut().fault_decision(now, ap) {
        FaultVerdict::Drop => {
            fh_net::record_drop(ctx, pkt.flow, DropReason::FaultInjected);
            return false;
        }
        FaultVerdict::Pass {
            extra_delay,
            duplicate,
        } => (extra_delay, duplicate),
    };
    let router = ctx.shared.radio().ap(ap).router;
    let arrival = ctx.shared.radio_mut().reserve_airtime(now, ap, pkt.size) + extra_delay;
    if duplicate {
        let dup_arrival = ctx.shared.radio_mut().reserve_airtime(now, ap, pkt.size) + extra_delay;
        ctx.shared.stats_mut().record_duplicate(pkt.flow);
        ctx.send_at(
            router,
            dup_arrival,
            NetMsg::RadioPacket {
                ap,
                from: mh,
                pkt: pkt.clone(),
            },
        );
    }
    ctx.send_at(router, arrival, NetMsg::RadioPacket { ap, from: mh, pkt });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fh_net::{NetStats, Topology};
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

    struct Sink {
        got: Vec<(SimTime, u64)>,
    }
    impl Actor<NetMsg, World> for Sink {
        fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
            if let NetMsg::RadioPacket { pkt, .. } = msg {
                self.got.push((ctx.now(), pkt.seq));
            }
        }
    }

    fn world() -> Simulator<NetMsg, World> {
        Simulator::new(
            World {
                topo: Topology::new(),
                stats: NetStats::new(),
                radio: RadioEnv::new(WirelessSpec {
                    bandwidth_bps: 8_000_000,
                    delay: SimDuration::from_millis(1),
                }),
            },
            3,
        )
    }

    fn attached(env: &RadioEnv, ap: ApId) -> Vec<NodeId> {
        let mut mhs = Vec::new();
        env.attached_mhs(ap, &mut mhs);
        mhs
    }

    fn pkt(seq: u64) -> Packet {
        Packet::data(
            fh_net::FlowId(1),
            seq,
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            fh_net::ServiceClass::RealTime,
            1000,
            SimTime::ZERO,
        )
    }

    #[test]
    fn coverage_geometry() {
        let mut env = RadioEnv::default();
        let r = Topology::new(); // unused, ids come from a simulator normally
        drop(r);
        let mut sim = world();
        let ar = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ap = env.add_ap(ar, Position::new(0.0, 0.0), 112.0);
        assert!(env.ap(ap).covers(Position::new(111.9, 0.0)));
        assert!(!env.ap(ap).covers(Position::new(112.1, 0.0)));
        assert_eq!(env.ap(ap).router, ar);
    }

    #[test]
    fn nearest_ap_sorts_first() {
        let mut sim = world();
        let ar1 = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ar2 = sim.add_actor(Box::new(Sink { got: vec![] }));
        let env = sim.shared.radio_mut();
        let a = env.add_ap(ar1, Position::new(0.0, 0.0), 112.0);
        let b = env.add_ap(ar2, Position::new(212.0, 0.0), 112.0);
        // In the 12 m overlap, closer to B.
        let covering = env.aps_covering(Position::new(108.0, 0.0));
        assert_eq!(covering, vec![b, a]);
        // Outside both.
        assert!(env.aps_covering(Position::new(500.0, 0.0)).is_empty());
    }

    #[test]
    fn nearest_covering_is_the_first_of_aps_covering() {
        let mut sim = world();
        let routers: Vec<NodeId> = (0..4)
            .map(|_| sim.add_actor(Box::new(Sink { got: vec![] })))
            .collect();
        let env = sim.shared.radio_mut();
        let a = env.add_ap(routers[0], Position::new(0.0, 0.0), 112.0);
        let b = env.add_ap(routers[1], Position::new(212.0, 0.0), 112.0);
        // Same centre as `b`: always equally near, so index order decides.
        let c = env.add_ap(routers[2], Position::new(212.0, 0.0), 150.0);
        let d = env.add_ap(routers[3], Position::new(106.0, 40.0), 60.0);
        let excepts = [None, Some(a), Some(b), Some(c), Some(d)];
        let agree = |env: &RadioEnv, p: Position| {
            for except in excepts {
                let sorted = env
                    .aps_covering(p)
                    .into_iter()
                    .find(|&ap| Some(ap) != except);
                assert_eq!(
                    env.nearest_covering(p, except),
                    sorted,
                    "{p:?} except {except:?}"
                );
            }
        };
        // Equidistant from `a` and `b`/`c`.
        agree(env, Position::new(106.0, 0.0));
        let mut rng = fh_sim::Rng64::seed_from(7);
        for _ in 0..2_000 {
            let p = Position::new(
                rng.gen_range_f64(-150.0, 400.0),
                rng.gen_range_f64(-150.0, 150.0),
            );
            agree(env, p);
        }
    }

    #[test]
    fn downlink_to_attached_host_arrives_serialized() {
        let mut sim = world();
        let ar = sim.add_actor(Box::new(Sink { got: vec![] }));
        let mh = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ap = sim.shared.radio.add_ap(ar, Position::default(), 100.0);
        sim.shared.radio.attach(mh, ap);

        struct Driver {
            ap: ApId,
            mh: NodeId,
        }
        impl Actor<NetMsg, World> for Driver {
            fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
                if let NetMsg::Start = msg {
                    for seq in 0..3 {
                        send_downlink(ctx, self.ap, self.mh, pkt(seq));
                    }
                }
            }
        }
        let d = sim.add_actor(Box::new(Driver { ap, mh }));
        sim.schedule(SimTime::ZERO, d, NetMsg::Start);
        sim.run();
        let got = &sim.actor::<Sink>(mh).unwrap().got;
        // 1000 B at 8 Mb/s = 1 ms each, +1 ms delay: arrivals at 2, 3, 4 ms.
        assert_eq!(
            got.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![
                SimTime::from_millis(2),
                SimTime::from_millis(3),
                SimTime::from_millis(4)
            ]
        );
    }

    #[test]
    fn downlink_to_detached_host_is_dropped() {
        let mut sim = world();
        let ar = sim.add_actor(Box::new(Sink { got: vec![] }));
        let mh = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ap = sim.shared.radio.add_ap(ar, Position::default(), 100.0);

        struct Driver {
            ap: ApId,
            mh: NodeId,
        }
        impl Actor<NetMsg, World> for Driver {
            fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
                if let NetMsg::Start = msg {
                    assert!(!send_downlink(ctx, self.ap, self.mh, pkt(0)));
                }
            }
        }
        let d = sim.add_actor(Box::new(Driver { ap, mh }));
        sim.schedule(SimTime::ZERO, d, NetMsg::Start);
        sim.run();
        assert!(sim.actor::<Sink>(mh).unwrap().got.is_empty());
        assert_eq!(sim.shared.stats.drops(DropReason::RadioDetached), 1);
    }

    #[test]
    fn uplink_reaches_the_router() {
        let mut sim = world();
        let ar = sim.add_actor(Box::new(Sink { got: vec![] }));
        let mh = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ap = sim.shared.radio.add_ap(ar, Position::default(), 100.0);
        sim.shared.radio.attach(mh, ap);

        struct Driver {
            mh: NodeId,
        }
        impl Actor<NetMsg, World> for Driver {
            fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
                if let NetMsg::Start = msg {
                    assert!(send_uplink(ctx, self.mh, pkt(7)));
                }
            }
        }
        let d = sim.add_actor(Box::new(Driver { mh }));
        sim.schedule(SimTime::ZERO, d, NetMsg::Start);
        sim.run();
        assert_eq!(sim.actor::<Sink>(ar).unwrap().got.len(), 1);
        assert_eq!(sim.actor::<Sink>(ar).unwrap().got[0].1, 7);
    }

    #[test]
    fn tx_time_survives_u64_boundary() {
        // u32::MAX bytes * 8 * 1e9 overflows u64; on a 1 bit/s channel the
        // result saturates instead of wrapping to a tiny duration.
        let slow = WirelessSpec {
            bandwidth_bps: 1,
            delay: SimDuration::ZERO,
        };
        assert_eq!(slow.tx_time(u32::MAX), SimDuration::MAX);
    }

    #[test]
    fn airtime_saturates_instead_of_wrapping_the_arrival() {
        // A 4 GiB frame at 1 bit/s outlasts the clock: it arrives at the end
        // of time (not 1 ms from now) and the channel stays busy until then.
        let mut radio = RadioEnv::new(WirelessSpec {
            bandwidth_bps: 1,
            delay: SimDuration::from_millis(1),
        });
        let ap = radio.add_ap(NodeId::from_index(0), Position::default(), 100.0);
        let arrival = radio.reserve_airtime(SimTime::from_secs(1), ap, u32::MAX);
        assert_eq!(arrival, SimTime::MAX);
        assert_eq!(radio.busy_until[ap.0 as usize], SimTime::MAX);
    }

    #[test]
    fn faulty_ap_drops_frames_with_fault_reason() {
        let mut sim = world();
        let ar = sim.add_actor(Box::new(Sink { got: vec![] }));
        let mh = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ap = sim.shared.radio.add_ap(ar, Position::default(), 100.0);
        sim.shared.radio.attach(mh, ap);
        sim.shared
            .radio
            .set_fault(ap, FaultSpec::with_loss(1.0), 17);

        struct Driver {
            ap: ApId,
            mh: NodeId,
        }
        impl Actor<NetMsg, World> for Driver {
            fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
                if let NetMsg::Start = msg {
                    assert!(!send_downlink(ctx, self.ap, self.mh, pkt(0)));
                    assert!(!send_uplink(ctx, self.mh, pkt(1)));
                }
            }
        }
        let d = sim.add_actor(Box::new(Driver { ap, mh }));
        sim.schedule(SimTime::ZERO, d, NetMsg::Start);
        sim.run();
        assert!(sim.actor::<Sink>(mh).unwrap().got.is_empty());
        assert!(sim.actor::<Sink>(ar).unwrap().got.is_empty());
        assert_eq!(sim.shared.stats.drops(DropReason::FaultInjected), 2);
        assert_eq!(sim.shared.stats.drops(DropReason::RadioDetached), 0);
    }

    #[test]
    fn duplicating_ap_delivers_twice() {
        let mut sim = world();
        let ar = sim.add_actor(Box::new(Sink { got: vec![] }));
        let mh = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ap = sim.shared.radio.add_ap(ar, Position::default(), 100.0);
        sim.shared.radio.attach(mh, ap);
        sim.shared
            .radio
            .set_fault(ap, FaultSpec::default().duplicate(1.0), 19);

        struct Driver {
            ap: ApId,
            mh: NodeId,
        }
        impl Actor<NetMsg, World> for Driver {
            fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
                if let NetMsg::Start = msg {
                    assert!(send_downlink(ctx, self.ap, self.mh, pkt(0)));
                }
            }
        }
        let d = sim.add_actor(Box::new(Driver { ap, mh }));
        sim.schedule(SimTime::ZERO, d, NetMsg::Start);
        sim.run();
        let got = &sim.actor::<Sink>(mh).unwrap().got;
        assert_eq!(got.len(), 2, "original + duplicate");
        assert!(got[0].0 < got[1].0, "copies serialize back to back");
    }

    #[test]
    fn cellular_aps_use_the_cellular_spec() {
        let mut sim = world();
        let ar1 = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ar2 = sim.add_actor(Box::new(Sink { got: vec![] }));
        let env = sim.shared.radio_mut();
        let wlan = env.add_ap(ar1, Position::new(0.0, 0.0), 112.0);
        let cell = env.add_ap_tech(
            ar2,
            Position::new(0.0, 0.0),
            1_500.0,
            crate::RadioTechnology::Cellular,
        );
        assert_eq!(env.ap(wlan).tech, crate::RadioTechnology::Wlan);
        assert_eq!(env.ap(cell).tech, crate::RadioTechnology::Cellular);
        // The WLAN AP keeps the environment's (custom 8 Mb/s) spec; the
        // cellular AP uses the technology default until overridden.
        assert_eq!(env.spec_of(wlan), env.spec());
        assert_eq!(
            env.spec_of(cell),
            crate::RadioTechnology::Cellular.default_spec()
        );
        let custom = WirelessSpec {
            bandwidth_bps: 384_000,
            delay: SimDuration::from_millis(60),
        };
        env.set_cellular_spec(custom);
        assert_eq!(env.spec_of(cell), custom);
        assert_eq!(env.spec_of(wlan), env.spec(), "WLAN spec untouched");
    }

    #[test]
    fn cellular_downlink_pays_the_cellular_latency() {
        let mut sim = world();
        let ar = sim.add_actor(Box::new(Sink { got: vec![] }));
        let mh = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ap = sim.shared.radio.add_ap_tech(
            ar,
            Position::default(),
            1_500.0,
            crate::RadioTechnology::Cellular,
        );
        sim.shared.radio.set_cellular_spec(WirelessSpec {
            bandwidth_bps: 2_000_000,
            delay: SimDuration::from_millis(40),
        });
        sim.shared.radio.attach(mh, ap);

        struct Driver {
            ap: ApId,
            mh: NodeId,
        }
        impl Actor<NetMsg, World> for Driver {
            fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
                if let NetMsg::Start = msg {
                    send_downlink(ctx, self.ap, self.mh, pkt(0));
                }
            }
        }
        let d = sim.add_actor(Box::new(Driver { ap, mh }));
        sim.schedule(SimTime::ZERO, d, NetMsg::Start);
        sim.run();
        let got = &sim.actor::<Sink>(mh).unwrap().got;
        // 1000 B at 2 Mb/s = 4 ms serialization + 40 ms access delay.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, SimTime::from_millis(44));
    }

    #[test]
    fn aux_attachment_gates_downlink_on_either_interface() {
        let mut sim = world();
        let ar1 = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ar2 = sim.add_actor(Box::new(Sink { got: vec![] }));
        let mh = sim.add_actor(Box::new(Sink { got: vec![] }));
        let env = &mut sim.shared.radio;
        let wlan = env.add_ap(ar1, Position::new(0.0, 0.0), 112.0);
        let cell = env.add_ap_tech(
            ar2,
            Position::new(0.0, 0.0),
            1_500.0,
            crate::RadioTechnology::Cellular,
        );
        env.attach(mh, wlan);
        env.attach_aux(mh, cell);
        assert!(env.is_attached(mh, wlan));
        assert!(env.is_attached(mh, cell));
        assert_eq!(env.attachment(mh), Some(wlan), "serving stays WLAN");
        assert_eq!(env.aux_attachment(mh), Some(cell));
        assert_eq!(attached(env, cell), vec![mh]);

        // Promote: cellular becomes serving, WLAN stays as secondary.
        assert_eq!(env.promote_aux(mh), Some(cell));
        assert_eq!(env.attachment(mh), Some(cell));
        assert_eq!(env.aux_attachment(mh), Some(wlan));
        assert!(env.is_attached(mh, wlan), "old link still receives");

        // Old WLAN coverage lost: only the cellular association remains.
        assert_eq!(env.detach_aux(mh), Some(wlan));
        assert!(!env.is_attached(mh, wlan));
        assert!(env.is_attached(mh, cell));
        assert_eq!(env.detach(mh), Some(cell));
        assert!(!env.is_attached(mh, cell));
        assert_eq!(env.promote_aux(mh), None, "nothing to promote");
    }

    #[test]
    fn reattachment_replaces_association() {
        let mut sim = world();
        let ar1 = sim.add_actor(Box::new(Sink { got: vec![] }));
        let ar2 = sim.add_actor(Box::new(Sink { got: vec![] }));
        let mh = sim.add_actor(Box::new(Sink { got: vec![] }));
        let env = &mut sim.shared.radio;
        let a = env.add_ap(ar1, Position::new(0.0, 0.0), 100.0);
        let b = env.add_ap(ar2, Position::new(50.0, 0.0), 100.0);
        env.attach(mh, a);
        assert_eq!(env.attachment(mh), Some(a));
        env.attach(mh, b);
        assert_eq!(env.attachment(mh), Some(b));
        assert_eq!(attached(env, a), vec![]);
        assert_eq!(attached(env, b), vec![mh]);
        assert_eq!(env.detach(mh), Some(b));
        assert_eq!(env.attachment(mh), None);
    }
}
