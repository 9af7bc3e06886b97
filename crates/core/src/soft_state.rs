//! Soft-state lifecycle for the access router: session lifetimes,
//! host-route expiry, crash/restart fault handling and the dead-peer
//! sweep. Everything here reclaims state; the signaling layer creates it
//! and the datapath transmits through it.

use std::net::Ipv6Addr;

use fh_sim::{FastMap, SimDuration, SimTime};

use fh_net::{ApId, DropReason, NetCtx, NetMsg, NodeId, TimerKind};
use fh_wireless::RadioWorld;

use crate::ar::ArAgent;
use crate::metrics::ArSoftState;
use crate::signaling::nar::NarEvent;
use crate::signaling::par::ParState;

impl ArAgent {
    /// Snapshot of the router's live soft state for the leak auditor.
    #[must_use]
    pub fn soft_state(&self) -> ArSoftState {
        ArSoftState {
            par_sessions: self.par_sessions.len(),
            nar_sessions: self.nar_sessions.len(),
            pool_sessions: self.dp.pool.live_sessions(),
            buffered_packets: self.dp.pool.used(),
            reserved_slots: self
                .dp
                .pool
                .capacity()
                .saturating_sub(self.dp.pool.unreserved()),
            pending_timers: self.timer_sessions.len(),
            paced_flushes: self.flushing.len(),
            pending_hi_rtx: self.hi_rtx.len(),
            route_timers: self.route_tokens.len(),
        }
    }

    pub(crate) fn fresh_token(&mut self, key: Ipv6Addr) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.timer_sessions.insert(token, key);
        token
    }

    /// Arms a session-lifetime expiry timer when `lifetime` is finite and
    /// nonzero and returns its token. Returns 0 (a token no timer ever
    /// fires with) otherwise, so infinite-lifetime sessions leave no
    /// residue in the timer table.
    pub(crate) fn arm_session_lifetime<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        key: Ipv6Addr,
        lifetime: SimDuration,
    ) -> u64 {
        if lifetime.is_zero() || lifetime == SimDuration::MAX {
            return 0;
        }
        let token = self.fresh_token(key);
        ctx.send_self(
            lifetime,
            NetMsg::Timer {
                kind: TimerKind::BufferLifetime,
                token,
            },
        );
        token
    }

    /// Arms the handover watchdog for a freshly created session and
    /// returns its token — a hard deadline by which the session must have
    /// flushed or expired. Returns 0 (a token no timer ever fires with)
    /// while the deadline is zero or infinite, so the default
    /// configuration leaves no residue in the timer table.
    pub(crate) fn arm_watchdog<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        key: Ipv6Addr,
    ) -> u64 {
        let deadline = self.config.pressure.watchdog_deadline;
        if deadline.is_zero() || deadline == SimDuration::MAX {
            return 0;
        }
        let token = self.fresh_token(key);
        ctx.send_self(
            deadline,
            NetMsg::Timer {
                kind: TimerKind::HandoverWatchdog,
                token,
            },
        );
        token
    }

    /// The handover watchdog fired: a session that neither flushed nor
    /// expired by its deadline is force-resolved down the existing
    /// predictive → reactive → failed ladder. A wedged PAR session takes
    /// the normal flush path (tunnel when the NAR is known, radio
    /// otherwise); a wedged NAR session releases over the air as if the
    /// host had attached — losses on the way are accounted like any
    /// other, so conservation still balances and no wedged state survives
    /// quiesce. Sessions that already resolved no-op (token check).
    pub(crate) fn on_watchdog<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, token: u64) {
        let Some(pcoa) = self.timer_sessions.remove(&token) else {
            return;
        };
        let par_wedged = self
            .par_sessions
            .get(&pcoa)
            .is_some_and(|s| s.watchdog_token == token && s.state != ParState::Released);
        if par_wedged {
            let node = self.dp.node;
            let pkts = self.dp.pool.session_len(pcoa);
            self.metrics.watchdog_fired += 1;
            fh_net::record_trace(ctx, || fh_net::TraceEvent::WatchdogFired { node, pkts });
            self.flush_par(ctx, pcoa);
            return;
        }
        let nar_wedged = self
            .nar_sessions
            .get(&pcoa)
            .is_some_and(|s| s.watchdog_token == token && s.buffering);
        if nar_wedged {
            let sess = self.nar_sessions.get_mut(&pcoa).expect("matched above");
            sess.on(NarEvent::HostAttached);
            let mh = sess.mh_l2;
            let node = self.dp.node;
            let pkts = self.dp.pool.session_len(pcoa);
            self.metrics.watchdog_fired += 1;
            fh_net::record_trace(ctx, || fh_net::TraceEvent::WatchdogFired { node, pkts });
            self.flush_nar(ctx, pcoa, mh);
        }
    }

    /// Scheduled crash: volatile state is lost. Queued packets are
    /// accounted as [`DropReason::Reclaimed`]; every session, route,
    /// reservation and pending-timer token is forgotten (outstanding
    /// keyed timers then no-op when they fire).
    pub(crate) fn crash<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        if !self.alive {
            return;
        }
        self.alive = false;
        self.metrics.crashes += 1;
        let node = self.dp.node;
        fh_net::record_trace(ctx, || fh_net::TraceEvent::FaultFired {
            node,
            what: "crash",
        });
        let wiped = self.dp.pool.wipe_all();
        let pkts = wiped.len();
        for pkt in wiped {
            fh_net::record_drop(ctx, pkt.flow, DropReason::Reclaimed);
        }
        if pkts > 0 {
            fh_net::record_trace(ctx, || fh_net::TraceEvent::StateReclaimed { node, pkts });
        }
        self.par_sessions.clear();
        self.nar_sessions.clear();
        self.dp.neighbors.clear();
        self.route_tokens.clear();
        self.peer_last_heard.clear();
        self.hi_rtx.clear();
        self.flushing.clear();
        self.timer_sessions.clear();
        if let Some(down) = self.node_fault.restart_after {
            ctx.send_self(
                down,
                NetMsg::Timer {
                    kind: TimerKind::NodeRestart,
                    token: 0,
                },
            );
        }
    }

    /// Restart after a crash: the router comes back with empty tables and
    /// re-enters the network through its own beacons, like a freshly
    /// booted node. Attached hosts re-register via the RA path.
    pub(crate) fn restart<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        if self.alive {
            return;
        }
        self.alive = true;
        let node = self.dp.node;
        fh_net::record_trace(ctx, || fh_net::TraceEvent::FaultFired {
            node,
            what: "restart",
        });
        let jitter = SimDuration::from_micros(ctx.rng.gen_range_u64(1000));
        ctx.send_self(
            jitter,
            NetMsg::Timer {
                kind: TimerKind::RouterAdvertisement,
                token: 0,
            },
        );
        self.arm_dead_peer_sweep(ctx);
    }

    /// Arms the periodic dead-peer sweep (only when the timeout is finite).
    pub(crate) fn arm_dead_peer_sweep<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        let timeout = self.config.dead_peer_timeout;
        if timeout.is_zero() || timeout == SimDuration::MAX {
            return;
        }
        ctx.send_self(
            timeout,
            NetMsg::Timer {
                kind: TimerKind::DeadPeerSweep,
                token: 0,
            },
        );
    }

    /// Reclaims every inter-router handover session whose peer has been
    /// silent longer than the dead-peer timeout, then re-arms the sweep.
    pub(crate) fn dead_peer_sweep<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        let timeout = self.config.dead_peer_timeout;
        if timeout.is_zero() || timeout == SimDuration::MAX {
            return;
        }
        let now = ctx.now();
        let silent = |heard: &FastMap<Ipv6Addr, SimTime>, peer: Ipv6Addr| {
            heard.get(&peer).copied().unwrap_or(SimTime::ZERO) + timeout <= now
        };
        let mut stale: Vec<Ipv6Addr> = self
            .par_sessions
            .iter()
            .filter(|(_, s)| {
                s.nar_addr
                    .is_some_and(|nar| silent(&self.peer_last_heard, nar))
            })
            .map(|(&k, _)| k)
            .collect();
        stale.sort();
        for pcoa in stale {
            self.par_sessions.remove(&pcoa);
            let expired = self.dp.pool.expire(pcoa);
            let pkts = expired.len();
            for pkt in expired {
                fh_net::record_drop(ctx, pkt.flow, DropReason::Reclaimed);
            }
            let node = self.dp.node;
            fh_net::record_trace(ctx, || fh_net::TraceEvent::StateReclaimed { node, pkts });
            self.metrics.dead_peer_reclaims += 1;
        }
        let mut stale: Vec<Ipv6Addr> = self
            .nar_sessions
            .iter()
            .filter(|(_, s)| silent(&self.peer_last_heard, s.par_addr))
            .map(|(&k, _)| k)
            .collect();
        stale.sort();
        for pcoa in stale {
            self.nar_sessions.remove(&pcoa);
            let expired = self.dp.pool.expire(pcoa);
            let pkts = expired.len();
            for pkt in expired {
                fh_net::record_drop(ctx, pkt.flow, DropReason::Reclaimed);
            }
            let node = self.dp.node;
            fh_net::record_trace(ctx, || fh_net::TraceEvent::StateReclaimed { node, pkts });
            self.metrics.dead_peer_reclaims += 1;
        }
        ctx.send_self(
            timeout,
            NetMsg::Timer {
                kind: TimerKind::DeadPeerSweep,
                token: 0,
            },
        );
    }

    /// Installs (or refreshes) a host route. While `host_route_lifetime`
    /// is finite the route is soft state: each install arms a fresh expiry
    /// token that supersedes the previous one, so only a route that stops
    /// being refreshed is reclaimed. With the default `MAX` lifetime this
    /// is a plain map insert — no token, no timer, no extra events.
    pub(crate) fn install_route<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        addr: Ipv6Addr,
        mh: NodeId,
    ) {
        self.dp.neighbors.insert(addr, mh);
        let lifetime = self.config.host_route_lifetime;
        if lifetime.is_zero() || lifetime == SimDuration::MAX {
            return;
        }
        let token = self.fresh_token(addr);
        let key = ctx.send_self_keyed(
            lifetime,
            NetMsg::Timer {
                kind: TimerKind::HostRouteExpiry,
                token,
            },
        );
        // A refresh supersedes the previous expiry outright: cancel it and
        // retire its token so superseded timers never pile up pending.
        if let Some((old_token, old_key)) = self.route_tokens.insert(addr, (token, key)) {
            let _ = ctx.cancel(old_key);
            self.timer_sessions.remove(&old_token);
        }
    }

    /// Drops a host route and its expiry timer, if armed.
    pub(crate) fn drop_route<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, addr: Ipv6Addr) {
        self.dp.neighbors.remove(&addr);
        if let Some((token, key)) = self.route_tokens.remove(&addr) {
            let _ = ctx.cancel(key);
            self.timer_sessions.remove(&token);
        }
    }

    /// A host-route expiry token fired: reclaim the route if the token is
    /// still the live one (a refresh supersedes all earlier timers).
    pub(crate) fn on_route_expiry<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, token: u64) {
        if let Some(addr) = self.timer_sessions.remove(&token) {
            if self.route_tokens.get(&addr).map(|&(t, _)| t) == Some(token) {
                self.route_tokens.remove(&addr);
                self.dp.neighbors.remove(&addr);
                self.metrics.routes_expired += 1;
                let node = self.dp.node;
                fh_net::record_trace(ctx, || fh_net::TraceEvent::StateExpired {
                    node,
                    what: "host-route",
                });
            }
        }
    }

    /// A session-lifetime token fired: reclaim whichever role's session
    /// it still names (the token check rejects superseded timers).
    pub(crate) fn expire_session<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        pcoa: Ipv6Addr,
        token: u64,
    ) {
        let par_match = self
            .par_sessions
            .get(&pcoa)
            .is_some_and(|s| s.lifetime_token == token);
        if par_match {
            let sess = self.par_sessions.remove(&pcoa).expect("matched above");
            // A guard episode whose releasing BF never came: its packets
            // were parked on the host's own request, so their release is a
            // soft-state expiry (`Expired`), distinct from the reservation
            // timeout of a real handover session.
            let guard =
                sess.target_ap == ApId(u32::MAX) && sess.nar_addr.is_none() && sess.wants_buffer;
            let reason = if guard {
                DropReason::Expired
            } else {
                DropReason::LifetimeExpired
            };
            for pkt in self.dp.pool.expire(pcoa) {
                fh_net::record_drop(ctx, pkt.flow, reason);
            }
            let node = self.dp.node;
            fh_net::record_trace(ctx, || fh_net::TraceEvent::StateExpired {
                node,
                what: if guard { "guard" } else { "reservation" },
            });
            if guard {
                self.metrics.guard_expired += 1;
            }
            self.metrics.expired_sessions += 1;
        }
        let nar_match = self
            .nar_sessions
            .get(&pcoa)
            .is_some_and(|s| s.lifetime_token == token);
        if nar_match {
            self.nar_sessions.remove(&pcoa);
            for pkt in self.dp.pool.expire(pcoa) {
                fh_net::record_drop(ctx, pkt.flow, DropReason::LifetimeExpired);
            }
            let node = self.dp.node;
            fh_net::record_trace(ctx, || fh_net::TraceEvent::StateExpired {
                node,
                what: "reservation",
            });
            self.metrics.expired_sessions += 1;
        }
    }
}
