//! PAR-role signaling: the previous access router's state machine.
//!
//! Covers handover initiation (RtSolPr+BI → HI+BR → HAck+BA → PrRtAdv),
//! guard buffering (standalone BI), the FBU that starts redirection, the
//! BF that releases the buffer, and the retransmission hardening of the
//! HI exchange. Per-packet work is delegated to the datapath; this module
//! only decides *when* the session changes state.

use std::net::Ipv6Addr;

use fh_sim::{EventKey, SimDuration};

use fh_net::{
    msg::{AckStatus, AuthToken, BufferAck, BufferInit, BufferRequest},
    ApId, ControlMsg, NetCtx, NetMsg, NodeId, Prefix, TimerKind,
};
use fh_wireless::RadioWorld;

use crate::ar::ArAgent;
use crate::datapath::FlushTarget;
use crate::metrics::case_index;
use crate::policy::{AvailabilityCase, PolicyEngine};

/// The PAR-role session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParState {
    /// HI sent, waiting for the NAR's HAck.
    AwaitHAck,
    /// PrRtAdv sent; waiting for the FBU.
    Ready,
    /// FBU received: redirection active.
    Redirecting,
    /// Buffer flushed; tunnel stays up for stragglers.
    Released,
}

/// A typed transition event for the PAR state machine. Every state
/// change a signaling handler makes goes through [`ParState::on`], so the
/// machine's full transition table lives (and is tested) in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParEvent {
    /// The NAR's HAck finalized the negotiation.
    HAckArrived,
    /// The HI retry budget ran out; the session degrades to PAR-only.
    NegotiationAbandoned,
    /// The BI start-time elapsed without an FBU: buffering auto-starts.
    BufferStartElapsed,
    /// The host's FBU arrived: begin redirecting.
    FbuArrived,
    /// The releasing BF arrived: the buffer flushes.
    FlushReleased,
}

impl ParState {
    /// The transition table. Events that do not apply to the current
    /// state leave it unchanged (duplicate or late signaling is benign).
    pub(crate) fn on(self, event: ParEvent) -> ParState {
        use ParEvent::*;
        use ParState::*;
        match (self, event) {
            (AwaitHAck, HAckArrived | NegotiationAbandoned) => Ready,
            (Ready, BufferStartElapsed) => Redirecting,
            (AwaitHAck | Ready, FbuArrived) => Redirecting,
            (_, FlushReleased) => Released,
            (state, _) => state,
        }
    }
}

/// PAR-role per-handover session state.
#[derive(Debug)]
pub(crate) struct ParSession {
    pub(crate) mh: NodeId,
    pub(crate) ncoa: Option<Ipv6Addr>,
    /// `None` for a pure link-layer (intra-router) handover.
    pub(crate) nar_addr: Option<Ipv6Addr>,
    /// The AP the host asked about (kept so the PrRtAdv can be rebuilt
    /// idempotently on duplicate RtSolPr or after HI-retry exhaustion).
    pub(crate) target_ap: ApId,
    /// The NAR's grant from the HAck (zero before it arrives or after a
    /// degraded finalization).
    pub(crate) nar_granted: u32,
    /// `true` if the host piggybacked a BI on its RtSolPr.
    pub(crate) wants_buffer: bool,
    pub(crate) state: ParState,
    pub(crate) case: AvailabilityCase,
    pub(crate) nar_full: bool,
    pub(crate) lifetime_token: u64,
    /// Token of the handover watchdog armed at creation (0 = not armed).
    /// A session still unresolved when it fires is force-flushed.
    pub(crate) watchdog_token: u64,
    pub(crate) auth: Option<AuthToken>,
}

/// In-flight HI retransmission state (PAR role, hardened mode).
#[derive(Debug)]
pub(crate) struct HiRtx {
    pub(crate) key: EventKey,
    pub(crate) token: u64,
    /// Transmissions made so far (the initial send counts).
    pub(crate) sent: u32,
    pub(crate) nar_addr: Ipv6Addr,
    /// The exact HI to replay.
    pub(crate) hi: ControlMsg,
}

impl ArAgent {
    /// Handover initiation, PAR side (Fig 3.3).
    pub(crate) fn on_rtsolpr<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        mh: NodeId,
        pcoa: Ipv6Addr,
        target_ap: ApId,
        bi: Option<BufferInit>,
    ) {
        // Cancel request: zero start time and lifetime (§3.2.2.1).
        if bi.as_ref().is_some_and(BufferInit::is_cancel) {
            if self.par_sessions.remove(&pcoa).is_some() {
                self.dp.pool.release(pcoa);
            }
            return;
        }
        if self.config.rtx.enabled {
            // Idempotency under retransmission: a duplicate RtSolPr must
            // not re-reserve or restart the negotiation.
            match self.par_sessions.get(&pcoa).map(|s| s.state) {
                Some(ParState::AwaitHAck) => return, // HI retry loop owns it
                Some(ParState::Ready) => {
                    // The PrRtAdv was lost on the air: answer again.
                    self.send_prrtadv_for(ctx, pcoa);
                    return;
                }
                _ => {}
            }
        }
        let lifetime = bi
            .as_ref()
            .map_or(self.config.reservation_lifetime, |b| b.lifetime);
        let wants_buffer = bi.is_some();
        // Split the request between the two routers: the proposed scheme
        // uses *both* buffer spaces (§3.1.2 "maximize buffer utilization"),
        // so each router is asked for half; the baselines put everything on
        // their single router. The split is the active policy's call.
        let requested = bi.as_ref().map_or(0, |b| b.size);
        let split = PolicyEngine::for_scheme(self.config.scheme).on_grant(requested);
        let (par_request, nar_request) = (split.par, split.nar);
        // Reserve locally first so the availability case is known in full
        // once the HAck returns.
        let par_granted = if wants_buffer && par_request > 0 {
            self.dp.pool.grant(pcoa, par_request)
        } else {
            self.dp.pool.open_unreserved(pcoa);
            0
        };
        let auth = self.config.auth_required.then(|| {
            self.auth_seed = self.auth_seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
            AuthToken(self.auth_seed)
        });
        let lifetime_token = self.arm_session_lifetime(ctx, pcoa, lifetime);
        let watchdog_token = self.arm_watchdog(ctx, pcoa);

        if self.owns_ap(target_ap) {
            // Pure link-layer handoff (Fig 3.5): there is no NAR to share
            // with, so the whole request lands in our own pool.
            let par_granted = if wants_buffer && self.config.scheme.buffers() {
                self.dp.pool.grant(pcoa, requested)
            } else {
                par_granted
            };
            self.metrics.intra_sessions += 1;
            self.par_sessions.insert(
                pcoa,
                ParSession {
                    mh,
                    ncoa: Some(pcoa),
                    nar_addr: None,
                    target_ap,
                    nar_granted: 0,
                    wants_buffer,
                    state: ParState::Ready,
                    case: AvailabilityCase::from_grants(false, par_granted > 0),
                    nar_full: false,
                    lifetime_token,
                    watchdog_token,
                    auth,
                },
            );
            self.schedule_buffer_start(ctx, pcoa, bi.as_ref());
            let reply = ControlMsg::PrRtAdv {
                target_ap,
                nar_prefix: self.prefix,
                nar_addr: self.addr,
                ba: wants_buffer.then_some(BufferAck {
                    nar_granted: 0,
                    par_granted,
                }),
                auth,
            };
            self.send_to_mh(ctx, mh, pcoa, reply);
            return;
        }

        let Some(&nar_addr) = self.ap_directory.get(&target_ap) else {
            // Unknown target AP: nothing we can do but ignore (the host
            // will hand off without anticipation).
            return;
        };
        self.metrics.par_sessions += 1;
        self.par_sessions.insert(
            pcoa,
            ParSession {
                mh,
                ncoa: None,
                nar_addr: Some(nar_addr),
                target_ap,
                nar_granted: 0,
                wants_buffer,
                state: ParState::AwaitHAck,
                case: AvailabilityCase::from_grants(false, par_granted > 0),
                nar_full: false,
                lifetime_token,
                watchdog_token,
                auth,
            },
        );
        self.schedule_buffer_start(ctx, pcoa, bi.as_ref());
        let br = (wants_buffer && nar_request > 0).then_some(BufferRequest {
            size: nar_request,
            lifetime,
        });
        let per_class = self.config.precise_negotiation.then(|| {
            // Even split between real-time, high-priority and best effort.
            [nar_request / 3, nar_request.div_ceil(3), nar_request / 3]
        });
        let hi = ControlMsg::HandoverInitiate {
            pcoa,
            mh_l2: mh,
            ncoa: None,
            br,
            per_class,
            auth,
        };
        if self.config.rtx.enabled {
            let token = self.fresh_token(pcoa);
            let key = ctx.send_self_keyed(
                self.config.rtx.backoff.delay(0),
                NetMsg::Timer {
                    kind: TimerKind::RtxHi,
                    token,
                },
            );
            self.hi_rtx.insert(
                pcoa,
                HiRtx {
                    key,
                    token,
                    sent: 1,
                    nar_addr,
                    hi: hi.clone(),
                },
            );
        }
        self.dp.send_control_wired(ctx, nar_addr, hi);
    }

    /// Standalone BI: open (or cancel) a guard-buffering session keyed by
    /// the host's current address. The session looks like an intra-router
    /// handover already in the redirecting state, so the Table 3.3 policy
    /// applies with the PAR-only availability case.
    pub(crate) fn on_guard_buffer_init<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        mh: NodeId,
        addr: Ipv6Addr,
        bi: BufferInit,
    ) {
        if bi.is_cancel() {
            if self.par_sessions.remove(&addr).is_some() {
                for pkt in self.dp.pool.release(addr) {
                    // Cancelled with packets queued: deliver what we have.
                    self.dp.radio_deliver(ctx, mh, pkt);
                }
            }
            return;
        }
        let granted = self.dp.pool.grant(addr, bi.size);
        self.metrics.guard_sessions += 1;
        // A guard episode must never pin its reservation forever: a BI
        // with no (or an infinite) lifetime falls back to the router's own
        // reservation lifetime, so an episode whose releasing BF is lost
        // is still reclaimed by the expiry sweep.
        let lifetime = if bi.lifetime.is_zero() || bi.lifetime == SimDuration::MAX {
            self.config.reservation_lifetime
        } else {
            bi.lifetime
        };
        let lifetime_token = self.arm_session_lifetime(ctx, addr, lifetime);
        let watchdog_token = self.arm_watchdog(ctx, addr);
        let case = AvailabilityCase::from_grants(false, granted > 0);
        self.metrics.case_counts[case_index(case)] += 1;
        self.par_sessions.insert(
            addr,
            ParSession {
                mh,
                ncoa: Some(addr),
                nar_addr: None,
                target_ap: ApId(u32::MAX),
                nar_granted: 0,
                wants_buffer: true,
                state: ParState::Redirecting,
                case,
                nar_full: false,
                lifetime_token,
                watchdog_token,
                auth: None,
            },
        );
        let ba = ControlMsg::BufferAck(BufferAck {
            nar_granted: 0,
            par_granted: granted,
        });
        self.send_to_mh(ctx, mh, addr, ba);
    }

    pub(crate) fn schedule_buffer_start<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        pcoa: Ipv6Addr,
        bi: Option<&BufferInit>,
    ) {
        if let Some(bi) = bi {
            if !bi.start_time.is_zero() {
                let token = self.fresh_token(pcoa);
                ctx.send_self(
                    bi.start_time,
                    NetMsg::Timer {
                        kind: TimerKind::BufferStart,
                        token,
                    },
                );
            }
        }
    }

    /// The BI start-time elapsed: the host vanished without managing to
    /// send its FBU, so buffering auto-starts.
    pub(crate) fn on_buffer_start(&mut self, pcoa: Ipv6Addr) {
        if let Some(sess) = self.par_sessions.get_mut(&pcoa) {
            sess.state = sess.state.on(ParEvent::BufferStartElapsed);
        }
    }

    /// HI retransmission timer fired: the NAR's HAck never came.
    pub(crate) fn on_rtx_hi<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, pcoa: Ipv6Addr) {
        let Some(mut rtx) = self.hi_rtx.remove(&pcoa) else {
            return;
        };
        if !self.config.rtx.enabled {
            return;
        }
        let still_waiting = self
            .par_sessions
            .get(&pcoa)
            .is_some_and(|s| s.state == ParState::AwaitHAck);
        if !still_waiting {
            return;
        }
        let bo = self.config.rtx.backoff;
        if bo.exhausted(rtx.sent) {
            // The NAR is unreachable: finalize as a PAR-only session so
            // the host can still anticipate using our buffer alone.
            let par_granted = self.dp.pool.granted(pcoa);
            if let Some(sess) = self.par_sessions.get_mut(&pcoa) {
                sess.state = sess.state.on(ParEvent::NegotiationAbandoned);
                sess.nar_granted = 0;
                sess.case = AvailabilityCase::from_grants(false, par_granted > 0);
                self.metrics.case_counts[case_index(sess.case)] += 1;
            }
            self.metrics.hi_exhausted += 1;
            self.send_prrtadv_for(ctx, pcoa);
            return;
        }
        let hi = rtx.hi.clone();
        self.dp.send_control_wired(ctx, rtx.nar_addr, hi);
        self.metrics.retransmissions += 1;
        let node = self.dp.node;
        fh_net::record_trace(ctx, || fh_net::TraceEvent::ControlRetransmit {
            kind: "HI",
            by: node,
        });
        let token = self.fresh_token(pcoa);
        rtx.token = token;
        rtx.key = ctx.send_self_keyed(
            bo.delay(rtx.sent),
            NetMsg::Timer {
                kind: TimerKind::RtxHi,
                token,
            },
        );
        rtx.sent += 1;
        self.hi_rtx.insert(pcoa, rtx);
    }

    /// FBU: start redirecting (packet redirection phase, §3.2.2.2).
    pub(crate) fn on_fbu<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        pcoa: Ipv6Addr,
        ncoa: Ipv6Addr,
    ) {
        let (mh, nar_addr, status) = match self.par_sessions.get_mut(&pcoa) {
            Some(sess) => {
                sess.ncoa = Some(ncoa);
                sess.state = sess.state.on(ParEvent::FbuArrived);
                (sess.mh, sess.nar_addr, AckStatus::Accepted)
            }
            None => {
                // FBU without prior RtSolPr (no anticipation): redirect
                // unbuffered to the router owning the NCoA's subnet — we
                // know nothing better. A session with no grants anywhere.
                let mh = self.dp.neighbors.get(&pcoa).copied();
                let Some(mh) = mh else {
                    return;
                };
                self.dp.pool.open_unreserved(pcoa);
                let lifetime_token =
                    self.arm_session_lifetime(ctx, pcoa, self.config.reservation_lifetime);
                let watchdog_token = self.arm_watchdog(ctx, pcoa);
                self.par_sessions.insert(
                    pcoa,
                    ParSession {
                        mh,
                        ncoa: Some(ncoa),
                        nar_addr: None,
                        target_ap: ApId(u32::MAX),
                        nar_granted: 0,
                        wants_buffer: false,
                        state: ParState::Redirecting,
                        case: AvailabilityCase::NoneAvailable,
                        nar_full: false,
                        lifetime_token,
                        watchdog_token,
                        auth: None,
                    },
                );
                (mh, None, AckStatus::Accepted)
            }
        };
        // FBAck to the host on the old link (usually already gone) …
        let fback = ControlMsg::FastBindingAck { pcoa, status };
        self.send_to_mh(ctx, mh, pcoa, fback.clone());
        // … and to the NAR.
        if let Some(nar) = nar_addr {
            self.dp.send_control_wired(ctx, nar, fback);
        }
    }

    /// HAck, PAR side: finish the negotiation and tell the host.
    pub(crate) fn on_hack<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        pcoa: Ipv6Addr,
        status: AckStatus,
        ba: Option<BufferAck>,
    ) {
        let Some(sess) = self.par_sessions.get_mut(&pcoa) else {
            return;
        };
        if self.config.rtx.enabled {
            if sess.state != ParState::AwaitHAck {
                // Duplicate HAck (or one racing a degraded finalization):
                // the PrRtAdv already went out.
                return;
            }
            if let Some(rtx) = self.hi_rtx.remove(&pcoa) {
                let _ = ctx.cancel(rtx.key);
                self.timer_sessions.remove(&rtx.token);
            }
        }
        let nar_granted = ba.map_or(0, |b| b.nar_granted);
        let par_granted = self.dp.pool.granted(pcoa);
        sess.case =
            AvailabilityCase::from_grants(status.is_accepted() && nar_granted > 0, par_granted > 0);
        sess.nar_granted = nar_granted;
        self.metrics.case_counts[case_index(sess.case)] += 1;
        sess.state = sess.state.on(ParEvent::HAckArrived);
        self.send_prrtadv_for(ctx, pcoa);
    }

    /// (Re)builds and sends the PrRtAdv for a finalized PAR session — used
    /// by the HAck path, duplicate-RtSolPr answers and HI-exhaustion
    /// degradation, all of which must advertise the same result.
    pub(crate) fn send_prrtadv_for<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        pcoa: Ipv6Addr,
    ) {
        let Some(sess) = self.par_sessions.get(&pcoa) else {
            return;
        };
        let mh = sess.mh;
        let auth = sess.auth;
        let wants_buffer = sess.wants_buffer;
        let nar_granted = sess.nar_granted;
        let nar_addr = sess.nar_addr.unwrap_or(self.addr);
        let target_ap = if sess.target_ap == ApId(u32::MAX) {
            self.ap_directory
                .iter()
                .find(|&(_, &a)| a == nar_addr)
                .map(|(&ap, _)| ap)
                .unwrap_or(ApId(u32::MAX))
        } else {
            sess.target_ap
        };
        let par_granted = self.dp.pool.granted(pcoa);
        let adv = ControlMsg::PrRtAdv {
            target_ap,
            nar_prefix: self.peer_prefix(nar_addr),
            nar_addr,
            ba: wants_buffer.then_some(BufferAck {
                nar_granted,
                par_granted,
            }),
            auth,
        };
        self.send_to_mh(ctx, mh, pcoa, adv);
    }

    /// The advertised prefix of a peer router. Real FMIPv6 carries this in
    /// the HAck/PrRtAdv exchange; we derive it from the peer's address.
    pub(crate) fn peer_prefix(&self, router_addr: Ipv6Addr) -> Prefix {
        Prefix::new(router_addr, self.prefix.len())
    }

    /// Flushes the PAR buffer (BF received): tunnel everything to the NAR,
    /// or straight over the air for an intra-router handoff.
    pub(crate) fn flush_par<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, pcoa: Ipv6Addr) {
        let Some(sess) = self.par_sessions.get_mut(&pcoa) else {
            return;
        };
        let nar_addr = sess.nar_addr;
        let mh = sess.mh;
        sess.state = sess.state.on(ParEvent::FlushReleased);
        if nar_addr.is_some() {
            // The host now lives behind the NAR; drop the stale neighbor
            // entry (kept for intra-router handoffs, where it stays valid).
            self.drop_route(ctx, pcoa);
        }
        self.metrics.flushes += 1;
        let ar = self.dp.node;
        let pkts = self.dp.pool.session_len(pcoa);
        let path = if nar_addr.is_some() { "par" } else { "local" };
        fh_net::record_trace(ctx, || fh_net::TraceEvent::BufferFlush { ar, path, pkts });
        let target = match nar_addr {
            Some(nar) => FlushTarget::Tunnel(nar),
            None => FlushTarget::Radio(mh),
        };
        self.start_flush(ctx, pcoa, target);
    }
}

#[cfg(test)]
mod tests {
    use super::{ParEvent::*, ParState::*};

    #[test]
    fn transition_table_matches_fig_3_3_lifecycle() {
        // The happy path: negotiate, advertise, redirect, release.
        assert_eq!(AwaitHAck.on(HAckArrived), Ready);
        assert_eq!(Ready.on(FbuArrived), Redirecting);
        assert_eq!(Redirecting.on(FlushReleased), Released);
        // FBU may overtake the HAck on a fast host.
        assert_eq!(AwaitHAck.on(FbuArrived), Redirecting);
        // Retry exhaustion degrades, it does not kill the session.
        assert_eq!(AwaitHAck.on(NegotiationAbandoned), Ready);
        // BI auto-start only fires from Ready.
        assert_eq!(Ready.on(BufferStartElapsed), Redirecting);
        assert_eq!(AwaitHAck.on(BufferStartElapsed), AwaitHAck);
    }

    #[test]
    fn late_and_duplicate_events_are_benign() {
        // A released session never resurrects.
        for ev in [
            HAckArrived,
            NegotiationAbandoned,
            BufferStartElapsed,
            FbuArrived,
        ] {
            assert_eq!(Released.on(ev), Released);
        }
        // Duplicate HAck after the advert went out changes nothing.
        assert_eq!(Ready.on(HAckArrived), Ready);
        assert_eq!(Redirecting.on(HAckArrived), Redirecting);
        // A straggling FBU while already redirecting is idempotent.
        assert_eq!(Redirecting.on(FbuArrived), Redirecting);
        // Flush always wins, from anywhere.
        for state in [AwaitHAck, Ready, Redirecting, Released] {
            assert_eq!(state.on(FlushReleased), Released);
        }
    }
}
