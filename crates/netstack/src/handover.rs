//! The handover record: one [`HandoverAttempt`] per attempt, holding the
//! protocol points of Figs 3.2–3.5 as typed, timestamped marks.
//!
//! The host agent writes each point once, onto its latest attempt in the
//! run's ledger ([`NetStats::handovers`](crate::NetStats)). Every reading
//! of a handover — the L2 black-out, the service-restoration window, the
//! Chrome-trace span — is an accessor on the record, so no reader pairs
//! phases by hand.

use std::fmt;

use fh_sim::SimTime;
use fh_telemetry::TraceSpan;
use serde::{Deserialize, Serialize};

use crate::topology::NodeId;

/// How one handover attempt resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HandoverOutcome {
    /// The anticipated FMIPv6 exchange completed: the MH moved with a
    /// pre-established binding and (where configured) pre-armed buffers.
    Predictive,
    /// Anticipation failed (lost signaling, exhausted retries) but the MH
    /// recovered reactively after attaching: FNA/BF first, bindings after.
    Reactive,
    /// The attempt never resolved — the MH ended the run without
    /// re-establishing connectivity.
    Failed,
}

impl HandoverOutcome {
    pub(crate) const ALL: [HandoverOutcome; 3] = [
        HandoverOutcome::Predictive,
        HandoverOutcome::Reactive,
        HandoverOutcome::Failed,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            HandoverOutcome::Predictive => 0,
            HandoverOutcome::Reactive => 1,
            HandoverOutcome::Failed => 2,
        }
    }

    /// Stable short label for spans, tables and CSV columns.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HandoverOutcome::Predictive => "predictive",
            HandoverOutcome::Reactive => "reactive",
            HandoverOutcome::Failed => "failed",
        }
    }
}

/// A point on a host's handover timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffPhase {
    /// L2 source trigger accepted.
    Trigger,
    /// RtSolPr(+BI) sent.
    SolicitSent,
    /// PrRtAdv received (negotiation result known).
    AdvReceived,
    /// FBU sent; leaving the old link.
    FbuSent,
    /// Radio detached (black-out begins).
    LinkDown,
    /// Radio attached on the new AP (black-out ends).
    LinkUp,
    /// FNA(+BF) or standalone BF sent.
    FnaSent,
    /// MAP binding update acknowledged; handover fully complete.
    BindingComplete,
    /// A signaling exchange exhausted its retransmission budget; the host
    /// fell back one rung on the degradation ladder (predictive →
    /// reactive → failed).
    Degraded,
    /// The first data packet delivered after the FNA.
    FirstDelivery,
}

impl HandoffPhase {
    /// Every phase, in declaration order (a packed mark's phase index).
    const ALL: [HandoffPhase; 10] = [
        HandoffPhase::Trigger,
        HandoffPhase::SolicitSent,
        HandoffPhase::AdvReceived,
        HandoffPhase::FbuSent,
        HandoffPhase::LinkDown,
        HandoffPhase::LinkUp,
        HandoffPhase::FnaSent,
        HandoffPhase::BindingComplete,
        HandoffPhase::Degraded,
        HandoffPhase::FirstDelivery,
    ];

    /// Stable short label, the mark name on exported timelines.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HandoffPhase::Trigger => "trigger",
            HandoffPhase::SolicitSent => "solicit-sent",
            HandoffPhase::AdvReceived => "adv-received",
            HandoffPhase::FbuSent => "fbu-sent",
            HandoffPhase::LinkDown => "link-down",
            HandoffPhase::LinkUp => "link-up",
            HandoffPhase::FnaSent => "fna-sent",
            HandoffPhase::BindingComplete => "binding-complete",
            HandoffPhase::Degraded => "degraded",
            HandoffPhase::FirstDelivery => "first-delivery",
        }
    }
}

/// One handover attempt of one host.
///
/// An accepted trigger opens an attempt when the host's latest one has
/// ended; a degraded attempt that re-triggers before resolving stays
/// open and takes the new marks. Every phase the host records lands on
/// its latest attempt, after the end too, so trailing points such as the
/// binding completion and the first delivery stay with the handover that
/// caused them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoverAttempt {
    /// The mobile host.
    pub host: NodeId,
    /// When the accepted trigger opened the attempt.
    pub start: SimTime,
    /// When and how the attempt first ended; `None` while open.
    pub end: Option<(SimTime, HandoverOutcome)>,
    /// The recorded phases, in recording order.
    marks: Vec<Mark>,
}

/// A recorded phase packed into one word: the phase in the top four
/// bits, its time in nanoseconds below them (2^60 ns is 36 simulated
/// years). Half the size of a `(SimTime, HandoffPhase)` pair, so the
/// always-on record costs no more memory than the per-host phase log it
/// replaced.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Mark(u64);

impl Mark {
    const TIME_BITS: u32 = 60;

    fn new(t: SimTime, phase: HandoffPhase) -> Self {
        let ns = t.as_nanos();
        assert!(
            ns >> Self::TIME_BITS == 0,
            "handover mark at {t} is past 2^60 ns"
        );
        Mark(ns | (phase as u64) << Self::TIME_BITS)
    }

    fn time(self) -> SimTime {
        SimTime::from_nanos(self.0 & ((1 << Self::TIME_BITS) - 1))
    }

    fn phase(self) -> HandoffPhase {
        HandoffPhase::ALL[(self.0 >> Self::TIME_BITS) as usize]
    }
}

impl fmt::Debug for Mark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{}", self.phase(), self.time())
    }
}

impl HandoverAttempt {
    /// Opens an attempt for `host` at `now`.
    #[must_use]
    pub fn open(host: NodeId, now: SimTime) -> Self {
        HandoverAttempt {
            host,
            start: now,
            end: None,
            // A clean anticipated attempt records nine marks.
            marks: Vec::with_capacity(9),
        }
    }

    /// Appends a phase mark.
    pub fn mark(&mut self, now: SimTime, phase: HandoffPhase) {
        self.marks.push(Mark::new(now, phase));
    }

    /// Ends the attempt with `outcome`. The first end wins; later calls
    /// are ignored.
    pub fn close(&mut self, now: SimTime, outcome: HandoverOutcome) {
        self.end.get_or_insert((now, outcome));
    }

    /// `true` until the attempt ends.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.end.is_none()
    }

    /// How the attempt ended; `None` while open.
    #[must_use]
    pub fn outcome(&self) -> Option<HandoverOutcome> {
        self.end.map(|(_, o)| o)
    }

    /// The recorded phases with their times, in recording order.
    pub fn phases(&self) -> impl Iterator<Item = (SimTime, HandoffPhase)> + '_ {
        self.marks.iter().map(|m| (m.time(), m.phase()))
    }

    /// When `phase` was first recorded.
    #[must_use]
    pub fn first(&self, phase: HandoffPhase) -> Option<SimTime> {
        self.phases().find(|&(_, p)| p == phase).map(|(t, _)| t)
    }

    /// The L2 black-out: the first `LinkDown` and the `LinkUp` recorded
    /// after it.
    #[must_use]
    pub fn blackout(&self) -> Option<(SimTime, SimTime)> {
        let mut phases = self.phases();
        let (down, _) = phases.find(|&(_, p)| p == HandoffPhase::LinkDown)?;
        let (up, _) = phases.find(|&(_, p)| p == HandoffPhase::LinkUp)?;
        Some((down, up))
    }

    /// Service restoration over one host's attempts, given in the order
    /// they opened: every `LinkDown` paired with the next MAP
    /// `BindingComplete`. That is usually on the same attempt; when the
    /// binding only completed after the host had triggered again, it is
    /// on a later one, and the window spans the whole outage.
    #[must_use]
    pub fn recoveries<'a>(
        attempts: impl IntoIterator<Item = &'a HandoverAttempt>,
    ) -> Vec<(SimTime, SimTime)> {
        let phases: Vec<_> = attempts.into_iter().flat_map(Self::phases).collect();
        let done_after = |i: usize| {
            let after = &phases[i + 1..];
            after
                .iter()
                .find(|&&(_, p)| p == HandoffPhase::BindingComplete)
        };
        phases
            .iter()
            .enumerate()
            .filter(|&(_, &(_, p))| p == HandoffPhase::LinkDown)
            .filter_map(|(i, &(down, _))| done_after(i).map(|&(done, _)| (down, done)))
            .collect()
    }
}

impl TraceSpan for HandoverAttempt {
    fn name(&self) -> &'static str {
        "handover"
    }

    fn track(&self) -> u64 {
        self.host.index() as u64
    }

    fn start(&self) -> SimTime {
        self.start
    }

    fn end(&self) -> Option<(SimTime, &'static str)> {
        self.end.map(|(t, o)| (t, o.label()))
    }

    fn marks(&self) -> impl Iterator<Item = (SimTime, &'static str)> {
        self.phases().map(|(t, p)| (t, p.label()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn attempt(start: u64, marks: &[(u64, HandoffPhase)]) -> HandoverAttempt {
        let mut a = HandoverAttempt::open(Topology::new().add_node("mh"), ms(start));
        for &(t, p) in marks {
            a.mark(ms(t), p);
        }
        a
    }

    #[test]
    fn blackout_pairs_the_first_link_down_with_the_next_link_up() {
        use HandoffPhase::*;
        let a = attempt(
            100,
            &[
                (100, Trigger),
                (105, LinkUp),
                (110, LinkDown),
                (150, LinkUp),
            ],
        );
        assert_eq!(a.first(LinkUp), Some(ms(105)));
        assert_eq!(a.blackout(), Some((ms(110), ms(150))));
        assert_eq!(a.first(FnaSent), None);
        assert_eq!(attempt(0, &[(5, LinkUp), (9, LinkDown)]).blackout(), None);
    }

    #[test]
    fn recoveries_pair_every_link_down_across_attempts() {
        use HandoffPhase::*;
        let first = attempt(100, &[(110, LinkDown), (150, LinkUp)]);
        let second = attempt(
            300,
            &[(300, Trigger), (310, BindingComplete), (320, LinkDown)],
        );
        assert_eq!(
            HandoverAttempt::recoveries([&first, &second]),
            [(ms(110), ms(310))]
        );
        let third = attempt(400, &[(420, BindingComplete)]);
        assert_eq!(
            HandoverAttempt::recoveries([&first, &second, &third]),
            [(ms(110), ms(310)), (ms(320), ms(420))]
        );
    }

    #[test]
    fn first_end_wins_and_marks_continue_after_it() {
        let host = Topology::new().add_node("mh");
        let mut a = HandoverAttempt::open(host, SimTime::ZERO);
        assert!(a.is_open());
        a.close(ms(50), HandoverOutcome::Reactive);
        a.mark(ms(60), HandoffPhase::FirstDelivery);
        a.close(ms(70), HandoverOutcome::Failed);
        assert_eq!(a.end, Some((ms(50), HandoverOutcome::Reactive)));
        assert_eq!(a.outcome(), Some(HandoverOutcome::Reactive));
        assert_eq!(a.first(HandoffPhase::FirstDelivery), Some(ms(60)));
        assert_eq!(TraceSpan::end(&a), Some((ms(50), "reactive")));
        let labels: Vec<_> = TraceSpan::marks(&a).map(|(_, l)| l).collect();
        assert_eq!(labels, ["first-delivery"]);
    }

    #[test]
    fn packed_marks_keep_every_phase_and_nanosecond() {
        let mut a = HandoverAttempt::open(Topology::new().add_node("mh"), SimTime::ZERO);
        let times = [0, 1, 1_234_567_891, (1 << Mark::TIME_BITS) - 1];
        let mut want = Vec::new();
        for phase in HandoffPhase::ALL {
            for ns in times {
                a.mark(SimTime::from_nanos(ns), phase);
                want.push((SimTime::from_nanos(ns), phase));
            }
        }
        assert_eq!(a.phases().collect::<Vec<_>>(), want);
    }

    #[test]
    #[should_panic(expected = "past 2^60 ns")]
    fn marks_past_the_packed_range_panic() {
        let mut a = HandoverAttempt::open(Topology::new().add_node("mh"), SimTime::ZERO);
        a.mark(
            SimTime::from_nanos(1 << Mark::TIME_BITS),
            HandoffPhase::Trigger,
        );
    }
}
