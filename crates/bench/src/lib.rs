//! # fh-bench — figure regeneration library
//!
//! Each `fig*` function runs the corresponding experiment from
//! [`fh_scenarios::experiments`] with the thesis' parameters and renders
//! the series as a plain-text table (the same rows the paper's figures
//! plot). The `repro` binary prints them ([`FIGURES`], [`render`]); the
//! `fh-perf` harness under `benchmark/` times them.
//!
//! Every figure function takes a thread count, forwarded to the
//! deterministic sweep engine ([`fh_scenarios::sweep`]): the rendered
//! table is bit-identical at any value. Single-run figures ignore it.
//! Alongside the text, a [`FigureRun`] reports how many simulator events
//! the figure processed, which the harness turns into events/second.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod csv;
pub mod planio;

use std::fmt::Write as _;

use fh_core::Scheme;
use fh_scenarios::experiments::{self, BufferUtilizationParams, FIG_4_6_RATES};
use fh_scenarios::sweep::parallel_map;
use fh_sim::SimDuration;

/// One regenerated figure: the rendered table plus run accounting.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// The plain-text table, exactly as `repro` prints it.
    pub text: String,
    /// Total simulator events processed while regenerating the figure.
    pub events: u64,
}

/// A figure function: thread count in, rendered table out.
pub type FigureFn = fn(usize) -> FigureRun;

/// Every figure `repro` regenerates, in print order, by its filter name.
pub const FIGURES: [(&str, FigureFn); 18] = [
    ("fig4.2", fig4_2),
    ("fig4.3", fig4_3),
    ("fig4.4", fig4_4),
    ("fig4.5", fig4_5),
    ("fig4.6", fig4_6),
    ("fig4.7", fig4_7),
    ("fig4.8", fig4_8),
    ("fig4.9", fig4_9),
    ("fig4.10", fig4_10),
    ("fig4.12", fig4_12),
    ("fig4.13", fig4_13),
    ("fig4.14", fig4_14),
    ("threshold", ablation_threshold),
    ("pacing", ablation_pacing),
    ("background", ablation_background),
    ("blackout", ablation_blackout),
    ("signaling", ablation_signaling),
    ("chaos", chaos),
];

/// Runs `figures` and renders `repro`'s stdout. Independent figures run
/// concurrently on the same pool size as their internal point fan-out and
/// are rendered in the order given, so the text is byte-identical at any
/// `threads` value.
#[must_use]
pub fn render(figures: &[(&'static str, FigureFn)], threads: usize) -> String {
    let texts = parallel_map(threads, figures, |_, &(_, f)| f(threads).text);
    let mut out = String::new();
    for ((name, _), text) in figures.iter().zip(&texts) {
        let _ = writeln!(out, "==== {name} ====\n{text}");
    }
    out
}

/// Parameters shared by the QoS / delay experiments (§4.2.2–4.2.3).
pub mod params {
    /// Buffer capacity per router for the proposed scheme (Figs 4.4/4.5).
    pub const PROPOSED_CAPACITY: usize = 20;
    /// Buffer capacity for the original fast handover (Figs 4.3/4.7):
    /// "double the size of our proposed method".
    pub const FH_CAPACITY: usize = 40;
    /// The per-handover buffer request used in those figures.
    pub const REQUEST: u32 = 40;
    /// Handoffs simulated in Figs 4.3–4.5.
    pub const HANDOFFS: u64 = 100;
    /// Seed used by the `repro` binary.
    pub const SEED: u64 = 2003;
}

/// Fig 4.2 — buffer utilization of different handoff mechanisms.
#[must_use]
pub fn fig4_2(threads: usize) -> FigureRun {
    let r = experiments::buffer_utilization(BufferUtilizationParams::default(), threads);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 4.2 — packet drops vs simultaneous handoffs (64 kb/s per host)"
    );
    let _ = write!(out, "{:>5}", "MHs");
    for s in &r.series {
        let _ = write!(out, "{:>8}", s.label);
    }
    let _ = writeln!(out);
    let n_points = r.series[0].points.len();
    for i in 0..n_points {
        let _ = write!(out, "{:>5}", r.series[0].points[i].0);
        for s in &r.series {
            let _ = write!(out, "{:>8}", s.points[i].1);
        }
        let _ = writeln!(out);
    }
    FigureRun {
        text: out,
        events: r.events,
    }
}

fn render_qos(result: &experiments::QosDropsResult, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>9}{:>10}{:>10}{:>10}",
        "handoffs", "F1(RT)", "F2(HP)", "F3(BE)"
    );
    let n = result.drops[0].len();
    let mut idx = 9; // print handoff 10, 20, …
    while idx < n {
        let _ = writeln!(
            out,
            "{:>9}{:>10}{:>10}{:>10}",
            idx + 1,
            result.drops[0][idx],
            result.drops[1][idx],
            result.drops[2][idx]
        );
        idx += 10;
    }
    out
}

/// Fig 4.3 — drops per flow, original fast handover, buffer = 40.
#[must_use]
pub fn fig4_3(_threads: usize) -> FigureRun {
    let r = experiments::qos_drops(
        Scheme::NarOnly,
        params::FH_CAPACITY,
        params::REQUEST,
        params::HANDOFFS,
        params::SEED,
    );
    FigureRun {
        text: render_qos(
            &r,
            "Fig 4.3 — cumulative drops, original fast handover (buffer 40)",
        ),
        events: r.events,
    }
}

/// Fig 4.4 — drops per flow, proposed method, classification disabled.
#[must_use]
pub fn fig4_4(_threads: usize) -> FigureRun {
    let r = experiments::qos_drops(
        Scheme::Dual { classify: false },
        params::PROPOSED_CAPACITY,
        params::REQUEST,
        params::HANDOFFS,
        params::SEED,
    );
    FigureRun {
        text: render_qos(
            &r,
            "Fig 4.4 — cumulative drops, proposed method (buffer 20, class disabled)",
        ),
        events: r.events,
    }
}

/// Fig 4.5 — drops per flow, proposed method, classification enabled.
#[must_use]
pub fn fig4_5(_threads: usize) -> FigureRun {
    let r = experiments::qos_drops(
        Scheme::Dual { classify: true },
        params::PROPOSED_CAPACITY,
        params::REQUEST,
        params::HANDOFFS,
        params::SEED,
    );
    FigureRun {
        text: render_qos(
            &r,
            "Fig 4.5 — cumulative drops, proposed method (buffer 20, class enabled)",
        ),
        events: r.events,
    }
}

/// Fig 4.6 — drops vs per-flow data rate, one handoff, proposed method.
#[must_use]
pub fn fig4_6(threads: usize) -> FigureRun {
    let r = experiments::rate_sweep(
        &FIG_4_6_RATES,
        params::PROPOSED_CAPACITY,
        params::REQUEST,
        params::SEED,
        threads,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 4.6 — drops vs data rate (one handoff, class enabled)"
    );
    let _ = writeln!(
        out,
        "{:>10}{:>10}{:>10}{:>10}",
        "kb/s", "F1(RT)", "F2(HP)", "F3(BE)"
    );
    for (i, &rate) in r.rates_kbps.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>10.1}{:>10}{:>10}{:>10}",
            rate, r.drops[0][i], r.drops[1][i], r.drops[2][i]
        );
    }
    FigureRun {
        text: out,
        events: r.events,
    }
}

fn render_delay(r: &experiments::DelayTraceResult, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let Some(spike) = r.spike_start else {
        let _ = writeln!(out, "  (no delay spike found)");
        return out;
    };
    let from = spike.saturating_sub(3);
    let to = spike + 27;
    let _ = writeln!(
        out,
        "{:>6}{:>12}{:>12}{:>12}   (delays in ms; '-' = lost)",
        "seq", "F1(RT)", "F2(HP)", "F3(BE)"
    );
    for seq in from..to {
        let _ = write!(out, "{seq:>6}");
        for k in 0..3 {
            match r.series[k].iter().find(|&&(s, _)| s == seq) {
                Some(&(_, d)) => {
                    let _ = write!(out, "{:>12.1}", d * 1e3);
                }
                None => {
                    let _ = write!(out, "{:>12}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Fig 4.7 — end-to-end delay, original fast handover (buffer 40).
#[must_use]
pub fn fig4_7(_threads: usize) -> FigureRun {
    let r = experiments::delay_trace(
        Scheme::NarOnly,
        params::FH_CAPACITY,
        params::REQUEST,
        SimDuration::from_millis(2),
        params::SEED,
    );
    FigureRun {
        text: render_delay(&r, "Fig 4.7 — e2e delay, fast handover (buffer 40)"),
        events: r.events,
    }
}

/// Fig 4.8 — end-to-end delay, proposed (buffer 20, class disabled).
#[must_use]
pub fn fig4_8(_threads: usize) -> FigureRun {
    let r = experiments::delay_trace(
        Scheme::Dual { classify: false },
        params::PROPOSED_CAPACITY,
        params::REQUEST,
        SimDuration::from_millis(2),
        params::SEED,
    );
    FigureRun {
        text: render_delay(
            &r,
            "Fig 4.8 — e2e delay, proposed (buffer 20, class disabled)",
        ),
        events: r.events,
    }
}

/// Fig 4.9 — delay with classification, PAR↔NAR link delay 2 ms.
#[must_use]
pub fn fig4_9(_threads: usize) -> FigureRun {
    let r = experiments::delay_trace(
        Scheme::Dual { classify: true },
        params::PROPOSED_CAPACITY,
        params::REQUEST,
        SimDuration::from_millis(2),
        params::SEED,
    );
    FigureRun {
        text: render_delay(&r, "Fig 4.9 — e2e delay, proposed + class (AR link 2 ms)"),
        events: r.events,
    }
}

/// Fig 4.10 — delay with classification, PAR↔NAR link delay 50 ms.
#[must_use]
pub fn fig4_10(_threads: usize) -> FigureRun {
    let r = experiments::delay_trace(
        Scheme::Dual { classify: true },
        params::PROPOSED_CAPACITY,
        params::REQUEST,
        SimDuration::from_millis(50),
        params::SEED,
    );
    FigureRun {
        text: render_delay(&r, "Fig 4.10 — e2e delay, proposed + class (AR link 50 ms)"),
        events: r.events,
    }
}

fn render_tcp(r: &experiments::TcpHandoffResult, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if let Some((down, up)) = r.blackout {
        let _ = writeln!(out, "  black-out: {down:.3} s → {up:.3} s");
    }
    let _ = writeln!(out, "  timeouts: {:?}", r.timeouts);
    let _ = writeln!(out, "  bytes delivered in order: {}", r.bytes_delivered);
    // Sequence trace around the black-out.
    if let Some((down, up)) = r.blackout {
        let lo = down - 0.3;
        let hi = up + 2.0;
        let _ = writeln!(out, "  sender transmissions (t, seg) in window:");
        let picks: Vec<_> = r
            .sent
            .iter()
            .filter(|&&(t, _)| t >= lo && t <= hi)
            .collect();
        for chunk in picks.chunks(6) {
            let _ = write!(out, "   ");
            for &&(t, s) in chunk {
                let _ = write!(out, " ({t:.3},{s})");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "  receiver arrivals (t, seg) in window:");
        let picks: Vec<_> = r
            .received
            .iter()
            .filter(|&&(t, _)| t >= lo && t <= hi)
            .collect();
        for chunk in picks.chunks(6) {
            let _ = write!(out, "   ");
            for &&(t, s) in chunk {
                let _ = write!(out, " ({t:.3},{s})");
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Fig 4.12 — TCP sequence trace through an L2 handoff, no buffering.
#[must_use]
pub fn fig4_12(_threads: usize) -> FigureRun {
    let r = experiments::tcp_l2_handoff(false, params::SEED);
    FigureRun {
        text: render_tcp(&r, "Fig 4.12 — TCP through L2 handoff (no buffering)"),
        events: r.events,
    }
}

/// Fig 4.13 — TCP sequence trace through an L2 handoff, proposed method.
#[must_use]
pub fn fig4_13(_threads: usize) -> FigureRun {
    let r = experiments::tcp_l2_handoff(true, params::SEED);
    FigureRun {
        text: render_tcp(&r, "Fig 4.13 — TCP through L2 handoff (proposed method)"),
        events: r.events,
    }
}

/// Fig 4.14 — TCP throughput during the L2 handoff, both runs (fanned
/// across the worker pool — they are independent simulations).
#[must_use]
pub fn fig4_14(threads: usize) -> FigureRun {
    let mut runs = parallel_map(threads, &[true, false], |_, &buffering| {
        experiments::tcp_l2_handoff(buffering, params::SEED)
    });
    let without = runs.pop().expect("two runs");
    let with = runs.pop().expect("two runs");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 4.14 — TCP throughput during L2 handoff (Mbit/s per 100 ms)"
    );
    let _ = writeln!(out, "{:>8}{:>10}{:>10}", "t (s)", "buffer", "none");
    let lo = with.blackout.map_or(2.0, |(d, _)| d - 0.5);
    for (i, &(t, mbps)) in with.throughput.iter().enumerate() {
        if t < lo || t > lo + 3.5 {
            continue;
        }
        let none = without.throughput.get(i).map_or(0.0, |&(_, m)| m);
        let _ = writeln!(out, "{t:>8.1}{mbps:>10.2}{none:>10.2}");
    }
    let _ = writeln!(
        out,
        "totals: {} bytes (buffer) vs {} bytes (none)",
        with.bytes_delivered, without.bytes_delivered
    );
    FigureRun {
        text: out,
        events: with.events + without.events,
    }
}

/// Ablation — best-effort admission threshold `a`.
#[must_use]
pub fn ablation_threshold(threads: usize) -> FigureRun {
    let r = experiments::threshold_sweep(&[0, 1, 2, 4, 8, 12, 16, 19], params::SEED, threads);
    let mut out = String::new();
    let _ = writeln!(out, "Ablation — threshold a (case 1c/3c admission)");
    let _ = writeln!(out, "{:>5}{:>10}{:>10}", "a", "BE drops", "HP drops");
    for (i, &a) in r.thresholds.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>5}{:>10}{:>10}",
            a, r.best_effort_drops[i], r.high_priority_drops[i]
        );
    }
    FigureRun {
        text: out,
        events: r.events,
    }
}

/// Ablation — black-out duration (60–400 ms measured 802.11 range).
#[must_use]
pub fn ablation_blackout(threads: usize) -> FigureRun {
    let r = experiments::blackout_sweep(&[60, 100, 200, 300, 400], params::SEED, threads);
    let mut out = String::new();
    let _ = writeln!(out, "Ablation — L2 black-out duration vs total drops");
    let _ = writeln!(out, "{:>8}{:>12}{:>12}", "ms", "proposed", "no buffer");
    for (i, &ms) in r.blackout_ms.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>8}{:>12}{:>12}",
            ms, r.with_buffering[i], r.without_buffering[i]
        );
    }
    FigureRun {
        text: out,
        events: r.events,
    }
}

/// Ablation — per-packet flush processing cost (§4.2.3 observation).
#[must_use]
pub fn ablation_pacing(threads: usize) -> FigureRun {
    let r = experiments::flush_pacing_sweep(&[0, 500, 1_000, 2_000, 5_000], params::SEED, threads);
    let mut out = String::new();
    let _ = writeln!(out, "Ablation — flush pacing vs worst-case delay (HP flow)");
    let _ = writeln!(
        out,
        "{:>12}{:>14}{:>10}",
        "spacing (us)", "p99 delay ms", "losses"
    );
    for (i, &us) in r.spacing_us.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>12}{:>14.1}{:>10}",
            us, r.p99_delay_ms[i], r.hp_losses[i]
        );
    }
    FigureRun {
        text: out,
        events: r.events,
    }
}

/// Ablation — handover quality while a neighbor saturates the cell.
#[must_use]
pub fn ablation_background(threads: usize) -> FigureRun {
    let r = experiments::background_load(&[64.0, 256.0, 512.0, 1024.0], params::SEED, threads);
    let mut out = String::new();
    let _ = writeln!(out, "Ablation — background cell load vs handover quality");
    let _ = writeln!(
        out,
        "{:>10}{:>10}{:>12}{:>10}",
        "bg kb/s", "HP lost", "HP p99 ms", "BG lost"
    );
    for (i, &k) in r.bg_kbps.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>10.0}{:>10}{:>12.1}{:>10}",
            k, r.hp_losses[i], r.hp_p99_ms[i], r.bg_losses[i]
        );
    }
    FigureRun {
        text: out,
        events: r.events,
    }
}

/// Chaos sweep — handover robustness under seeded control-plane loss.
#[must_use]
pub fn chaos(threads: usize) -> FigureRun {
    let r = experiments::chaos_sweep(&experiments::CHAOS_LOSS_PROBS, params::SEED, threads);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chaos — handover robustness vs injected loss (hardened rtx, ping-pong)"
    );
    let _ = writeln!(
        out,
        "{:>7}{:>6}{:>6}{:>6}{:>10}{:>7}{:>7}{:>7}{:>8}{:>7}{:>7}",
        "loss%", "pred", "react", "fail", "recov ms", "F1", "F2", "F3", "faults", "rtx", "degr"
    );
    for p in &r.points {
        let _ = writeln!(
            out,
            "{:>7.1}{:>6}{:>6}{:>6}{:>10.1}{:>7}{:>7}{:>7}{:>8}{:>7}{:>7}",
            p.loss * 100.0,
            p.predictive,
            p.reactive,
            p.failed,
            p.recovery_ms,
            p.class_drops[0],
            p.class_drops[1],
            p.class_drops[2],
            p.fault_drops,
            p.retransmissions,
            p.degradations
        );
    }
    FigureRun {
        text: out,
        events: r.events,
    }
}

/// Ablation — signaling accounting for one proposed-scheme handover.
#[must_use]
pub fn ablation_signaling(_threads: usize) -> FigureRun {
    let r = experiments::signaling_overhead(params::SEED);
    let mut out = String::new();
    let _ = writeln!(out, "Signaling — control messages for one handover (§3.3)");
    for (kind, count) in &r.by_kind {
        if *count > 0 {
            let _ = writeln!(out, "{kind:>12}: {count}");
        }
    }
    let _ = writeln!(
        out,
        "total={} piggybacked={} control_bytes={}",
        r.total, r.piggybacked, r.control_bytes
    );
    FigureRun {
        text: out,
        events: r.events,
    }
}
