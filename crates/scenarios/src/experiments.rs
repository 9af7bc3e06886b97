//! Experiment runners: one function per table/figure of the evaluation.
//!
//! Every runner builds a scenario, runs it, and returns a serializable
//! result struct with exactly the series the corresponding figure plots.
//! The `fh-bench` crate wraps these in the `repro` binary that
//! regenerates EXPERIMENTS.md.
//!
//! Sweep-shaped runners (grids of independent simulation points) take a
//! `threads` argument and fan their points across the
//! [`crate::sweep::parallel_map`] worker pool. Each point's RNG stream is
//! derived from the sweep's base seed and the point's **x-axis index** via
//! [`fh_sim::derive_seed`], so (a) results are bit-identical at any thread
//! count, and (b) every series of one figure (the four schemes of Fig 4.2,
//! the with/without pair of the black-out ablation) faces the *same*
//! workload at the same x — the curves stay comparable, as in the paper.
//! Every result struct also reports the total simulator `events`
//! processed, which the `fh-perf` harness turns into events/second.

use serde::{Deserialize, Serialize};

use fh_core::{ProtocolConfig, Scheme};
use fh_net::{ControlMsg, FlowId, HandoverAttempt, ServiceClass};
use fh_sim::stats::windowed_rate;
use fh_sim::{derive_seed, SimDuration, SimTime};

use crate::hmip::{HmipConfig, HmipScenario, MovementPlan, WlanConfig};
use crate::plan::{corpus_plan, run_plan, Axis, PlanOutcome, PointRun};
use crate::sweep::parallel_map;

// ---------------------------------------------------------------------
// Fig 4.2 — buffer utilization
// ---------------------------------------------------------------------

/// One scheme's drop counts versus the number of simultaneous handoffs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeSeries {
    /// Figure legend (`NAR`, `PAR`, `DUAL`, `FH`).
    pub label: String,
    /// `(number of mobile hosts, total packets dropped)`.
    pub points: Vec<(usize, u64)>,
}

/// Parameters of the Fig 4.2 run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BufferUtilizationParams {
    /// Largest simultaneous-handoff count to test.
    pub max_mhs: usize,
    /// Buffer capacity per access router.
    pub buffer_capacity: usize,
    /// Buffer request per handover.
    pub buffer_request: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BufferUtilizationParams {
    fn default() -> Self {
        BufferUtilizationParams {
            max_mhs: 20,
            buffer_capacity: 42,
            buffer_request: 12,
            seed: 42,
        }
    }
}

/// The Fig 4.2 series plus run accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BufferUtilizationResult {
    /// One series per scheme (`NAR`, `PAR`, `DUAL`, `FH`), scheme-major.
    pub series: Vec<SchemeSeries>,
    /// Total simulator events processed across all points.
    pub events: u64,
}

/// Fig 4.2: packet drops vs number of simultaneously-handing-off hosts,
/// for the four buffering schemes. The `scheme × n` grid fans out across
/// `threads` workers; all four schemes at the same `n` share a seed so
/// they face an identical workload.
#[must_use]
pub fn buffer_utilization(
    params: BufferUtilizationParams,
    threads: usize,
) -> BufferUtilizationResult {
    // Fig 4.2 plots exactly the thesis' class-blind schemes, pinned
    // explicitly: deriving the series from `Scheme::ALL` would silently
    // grow the golden figure whenever a non-thesis scheme (e.g. SAFETY)
    // is added to the registry.
    let schemes: Vec<Scheme> = vec![
        Scheme::NarOnly,
        Scheme::ParOnly,
        Scheme::Dual { classify: false },
        Scheme::NoBuffer,
    ];
    let mut grid = Vec::with_capacity(schemes.len() * params.max_mhs);
    for &scheme in &schemes {
        for n in 1..=params.max_mhs {
            grid.push((scheme, n));
        }
    }
    let runs = parallel_map(threads, &grid, |_, &(scheme, n)| {
        let mut protocol = ProtocolConfig::with_scheme(scheme);
        protocol.buffer_request = params.buffer_request;
        let cfg = HmipConfig {
            protocol,
            n_mhs: n,
            buffer_capacity: params.buffer_capacity,
            movement: MovementPlan::OneWay,
            seed: derive_seed(params.seed, (n - 1) as u64),
            ..HmipConfig::default()
        };
        let mut scenario = HmipScenario::build(cfg);
        let mut flows = Vec::new();
        for i in 0..n {
            flows.push(scenario.add_audio_64k(i, ServiceClass::Unspecified));
        }
        scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
        scenario.run_until(SimTime::from_secs(16));
        let drops: u64 = flows.iter().map(|&f| scenario.flow_losses(f)).sum();
        (drops, scenario.sim.events_processed())
    });
    let mut events = 0;
    let series = schemes
        .iter()
        .enumerate()
        .map(|(s_idx, &scheme)| {
            let points = (1..=params.max_mhs)
                .map(|n| {
                    let (drops, ev) = runs[s_idx * params.max_mhs + (n - 1)];
                    events += ev;
                    (n, drops)
                })
                .collect();
            SchemeSeries {
                label: scheme.label().to_owned(),
                points,
            }
        })
        .collect();
    BufferUtilizationResult { series, events }
}

// ---------------------------------------------------------------------
// Figs 4.3–4.5 — QoS drop rate over repeated handoffs
// ---------------------------------------------------------------------

/// Cumulative per-flow drops after each handoff (Figs 4.3–4.5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QosDropsResult {
    /// Scheme label.
    pub label: String,
    /// Buffer capacity per router used in the run.
    pub buffer_capacity: usize,
    /// `drops[k][h]` = cumulative drops of flow k (F1..F3) after handoff
    /// `h+1`.
    pub drops: [Vec<u64>; 3],
    /// Total simulator events processed by the run.
    pub events: u64,
}

/// Figs 4.3–4.5: one host shuttling between the routers; three audio
/// flows (real-time / high-priority / best effort); cumulative per-flow
/// drops per handoff.
///
/// The flows run at 128 kb/s (the §4.2.3 rate): with this simulator's
/// tight signaling, the thesis' 64 kb/s load fits entirely into the
/// figure-caption buffer sizes and no scheme ever drops — the higher rate
/// restores the paper's demand-to-capacity overload ratio (~60 packets
/// per black-out against 40 buffered).
#[must_use]
pub fn qos_drops(
    scheme: Scheme,
    buffer_capacity: usize,
    buffer_request: u32,
    n_handoffs: u64,
    seed: u64,
) -> QosDropsResult {
    let mut protocol = ProtocolConfig::with_scheme(scheme);
    protocol.buffer_request = buffer_request;
    let cfg = HmipConfig {
        protocol,
        n_mhs: 1,
        buffer_capacity,
        movement: MovementPlan::PingPong,
        seed,
        ..HmipConfig::default()
    };
    let mut scenario = HmipScenario::build(cfg);
    let flows: Vec<FlowId> = ServiceClass::EFFECTIVE
        .iter()
        .map(|&class| scenario.add_audio_128k(0, class))
        .collect();
    let mut drops: [Vec<u64>; 3] = Default::default();
    let mut t = SimTime::ZERO;
    let step = SimDuration::from_millis(250);
    let deadline = SimTime::from_secs(20 * n_handoffs + 60);
    let mut recorded = 0;
    while recorded < n_handoffs && t < deadline {
        t += step;
        scenario.run_until(t);
        let completed = scenario.mh_agent(0).handoffs;
        while recorded < completed.min(n_handoffs) {
            recorded += 1;
            for (k, &f) in flows.iter().enumerate() {
                drops[k].push(scenario.flow_losses(f));
            }
        }
    }
    QosDropsResult {
        label: scheme.label().to_owned(),
        buffer_capacity,
        drops,
        events: scenario.sim.events_processed(),
    }
}

// ---------------------------------------------------------------------
// Fig 4.6 — drops vs data rate
// ---------------------------------------------------------------------

/// Per-flow drops for one handoff at increasing data rates (Fig 4.6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateSweepResult {
    /// Tested per-flow rates in kb/s.
    pub rates_kbps: Vec<f64>,
    /// `drops[k][r]` = drops of flow k at rate index r during one handoff.
    pub drops: [Vec<u64>; 3],
    /// Total simulator events processed across all points.
    pub events: u64,
}

/// The x-axis of Fig 4.6.
pub const FIG_4_6_RATES: [f64; 12] = [
    51.2, 55.7, 61.0, 67.4, 75.3, 85.3, 98.5, 116.4, 142.2, 182.9, 256.0, 426.7,
];

/// Fig 4.6: three classified flows, one handoff, sweeping the per-flow
/// data rate. High-priority losses should stay lowest throughout.
#[must_use]
pub fn rate_sweep(
    rates_kbps: &[f64],
    buffer_capacity: usize,
    buffer_request: u32,
    seed: u64,
    threads: usize,
) -> RateSweepResult {
    let mut result = RateSweepResult {
        rates_kbps: rates_kbps.to_vec(),
        drops: Default::default(),
        events: 0,
    };
    let runs = parallel_map(threads, rates_kbps, |idx, &rate| {
        let mut protocol = ProtocolConfig::proposed();
        protocol.buffer_request = buffer_request;
        let cfg = HmipConfig {
            protocol,
            n_mhs: 1,
            buffer_capacity,
            movement: MovementPlan::OneWay,
            seed: derive_seed(seed, idx as u64),
            ..HmipConfig::default()
        };
        let mut scenario = HmipScenario::build(cfg);
        let bits_per_pkt = 160.0 * 8.0;
        let interval = SimDuration::from_secs_f64(bits_per_pkt / (rate * 1000.0));
        let flows: Vec<FlowId> = ServiceClass::EFFECTIVE
            .iter()
            .map(|&class| scenario.add_cbr_flow(0, class, 160, interval))
            .collect();
        scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
        scenario.run_until(SimTime::from_secs(16));
        let drops: Vec<u64> = flows.iter().map(|&f| scenario.flow_losses(f)).collect();
        (drops, scenario.sim.events_processed())
    });
    for (drops, events) in runs {
        for (k, d) in drops.into_iter().enumerate() {
            result.drops[k].push(d);
        }
        result.events += events;
    }
    result
}

// ---------------------------------------------------------------------
// Figs 4.7–4.10 — end-to-end delay around a handoff
// ---------------------------------------------------------------------

/// Per-packet end-to-end delay traces for the three flows (Figs 4.7–4.10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DelayTraceResult {
    /// Scheme label.
    pub label: String,
    /// PAR↔NAR link delay used, in milliseconds.
    pub ar_link_delay_ms: f64,
    /// `series[k]` = `(sequence number, delay in seconds)` per packet of
    /// flow k, arrival order.
    pub series: [Vec<(u64, f64)>; 3],
    /// The first sequence number affected by the handoff (delay spike),
    /// if any — the window Figs 4.7–4.10 zoom into.
    pub spike_start: Option<u64>,
    /// Total simulator events processed by the run.
    pub events: u64,
}

/// Figs 4.7–4.10: one host, one handoff, three 128 kb/s flows; per-packet
/// end-to-end delay. `classify` off reproduces Figs 4.7/4.8; on, with the
/// PAR↔NAR delay swept, reproduces Figs 4.9/4.10.
#[must_use]
pub fn delay_trace(
    scheme: Scheme,
    buffer_capacity: usize,
    buffer_request: u32,
    ar_link_delay: SimDuration,
    seed: u64,
) -> DelayTraceResult {
    let mut protocol = ProtocolConfig::with_scheme(scheme);
    protocol.buffer_request = buffer_request;
    let cfg = HmipConfig {
        protocol,
        n_mhs: 1,
        buffer_capacity,
        ar_link_delay,
        movement: MovementPlan::OneWay,
        seed,
        ..HmipConfig::default()
    };
    let mut scenario = HmipScenario::build(cfg);
    let flows: Vec<FlowId> = ServiceClass::EFFECTIVE
        .iter()
        .map(|&class| scenario.add_audio_128k(0, class))
        .collect();
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
    scenario.run_until(SimTime::from_secs(16));
    let mut series: [Vec<(u64, f64)>; 3] = Default::default();
    for (k, &f) in flows.iter().enumerate() {
        let sink = scenario.flow_sink(f);
        series[k] = Vec::with_capacity(sink.received() as usize);
        series[k].extend(sink.delays().map(|(seq, d)| (seq, d.as_secs_f64())));
    }
    // The spike: first packet whose delay exceeds twice the pre-handoff
    // baseline.
    let spike_start = series
        .iter()
        .flat_map(|s| {
            let base = s.first().map_or(0.0, |&(_, d)| d);
            s.iter()
                .find(|&&(_, d)| d > base * 2.0 + 0.01)
                .map(|&(seq, _)| seq)
        })
        .min();
    DelayTraceResult {
        label: scheme.label().to_owned(),
        ar_link_delay_ms: ar_link_delay.as_millis_f64(),
        series,
        spike_start,
        events: scenario.sim.events_processed(),
    }
}

// ---------------------------------------------------------------------
// Figs 4.12–4.14 — TCP during a pure link-layer handoff
// ---------------------------------------------------------------------

/// TCP sequence/throughput traces around a pure L2 handoff.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TcpHandoffResult {
    /// `true` if the AR buffered during the black-out.
    pub buffering: bool,
    /// Sender transmissions `(time s, segment number)`.
    pub sent: Vec<(f64, u64)>,
    /// Cumulative ACK arrivals at the sender `(time s, segments)`.
    pub acked: Vec<(f64, u64)>,
    /// Receiver arrivals `(time s, segment number)`.
    pub received: Vec<(f64, u64)>,
    /// Coarse RTO firings at the sender (seconds).
    pub timeouts: Vec<f64>,
    /// When the black-out began/ended, in seconds.
    pub blackout: Option<(f64, f64)>,
    /// Receiver goodput per 100 ms window `(time s, Mbit/s)`.
    pub throughput: Vec<(f64, f64)>,
    /// Total bytes delivered in order.
    pub bytes_delivered: u64,
    /// Total simulator events processed by the run.
    pub events: u64,
}

/// Figs 4.12/4.13: TCP sequence trace through a pure L2 handoff, with or
/// without the proposed buffering. Fig 4.14 reads the `throughput` field
/// of both runs.
#[must_use]
pub fn tcp_l2_handoff(buffering: bool, seed: u64) -> TcpHandoffResult {
    let protocol = if buffering {
        ProtocolConfig::proposed()
    } else {
        ProtocolConfig::with_scheme(Scheme::NoBuffer)
    };
    let cfg = WlanConfig {
        protocol,
        seed,
        ..WlanConfig::default()
    };
    let mut scenario = HmipScenario::wlan(cfg);
    scenario.run_until(SimTime::from_secs(12));

    // Black-out window: the host's first L2 switch.
    let blackout = scenario
        .handovers(0)
        .find_map(HandoverAttempt::blackout)
        .map(|(down, up)| (down.as_secs_f64(), up.as_secs_f64()));
    let bytes_delivered = scenario.tcp_receiver().bytes_in_order();

    // The traces leave the run, so each conversion below rewrites its
    // buffer in place.
    let (tx, rx) = scenario.take_tcp_traces();
    let secs = |trace: Vec<(SimTime, u64)>| -> Vec<(f64, u64)> {
        trace
            .into_iter()
            .map(|(t, s)| (t.as_secs_f64(), s))
            .collect()
    };
    let timeouts = tx.timeouts.into_iter().map(SimTime::as_secs_f64).collect();

    // Throughput: in-order goodput per 100 ms bin.
    let bin = SimDuration::from_millis(100);
    let bytes = rx.bytes.iter().map(|&(t, b)| (t, b as f64));
    let throughput = windowed_rate(bytes, SimTime::ZERO, SimTime::from_secs(12), bin)
        .into_iter()
        .map(|(t, bytes_per_s)| (t.as_secs_f64(), bytes_per_s * 8.0 / 1e6))
        .collect();

    TcpHandoffResult {
        buffering,
        sent: secs(tx.sent),
        acked: secs(tx.acked),
        received: secs(rx.received),
        timeouts,
        blackout,
        throughput,
        bytes_delivered,
        events: scenario.sim.events_processed(),
    }
}

// ---------------------------------------------------------------------
// Ablations beyond the paper's figures
// ---------------------------------------------------------------------

/// Best-effort losses as a function of the admission threshold `a`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThresholdSweepResult {
    /// Tested thresholds.
    pub thresholds: Vec<u32>,
    /// Best-effort drops at each threshold.
    pub best_effort_drops: Vec<u64>,
    /// High-priority drops at each threshold (should stay flat).
    pub high_priority_drops: Vec<u64>,
    /// Total simulator events processed across all points.
    pub events: u64,
}

/// Ablation: sweep the administrator constant `a` (Table 3.3 case 1.c).
#[must_use]
pub fn threshold_sweep(thresholds: &[u32], seed: u64, threads: usize) -> ThresholdSweepResult {
    let mut result = ThresholdSweepResult {
        thresholds: thresholds.to_vec(),
        best_effort_drops: Vec::new(),
        high_priority_drops: Vec::new(),
        events: 0,
    };
    let runs = parallel_map(threads, thresholds, |idx, &a| {
        let mut protocol = ProtocolConfig::proposed();
        protocol.buffer_request = 40;
        protocol.threshold_a = a;
        let cfg = HmipConfig {
            protocol,
            n_mhs: 1,
            buffer_capacity: 20,
            movement: MovementPlan::OneWay,
            seed: derive_seed(seed, idx as u64),
            ..HmipConfig::default()
        };
        let mut scenario = HmipScenario::build(cfg);
        let flows: Vec<FlowId> = ServiceClass::EFFECTIVE
            .iter()
            .map(|&class| scenario.add_audio_128k(0, class))
            .collect();
        scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
        scenario.run_until(SimTime::from_secs(16));
        (
            scenario.flow_losses(flows[1]),
            scenario.flow_losses(flows[2]),
            scenario.sim.events_processed(),
        )
    });
    for (hp, be, events) in runs {
        result.high_priority_drops.push(hp);
        result.best_effort_drops.push(be);
        result.events += events;
    }
    result
}

/// Losses with and without buffering as the L2 black-out grows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlackoutSweepResult {
    /// Tested black-out durations in milliseconds.
    pub blackout_ms: Vec<u64>,
    /// Total drops with the proposed scheme.
    pub with_buffering: Vec<u64>,
    /// Total drops without buffering.
    pub without_buffering: Vec<u64>,
    /// Total simulator events processed across all points.
    pub events: u64,
}

/// Ablation: the 802.11 handoff measurement range (60–400 ms) as black-out
/// duration, with and without the proposed scheme. The with/without pair
/// at each duration shares a seed, so the buffered and unbuffered runs
/// see the same traffic.
#[must_use]
pub fn blackout_sweep(blackout_ms: &[u64], seed: u64, threads: usize) -> BlackoutSweepResult {
    let mut result = BlackoutSweepResult {
        blackout_ms: blackout_ms.to_vec(),
        with_buffering: Vec::new(),
        without_buffering: Vec::new(),
        events: 0,
    };
    let mut grid = Vec::with_capacity(blackout_ms.len() * 2);
    for (idx, &ms) in blackout_ms.iter().enumerate() {
        for buffering in [true, false] {
            grid.push((idx, ms, buffering));
        }
    }
    let runs = parallel_map(threads, &grid, |_, &(idx, ms, buffering)| {
        let mut protocol = if buffering {
            ProtocolConfig::proposed()
        } else {
            ProtocolConfig::with_scheme(Scheme::NoBuffer)
        };
        // Provision for the longest black-out tested: 400 ms at
        // 150 packets/s needs ≈60 buffered packets plus slack.
        protocol.buffer_request = 140;
        let cfg = HmipConfig {
            protocol,
            n_mhs: 1,
            buffer_capacity: 70,
            l2_handoff_delay: SimDuration::from_millis(ms),
            movement: MovementPlan::OneWay,
            seed: derive_seed(seed, idx as u64),
            ..HmipConfig::default()
        };
        let mut scenario = HmipScenario::build(cfg);
        let flows: Vec<FlowId> = ServiceClass::EFFECTIVE
            .iter()
            .map(|&class| scenario.add_audio_64k(0, class))
            .collect();
        scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
        scenario.run_until(SimTime::from_secs(16));
        let total: u64 = flows.iter().map(|&f| scenario.flow_losses(f)).sum();
        (total, scenario.sim.events_processed())
    });
    for (&(_, _, buffering), &(total, events)) in grid.iter().zip(runs.iter()) {
        if buffering {
            result.with_buffering.push(total);
        } else {
            result.without_buffering.push(total);
        }
        result.events += events;
    }
    result
}

/// Delay impact of the router's per-packet flush processing cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlushPacingResult {
    /// Tested per-packet flush spacings, in microseconds.
    pub spacing_us: Vec<u64>,
    /// 99th-percentile end-to-end delay of the high-priority flow (the
    /// spike packets are ≈2% of the run, so pacing moves this directly).
    pub p99_delay_ms: Vec<f64>,
    /// Losses on the high-priority flow (should stay 0 throughout).
    pub hp_losses: Vec<u64>,
    /// Total simulator events processed across all points.
    pub events: u64,
}

/// Ablation: the thesis notes a flushing router "cannot dump all the
/// buffered packets at the same time" (§4.2.3). Sweep that per-packet
/// processing cost and measure the delay it adds to the buffered burst.
#[must_use]
pub fn flush_pacing_sweep(spacing_us: &[u64], seed: u64, threads: usize) -> FlushPacingResult {
    let mut result = FlushPacingResult {
        spacing_us: spacing_us.to_vec(),
        p99_delay_ms: Vec::new(),
        hp_losses: Vec::new(),
        events: 0,
    };
    let runs = parallel_map(threads, spacing_us, |idx, &us| {
        let mut protocol = ProtocolConfig::proposed();
        protocol.buffer_request = 40;
        protocol.flush_spacing = SimDuration::from_micros(us);
        let cfg = HmipConfig {
            protocol,
            n_mhs: 1,
            buffer_capacity: 20,
            movement: MovementPlan::OneWay,
            seed: derive_seed(seed, idx as u64),
            ..HmipConfig::default()
        };
        let mut scenario = HmipScenario::build(cfg);
        let hp = scenario.add_audio_128k(0, ServiceClass::HighPriority);
        scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
        scenario.run_until(SimTime::from_secs(16));
        let report =
            fh_traffic::FlowReport::from_sink(scenario.flow_sink(hp), scenario.flow_sent(hp));
        (
            report.p99_delay.as_millis_f64(),
            report.lost,
            scenario.sim.events_processed(),
        )
    });
    for (p99, lost, events) in runs {
        result.p99_delay_ms.push(p99);
        result.hp_losses.push(lost);
        result.events += events;
    }
    result
}

/// Handover quality under background load in the same cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BackgroundLoadResult {
    /// Background rates tested, in kb/s.
    pub bg_kbps: Vec<f64>,
    /// High-priority losses of the moving host during its handover.
    pub hp_losses: Vec<u64>,
    /// p99 delay of the high-priority flow, in ms.
    pub hp_p99_ms: Vec<f64>,
    /// Losses of the (parked) background flow itself.
    pub bg_losses: Vec<u64>,
    /// Total simulator events processed across all points.
    pub events: u64,
}

/// Ablation: a parked neighbor saturates the PAR's cell with best-effort
/// traffic while another host hands over. The handover's high-priority
/// protection must survive contention for the shared air interface.
#[must_use]
pub fn background_load(bg_kbps: &[f64], seed: u64, threads: usize) -> BackgroundLoadResult {
    let mut result = BackgroundLoadResult {
        bg_kbps: bg_kbps.to_vec(),
        hp_losses: Vec::new(),
        hp_p99_ms: Vec::new(),
        bg_losses: Vec::new(),
        events: 0,
    };
    let runs = parallel_map(threads, bg_kbps, |idx, &kbps| {
        let mut protocol = ProtocolConfig::proposed();
        protocol.buffer_request = 40;
        let cfg = HmipConfig {
            protocol,
            n_mhs: 2,
            buffer_capacity: 40,
            movement: MovementPlan::OneWay,
            seed: derive_seed(seed, idx as u64),
            ..HmipConfig::default()
        };
        let mut scenario = HmipScenario::build(cfg);
        // Host 0 moves and carries the HP flow; host 1 is parked under the
        // PAR soaking the cell. (With OneWay movement both hosts walk, so
        // park host 1 by replacing its radio's mobility — simplest is to
        // point its flow at it regardless: it hands over too, which only
        // makes the contention harsher and the test stronger.)
        let hp = scenario.add_audio_128k(0, ServiceClass::HighPriority);
        let bits_per_pkt = 160.0 * 8.0;
        let interval = SimDuration::from_secs_f64(bits_per_pkt / (kbps * 1000.0));
        let bg = scenario.add_cbr_flow(1, ServiceClass::BestEffort, 160, interval);
        scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
        scenario.run_until(SimTime::from_secs(16));
        let report =
            fh_traffic::FlowReport::from_sink(scenario.flow_sink(hp), scenario.flow_sent(hp));
        (
            report.lost,
            report.p99_delay.as_millis_f64(),
            scenario.flow_losses(bg),
            scenario.sim.events_processed(),
        )
    });
    for (hp_lost, hp_p99, bg_lost, events) in runs {
        result.hp_losses.push(hp_lost);
        result.hp_p99_ms.push(hp_p99);
        result.bg_losses.push(bg_lost);
        result.events += events;
    }
    result
}

// ---------------------------------------------------------------------
// Chaos sweep — handover robustness vs control-plane loss
// ---------------------------------------------------------------------

/// Robustness metrics at one injected loss probability.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// Per-packet loss probability injected on the PAR↔NAR wire and on
    /// both air interfaces.
    pub loss: f64,
    /// Handovers that completed the anticipated (predictive) exchange.
    pub predictive: u64,
    /// Handovers that fell back to the reactive path.
    pub reactive: u64,
    /// Handovers still unresolved when the run ended (wedged).
    pub failed: u64,
    /// Mean LinkDown → MAP-binding-restored latency, in milliseconds
    /// (grows with every retransmission round the signaling needed).
    pub recovery_ms: f64,
    /// Per-class data drops (F1 real-time, F2 high-priority, F3 best
    /// effort), all reasons combined.
    pub class_drops: [u64; 3],
    /// Packets the fault layer itself discarded, control and data.
    pub fault_drops: u64,
    /// Control retransmissions spent (host solicit/FNA + router HI).
    pub retransmissions: u64,
    /// Degradation-ladder steps taken (exchanges that exhausted their
    /// retry budget).
    pub degradations: u64,
    /// Simulator events processed by this point.
    pub events: u64,
}

/// The chaos sweep series plus run accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosSweepResult {
    /// One point per tested loss probability.
    pub points: Vec<ChaosPoint>,
    /// Total simulator events across all points.
    pub events: u64,
}

/// The x-axis of the chaos figure: loss up to the 20 % acceptance bound.
pub const CHAOS_LOSS_PROBS: [f64; 6] = [0.0, 0.025, 0.05, 0.10, 0.15, 0.20];

/// Runs the corpus plan `file` under a caller-chosen `axis` and `seed`.
/// The plan's artifact lock pins the bytes of its own axis and seed, so
/// it cannot apply here and is cleared; every other expectation stays
/// armed and a violation panics.
fn run_corpus_sweep(file: &str, axis: Axis, seed: u64, threads: usize) -> PlanOutcome {
    let mut plan = corpus_plan(file);
    plan.seed = seed;
    plan.axis = axis;
    plan.expectations.artifact_fnv1a = None;
    run_plan(&plan, threads).expect_clean()
}

/// Chaos sweep: seeded fault injection on every control-plane path (the
/// PAR↔NAR wire plus both air interfaces) with hardened signaling
/// retransmission, a ping-pong host and three classified 128 kb/s flows.
/// Each point classifies every handover attempt
/// (predictive / reactive / failed) and must pass the end-of-run
/// packet-conservation audit — a wedged scenario panics here rather than
/// producing a quietly wrong figure.
///
/// A thin adapter over the corpus plan `plans/chaos.toml`: the sweep
/// *is* that plan with `loss_probs` as its axis, run through
/// [`crate::plan::run_plan`].
#[must_use]
pub fn chaos_sweep(loss_probs: &[f64], seed: u64, threads: usize) -> ChaosSweepResult {
    let axis = Axis::Loss(loss_probs.to_vec());
    let outcome = run_corpus_sweep("plans/chaos.toml", axis, seed, threads);
    let points = outcome
        .points
        .iter()
        .map(|p| ChaosPoint {
            loss: p.loss.unwrap_or(0.0),
            predictive: p.predictive,
            reactive: p.reactive,
            failed: p.failed,
            recovery_ms: p.recovery_ms,
            class_drops: p.class_drops,
            fault_drops: p.fault_drops,
            retransmissions: p.retransmissions,
            degradations: p.degradations,
            events: p.events,
        })
        .collect();
    ChaosSweepResult {
        points,
        events: outcome.events,
    }
}

// ---------------------------------------------------------------------
// Handover storm — admission overload and soft-state survival at scale
// ---------------------------------------------------------------------

/// One scheme's outcome at one storm size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StormScheme {
    /// Scheme label (`NAR` = original FMIPv6, the enhanced scheme's label
    /// for classified dual buffering).
    pub label: String,
    /// Per-class data drops (real-time, high-priority, best effort), all
    /// reasons combined.
    pub class_drops: [u64; 3],
    /// Worst per-flow p99 end-to-end delay per class, in milliseconds.
    pub class_p99_ms: [f64; 3],
    /// Packets released by soft-state lifetime expiry.
    pub expired: u64,
    /// Packets reclaimed from dead or abandoned state.
    pub reclaimed: u64,
    /// Handover attempts still unresolved at the end of the run.
    pub failed: u64,
    /// Host routes the lifetime sweep expired unrefreshed.
    pub routes_expired: u64,
    /// Simulator events processed by the run.
    pub events: u64,
}

/// Both schemes' outcomes at one storm size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StormPoint {
    /// Number of hosts handing over in the storm window.
    pub n_mhs: usize,
    /// Original FMIPv6 (NAR-only buffering).
    pub fmipv6: StormScheme,
    /// The enhanced scheme (classified dual buffering).
    pub enhanced: StormScheme,
}

/// The storm sweep series plus run accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StormSweepResult {
    /// One point per tested storm size.
    pub points: Vec<StormPoint>,
    /// Total simulator events across all points.
    pub events: u64,
}

/// The x-axis of the storm figure: hosts handing over in one window.
pub const STORM_SIZES: [usize; 6] = [4, 8, 12, 16, 20, 24];

/// Handover storm: `n` hosts hand over within a staggered window against
/// routers provisioned for far fewer, for original FMIPv6 (NAR-only)
/// versus the enhanced classified dual buffering — Fig 4.2 at scale, with
/// per-class drops and delays under admission exhaustion. Every point
/// runs with soft-state lifetimes armed and must pass both the
/// packet-conservation audit and the resource-leak audit; both schemes at
/// the same storm size share a seed so they face an identical workload.
///
/// A thin adapter over the corpus plan `plans/storm.toml`: the sweep
/// *is* that plan with `sizes` as its axis, run through
/// [`crate::plan::run_plan`].
#[must_use]
pub fn storm_sweep(sizes: &[usize], seed: u64, threads: usize) -> StormSweepResult {
    let axis = Axis::Hosts(sizes.to_vec());
    let outcome = run_corpus_sweep("plans/storm.toml", axis, seed, threads);
    let as_scheme = |p: &PointRun| StormScheme {
        label: p.scheme.label().to_owned(),
        class_drops: p.class_drops,
        class_p99_ms: p.class_p99_ms,
        expired: p.expired,
        reclaimed: p.reclaimed,
        failed: p.failed,
        routes_expired: p.routes_expired,
        events: p.events,
    };
    let points = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| StormPoint {
            n_mhs: n,
            fmipv6: as_scheme(&outcome.points[2 * i]),
            enhanced: as_scheme(&outcome.points[2 * i + 1]),
        })
        .collect();
    StormSweepResult {
        points,
        events: outcome.events,
    }
}

// ---------------------------------------------------------------------
// Storm timeline — the observability subsystem's reference export
// ---------------------------------------------------------------------

/// Storm sizes exported as timelines: a small cut of [`STORM_SIZES`] —
/// the export is for *inspecting* handovers, not for the figure's x-axis.
pub const TIMELINE_SIZES: [usize; 2] = [4, 8];

/// A merged Chrome-trace timeline plus run accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineResult {
    /// The Chrome-trace ("trace event format") JSON array — loadable in
    /// Perfetto / `chrome://tracing`. Byte-identical at any thread count.
    pub chrome_json: String,
    /// Total simulator events across all exported points.
    pub events: u64,
}

/// Exports the handover-storm runs as one merged Chrome-trace timeline:
/// each grid point (storm size × scheme) becomes a `pid` partition whose
/// tracks are the simulation's actors, with handover spans, phase marks
/// and per-class buffer events. Points fan across the worker pool and
/// fragments merge in grid order, so the JSON is **byte-identical at any
/// thread count** — CI `cmp`s these bytes across `--threads` values.
/// Seeds derive exactly as in [`storm_sweep`], so a timeline can be laid
/// next to the matching storm CSV row.
///
/// A thin adapter over the corpus plan `plans/timeline.toml` run
/// through [`crate::plan::run_plan`].
#[must_use]
pub fn storm_timeline(sizes: &[usize], seed: u64, threads: usize) -> TimelineResult {
    let axis = Axis::Hosts(sizes.to_vec());
    let outcome = run_corpus_sweep("plans/timeline.toml", axis, seed, threads);
    TimelineResult {
        chrome_json: outcome.artifact,
        events: outcome.events,
    }
}

/// Control-plane accounting for one handover (§3.3 signaling argument).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SignalingResult {
    /// Control messages sent, by kind.
    pub by_kind: Vec<(String, u64)>,
    /// Total control bytes.
    pub control_bytes: u64,
    /// Messages that carried a piggybacked buffer option.
    pub piggybacked: u64,
    /// Total control messages.
    pub total: u64,
    /// Total simulator events processed by the run.
    pub events: u64,
}

/// Ablation: signaling overhead of one proposed-scheme handover — how much
/// of the buffer management rides piggybacked on FMIPv6 messages.
#[must_use]
pub fn signaling_overhead(seed: u64) -> SignalingResult {
    let cfg = HmipConfig {
        protocol: ProtocolConfig::proposed(),
        n_mhs: 1,
        buffer_capacity: 40,
        movement: MovementPlan::OneWay,
        seed,
        ..HmipConfig::default()
    };
    let mut scenario = HmipScenario::build(cfg);
    let _ = scenario.add_audio_64k(0, ServiceClass::HighPriority);
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
    scenario.run_until(SimTime::from_secs(16));
    let stats = &scenario.sim.shared.stats;
    SignalingResult {
        by_kind: ControlMsg::KIND_NAMES
            .iter()
            .map(|&k| (k.to_owned(), stats.control_count(k)))
            .collect(),
        control_bytes: stats.control_bytes,
        piggybacked: stats.piggybacked,
        total: stats.control_total(),
        events: scenario.sim.events_processed(),
    }
}
