//! The traced run: per-layer metrics, measured from outside the crates.
//!
//! Three kinds of number come out of it:
//!
//! 1. *phase spans* around the public calls each workload is made of;
//! 2. *layer probes* ([`crate::probes`]);
//! 3. an *attribution estimate* on one reference simulation: probe cost x
//!    the call counts the run reports, as shares of its run time, with the
//!    residual printed — the outside-in form of "per-layer costs must sum
//!    to the end-to-end number".
//!
//! Every traced run computes the whole set; only `simcore.ns_per_event`
//! and `bench.trace_overhead` belong to the workload being traced.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use fh_metro::MetroConfig;
use fh_scenarios::experiments::{self, BufferUtilizationParams, STORM_SIZES};
use fh_scenarios::HmipScenario;

use crate::alloc::Window;
use crate::measure::Session;
use crate::probes;
use crate::tracer::Tracer;
use crate::workloads::{fig42_point, metro_config, metro_short, Workload};

/// Name, unit and better-direction of every per-layer metric, in report
/// order. `BENCHMARK.json` is generated from this table.
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    // Phase spans.
    ("scenarios.experiments.grid_share", "share", "lower"),
    ("scenarios.experiments.qos_share", "share", "lower"),
    ("scenarios.experiments.delay_share", "share", "lower"),
    ("scenarios.experiments.tcp_share", "share", "lower"),
    ("scenarios.experiments.ablation_share", "share", "lower"),
    ("scenarios.experiments.chaos_share", "share", "lower"),
    ("scenarios.plan.parse_share", "share", "lower"),
    ("scenarios.plan.run_share", "share", "lower"),
    ("scenarios.plan.parse_us_per_plan", "us", "lower"),
    ("bench.planio.fnv_share", "share", "lower"),
    ("scenarios.hmip.build_us", "us", "lower"),
    ("scenarios.hmip.run_ns_per_event", "ns", "lower"),
    ("scenarios.hmip.finalize_us", "us", "lower"),
    ("scenarios.hmip.build_share_fig42", "share", "lower"),
    ("telemetry.traced_over_dark", "ratio", "lower"),
    ("telemetry.allocs_traced_over_dark", "ratio", "lower"),
    ("telemetry.export_bytes", "bytes", "lower"),
    ("simcore.shard.epochs", "count", "lower"),
    ("simcore.shard.messages", "count", "lower"),
    ("simcore.shard.busy_s", "s", "lower"),
    ("simcore.shard.critical_s", "s", "lower"),
    ("simcore.shard.exchange_s", "s", "lower"),
    ("simcore.shard.critical_path_speedup", "ratio", "higher"),
    ("metro.events_per_s_1k", "1/s", "higher"),
    ("metro.events_per_s_10k", "1/s", "higher"),
    ("metro.events_per_s_50k", "1/s", "higher"),
    ("metro.events_per_s_100k", "1/s", "higher"),
    ("metro.rate_ratio_1k_over_100k", "ratio", "lower"),
    ("metro.heap_bytes_per_host", "bytes", "lower"),
    ("simcore.ns_per_event", "ns", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    // Layer probes.
    ("simcore.queue.hold_ns_heap_p64", "ns", "lower"),
    ("simcore.queue.hold_ns_heap_p100k", "ns", "lower"),
    ("simcore.queue.hold_ns_calendar_p64", "ns", "lower"),
    ("simcore.queue.hold_ns_calendar_p100k", "ns", "lower"),
    ("simcore.queue.cancel_ns", "ns", "lower"),
    ("simcore.actor.dispatch_ns", "ns", "lower"),
    ("simcore.stats.histogram_add_ns", "ns", "lower"),
    ("netstack.stats.flow_record_ns", "ns", "lower"),
    ("netstack.stats.drop_record_ns", "ns", "lower"),
    ("netstack.stats.control_record_ns", "ns", "lower"),
    ("netstack.stats.control_record_allocs", "count", "lower"),
    ("netstack.link.transmit_ns", "ns", "lower"),
    ("netstack.pool.insert_remove_ns", "ns", "lower"),
    ("netstack.packet.clone_ns", "ns", "lower"),
    ("netstack.packet.size_bytes", "bytes", "lower"),
    ("netstack.topology.compute_routes_us", "us", "lower"),
    ("wireless.radio.attachment_ns", "ns", "lower"),
    ("wireless.mih.sample_ns", "ns", "lower"),
    ("mobileip.binding.lookup_ns", "ns", "lower"),
    ("core.buffer.admit_drain_ns", "ns", "lower"),
    ("core.buffer.admit_drain_ns_s64", "ns", "lower"),
    ("core.buffer.dropfront_ns", "ns", "lower"),
    ("core.buffer.shed_ns", "ns", "lower"),
    ("core.buffer.session_lookup_ns", "ns", "lower"),
    ("core.policy.admit_ns", "ns", "lower"),
    ("core.policy.classify_batch_ns", "ns", "lower"),
    ("tcp.sender.ack_ns", "ns", "lower"),
    ("tcp.sender.tick_ns", "ns", "lower"),
    ("telemetry.registry.inc_ns", "ns", "lower"),
    ("telemetry.registry.lookup_ns", "ns", "lower"),
    ("telemetry.recorder.record_ns_on", "ns", "lower"),
    ("telemetry.recorder.record_ns_off", "ns", "lower"),
    ("telemetry.export.chrome_mb_per_s", "MB/s", "higher"),
    // Attribution estimate (shares of the reference point's run time).
    ("attr.simcore.actor.share", "share", "lower"),
    ("attr.netstack.stats.share", "share", "lower"),
    ("attr.netstack.link.share", "share", "lower"),
    ("attr.netstack.pool.share", "share", "lower"),
    ("attr.core.buffer.share", "share", "lower"),
    ("attr.core.policy.share", "share", "lower"),
    ("attr.unattributed.share", "share", "lower"),
];

/// The two per-layer metrics that belong to the traced workload itself.
#[derive(Debug, Clone, Copy)]
pub struct OwnLayer {
    pub workload: Workload,
    /// Best untraced pass time over its events.
    pub ns_per_event: f64,
    /// Best traced pass time over best untraced pass time.
    pub trace_overhead: f64,
}

/// What a traced run produced.
pub struct Layers {
    /// Every metric of [`PER_LAYER`] except the two in [`OwnLayer`].
    pub shared: Metrics,
    pub own: Vec<OwnLayer>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Layers {
    /// The full metric set for one traced workload, in [`PER_LAYER`] order.
    ///
    /// # Errors
    ///
    /// Names the first metric of the table that was not measured.
    pub fn for_workload(&self, own: &OwnLayer) -> Result<Vec<(&'static str, f64)>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, _, _)| {
                let value = match name {
                    "simcore.ns_per_event" => Some(own.ns_per_event),
                    "bench.trace_overhead" => Some(own.trace_overhead),
                    _ => self
                        .shared
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|&(_, v)| v),
                };
                value
                    .map(|v| (name, v))
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))
            })
            .collect()
    }
}

/// Call counts of the reference point, read from its public counters after
/// the run, and its best phase times.
struct RefPoint {
    events: u64,
    flow_records: u64,
    drops: u64,
    controls: u64,
    transmitted: u64,
    admitted: u64,
    decided: u64,
    build_s: f64,
    run_s: f64,
    finalize_s: f64,
}

/// The Fig 4.2 point DUAL x 20 hosts, built by the harness: the widest
/// point of the grid, so every layer of the full-fidelity stack works.
fn ref_point(tracer: &mut Tracer, golden_drops: Option<u64>) -> Result<RefPoint, String> {
    let params = BufferUtilizationParams::default();
    let mut best: Option<RefPoint> = None;
    for _ in 0..5 {
        tracer.next_pass();
        let pass = tracer.pass();
        let mut counts = (0, 0, 0, 0, 0, 0);
        let inspect = |s: &HmipScenario| {
            let stats = &s.sim.shared.stats;
            let flow_records = stats
                .audited_flows()
                .into_iter()
                .map(|f| stats.flow_sent(f) + stats.flow_delivered(f))
                .sum();
            let transmitted = s
                .sim
                .shared
                .topo
                .links()
                .iter()
                .map(|l| l.transmitted().iter().sum::<u64>())
                .sum();
            let pools = [s.par_agent().pool().stats, s.nar_agent().pool().stats];
            counts = (
                flow_records,
                stats.total_drops(),
                stats.control_total(),
                transmitted,
                pools.iter().map(|p| p.admitted).sum(),
                pools.iter().map(|p| p.admitted + p.rejected).sum(),
            );
        };
        let scheme = fh_core::Scheme::Dual { classify: false };
        let (drops, events) = tracer.span("bench", "ref_point", |t| {
            (fig42_point(t, params, scheme, 20, inspect), 0)
        });
        if golden_drops.is_some_and(|g| g != drops) {
            return Err(format!(
                "ref_point dropped {drops} packets, the golden Fig 4.2 row says {golden_drops:?}"
            ));
        }
        let point = RefPoint {
            events,
            flow_records: counts.0,
            drops: counts.1,
            controls: counts.2,
            transmitted: counts.3,
            admitted: counts.4,
            decided: counts.5,
            build_s: tracer.total_s(pass, "hmip.build"),
            run_s: tracer.total_s(pass, "hmip.run"),
            finalize_s: tracer.total_s(pass, "hmip.finalize"),
        };
        best = Some(match best {
            Some(b) => RefPoint {
                build_s: b.build_s.min(point.build_s),
                run_s: b.run_s.min(point.run_s),
                finalize_s: b.finalize_s.min(point.finalize_s),
                ..point
            },
            None => point,
        });
    }
    best.ok_or_else(|| "ref_point never ran".to_owned())
}

/// Best wall time of `runs` calls of `f`, with the last call's value.
fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(v);
    }
    (best, last.expect("at least one run"))
}

/// Metro event rate at `hosts` on one queue (2 s horizon), best of `runs`.
fn metro_rate(tracer: &mut Tracer, hosts: u32, seed: u64, runs: usize) -> f64 {
    let cfg = MetroConfig {
        hosts,
        domains: 1,
        seed,
        ..metro_short()
    };
    tracer.next_pass();
    let (wall, events) = best_of(runs, || {
        tracer.span("metro", &format!("metro.scale_{hosts}"), |_| {
            let events = fh_metro::run(&cfg, 1).events_processed;
            (events, events)
        })
    });
    events as f64 / wall
}

/// Metric values by name, in the order they were measured.
type Metrics = Vec<(&'static str, f64)>;

fn value_of(metrics: &[(&'static str, f64)], name: &str) -> Option<f64> {
    metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// The phase shares one traced, checked pass of `session`'s workload gives.
fn phase_shares(session: &mut Session, tracer: &mut Tracer, out: &mut Metrics) {
    let w = session.inputs().workload;
    let traced = session.checked_pass(tracer);
    let pass = tracer.pass();
    let total = tracer.total_s(pass, w.name());
    let share = |prefix: &str| tracer.total_s(pass, prefix) / total;
    match w {
        Workload::Fig42Grid => {
            out.push(("scenarios.hmip.build_share_fig42", share("hmip.build")));
        }
        Workload::ReproSuite => {
            for (name, group) in [
                ("scenarios.experiments.grid_share", "grid:"),
                ("scenarios.experiments.qos_share", "qos:"),
                ("scenarios.experiments.delay_share", "delay:"),
                ("scenarios.experiments.tcp_share", "tcp:"),
                ("scenarios.experiments.ablation_share", "ablation:"),
                ("scenarios.experiments.chaos_share", "chaos:"),
            ] {
                out.push((name, share(group)));
            }
        }
        Workload::CorpusPlans => {
            let plans = fh_bench::planio::CORPUS.len() as f64;
            out.push(("scenarios.plan.parse_share", share("plan.parse")));
            out.push(("scenarios.plan.run_share", share("plan.run")));
            out.push((
                "scenarios.plan.parse_us_per_plan",
                tracer.total_s(pass, "plan.parse") * 1e6 / plans,
            ));
            out.push(("bench.planio.fnv_share", share("planio.fnv")));
        }
        Workload::StormTraced | Workload::Metro10kD4 => {}
        Workload::Metro50kD1 => {
            if let Some((wall, pass)) = traced {
                out.push(("metro.events_per_s_50k", pass.events as f64 / wall));
            }
        }
    }
}

/// The reference point's phase times, and the attribution estimate: probe
/// cost (already in `out`) x the call counts the run reported.
fn attribution(p: &RefPoint, out: &mut Metrics) {
    out.push(("scenarios.hmip.build_us", p.build_s * 1e6));
    out.push((
        "scenarios.hmip.run_ns_per_event",
        p.run_s * 1e9 / p.events as f64,
    ));
    out.push(("scenarios.hmip.finalize_us", p.finalize_s * 1e6));
    let cost = |probe: &str, calls: u64| value_of(out, probe).unwrap_or(f64::NAN) * calls as f64;
    let parts = [
        (
            "attr.simcore.actor.share",
            cost("simcore.actor.dispatch_ns", p.events),
        ),
        (
            "attr.netstack.stats.share",
            cost("netstack.stats.flow_record_ns", p.flow_records)
                + cost("netstack.stats.drop_record_ns", p.drops)
                + cost("netstack.stats.control_record_ns", p.controls),
        ),
        (
            "attr.netstack.link.share",
            cost("netstack.link.transmit_ns", p.transmitted),
        ),
        (
            "attr.netstack.pool.share",
            cost("netstack.pool.insert_remove_ns", p.admitted),
        ),
        (
            "attr.core.buffer.share",
            cost("core.buffer.admit_drain_ns", p.decided),
        ),
        (
            "attr.core.policy.share",
            cost("core.policy.admit_ns", p.decided),
        ),
    ];
    let run_ns = p.run_s * 1e9;
    let attributed: f64 = parts.iter().map(|(_, ns)| ns / run_ns).sum();
    out.extend(parts.map(|(name, ns)| (name, ns / run_ns)));
    out.push(("attr.unattributed.share", 1.0 - attributed));
}

/// Telemetry on vs off: the storm grid with and without recorder, spans and
/// Chrome-trace export, same sizes and seed.
fn telemetry_on_off(seed: u64, tracer: &mut Tracer, out: &mut Metrics) {
    tracer.next_pass();
    let mut export_bytes = 0;
    let (traced_s, ()) = best_of(3, || {
        tracer.span("telemetry", "storm.traced", |_| {
            let r = experiments::storm_timeline(&STORM_SIZES, seed, 1);
            export_bytes = r.chrome_json.len();
            ((), r.events)
        });
    });
    let (dark_s, ()) = best_of(3, || {
        tracer.span("telemetry", "storm.dark", |_| {
            let r = experiments::storm_sweep(&STORM_SIZES, seed, 1);
            ((), r.events)
        });
    });
    let allocs = |f: &dyn Fn()| {
        let window = Window::open();
        f();
        window.close().allocs as f64
    };
    let traced_allocs = allocs(&|| drop(experiments::storm_timeline(&STORM_SIZES, seed, 1)));
    let dark_allocs = allocs(&|| drop(experiments::storm_sweep(&STORM_SIZES, seed, 1)));
    out.push(("telemetry.traced_over_dark", traced_s / dark_s));
    out.push((
        "telemetry.allocs_traced_over_dark",
        traced_allocs / dark_allocs,
    ));
    out.push(("telemetry.export_bytes", export_bytes as f64));
}

/// The epoch executor's own accounting on the sharded workload, metro
/// scaling on one queue, and what a host costs in heap.
fn metro_layers(seed: u64, tracer: &mut Tracer, out: &mut Metrics) {
    tracer.next_pass();
    let report = tracer.span("simcore", "shard.run_epochs", |_| {
        let r = fh_metro::run(&metro_config(Workload::Metro10kD4, seed), 1);
        (r.report, r.events_processed)
    });
    out.push(("simcore.shard.epochs", report.epochs as f64));
    out.push(("simcore.shard.messages", report.messages as f64));
    out.push(("simcore.shard.busy_s", report.busy.as_secs_f64()));
    out.push(("simcore.shard.critical_s", report.critical.as_secs_f64()));
    out.push(("simcore.shard.exchange_s", report.exchange.as_secs_f64()));
    out.push((
        "simcore.shard.critical_path_speedup",
        report.critical_path_speedup(),
    ));

    let r1k = metro_rate(tracer, 1_000, seed, 5);
    let r10k = metro_rate(tracer, 10_000, seed, 3);
    // Metro allocates ~5 times per 1000 events, so counting costs nothing.
    let window = Window::open();
    let r100k = metro_rate(tracer, 100_000, seed, 1);
    let heap_100k = window.close().peak_bytes;
    out.push(("metro.events_per_s_1k", r1k));
    out.push(("metro.events_per_s_10k", r10k));
    out.push(("metro.events_per_s_100k", r100k));
    out.push(("metro.rate_ratio_1k_over_100k", r1k / r100k));
    out.push(("metro.heap_bytes_per_host", heap_100k as f64 / 100_000.0));
}

/// Runs the traced run for the workloads in `own` (each gets `seconds` of
/// alternating untraced and traced passes) and returns every per-layer
/// metric. Spans accumulate in `tracer`.
pub fn collect(
    seed: u64,
    own: &[Workload],
    seconds: f64,
    golden_drops: Option<u64>,
    tracer: &mut Tracer,
) -> Layers {
    let mut layers = Layers {
        shared: probes::run_all(),
        own: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for w in Workload::ALL {
        let mut session = Session::new(w, seed);
        phase_shares(&mut session, tracer, &mut layers.shared);
        if own.contains(&w) {
            layers.own.push(own_layer(&mut session, seconds, tracer));
        }
        let (attempted, failed, failures) = session.abandon();
        layers.attempted += attempted;
        layers.failed += failed;
        layers.failures.extend(failures);
    }
    layers.attempted += 1;
    match ref_point(tracer, golden_drops) {
        Ok(p) => attribution(&p, &mut layers.shared),
        Err(why) => {
            layers.failed += 1;
            layers.failures.push(why);
        }
    }
    telemetry_on_off(seed, tracer, &mut layers.shared);
    metro_layers(seed, tracer, &mut layers.shared);
    layers
}

/// Alternates untraced and traced passes of one workload for `seconds`.
fn own_layer(session: &mut Session, seconds: f64, tracer: &mut Tracer) -> OwnLayer {
    let budget = Duration::from_secs_f64(seconds);
    let mut off = Tracer::new(false);
    let (mut untraced, mut traced) = (f64::INFINITY, f64::INFINITY);
    let mut events = 0;
    let start = Instant::now();
    loop {
        if let Some((wall, out)) = session.checked_pass(&mut off) {
            untraced = untraced.min(wall);
            events = out.events;
        }
        if let Some((wall, _)) = session.checked_pass(tracer) {
            traced = traced.min(wall);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    OwnLayer {
        workload: session.inputs().workload,
        ns_per_event: untraced * 1e9 / events as f64,
        trace_overhead: traced / untraced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_group_has_a_share_metric() {
        for fig in &crate::workloads::FIGURES {
            let name = format!("scenarios.experiments.{}_share", fig.group);
            assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(matches!(*better, "lower" | "higher"), "{name}");
            assert!(
                PER_LAYER[..i].iter().all(|(n, _, _)| n != name),
                "{name} twice"
            );
        }
    }
}
