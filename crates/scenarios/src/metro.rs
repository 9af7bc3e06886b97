//! The plan-layer adapter for the [`fh_metro`] sharded kernel.
//!
//! A plan with `report = "metro"` runs each grid point on the
//! multi-domain epoch executor instead of the actor fabric: the
//! `[topology.domains]` table becomes a [`fh_metro::MetroConfig`], the
//! point's scheme and seed slot in from the grid, and the results fold
//! back into the same [`PointRun`] / [`PointAudit`] shapes the
//! expectations engine already judges. The artifact renderer emits one
//! row per grid point with deterministic columns only — epoch and
//! message counts are functions of the simulated world, wall-clock
//! never is, so the CSV stays byte-identical at any thread count.

use fh_core::Scheme;
use fh_metro::MetroConfig;
use fh_telemetry::{Cell, CsvTable};

use crate::expectations::PointAudit;
use crate::plan::{PointRun, ScenarioPlan};

/// The metro-kernel extras one grid point measured, carried alongside
/// the common [`PointRun`] fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetroPoint {
    /// Domains (shards) the point ran across.
    pub domains: u32,
    /// Packets generated, all classes.
    pub generated: u64,
    /// Packets delivered, all classes.
    pub delivered: u64,
    /// Packets that crossed an inter-MAP boundary.
    pub boundary_packets: u64,
    /// Epoch barriers the executor ran.
    pub epochs: u64,
    /// Cross-shard messages exchanged at barriers.
    pub messages: u64,
}

/// Resolves a plan + grid point into the kernel's config.
#[must_use]
pub fn metro_config(plan: &ScenarioPlan, hosts: usize, scheme: Scheme, seed: u64) -> MetroConfig {
    let d = plan.topology.domains;
    let w = plan.workloads[0];
    MetroConfig {
        domains: d.count,
        hosts: u32::try_from(hosts).expect("host counts fit in u32"),
        boundary_latency: d.boundary_latency,
        remote_fraction: d.remote_fraction,
        mean_residence: d.mean_residence,
        blackout: plan.topology.l2_blackout,
        scheme,
        buffer_request: plan.protocol.buffer_request,
        flush_spacing: plan.protocol.flush_spacing,
        packet_interval: w.interval,
        packet_bytes: w.packet_bytes,
        traffic_start: plan.run.traffic_start,
        traffic_stop: plan.run.traffic_stop,
        horizon: plan.run.horizon,
        seed,
    }
}

/// Runs one metro grid point and folds the results into a [`PointRun`].
#[must_use]
pub fn run_metro_point(
    plan: &ScenarioPlan,
    hosts: usize,
    scheme: Scheme,
    seed: u64,
    threads: usize,
) -> PointRun {
    let cfg = metro_config(plan, hosts, scheme, seed);
    let r = fh_metro::run(&cfg, threads);
    let class_drops = [r.counts.drops(0), r.counts.drops(1), r.counts.drops(2)];
    let class_p99_ms = r.class_p99_ms();
    let audit = PointAudit {
        conservation_violations: r.counts.conservation_violations(),
        leak_clean: r.leak_clean,
        leak_detail: if r.leak_clean {
            String::new()
        } else {
            "a domain packet pool did not drain to empty".to_owned()
        },
        // The metro kernel has no flight recorder; the plan layer
        // rejects `telemetry_ring > 0` for metro plans.
        recorder_overwritten: 0,
        telemetry_enabled: false,
        // Metro handovers always resolve (blackout end is scheduled with
        // the start), so the whole population counts as predictive and
        // the failed-ratio expectation stays meaningful.
        predictive: r.handovers,
        reactive: 0,
        failed: 0,
        class_drops,
        class_p99_ms,
        peak_bytes_parked: 0,
        wedged_sessions: 0,
        shed_order_violations: 0,
    };
    PointRun {
        loss: None,
        hosts,
        scheme,
        predictive: r.handovers,
        reactive: 0,
        failed: 0,
        recovery_ms: 0.0,
        class_drops,
        class_p99_ms,
        fault_drops: 0,
        retransmissions: 0,
        degradations: 0,
        expired: 0,
        reclaimed: 0,
        routes_expired: 0,
        events: r.events_processed,
        audit,
        metro: Some(MetroPoint {
            domains: cfg.domains,
            generated: r.counts.generated.iter().sum(),
            delivered: r.counts.delivered.iter().sum(),
            boundary_packets: r.boundary_packets,
            epochs: r.report.epochs,
            messages: r.report.messages,
        }),
    }
}

/// The metro artifact: one row per grid point, deterministic columns
/// only.
#[must_use]
pub fn render_metro(points: &[PointRun]) -> String {
    let mut t = CsvTable::new(&[
        "hosts",
        "scheme",
        "domains",
        "generated",
        "delivered",
        "drop_rt",
        "drop_hp",
        "drop_be",
        "p99_rt_ms",
        "p99_hp_ms",
        "p99_be_ms",
        "handovers",
        "boundary_pkts",
        "epochs",
        "messages",
        "events",
    ]);
    for p in points {
        let m = p
            .metro
            .expect("metro plans produce metro points for every grid entry");
        t.row(&[
            Cell::from(p.hosts),
            Cell::from(p.scheme.label()),
            Cell::U64(u64::from(m.domains)),
            Cell::U64(m.generated),
            Cell::U64(m.delivered),
            Cell::U64(p.class_drops[0]),
            Cell::U64(p.class_drops[1]),
            Cell::U64(p.class_drops[2]),
            Cell::Fixed(p.class_p99_ms[0], 3),
            Cell::Fixed(p.class_p99_ms[1], 3),
            Cell::Fixed(p.class_p99_ms[2], 3),
            Cell::U64(p.predictive),
            Cell::U64(m.boundary_packets),
            Cell::U64(m.epochs),
            Cell::U64(m.messages),
            Cell::U64(p.events),
        ]);
    }
    t.finish()
}
