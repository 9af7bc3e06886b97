//! Declarative scenario plans: one TOML file describes a whole run.
//!
//! A [`ScenarioPlan`] bundles everything the repro/chaos/storm/timeline
//! drivers used to hard-code — topology, protocol tunables, workloads,
//! fault and storm specs, the sweep axis, the RNG seed — together with an
//! [`Expectations`] block evaluated after quiesce. Plans load from a
//! small TOML subset (see [`ScenarioPlan::from_toml`]), run through the
//! same [`crate::sweep::parallel_map`] grid engine as the hand-written
//! experiments, and render the established artifacts (chaos CSV, storm
//! CSV, Chrome-trace JSON) byte-for-byte.
//!
//! The plans under version control are the [`CORPUS`]: the TOML files in
//! `crates/scenarios/plans/`, compiled in. Three of them (`chaos`,
//! `storm`, `timeline`) are the legacy drivers:
//! [`crate::experiments::chaos_sweep`] /
//! [`crate::experiments::storm_sweep`] /
//! [`crate::experiments::storm_timeline`] load them and override the
//! axis, and their artifact hash locks pin the bytes in `tests/golden/`.
//!
//! [`fuzz_plan`] derives random-but-valid plans from a seed for the
//! `plan --fuzz` smoke battery: every fuzzed plan must conserve packets,
//! keep its flight recorder intact, terminate, and produce identical
//! artifacts at any thread count.

use fh_core::{ProtocolConfig, RetransmitConfig, Scheme};
use fh_net::{DropReason, FaultSpec, FlowId, HandoverAttempt, NodeFaultSpec, ServiceClass};
use fh_sim::{derive_seed, Rng64, SimDuration, SimTime};
use fh_telemetry::{Cell, ChromeTrace, CsvTable, FailureReport};

use crate::expectations::{Expectations, PointAudit};
use crate::hmip::{CellularConfig, HmipConfig, HmipScenario, MovementPlan, Recording};
use crate::sweep::parallel_map;
use fh_wireless::TriggerMode;

pub use crate::toml::PlanError;
pub use schema::schema_table;

mod schema;

/// Flight-recorder capacity used when a timeline plan does not set one:
/// large enough that no storm-timeline point ever wraps.
pub const DEFAULT_TIMELINE_RING: usize = 1 << 16;

/// Which artifact a plan renders from its grid results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// The chaos-sweep CSV (`loss,predictive,…,degradations`).
    Chaos,
    /// The storm-sweep CSV (`mhs,scheme,…,routes_expired`).
    Storm,
    /// The merged Chrome-trace JSON timeline.
    Timeline,
    /// The generic per-point CSV (every recorded metric, one row per
    /// grid point) — the default for ad-hoc and fuzzed plans.
    Points,
    /// The metro-scale CSV from the sharded multi-domain kernel
    /// (`hosts,scheme,domains,…,epochs,messages`).
    Metro,
}

impl ReportKind {
    /// Every kind, in the order plans list them.
    pub const ALL: [ReportKind; 5] = [
        ReportKind::Chaos,
        ReportKind::Storm,
        ReportKind::Timeline,
        ReportKind::Points,
        ReportKind::Metro,
    ];

    /// The name used by the `[plan] report` key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReportKind::Chaos => "chaos",
            ReportKind::Storm => "storm",
            ReportKind::Timeline => "timeline",
            ReportKind::Points => "points",
            ReportKind::Metro => "metro",
        }
    }
}

/// The `[topology.domains]` block: how a metro plan partitions the
/// world into MAP domains. The default (one domain) leaves every
/// non-metro plan untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainsSpec {
    /// Number of MAP domains (shards). 1 means the classic single-queue
    /// kernel.
    pub count: u32,
    /// One-way latency of every inter-MAP boundary link — the
    /// conservative lookahead. Must be positive when `count > 1`.
    pub boundary_latency: SimDuration,
    /// Fraction of hosts whose correspondent lives in another domain.
    pub remote_fraction: f64,
    /// Mean exponential dwell time between handovers.
    pub mean_residence: SimDuration,
}

impl Default for DomainsSpec {
    fn default() -> Self {
        DomainsSpec {
            count: 1,
            boundary_latency: SimDuration::from_millis(8),
            remote_fraction: 0.2,
            mean_residence: SimDuration::from_secs(4),
        }
    }
}

/// The Fig 4.1 topology knobs a plan can turn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySpec {
    /// Number of mobile hosts (overridden per point by a `hosts` axis).
    pub hosts: usize,
    /// Handover buffer capacity per access router, in packets.
    pub buffer_capacity: usize,
    /// Host movement pattern.
    pub movement: MovementPlan,
    /// PAR↔NAR wired link propagation delay.
    pub ar_link_delay: SimDuration,
    /// L2 black-out duration.
    pub l2_blackout: SimDuration,
    /// Host speed in m/s.
    pub speed: f64,
    /// Handover-storm stagger between hosts' walks.
    pub stagger: SimDuration,
    /// Multi-domain partitioning (`[topology.domains]`); defaults to a
    /// single domain, which every non-metro plan uses.
    pub domains: DomainsSpec,
    /// Vertical-handover overlay (`[topology.cellular]`): when present,
    /// the NAR side of the walk is a wide-area cellular sector instead of
    /// the second WLAN cell. `None` keeps the thesis topology.
    pub cellular: Option<CellularConfig>,
    /// Radio interfaces per host (`interfaces` key): 1 single-card, 2
    /// multi-homed (cross-technology handovers run make-before-break).
    pub interfaces: u8,
    /// L2 trigger source (`trigger` key): `"legacy"` geometry/hysteresis
    /// or `"mih"` 802.21-style link events.
    pub trigger: TriggerMode,
}

impl Default for TopologySpec {
    fn default() -> Self {
        let base = HmipConfig::default();
        TopologySpec {
            hosts: base.n_mhs,
            buffer_capacity: base.buffer_capacity,
            movement: base.movement,
            ar_link_delay: base.ar_link_delay,
            l2_blackout: base.l2_handoff_delay,
            speed: base.speed,
            stagger: base.storm_stagger,
            domains: DomainsSpec::default(),
            cellular: base.cellular,
            interfaces: base.interfaces,
            trigger: base.trigger,
        }
    }
}

/// The sweep axis: what varies across grid points.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// A single point per scheme, at the topology's host count.
    None,
    /// Injected loss probability on the AR link and both air interfaces
    /// (the chaos x-axis).
    Loss(Vec<f64>),
    /// Number of simultaneously-moving hosts (the storm x-axis).
    Hosts(Vec<usize>),
}

/// Which hosts a workload attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostSelector {
    /// One flow per host in the run.
    All,
    /// A single flow, to the given host index.
    One(usize),
}

/// How a workload assigns service classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassPlan {
    /// Every flow carries this class.
    Fixed(ServiceClass),
    /// Host `i` gets `ServiceClass::EFFECTIVE[i % 3]` (the storm convention).
    RoundRobin,
}

/// One CBR workload: who receives it, its class, its shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Receiving host(s).
    pub hosts: HostSelector,
    /// Class assignment.
    pub class: ClassPlan,
    /// Packet size in bytes.
    pub packet_bytes: u32,
    /// Inter-packet interval.
    pub interval: SimDuration,
}

/// Every fault a plan can inject, all no-op by default.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Impairments on the PAR↔NAR wire (both directions).
    pub ar_link: FaultSpec,
    /// Impairments on both air interfaces.
    pub wireless: FaultSpec,
    /// Scheduled crash/restart on the PAR.
    pub par: NodeFaultSpec,
    /// Scheduled crash/restart on the NAR.
    pub nar: NodeFaultSpec,
    /// Scheduled power loss on mobile host 0.
    pub mh: NodeFaultSpec,
}

impl FaultPlan {
    /// `true` when no fault of any kind is configured.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.ar_link.is_noop()
            && self.wireless.is_noop()
            && self.par.is_noop()
            && self.nar.is_noop()
            && self.mh.is_noop()
    }
}

/// The run schedule: traffic window, horizon, telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// When CBR sources start generating.
    pub traffic_start: SimTime,
    /// When CBR sources stop (well before the horizon, so the network
    /// quiesces and the post-run audits are meaningful).
    pub traffic_stop: SimTime,
    /// When the simulation ends.
    pub horizon: SimTime,
    /// Flight-recorder ring capacity; zero leaves telemetry off.
    pub telemetry_ring: usize,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            traffic_start: SimTime::from_millis(500),
            traffic_stop: SimTime::from_secs(13),
            horizon: SimTime::from_secs(20),
            telemetry_ring: 0,
        }
    }
}

/// A complete declarative scenario: everything the plan driver needs to
/// run a grid, render its artifact, and judge the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPlan {
    /// The plan's name (reports and corpus listings).
    pub name: String,
    /// Base RNG seed; each axis point derives its own stream.
    pub seed: u64,
    /// Which artifact to render.
    pub report: ReportKind,
    /// Topology knobs.
    pub topology: TopologySpec,
    /// Protocol tunables (the scheme field is overridden per grid point
    /// by `schemes`).
    pub protocol: ProtocolConfig,
    /// The schemes to run at every axis point, in artifact row order.
    pub schemes: Vec<Scheme>,
    /// The sweep axis.
    pub axis: Axis,
    /// The CBR workloads, added in order.
    pub workloads: Vec<WorkloadSpec>,
    /// Fault injection.
    pub faults: FaultPlan,
    /// Run schedule.
    pub run: RunSpec,
    /// Post-quiesce invariants.
    pub expectations: Expectations,
}

impl ScenarioPlan {
    /// Loads a plan from its TOML source through the schema rows
    /// ([`schema_table`]); `file` names the source in errors.
    ///
    /// # Errors
    ///
    /// A [`PlanError`] naming file, table and key for any syntax error,
    /// unknown table or key, mistyped or out-of-range value, or broken
    /// cross-key rule. Never panics on malformed input.
    pub fn from_toml(input: &str, file: &str) -> Result<Self, PlanError> {
        schema::bind(&crate::toml::parse(input, file)?, file)
    }

    /// Rebases the plan onto a different seed. A byte-hash lock pinned
    /// for the original seed cannot hold under another one, so it is
    /// cleared when the seed actually changes.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        if seed != self.seed {
            self.seed = seed;
            self.expectations.artifact_fnv1a = None;
        }
        self
    }

    /// The smallest host count any grid point runs with — workload host
    /// indices must stay below this.
    #[must_use]
    pub fn min_hosts(&self) -> usize {
        match &self.axis {
            Axis::Hosts(ns) => ns.iter().copied().min().unwrap_or(self.topology.hosts),
            _ => self.topology.hosts,
        }
    }
}

// ---------------------------------------------------------------------
// The corpus — the plans under version control
// ---------------------------------------------------------------------

macro_rules! corpus {
    ($($name:literal),* $(,)?) => {
        [$((
            concat!("plans/", $name, ".toml"),
            include_str!(concat!("../plans/", $name, ".toml")),
        )),*]
    };
}

/// The compiled-in plan corpus: `(display path, TOML source)`, so the
/// drivers need no filesystem access to run it and CI exercises exactly
/// the bytes under version control. A test keeps the table equal to the
/// `*.toml` files on disk.
pub const CORPUS: [(&str, &str); 15] = corpus![
    "chaos",
    "storm",
    "timeline",
    "chaos_burst",
    "storm_crossing",
    "blackout_long",
    "parked_control",
    "node_crash",
    "power_off",
    "scheme_ladder",
    "duplication",
    "softstate_pingpong",
    "flashcrowd",
    "metro",
    "vertical",
];

/// Parses the corpus plan displayed as `file` (e.g. `"plans/storm.toml"`).
///
/// # Panics
///
/// Panics if `file` is not a [`CORPUS`] entry or does not parse — both
/// are defects in the tree, not in any input.
#[must_use]
pub fn corpus_plan(file: &str) -> ScenarioPlan {
    let (_, toml) = CORPUS
        .iter()
        .find(|(f, _)| *f == file)
        .unwrap_or_else(|| panic!("{file} is not in the plan corpus"));
    ScenarioPlan::from_toml(toml, file).unwrap_or_else(|e| panic!("{e}"))
}

// ---------------------------------------------------------------------
// The grid engine
// ---------------------------------------------------------------------

/// One grid point, fully resolved: axis value, scheme and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GridPoint {
    loss: Option<f64>,
    hosts: usize,
    scheme: Scheme,
    seed: u64,
}

fn build_grid(plan: &ScenarioPlan) -> Vec<GridPoint> {
    let axis_points: Vec<(Option<f64>, usize)> = match &plan.axis {
        Axis::None => vec![(None, plan.topology.hosts)],
        Axis::Loss(ps) => ps.iter().map(|&p| (Some(p), plan.topology.hosts)).collect(),
        Axis::Hosts(ns) => ns.iter().map(|&n| (None, n)).collect(),
    };
    let mut grid = Vec::with_capacity(axis_points.len() * plan.schemes.len());
    for (axis_idx, &(loss, hosts)) in axis_points.iter().enumerate() {
        // Every scheme at the same axis point shares a seed, so the
        // schemes face an identical workload — the curves stay
        // comparable, exactly as in the hand-written sweeps.
        let seed = derive_seed(plan.seed, axis_idx as u64);
        for &scheme in &plan.schemes {
            grid.push(GridPoint {
                loss,
                hosts,
                scheme,
                seed,
            });
        }
    }
    grid
}

/// Everything one grid point measured, plus its audit for the
/// expectations engine.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Injected loss at this point (`Loss` axis only).
    pub loss: Option<f64>,
    /// Host count at this point.
    pub hosts: usize,
    /// Scheme this point ran.
    pub scheme: Scheme,
    /// Handovers that completed the predictive exchange.
    pub predictive: u64,
    /// Handovers that fell back to the reactive path.
    pub reactive: u64,
    /// Handover attempts still unresolved at the horizon.
    pub failed: u64,
    /// Mean LinkDown → MAP-binding-restored latency, in milliseconds.
    pub recovery_ms: f64,
    /// Per-class data drops (F1–F3), all reasons combined.
    pub class_drops: [u64; 3],
    /// Worst per-flow p99 end-to-end delay per class, in milliseconds.
    pub class_p99_ms: [f64; 3],
    /// Packets the fault layer discarded.
    pub fault_drops: u64,
    /// Control retransmissions spent.
    pub retransmissions: u64,
    /// Degradation-ladder steps taken.
    pub degradations: u64,
    /// Packets released by soft-state lifetime expiry.
    pub expired: u64,
    /// Packets reclaimed from dead or abandoned state.
    pub reclaimed: u64,
    /// Host routes the lifetime sweep expired unrefreshed.
    pub routes_expired: u64,
    /// Simulator events processed by this point.
    pub events: u64,
    /// The audit the expectations engine judges.
    pub audit: PointAudit,
    /// Metro-kernel extras (`report = "metro"` points only).
    pub metro: Option<crate::metro::MetroPoint>,
}

/// A finished plan run: the rendered artifact, the per-point metrics,
/// and the expectation report (empty means the plan passed).
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The rendered artifact (CSV or Chrome-trace JSON).
    pub artifact: String,
    /// Per-point metrics, in grid order.
    pub points: Vec<PointRun>,
    /// Total simulator events across all points.
    pub events: u64,
    /// Every expectation violation, in evaluation order.
    pub report: FailureReport,
}

impl PlanOutcome {
    /// Returns the outcome unchanged when every expectation held.
    ///
    /// # Panics
    ///
    /// Panics with the structured report when any expectation was
    /// violated — the legacy sweeps' panic-on-violation contract.
    #[must_use]
    pub fn expect_clean(self) -> Self {
        assert!(
            self.report.is_empty(),
            "scenario plan expectations violated:\n{}",
            self.report.to_json()
        );
        self
    }
}

fn run_point(plan: &ScenarioPlan, gp: &GridPoint) -> (PointRun, Option<Recording>) {
    let mut protocol = plan.protocol;
    protocol.scheme = gp.scheme;
    let mut ar_link_fault = plan.faults.ar_link;
    let mut wireless_fault = plan.faults.wireless;
    if let Some(p) = gp.loss {
        ar_link_fault.loss = p;
        wireless_fault.loss = p;
    }
    let cfg = HmipConfig {
        protocol,
        n_mhs: gp.hosts,
        buffer_capacity: plan.topology.buffer_capacity,
        ar_link_delay: plan.topology.ar_link_delay,
        l2_handoff_delay: plan.topology.l2_blackout,
        movement: plan.topology.movement,
        speed: plan.topology.speed,
        seed: gp.seed,
        ar_link_fault,
        wireless_fault,
        par_fault: plan.faults.par,
        nar_fault: plan.faults.nar,
        mh_fault: plan.faults.mh,
        storm_stagger: plan.topology.stagger,
        cellular: plan.topology.cellular,
        interfaces: plan.topology.interfaces,
        trigger: plan.topology.trigger,
        ..HmipConfig::default()
    };
    let mut scenario = HmipScenario::build(cfg);
    if plan.run.telemetry_ring > 0 {
        scenario.enable_telemetry(plan.run.telemetry_ring);
    }
    let mut flows: Vec<(usize, FlowId)> = Vec::new();
    for w in &plan.workloads {
        let hosts: Vec<usize> = match w.hosts {
            HostSelector::All => (0..gp.hosts).collect(),
            HostSelector::One(i) => vec![i],
        };
        for h in hosts {
            let class = match w.class {
                ClassPlan::Fixed(c) => c,
                ClassPlan::RoundRobin => ServiceClass::EFFECTIVE[h % 3],
            };
            let k = class.index();
            let flow = scenario.add_cbr_flow(h, class, w.packet_bytes, w.interval);
            flows.push((k, flow));
        }
    }
    scenario.set_traffic_window(plan.run.traffic_start, plan.run.traffic_stop);
    scenario.run_until(plan.run.horizon);

    // Flow metrics, read before finalize exactly as the legacy sweeps do.
    let mut class_drops = [0u64; 3];
    let mut class_p99_ms = [0f64; 3];
    for &(k, f) in &flows {
        class_drops[k] += scenario.flow_losses(f);
        let report =
            fh_traffic::FlowReport::from_sink(scenario.flow_sink(f), scenario.flow_sent(f));
        class_p99_ms[k] = class_p99_ms[k].max(report.p99_delay.as_millis_f64());
    }

    // Service-restoration latency: each LinkDown on host 0's record
    // paired with the next MAP BindingComplete.
    let recovery_ms = if gp.hosts > 0 {
        let gaps_ms: Vec<f64> = HandoverAttempt::recoveries(scenario.handovers(0))
            .into_iter()
            .map(|(down, done)| (done.as_secs_f64() - down.as_secs_f64()) * 1e3)
            .collect();
        if gaps_ms.is_empty() {
            0.0
        } else {
            gaps_ms.iter().sum::<f64>() / gaps_ms.len() as f64
        }
    } else {
        0.0
    };

    let failed = scenario.finalize();
    let leak = scenario.leak_report();
    let outcomes = scenario.outcomes();
    let recording = (plan.report == ReportKind::Timeline).then(|| scenario.take_recording());
    let (par, nar) = (scenario.par_agent().metrics, scenario.nar_agent().metrics);
    let hosts = || (0..scenario.mhs.len()).map(|i| scenario.mh_agent(i));
    let stats = &scenario.sim.shared.stats;
    let audit = PointAudit {
        conservation_violations: stats
            .conservation_violations()
            .into_iter()
            .map(|(flow, a)| format!("{flow:?}: {a:?}"))
            .collect(),
        leak_clean: leak.is_clean(),
        leak_detail: format!("{leak:?}"),
        recorder_overwritten: stats.trace.overwritten(),
        telemetry_enabled: plan.run.telemetry_ring > 0,
        predictive: outcomes[0].1,
        reactive: outcomes[1].1,
        failed,
        class_drops,
        class_p99_ms,
        peak_bytes_parked: scenario.peak_bytes_parked(),
        wedged_sessions: scenario.wedged_sessions(),
        shed_order_violations: par.shed_order_violations + nar.shed_order_violations,
    };
    let point = PointRun {
        loss: gp.loss,
        hosts: gp.hosts,
        scheme: gp.scheme,
        predictive: outcomes[0].1,
        reactive: outcomes[1].1,
        failed,
        recovery_ms,
        class_drops,
        class_p99_ms,
        fault_drops: stats.drops(DropReason::FaultInjected),
        retransmissions: hosts().map(|a| a.retransmissions).sum::<u64>()
            + par.retransmissions
            + nar.retransmissions,
        degradations: hosts().map(|a| a.degradations).sum::<u64>()
            + par.hi_exhausted
            + nar.hi_exhausted,
        expired: stats.drops(DropReason::Expired),
        reclaimed: stats.drops(DropReason::Reclaimed),
        routes_expired: par.routes_expired + nar.routes_expired,
        events: scenario.sim.events_processed(),
        audit,
        metro: None,
    };
    (point, recording)
}

/// Runs a plan's whole grid across `threads` workers and evaluates its
/// expectations. Deterministic: the artifact and the report are
/// byte-identical at any thread count.
#[must_use]
pub fn run_plan(plan: &ScenarioPlan, threads: usize) -> PlanOutcome {
    let grid = build_grid(plan);
    let runs: Vec<(PointRun, Option<Recording>)> = if plan.report == ReportKind::Metro {
        // Metro points parallelize *inside* the run (one worker per
        // domain shard), so the grid itself stays sequential — nesting
        // parallel_map around the epoch executor would oversubscribe.
        grid.iter()
            .map(|gp| {
                (
                    crate::metro::run_metro_point(plan, gp.hosts, gp.scheme, gp.seed, threads),
                    None,
                )
            })
            .collect()
    } else {
        parallel_map(threads, &grid, |_, gp| run_point(plan, gp))
    };
    let mut report = FailureReport::new(plan.name.clone());
    // Thread count is deliberately NOT part of the context: the same
    // violations must render the same bytes at any worker count.
    report.context("seed", plan.seed.to_string());
    let mut points = Vec::with_capacity(runs.len());
    let mut recordings = Vec::new();
    let mut events = 0u64;
    for (i, (point, recording)) in runs.into_iter().enumerate() {
        let subject = match point.loss {
            Some(p) => format!("point[{i}] loss={p} scheme={}", point.scheme.label()),
            None => format!(
                "point[{i}] hosts={} scheme={}",
                point.hosts,
                point.scheme.label()
            ),
        };
        report
            .entries
            .extend(plan.expectations.check_point(&subject, &point.audit));
        events += point.events;
        if let Some(r) = recording {
            recordings.push((i as u64, r));
        }
        points.push(point);
    }
    let artifact = render_artifact(plan, &points, recordings);
    if let Some(entry) = plan.expectations.check_artifact(&artifact) {
        report.entries.push(entry);
    }
    PlanOutcome {
        artifact,
        points,
        events,
        report,
    }
}

// ---------------------------------------------------------------------
// Artifact renderers
// ---------------------------------------------------------------------

fn render_artifact(
    plan: &ScenarioPlan,
    points: &[PointRun],
    recordings: Vec<(u64, Recording)>,
) -> String {
    match plan.report {
        ReportKind::Chaos => render_chaos(points),
        ReportKind::Storm => render_storm(points),
        ReportKind::Timeline => {
            // One buffer, points in grid order (`pid` = grid index), so
            // the JSON is byte-identical at any thread count. Each
            // recording is freed as soon as it is rendered.
            let mut trace = ChromeTrace::new();
            for (pid, recording) in recordings {
                recording.chrome_trace_into(&mut trace, pid);
            }
            trace.finish()
        }
        ReportKind::Points => render_points(plan, points),
        ReportKind::Metro => crate::metro::render_metro(points),
    }
}

fn render_chaos(points: &[PointRun]) -> String {
    let mut table = CsvTable::new(&[
        "loss",
        "predictive",
        "reactive",
        "failed",
        "recovery_ms",
        "f1_drops",
        "f2_drops",
        "f3_drops",
        "fault_drops",
        "retransmissions",
        "degradations",
    ]);
    for p in points {
        table.row(&[
            p.loss.unwrap_or(0.0).into(),
            p.predictive.into(),
            p.reactive.into(),
            p.failed.into(),
            Cell::Fixed(p.recovery_ms, 3),
            p.class_drops[0].into(),
            p.class_drops[1].into(),
            p.class_drops[2].into(),
            p.fault_drops.into(),
            p.retransmissions.into(),
            p.degradations.into(),
        ]);
    }
    table.finish()
}

fn render_storm(points: &[PointRun]) -> String {
    let mut table = CsvTable::new(&[
        "mhs",
        "scheme",
        "f1_drops",
        "f2_drops",
        "f3_drops",
        "f1_p99_ms",
        "f2_p99_ms",
        "f3_p99_ms",
        "expired",
        "reclaimed",
        "failed",
        "routes_expired",
    ]);
    for p in points {
        let scheme = p.scheme.label().to_lowercase();
        table.row(&[
            p.hosts.into(),
            scheme.as_str().into(),
            p.class_drops[0].into(),
            p.class_drops[1].into(),
            p.class_drops[2].into(),
            Cell::Fixed(p.class_p99_ms[0], 3),
            Cell::Fixed(p.class_p99_ms[1], 3),
            Cell::Fixed(p.class_p99_ms[2], 3),
            p.expired.into(),
            p.reclaimed.into(),
            p.failed.into(),
            p.routes_expired.into(),
        ]);
    }
    table.finish()
}

fn render_points(plan: &ScenarioPlan, points: &[PointRun]) -> String {
    let mut table = CsvTable::new(&[
        "x",
        "scheme",
        "predictive",
        "reactive",
        "failed",
        "recovery_ms",
        "f1_drops",
        "f2_drops",
        "f3_drops",
        "f1_p99_ms",
        "f2_p99_ms",
        "f3_p99_ms",
        "fault_drops",
        "retransmissions",
        "degradations",
        "expired",
        "reclaimed",
        "routes_expired",
    ]);
    for p in points {
        let x: Cell<'_> = match plan.axis {
            Axis::Loss(_) => p.loss.unwrap_or(0.0).into(),
            _ => p.hosts.into(),
        };
        let scheme = p.scheme.label().to_lowercase();
        table.row(&[
            x,
            scheme.as_str().into(),
            p.predictive.into(),
            p.reactive.into(),
            p.failed.into(),
            Cell::Fixed(p.recovery_ms, 3),
            p.class_drops[0].into(),
            p.class_drops[1].into(),
            p.class_drops[2].into(),
            Cell::Fixed(p.class_p99_ms[0], 3),
            Cell::Fixed(p.class_p99_ms[1], 3),
            Cell::Fixed(p.class_p99_ms[2], 3),
            p.fault_drops.into(),
            p.retransmissions.into(),
            p.degradations.into(),
            p.expired.into(),
            p.reclaimed.into(),
            p.routes_expired.into(),
        ]);
    }
    table.finish()
}

// ---------------------------------------------------------------------
// The seeded plan fuzzer
// ---------------------------------------------------------------------

/// Derives the `index`-th random-but-valid plan from `base_seed`.
///
/// Fuzzed plans explore the full configuration surface — every movement
/// pattern and scheme, storms, faults (loss, bursts, duplication,
/// jitter, router crash/restart, host power loss), telemetry on and off,
/// overload pressure (finite byte budgets, shed watermarks, the handover
/// watchdog) — while always demanding the universal battery: packet
/// conservation and an intact flight recorder. Leak-freedom is additionally demanded
/// when the plan is fault-free and actually quiesces (no ping-pong
/// host, no crash).
#[must_use]
pub fn fuzz_plan(base_seed: u64, index: u64) -> ScenarioPlan {
    let mut rng = Rng64::seed_from(derive_seed(base_seed, index));
    let hosts = 1 + rng.gen_range_u64(6) as usize;
    let movement = [
        MovementPlan::OneWay,
        MovementPlan::PingPong,
        MovementPlan::Parked,
        MovementPlan::Crossing,
    ][rng.gen_range_u64(4) as usize];

    let mut schemes = vec![Scheme::ALL[rng.gen_range_u64(6) as usize]];
    if rng.gen_bool(0.4) {
        let second = Scheme::ALL[rng.gen_range_u64(6) as usize];
        if !schemes.contains(&second) {
            schemes.push(second);
        }
    }

    let axis = if rng.gen_bool(0.3) {
        let a = 1 + rng.gen_range_u64(4) as usize;
        let b = a + 1 + rng.gen_range_u64(4) as usize;
        Axis::Hosts(vec![a, b])
    } else {
        Axis::None
    };

    let mut protocol = ProtocolConfig::with_scheme(schemes[0]);
    protocol.buffer_request = 4 + rng.gen_range_u64(37) as u32;
    protocol.threshold_a = rng.gen_range_u64(16) as u32;
    if rng.gen_bool(0.5) {
        protocol.rtx = RetransmitConfig::hardened();
    }
    // Soft state always armed: fuzzing hunts for lifetimes reclaiming
    // state the protocol still needs.
    protocol.host_route_lifetime = SimDuration::from_secs(2);
    protocol.dead_peer_timeout = SimDuration::from_secs(3);

    let topology = TopologySpec {
        hosts,
        buffer_capacity: 8 + rng.gen_range_u64(57) as usize,
        movement,
        l2_blackout: SimDuration::from_millis(60 + rng.gen_range_u64(341)),
        speed: 5.0 + rng.next_f64() * 15.0,
        stagger: if movement == MovementPlan::OneWay && rng.gen_bool(0.5) {
            SimDuration::from_millis(100 + rng.gen_range_u64(401))
        } else {
            SimDuration::ZERO
        },
        ..TopologySpec::default()
    };

    let mut faults = FaultPlan::default();
    if rng.gen_bool(0.4) {
        faults.wireless.loss = rng.next_f64() * 0.15;
    }
    if rng.gen_bool(0.3) {
        faults.ar_link.loss = rng.next_f64() * 0.15;
    }
    if rng.gen_bool(0.2) {
        faults.wireless.duplicate = rng.next_f64() * 0.1;
    }
    if rng.gen_bool(0.2) {
        faults.wireless.jitter = SimDuration::from_micros(rng.gen_range_u64(2001));
    }
    if rng.gen_bool(0.15) {
        faults.par = NodeFaultSpec::crash_restart(
            SimTime::from_millis(3000 + rng.gen_range_u64(3001)),
            SimDuration::from_millis(500 + rng.gen_range_u64(1001)),
        );
    }
    if rng.gen_bool(0.1) {
        faults.mh = NodeFaultSpec::power_off(SimTime::from_millis(3000 + rng.gen_range_u64(3001)));
    }

    let min_hosts = match &axis {
        Axis::Hosts(ns) => ns.iter().copied().min().unwrap_or(hosts),
        _ => hosts,
    };
    let n_workloads = 1 + rng.gen_range_u64(3);
    let mut workloads = Vec::with_capacity(n_workloads as usize);
    for _ in 0..n_workloads {
        let selector = if rng.gen_bool(0.5) {
            HostSelector::All
        } else {
            HostSelector::One(rng.gen_range_u64(min_hosts as u64) as usize)
        };
        let class = if rng.gen_bool(0.3) {
            ClassPlan::RoundRobin
        } else {
            ClassPlan::Fixed(ServiceClass::ALL[rng.gen_range_u64(4) as usize])
        };
        workloads.push(WorkloadSpec {
            hosts: selector,
            class,
            packet_bytes: 160,
            interval: SimDuration::from_millis(10 + rng.gen_range_u64(31)),
        });
    }

    let stop_ms = 4000 + rng.gen_range_u64(6001);
    let run = RunSpec {
        traffic_start: SimTime::from_millis(500),
        traffic_stop: SimTime::from_millis(stop_ms),
        horizon: SimTime::from_millis(stop_ms + 10_000),
        telemetry_ring: if rng.gen_bool(0.25) {
            DEFAULT_TIMELINE_RING
        } else {
            0
        },
    };

    // Overload pressure, drawn after every legacy knob so earlier fuzz
    // indices keep their exact historical shapes. A finite byte budget
    // exercises byte-accounted admission and the shed ladder; a finite
    // watchdog deadline exercises forced resolution of wedged sessions.
    if rng.gen_bool(0.3) {
        protocol.pressure.byte_budget = 2_000 + rng.gen_range_u64(30_001) as usize;
        protocol.pressure.high_watermark_pct = (75 + rng.gen_range_u64(21)) as u8;
        protocol.pressure.low_watermark_pct = (40 + rng.gen_range_u64(31)) as u8;
    }
    if rng.gen_bool(0.25) {
        // Well inside the 10 s post-traffic quiesce window, so a fired
        // watchdog's state is always reclaimed before the audit.
        protocol.pressure.watchdog_deadline =
            SimDuration::from_millis(1_500 + rng.gen_range_u64(3_001));
    }

    // Leak-freedom needs a run that actually quiesces: no host still
    // shuttling at the horizon and no fault tearing state down under
    // the audit.
    let quiesces = movement != MovementPlan::PingPong && faults.is_noop();
    ScenarioPlan {
        name: format!("fuzz-{index:04}"),
        seed: derive_seed(base_seed, index),
        report: ReportKind::Points,
        topology,
        protocol,
        schemes,
        axis,
        workloads,
        faults,
        run,
        expectations: Expectations {
            no_leaks: quiesces,
            ..Expectations::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fh_net::GilbertElliott;
    use fh_telemetry::report::fnv1a64;

    const MINIMAL: &str = r#"
[plan]
name = "minimal"
seed = 7

[topology]
hosts = 1
movement = "parked"

[[workload]]
host = 0
class = "high-priority"
interval_ms = 20

[run]
traffic_start_ms = 500
traffic_stop_ms = 1500
horizon_ms = 3000
"#;

    #[test]
    fn minimal_plan_parses_runs_and_passes() {
        let plan = ScenarioPlan::from_toml(MINIMAL, "minimal.toml").expect("parses");
        assert_eq!(plan.name, "minimal");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.report, ReportKind::Points);
        assert_eq!(plan.topology.movement, MovementPlan::Parked);
        let outcome = run_plan(&plan, 1);
        assert!(outcome.report.is_empty(), "{}", outcome.report.to_json());
        assert!(outcome.artifact.starts_with("x,scheme,"));
        assert_eq!(outcome.points.len(), 1);
    }

    #[test]
    fn plans_are_thread_count_invariant() {
        let mut plan = ScenarioPlan::from_toml(MINIMAL, "minimal.toml").expect("parses");
        plan.axis = Axis::Hosts(vec![1, 2, 3]);
        let seq = run_plan(&plan, 1);
        let par = run_plan(&plan, 4);
        assert_eq!(seq.artifact, par.artifact);
        assert_eq!(seq.report.to_json(), par.report.to_json());
        assert_eq!(seq.events, par.events);
    }

    #[test]
    fn violated_bound_produces_a_structured_report() {
        let mut plan = ScenarioPlan::from_toml(MINIMAL, "minimal.toml").expect("parses");
        // A parked host never hands over, so demanding at least 95%
        // predictive completions cannot hold… but with zero attempts the
        // ratio check is skipped; bound the p99 instead, impossibly low.
        plan.expectations.class_p99_max_ms = Some([0.0; 3]);
        let outcome = run_plan(&plan, 1);
        assert!(!outcome.report.is_empty());
        let json = outcome.report.to_json();
        assert!(json.contains("class_p99_max_ms"), "{json}");
        assert!(json.contains("high-priority"), "{json}");
    }

    #[test]
    fn artifact_lock_round_trips_and_with_seed_clears_it() {
        let plan = ScenarioPlan::from_toml(MINIMAL, "minimal.toml").expect("parses");
        let artifact = run_plan(&plan, 1).artifact;
        let mut locked = plan.clone();
        locked.expectations.artifact_fnv1a = Some(fnv1a64(artifact.as_bytes()));
        assert!(run_plan(&locked, 1).report.is_empty());
        // A wrong lock is a violation…
        locked.expectations.artifact_fnv1a = Some(1);
        let outcome = run_plan(&locked, 1);
        assert_eq!(outcome.report.entries.len(), 1);
        assert_eq!(outcome.report.entries[0].check, "artifact_fnv1a");
        // …and rebasing the seed clears the stale lock.
        locked.expectations.artifact_fnv1a = Some(1);
        let rebased = locked.clone().with_seed(99);
        assert_eq!(rebased.expectations.artifact_fnv1a, None);
        // Same seed keeps the lock.
        let kept = locked.clone().with_seed(locked.seed);
        assert_eq!(kept.expectations.artifact_fnv1a, Some(1));
    }

    #[test]
    fn grid_shares_seeds_across_schemes_at_one_axis_point() {
        let mut plan = corpus_plan("plans/storm.toml");
        plan.axis = Axis::Hosts(vec![4, 8]);
        let grid = build_grid(&plan);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].seed, grid[1].seed, "schemes share the point seed");
        assert_ne!(grid[0].seed, grid[2].seed, "axis points differ");
        assert_eq!(grid[0].scheme, Scheme::NarOnly);
        assert_eq!(grid[1].scheme, Scheme::Dual { classify: true });
        assert_eq!(grid[2].hosts, 8);
    }

    /// A plan file that never made it into [`CORPUS`] would silently
    /// never run.
    #[test]
    fn corpus_table_equals_the_plan_files_on_disk() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/plans");
        let mut on_disk: Vec<String> = std::fs::read_dir(dir)
            .expect("plans/ exists")
            .map(|e| e.expect("readable entry").file_name())
            .map(|f| format!("plans/{}", f.to_string_lossy()))
            .collect();
        on_disk.sort();
        let mut in_table: Vec<&str> = CORPUS.iter().map(|&(file, _)| file).collect();
        in_table.sort_unstable();
        assert_eq!(on_disk, in_table);
    }

    /// The sweep adapters run their corpus plan: at the plan's own axis
    /// and seed they reproduce the run whose artifact lock holds (so whose
    /// bytes are the goldens), column for column.
    #[test]
    fn sweep_adapters_reproduce_their_locked_corpus_plans() {
        use crate::experiments::{self, CHAOS_LOSS_PROBS, STORM_SIZES, TIMELINE_SIZES};

        let locked = run_plan(&corpus_plan("plans/chaos.toml"), 1).expect_clean();
        let sweep = experiments::chaos_sweep(&CHAOS_LOSS_PROBS, 2003, 1);
        assert_eq!(sweep.events, locked.events);
        assert_eq!(sweep.points.len(), locked.points.len());
        for (s, p) in sweep.points.iter().zip(&locked.points) {
            assert_eq!(Some(s.loss), p.loss);
            assert_eq!(
                (s.predictive, s.reactive, s.failed, s.recovery_ms),
                (p.predictive, p.reactive, p.failed, p.recovery_ms)
            );
            assert_eq!(
                (s.class_drops, s.fault_drops, s.retransmissions),
                (p.class_drops, p.fault_drops, p.retransmissions)
            );
            assert_eq!((s.degradations, s.events), (p.degradations, p.events));
        }

        let locked = run_plan(&corpus_plan("plans/storm.toml"), 1).expect_clean();
        let sweep = experiments::storm_sweep(&STORM_SIZES, 2003, 1);
        assert_eq!(sweep.events, locked.events);
        assert_eq!(2 * sweep.points.len(), locked.points.len());
        for (point, pair) in sweep.points.iter().zip(locked.points.chunks(2)) {
            for (s, p) in [(&point.fmipv6, &pair[0]), (&point.enhanced, &pair[1])] {
                assert_eq!((point.n_mhs, s.label.as_str()), (p.hosts, p.scheme.label()));
                assert_eq!(
                    (s.class_drops, s.class_p99_ms, s.expired, s.reclaimed),
                    (p.class_drops, p.class_p99_ms, p.expired, p.reclaimed)
                );
                assert_eq!(
                    (s.failed, s.routes_expired, s.events),
                    (p.failed, p.routes_expired, p.events)
                );
            }
        }

        let timeline = experiments::storm_timeline(&TIMELINE_SIZES, 2003, 1);
        assert_eq!(
            Some(fnv1a64(timeline.chrome_json.as_bytes())),
            corpus_plan("plans/timeline.toml")
                .expectations
                .artifact_fnv1a
        );
    }

    /// A caller-chosen axis renders other bytes than the file's lock
    /// pins — at the file's own seed too, where `with_seed` keeps the
    /// lock — so the adapters must clear it rather than panic.
    #[test]
    fn sweep_adapters_clear_the_artifact_lock() {
        use crate::experiments::{storm_timeline, STORM_SIZES};
        let _ = storm_timeline(&STORM_SIZES, 7, 1);
        let _ = storm_timeline(&[4], 2003, 1);
    }

    #[test]
    fn missing_plan_name_is_a_pointed_error() {
        let err = ScenarioPlan::from_toml("[plan]\nseed = 1\n", "p.toml").unwrap_err();
        assert_eq!(
            err.to_string(),
            "p.toml: [plan].name: required key is missing"
        );
    }

    #[test]
    fn unknown_table_and_key_are_pointed_errors() {
        let err =
            ScenarioPlan::from_toml("[plan]\nname = \"x\"\n[wat]\nk = 1\n", "p.toml").unwrap_err();
        assert!(err.message.contains("unknown table `[wat]`"), "{err}");

        let err = ScenarioPlan::from_toml("[plan]\nname = \"x\"\nwat = 1\n", "p.toml").unwrap_err();
        assert_eq!(err.location, "[plan].wat");
        assert!(err.message.contains("unknown key"), "{err}");
    }

    #[test]
    fn type_mismatches_name_the_field() {
        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[topology]\nhosts = \"many\"\n",
            "p.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[topology].hosts");
        assert!(
            err.message.contains("expected an integer, got string"),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_loss_is_rejected() {
        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[faults]\nwireless_loss = 1.5\n",
            "p.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[faults].wireless_loss");
        assert!(err.message.contains("probability"), "{err}");
    }

    #[test]
    fn bad_scheme_and_class_names_are_pointed_errors() {
        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[protocol]\nscheme = \"TRIPLE\"\n",
            "p.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[protocol].scheme");
        assert!(err.message.contains("DUAL+class"), "{err}");

        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[[workload]]\nclass = \"bulk\"\ninterval_ms = 20\n",
            "p.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[workload].class");
        assert!(err.message.contains("best-effort"), "{err}");
    }

    #[test]
    fn singular_workload_table_is_redirected_to_the_array_form() {
        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[workload]\ninterval_ms = 20\n",
            "p.toml",
        )
        .unwrap_err();
        assert!(err.message.contains("[[workload]]"), "{err}");
    }

    #[test]
    fn empty_traffic_window_and_short_horizon_are_rejected() {
        let base = "[plan]\nname = \"x\"\n[run]\n";
        let err = ScenarioPlan::from_toml(
            &format!("{base}traffic_start_ms = 500\ntraffic_stop_ms = 500\n"),
            "p.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[run].traffic_stop_ms");

        let err = ScenarioPlan::from_toml(
            &format!("{base}traffic_stop_ms = 5000\nhorizon_ms = 4000\n"),
            "p.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[run].horizon_ms");
    }

    #[test]
    fn workload_host_must_exist_at_the_smallest_grid_point() {
        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[topology]\nhosts = 4\n[matrix]\naxis = \"hosts\"\n\
             values = [2, 8]\n[[workload]]\nhost = 3\ninterval_ms = 20\n",
            "p.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[workload].host");
        assert!(err.message.contains("2 host(s)"), "{err}");
    }

    #[test]
    fn pressure_table_parses_and_validates() {
        let plan = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[pressure]\nbyte_budget = 8000\nhigh_watermark_pct = 85\n\
             low_watermark_pct = 60\nwatchdog_deadline_ms = 1500\n",
            "p.toml",
        )
        .expect("parses");
        assert_eq!(plan.protocol.pressure.byte_budget, 8000);
        assert!(plan.protocol.pressure.engaged());
        assert_eq!(
            plan.protocol.pressure.watchdog_deadline,
            SimDuration::from_millis(1500)
        );
        // An explicit zero deadline means "watchdog off", like the default.
        let plan = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[pressure]\nwatchdog_deadline_ms = 0\n",
            "p.toml",
        )
        .expect("parses");
        assert_eq!(plan.protocol.pressure.watchdog_deadline, SimDuration::MAX);

        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[pressure]\nhigh_watermark_pct = 50\n\
             low_watermark_pct = 70\n",
            "p.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[pressure].low_watermark_pct");
        assert!(err.message.contains("above high watermark"), "{err}");

        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[pressure]\nhigh_watermark_pct = 120\n",
            "p.toml",
        )
        .unwrap_err();
        assert!(err.message.contains("[1, 100]"), "{err}");
    }

    #[test]
    fn restart_without_crash_is_rejected() {
        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[faults.par]\nrestart_after_ms = 1000\n",
            "p.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[faults.par].restart_after_ms");
    }

    #[test]
    fn interval_and_kbps_are_mutually_exclusive_and_one_is_required() {
        let err = ScenarioPlan::from_toml(
            "[plan]\nname = \"x\"\n[[workload]]\ninterval_ms = 20\nkbps = 64\n",
            "p.toml",
        )
        .unwrap_err();
        assert!(err.message.contains("not both"), "{err}");

        let err =
            ScenarioPlan::from_toml("[plan]\nname = \"x\"\n[[workload]]\nhost = 0\n", "p.toml")
                .unwrap_err();
        assert!(err.message.contains("`interval_ms` or `kbps`"), "{err}");
    }

    #[test]
    fn kbps_matches_the_rate_sweep_arithmetic() {
        let plan =
            ScenarioPlan::from_toml("[plan]\nname = \"x\"\n[[workload]]\nkbps = 64\n", "p.toml")
                .expect("parses");
        // 160 B at 64 kb/s = 160*8/64000 s = 20 ms, the thesis audio flow.
        assert_eq!(plan.workloads[0].interval, SimDuration::from_millis(20));
    }

    /// 160 B at 1e-12 kb/s is one packet per 1.28e12 s, past the 64-bit
    /// nanosecond clock: an error at the key, where the parse used to
    /// panic in `SimDuration::from_secs_f64`.
    #[test]
    fn kbps_whose_interval_overflows_is_a_pointed_error() {
        let toml = "[plan]\nname = \"x\"\n[[workload]]\nkbps = 1e-12\n";
        let err = ScenarioPlan::from_toml(toml, "p.toml").unwrap_err();
        assert_eq!(err.location, "[workload].kbps");
    }

    /// 160 B at 1e12 kb/s rounds to a zero interval, which used to parse
    /// and then panic in `CbrSource::new`.
    #[test]
    fn kbps_whose_interval_rounds_to_zero_is_a_pointed_error() {
        let toml = "[plan]\nname = \"x\"\n[[workload]]\nkbps = 1e12\n";
        let err = ScenarioPlan::from_toml(toml, "p.toml").unwrap_err();
        assert_eq!(err.location, "[workload].kbps");
    }

    /// On a metro plan the same zero interval used to hang the generator
    /// chain forever; it must never get past the parse.
    #[test]
    fn metro_kbps_whose_interval_rounds_to_zero_is_rejected_at_parse_time() {
        let toml = METRO.replace("interval_ms = 40", "kbps = 1e12");
        let err = ScenarioPlan::from_toml(&toml, "metro.toml").unwrap_err();
        assert_eq!(err.location, "[workload].kbps");
    }

    #[test]
    fn fuzz_plans_are_deterministic_and_structurally_valid() {
        for i in 0..50 {
            let a = fuzz_plan(7, i);
            let b = fuzz_plan(7, i);
            assert_eq!(a, b, "fuzz plan {i} must be reproducible");
            assert!(!a.schemes.is_empty());
            assert!(a.min_hosts() >= 1);
            assert!(a.run.traffic_start < a.run.traffic_stop);
            assert!(a.run.traffic_stop <= a.run.horizon);
            for w in &a.workloads {
                if let HostSelector::One(h) = w.hosts {
                    assert!(h < a.min_hosts(), "plan {i} workload host out of range");
                }
                assert!(w.interval > SimDuration::ZERO);
            }
            assert!(a.faults.ar_link.validated().is_ok());
            assert!(a.faults.wireless.validated().is_ok());
            assert!(
                a.protocol.pressure.low_watermark_pct <= a.protocol.pressure.high_watermark_pct,
                "plan {i} drew an inverted watermark pair"
            );
            if a.expectations.no_leaks {
                assert!(a.faults.is_noop());
                assert_ne!(a.topology.movement, MovementPlan::PingPong);
            }
        }
        assert_ne!(
            fuzz_plan(7, 0),
            fuzz_plan(7, 1),
            "indices explore the space"
        );
        assert_ne!(fuzz_plan(7, 0), fuzz_plan(8, 0), "seeds explore the space");
    }

    const METRO: &str = r#"
[plan]
name = "metro-test"
seed = 11
report = "metro"

[topology]
hosts = 90
l2_blackout_ms = 120

[topology.domains]
count = 3
boundary_latency_ms = 8
remote_fraction = 0.2
mean_residence_ms = 1500

[protocol]
scheme = "DUAL+class"
buffer_request = 16
flush_spacing_us = 200

[[workload]]
host = "all"
class = "round-robin"
packet_bytes = 160
interval_ms = 40

[run]
traffic_start_ms = 200
traffic_stop_ms = 1500
horizon_ms = 2500
"#;

    #[test]
    fn metro_plan_parses_with_its_domain_table() {
        let plan = ScenarioPlan::from_toml(METRO, "metro.toml").expect("parses");
        assert_eq!(plan.report, ReportKind::Metro);
        let d = plan.topology.domains;
        assert_eq!(d.count, 3);
        assert_eq!(d.boundary_latency, SimDuration::from_millis(8));
        assert!((d.remote_fraction - 0.2).abs() < 1e-12);
        assert_eq!(d.mean_residence, SimDuration::from_millis(1500));
    }

    #[test]
    fn metro_plans_are_thread_count_invariant_end_to_end() {
        let plan = ScenarioPlan::from_toml(METRO, "metro.toml").expect("parses");
        let seq = run_plan(&plan, 1);
        let par = run_plan(&plan, 4);
        assert!(seq.report.is_empty(), "{}", seq.report.to_json());
        assert_eq!(seq.artifact, par.artifact);
        assert_eq!(seq.events, par.events);
        assert!(seq.artifact.starts_with("hosts,scheme,domains,"));
        let m = seq.points[0].metro.expect("metro extras present");
        assert_eq!(m.domains, 3);
        assert!(m.boundary_packets > 0, "remote hosts must cross boundaries");
    }

    #[test]
    fn zero_lookahead_with_domains_is_a_pointed_error() {
        let toml = METRO.replace("boundary_latency_ms = 8", "boundary_latency_ms = 0");
        let err = ScenarioPlan::from_toml(&toml, "metro.toml").unwrap_err();
        assert_eq!(err.location, "[topology.domains].boundary_latency_ms");
        assert_eq!(err.message, "lookahead must be > 0 when domains > 1");
    }

    #[test]
    fn multi_domain_without_metro_report_is_rejected() {
        let toml = METRO.replace("report = \"metro\"", "report = \"points\"");
        let err = ScenarioPlan::from_toml(&toml, "metro.toml").unwrap_err();
        assert_eq!(err.location, "[topology.domains].count");
        assert!(err.message.contains("set report = \"metro\""), "{err}");
    }

    #[test]
    fn metro_surface_restrictions_are_pointed_errors() {
        let err = ScenarioPlan::from_toml(
            &format!("{METRO}\n[faults]\nar_link_loss = 0.1\n"),
            "metro.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[faults]");
        assert!(err.message.contains("fault injection"), "{err}");

        let toml = METRO.replace("host = \"all\"", "host = 0");
        let err = ScenarioPlan::from_toml(&toml, "metro.toml").unwrap_err();
        assert_eq!(err.location, "[workload].host");
        assert!(err.message.contains("host = \"all\""), "{err}");

        let toml = METRO.replace("class = \"round-robin\"", "class = \"real-time\"");
        let err = ScenarioPlan::from_toml(&toml, "metro.toml").unwrap_err();
        assert_eq!(err.location, "[workload].class");

        let err = ScenarioPlan::from_toml(&format!("{METRO}telemetry_ring = 64\n"), "metro.toml")
            .unwrap_err();
        assert_eq!(err.location, "[run].telemetry_ring");

        let err = ScenarioPlan::from_toml(
            &format!("{METRO}\n[matrix]\naxis = \"loss\"\nvalues = [0.0, 0.1]\n"),
            "metro.toml",
        )
        .unwrap_err();
        assert_eq!(err.location, "[matrix].axis");
    }

    /// Every key of a fabric-kernel plan, each set off its default.
    const EVERY_POINTS_KEY: &str = r#"
[plan]
name = "every-key"
seed = 99
report = "points"

[topology]
hosts = 5
buffer_capacity = 33
movement = "crossing"
ar_link_delay_ms = 7.5
l2_blackout_ms = 150
speed_mps = 12.5
stagger_ms = 250
interfaces = 2
trigger = "mih"

[topology.domains]
count = 1
boundary_latency_ms = 6
remote_fraction = 0.35
mean_residence_ms = 2500

[topology.cellular]
bandwidth_bps = 3000000
delay_ms = 30
radius_m = 900.5

[protocol]
scheme = "PAR"
buffer_request = 12
threshold_a = 3
flush_spacing_us = 150
retransmit = "hardened"
host_route_lifetime_ms = 2000
dead_peer_timeout_ms = 3000

[pressure]
byte_budget = 8000
high_watermark_pct = 85
low_watermark_pct = 60
watchdog_deadline_ms = 1500

[matrix]
axis = "loss"
values = [0.0, 0.05, 0.1]
schemes = ["NAR", "dual", "SAFETY"]

[faults]
ar_link_loss = 0.01
ar_link_jitter_us = 300
wireless_loss = 0.02
wireless_jitter_us = 400.5
wireless_duplicate = 0.03
wireless_burst = [0.1, 0.5, 0.0, 0.9]

[faults.par]
crash_at_ms = 4000
restart_after_ms = 800

[faults.nar]
crash_at_ms = 5000
restart_after_ms = 900

[faults.mh]
power_off_at_ms = 6000

[[workload]]
host = 1
class = "real-time"
packet_bytes = 200
interval_ms = 25

[[workload]]
host = "all"
class = "round-robin"
kbps = 64

[run]
traffic_start_ms = 400
traffic_stop_ms = 9000
horizon_ms = 15000
telemetry_ring = 4096

[expectations]
conservation = false
no_leaks = true
recorder_clean = false
max_failed_ratio = 0.25
class_drop_max = [5, 0, 40]
class_p99_max_ms = [50.0, 150, 300.5]
max_bytes_parked = 8000
zero_wedged_sessions = true
shed_order_respected = true
artifact_fnv1a = "0x00ff00ff00ff00ff"
"#;

    #[test]
    fn every_points_key_binds_to_its_field() {
        let p = ScenarioPlan::from_toml(EVERY_POINTS_KEY, "every.toml").expect("parses");
        let ms = SimDuration::from_millis;
        let us = SimDuration::from_micros;
        assert_eq!(p.name, "every-key");
        assert_eq!(p.seed, 99);
        assert_eq!(p.report, ReportKind::Points);

        let t = &p.topology;
        assert_eq!(t.hosts, 5);
        assert_eq!(t.buffer_capacity, 33);
        assert_eq!(t.movement, MovementPlan::Crossing);
        assert_eq!(t.ar_link_delay, us(7_500));
        assert_eq!(t.l2_blackout, ms(150));
        assert_eq!(t.speed, 12.5);
        assert_eq!(t.stagger, ms(250));
        assert_eq!(t.interfaces, 2);
        assert_eq!(t.trigger, TriggerMode::Mih);
        assert_eq!(t.domains.count, 1);
        assert_eq!(t.domains.boundary_latency, ms(6));
        assert_eq!(t.domains.remote_fraction, 0.35);
        assert_eq!(t.domains.mean_residence, ms(2_500));
        let cell = t.cellular.expect("the table's presence arms the overlay");
        assert_eq!(cell.spec.bandwidth_bps, 3_000_000);
        assert_eq!(cell.spec.delay, ms(30));
        assert_eq!(cell.radius, 900.5);

        let pr = &p.protocol;
        assert_eq!(pr.scheme, Scheme::ParOnly);
        assert_eq!(pr.buffer_request, 12);
        assert_eq!(pr.threshold_a, 3);
        assert_eq!(pr.flush_spacing, us(150));
        assert_eq!(pr.rtx, RetransmitConfig::hardened());
        assert_eq!(pr.host_route_lifetime, ms(2_000));
        assert_eq!(pr.dead_peer_timeout, ms(3_000));
        assert_eq!(pr.pressure.byte_budget, 8_000);
        assert_eq!(pr.pressure.high_watermark_pct, 85);
        assert_eq!(pr.pressure.low_watermark_pct, 60);
        assert_eq!(pr.pressure.watchdog_deadline, ms(1_500));
        let untouched = ProtocolConfig::default();
        assert_eq!(pr.reservation_lifetime, untouched.reservation_lifetime);
        assert_eq!(pr.buffer_start_time, untouched.buffer_start_time);
        assert_eq!(pr.ra_interval, untouched.ra_interval);

        assert_eq!(p.axis, Axis::Loss(vec![0.0, 0.05, 0.1]));
        assert_eq!(
            p.schemes,
            [
                Scheme::NarOnly,
                Scheme::Dual { classify: false },
                Scheme::SafetyNet
            ]
        );

        let f = &p.faults;
        assert_eq!(f.ar_link.loss, 0.01);
        assert_eq!(f.ar_link.jitter, us(300));
        assert_eq!(f.ar_link.duplicate, 0.0);
        assert_eq!(f.ar_link.burst, None);
        assert_eq!(f.wireless.loss, 0.02);
        assert_eq!(f.wireless.jitter, SimDuration::from_nanos(400_500));
        assert_eq!(f.wireless.duplicate, 0.03);
        assert_eq!(
            f.wireless.burst,
            Some(GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.5,
                loss_good: 0.0,
                loss_bad: 0.9,
            })
        );
        assert_eq!(f.par.crash_at, Some(SimTime::from_millis(4_000)));
        assert_eq!(f.par.restart_after, Some(ms(800)));
        assert_eq!(f.par.power_off_at, None);
        assert_eq!(f.nar.crash_at, Some(SimTime::from_millis(5_000)));
        assert_eq!(f.nar.restart_after, Some(ms(900)));
        assert_eq!(f.mh.crash_at, None);
        assert_eq!(f.mh.power_off_at, Some(SimTime::from_millis(6_000)));

        assert_eq!(p.workloads.len(), 2);
        let w = &p.workloads[0];
        assert_eq!(w.hosts, HostSelector::One(1));
        assert_eq!(w.class, ClassPlan::Fixed(ServiceClass::RealTime));
        assert_eq!(w.packet_bytes, 200);
        assert_eq!(w.interval, ms(25));
        let w = &p.workloads[1];
        assert_eq!(w.hosts, HostSelector::All);
        assert_eq!(w.class, ClassPlan::RoundRobin);
        assert_eq!(w.packet_bytes, 160);
        assert_eq!(w.interval, ms(20));

        assert_eq!(p.run.traffic_start, SimTime::from_millis(400));
        assert_eq!(p.run.traffic_stop, SimTime::from_millis(9_000));
        assert_eq!(p.run.horizon, SimTime::from_millis(15_000));
        assert_eq!(p.run.telemetry_ring, 4_096);

        let e = &p.expectations;
        assert!(!e.conservation);
        assert!(e.no_leaks);
        assert!(!e.recorder_clean);
        assert_eq!(e.max_failed_ratio, Some(0.25));
        assert_eq!(e.class_drop_max, Some([5, 0, 40]));
        assert_eq!(e.class_p99_max_ms, Some([50.0, 150.0, 300.5]));
        assert_eq!(e.max_bytes_parked, Some(8_000));
        assert!(e.zero_wedged_sessions);
        assert!(e.shed_order_respected);
        assert_eq!(e.artifact_fnv1a, Some(0x00ff_00ff_00ff_00ff));
    }

    /// Every key a metro plan may set, each off its default.
    const EVERY_METRO_KEY: &str = r#"
[plan]
name = "every-metro-key"
seed = 11
report = "metro"

[topology]
hosts = 90
l2_blackout_ms = 120

[topology.domains]
count = 3
boundary_latency_ms = 4
remote_fraction = 0.5
mean_residence_ms = 1500

[protocol]
scheme = "NAR"
buffer_request = 16
flush_spacing_us = 250

[matrix]
axis = "hosts"
values = [30, 60]
schemes = ["FH", "DUAL+class"]

[[workload]]
host = "all"
class = "round-robin"
packet_bytes = 200
kbps = 32

[run]
traffic_start_ms = 200
traffic_stop_ms = 1500
horizon_ms = 2500

[expectations]
no_leaks = true
artifact_fnv1a = "0xfcf9c2c4e53a30e2"
"#;

    #[test]
    fn every_metro_key_binds_to_its_field() {
        let p = ScenarioPlan::from_toml(EVERY_METRO_KEY, "metro.toml").expect("parses");
        let ms = SimDuration::from_millis;
        assert_eq!(p.name, "every-metro-key");
        assert_eq!(p.seed, 11);
        assert_eq!(p.report, ReportKind::Metro);
        assert_eq!(p.topology.hosts, 90);
        assert_eq!(p.topology.l2_blackout, ms(120));
        let d = p.topology.domains;
        assert_eq!(d.count, 3);
        assert_eq!(d.boundary_latency, ms(4));
        assert_eq!(d.remote_fraction, 0.5);
        assert_eq!(d.mean_residence, ms(1_500));
        assert_eq!(p.topology.cellular, None);
        assert_eq!(p.protocol.scheme, Scheme::NarOnly);
        assert_eq!(p.protocol.buffer_request, 16);
        assert_eq!(p.protocol.flush_spacing, SimDuration::from_micros(250));
        assert_eq!(p.axis, Axis::Hosts(vec![30, 60]));
        assert_eq!(
            p.schemes,
            [Scheme::NoBuffer, Scheme::Dual { classify: true }]
        );
        assert_eq!(p.workloads.len(), 1);
        let w = &p.workloads[0];
        assert_eq!(w.hosts, HostSelector::All);
        assert_eq!(w.class, ClassPlan::RoundRobin);
        assert_eq!(w.packet_bytes, 200);
        assert_eq!(w.interval, ms(50));
        assert!(p.faults.is_noop());
        assert_eq!(p.run.traffic_start, SimTime::from_millis(200));
        assert_eq!(p.run.traffic_stop, SimTime::from_millis(1_500));
        assert_eq!(p.run.horizon, SimTime::from_millis(2_500));
        assert_eq!(p.run.telemetry_ring, 0);
        assert!(p.expectations.conservation);
        assert!(p.expectations.no_leaks);
        assert_eq!(p.expectations.artifact_fnv1a, Some(0xfcf9_c2c4_e53a_30e2));
    }

    #[test]
    fn single_domain_table_stays_on_the_fabric_kernel() {
        // A [topology.domains] table with count = 1 is legal on any
        // report kind — it only describes the (degenerate) partitioning.
        let toml = "[plan]\nname = \"x\"\n[topology]\nhosts = 1\nmovement = \"parked\"\n\
                    [topology.domains]\ncount = 1\n\
                    [[workload]]\nhost = 0\ninterval_ms = 20\n";
        let plan = ScenarioPlan::from_toml(toml, "p.toml").expect("parses");
        assert_eq!(plan.report, ReportKind::Points);
        assert_eq!(plan.topology.domains.count, 1);
        let outcome = run_plan(&plan, 1);
        assert!(outcome.points[0].metro.is_none());
    }
}
