//! The plan schema, declared once: one row per TOML key (its path, what
//! it accepts with the setter for the checked value, a one-line doc),
//! and the binder that reads a parsed document through the rows. Table
//! order, type and range checks, the valid-table and valid-key lists and
//! [`schema_table`] (DESIGN.md §14, pinned by a test) all derive from the
//! rows; rules spanning several keys run after binding ([`Draft::finish`]).

use fh_core::{ProtocolConfig, RetransmitConfig, Scheme};
use fh_net::{GilbertElliott, ServiceClass};
use fh_sim::{SimDuration, SimTime};
use fh_wireless::TriggerMode;

use super::{
    Axis, ClassPlan, FaultPlan, HostSelector, ReportKind, RunSpec, ScenarioPlan, TopologySpec,
    WorkloadSpec, DEFAULT_TIMELINE_RING,
};
use crate::expectations::Expectations;
use crate::hmip::{CellularConfig, MovementPlan};
use crate::toml::{Doc, PlanError, Value};

/// The one array of tables: each `[[workload]]` is one more workload.
const WORKLOAD: &str = "workload";
/// The table whose presence, even empty, arms the cellular overlay.
const CELLULAR: &str = "topology.cellular";
const MAX: i64 = i64::MAX;
const U32: i64 = u32::MAX as i64;

/// The `i`-th name a choice accepts; `None` past the last.
type Names = fn(usize) -> Option<&'static str>;

/// What a key accepts, carrying the setter for the checked value.
enum Ty {
    Str(fn(&mut Draft, &str)),
    Bool(fn(&mut Draft, bool)),
    /// An integer in `[min, max]`.
    Int(i64, i64, fn(&mut Draft, i64)),
    Prob(fn(&mut Draft, f64)),
    Positive(fn(&mut Draft, f64)),
    /// Durations: `_ms` keys, zero allowed or not, and `_us` keys.
    Ms(fn(&mut Draft, SimDuration)),
    PositiveMs(fn(&mut Draft, SimDuration)),
    Us(fn(&mut Draft, SimDuration)),
    /// One of the names, case-insensitively, as its index.
    Choice(Names, fn(&mut Draft, usize)),
    /// A non-empty array of distinct names, as indices.
    Choices(Names, fn(&mut Draft, &[usize])),
    /// An array of exactly `n` numbers; `0` means any non-empty length.
    Nums(usize, fn(&mut Draft, &[f64])),
    /// An array of exactly `n` non-negative integers.
    Counts(usize, fn(&mut Draft, &[u64])),
    /// A host index, or `"all"`.
    Host(fn(&mut Draft, HostSelector)),
    /// A `"0x…"` 64-bit hex hash.
    Hex(fn(&mut Draft, u64)),
}

use Ty::*;

struct Key {
    path: &'static str,
    ty: Ty,
    doc: &'static str,
}

const fn key(path: &'static str, ty: Ty, doc: &'static str) -> Key {
    Key { path, ty, doc }
}

/// The schema. A table's rows stay together, and tables bind in the
/// order they first appear. Laid out by hand as a table, each row on
/// one or two lines; rustfmt would spread every row over five.
#[rustfmt::skip]
const KEYS: &[Key] = &[
    key("plan.name", Str(|d, s| d.name = Some(s.to_owned())), "required"),
    key("plan.seed", Int(0, MAX, |d, i| d.plan.seed = i as u64), "base RNG seed"),
    key("plan.report", Choice(|i| ReportKind::ALL.get(i).map(|r| r.name()),
        |d, i| d.plan.report = ReportKind::ALL[i]), "artifact to render"),
    key("topology.hosts", Int(1, MAX, |d, i| d.plan.topology.hosts = i as usize), "mobile hosts"),
    key("topology.buffer_capacity",
        Int(0, MAX, |d, i| d.plan.topology.buffer_capacity = i as usize), "packets per router"),
    key("topology.movement", Choice(|i| MovementPlan::ALL.get(i).map(|m| m.name()),
        |d, i| d.plan.topology.movement = MovementPlan::ALL[i]), "host walk"),
    key("topology.ar_link_delay_ms", Ms(|d, t| d.plan.topology.ar_link_delay = t),
        "PAR↔NAR propagation"),
    key("topology.l2_blackout_ms", Ms(|d, t| d.plan.topology.l2_blackout = t), "L2 black-out"),
    key("topology.speed_mps", Positive(|d, x| d.plan.topology.speed = x), "host speed"),
    key("topology.stagger_ms", Ms(|d, t| d.plan.topology.stagger = t), "storm stagger per host"),
    key("topology.interfaces", Int(1, 2, |d, i| d.plan.topology.interfaces = i as u8),
        "2 = multi-homed"),
    key("topology.trigger", Choice(|i| TriggerMode::ALL.get(i).map(|t| t.name()),
        |d, i| d.plan.topology.trigger = TriggerMode::ALL[i]), "L2 trigger source"),
    key("topology.domains.count", Int(1, U32, |d, i| d.plan.topology.domains.count = i as u32),
        "MAP domains; > 1 needs report = \"metro\""),
    key("topology.domains.boundary_latency_ms",
        Ms(|d, t| d.plan.topology.domains.boundary_latency = t), "the lookahead"),
    key("topology.domains.remote_fraction",
        Prob(|d, p| d.plan.topology.domains.remote_fraction = p),
        "hosts with a remote correspondent"),
    key("topology.domains.mean_residence_ms",
        PositiveMs(|d, t| d.plan.topology.domains.mean_residence = t), "mean dwell per domain"),
    key("topology.cellular.bandwidth_bps",
        Int(1, MAX, |d, i| d.cellular().spec.bandwidth_bps = i as u64), "sector bandwidth"),
    key("topology.cellular.delay_ms", Ms(|d, t| d.cellular().spec.delay = t), "sector latency"),
    key("topology.cellular.radius_m", Positive(|d, x| d.cellular().radius = x), "sector coverage"),
    key("protocol.scheme", Choice(|i| Scheme::ALL.get(i).map(|s| s.label()),
        |d, i| d.plan.protocol.scheme = Scheme::ALL[i]), "[matrix] schemes overrides"),
    key("protocol.buffer_request", Int(0, U32, |d, i| d.plan.protocol.buffer_request = i as u32),
        "N, packets a host requests"),
    key("protocol.threshold_a", Int(0, U32, |d, i| d.plan.protocol.threshold_a = i as u32),
        "Table 3.3 threshold a"),
    key("protocol.flush_spacing_us", Us(|d, t| d.plan.protocol.flush_spacing = t),
        "pacing of a flush"),
    key("protocol.retransmit", Choice(|i| RetransmitConfig::PRESETS.get(i).map(|p| p.0),
        |d, i| d.plan.protocol.rtx = (RetransmitConfig::PRESETS[i].1)()), "signaling retries"),
    key("protocol.host_route_lifetime_ms",
        Ms(|d, t| d.plan.protocol.host_route_lifetime = t), "unset = hard state"),
    key("protocol.dead_peer_timeout_ms", Ms(|d, t| d.plan.protocol.dead_peer_timeout = t),
        "unset = off"),
    key("pressure.byte_budget",
        Int(0, MAX, |d, i| d.plan.protocol.pressure.byte_budget = i as usize),
        "per router; 0 = off"),
    key("pressure.high_watermark_pct",
        Int(1, 100, |d, i| d.plan.protocol.pressure.high_watermark_pct = i as u8),
        "shedding starts"),
    key("pressure.low_watermark_pct",
        Int(1, 100, |d, i| d.plan.protocol.pressure.low_watermark_pct = i as u8), "shedding stops"),
    key("pressure.watchdog_deadline_ms", Ms(|d, t| d.plan.protocol.pressure.watchdog_deadline =
        if t.is_zero() { SimDuration::MAX } else { t }), "0 = off"),
    key("matrix.axis", Choice(|i| AXES.get(i).map(|a| a.0), |d, i| d.axis = Some(i)),
        "what varies across points"),
    key("matrix.values", Nums(0, |d, v| d.values = Some(v.to_vec())), "the axis points"),
    key("matrix.schemes", Choices(|i| Scheme::ALL.get(i).map(|s| s.label()),
        |d, v| d.plan.schemes = v.iter().map(|&i| Scheme::ALL[i]).collect()), "artifact row order"),
    key("faults.ar_link_loss", Prob(|d, p| d.plan.faults.ar_link.loss = p), "PAR↔NAR loss"),
    key("faults.ar_link_jitter_us", Us(|d, t| d.plan.faults.ar_link.jitter = t),
        "PAR↔NAR jitter bound"),
    key("faults.wireless_loss", Prob(|d, p| d.plan.faults.wireless.loss = p), "air loss"),
    key("faults.wireless_jitter_us", Us(|d, t| d.plan.faults.wireless.jitter = t),
        "air jitter bound"),
    key("faults.wireless_duplicate", Prob(|d, p| d.plan.faults.wireless.duplicate = p),
        "air duplication"),
    key("faults.wireless_burst", Nums(4, |d, p| d.plan.faults.wireless.burst = Some(GilbertElliott {
        p_good_to_bad: p[0], p_bad_to_good: p[1], loss_good: p[2], loss_bad: p[3] })),
        "Gilbert–Elliott p_gb, p_bg, loss_good, loss_bad"),
    key("faults.par.crash_at_ms", Ms(|d, t| d.plan.faults.par.crash_at = Some(SimTime::ZERO + t)),
        "PAR crash"),
    key("faults.par.restart_after_ms", Ms(|d, t| d.plan.faults.par.restart_after = Some(t)),
        "cold restart after the crash"),
    key("faults.nar.crash_at_ms", Ms(|d, t| d.plan.faults.nar.crash_at = Some(SimTime::ZERO + t)),
        "NAR crash"),
    key("faults.nar.restart_after_ms", Ms(|d, t| d.plan.faults.nar.restart_after = Some(t)),
        "cold restart after the crash"),
    key("faults.mh.power_off_at_ms",
        Ms(|d, t| d.plan.faults.mh.power_off_at = Some(SimTime::ZERO + t)), "host 0, for good"),
    key("workload.host", Host(|d, h| d.workload().hosts = Some(h)), "receiving host(s)"),
    key("workload.class", Choice(|i| ServiceClass::ALL.get(i).map(|c| c.name())
            .or((i == ServiceClass::ALL.len()).then_some("round-robin")),
        |d, i| d.workload().class = Some(ServiceClass::ALL.get(i)
            .map_or(ClassPlan::RoundRobin, |&c| ClassPlan::Fixed(c)))),
        "round-robin: RT, HP, BE by host"),
    key("workload.packet_bytes", Int(1, U32, |d, i| d.workload().packet_bytes = Some(i as u32)),
        "default 160"),
    key("workload.interval_ms", PositiveMs(|d, t| d.workload().interval = Some(t)), "this or kbps"),
    key("workload.kbps", Positive(|d, x| d.workload().kbps = Some(x)), "this or interval_ms"),
    key("run.traffic_start_ms", Ms(|d, t| d.plan.run.traffic_start = SimTime::ZERO + t),
        "sources start"),
    key("run.traffic_stop_ms", Ms(|d, t| d.plan.run.traffic_stop = SimTime::ZERO + t),
        "sources stop"),
    key("run.horizon_ms", Ms(|d, t| d.plan.run.horizon = SimTime::ZERO + t), "the run ends"),
    key("run.telemetry_ring", Int(0, MAX, |d, i| d.telemetry_ring = Some(i as usize)),
        "flight-recorder entries; 0 = off"),
    key("expectations.conservation", Bool(|d, b| d.plan.expectations.conservation = b),
        "sent + duplicated = delivered + drops"),
    key("expectations.no_leaks", Bool(|d, b| d.plan.expectations.no_leaks = b),
        "leak audit clean after quiesce"),
    key("expectations.recorder_clean", Bool(|d, b| d.plan.expectations.recorder_clean = b),
        "flight recorder never wrapped"),
    key("expectations.max_failed_ratio",
        Prob(|d, p| d.plan.expectations.max_failed_ratio = Some(p)), "failed / all handovers"),
    key("expectations.class_drop_max",
        Counts(3, |d, n| d.plan.expectations.class_drop_max = Some([n[0], n[1], n[2]])),
        "per class: RT, HP, BE"),
    key("expectations.class_p99_max_ms",
        Nums(3, |d, x| d.plan.expectations.class_p99_max_ms = Some([x[0], x[1], x[2]])),
        "per class: RT, HP, BE"),
    key("expectations.max_bytes_parked",
        Int(0, MAX, |d, i| d.plan.expectations.max_bytes_parked = Some(i as usize)),
        "either router"),
    key("expectations.zero_wedged_sessions",
        Bool(|d, b| d.plan.expectations.zero_wedged_sessions = b), "nothing parked after quiesce"),
    key("expectations.shed_order_respected",
        Bool(|d, b| d.plan.expectations.shed_order_respected = b), "shed-order audit clean"),
    key("expectations.artifact_fnv1a", Hex(|d, h| d.plan.expectations.artifact_fnv1a = Some(h)),
        "FNV-1a lock on the artifact bytes"),
];

/// Turns `[matrix] values` into an [`Axis`], or says why it cannot.
type AxisReader = fn(Vec<f64>) -> Result<Axis, String>;

/// The `[matrix] axis` names, and how each reads `values`.
const AXES: [(&str, AxisReader); 2] = [
    ("loss", |ps| {
        match ps.iter().find(|p| !(0.0..=1.0).contains(*p)) {
            Some(p) => Err(format!("loss must be a probability in [0, 1], got {p}")),
            None => Ok(Axis::Loss(ps)),
        }
    }),
    ("hosts", |ns| {
        match ns.iter().find(|n| **n < 1.0 || n.fract() != 0.0) {
            Some(n) => Err(format!("host counts must be whole numbers ≥ 1, got {n}")),
            None => Ok(Axis::Hosts(ns.iter().map(|&n| n as usize).collect())),
        }
    }),
];

impl Key {
    fn table(&self) -> &'static str {
        self.path.rsplit_once('.').map_or("", |(table, _)| table)
    }

    fn name(&self) -> &'static str {
        self.path.rsplit('.').next().unwrap_or_default()
    }

    /// Checks `v` against the row and hands it to the setter.
    fn bind(&self, d: &mut Draft, v: &Value) -> Result<(), String> {
        match self.ty {
            Str(set) => set(d, string(v)?),
            Bool(set) => match v {
                Value::Bool(b) => set(d, *b),
                _ => return Err(expected("a boolean", v)),
            },
            Int(min, max, set) => set(d, int_in(v, min, max)?),
            Prob(set) => match number(v)? {
                p if (0.0..=1.0).contains(&p) => set(d, p),
                p => return Err(format!("must be a probability in [0, 1], got {p}")),
            },
            Positive(set) => match number(v)? {
                x if x > 0.0 => set(d, x),
                x => return Err(format!("must be positive, got {x}")),
            },
            Ms(set) | PositiveMs(set) | Us(set) => {
                let ns_per_unit = if matches!(self.ty, Us(_)) { 1e3 } else { 1e6 };
                let positive = matches!(self.ty, PositiveMs(_));
                set(d, duration(number(v)?, ns_per_unit, positive)?);
            }
            Choice(names, set) => set(d, choose(names, string(v)?)?),
            Choices(names, set) => {
                let mut picked = Vec::new();
                for item in non_empty(v, "an array of names")? {
                    let i = choose(names, string(item)?)?;
                    if picked.contains(&i) {
                        return Err(format!("`{}` listed twice", names(i).unwrap_or_default()));
                    }
                    picked.push(i);
                }
                set(d, &picked);
            }
            Nums(n, set) => {
                let items = non_empty(v, "an array of numbers")?;
                if n > 0 && items.len() != n {
                    return Err(format!("expected {n} numbers, got {}", items.len()));
                }
                set(d, &items.iter().map(number).collect::<Result<Vec<_>, _>>()?);
            }
            Counts(n, set) => {
                let items = non_empty(v, "an array of integers")?;
                if items.len() != n {
                    return Err(format!("expected {n} integers, got {}", items.len()));
                }
                let counts = items.iter().map(|i| int_in(i, 0, MAX).map(|i| i as u64));
                set(d, &counts.collect::<Result<Vec<_>, _>>()?);
            }
            Host(set) => match v {
                Value::Str(s) if s == "all" => set(d, HostSelector::All),
                Value::Int(_) => set(d, HostSelector::One(int_in(v, 0, MAX)? as usize)),
                _ => return Err(expected("a host index or \"all\"", v)),
            },
            Hex(set) => {
                let s = string(v)?;
                match s.strip_prefix("0x").map(|h| u64::from_str_radix(h, 16)) {
                    Some(Ok(hash)) => set(d, hash),
                    _ => return Err(format!("expected a 0x-prefixed 64-bit hex hash, got `{s}`")),
                }
            }
        }
        Ok(())
    }

    /// What the row accepts, as [`schema_table`] prints it.
    fn accepts(&self) -> String {
        let names = |names: Names| {
            let all: Vec<String> = (0..).map_while(names).map(|n| format!("`{n}`")).collect();
            all.join("/")
        };
        match self.ty {
            Str(_) => "string".into(),
            Bool(_) => "bool".into(),
            Int(min, MAX, _) => format!("int ≥ {min}"),
            Int(min, U32, _) => format!("u32 ≥ {min}"),
            Int(min, max, _) => format!("int {min}–{max}"),
            Prob(_) => "0–1".into(),
            Positive(_) => "> 0".into(),
            Ms(_) => "ms ≥ 0".into(),
            PositiveMs(_) => "ms > 0".into(),
            Us(_) => "µs ≥ 0".into(),
            Choice(n, _) => names(n),
            Choices(n, _) => format!("list of {}", names(n)),
            Nums(0, _) => "list of numbers".into(),
            Nums(n, _) => format!("{n} numbers"),
            Counts(n, _) => format!("{n} ints ≥ 0"),
            Host(_) => "index or `\"all\"`".into(),
            Hex(_) => "`\"0x…\"`".into(),
        }
    }
}

fn expected(what: &str, v: &Value) -> String {
    format!("expected {what}, got {}", v.type_name())
}

fn string(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(expected("a string", v)),
    }
}

fn number(v: &Value) -> Result<f64, String> {
    match *v {
        Value::Float(f) => Ok(f),
        Value::Int(i) => Ok(i as f64),
        _ => Err(expected("a number", v)),
    }
}

fn int_in(v: &Value, min: i64, max: i64) -> Result<i64, String> {
    match *v {
        Value::Int(i) if (min..=max).contains(&i) => Ok(i),
        Value::Int(i) if max == MAX => Err(format!("must be at least {min}, got {i}")),
        Value::Int(i) => Err(format!("must be in [{min}, {max}], got {i}")),
        _ => Err(expected("an integer", v)),
    }
}

fn non_empty<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], String> {
    match v {
        Value::Array(items) if items.is_empty() => Err("must not be empty".into()),
        Value::Array(items) => Ok(items),
        _ => Err(expected(what, v)),
    }
}

fn choose(names: Names, s: &str) -> Result<usize, String> {
    let all: Vec<&str> = (0..).map_while(names).collect();
    all.iter()
        .position(|n| n.eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("`{s}` is not one of: {}", all.join(", ")))
}

/// The one conversion from a plan number to a [`SimDuration`]: `x`
/// units of `ns_per_unit` nanoseconds, rounded to the nanosecond. Every
/// `_ms`/`_us` key and the interval a `kbps` rate implies go through it.
///
/// # Errors
///
/// A negative or non-finite `x`, a result past the 64-bit nanosecond
/// clock, and — when `positive` — a result that rounds to zero.
fn duration(x: f64, ns_per_unit: f64, positive: bool) -> Result<SimDuration, String> {
    let ns = (x * ns_per_unit).round();
    if !x.is_finite() || x < 0.0 {
        Err(format!("must be a non-negative duration, got {x}"))
    } else if ns >= u64::MAX as f64 {
        // `u64::MAX as f64` is 2^64 exactly: the first value past the clock.
        Err(format!("{x} overflows the 64-bit nanosecond clock"))
    } else if positive && ns == 0.0 {
        Err(format!("must be positive (at least 1 ns), got {x}"))
    } else {
        Ok(SimDuration::from_nanos(ns as u64))
    }
}

/// Every table, in row order (a table's rows are contiguous).
fn tables() -> Vec<&'static str> {
    let mut tables: Vec<_> = KEYS.iter().map(Key::table).collect();
    tables.dedup();
    tables
}

/// A plan error at a schema path: `"run.horizon_ms"` points at
/// `[run].horizon_ms`; a path without a dot is the location itself.
fn at(file: &str, path: &str, message: impl Into<String>) -> PlanError {
    let (table, key) = path.rsplit_once('.').unwrap_or(("", path));
    PlanError::at_field(file, table, key, message)
}

/// A plan mid-binding: the plan the rows write, and what the cross-key
/// rules must still see before [`Draft::finish`] resolves it.
struct Draft {
    plan: ScenarioPlan,
    name: Option<String>,
    /// Index into [`AXES`].
    axis: Option<usize>,
    values: Option<Vec<f64>>,
    telemetry_ring: Option<usize>,
    workloads: Vec<Load>,
}

/// One `[[workload]]` mid-binding: the keys it gave.
#[derive(Default)]
struct Load {
    hosts: Option<HostSelector>,
    class: Option<ClassPlan>,
    packet_bytes: Option<u32>,
    interval: Option<SimDuration>,
    kbps: Option<f64>,
}

impl Draft {
    fn workload(&mut self) -> &mut Load {
        let open = "the binder opens a workload before binding its keys";
        self.workloads.last_mut().expect(open)
    }

    fn cellular(&mut self) -> &mut CellularConfig {
        self.plan
            .topology
            .cellular
            .get_or_insert_with(Default::default)
    }

    /// The rules that span several keys, in table order.
    fn finish(self, file: &str) -> Result<ScenarioPlan, PlanError> {
        let check =
            |ok: bool, path: &str, m: String| ok.then_some(()).ok_or_else(|| at(file, path, m));
        let mut plan = self.plan;
        plan.name = (self.name).ok_or_else(|| at(file, "plan.name", "required key is missing"))?;

        let (topology, report) = (&plan.topology, plan.report);
        let single = topology.domains.count == 1;
        // The boundary latency IS the conservative lookahead: a
        // zero-latency boundary would let a cross-domain packet arrive
        // inside the epoch that sent it.
        check(
            single || !topology.domains.boundary_latency.is_zero(),
            "topology.domains.boundary_latency_ms",
            "lookahead must be > 0 when domains > 1".into(),
        )?;
        check(
            single || report == ReportKind::Metro,
            "topology.domains.count",
            format!(
                "multi-domain topologies run on the metro kernel: \
                 set report = \"metro\" (this plan says `{}`)",
                report.name()
            ),
        )?;
        check(
            single || topology.cellular.is_none(),
            "topology.cellular.radius_m",
            "the cellular overlay runs on the Fig 4.1 kernel; \
             it cannot combine with [topology.domains]"
                .into(),
        )?;
        let pressure = plan.protocol.pressure;
        let (low, high) = (pressure.low_watermark_pct, pressure.high_watermark_pct);
        check(
            low <= high,
            "pressure.low_watermark_pct",
            format!("low watermark {low}% above high watermark {high}%"),
        )?;

        let axes = AXES.map(|a| a.0).join(" or ");
        let (no_axis, no_values) = (
            "`values` needs an `axis`",
            "an axis needs `values` to sweep",
        );
        plan.axis = match (self.axis, self.values) {
            (None, None) => Axis::None,
            (None, Some(_)) => {
                return Err(at(file, "matrix.values", format!("{no_axis} ({axes})")))
            }
            (Some(_), None) => return Err(at(file, "matrix.axis", no_values)),
            (Some(i), Some(v)) => (AXES[i].1)(v).map_err(|m| at(file, "matrix.values", m))?,
        };
        if plan.schemes.is_empty() {
            plan.schemes.push(plan.protocol.scheme);
        }

        let faults = &plan.faults;
        for (path, spec) in [
            ("faults.ar_link", faults.ar_link),
            ("faults.wireless", faults.wireless),
        ] {
            spec.validated().map_err(|m| at(file, path, m))?;
        }
        for (path, node) in [("faults.par", faults.par), ("faults.nar", faults.nar)] {
            check(
                node.restart_after.is_none() || node.crash_at.is_some(),
                &format!("{path}.restart_after_ms"),
                "`restart_after_ms` needs `crash_at_ms`".into(),
            )?;
        }

        let both = "give either `interval_ms` or `kbps`, not both";
        let neither = "a workload needs `interval_ms` or `kbps`";
        let unclassed = ClassPlan::Fixed(ServiceClass::Unspecified);
        for w in self.workloads {
            let bytes = w.packet_bytes.unwrap_or(160);
            let interval = match (w.interval, w.kbps) {
                (Some(t), None) => t,
                (None, Some(rate)) => {
                    let secs = f64::from(bytes) * 8.0 / (rate * 1000.0);
                    duration(secs, 1e9, true).map_err(|_| {
                        let m =
                            format!("{rate:e} kb/s of {bytes}-byte packets is one per {secs:e} s");
                        at(file, "workload.kbps", m + ", outside [1 ns, 2^64 ns)")
                    })?
                }
                (Some(_), Some(_)) => return Err(at(file, "workload.kbps", both)),
                (None, None) => return Err(at(file, "workload.interval_ms", neither)),
            };
            plan.workloads.push(WorkloadSpec {
                hosts: w.hosts.unwrap_or(HostSelector::All),
                class: w.class.unwrap_or(unclassed),
                packet_bytes: bytes,
                interval,
            });
        }

        let run = &mut plan.run;
        let timeline = report == ReportKind::Timeline;
        let ring = if timeline { DEFAULT_TIMELINE_RING } else { 0 };
        run.telemetry_ring = self.telemetry_ring.unwrap_or(ring);
        let (start, stop, horizon) = (run.traffic_start, run.traffic_stop, run.horizon);
        check(
            start < stop,
            "run.traffic_stop_ms",
            format!("traffic window is empty: start {start:?} >= stop {stop:?}"),
        )?;
        check(
            stop <= horizon,
            "run.horizon_ms",
            format!("horizon {horizon:?} ends before traffic stops at {stop:?}"),
        )?;

        // Every explicit workload host must exist at every grid point.
        let min_hosts = plan.min_hosts();
        for w in &plan.workloads {
            if let HostSelector::One(i) = w.hosts {
                check(
                    i < min_hosts,
                    "workload.host",
                    format!(
                        "host index {i} out of range: the smallest grid point runs \
                         {min_hosts} host(s)"
                    ),
                )?;
            }
        }

        // The metro kernel models handovers and buffering natively, so a
        // metro plan's surface is narrower than the actor fabric's.
        if report == ReportKind::Metro {
            check(
                !matches!(plan.axis, Axis::Loss(_)),
                "matrix.axis",
                "metro plans sweep hosts, not loss (the metro kernel has no fault layer)".into(),
            )?;
            check(
                plan.faults.is_noop(),
                "[faults]",
                "metro plans do not support fault injection; remove the [faults] tables".into(),
            )?;
            check(
                plan.run.telemetry_ring == 0,
                "run.telemetry_ring",
                "metro runs have no flight recorder; leave telemetry_ring at 0".into(),
            )?;
            let n = plan.workloads.len();
            let message = format!("metro plans take exactly one [[workload]] (found {n})");
            check(n == 1, "[[workload]]", message)?;
            check(
                plan.workloads[0].hosts == HostSelector::All,
                "workload.host",
                "metro workloads drive every host: write host = \"all\"".into(),
            )?;
            check(
                plan.workloads[0].class == ClassPlan::RoundRobin,
                "workload.class",
                "the metro kernel assigns classes round-robin by host: \
                 write class = \"round-robin\""
                    .into(),
            )?;
        }
        Ok(plan)
    }
}

/// Rejects root-level keys, unknown tables and arrays, and a singular
/// `[workload]`, listing the valid tables from the rows.
fn check_tables(doc: &Doc, file: &str) -> Result<(), PlanError> {
    if let Some(first) = doc.root.entries.first() {
        let m = format!(
            "key `{}` outside any table (every key belongs to a [table])",
            first.key
        );
        return Err(PlanError::at_line(file, first.line, m));
    }
    let known: Vec<&str> = tables().into_iter().filter(|&t| t != WORKLOAD).collect();
    for (name, table) in &doc.tables {
        let message = if name == WORKLOAD {
            "workloads are an array of tables: write `[[workload]]`, not `[workload]`".into()
        } else if !known.contains(&name.as_str()) {
            let known = known.join(", ");
            format!("unknown table `[{name}]` (valid tables: {known}, plus [[workload]])")
        } else {
            continue;
        };
        return Err(PlanError::at_line(file, table.line, message));
    }
    if let Some((name, table)) = doc.arrays.iter().find(|(name, _)| name != WORKLOAD) {
        let m = format!("unknown array of tables `[[{name}]]` (only [[workload]] is supported)");
        return Err(PlanError::at_line(file, table.line, m));
    }
    Ok(())
}

/// Binds a parsed document to a plan through [`KEYS`]: tables in row
/// order, entries in file order, each checked against its row; then the
/// cross-key rules.
pub(super) fn bind(doc: &Doc, file: &str) -> Result<ScenarioPlan, PlanError> {
    check_tables(doc, file)?;
    let mut d = Draft {
        plan: ScenarioPlan {
            name: String::new(),
            seed: 2003,
            report: ReportKind::Points,
            topology: TopologySpec::default(),
            protocol: ProtocolConfig::default(),
            schemes: Vec::new(),
            axis: Axis::None,
            workloads: Vec::new(),
            faults: FaultPlan::default(),
            run: RunSpec::default(),
            expectations: Expectations::default(),
        },
        name: None,
        axis: None,
        values: None,
        telemetry_ring: None,
        workloads: Vec::new(),
    };
    for table in tables() {
        let rows: Vec<&Key> = KEYS.iter().filter(|k| k.table() == table).collect();
        let instances = match table {
            WORKLOAD => doc.array_of(table),
            _ => doc.table(table).into_iter().collect(),
        };
        for t in instances {
            // Entering a table creates what it configures.
            match table {
                WORKLOAD => d.workloads.push(Load::default()),
                CELLULAR => d.plan.topology.cellular = Some(CellularConfig::default()),
                _ => {}
            }
            for e in &t.entries {
                let at_key = |m| PlanError::at_field(file, table, &e.key, m);
                let Some(row) = rows.iter().find(|k| k.name() == e.key) else {
                    let valid = rows.iter().map(|k| k.name()).collect::<Vec<_>>().join(", ");
                    return Err(at_key(format!("unknown key (valid keys: {valid})")));
                };
                row.bind(&mut d, &e.value).map_err(at_key)?;
            }
        }
    }
    d.finish(file)
}

/// The schema as the Markdown table DESIGN.md §14 carries: one line per
/// table, each key with what it accepts and a short note.
#[must_use]
pub fn schema_table() -> String {
    let mut out = format!(
        "{} tables, {} keys; names are case-insensitive.\n\n\
         | table | keys (accepts; note) |\n|:--|:--|\n",
        tables().len(),
        KEYS.len()
    );
    for table in tables() {
        let keys: Vec<String> = KEYS
            .iter()
            .filter(|k| k.table() == table)
            .map(|k| format!("`{}` ({}; {})", k.name(), k.accepts(), k.doc))
            .collect();
        let header = match table {
            WORKLOAD => format!("`[[{table}]]`"),
            _ => format!("`[{table}]`"),
        };
        out += &format!("| {header} | {} |\n", keys.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-key plan: `key = value` in its own table, next to the
    /// required `[plan] name`.
    fn plan_with(table: &str, name: &str, value: &str) -> Result<ScenarioPlan, PlanError> {
        let toml = match table {
            "plan" if name == "name" => format!("[plan]\nname = {value}\n"),
            "plan" => format!("[plan]\nname = \"x\"\n{name} = {value}\n"),
            WORKLOAD => format!("[plan]\nname = \"x\"\n[[workload]]\n{name} = {value}\n"),
            _ => format!("[plan]\nname = \"x\"\n[{table}]\n{name} = {value}\n"),
        };
        ScenarioPlan::from_toml(&toml, "p.toml")
    }

    #[test]
    fn every_row_rejects_a_wrongly_typed_value_at_its_key() {
        for k in KEYS {
            let wrong = if matches!(k.ty, Bool(_)) { "1" } else { "true" };
            let err = plan_with(k.table(), k.name(), wrong).expect_err(k.path);
            assert_eq!(err.location, format!("[{}].{}", k.table(), k.name()));
            assert!(err.message.starts_with("expected"), "{}: {err}", k.path);
        }
    }

    #[test]
    fn unknown_keys_list_exactly_their_tables_rows_in_row_order() {
        for table in tables() {
            let rows: Vec<&str> = KEYS
                .iter()
                .filter(|k| k.table() == table)
                .map(Key::name)
                .collect();
            let err = plan_with(table, "bogus", "1").expect_err(table);
            assert_eq!(err.location, format!("[{table}].bogus"));
            assert_eq!(
                err.message,
                format!("unknown key (valid keys: {})", rows.join(", "))
            );
        }
    }

    #[test]
    fn each_table_and_key_is_declared_once() {
        let all = tables();
        let mut distinct = all.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            all.len(),
            distinct.len(),
            "a table's rows must be contiguous: {all:?}"
        );
        let mut paths: Vec<&str> = KEYS.iter().map(|k| k.path).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), KEYS.len(), "a key is declared twice");
    }

    #[test]
    fn duration_rejects_what_a_duration_cannot_be() {
        assert_eq!(
            duration(1.5, 1e6, true),
            Ok(SimDuration::from_micros(1_500))
        );
        assert_eq!(duration(0.0, 1e6, false), Ok(SimDuration::ZERO));
        for (x, why) in [
            (-1.0, "non-negative"),
            (f64::INFINITY, "non-negative"),
            (f64::NAN, "non-negative"),
            (1e14, "overflows"),
            (0.0, "positive"),
            (1e-7, "positive"),
        ] {
            let err = duration(x, 1e6, true).expect_err(why);
            assert!(err.contains(why), "{x}: {err}");
        }
        // Just below 2^64 ns (≈ 1.8447e13 ms) still converts.
        assert!(duration(1.844e13, 1e6, true).is_ok());
    }

    /// DESIGN.md §14 carries the schema as rendered from the rows; the
    /// block between the markers is replaced wholesale when a row changes.
    #[test]
    fn design_md_carries_the_rendered_schema_table() {
        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
                .expect("DESIGN.md is readable");
        let (begin, end) = ("<!-- schema:begin -->\n", "<!-- schema:end -->");
        let block = design
            .split_once(begin)
            .and_then(|(_, rest)| rest.split_once(end))
            .map(|(block, _)| block);
        let expected = schema_table();
        assert!(
            block == Some(expected.as_str()),
            "DESIGN.md §14's schema block differs from the rows; replace it with:\n\
             {begin}{expected}{end}"
        );
    }
}
