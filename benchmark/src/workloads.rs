//! The six named workloads: inputs from a seed, one pass, and its checks.
//!
//! Every workload drives the crates through their public functions only,
//! single process, `threads = 1`, closed loop: one pass is one operation
//! and the next pass starts when the previous one returns. The simulator
//! only ever receives the inputs generated here from `--seed`.

#![forbid(unsafe_code)]

use std::fmt::{self, Debug, Write as _};

use fh_bench::{params, FigureRun};
use fh_core::{ProtocolConfig, Scheme};
use fh_metro::{MetroConfig, MetroResults};
use fh_net::ServiceClass;
use fh_scenarios::experiments::{
    self, BufferUtilizationParams, BufferUtilizationResult, SchemeSeries, CHAOS_LOSS_PROBS,
    FIG_4_6_RATES, STORM_SIZES, TIMELINE_SIZES,
};
use fh_scenarios::plan::{run_plan, ScenarioPlan};
use fh_scenarios::{HmipConfig, HmipScenario, MovementPlan};
use fh_sim::{derive_seed, SimDuration, SimTime};
use fh_telemetry::report::fnv1a64_hex;

use crate::golden::Golden;
use crate::tracer::Tracer;

/// The seed whose inputs are the repo's canonical ones (`repro`'s
/// `params::SEED`), i.e. the inputs the golden files were captured on.
pub const REFERENCE_SEED: u64 = 2003;

/// A named workload. The discriminant indexes [`Workload::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig42Grid,
    ReproSuite,
    CorpusPlans,
    StormTraced,
    Metro10kD4,
    Metro50kD1,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Fig42Grid,
        Workload::ReproSuite,
        Workload::CorpusPlans,
        Workload::StormTraced,
        Workload::Metro10kD4,
        Workload::Metro50kD1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig42Grid => "fig42_grid",
            Workload::ReproSuite => "repro_suite",
            Workload::CorpusPlans => "corpus_plans",
            Workload::StormTraced => "storm_traced",
            Workload::Metro10kD4 => "metro_10k_d4",
            Workload::Metro50kD1 => "metro_50k_d1",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (one line; `BENCHMARK.json` carries it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig42Grid => {
                "80 short full-protocol sims (4 schemes x 1..20 hosts): event fabric plus a world build every ~30k events; metro, plan engine and recorder idle"
            }
            Workload::ReproSuite => {
                "all 18 thesis figures: half the time is three long single sims where world build is negligible, plus TCP and fault-injected chaos"
            }
            Workload::CorpusPlans => {
                "15 TOML plans: only workload running plan parse/validate/expectations, pressure shed, watchdog, node faults, vertical handover and the handover-dense storms"
            }
            Workload::StormTraced => {
                "storm grid with flight recorder and spans on and a 2.9 MB Chrome trace rendered: the telemetry-enabled path the other workloads leave dark"
            }
            Workload::Metro10kD4 => {
                "metro Domain kernel on 4 cache-resident shards: epoch barriers and mailbox exchange are as large a share as they get; full-fidelity stack idle"
            }
            Workload::Metro50kD1 => {
                "same metro kernel, one queue, 5x the working set: locality fixes show here and should not move metro_10k_d4; exchange is zero"
            }
        }
    }
}

/// What one pass produced: enough to check it and to compare two passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassOutput {
    /// Simulator events the pass processed.
    pub events: u64,
    /// Hash of everything the pass computed (tables, artifacts, series).
    pub fingerprint: u64,
}

/// Folds the outputs of a pass's parts into the pass's output. A one-part
/// pass is its part.
#[derive(Default)]
pub struct Whole {
    parts: Vec<PassOutput>,
}

impl Whole {
    pub fn add(&mut self, part: PassOutput) {
        self.parts.push(part);
    }

    pub fn finish(self) -> PassOutput {
        if let [only] = self.parts[..] {
            return only;
        }
        let mut fp = Fingerprint::new();
        for p in &self.parts {
            fp.word(p.fingerprint);
        }
        PassOutput {
            events: self.parts.iter().map(|p| p.events).sum(),
            fingerprint: fp.finish(),
        }
    }
}

/// Word-at-a-time FNV-style hash. Hashing a 2.9 MB trace byte-wise would
/// cost ~3 % of a `storm_traced` pass; this costs a tenth of that.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail) ^ (bytes.len() as u64) << 56);
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Feeds `Debug` output straight into the hash, without building a string
/// (the counted pass must not see harness allocations).
impl fmt::Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

fn digest<R: Debug>(result: &R, events: u64) -> PassOutput {
    let mut fp = Fingerprint::new();
    let _ = write!(fp, "{result:?}");
    PassOutput {
        events,
        fingerprint: fp.finish(),
    }
}

fn digest_text(text: &str, events: u64) -> PassOutput {
    let mut fp = Fingerprint::new();
    fp.bytes(text.as_bytes());
    PassOutput {
        events,
        fingerprint: fp.finish(),
    }
}

/// One figure of the `repro` suite: how `repro` renders it at the reference
/// seed, and the same experiment on a generated seed.
pub struct Figure {
    pub name: &'static str,
    /// `scenarios.experiments.<group>_share` the figure's time counts under.
    pub group: &'static str,
    golden: fn(usize) -> FigureRun,
    seeded: fn(u64) -> PassOutput,
}

macro_rules! seeded {
    ($s:ident => $call:expr) => {
        |$s: u64| {
            let r = $call;
            digest(&r, r.events)
        }
    };
}

const MS2: SimDuration = SimDuration::from_millis(2);
const DUAL_BLIND: Scheme = Scheme::Dual { classify: false };
const DUAL_CLASS: Scheme = Scheme::Dual { classify: true };

/// The 18 figures in `repro` order, with `fh_bench`'s parameters.
pub const FIGURES: [Figure; 18] = [
    Figure {
        name: "fig4.2",
        group: "grid",
        golden: fh_bench::fig4_2,
        seeded: seeded!(s => experiments::buffer_utilization(fig42_params(s), 1)),
    },
    Figure {
        name: "fig4.3",
        group: "qos",
        golden: fh_bench::fig4_3,
        seeded: seeded!(s => experiments::qos_drops(
            Scheme::NarOnly, params::FH_CAPACITY, params::REQUEST, params::HANDOFFS, s)),
    },
    Figure {
        name: "fig4.4",
        group: "qos",
        golden: fh_bench::fig4_4,
        seeded: seeded!(s => experiments::qos_drops(
            DUAL_BLIND, params::PROPOSED_CAPACITY, params::REQUEST, params::HANDOFFS, s)),
    },
    Figure {
        name: "fig4.5",
        group: "qos",
        golden: fh_bench::fig4_5,
        seeded: seeded!(s => experiments::qos_drops(
            DUAL_CLASS, params::PROPOSED_CAPACITY, params::REQUEST, params::HANDOFFS, s)),
    },
    Figure {
        name: "fig4.6",
        group: "qos",
        golden: fh_bench::fig4_6,
        seeded: seeded!(s => experiments::rate_sweep(
            &FIG_4_6_RATES, params::PROPOSED_CAPACITY, params::REQUEST, s, 1)),
    },
    Figure {
        name: "fig4.7",
        group: "delay",
        golden: fh_bench::fig4_7,
        seeded: seeded!(s => experiments::delay_trace(
            Scheme::NarOnly, params::FH_CAPACITY, params::REQUEST, MS2, s)),
    },
    Figure {
        name: "fig4.8",
        group: "delay",
        golden: fh_bench::fig4_8,
        seeded: seeded!(s => experiments::delay_trace(
            DUAL_BLIND, params::PROPOSED_CAPACITY, params::REQUEST, MS2, s)),
    },
    Figure {
        name: "fig4.9",
        group: "delay",
        golden: fh_bench::fig4_9,
        seeded: seeded!(s => experiments::delay_trace(
            DUAL_CLASS, params::PROPOSED_CAPACITY, params::REQUEST, MS2, s)),
    },
    Figure {
        name: "fig4.10",
        group: "delay",
        golden: fh_bench::fig4_10,
        seeded: seeded!(s => experiments::delay_trace(
            DUAL_CLASS, params::PROPOSED_CAPACITY, params::REQUEST,
            SimDuration::from_millis(50), s)),
    },
    Figure {
        name: "fig4.12",
        group: "tcp",
        golden: fh_bench::fig4_12,
        seeded: seeded!(s => experiments::tcp_l2_handoff(false, s)),
    },
    Figure {
        name: "fig4.13",
        group: "tcp",
        golden: fh_bench::fig4_13,
        seeded: seeded!(s => experiments::tcp_l2_handoff(true, s)),
    },
    Figure {
        name: "fig4.14",
        group: "tcp",
        golden: fh_bench::fig4_14,
        seeded: |s| {
            let with = experiments::tcp_l2_handoff(true, s);
            let without = experiments::tcp_l2_handoff(false, s);
            digest(&(&with, &without), with.events + without.events)
        },
    },
    Figure {
        name: "threshold",
        group: "ablation",
        golden: fh_bench::ablation_threshold,
        seeded: seeded!(s => experiments::threshold_sweep(&[0, 1, 2, 4, 8, 12, 16, 19], s, 1)),
    },
    Figure {
        name: "pacing",
        group: "ablation",
        golden: fh_bench::ablation_pacing,
        seeded: seeded!(s => experiments::flush_pacing_sweep(&[0, 500, 1_000, 2_000, 5_000], s, 1)),
    },
    Figure {
        name: "background",
        group: "ablation",
        golden: fh_bench::ablation_background,
        seeded: seeded!(s => experiments::background_load(&[64.0, 256.0, 512.0, 1024.0], s, 1)),
    },
    Figure {
        name: "blackout",
        group: "ablation",
        golden: fh_bench::ablation_blackout,
        seeded: seeded!(s => experiments::blackout_sweep(&[60, 100, 200, 300, 400], s, 1)),
    },
    Figure {
        name: "signaling",
        group: "ablation",
        golden: fh_bench::ablation_signaling,
        seeded: seeded!(s => experiments::signaling_overhead(s)),
    },
    Figure {
        name: "chaos",
        group: "chaos",
        golden: fh_bench::chaos,
        seeded: seeded!(s => experiments::chaos_sweep(&CHAOS_LOSS_PROBS, s, 1)),
    },
];

/// Fig 4.2's parameters for a figure seed. `repro` runs this one figure on
/// the experiment's default seed, not on `params::SEED`.
fn fig42_params(figure_seed: u64) -> BufferUtilizationParams {
    let default = BufferUtilizationParams::default();
    BufferUtilizationParams {
        seed: if figure_seed == REFERENCE_SEED {
            default.seed
        } else {
            figure_seed
        },
        ..default
    }
}

/// The seed of figure `index`: `repro`'s own at the reference seed, else
/// derived per figure so the 18 experiments face independent streams.
fn figure_seed(seed: u64, index: usize) -> u64 {
    if seed == REFERENCE_SEED {
        REFERENCE_SEED
    } else {
        derive_seed(seed, index as u64)
    }
}

/// Expectations a plan's author tuned to the reference seed's draw (the
/// chaos-burst plan allows 200 drops per class; one seed in twenty draws
/// 250). On another seed, exceeding one is a different sample, not a wrong
/// simulator: only the invariants (conservation, leaks, recorder, wedged
/// sessions, shed order) fail a pass there.
const SEED_TUNED: [&str; 4] = [
    "max_failed_ratio",
    "class_drop_max",
    "class_p99_max_ms",
    "max_bytes_parked",
];

/// The four schemes Fig 4.2 plots, in series order.
const FIG42_SCHEMES: [Scheme; 4] = [
    Scheme::NarOnly,
    Scheme::ParOnly,
    DUAL_BLIND,
    Scheme::NoBuffer,
];

/// One Fig 4.2 grid point built through the scenario API, the way
/// `experiments::buffer_utilization` builds it, with a span per phase.
/// Returns `(drops, events)`; the scenario is handed to `inspect` before it
/// is finalized and dropped.
pub fn fig42_point(
    tracer: &mut Tracer,
    params: BufferUtilizationParams,
    scheme: Scheme,
    n: usize,
    inspect: impl FnOnce(&HmipScenario),
) -> (u64, u64) {
    let (mut scenario, flows) = tracer.span("scenarios", "hmip.build", |_| {
        let mut protocol = ProtocolConfig::with_scheme(scheme);
        protocol.buffer_request = params.buffer_request;
        let mut scenario = HmipScenario::build(HmipConfig {
            protocol,
            n_mhs: n,
            buffer_capacity: params.buffer_capacity,
            movement: MovementPlan::OneWay,
            seed: derive_seed(params.seed, (n - 1) as u64),
            ..HmipConfig::default()
        });
        let flows: Vec<_> = (0..n)
            .map(|i| scenario.add_audio_64k(i, ServiceClass::Unspecified))
            .collect();
        scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_millis(13_000));
        ((scenario, flows), 0)
    });
    let events = tracer.span("simcore", "hmip.run", |_| {
        scenario.run_until(SimTime::from_secs(16));
        let events = scenario.sim.events_processed();
        (events, events)
    });
    let drops = tracer.span("scenarios", "hmip.finalize", |_| {
        let drops = flows.iter().map(|&f| scenario.flow_losses(f)).sum();
        inspect(&scenario);
        scenario.finalize();
        drop(scenario);
        (drops, 0)
    });
    (drops, events)
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    Fig42(BufferUtilizationParams),
    Repro([u64; 18]),
    Corpus,
    Storm,
    Metro(MetroConfig),
}

pub fn metro_config(w: Workload, seed: u64) -> MetroConfig {
    match w {
        Workload::Metro10kD4 => MetroConfig {
            hosts: 10_000,
            domains: 4,
            seed,
            ..MetroConfig::default()
        },
        // One simulated second instead of five: the working set (what the
        // workload is here for) is set by the host count, and a ~0.3 s pass
        // is short enough for the calibration samples around it to see the
        // same noise regime, and can be repeated thirty times in a run.
        _ => MetroConfig {
            hosts: 50_000,
            domains: 1,
            seed,
            ..metro_short()
        },
    }
}

/// The metro deployment with a 1 s horizon, used wherever only the event
/// *rate* at a host count matters (`metro_50k_d1`, the scaling points).
pub fn metro_short() -> MetroConfig {
    MetroConfig {
        traffic_stop: SimTime::from_millis(800),
        horizon: SimTime::from_secs(1),
        ..MetroConfig::default()
    }
}

fn check_metro(r: &MetroResults) -> Result<(), String> {
    let violations = r.counts.conservation_violations();
    if !violations.is_empty() {
        return Err(format!("metro conservation violated: {violations:?}"));
    }
    if !r.leak_clean {
        return Err("metro pools did not drain (leak_clean = false)".to_owned());
    }
    Ok(())
}

impl Inputs {
    /// Generates `w`'s inputs from `seed`. The same seed gives the same
    /// inputs; [`REFERENCE_SEED`] gives the repo's canonical ones.
    pub fn generate(w: Workload, seed: u64) -> Self {
        let kind = match w {
            Workload::Fig42Grid => Kind::Fig42(fig42_params(figure_seed(seed, 0))),
            Workload::ReproSuite => Kind::Repro(std::array::from_fn(|i| figure_seed(seed, i))),
            Workload::CorpusPlans => Kind::Corpus,
            Workload::StormTraced => Kind::Storm,
            Workload::Metro10kD4 | Workload::Metro50kD1 => Kind::Metro(metro_config(w, seed)),
        };
        Inputs {
            workload: w,
            seed,
            kind,
        }
    }

    /// How many separately callable parts a pass is made of (18 figures,
    /// 15 plans, or one call). The harness samples the calibration kernel
    /// between parts, so a part should not outlast a noise regime.
    pub fn parts(&self) -> usize {
        match self.kind {
            Kind::Repro(_) => FIGURES.len(),
            Kind::Corpus => fh_bench::planio::CORPUS.len(),
            Kind::Fig42(_) | Kind::Storm | Kind::Metro(_) => 1,
        }
    }

    /// Runs one whole pass: every part in order, under one root span.
    ///
    /// # Errors
    ///
    /// See [`Inputs::part`].
    pub fn pass(&self, tracer: &mut Tracer) -> Result<PassOutput, String> {
        tracer.next_pass();
        tracer.span("bench", self.workload.name(), |t| {
            let mut whole = Whole::default();
            for i in 0..self.parts() {
                match self.part(i, t) {
                    Ok(out) => whole.add(out),
                    Err(e) => return (Err(e), 0),
                }
            }
            let out = whole.finish();
            (Ok(out), out.events)
        })
    }

    /// Runs part `index` of a pass. With an enabled tracer a part is
    /// decomposed further into the public calls it is made of, one span
    /// each; with a disabled one it is the call a user would make.
    ///
    /// # Errors
    ///
    /// A message when the part's own invariants do not hold. (The crates
    /// assert conservation, leak and expectation audits themselves; the
    /// caller catches those panics and counts them as failed passes too.)
    pub fn part(&self, index: usize, tracer: &mut Tracer) -> Result<PassOutput, String> {
        match &self.kind {
            Kind::Fig42(p) if tracer.enabled() => {
                // Rebuilt as the untraced result type, so that its hash
                // equals the untraced pass's exactly when the grids agree.
                let mut r = BufferUtilizationResult {
                    series: Vec::with_capacity(FIG42_SCHEMES.len()),
                    events: 0,
                };
                for scheme in FIG42_SCHEMES {
                    let mut points = Vec::with_capacity(p.max_mhs);
                    for n in 1..=p.max_mhs {
                        let (drops, events) = fig42_point(tracer, *p, scheme, n, |_| {});
                        points.push((n, drops));
                        r.events += events;
                    }
                    r.series.push(SchemeSeries {
                        label: scheme.label().to_owned(),
                        points,
                    });
                }
                Ok(digest(&r, r.events))
            }
            Kind::Fig42(p) => {
                let r = experiments::buffer_utilization(*p, 1);
                if r.series.len() != 4 || r.series.iter().any(|s| s.points.len() != p.max_mhs) {
                    return Err("Fig 4.2 grid has the wrong shape".to_owned());
                }
                Ok(digest(&r, r.events))
            }
            Kind::Repro(seeds) => {
                let fig = &FIGURES[index];
                let label = format!("{}:{}", fig.group, fig.name);
                Ok(tracer.span("scenarios", &label, |_| {
                    let out = (fig.seeded)(seeds[index]);
                    (out, out.events)
                }))
            }
            Kind::Corpus => {
                let (file, toml) = fh_bench::planio::CORPUS[index];
                let (line, events) = self.corpus_plan(file, toml, tracer)?;
                Ok(digest_text(&line, events))
            }
            Kind::Storm => {
                let r = tracer.span("telemetry", "storm_timeline", |_| {
                    let r = experiments::storm_timeline(&STORM_SIZES, self.seed, 1);
                    let events = r.events;
                    (r, events)
                });
                Ok(digest_text(&r.chrome_json, r.events))
            }
            Kind::Metro(cfg) => {
                let r = tracer.span("metro", "metro.run", |_| {
                    let r = fh_metro::run(cfg, 1);
                    let events = r.events_processed;
                    (r, events)
                });
                check_metro(&r)?;
                Ok(digest_text(&r.artifact(), r.events_processed))
            }
        }
    }

    /// One corpus plan: what `planio::run_corpus` does per plan, spelled
    /// out so each public call gets a span and a violated expectation can
    /// be judged (see [`SEED_TUNED`]). Returns `run_corpus`'s status line
    /// (at the reference seed the two must hash alike — `verify` checks)
    /// and the plan's events.
    fn corpus_plan(
        &self,
        file: &str,
        toml: &str,
        tracer: &mut Tracer,
    ) -> Result<(String, u64), String> {
        let plan = tracer
            .span("scenarios", "plan.parse", |_| {
                (ScenarioPlan::from_toml(toml, file), 0)
            })
            .map_err(|e| e.to_string())?
            .with_seed(self.seed);
        let outcome = tracer.span("scenarios", "plan.run", |_| {
            let o = run_plan(&plan, 1);
            let ev = o.events;
            (o, ev)
        });
        let broken = outcome
            .report
            .entries
            .iter()
            .any(|e| self.seed == REFERENCE_SEED || !SEED_TUNED.contains(&e.check.as_str()));
        if broken {
            return Err(outcome.report.to_json());
        }
        let hash = tracer.span("bench", "planio.fnv", |_| {
            (fnv1a64_hex(outcome.artifact.as_bytes()), 0)
        });
        let line = format!(
            "{}: ok fnv1a={hash} ({} points, {} events)\n",
            plan.name,
            outcome.points.len(),
            outcome.events
        );
        Ok((line, outcome.events))
    }

    /// The once-per-run checks that are too dear to repeat every pass: the
    /// golden comparison on the reference inputs, and the cross-checks of
    /// this seed's `first` pass (same events as the untraced storm sweep;
    /// same metro artifact on two worker threads).
    ///
    /// # Errors
    ///
    /// A message naming the first mismatch.
    pub fn verify(&self, golden: &Golden, first: PassOutput) -> Result<(), String> {
        let w = self.workload;
        let expected = golden.events_of(w);
        if self.seed == REFERENCE_SEED && first.events != expected {
            return Err(format!(
                "{}: {} events at the reference seed, expected {expected}",
                w.name(),
                first.events
            ));
        }
        let reference_events = match &self.kind {
            Kind::Fig42(_) => {
                let run = fh_bench::fig4_2(1);
                if Some(run.text.as_str()) != golden.fig42_block() {
                    return Err("fig4.2 table differs from tests/golden/repro_stdout.txt".into());
                }
                run.events
            }
            Kind::Repro(_) => {
                let mut stdout = String::new();
                let mut events = 0;
                for fig in &FIGURES {
                    let run = (fig.golden)(1);
                    let _ = writeln!(stdout, "==== {} ====\n{}", fig.name, run.text);
                    events += run.events;
                }
                if stdout != golden.repro_stdout {
                    return Err("repro stdout differs from tests/golden/repro_stdout.txt".into());
                }
                events
            }
            // The public entry point, every plan's own FNV lock armed.
            Kind::Corpus => {
                let text = fh_bench::planio::run_corpus(REFERENCE_SEED, 1)?;
                let mut whole = Whole::default();
                for line in text.split_inclusive('\n').filter(|l| l.contains(": ok ")) {
                    whole.add(digest_text(line, corpus_events(line)?));
                }
                let reference = whole.finish();
                if self.seed == REFERENCE_SEED && reference != first {
                    return Err("the harness's corpus loop and run_corpus disagree".to_owned());
                }
                reference.events
            }
            Kind::Storm => {
                let timeline = experiments::storm_timeline(&TIMELINE_SIZES, REFERENCE_SEED, 1);
                if timeline.chrome_json != golden.timeline_json {
                    return Err("storm timeline differs from tests/golden/timeline.json".into());
                }
                let dark = experiments::storm_sweep(&STORM_SIZES, self.seed, 1).events;
                if dark != first.events {
                    return Err(format!(
                        "storm_timeline processed {} events, storm_sweep {dark}",
                        first.events
                    ));
                }
                experiments::storm_timeline(&STORM_SIZES, REFERENCE_SEED, 1).events
            }
            Kind::Metro(cfg) => {
                let two = fh_metro::run(cfg, 2);
                check_metro(&two)?;
                if digest_text(&two.artifact(), two.events_processed) != first {
                    return Err("metro artifact differs between threads 1 and 2".to_owned());
                }
                let reference = fh_metro::run(&metro_config(w, REFERENCE_SEED), 1);
                check_metro(&reference)?;
                let got = digest_text(&reference.artifact(), 0).fingerprint;
                let want = golden.metro_artifact_of(w);
                if Some(got) != want {
                    return Err(format!(
                        "{}: reference artifact fingerprint {got:#x}, expected {want:#x?}",
                        w.name()
                    ));
                }
                reference.events_processed
            }
        };
        if reference_events != expected {
            return Err(format!(
                "{}: {reference_events} events on the reference inputs, expected {expected}",
                w.name()
            ));
        }
        Ok(())
    }
}

/// Sums the `N events)` figures of `run_corpus`'s status lines.
fn corpus_events(text: &str) -> Result<u64, String> {
    let mut total = 0u64;
    for line in text.lines().filter(|l| l.ends_with(" events)")) {
        let n = line
            .trim_end_matches(" events)")
            .rsplit(' ')
            .next()
            .and_then(|n| n.parse::<u64>().ok())
            .ok_or_else(|| format!("unreadable corpus status line: {line}"))?;
        total += n;
    }
    if total == 0 {
        return Err("corpus reported no events".to_owned());
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_index_all() {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            assert_eq!(w as usize, i);
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_reference_is_canonical() {
        let a = format!("{:?}", Inputs::generate(Workload::ReproSuite, 7));
        let b = format!("{:?}", Inputs::generate(Workload::ReproSuite, 7));
        let c = format!("{:?}", Inputs::generate(Workload::ReproSuite, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let Kind::Repro(seeds) = Inputs::generate(Workload::ReproSuite, REFERENCE_SEED).kind else {
            panic!("repro inputs");
        };
        assert!(seeds.iter().all(|&s| s == params::SEED));
        let Kind::Fig42(p) = Inputs::generate(Workload::Fig42Grid, REFERENCE_SEED).kind else {
            panic!("fig42 inputs");
        };
        assert_eq!(p.seed, BufferUtilizationParams::default().seed);
    }

    #[test]
    fn corpus_status_lines_sum() {
        let text = "a: ok fnv1a=0x1 (2 points, 10 events)\nb: ok fnv1a=0x2 (1 points, 5 events)\ncorpus: 2 plans ok (seed 1)\n";
        assert_eq!(corpus_events(text), Ok(15));
        assert!(corpus_events("corpus: 0 plans ok\n").is_err());
    }

    #[test]
    fn fingerprint_sees_every_byte_and_the_length() {
        let fp = |b: &[u8]| {
            let mut f = Fingerprint::new();
            f.bytes(b);
            f.finish()
        };
        assert_ne!(fp(b"abcdefgh1"), fp(b"abcdefgh2"));
        assert_ne!(fp(b"abc"), fp(b"abc\0"));
        assert_eq!(fp(b"same"), fp(b"same"));
    }
}
