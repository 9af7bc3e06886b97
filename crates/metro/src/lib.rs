//! # fh-metro — the sharded multi-domain (metro-scale) simulation kernel
//!
//! The paper's evaluation is one MAP, a handful of ARs and single-digit
//! hosts; the deployments the buffer-management scheme is *for* are
//! hierarchical HMIPv6 metros: many MAP domains, tens of thousands of
//! mobile hosts. This crate is the kernel for that scale. It partitions
//! one simulation by MAP domain — each [`domain::Domain`] owns its own
//! event set, RNG lineage ([`fh_sim::derive_domain_seed`]), packet
//! pool and counters — and advances all domains in lock-stepped epochs
//! under [`fh_sim::shard::run_epochs`], with the fixed inter-MAP
//! [`MetroConfig::boundary_latency`] as the conservative lookahead.
//!
//! The result is the repo's first *intra-run* parallelism, under the
//! same contract as everything else: **byte-identical output at any
//! thread count**. Within an epoch, shards share nothing; at the epoch
//! barrier, mailboxes drain in (source domain, send order) order; the
//! merged registry is folded in domain-index order. No step depends on
//! which worker ran what.
//!
//! ```
//! use fh_metro::{run, MetroConfig};
//!
//! let cfg = MetroConfig { hosts: 60, domains: 3, ..MetroConfig::default() };
//! let a = run(&cfg, 1); // sequential
//! let b = run(&cfg, 4); // sharded across 4 workers
//! assert_eq!(a.artifact(), b.artifact());
//! assert!(a.counts.conservation_violations().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod domain;

use std::time::Duration;

use fh_core::Scheme;
use fh_sim::shard::{run_epochs, EpochReport};
use fh_sim::stats::Histogram;
use fh_sim::{derive_seed, SimDuration, SimTime};
use fh_telemetry::{Cell, CsvTable, MetricsRegistry};

pub use domain::{ClassCounts, CrossPacket, Domain, CLASS_LABELS};

/// Everything a metro run needs, with the paper-informed defaults the
/// scenario layer overrides from `[topology.domains]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroConfig {
    /// Number of MAP domains (shards). 1 reproduces the single-queue
    /// kernel exactly — no barriers, no boundaries.
    pub domains: u32,
    /// Total mobile hosts, homed round-robin across domains.
    pub hosts: u32,
    /// One-way latency of every inter-MAP boundary link. It is the
    /// conservative lookahead, so it must be positive when `domains > 1`.
    pub boundary_latency: SimDuration,
    /// Fraction of hosts whose correspondent lives in another domain
    /// (their traffic crosses a boundary).
    pub remote_fraction: f64,
    /// Mean of the exponential dwell time between handovers.
    pub mean_residence: SimDuration,
    /// Radio-dark window of each handover.
    pub blackout: SimDuration,
    /// Buffer-management scheme under test.
    pub scheme: Scheme,
    /// Per-handover buffer reservation, in packets (the thesis' `N`).
    pub buffer_request: u32,
    /// Pacing between packets of a post-handover flush.
    pub flush_spacing: SimDuration,
    /// CBR inter-packet interval per host flow.
    pub packet_interval: SimDuration,
    /// On-wire packet size in bytes.
    pub packet_bytes: u32,
    /// Traffic window start.
    pub traffic_start: SimTime,
    /// Traffic window end (generator chains stop here).
    pub traffic_stop: SimTime,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// Base seed; per-domain streams derive through the domain salt.
    pub seed: u64,
}

impl Default for MetroConfig {
    fn default() -> Self {
        MetroConfig {
            domains: 4,
            hosts: 1_000,
            boundary_latency: SimDuration::from_millis(8),
            remote_fraction: 0.2,
            mean_residence: SimDuration::from_secs(4),
            blackout: SimDuration::from_millis(120),
            scheme: Scheme::PROPOSED,
            buffer_request: 20,
            flush_spacing: SimDuration::from_micros(200),
            packet_interval: SimDuration::from_millis(40),
            packet_bytes: 160,
            traffic_start: SimTime::from_millis(200),
            traffic_stop: SimTime::from_secs(4),
            horizon: SimTime::from_secs(5),
            seed: 7,
        }
    }
}

impl MetroConfig {
    /// The domain a host is homed in (round-robin).
    #[must_use]
    pub fn home_domain(&self, host: u32) -> u32 {
        host % self.domains.max(1)
    }

    /// The host's dense index among the hosts homed in its domain.
    /// Round-robin homing puts hosts `d, d + domains, d + 2·domains, …`
    /// in domain `d`, so the index is arithmetic, not a lookup: a
    /// bijection from each domain's hosts onto `0..homed_in(d)`.
    #[must_use]
    pub fn home_slot(&self, host: u32) -> u32 {
        host / self.domains.max(1)
    }

    /// Number of hosts homed in `domain`.
    #[must_use]
    pub fn homed_in(&self, domain: u32) -> u32 {
        let domains = self.domains.max(1);
        if domain >= domains {
            return 0;
        }
        (self.hosts + domains - 1 - domain) / domains
    }

    /// `true` if the host's correspondent lives in another domain.
    ///
    /// Decided by a seed-independent hash of the host index against the
    /// remote fraction, so the remote population is a stable property
    /// of the topology, not of the RNG lineage.
    #[must_use]
    pub fn is_remote(&self, host: u32) -> bool {
        if self.domains < 2 {
            return false;
        }
        let h = derive_seed(0x4D45_5452_4F00, u64::from(host));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.remote_fraction
    }

    /// The domain that *generates* the host's traffic: home for local
    /// flows, a deterministic correspondent domain for remote ones.
    #[must_use]
    pub fn source_domain(&self, host: u32) -> u32 {
        let home = self.home_domain(host);
        if !self.is_remote(host) {
            return home;
        }
        let spread = derive_seed(0x434F_5252, u64::from(host)) % u64::from(self.domains - 1);
        (home + 1 + spread as u32) % self.domains
    }
}

/// Deterministic per-domain roll-up, reported in domain-index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSummary {
    /// Domain index.
    pub index: u32,
    /// Hosts homed in the domain.
    pub hosts: u32,
    /// Events its queue processed.
    pub events: u64,
    /// Handovers its hosts started.
    pub handovers: u64,
    /// Its deterministic tallies.
    pub counts: ClassCounts,
    /// Packets / bytes pushed across boundaries.
    pub boundary_tx: (u64, u64),
    /// Packets / bytes received across boundaries.
    pub boundary_rx: (u64, u64),
}

/// Everything a metro run produces.
///
/// Split into the *deterministic* part (counts, histograms, registry,
/// the rendered [`MetroResults::artifact`]) — byte-identical at any
/// thread count — and the *measured* part (wall-clock, epoch timing
/// decomposition) that only the bench layer reports.
#[derive(Debug)]
pub struct MetroResults {
    /// Tallies summed over all domains.
    pub counts: ClassCounts,
    /// Per-class delay histograms merged over all domains (ms).
    pub delay: [Histogram; 3],
    /// Events processed, all domains.
    pub events_processed: u64,
    /// Handovers started, all domains.
    pub handovers: u64,
    /// Cross-boundary packets (each counted once, at the sender).
    pub boundary_packets: u64,
    /// Cross-boundary bytes (each counted once, at the sender).
    pub boundary_bytes: u64,
    /// `true` when every domain's pool drained to empty.
    pub leak_clean: bool,
    /// Event-set pushes that rode a FIFO lane, all domains. With
    /// `heap_pushes` a deterministic work counter, kept out of the
    /// artifact and the registry (whose bytes are locked).
    pub lane_pushes: u64,
    /// Event-set pushes that went to the heap, all domains: the seeded
    /// population, handover starts, paced flush deliveries, and lane
    /// pushes that arrived out of order.
    pub heap_pushes: u64,
    /// Per-domain roll-ups, domain-index order.
    pub domains: Vec<DomainSummary>,
    /// Per-domain registries merged in domain-index order.
    pub registry: MetricsRegistry,
    /// Epoch executor accounting (barriers, messages, busy/critical
    /// time). Measured, not deterministic.
    pub report: EpochReport,
    /// Wall-clock of the epoch execution (excludes build + finalize).
    pub elapsed: Duration,
}

impl MetroResults {
    /// Worst-case per-class p99 delay in milliseconds (0 when a class
    /// delivered nothing).
    #[must_use]
    pub fn class_p99_ms(&self) -> [f64; 3] {
        let mut out = [0.0; 3];
        for (o, d) in out.iter_mut().zip(&self.delay) {
            *o = d.quantile(0.99).unwrap_or(0.0);
        }
        out
    }

    /// Renders the deterministic artifact: one CSV row per domain plus
    /// a `total` row. Contains **no timing** — every cell is a function
    /// of the simulated world alone, so the bytes are identical at any
    /// thread count and lockable by FNV hash.
    #[must_use]
    pub fn artifact(&self) -> String {
        let mut t = CsvTable::new(&[
            "domain",
            "hosts",
            "events",
            "handovers",
            "generated",
            "delivered",
            "drop_rt",
            "drop_hp",
            "drop_be",
            "boundary_tx_pkts",
            "boundary_rx_pkts",
            "p99_rt_ms",
            "p99_hp_ms",
            "p99_be_ms",
        ]);
        for d in &self.domains {
            t.row(&[
                Cell::U64(u64::from(d.index)),
                Cell::U64(u64::from(d.hosts)),
                Cell::U64(d.events),
                Cell::U64(d.handovers),
                Cell::U64(d.counts.generated.iter().sum()),
                Cell::U64(d.counts.delivered.iter().sum()),
                Cell::U64(d.counts.drops(0)),
                Cell::U64(d.counts.drops(1)),
                Cell::U64(d.counts.drops(2)),
                Cell::U64(d.boundary_tx.0),
                Cell::U64(d.boundary_rx.0),
                Cell::Empty,
                Cell::Empty,
                Cell::Empty,
            ]);
        }
        let p99 = self.class_p99_ms();
        t.row(&[
            Cell::Str("total"),
            Cell::U64(self.domains.iter().map(|d| u64::from(d.hosts)).sum()),
            Cell::U64(self.events_processed),
            Cell::U64(self.handovers),
            Cell::U64(self.counts.generated.iter().sum()),
            Cell::U64(self.counts.delivered.iter().sum()),
            Cell::U64(self.counts.drops(0)),
            Cell::U64(self.counts.drops(1)),
            Cell::U64(self.counts.drops(2)),
            Cell::U64(self.boundary_packets),
            Cell::U64(self.boundary_packets),
            Cell::Fixed(p99[0], 3),
            Cell::Fixed(p99[1], 3),
            Cell::Fixed(p99[2], 3),
        ]);
        t.finish()
    }
}

/// Builds one registry from a finalized domain's counters, under the
/// shared `metro.*` names so the domain-order merge folds them.
fn domain_registry(d: &Domain) -> MetricsRegistry {
    let mut r = MetricsRegistry::default();
    for (k, label) in CLASS_LABELS.iter().enumerate() {
        let id = r.counter(&format!("metro.generated.{label}"));
        r.add(id, d.counts.generated[k]);
        let id = r.counter(&format!("metro.delivered.{label}"));
        r.add(id, d.counts.delivered[k]);
        let id = r.counter(&format!("metro.drop.{label}"));
        r.add(id, d.counts.drops(k));
    }
    let id = r.counter("metro.handover.count");
    r.add(id, d.handovers);
    let id = r.counter("metro.boundary.tx_pkts");
    r.add(id, d.boundary_tx.0);
    let id = r.counter("metro.boundary.tx_bytes");
    r.add(id, d.boundary_tx.1);
    let id = r.counter("metro.events");
    r.add(id, d.events_processed);
    r
}

/// Runs one metro deployment to its horizon on up to `threads` workers.
///
/// Determinism contract: for a fixed config, the deterministic half of
/// the [`MetroResults`] is byte-identical at any `threads` value.
///
/// # Panics
///
/// Panics if `domains == 0`, or if `domains > 1` with a zero boundary
/// latency (no conservative lookahead exists). The scenario layer
/// rejects both with pointed file errors before getting here.
#[must_use]
pub fn run(cfg: &MetroConfig, threads: usize) -> MetroResults {
    assert!(
        cfg.domains > 0,
        "a metro deployment needs at least one domain"
    );
    assert!(
        cfg.domains == 1 || !cfg.boundary_latency.is_zero(),
        "boundary latency must be > 0 when domains > 1 (it is the lookahead)"
    );
    let mut domains: Vec<Domain> = (0..cfg.domains).map(|i| Domain::new(i, cfg)).collect();
    let start = std::time::Instant::now();
    let report = run_epochs(&mut domains, cfg.boundary_latency, cfg.horizon, threads);
    let elapsed = start.elapsed();

    let mut counts = ClassCounts::default();
    let mut delay: [Histogram; 3] = std::array::from_fn(|_| domain::delay_histogram());
    let mut registry = MetricsRegistry::default();
    let mut summaries = Vec::with_capacity(domains.len());
    let mut leak_clean = true;
    let mut events = 0u64;
    let mut handovers = 0u64;
    let mut btx = (0u64, 0u64);
    let mut pushes = (0u64, 0u64);
    // Merge order is domain-index order — part of the determinism
    // contract (registry folding and histogram merging are commutative
    // today, but the order is pinned so they never need to be).
    for d in &mut domains {
        leak_clean &= d.finalize();
        counts.absorb(&d.counts);
        for (dl, dd) in delay.iter_mut().zip(&d.delay) {
            dl.merge(dd);
        }
        registry.merge(&domain_registry(d));
        events += d.events_processed;
        handovers += d.handovers;
        btx.0 += d.boundary_tx.0;
        btx.1 += d.boundary_tx.1;
        let (lane, heap) = d.queue_pushes();
        pushes.0 += lane;
        pushes.1 += heap;
        summaries.push(DomainSummary {
            index: d.index,
            hosts: d.homed_hosts(),
            events: d.events_processed,
            handovers: d.handovers,
            counts: d.counts,
            boundary_tx: d.boundary_tx,
            boundary_rx: d.boundary_rx,
        });
    }
    MetroResults {
        counts,
        delay,
        events_processed: events,
        handovers,
        boundary_packets: btx.0,
        boundary_bytes: btx.1,
        leak_clean,
        lane_pushes: pushes.0,
        heap_pushes: pushes.1,
        domains: summaries,
        registry,
        report,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MetroConfig {
        MetroConfig {
            domains: 3,
            hosts: 90,
            traffic_stop: SimTime::from_secs(2),
            horizon: SimTime::from_millis(2_500),
            ..MetroConfig::default()
        }
    }

    #[test]
    fn run_is_thread_count_invariant() {
        let cfg = small();
        let base = run(&cfg, 1);
        let art = base.artifact();
        for threads in [2, 8] {
            let r = run(&cfg, threads);
            assert_eq!(art, r.artifact(), "threads={threads}");
            assert_eq!(base.counts, r.counts);
        }
    }

    #[test]
    fn conservation_balances_and_pools_drain() {
        let r = run(&small(), 2);
        assert!(r.counts.conservation_violations().is_empty());
        assert!(r.leak_clean);
        assert!(r.counts.generated.iter().sum::<u64>() > 0);
        assert!(r.counts.delivered.iter().sum::<u64>() > 0);
    }

    #[test]
    fn remote_hosts_cross_boundaries() {
        let r = run(&small(), 1);
        assert!(
            r.boundary_packets > 0,
            "remote fraction must produce crossings"
        );
        assert_eq!(r.report.messages, r.boundary_packets);
        let rx: u64 = r.domains.iter().map(|d| d.boundary_rx.0).sum();
        // Every boundary packet is received unless it was still in
        // flight at the final barrier (delivered to a queue, then
        // counted as horizon drop — still received).
        assert_eq!(rx, r.boundary_packets);
    }

    #[test]
    fn single_domain_has_no_boundary_traffic() {
        let cfg = MetroConfig {
            domains: 1,
            hosts: 40,
            ..small()
        };
        let r = run(&cfg, 4);
        assert_eq!(r.boundary_packets, 0);
        assert_eq!(r.report.epochs, 1, "single shard bypasses the epoch loop");
        assert!(r.counts.conservation_violations().is_empty());
    }

    #[test]
    fn schemes_order_rt_drops_sensibly() {
        // With classification on, real-time should never drop more than
        // it does under the class-blind scheme on the same workload.
        let mk = |scheme| {
            let cfg = MetroConfig {
                scheme,
                blackout: SimDuration::from_millis(400),
                mean_residence: SimDuration::from_millis(1_500),
                buffer_request: 4,
                ..small()
            };
            run(&cfg, 2)
        };
        let classified = mk(Scheme::Dual { classify: true });
        let blind = mk(Scheme::Dual { classify: false });
        let none = mk(Scheme::NoBuffer);
        assert!(classified.counts.drops(0) <= blind.counts.drops(0));
        assert!(none.counts.drops(0) >= classified.counts.drops(0));
        assert!(
            none.counts.dropped_blackout.iter().sum::<u64>()
                > blind.counts.dropped_blackout.iter().sum::<u64>()
        );
    }

    #[test]
    fn registry_merges_in_domain_order_to_run_totals() {
        let r = run(&small(), 2);
        assert_eq!(
            r.registry.counter_value("metro.generated.rt"),
            r.counts.generated[0]
        );
        assert_eq!(r.registry.counter_value("metro.events"), r.events_processed);
        assert_eq!(
            r.registry.counter_value("metro.boundary.tx_pkts"),
            r.boundary_packets
        );
    }

    #[test]
    fn home_slot_is_a_bijection_onto_each_domains_dense_range() {
        for domains in [1u32, 3, 4, 7] {
            // 101 is divisible by none of them: domains differ in size.
            let cfg = MetroConfig {
                domains,
                hosts: 101,
                ..MetroConfig::default()
            };
            let mut seen: Vec<Vec<bool>> = (0..domains)
                .map(|d| vec![false; cfg.homed_in(d) as usize])
                .collect();
            for host in 0..cfg.hosts {
                let taken = &mut seen[cfg.home_domain(host) as usize][cfg.home_slot(host) as usize];
                assert!(!*taken, "domains={domains}: slot of host {host} reused");
                *taken = true;
            }
            assert!(seen.iter().flatten().all(|&s| s), "domains={domains}");
            assert_eq!(
                (0..domains).map(|d| cfg.homed_in(d)).sum::<u32>(),
                cfg.hosts
            );
            assert_eq!(cfg.homed_in(domains), 0);
        }
    }

    #[test]
    fn most_pushes_ride_a_lane() {
        // Exact, not wall-clock: a change that de-sorts a lane's stream
        // (or routes a constant-delay push to the heap) moves this count.
        // Both configs sit at 2.5–2.6 %; boundary batches pushed unsorted
        // would alone put four domains at 8.3 %, so the gate is 5 %.
        for domains in [1, 4] {
            let r = run(
                &MetroConfig {
                    domains,
                    ..MetroConfig::default()
                },
                1,
            );
            let pushes = r.lane_pushes + r.heap_pushes;
            assert!(pushes >= r.events_processed);
            assert!(
                r.heap_pushes * 20 <= pushes,
                "domains={domains}: {} of {pushes} pushes went to the heap",
                r.heap_pushes
            );
        }
    }

    #[test]
    #[should_panic(expected = "boundary latency must be > 0")]
    fn zero_lookahead_multi_domain_is_rejected() {
        let cfg = MetroConfig {
            boundary_latency: SimDuration::ZERO,
            ..small()
        };
        let _ = run(&cfg, 1);
    }

    #[test]
    fn remote_population_tracks_the_fraction() {
        let cfg = MetroConfig {
            hosts: 10_000,
            remote_fraction: 0.25,
            ..MetroConfig::default()
        };
        let remote = (0..cfg.hosts).filter(|&h| cfg.is_remote(h)).count();
        let frac = remote as f64 / cfg.hosts as f64;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
        // And is a topology property: the same at any seed.
        let reseeded = MetroConfig {
            seed: 999,
            ..cfg.clone()
        };
        assert_eq!(
            (0..cfg.hosts).filter(|&h| cfg.is_remote(h)).count(),
            (0..cfg.hosts).filter(|&h| reseeded.is_remote(h)).count()
        );
    }
}
