//! Layer probes: each layer's public hot-path calls replayed in isolation.
//!
//! A probe runs a batch of at least 1e5 operations five times and keeps
//! the best batch, as ns per operation. State is built once outside the
//! batches; packets are recycled rather than cloned, so a probe times the
//! call it is named after and nothing else. The numbers answer "what does
//! one call cost", and multiplied by the call counts a run reports they
//! give the attribution estimate in [`crate::layers`].

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::Instant;

use fh_core::policy::{AdmitCtx, AvailabilityCase, BufferPolicy, PolicyEngine, Role};
use fh_core::{AdmissionLimit, BufferPool, Scheme};
use fh_mip::BindingCache;
use fh_net::{
    doc_subnet, ApId, ConnId, ControlMsg, DropReason, FlowId, Link, LinkSpec, NetStats, Packet,
    PacketPool, ServiceClass, TcpFlags, TcpSegment, Topology,
};
use fh_scenarios::{HmipConfig, HmipScenario, MovementPlan};
use fh_sim::stats::Histogram;
use fh_sim::{Actor, Ctx, EventQueue, QueueKind, Rng64, SimDuration, SimTime, Simulator};
use fh_tcp::{TcpConfig, TcpSender};
use fh_telemetry::{ChromeTrace, FlightRecorder, MetricsRegistry};
use fh_wireless::{MihConfig, MihEngine, Position, RadioEnv, SignalModel, WirelessSpec};

use crate::alloc::Window;

/// Operations per batch.
const OPS: u64 = 100_000;
/// Batches per probe; the best is reported.
const BATCHES: usize = 5;

/// Best-of-[`BATCHES`] nanoseconds per operation of `batch`, which runs
/// `ops` operations and returns a value that depends on all of them.
fn ns_per_op(ops: u64, mut batch: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        black_box(batch());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / ops as f64
}

/// Exact heap allocations per operation over one batch.
fn allocs_per_op(ops: u64, mut batch: impl FnMut() -> u64) -> f64 {
    let window = Window::open();
    black_box(batch());
    window.close().allocs as f64 / ops as f64
}

fn addr(i: u16) -> Ipv6Addr {
    doc_subnet(i).host(1)
}

fn data_packet(class: ServiceClass) -> Packet {
    Packet::data(FlowId(1), 0, addr(2), addr(3), class, 160, SimTime::ZERO)
}

/// Hold model on the event queue: a steady population where every pop
/// schedules a successor — the simulator's own access pattern.
fn queue_hold(kind: QueueKind, population: u64) -> f64 {
    let mut rng = Rng64::seed_from(9);
    let mut q = EventQueue::with_kind(kind);
    for i in 0..population {
        q.push(SimTime::from_nanos(rng.gen_range_u64(1_000_000)), i);
    }
    ns_per_op(OPS, || {
        let mut sink = 0;
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("population is steady");
            sink ^= e;
            q.push(
                t + SimDuration::from_nanos(1 + rng.gen_range_u64(1_000_000)),
                e,
            );
        }
        sink
    })
}

/// Arms and disarms one timer per hold step at population 64: a keyed push,
/// an O(1) lazy cancel, and the purge when the dead entry surfaces.
fn queue_cancel() -> f64 {
    let mut rng = Rng64::seed_from(7);
    let mut q = EventQueue::new();
    for i in 0..64 {
        q.push(SimTime::from_nanos(rng.gen_range_u64(1_000_000)), i);
    }
    ns_per_op(OPS, || {
        let mut sink = 0;
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("population is steady");
            let key = q.push(t + SimDuration::from_nanos(500), u64::MAX);
            sink ^= q.cancel(key).unwrap_or(0) ^ e;
            q.push(
                t + SimDuration::from_nanos(1 + rng.gen_range_u64(1_000_000)),
                e,
            );
        }
        sink
    })
}

/// A no-op actor that reschedules itself: what is left of an event when
/// the protocol does nothing.
struct Ticker(u64);

impl Actor<(), u64> for Ticker {
    fn handle(&mut self, ctx: &mut Ctx<'_, (), u64>, _msg: ()) {
        *ctx.shared += 1;
        ctx.send_self(SimDuration::from_nanos(self.0), ());
    }
}

fn actor_dispatch() -> f64 {
    let mut sim = Simulator::new(0u64, 1);
    for i in 0..64u64 {
        let id = sim.add_actor(Box::new(Ticker(1_000 + 37 * i)));
        sim.schedule(SimTime::from_nanos(i), id, ());
    }
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            sim.step();
        }
        sim.shared
    })
}

fn histogram_add() -> f64 {
    let mut h = Histogram::new(0.0, 2_000.0, 2_000);
    let mut rng = Rng64::seed_from(3);
    let xs: Vec<f64> = (0..1024).map(|_| rng.gen_range_u64(2_100) as f64).collect();
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            h.add(xs[i % xs.len()]);
        }
        h.total()
    })
}

/// Results of the `netstack.stats` probes.
pub struct StatsProbe {
    pub flow_record_ns: f64,
    pub drop_record_ns: f64,
    pub control_record_ns: f64,
    pub control_record_allocs: f64,
}

fn net_stats() -> StatsProbe {
    let mut stats = NetStats::new();
    // 20 flows: the widest Fig 4.2 point.
    let flow_record_ns = ns_per_op(OPS, || {
        for i in 0..OPS / 2 {
            let flow = FlowId((i % 20) as u32);
            stats.record_sent(flow);
            stats.record_delivered(flow);
        }
        stats.delivered
    });
    let drop_record_ns = ns_per_op(OPS, || {
        for i in 0..OPS {
            let reason = DropReason::ALL[i as usize % DropReason::ALL.len()];
            stats.record_drop(SimTime::ZERO, FlowId((i % 20) as u32), reason);
        }
        stats.total_drops()
    });
    let msgs = [
        ControlMsg::RouterSolicitation,
        ControlMsg::RtSolPr {
            target_ap: ApId(1),
            bi: None,
        },
    ];
    let mut control = || {
        for i in 0..OPS as usize {
            stats.record_control(SimTime::ZERO, &msgs[i % msgs.len()]);
        }
        0
    };
    let control_record_ns = ns_per_op(OPS, &mut control);
    let control_record_allocs = allocs_per_op(OPS, &mut control);
    black_box(stats.control_total());
    StatsProbe {
        flow_record_ns,
        drop_record_ns,
        control_record_ns,
        control_record_allocs,
    }
}

fn link_transmit() -> f64 {
    let mut topo = Topology::new();
    let (a, b) = (topo.add_node("a"), topo.add_node("b"));
    let mut link = Link::new(
        a,
        b,
        LinkSpec::new(100_000_000, SimDuration::from_millis(2), 50),
    );
    let mut now = SimTime::ZERO;
    ns_per_op(OPS, || {
        let mut sink = 0;
        for _ in 0..OPS {
            // One 160-byte packet per 20 us: the queue never fills.
            now += SimDuration::from_micros(20);
            sink ^= link.try_transmit(now, a, 160).map_or(0, SimTime::as_nanos);
        }
        sink
    })
}

fn pool_insert_remove() -> f64 {
    let mut pool = PacketPool::new();
    let mut ring: Vec<_> = (0..64)
        .map(|_| pool.insert(data_packet(ServiceClass::HighPriority)))
        .collect();
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            let slot = i % ring.len();
            let pkt = pool.remove(ring[slot]).expect("handle is live");
            ring[slot] = pool.insert(pkt);
        }
        pool.len() as u64
    })
}

fn packet_clone() -> f64 {
    let pkt = data_packet(ServiceClass::RealTime);
    ns_per_op(OPS, || {
        let mut sink = 0;
        for _ in 0..OPS {
            sink += u64::from(black_box(black_box(&pkt).clone()).size);
        }
        sink
    })
}

/// Route computation on a 10-node chain with cross links, in microseconds
/// per call: the topology-sized part of every world build.
fn compute_routes_us() -> f64 {
    let mut topo = Topology::new();
    let nodes: Vec<_> = (0..10).map(|i| topo.add_node(format!("n{i}"))).collect();
    let spec = LinkSpec::new(10_000_000, SimDuration::from_millis(1), 50);
    for w in nodes.windows(2) {
        topo.add_link(w[0], w[1], spec);
    }
    topo.add_link(nodes[0], nodes[5], spec);
    topo.add_link(nodes[7], nodes[2], spec);
    for (i, &node) in nodes.iter().enumerate() {
        topo.add_prefix(doc_subnet(i as u16), node);
    }
    let calls = 2_000;
    ns_per_op(calls, || {
        for _ in 0..calls {
            topo.compute_routes();
        }
        topo.node_count() as u64
    }) / 1e3
}

fn radio_attachment() -> f64 {
    let mut env = RadioEnv::new(WirelessSpec::default_80211b());
    let mut topo = Topology::new();
    let router = topo.add_node("ar");
    let aps = [
        env.add_ap(router, Position::new(0.0, 0.0), 112.0),
        env.add_ap(router, Position::new(212.0, 0.0), 112.0),
    ];
    let hosts: Vec<_> = (0..20).map(|i| topo.add_node(format!("mh{i}"))).collect();
    for (i, &mh) in hosts.iter().enumerate() {
        env.attach(mh, aps[i % 2]);
    }
    ns_per_op(OPS, || {
        let mut sink = 0;
        for i in 0..OPS as usize {
            sink += u64::from(env.attachment(hosts[i % hosts.len()]).map_or(0, |ap| ap.0));
        }
        sink
    })
}

fn mih_sample() -> f64 {
    let mut engine = MihEngine::new(MihConfig::default(), SignalModel::default());
    engine.on_attach();
    // Hovering around the going-down margin, never crossing into LinkDown.
    let rssi: Vec<f64> = (0..64).map(|i| -70.0 - f64::from(i % 16)).collect();
    ns_per_op(OPS, || {
        let mut sink = 0;
        for i in 0..OPS as usize {
            sink += u64::from(engine.on_sample(rssi[i % rssi.len()]).is_some());
            if i % 64 == 63 {
                engine.on_attach();
            }
        }
        sink
    })
}

fn binding_lookup() -> f64 {
    let mut cache = BindingCache::new();
    for i in 0..20 {
        cache.update(
            addr(i),
            addr(100 + i),
            SimDuration::from_secs(60),
            SimTime::ZERO,
        );
    }
    let now = SimTime::from_secs(1);
    ns_per_op(OPS, || {
        let mut sink = 0;
        for i in 0..OPS {
            sink += u64::from(cache.lookup(addr((i % 20) as u16), now).is_some());
        }
        sink
    })
}

/// Results of the `core.buffer` probes.
pub struct BufferProbe {
    pub admit_drain_ns: f64,
    pub admit_drain_ns_s64: f64,
    pub dropfront_ns: f64,
    pub shed_ns: f64,
    pub session_lookup_ns: f64,
}

fn buffer_pool() -> BufferProbe {
    let cycles = OPS / 64;
    // One session, 64 packets admitted under its grant and flushed.
    let admit_drain_ns = {
        let key = addr(1);
        let mut pool = BufferPool::new(64);
        pool.grant(key, 64);
        let mut pkts: Vec<Packet> = (0..64)
            .map(|_| data_packet(ServiceClass::HighPriority))
            .collect();
        ns_per_op(cycles * 64, || {
            for _ in 0..cycles {
                for pkt in pkts.drain(..) {
                    let _ = pool.try_buffer(key, pkt, AdmissionLimit::Grant);
                }
                pkts = pool.drain(key);
            }
            pkts.len() as u64
        })
    };
    // 64 sessions (a storm), one packet each per cycle.
    let keys: Vec<Ipv6Addr> = (0..64).map(addr).collect();
    let mut pool = BufferPool::new(64 * 8);
    for &key in &keys {
        pool.grant(key, 8);
    }
    let admit_drain_ns_s64 = {
        let mut pkts: Vec<Packet> = (0..64)
            .map(|_| data_packet(ServiceClass::HighPriority))
            .collect();
        ns_per_op(cycles * 64, || {
            for _ in 0..cycles {
                for (pkt, &key) in pkts.drain(..).zip(&keys) {
                    let _ = pool.try_buffer(key, pkt, AdmissionLimit::Grant);
                }
                for &key in &keys {
                    pkts.append(&mut pool.drain(key));
                }
            }
            pkts.len() as u64
        })
    };
    let session_lookup_ns = ns_per_op(OPS, || {
        let mut sink = 0;
        for i in 0..OPS as usize {
            sink += pool.session_len(keys[i % keys.len()]) as u64;
        }
        sink
    });
    // Overload shedding: every session holds best-effort packets; shed the
    // oldest and put it back.
    for &key in &keys {
        for _ in 0..4 {
            let _ = pool.try_buffer(
                key,
                data_packet(ServiceClass::BestEffort),
                AdmissionLimit::Grant,
            );
        }
    }
    let shed_ns = ns_per_op(OPS, || {
        let mut sink = 0;
        for _ in 0..OPS {
            if let Some((key, pkt)) = pool.shed_class_front(ServiceClass::BestEffort) {
                sink += u64::from(pool.try_buffer(key, pkt, AdmissionLimit::Grant).is_ok());
            }
        }
        sink
    });
    // Case 1.a / 2.a: a full session where every real-time admit evicts
    // the oldest real-time packet.
    let dropfront_ns = {
        let key = addr(1);
        let mut pool = BufferPool::new(64);
        pool.grant(key, 64);
        for _ in 0..64 {
            let _ = pool.try_buffer(
                key,
                data_packet(ServiceClass::RealTime),
                AdmissionLimit::Grant,
            );
        }
        let mut next = Some(data_packet(ServiceClass::RealTime));
        ns_per_op(OPS, || {
            let mut evicted = 0;
            for _ in 0..OPS {
                let pkt = next.take().expect("recycled packet");
                next = match pool.buffer_realtime_dropfront(key, pkt) {
                    Ok(Some(old)) => {
                        evicted += 1;
                        Some(old)
                    }
                    Ok(None) => Some(data_packet(ServiceClass::RealTime)),
                    Err(back) => Some(back),
                };
            }
            evicted
        })
    };
    BufferProbe {
        admit_drain_ns,
        admit_drain_ns_s64,
        dropfront_ns,
        shed_ns,
        session_lookup_ns,
    }
}

/// `(admit_ns, classify_batch_ns)`: one per-packet verdict, and one
/// per-session verdict table, over every (scheme, case, class) the
/// decision layer can see.
fn policy() -> (f64, f64) {
    let mut grid = Vec::new();
    for scheme in Scheme::ALL {
        for case in [
            AvailabilityCase::BothAvailable,
            AvailabilityCase::NarOnly,
            AvailabilityCase::ParOnly,
            AvailabilityCase::NoneAvailable,
        ] {
            for class in [
                ServiceClass::Unspecified,
                ServiceClass::RealTime,
                ServiceClass::HighPriority,
                ServiceClass::BestEffort,
            ] {
                let ctx = AdmitCtx {
                    case,
                    class,
                    nar_full: false,
                    par_granted: true,
                    threshold_a: 10,
                };
                grid.push((PolicyEngine::for_scheme(scheme), ctx));
            }
        }
    }
    let rounds = OPS / grid.len() as u64 + 1;
    let ops = rounds * grid.len() as u64;
    let admit = ns_per_op(ops, || {
        let mut sink = 0;
        for _ in 0..rounds {
            for (engine, ctx) in &grid {
                sink += u64::from(matches!(
                    black_box(engine.admit(Role::Par, black_box(ctx))),
                    fh_core::policy::Admit::Forward
                ));
            }
        }
        sink
    });
    let batch = ns_per_op(ops, || {
        let mut sink = 0;
        for _ in 0..rounds {
            for (engine, ctx) in &grid {
                let verdicts = black_box(engine.classify_batch(Role::Nar, black_box(ctx)));
                sink += u64::from(matches!(
                    verdicts.admit(ctx.class),
                    fh_core::policy::Admit::Forward
                ));
            }
        }
        sink
    });
    (admit, batch)
}

/// `(ack_ns, tick_ns)` of the TCP sender: an in-order cumulative ACK that
/// opens the window by one segment, and a coarse-timer tick during a
/// black-out (data outstanding, no ACKs: most ticks count down, a few time
/// out and retransmit under exponential backoff).
fn tcp_sender() -> (f64, f64) {
    let config = TcpConfig::default();
    let conn = ConnId(1);
    let mut sender = TcpSender::new(
        conn,
        FlowId(1),
        addr(1),
        addr(2),
        ServiceClass::BestEffort,
        config,
    );
    let mut out = Vec::with_capacity(64);
    sender.on_start_into(SimTime::ZERO, &mut out);
    let mss = u64::from(config.mss);
    let mut acked = 0u64;
    let mut now = SimTime::ZERO;
    let ack = ns_per_op(OPS, || {
        for _ in 0..OPS {
            acked += mss;
            now += SimDuration::from_millis(1);
            let seg = TcpSegment {
                conn,
                seq: 0,
                ack: acked,
                len: 0,
                flags: TcpFlags {
                    ack: true,
                    ..TcpFlags::default()
                },
            };
            out.clear();
            sender.on_ack_into(now, &seg, &mut out);
        }
        // The trace grows with every transmission; keep the working set flat.
        sender.trace = fh_tcp::SenderTrace::default();
        sender.acked_bytes()
    });
    let tick = ns_per_op(OPS, || {
        for _ in 0..OPS {
            now += config.tick;
            out.clear();
            sender.on_tick_into(now, &mut out);
        }
        sender.trace = fh_tcp::SenderTrace::default();
        out.len() as u64
    });
    (ack, tick)
}

/// Results of the `telemetry` probes.
pub struct TelemetryProbe {
    pub inc_ns: f64,
    pub lookup_ns: f64,
    pub record_ns_on: f64,
    pub record_ns_off: f64,
    pub chrome_mb_per_s: f64,
}

fn telemetry() -> TelemetryProbe {
    let mut registry = MetricsRegistry::new();
    let names: Vec<String> = (0..16).map(|i| format!("ar.counter.{i}")).collect();
    let ids: Vec<_> = names.iter().map(|n| registry.counter(n)).collect();
    let inc_ns = ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            registry.inc(ids[i % ids.len()]);
        }
        registry.get(ids[0])
    });
    // The by-name path `NetStats::bump` takes on every call.
    let lookup_ns = ns_per_op(OPS, || {
        let mut sink = 0;
        for i in 0..OPS as usize {
            let id = registry.counter(&names[i % names.len()]);
            sink += registry.get(id);
        }
        sink
    });
    let mut recorder: FlightRecorder<u64> = FlightRecorder::new();
    let record = |recorder: &mut FlightRecorder<u64>| {
        ns_per_op(OPS, || {
            for i in 0..OPS {
                recorder.record(SimTime::from_nanos(i), black_box(i));
            }
            recorder.seen()
        })
    };
    let record_ns_off = record(&mut recorder);
    recorder.enable(1 << 16);
    let record_ns_on = record(&mut recorder);

    // Export: one recorded handover run rendered to Chrome-trace JSON.
    let mut scenario = HmipScenario::build(HmipConfig {
        n_mhs: 8,
        movement: MovementPlan::OneWay,
        ..HmipConfig::default()
    });
    for i in 0..8 {
        scenario.add_audio_64k(i, ServiceClass::RealTime);
    }
    scenario.enable_telemetry(1 << 16);
    scenario.run_until(SimTime::from_secs(8));
    let mut bytes = 0u64;
    let renders = 5;
    let ns_per_render = ns_per_op(renders, || {
        for _ in 0..renders {
            let mut trace = ChromeTrace::new();
            scenario.chrome_trace_into(&mut trace, 0);
            bytes = trace.finish().len() as u64;
        }
        bytes
    });
    TelemetryProbe {
        inc_ns,
        lookup_ns,
        record_ns_on,
        record_ns_off,
        chrome_mb_per_s: bytes as f64 / 1e6 / (ns_per_render / 1e9),
    }
}

/// Every probe's result, by `BENCHMARK.json` metric name.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let stats = net_stats();
    let buffer = buffer_pool();
    let (admit_ns, classify_batch_ns) = policy();
    let (ack_ns, tick_ns) = tcp_sender();
    let tel = telemetry();
    vec![
        (
            "simcore.queue.hold_ns_heap_p64",
            queue_hold(QueueKind::Heap, 64),
        ),
        (
            "simcore.queue.hold_ns_heap_p100k",
            queue_hold(QueueKind::Heap, 100_000),
        ),
        (
            "simcore.queue.hold_ns_calendar_p64",
            queue_hold(QueueKind::Calendar, 64),
        ),
        (
            "simcore.queue.hold_ns_calendar_p100k",
            queue_hold(QueueKind::Calendar, 100_000),
        ),
        ("simcore.queue.cancel_ns", queue_cancel()),
        ("simcore.actor.dispatch_ns", actor_dispatch()),
        ("simcore.stats.histogram_add_ns", histogram_add()),
        ("netstack.stats.flow_record_ns", stats.flow_record_ns),
        ("netstack.stats.drop_record_ns", stats.drop_record_ns),
        ("netstack.stats.control_record_ns", stats.control_record_ns),
        (
            "netstack.stats.control_record_allocs",
            stats.control_record_allocs,
        ),
        ("netstack.link.transmit_ns", link_transmit()),
        ("netstack.pool.insert_remove_ns", pool_insert_remove()),
        ("netstack.packet.clone_ns", packet_clone()),
        (
            "netstack.packet.size_bytes",
            std::mem::size_of::<Packet>() as f64,
        ),
        ("netstack.topology.compute_routes_us", compute_routes_us()),
        ("wireless.radio.attachment_ns", radio_attachment()),
        ("wireless.mih.sample_ns", mih_sample()),
        ("mobileip.binding.lookup_ns", binding_lookup()),
        ("core.buffer.admit_drain_ns", buffer.admit_drain_ns),
        ("core.buffer.admit_drain_ns_s64", buffer.admit_drain_ns_s64),
        ("core.buffer.dropfront_ns", buffer.dropfront_ns),
        ("core.buffer.shed_ns", buffer.shed_ns),
        ("core.buffer.session_lookup_ns", buffer.session_lookup_ns),
        ("core.policy.admit_ns", admit_ns),
        ("core.policy.classify_batch_ns", classify_batch_ns),
        ("tcp.sender.ack_ns", ack_ns),
        ("tcp.sender.tick_ns", tick_ns),
        ("telemetry.registry.inc_ns", tel.inc_ns),
        ("telemetry.registry.lookup_ns", tel.lookup_ns),
        ("telemetry.recorder.record_ns_on", tel.record_ns_on),
        ("telemetry.recorder.record_ns_off", tel.record_ns_off),
        ("telemetry.export.chrome_mb_per_s", tel.chrome_mb_per_s),
    ]
}
