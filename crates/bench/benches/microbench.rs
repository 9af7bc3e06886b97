//! Microbenchmarks of the simulator substrate: event queue throughput,
//! buffer-pool operations, routing computation, and end-to-end simulated
//! events per second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use fh_core::{AdmissionLimit, BufferPool};
use fh_net::{doc_subnet, FlowId, LinkSpec, Packet, ServiceClass, Topology};
use fh_scenarios::{HmipConfig, HmipScenario, MovementPlan};
use fh_sim::{EventQueue, LaneQueue, QueueKind, Rng64, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for kind in [QueueKind::Heap, QueueKind::Calendar] {
        let label = match kind {
            QueueKind::Heap => "push_pop",
            QueueKind::Calendar => "push_pop_calendar",
        };
        for n in [1_000u64, 100_000] {
            g.throughput(Throughput::Elements(n));
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
                let mut rng = Rng64::seed_from(1);
                let times: Vec<SimTime> = (0..n)
                    .map(|_| SimTime::from_nanos(rng.gen_range_u64(1_000_000_000)))
                    .collect();
                b.iter(|| {
                    let mut q = EventQueue::with_kind(kind);
                    for (i, &t) in times.iter().enumerate() {
                        q.push(t, i);
                    }
                    let mut sink = 0usize;
                    while let Some((_, e)) = q.pop() {
                        sink ^= e;
                    }
                    black_box(sink)
                })
            });
        }
        // The simulator's actual access pattern is interleaved hold-model
        // traffic, not fill-then-drain: a steady population where every
        // pop schedules a successor. This is where the calendar's O(1)
        // bucket insert beats the heap's O(log n) sift.
        for n in [1_000u64, 100_000] {
            let steps = 200_000u64;
            g.throughput(Throughput::Elements(steps));
            let hold_label = match kind {
                QueueKind::Heap => "hold_model",
                QueueKind::Calendar => "hold_model_calendar",
            };
            g.bench_with_input(BenchmarkId::new(hold_label, n), &n, |b, &n| {
                b.iter(|| {
                    let mut rng = Rng64::seed_from(9);
                    let mut q = EventQueue::with_kind(kind);
                    for i in 0..n {
                        q.push(SimTime::from_nanos(rng.gen_range_u64(1_000_000)), i);
                    }
                    let mut sink = 0u64;
                    for _ in 0..steps {
                        let (t, e) = q.pop().expect("population is steady");
                        sink ^= e;
                        let next = t + SimDuration::from_nanos(1 + rng.gen_range_u64(1_000_000));
                        q.push(next, e);
                    }
                    black_box(sink)
                })
            });
        }
    }
    // The metro kernel's pattern: the population is seeded at scattered
    // times (heap path), then every pop reschedules at a constant delay
    // and so rides a FIFO lane. 64 and 100k are the populations the perf
    // harness probes the heap and calendar at.
    for n in [64u64, 100_000] {
        let steps = 200_000u64;
        g.throughput(Throughput::Elements(steps));
        g.bench_with_input(BenchmarkId::new("hold_model_lanes", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = Rng64::seed_from(9);
                let mut q: LaneQueue<u64, 1> = LaneQueue::new();
                for i in 0..n {
                    q.push(SimTime::from_nanos(rng.gen_range_u64(1_000_000)), i);
                }
                let mut sink = 0u64;
                for _ in 0..steps {
                    let (t, e) = q.pop().expect("population is steady");
                    sink ^= e;
                    q.push_lane(0, t + SimDuration::from_nanos(1_000_000), e);
                }
                black_box(sink)
            })
        });
    }
    g.finish();
}

/// Cancellation cost must stay flat per element as the queue grows: a
/// cancel is one slot write (O(1)); the heap entry is purged lazily when
/// it surfaces. Compare per-element throughput at 1k vs 100k to see the
/// amortized behaviour.
fn bench_event_queue_cancel(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_cancel");
    for n in [1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("push_cancel_half_pop", n), &n, |b, &n| {
            let mut rng = Rng64::seed_from(7);
            let times: Vec<SimTime> = (0..n)
                .map(|_| SimTime::from_nanos(rng.gen_range_u64(1_000_000_000)))
                .collect();
            b.iter(|| {
                let mut q = EventQueue::new();
                let keys: Vec<_> = times.iter().map(|&t| q.push(t, 0u64)).collect();
                // Cancel every other timer — the dominant pattern in the
                // simulator (timers armed, then disarmed by progress).
                for key in keys.iter().step_by(2) {
                    black_box(q.cancel(*key));
                }
                let mut sink = 0u64;
                while let Some((_, e)) = q.pop() {
                    sink ^= e;
                }
                black_box(sink)
            })
        });
    }
    g.finish();
}

fn bench_buffer_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("buffer_pool");
    g.throughput(Throughput::Elements(10_000));
    let key: std::net::Ipv6Addr = "2001:db8::1".parse().unwrap();
    let mk = |class| {
        Packet::data(
            FlowId(1),
            0,
            "2001:db8::2".parse().unwrap(),
            "2001:db8::3".parse().unwrap(),
            class,
            160,
            SimTime::ZERO,
        )
    };

    // The raw arena against the allocator it replaced, same access
    // pattern, no admission logic in either: SoA insert/remove versus one
    // heap box per packet.
    g.bench_function("arena_insert_remove", |b| {
        let pkt = mk(ServiceClass::HighPriority);
        b.iter(|| {
            let mut arena = fh_net::PacketPool::new();
            let mut handles = Vec::with_capacity(64);
            let mut drained = 0usize;
            for _ in 0..10_000 / 64 {
                for _ in 0..64 {
                    handles.push(arena.insert(pkt.clone()));
                }
                for h in handles.drain(..) {
                    drained += usize::from(arena.remove(h).is_some());
                }
            }
            black_box(drained)
        })
    });

    // The full admission path: session lookup + grant accounting + policy
    // + SoA arena. Overhead above `arena_insert_remove` is the admission
    // logic, not the allocator.
    g.bench_function("admit_drain_cycle", |b| {
        let pkt = mk(ServiceClass::HighPriority);
        b.iter(|| {
            let mut pool = BufferPool::new(64);
            pool.grant(key, 64);
            for _ in 0..10_000 / 64 {
                for _ in 0..64 {
                    let _ = pool.try_buffer(key, pkt.clone(), AdmissionLimit::Grant);
                }
                black_box(pool.drain(key).len());
            }
        })
    });

    // The bare boxed queue with no admission logic at all — the floor any
    // buffering scheme pays for allocation alone. Compare against
    // `arena_insert_remove` for the allocator story and against
    // `admit_drain_cycle` for what admission control costs on top.
    g.bench_function("admit_drain_cycle_boxed", |b| {
        let pkt = mk(ServiceClass::HighPriority);
        b.iter(|| {
            let mut queue: std::collections::VecDeque<Box<Packet>> =
                std::collections::VecDeque::new();
            let mut drained = 0usize;
            for _ in 0..10_000 / 64 {
                for _ in 0..64 {
                    if queue.len() < 64 {
                        queue.push_back(Box::new(pkt.clone()));
                    }
                }
                while let Some(boxed) = queue.pop_front() {
                    drained += usize::from(boxed.size > 0);
                }
            }
            black_box(drained)
        })
    });

    // The case-1.a/2.a eviction scan: a full pool where every admit must
    // find and evict the oldest real-time packet. Walks the arena's hot
    // rows only — the cold payload columns stay untouched.
    g.bench_function("dropfront_evict_full_pool", |b| {
        let rt = mk(ServiceClass::RealTime);
        b.iter(|| {
            let mut pool = BufferPool::new(64);
            pool.grant(key, 64);
            for _ in 0..64 {
                let _ = pool.try_buffer(key, rt.clone(), AdmissionLimit::Grant);
            }
            let mut evicted = 0usize;
            for _ in 0..10_000 {
                if let Ok(Some(_)) = pool.buffer_realtime_dropfront(key, rt.clone()) {
                    evicted += 1;
                }
            }
            black_box(evicted)
        })
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    for n in [10usize, 50] {
        g.bench_with_input(BenchmarkId::new("compute_routes", n), &n, |b, &n| {
            b.iter(|| {
                let mut topo = Topology::new();
                let nodes: Vec<_> = (0..n).map(|i| topo.add_node(format!("n{i}"))).collect();
                let spec = LinkSpec::new(10_000_000, SimDuration::from_millis(1), 50);
                for w in nodes.windows(2) {
                    topo.add_link(w[0], w[1], spec);
                }
                // A few cross links.
                for i in (0..n).step_by(7) {
                    let j = (i + n / 2) % n;
                    if i != j {
                        topo.add_link(nodes[i], nodes[j], spec);
                    }
                }
                for (i, &node) in nodes.iter().enumerate() {
                    topo.add_prefix(doc_subnet(i as u16), node);
                }
                topo.compute_routes();
                black_box(topo.route(nodes[0], doc_subnet((n - 1) as u16).host(1)))
            })
        });
    }
    g.finish();
}

fn bench_scenario_event_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario");
    g.sample_size(10);
    g.bench_function("one_handover_16s_sim", |b| {
        b.iter(|| {
            let mut scenario = HmipScenario::build(HmipConfig {
                movement: MovementPlan::OneWay,
                ..HmipConfig::default()
            });
            let f = scenario.add_audio_64k(0, ServiceClass::RealTime);
            scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
            scenario.run_until(SimTime::from_secs(16));
            black_box((scenario.flow_losses(f), scenario.sim.events_processed()))
        })
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_event_queue,
    bench_event_queue_cancel,
    bench_buffer_pool,
    bench_routing,
    bench_scenario_event_rate
);
criterion_main!(micro);
