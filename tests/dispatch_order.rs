//! Characterization battery for the serving pool's dispatch order.
//!
//! Seeded request streams built to stress every tie-break the scheduler
//! makes — many requests sharing one `arrival_ns`, ids that are a random
//! permutation rather than monotone in arrival, mixed `iterations`,
//! three deadline classes, and queue caps small enough to reject — run
//! through a matrix of pool configurations: fair on and off,
//! cross-tenant top-up on and off, `Serial` and `KernelAware`
//! batching, admission pricing, autoscaling, the power governor, chaos
//! with blackouts and residency churn, a traced pool, and a small fleet.
//!
//! Each configuration folds every seed's report into one 64-bit digest:
//! every `RequestOutcome` in order, the batch histogram, the scale and
//! power logs, the chaos counters, uploads, peak depth, per-worker busy
//! time, and the latency summaries. The pinned digests were computed on
//! the scheduler that kept one arrival-ordered `Vec` per tenant and
//! rescanned it on every wake-up; any reimplementation of the queues
//! must reproduce them exactly. Every run must also pass
//! [`invariants::check`].

use std::sync::OnceLock;

use ulp_kernels::{Benchmark, TargetEnv};
use ulp_offload::HetSystemConfig;
use ulp_par::battery_case;
use ulp_rng::XorShiftRng;
use ulp_serve::{
    invariants, AdmissionPricing, AutoscalePolicy, BatchPolicy, Blackout, ChaosConfig, CostBook,
    DeadlineClass, FaultProfile, Fleet, FleetConfig, LatencyStats, OutcomeKind, PowerPolicy,
    ServeConfig, ServePool, ServeReport, ServeRequest, TenantSpec, Timeline,
};
use ulp_trace::{Component, EventKind, Tracer};

const KERNELS: [Benchmark; 4] = [
    Benchmark::MatMul,
    Benchmark::MatMulShort,
    Benchmark::Cnn,
    Benchmark::SvmLinear,
];

/// Seeds every configuration runs; the digests fold all of them.
const SEEDS: std::ops::Range<u64> = 0..12;

fn book() -> &'static CostBook {
    static BOOK: OnceLock<CostBook> = OnceLock::new();
    BOOK.get_or_init(|| {
        CostBook::measure_with_host(
            &TargetEnv::pulp_parallel(),
            &TargetEnv::host_m4(),
            &HetSystemConfig::default(),
            &KERNELS,
        )
        .expect("cost book")
    })
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn latency(&mut self, s: &LatencyStats) {
        for w in [s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.mean_ns] {
            self.word(w);
        }
    }

    fn report(&mut self, r: &ServeReport) {
        self.word(r.outcomes.len() as u64);
        for o in &r.outcomes {
            let kind = match o.kind {
                OutcomeKind::Completed => 0,
                OutcomeKind::Rejected => 1,
                OutcomeKind::FailedOver => 2,
                OutcomeKind::Failed => 3,
            };
            let kernel = KERNELS.iter().position(|&k| k == o.benchmark).unwrap();
            for w in [
                o.id,
                o.tenant as u64,
                u64::from(o.class.rank()),
                kernel as u64,
                o.arrival_ns,
                o.done_ns,
                kind,
            ] {
                self.word(w);
            }
        }
        self.word(r.batch_hist.len() as u64);
        for &n in &r.batch_hist {
            self.word(n);
        }
        self.word(r.scale_events.len() as u64);
        for e in &r.scale_events {
            for w in [
                e.at_ns,
                e.group as u64,
                e.from as u64,
                e.to as u64,
                e.queue_depth as u64,
                e.window_p99_ns,
                e.reason as u64,
            ] {
                self.word(w);
            }
        }
        self.word(r.power_events.len() as u64);
        for e in &r.power_events {
            for w in [
                e.at_ns,
                e.from_op as u64,
                e.to_op as u64,
                e.window_w.to_bits(),
            ] {
                self.word(w);
            }
        }
        let c = &r.chaos;
        for w in [
            c.frames,
            c.bits_flipped,
            c.frames_damaged,
            c.crc_escapes,
            c.retransmissions,
            c.watchdog_fires,
            c.late_events,
            c.fallback_batches,
            c.fallback_requests,
            c.failed_requests,
            c.residency_flushes,
            c.blackout_windows,
        ] {
            self.word(w);
        }
        for w in [
            r.uploads,
            r.max_queue_depth as u64,
            r.makespan_ns,
            r.capacity_ns,
            r.priced_out,
            r.energy_joules.to_bits(),
        ] {
            self.word(w);
        }
        for &b in r.worker_busy_ns.iter().chain(&r.op_residency_ns) {
            self.word(b);
        }
        self.latency(&r.latency);
        for t in &r.tenants {
            self.latency(&t.latency);
        }
    }
}

/// Tenants with small, seed-dependent queue caps and weights.
fn tenants(rng: &mut XorShiftRng) -> Vec<TenantSpec> {
    let n = rng.gen_range(1..=4usize);
    (0..n)
        .map(|i| {
            let mut t = TenantSpec::weighted(&format!("t{i}"), rng.gen_range(1..=3u32));
            t.queue_cap = rng.gen_range(2..=24usize);
            t
        })
        .collect()
}

/// An arrival-sorted stream with heavy ties: about half the requests
/// share the previous request's instant, and ids are a random
/// permutation of `0..n`, so id order says nothing about arrival order.
fn stream(rng: &mut XorShiftRng, tenants: usize, n: usize) -> Vec<ServeRequest> {
    // Mean gap ≈ a quarter of a one-iteration dispatch, so a pool of a
    // few workers runs saturated with deep, tie-heavy queues.
    let mean_ns: u64 = KERNELS.iter().map(|&k| book().est_ns(k, 1)).sum::<u64>() / 4;
    let mut ids: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let mut now = 0u64;
    ids.into_iter()
        .map(|id| {
            if !rng.gen_bool(0.5) {
                now += rng.gen_range(1..=mean_ns);
            }
            ServeRequest {
                id,
                tenant: rng.gen_range(0..tenants),
                benchmark: KERNELS[rng.gen_range(0..KERNELS.len())],
                iterations: [1, 1, 1, 2, 3][rng.gen_range(0..5usize)],
                class: DeadlineClass::ALL[rng.gen_range(0..3usize)],
                arrival_ns: now,
            }
        })
        .collect()
}

fn chaos(seed: u64) -> ChaosConfig {
    ChaosConfig::uniform(
        seed,
        FaultProfile {
            bit_error_rate: 2e-5,
            drop_rate: 0.03,
            truncate_rate: 0.01,
            hang_rate: 0.03,
            late_eoc_rate: 0.05,
            late_eoc_cycles: 20_000,
        },
    )
}

/// Blackouts on workers 0 and 1 and a handful of residency flushes, all
/// inside the stream's span.
fn timeline(rng: &mut XorShiftRng, span_ns: u64) -> Timeline {
    let span = span_ns.max(1);
    let blackouts = (0..4)
        .map(|i| {
            let start_ns = rng.gen_range(0..span);
            Blackout {
                worker: i % 2,
                start_ns,
                end_ns: start_ns + rng.gen_range(1..=span / 4 + 1),
            }
        })
        .collect();
    let mut flushes: Vec<u64> = (0..6).map(|_| rng.gen_range(0..span)).collect();
    flushes.sort_unstable();
    Timeline { blackouts, flushes }
}

/// How one battery configuration builds and decorates its pool.
#[derive(Clone, Copy)]
struct Case {
    name: &'static str,
    pool: usize,
    policy: BatchPolicy,
    fair: bool,
    cross_tenant: bool,
    admission: bool,
    autoscale: bool,
    power: bool,
    chaos: bool,
    traced: bool,
}

const BASE: Case = Case {
    name: "",
    pool: 2,
    policy: BatchPolicy::KernelAware { max_batch: 4 },
    fair: true,
    cross_tenant: true,
    admission: false,
    autoscale: false,
    power: false,
    chaos: false,
    traced: false,
};

fn serve_config(c: &Case) -> ServeConfig {
    ServeConfig {
        pool: c.pool,
        policy: c.policy,
        fair: c.fair,
        cross_tenant: c.cross_tenant,
        autoscale: c.autoscale.then(|| AutoscalePolicy {
            interval_ns: 2_000_000,
            cooldown_ns: 4_000_000,
            up_queue_per_worker: 3,
            p99_target_ns: 20_000_000,
            ..AutoscalePolicy::new(1, 5)
        }),
        admission: if c.admission {
            AdmissionPricing {
                target_depth_per_worker: 4,
                ..AdmissionPricing::enabled()
            }
        } else {
            AdmissionPricing::default()
        },
        power: if c.power {
            PowerPolicy {
                interval_ns: 3_000_000,
                ..PowerPolicy::with_budget(3.0e-4)
            }
        } else {
            PowerPolicy::default()
        },
        ..ServeConfig::default()
    }
}

/// Folds one traced run's serving events (batches, queue depths, scale
/// actions, and the per-worker busy counters) into `d`.
fn digest_trace(d: &mut Digest, tracer: &Tracer) {
    for e in tracer.events() {
        let Component::Worker(w) = e.component else {
            continue;
        };
        let (tag, arg) = match e.kind {
            EventKind::Batch { size } => (0, u64::from(size)),
            EventKind::QueueDepth { depth } => (1, u64::from(depth)),
            _ => continue,
        };
        for x in [u64::from(w), tag, arg, e.start, e.dur] {
            d.word(x);
        }
    }
    for (c, k) in tracer.counters() {
        if let Component::Worker(w) = c {
            for x in [u64::from(w), k.busy, k.total] {
                d.word(x);
            }
        }
    }
}

/// Runs one configuration over every seed and returns its digest.
fn run_case(c: &Case) -> u64 {
    let mut d = Digest::new();
    for seed in SEEDS {
        let repro = format!("config={} seed={seed}", c.name);
        battery_case("dispatch_order", &repro, || {
            let mut rng = XorShiftRng::seed_from_u64(0xD15C_0000 ^ seed);
            let specs = tenants(&mut rng);
            let n = rng.gen_range(200..=600usize);
            let reqs = stream(&mut rng, specs.len(), n);
            let span = reqs.last().map_or(0, |r| r.arrival_ns);
            let tracer = if c.traced {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            };
            let mut pool = ServePool::new(
                &HetSystemConfig::default(),
                specs,
                book().clone(),
                serve_config(c),
            )
            .with_tracer(tracer.clone());
            if c.chaos {
                pool = pool
                    .with_chaos(chaos(seed))
                    .with_timeline(timeline(&mut rng, span));
            }
            let report = pool.run(&reqs).expect("battery stream is valid");
            let violations = invariants::check(reqs.len() as u64, &report);
            assert!(violations.is_empty(), "{repro}: {violations:?}");
            d.report(&report);
            digest_trace(&mut d, &tracer);
        });
    }
    d.0
}

fn assert_pinned(cases: &[(Case, u64)]) {
    let mut wrong = Vec::new();
    for (c, pinned) in cases {
        let got = run_case(c);
        if got != *pinned {
            wrong.push(format!(
                "{}: got {got:#018x}, pinned {pinned:#018x}",
                c.name
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "dispatch order moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn fairness_and_top_up_matrix_keeps_its_pinned_order() {
    let mut cases = Vec::new();
    for (i, (fair, cross_tenant)) in [(true, true), (true, false), (false, true), (false, false)]
        .into_iter()
        .enumerate()
    {
        let names = [
            ["aware-fair-cross", "serial-fair-cross"],
            ["aware-fair-own", "serial-fair-own"],
            ["aware-fifo-cross", "serial-fifo-cross"],
            ["aware-fifo-own", "serial-fifo-own"],
        ];
        cases.push(Case {
            name: names[i][0],
            fair,
            cross_tenant,
            ..BASE
        });
        cases.push(Case {
            name: names[i][1],
            policy: BatchPolicy::Serial,
            fair,
            cross_tenant,
            ..BASE
        });
    }
    let pinned = [
        0x4888_07b7_d7e9_e16c,
        0x4e5a_0ad3_1c19_d99f,
        0x1d76_0053_f6f6_fd4c,
        0x4e5a_0ad3_1c19_d99f,
        0xce7f_cd9e_d709_f6f9,
        0xdb93_ca17_1a84_089a,
        0xdc42_5115_ed4c_9374,
        0xdb93_ca17_1a84_089a,
    ];
    let cases: Vec<(Case, u64)> = cases.into_iter().zip(pinned).collect();
    assert_pinned(&cases);
}

#[test]
fn pricing_scaling_power_and_tracing_keep_their_pinned_order() {
    assert_pinned(&[
        (
            Case {
                name: "admission-pricing",
                pool: 1,
                policy: BatchPolicy::KernelAware { max_batch: 3 },
                admission: true,
                ..BASE
            },
            0x7602_653d_76d9_4d75,
        ),
        (
            Case {
                name: "autoscale",
                pool: 1,
                autoscale: true,
                ..BASE
            },
            0x3bf0_eacb_ab08_4149,
        ),
        (
            Case {
                name: "autoscale-priced-fifo",
                pool: 2,
                fair: false,
                autoscale: true,
                admission: true,
                ..BASE
            },
            0x70f2_3740_67b2_064c,
        ),
        (
            Case {
                name: "power-governor",
                power: true,
                ..BASE
            },
            0x21d8_330e_b75b_69fc,
        ),
        (
            Case {
                name: "traced",
                pool: 3,
                policy: BatchPolicy::KernelAware { max_batch: 8 },
                traced: true,
                ..BASE
            },
            0x0010_439c_09ae_86a4,
        ),
    ]);
}

#[test]
fn chaos_with_blackouts_and_churn_keeps_its_pinned_order() {
    assert_pinned(&[
        (
            Case {
                name: "chaos-aware",
                pool: 3,
                chaos: true,
                ..BASE
            },
            0x15e0_bdd5_0c82_d705,
        ),
        (
            Case {
                name: "chaos-serial-fifo",
                pool: 2,
                policy: BatchPolicy::Serial,
                fair: false,
                chaos: true,
                ..BASE
            },
            0x30bf_c0c8_9f67_b60b,
        ),
        (
            Case {
                name: "chaos-autoscale-own",
                pool: 1,
                cross_tenant: false,
                autoscale: true,
                chaos: true,
                ..BASE
            },
            0x2e04_69f3_a4e8_74c1,
        ),
    ]);
}

/// A small autoscaled, priced fleet: group slicing plus the fleet-wide
/// latency summary on top of the per-group pools.
#[test]
fn fleet_keeps_its_pinned_order() {
    let mut d = Digest::new();
    for seed in SEEDS {
        let repro = format!("config=fleet seed={seed}");
        battery_case("dispatch_order", &repro, || {
            let mut rng = XorShiftRng::seed_from_u64(0xF1EE_7000 ^ seed);
            let specs: Vec<TenantSpec> = (0..6)
                .map(|i| {
                    let mut t = TenantSpec::new(&format!("fleet-tenant-{i}"));
                    t.queue_cap = rng.gen_range(2..=10usize);
                    t
                })
                .collect();
            let reqs = stream(&mut rng, specs.len(), 600);
            let fleet = Fleet::new(
                &HetSystemConfig::default(),
                specs,
                book().clone(),
                FleetConfig {
                    groups: 3,
                    serve: serve_config(&Case {
                        pool: 1,
                        autoscale: true,
                        admission: true,
                        ..BASE
                    }),
                },
            );
            let report = fleet.run(&reqs).expect("battery stream is valid");
            let violations = invariants::check_fleet(&report);
            assert!(violations.is_empty(), "{repro}: {violations:?}");
            for g in &report.groups {
                d.word(g.offered);
                d.report(&g.report);
            }
            d.latency(&report.latency);
            d.word(report.scale_events.len() as u64);
        });
    }
    assert_eq!(
        d.0, 0x12f6_8d9e_a4b0_e7cc,
        "fleet dispatch order moved: got {:#018x}",
        d.0
    );
}
