//! The four workloads: set-up (inputs from the seed) and one pass each,
//! with every call into a layer wrapped in a span named after it.
//!
//! A pass returns the layers' raw outputs; [`Workload::verify`] checks
//! them against the oracle after the pass clock has stopped, so the
//! benchmark's own checking never counts as pass time.

use ulp_isa::perf::retired_total;
use ulp_kernels::runner::{self, KernelRun};
use ulp_kernels::{Benchmark, TargetEnv};
use ulp_offload::{HetSystem, HetSystemConfig, OffloadOptions, PipelineConfig, PlannedJob};
use ulp_rng::XorShiftRng;
use ulp_serve::{
    invariants, ChaosConfig, CostBook, Fleet, FleetConfig, FleetReport, ServeConfig, ServePool,
    ServeReport, ServeRequest, TenantSpec, Timeline,
};

use crate::oracle::{self, Digest};
use crate::span::Recorder;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "flat-sweep",
    "cluster-offload",
    "soak-chaos",
    "fleet-autoscale",
];

/// Largest Fig. 5b iteration count of the `predict` grid (1..=this).
const GRID_ITERATIONS: usize = 128;
/// Jobs in the one `plan_queue` priced per kernel.
const QUEUE_JOBS: usize = 8;

/// The host targets of the flat sweep: Table I's RISC-ops baseline and
/// the two Cortex-M hosts.
const FLAT_TARGETS: [&str; 3] = ["baseline", "m3", "m4"];

/// Exact work one pass did, per layer. Every field is a count that is
/// the same on every machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub kernels_builds: u64,
    pub isa_retired: u64,
    pub cluster_retired: u64,
    pub cluster_sim_cycles: u64,
    pub offload_predict_calls: u64,
    pub offload_plan_calls: u64,
    pub serve_requests: u64,
    pub serve_batches: u64,
    pub link_frames: u64,
    pub link_retransmissions: u64,
    pub fleet_groups: u64,
    pub fleet_scale_events: u64,
    pub fleet_priced_out: u64,
}

impl Counts {
    /// Every count with its metric name.
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 13] {
        [
            ("kernels.builds", self.kernels_builds),
            ("isa.retired", self.isa_retired),
            ("cluster.retired", self.cluster_retired),
            ("cluster.sim_cycles", self.cluster_sim_cycles),
            ("offload.predict_calls", self.offload_predict_calls),
            ("offload.plan_calls", self.offload_plan_calls),
            ("serve.requests", self.serve_requests),
            ("serve.batches", self.serve_batches),
            ("link.frames", self.link_frames),
            ("link.retransmissions", self.link_retransmissions),
            ("fleet.groups", self.fleet_groups),
            ("fleet.scale_events", self.fleet_scale_events),
            ("fleet.priced_out", self.fleet_priced_out),
        ]
    }
}

/// What the oracle made of one pass.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Operations attempted: kernel runs, or pool/fleet runs.
    pub ops: u64,
    /// One message per operation whose output failed a check.
    pub failures: Vec<String>,
    /// Digest of every output of the pass.
    pub digest: u64,
    /// Exact work counts.
    pub counts: Counts,
}

/// The layers' raw outputs of one pass.
#[allow(clippy::large_enum_variant)] // one value at a time, never moved in bulk
pub enum Outputs {
    Flat(Vec<(Benchmark, &'static str, Result<KernelRun, String>)>),
    Cluster(Vec<(Benchmark, Result<ClusterRun, String>)>),
    Soak(Result<(ServeReport, Vec<String>), String>),
    Fleet(Result<(FleetReport, Vec<String>), String>),
}

/// One kernel of the cluster-offload pass.
pub struct ClusterRun {
    cycles_cold: u64,
    cycles_warm: u64,
    retired: u64,
    predict_calls: u64,
    /// Sums of `total_seconds` and `total_energy_joules` over the grid.
    predict_sums: (f64, f64),
    plan_seconds: f64,
}

/// A set-up workload: its inputs, generated from the seed.
pub enum Workload {
    FlatSweep(Vec<(Benchmark, &'static str)>),
    ClusterOffload(Vec<Benchmark>),
    SoakChaos(Box<Soak>),
    FleetAutoscale(Box<FleetCell>),
}

/// Inputs of the soak-chaos pass.
pub struct Soak {
    seed: u64,
    config: HetSystemConfig,
    book: CostBook,
    tenants: Vec<TenantSpec>,
    serve: ServeConfig,
    chaos: ChaosConfig,
    timeline: Timeline,
    requests: Vec<ServeRequest>,
}

/// Inputs of the fleet-autoscale pass.
pub struct FleetCell {
    seed: u64,
    config: HetSystemConfig,
    book: CostBook,
    tenants: Vec<TenantSpec>,
    fleet: FleetConfig,
    requests: Vec<ServeRequest>,
}

/// The seed a workload runs when none is given: the committed study's
/// seed for the serving workloads, 0 (Table I order) for the others.
#[must_use]
pub fn default_seed(name: &str) -> u64 {
    match name {
        "soak-chaos" => ulp_bench::soak::SEED,
        "fleet-autoscale" => ulp_bench::fleet::SEED,
        _ => 0,
    }
}

/// Seed-driven kernel order: the Table I order rotated to start at a
/// position the seed picks (seed 0 keeps it).
fn rotated<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    if seed != 0 && !items.is_empty() {
        let start = XorShiftRng::seed_from_u64(seed).gen_range(0..items.len());
        items.rotate_left(start);
    }
    items
}

/// Every (kernel, target) run of the flat sweep, in Table I order.
fn flat_runs() -> Vec<(Benchmark, &'static str)> {
    Benchmark::ALL
        .iter()
        .flat_map(|&b| FLAT_TARGETS.map(|t| (b, t)))
        .collect()
}

impl Workload {
    /// Builds the workload's inputs from `seed`.
    ///
    /// # Errors
    ///
    /// An unknown workload name, or a failed cost measurement.
    pub fn setup(name: &str, seed: u64, rec: &mut Recorder) -> Result<Workload, String> {
        match name {
            "flat-sweep" => Ok(Workload::FlatSweep(rotated(flat_runs(), seed))),
            "cluster-offload" => Ok(Workload::ClusterOffload(rotated(
                Benchmark::ALL.to_vec(),
                seed,
            ))),
            "soak-chaos" => {
                let config = HetSystemConfig::default();
                let book = rec
                    .span("serve.book", |_| {
                        CostBook::measure_with_host(
                            &TargetEnv::pulp_parallel(),
                            &TargetEnv::host_m4(),
                            &config,
                            &Benchmark::ALL,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let mut spec = ulp_bench::soak::chaos_spec(&book);
                // The committed chaos cell, re-seeded: at the default seed
                // both seeds are exactly the study's.
                spec.workload.seed = seed;
                spec.chaos.seed ^= ulp_bench::soak::SEED ^ seed;
                let requests = rec.span("serve.loadgen", |_| {
                    spec.workload.generate_with_bursts(&spec.bursts)
                });
                Ok(Workload::SoakChaos(Box::new(Soak {
                    seed,
                    timeline: spec.timeline(),
                    tenants: spec
                        .workload
                        .tenants
                        .iter()
                        .map(|l| l.spec.clone())
                        .collect(),
                    serve: spec.serve,
                    chaos: spec.chaos,
                    config,
                    book,
                    requests,
                })))
            }
            "fleet-autoscale" => {
                let config = HetSystemConfig::default();
                let book = rec
                    .span("serve.book", |_| {
                        CostBook::measure(&TargetEnv::pulp_parallel(), &config, &Benchmark::ALL)
                    })
                    .map_err(|e| e.to_string())?;
                let cell = *ulp_bench::fleet::cells()
                    .last()
                    .expect("the fleet study has cells");
                let (mut workload, bursts) = ulp_bench::fleet::workload(&book, &cell);
                workload.seed = seed;
                let requests =
                    rec.span("serve.loadgen", |_| workload.generate_with_bursts(&bursts));
                Ok(Workload::FleetAutoscale(Box::new(FleetCell {
                    seed,
                    tenants: workload.tenants.iter().map(|t| t.spec.clone()).collect(),
                    fleet: FleetConfig {
                        groups: cell.groups,
                        serve: ulp_bench::fleet::serve_config(&cell),
                    },
                    config,
                    book,
                    requests,
                })))
            }
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    /// True for the serving workloads, whose work is counted in offered
    /// requests; the simulator workloads' is counted in retired
    /// instructions.
    #[must_use]
    pub fn serving(&self) -> bool {
        matches!(self, Workload::SoakChaos(_) | Workload::FleetAutoscale(_))
    }

    /// The warm-up of a simulator workload, whose inputs are fixed data:
    /// the same workload in Table I order, whatever the seed, so every
    /// seed's timed passes start from the same allocator state and peak
    /// memory does not depend on the draw. `None` for the serving
    /// workloads, whose set-up is their input generation.
    #[must_use]
    pub fn warm_up(&self) -> Option<Workload> {
        match self {
            Workload::FlatSweep(_) => Some(Workload::FlatSweep(flat_runs())),
            Workload::ClusterOffload(_) => Some(Workload::ClusterOffload(Benchmark::ALL.to_vec())),
            Workload::SoakChaos(_) | Workload::FleetAutoscale(_) => None,
        }
    }

    /// Runs one pass. Host caches start cold: every system, pool and
    /// fleet is built afresh inside the pass.
    pub fn pass(&self, rec: &mut Recorder) -> Outputs {
        match self {
            Workload::FlatSweep(order) => Outputs::Flat(
                order
                    .iter()
                    .map(|&(b, target)| {
                        let env = flat_env(target);
                        let build = rec.span("kernels.build", |_| b.build(&env));
                        let run = rec.span("isa.run", |_| runner::run(&build, &env));
                        (b, target, run.map_err(|e| e.to_string()))
                    })
                    .collect(),
            ),
            Workload::ClusterOffload(order) => {
                Outputs::Cluster(order.iter().map(|&b| (b, cluster_kernel(b, rec))).collect())
            }
            Workload::SoakChaos(s) => Outputs::Soak(
                rec.span("serve.run", |_| {
                    let mut pool =
                        ServePool::new(&s.config, s.tenants.clone(), s.book.clone(), s.serve)
                            .with_chaos(s.chaos.clone())
                            .with_timeline(s.timeline.clone());
                    pool.run(&s.requests)
                })
                .map_err(|e| format!("soak(seed={}): {e}", s.seed))
                .map(|report| {
                    let v = rec.span("serve.check", |_| {
                        invariants::check(s.requests.len() as u64, &report)
                    });
                    (report, v)
                }),
            ),
            Workload::FleetAutoscale(f) => {
                let fleet = rec.span("fleet.new", |_| {
                    Fleet::new(&f.config, f.tenants.clone(), f.book.clone(), f.fleet)
                });
                Outputs::Fleet(
                    rec.span("fleet.run", |_| fleet.run(&f.requests))
                        .map_err(|e| format!("fleet(seed={}): {e}", f.seed))
                        .map(|report| {
                            let v = rec.span("fleet.check", |_| invariants::check_fleet(&report));
                            (report, v)
                        }),
                )
            }
        }
    }

    /// Checks one pass's outputs and counts its work.
    #[must_use]
    pub fn verify(&self, outputs: &Outputs) -> Verdict {
        let mut d = Digest::default();
        let mut counts = Counts::default();
        let mut failures = Vec::new();
        let ops;
        match outputs {
            Outputs::Flat(runs) => {
                ops = runs.len() as u64;
                counts.kernels_builds = ops;
                // Canonical order, so every seed of the sweep digests alike.
                let mut sorted: Vec<_> = runs.iter().collect();
                sorted.sort_by_key(|(b, t, _)| (b.name(), *t));
                for (b, target, run) in sorted {
                    d.str(b.name());
                    d.str(target);
                    match run {
                        Ok(r) => {
                            d.word(r.cycles);
                            d.word(r.retired);
                            counts.isa_retired += r.retired;
                            if let Err(e) = oracle::check_flat(*b, target, r.cycles, r.retired) {
                                failures.push(e);
                            }
                        }
                        Err(e) => failures.push(format!("{} on {target}: {e}", b.name())),
                    }
                }
            }
            Outputs::Cluster(runs) => {
                ops = runs.len() as u64;
                counts.kernels_builds = ops;
                counts.offload_plan_calls = ops;
                let mut sorted: Vec<_> = runs.iter().collect();
                sorted.sort_by_key(|(b, _)| b.name());
                for (b, run) in sorted {
                    d.str(b.name());
                    match run {
                        Ok(r) => {
                            let (secs, joules) = r.predict_sums;
                            let bits = [secs.to_bits(), joules.to_bits(), r.plan_seconds.to_bits()];
                            for w in [r.cycles_cold, r.cycles_warm].iter().chain(&bits) {
                                d.word(*w);
                            }
                            counts.cluster_retired += r.retired;
                            counts.cluster_sim_cycles += r.cycles_cold + r.cycles_warm;
                            counts.offload_predict_calls += r.predict_calls;
                            if let Err(e) =
                                oracle::check_cluster(*b, r.cycles_cold, r.cycles_warm, bits)
                            {
                                failures.push(e);
                            }
                        }
                        Err(e) => failures.push(format!("{}: {e}", b.name())),
                    }
                }
            }
            Outputs::Soak(out) => {
                ops = 1;
                let Workload::SoakChaos(s) = self else {
                    unreachable!("soak outputs come from the soak workload")
                };
                match out {
                    Ok((report, violations)) => {
                        d.report(report);
                        count_report(&mut counts, report);
                        counts.serve_requests = s.requests.len() as u64;
                        failures.extend(violations.iter().cloned());
                        if s.seed == default_seed("soak-chaos") {
                            let observed = oracle::soak_summary(counts.serve_requests, report);
                            failures.extend(oracle::check_pinned(&observed, oracle::SOAK_CHAOS));
                        }
                    }
                    Err(e) => failures.push(e.clone()),
                }
            }
            Outputs::Fleet(out) => {
                ops = 1;
                let Workload::FleetAutoscale(f) = self else {
                    unreachable!("fleet outputs come from the fleet workload")
                };
                match out {
                    Ok((report, violations)) => {
                        d.word(report.offered);
                        d.word(report.makespan_ns);
                        for g in &report.groups {
                            d.word(g.offered);
                            d.report(&g.report);
                            count_report(&mut counts, &g.report);
                        }
                        for e in &report.scale_events {
                            for w in [e.at_ns, e.group as u64, e.from as u64, e.to as u64] {
                                d.word(w);
                            }
                        }
                        counts.serve_requests = report.offered;
                        counts.fleet_groups = report.groups.len() as u64;
                        counts.fleet_scale_events = report.scale_events.len() as u64;
                        counts.fleet_priced_out = report.priced_out();
                        failures.extend(violations.iter().cloned());
                        if f.seed == default_seed("fleet-autoscale") {
                            let observed = oracle::fleet_summary(report);
                            failures.extend(oracle::check_pinned(&observed, oracle::FLEET_1024W));
                        }
                    }
                    Err(e) => failures.push(e.clone()),
                }
            }
        }
        Verdict {
            ops,
            failures,
            digest: d.finish(),
            counts,
        }
    }
}

fn flat_env(target: &str) -> TargetEnv {
    match target {
        "baseline" => TargetEnv::baseline(),
        "m3" => TargetEnv::host_m3(),
        _ => TargetEnv::host_m4(),
    }
}

/// One kernel of the cluster-offload pass: build, fresh system, verified
/// cold + warm cluster runs, the Fig. 5b `predict` grid, one queue plan.
fn cluster_kernel(b: Benchmark, rec: &mut Recorder) -> Result<ClusterRun, String> {
    let build = rec.span("kernels.build", |_| b.build(&TargetEnv::pulp_parallel()));
    let mut sys = rec.span(
        "offload.new",
        |_| HetSystem::new(HetSystemConfig::default()),
    );
    let before = retired_total();
    let cost = rec
        .span("cluster.measure_cost", |_| sys.measure_cost(&build))
        .map_err(|e| e.to_string())?;
    let retired = retired_total() - before;

    let grid: Vec<OffloadOptions> = (1..=GRID_ITERATIONS)
        .flat_map(|iterations| {
            [PipelineConfig::default(), PipelineConfig::enabled()].map(|pipeline| OffloadOptions {
                iterations,
                pipeline,
                ..OffloadOptions::default()
            })
        })
        .collect();
    let predict_sums = rec.span("offload.predict", |_| {
        grid.iter().fold((0.0, 0.0), |(s, j), opts| {
            let r = sys.predict(&cost, opts, true);
            (s + r.total_seconds(), j + r.total_energy_joules())
        })
    });

    let jobs: Vec<PlannedJob<'_>> = (0..QUEUE_JOBS)
        .map(|i| PlannedJob {
            cost: &cost,
            opts: OffloadOptions::default(),
            ship_binary: i == 0,
        })
        .collect();
    let plan = rec.span("offload.plan_queue", |_| {
        sys.plan_queue(&jobs, PipelineConfig::enabled())
    });
    Ok(ClusterRun {
        cycles_cold: cost.cycles_cold,
        cycles_warm: cost.cycles_warm,
        retired,
        predict_calls: grid.len() as u64,
        predict_sums,
        plan_seconds: plan.total_seconds,
    })
}

/// Adds one pool report's serve and link work to `counts`.
fn count_report(counts: &mut Counts, r: &ServeReport) {
    counts.serve_batches += r.batch_hist.iter().sum::<u64>();
    counts.link_frames += r.chaos.frames;
    counts.link_retransmissions += r.chaos.retransmissions;
}
