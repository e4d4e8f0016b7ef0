//! The serving pool: admission control, kernel-aware batching, weighted
//! fair dispatch over simulated accelerator workers.
//!
//! # Determinism
//!
//! A serve run is a discrete-event simulation on a virtual nanosecond
//! clock. Every scheduling decision is a pure function of the request
//! stream and the pool state — no wall clock, no thread timing. The only
//! parallelism is [`CostBook::measure`], which fans the per-kernel
//! cluster simulations out with `ulp_par::par_map`; `par_map` is
//! order-preserving and each simulation is independent, so the book (and
//! everything downstream of it) is identical under any `--jobs` setting.
//! Chaos draws ([`ChaosConfig`]) come from per-worker seeded streams
//! that advance exactly once per assessed frame, so a faulty run is just
//! as replayable as a clean one.
//!
//! # Why batching wins
//!
//! A cold offload pays the program upload (text + rodata + constants)
//! before the first payload frame moves. Serial per-request dispatch
//! interleaves kernels on each worker, so residency thrashes and nearly
//! every request pays that upload. A kernel-aware batch ships the binary
//! once for N payloads and threads all N through one shared pipeline
//! [`Schedule`](ulp_offload::PipelineConfig), overlapping request k+1's
//! input stream under request k's compute — the two amortizations
//! arXiv:2404.01908 and arXiv:2505.05911 identify.

use std::collections::VecDeque;

use ulp_kernels::{Benchmark, TargetEnv};
use ulp_link::FaultInjector;
use ulp_offload::{
    HetSystem, HetSystemConfig, OffloadCost, OffloadOptions, PipelineConfig, PlannedJob,
};
use ulp_par::par_map;
use ulp_trace::{Component, EventKind, Tracer};

use crate::autoscale::{AutoscalePolicy, ScaleDecision, ScaleEvent};
use crate::chaos::{
    degrade, BatchFate, ChaosConfig, ChaosStats, DispatchJob, LinkTiming, Timeline,
};
use crate::error::ServeError;
use crate::metrics::{
    select_percentile_ns, LatencyStats, OutcomeKind, PowerEvent, RequestOutcome, ServeReport,
    SloLedger, TenantReport,
};
use crate::request::{DeadlineClass, ServeRequest, TenantSpec};

/// One measured kernel of a [`CostBook`].
#[derive(Clone, Debug)]
struct BookEntry {
    benchmark: Benchmark,
    cost: OffloadCost,
    /// Serialized one-iteration offload estimate, ns (fair-share charge).
    est_ns: u64,
    /// Host-only cost of one iteration, ns; 0 = never measured.
    host_est_ns: u64,
}

/// Measured offload costs of the kernels a pool serves, plus the serial
/// cost estimate the fair scheduler charges tenants with.
///
/// Measuring runs two cluster simulations per kernel, which is the
/// expensive part of bringing a pool up — [`CostBook::measure`] fans it
/// out across kernels with `ulp-par`. Scheduling then never touches the
/// cluster again: batches are priced with the pure
/// [`HetSystem::plan_queue`] planner against these cached costs.
///
/// [`CostBook::measure_with_host`] additionally prices each kernel on
/// the host alone, which arms the chaos layer's host fallback
/// ([`ChaosConfig::fallback_to_host`]).
#[derive(Clone, Debug)]
pub struct CostBook {
    entries: Vec<BookEntry>,
    /// `slots[b as usize]` is kernel `b`'s position in `entries`.
    slots: [Option<usize>; Benchmark::ALL.len()],
}

impl CostBook {
    /// Measures every kernel in `benchmarks` (in parallel, one scratch
    /// [`HetSystem`] per kernel) and records its cost parameters plus
    /// the serialized one-iteration cost estimate.
    ///
    /// # Errors
    ///
    /// Returns the first measurement error any kernel hit.
    pub fn measure(
        env: &TargetEnv,
        config: &HetSystemConfig,
        benchmarks: &[Benchmark],
    ) -> Result<CostBook, ServeError> {
        Self::measure_inner(env, None, config, benchmarks)
    }

    /// Like [`CostBook::measure`], but also runs each kernel's
    /// host-targeted build on the MCU alone and records its per-iteration
    /// cost — required before a pool may fail batches over to the host.
    ///
    /// # Errors
    ///
    /// Returns the first measurement error any kernel hit (accelerator
    /// or host side).
    pub fn measure_with_host(
        env: &TargetEnv,
        host_env: &TargetEnv,
        config: &HetSystemConfig,
        benchmarks: &[Benchmark],
    ) -> Result<CostBook, ServeError> {
        Self::measure_inner(env, Some(host_env), config, benchmarks)
    }

    fn measure_inner(
        env: &TargetEnv,
        host_env: Option<&TargetEnv>,
        config: &HetSystemConfig,
        benchmarks: &[Benchmark],
    ) -> Result<CostBook, ServeError> {
        let measured = par_map(benchmarks, |_, &b| -> Result<_, ServeError> {
            let mut sys = HetSystem::new(config.clone());
            let build = b.build(env);
            let cost = sys.measure_cost(&build)?;
            let est = sys.plan_queue(
                &[PlannedJob {
                    cost: &cost,
                    opts: OffloadOptions::default(),
                    ship_binary: true,
                }],
                PipelineConfig::default(),
            );
            let est_ns = (est.serialized_seconds * 1e9).round() as u64;
            let host_est_ns = match host_env {
                Some(henv) => {
                    let host = sys.run_on_host(&b.build(henv))?;
                    ((host.seconds * 1e9).round() as u64).max(1)
                }
                None => 0,
            };
            Ok(BookEntry {
                benchmark: b,
                cost,
                est_ns,
                host_est_ns,
            })
        });
        let mut entries = Vec::with_capacity(benchmarks.len());
        let mut slots = [None; Benchmark::ALL.len()];
        for r in measured {
            let e = r?;
            slots[e.benchmark as usize].get_or_insert(entries.len());
            entries.push(e);
        }
        Ok(CostBook { entries, slots })
    }

    /// The measured cost of one kernel.
    ///
    /// # Panics
    ///
    /// Panics when the kernel was not measured — requests for unknown
    /// kernels are a pool configuration bug. [`ServePool::run`] validates
    /// its whole request stream up front and reports
    /// [`ServeError::UnknownKernel`] instead of panicking.
    #[must_use]
    pub fn cost(&self, b: Benchmark) -> &OffloadCost {
        &self.entry(b).cost
    }

    /// Serialized single-iteration cost estimate of one kernel, in
    /// nanoseconds — the fair scheduler's charging unit.
    #[must_use]
    pub fn est_ns(&self, b: Benchmark, iterations: usize) -> u64 {
        self.entry(b)
            .est_ns
            .saturating_mul(iterations.max(1) as u64)
    }

    /// Host-only cost of one iteration of a kernel, in nanoseconds.
    /// Zero when the book was built without host measurements.
    #[must_use]
    pub fn host_est_ns(&self, b: Benchmark) -> u64 {
        self.index_of(b).map_or(0, |i| self.entries[i].host_est_ns)
    }

    /// Kernels in the book, in measurement order.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        self.entries.iter().map(|e| e.benchmark).collect()
    }

    /// Position of a kernel in the book, or `None` if unmeasured.
    #[must_use]
    pub fn index_of(&self, b: Benchmark) -> Option<usize> {
        self.slots[b as usize]
    }

    /// Position of a kernel, as a contextful error for soak harnesses.
    fn try_index(&self, b: Benchmark) -> Result<usize, ServeError> {
        self.index_of(b)
            .ok_or(ServeError::UnknownKernel { kernel: b.name() })
    }

    fn entry(&self, b: Benchmark) -> &BookEntry {
        &self.entries[self.index_of(b).expect("benchmark not in cost book")]
    }
}

/// How the pool forms batches.
#[derive(Clone, Copy, Debug)]
pub enum BatchPolicy {
    /// One request per dispatch — the per-request baseline the paper's
    /// runtime implements today.
    Serial,
    /// Coalesce same-kernel requests, up to `max_batch` per dispatch.
    KernelAware {
        /// Largest batch a single dispatch may carry (≥ 1).
        max_batch: usize,
    },
}

impl BatchPolicy {
    fn max_batch(self) -> usize {
        match self {
            BatchPolicy::Serial => 1,
            BatchPolicy::KernelAware { max_batch } => max_batch.max(1),
        }
    }
}

/// Pressure-scaled admission pricing per SLO class.
///
/// Queue-cap admission control is per tenant and class-blind; pricing
/// adds a group-wide gate: each arrival is charged against the pool's
/// current pressure (total queued depth relative to what the active
/// workers can absorb), and a class is admitted only while pressure sits
/// under its ceiling. Ceilings descend by class rank, so under load
/// batch traffic is shed first, standard next, and interactive last —
/// exactly the triage a fleet front-end applies before requests ever
/// reach a node group. Disabled by default; a disabled config leaves
/// every run byte-identical to a pool without it.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPricing {
    /// Master switch; `false` bypasses pricing entirely.
    pub enabled: bool,
    /// Queued requests per active worker considered 100% pressure.
    pub target_depth_per_worker: u32,
    /// Admission ceiling per class rank (interactive, standard, batch)
    /// in percent of target pressure: a class-`c` arrival is admitted
    /// only while pressure is strictly below `ceiling_pct[c]`.
    pub ceiling_pct: [u32; 3],
}

impl Default for AdmissionPricing {
    fn default() -> Self {
        AdmissionPricing {
            enabled: false,
            target_depth_per_worker: 32,
            ceiling_pct: [100, 75, 50],
        }
    }
}

impl AdmissionPricing {
    /// A pricing config with the default thresholds switched on.
    #[must_use]
    pub fn enabled() -> Self {
        AdmissionPricing {
            enabled: true,
            ..AdmissionPricing::default()
        }
    }
}

/// The power-envelope governor: keep a pool under a joules-per-second
/// (watt) budget by walking the accelerator's DVFS ladder instead of
/// shedding load.
///
/// The pool prices every dispatch at its current operating point; at each
/// decision instant the governor converts the energy dispatched over the
/// last window into average watts and compares it with the budget. Over
/// budget it steps *down* one rung (lower VDD, lower clock — service
/// slows, queues grow, and the existing queue-cap/pricing admission
/// machinery sheds load only once the slowest rung still overshoots);
/// comfortably under budget (below `upscale_margin × budget_w`) it steps
/// back up. Decisions fire at fixed virtual-time instants, so the event
/// log is a pure function of the request stream.
///
/// Disabled (the default) the ladder has a single rung — the configured
/// operating point — and every run is bit-identical to a pool without
/// the governor.
#[derive(Clone, Copy, Debug)]
pub struct PowerPolicy {
    /// Master switch; `false` bypasses the governor entirely.
    pub enabled: bool,
    /// Average-power budget over a decision window, watts.
    pub budget_w: f64,
    /// Decision cadence in virtual nanoseconds.
    pub interval_ns: u64,
    /// Lowest supply the ladder descends to (≥ 0.5 V, the power tables'
    /// floor).
    pub min_vdd: f64,
    /// Supply step between rungs, volts.
    pub step_vdd: f64,
    /// Step back up when window power drops below this fraction of the
    /// budget (hysteresis against rung flapping).
    pub upscale_margin: f64,
}

impl Default for PowerPolicy {
    fn default() -> Self {
        PowerPolicy {
            enabled: false,
            budget_w: 5.0e-3,
            interval_ns: 1_000_000,
            min_vdd: 0.5,
            step_vdd: 0.05,
            upscale_margin: 0.7,
        }
    }
}

impl PowerPolicy {
    /// A governor with the default ladder shape armed at `budget_w`.
    #[must_use]
    pub fn with_budget(budget_w: f64) -> Self {
        PowerPolicy {
            enabled: true,
            budget_w,
            ..PowerPolicy::default()
        }
    }

    /// The descending supply ladder this policy spans from `start_vdd`:
    /// rung 0 is the configured operating point, later rungs step down by
    /// `step_vdd` to `min_vdd`. A disabled policy has the single
    /// configured rung.
    #[must_use]
    pub fn ladder(&self, start_vdd: f64) -> Vec<f64> {
        if !self.enabled {
            return vec![start_vdd];
        }
        let mut rungs = vec![start_vdd];
        let mut v = start_vdd - self.step_vdd;
        // Tolerance absorbs the accumulated binary error of repeated
        // decimal subtraction, so a 0.65 → 0.5 descent lands on 0.5.
        while v >= self.min_vdd - 1e-9 {
            rungs.push(v.max(self.min_vdd));
            v -= self.step_vdd;
        }
        rungs
    }
}

/// Static configuration of a [`ServePool`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of accelerator workers.
    pub pool: usize,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Weighted fair scheduling across tenants; `false` degrades to
    /// global FIFO (the fairness regression's adversary).
    pub fair: bool,
    /// Allow a batch started by one tenant to be topped up with other
    /// tenants' same-kernel requests.
    pub cross_tenant: bool,
    /// Pipeline configuration every dispatch runs under.
    pub pipeline: PipelineConfig,
    /// Host cycles one dispatch transaction costs on top of the modeled
    /// offload: runtime entry, descriptor and map-list construction,
    /// completion interrupt, and response marshalling. The offload
    /// model's `sync_seconds` covers only the two GPIO edges per
    /// iteration; the serving front-end pays this full software path
    /// once per *dispatch*, which is exactly the overhead arXiv:2404.01908
    /// and arXiv:2505.05911 measure (10²–10⁴ host cycles per offload)
    /// and amortize by batching. Default 8 000 cycles — 0.5 ms on the
    /// 16 MHz STM32-L476.
    pub dispatch_overhead_cycles: u64,
    /// Autoscaling policy. `None` (the default) pins the active worker
    /// count at `pool`; `Some` allocates `max_workers` workers up front,
    /// starts `pool` of them active, and lets the policy grow/shrink the
    /// active prefix at its decision cadence.
    pub autoscale: Option<AutoscalePolicy>,
    /// Pressure-scaled per-class admission pricing (off by default).
    pub admission: AdmissionPricing,
    /// Power-envelope governor (off by default).
    pub power: PowerPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool: 1,
            policy: BatchPolicy::KernelAware { max_batch: 8 },
            fair: true,
            cross_tenant: true,
            pipeline: PipelineConfig::enabled(),
            dispatch_overhead_cycles: 8_000,
            autoscale: None,
            admission: AdmissionPricing::default(),
            power: PowerPolicy::default(),
        }
    }
}

/// One simulated accelerator worker. Workers carry scheduling state
/// only — batch pricing goes through the pool's single shared planner —
/// so a 1024-worker fleet group costs vectors of three scalars, not a
/// thousand cluster models.
struct Worker {
    resident: Option<Benchmark>,
    free_at_ns: u64,
    busy_ns: u64,
}

/// One tenant's admitted requests and its run tallies.
///
/// The queue is one FIFO per (class rank, kernel index) pair, each in
/// `(arrival_ns, id)` order. The tenant's `(class, arrival, id)`-least
/// request is therefore the least of at most `3 × kernels` fronts, and a
/// same-kernel batch pops the kernel's FIFOs class by class.
struct TenantState {
    spec: TenantSpec,
    /// `fifos[rank][kernel]`.
    fifos: [Vec<VecDeque<ServeRequest>>; DeadlineClass::ALL.len()],
    /// Requests queued across all FIFOs.
    len: usize,
    vtime: u64,
    latencies: Vec<u64>,
    rejected: u64,
    deadline_misses: u64,
    failed_over: u64,
    failed: u64,
}

/// Least `(arrival_ns, id)` front among one class's kernel FIFOs, with
/// its kernel index.
fn oldest_front(class: &[VecDeque<ServeRequest>]) -> Option<(usize, ServeRequest)> {
    class
        .iter()
        .enumerate()
        .filter_map(|(k, fifo)| fifo.front().map(|r| (k, *r)))
        .min_by_key(|(_, r)| (r.arrival_ns, r.id))
}

impl TenantState {
    fn new(spec: TenantSpec, kernels: usize) -> Self {
        TenantState {
            spec,
            fifos: std::array::from_fn(|_| vec![VecDeque::new(); kernels]),
            len: 0,
            vtime: 0,
            latencies: Vec::new(),
            rejected: 0,
            deadline_misses: 0,
            failed_over: 0,
            failed: 0,
        }
    }

    /// Queues `r` (of kernel index `kernel`) at its `(arrival_ns, id)`
    /// position — the back, for an arrival-sorted stream with unique ids.
    fn push(&mut self, r: ServeRequest, kernel: usize) {
        let fifo = &mut self.fifos[r.class.rank() as usize][kernel];
        let at = fifo.partition_point(|q| (q.arrival_ns, q.id) <= (r.arrival_ns, r.id));
        fifo.insert(at, r);
        self.len += 1;
    }

    /// The fair discipline's head: least `(class, arrival, id)`.
    fn head(&self) -> Option<(usize, ServeRequest)> {
        self.fifos.iter().find_map(|class| oldest_front(class))
    }

    /// The global-FIFO discipline's head: least `(arrival, id)`.
    fn oldest(&self) -> Option<(usize, ServeRequest)> {
        self.fifos
            .iter()
            .filter_map(|class| oldest_front(class))
            .min_by_key(|(_, r)| (r.arrival_ns, r.id))
    }

    fn has_kernel(&self, kernel: usize) -> bool {
        self.fifos.iter().any(|class| !class[kernel].is_empty())
    }
}

/// Every tenant's queue plus the pool-wide scheduling state the
/// dispatch loop reads on each wake-up: total depth and the fairness
/// floor. For an arrival-sorted stream, admission costs O(log FIFO
/// length), head selection O(tenants + classes × kernels), and batch
/// removal O(batch + tenants + classes × kernels) — never O(queue
/// depth).
struct Backlog {
    tenants: Vec<TenantState>,
    /// Requests queued across all tenants.
    depth: usize,
    /// Fairness floor for newly backlogged tenants.
    vnow: u64,
    /// Scratch tenant order for cross-tenant top-ups.
    order: Vec<usize>,
}

impl Backlog {
    fn new(specs: &[TenantSpec], kernels: usize) -> Self {
        Backlog {
            tenants: specs
                .iter()
                .map(|spec| TenantState::new(spec.clone(), kernels))
                .collect(),
            depth: 0,
            vnow: 0,
            order: Vec::new(),
        }
    }

    fn admit(&mut self, r: ServeRequest, kernel: usize) {
        let t = &mut self.tenants[r.tenant];
        if t.len == 0 {
            // A tenant returning from idle starts at the current
            // fairness floor instead of spending banked credit.
            t.vtime = t.vtime.max(self.vnow);
        }
        t.push(r, kernel);
        self.depth += 1;
    }

    /// The request the next batch will be built around, with its kernel
    /// index: under fair scheduling the least-vtime backlogged tenant's
    /// `(class, arrival, id)`-least request, otherwise the pool-wide
    /// `(arrival, id)`-least one.
    fn head(&self, fair: bool) -> Option<(usize, ServeRequest)> {
        if fair {
            self.tenants
                .iter()
                .filter(|t| t.len > 0)
                .min_by_key(|t| t.vtime)?
                .head()
        } else {
            self.tenants
                .iter()
                .filter_map(TenantState::oldest)
                .min_by_key(|(_, r)| (r.arrival_ns, r.id))
        }
    }

    /// Moves the next batch into `batch`: the head's kernel, topped up
    /// with same-kernel requests (the head's tenant first, then — if
    /// `cross_tenant` — other tenants in fairness order), each tenant's
    /// share in `(class, arrival, id)` order. Charges every request's
    /// estimated serial cost (`est_ns` per iteration) to its tenant's
    /// virtual time.
    fn take_batch(
        &mut self,
        head: &ServeRequest,
        kernel: usize,
        est_ns: u64,
        cfg: &ServeConfig,
        batch: &mut Vec<ServeRequest>,
    ) {
        let max_batch = cfg.policy.max_batch();
        batch.clear();
        self.take_from(head.tenant, kernel, est_ns, max_batch, batch);
        if cfg.cross_tenant && batch.len() < max_batch {
            let mut order = std::mem::take(&mut self.order);
            order.clear();
            order.extend(
                (0..self.tenants.len())
                    .filter(|&i| i != head.tenant && self.tenants[i].has_kernel(kernel)),
            );
            if cfg.fair {
                order.sort_by_key(|&i| (self.tenants[i].vtime, i));
            }
            for &ti in &order {
                if batch.len() >= max_batch {
                    break;
                }
                self.take_from(ti, kernel, est_ns, max_batch, batch);
            }
            self.order = order;
        }
        assert!(!batch.is_empty(), "head request must be batched");
    }

    /// Pops tenant `ti`'s `kernel` requests class by class until `batch`
    /// holds `max_batch`, and charges them to the tenant.
    fn take_from(
        &mut self,
        ti: usize,
        kernel: usize,
        est_ns: u64,
        max_batch: usize,
        batch: &mut Vec<ServeRequest>,
    ) {
        let t = &mut self.tenants[ti];
        let start = batch.len();
        let mut charged = 0u64;
        for class in &mut t.fifos {
            let fifo = &mut class[kernel];
            while batch.len() < max_batch {
                let Some(r) = fifo.pop_front() else { break };
                charged += est_ns.saturating_mul(r.iterations.max(1) as u64);
                batch.push(r);
            }
        }
        let taken = batch.len() - start;
        if taken == 0 {
            return;
        }
        t.len -= taken;
        self.depth -= taken;
        self.vnow = self.vnow.max(t.vtime);
        t.vtime += charged / u64::from(t.spec.weight.max(1));
    }
}

/// Healthy price of one dispatch shape, cached so a million-request soak
/// calls the queue planner once per distinct (operating point, kernel,
/// batch iterations, ship) shape instead of once per dispatch.
#[derive(Clone, Copy, Debug)]
struct Price {
    /// Fault-free service time including dispatch overhead, ns.
    base_ns: u64,
    /// Accelerator compute portion (arms the automatic watchdog), ns.
    compute_ns: u64,
    /// Fault-free energy of the dispatch — the planned offload (both
    /// sides, link included) plus the host's dispatch-overhead window at
    /// run power — in joules.
    energy_j: f64,
}

/// The multi-tenant serving front-end: a pool of simulated accelerator
/// workers behind bounded per-tenant queues.
///
/// See the [module docs](crate::server) for the scheduling model;
/// [`ServePool::run`] executes one request stream to completion.
/// [`ServePool::with_chaos`] and [`ServePool::with_timeline`] attach
/// fault injection and scripted disruptions; with neither attached a run
/// is bit-identical to a chaos-free build of the pool.
pub struct ServePool {
    cfg: ServeConfig,
    book: CostBook,
    tenants: Vec<TenantSpec>,
    workers: Vec<Worker>,
    /// Shared pure planners all batch pricing goes through, one per rung
    /// of the power governor's DVFS ladder (a single entry — the
    /// configured operating point — when the governor is off). Workers
    /// are identical, so one model per rung prices every dispatch shape.
    planners: Vec<HetSystem>,
    mcu_hz: f64,
    tracer: Tracer,
    chaos: ChaosConfig,
    timeline: Timeline,
    timing: LinkTiming,
    /// Memoized dispatch prices: slot `(op × kernels + kernel) × 2 +
    /// ships-binary` holds `(batch iterations, price)` pairs sorted by
    /// iterations.
    prices: Vec<Vec<(usize, Price)>>,
}

impl ServePool {
    /// Builds a pool of `cfg.pool` identical workers (with autoscaling
    /// configured, `autoscale.max_workers` workers of which `cfg.pool`
    /// start active).
    ///
    /// # Panics
    ///
    /// Panics when the pool would allocate more than 65 536 workers:
    /// trace worker ids ([`Component::Worker`]) are 16-bit.
    #[must_use]
    pub fn new(
        sys_config: &HetSystemConfig,
        tenants: Vec<TenantSpec>,
        book: CostBook,
        cfg: ServeConfig,
    ) -> Self {
        let alloc = cfg
            .autoscale
            .map_or(cfg.pool, |p| p.max_workers.max(cfg.pool))
            .max(1);
        assert!(
            alloc <= usize::from(u16::MAX) + 1,
            "a pool holds at most 65536 workers, asked for {alloc}"
        );
        let workers = (0..alloc)
            .map(|_| Worker {
                resident: None,
                free_at_ns: 0,
                busy_ns: 0,
            })
            .collect();
        let planners = cfg
            .power
            .ladder(sys_config.pulp_vdd)
            .into_iter()
            .map(|vdd| {
                let mut rung = sys_config.clone();
                rung.pulp_vdd = vdd;
                rung.pulp_freq_hz = rung.power.fmax_hz(vdd).min(sys_config.pulp_freq_hz);
                HetSystem::new(rung)
            })
            .collect::<Vec<_>>();
        let prices = vec![Vec::new(); planners.len() * book.entries.len() * 2];
        ServePool {
            cfg,
            book,
            tenants,
            workers,
            planners,
            mcu_hz: sys_config.mcu_freq_hz,
            tracer: Tracer::disabled(),
            chaos: ChaosConfig::default(),
            timeline: Timeline::default(),
            timing: LinkTiming::new(sys_config),
            prices,
        }
    }

    /// Attaches a tracer; the run emits `batch` / `queue-depth` events
    /// and per-worker utilization counters into it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches per-worker fault injection. An inactive config (no
    /// profiles, or all-zero rates) leaves every run bit-identical to a
    /// pool without it.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Attaches a scripted disruption timeline (worker blackouts and
    /// residency flushes).
    #[must_use]
    pub fn with_timeline(mut self, timeline: Timeline) -> Self {
        self.timeline = timeline;
        self
    }

    /// The cost book the pool schedules against.
    #[must_use]
    pub fn book(&self) -> &CostBook {
        &self.book
    }

    /// Runs one request stream (sorted by arrival) to completion and
    /// reports what happened. Worker state is reset first, so repeated
    /// runs of the same stream produce identical reports.
    ///
    /// The stream is validated up front: every request must name a
    /// tenant inside the tenant table and a kernel the cost book
    /// measured, and — when fault injection could fail a batch over to
    /// the host — every requested kernel must carry a host cost. A
    /// misconfiguration is reported before any virtual time elapses, so
    /// soak harnesses can attach the workload seed to the error.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`], [`ServeError::UnknownKernel`], or
    /// [`ServeError::MissingHostCost`] on a request stream the pool was
    /// not configured for.
    pub fn run(&mut self, requests: &[ServeRequest]) -> Result<ServeReport, ServeError> {
        let need_host = self.chaos.is_active() && self.chaos.fallback_to_host;
        for r in requests {
            if r.tenant >= self.tenants.len() {
                return Err(ServeError::UnknownTenant {
                    index: r.tenant,
                    tenants: self.tenants.len(),
                });
            }
            let bidx = self.book.try_index(r.benchmark)?;
            if need_host && self.book.entries[bidx].host_est_ns == 0 {
                return Err(ServeError::MissingHostCost {
                    kernel: r.benchmark.name(),
                });
            }
        }

        for w in &mut self.workers {
            w.resident = None;
            w.free_at_ns = 0;
            w.busy_ns = 0;
        }
        let mut backlog = Backlog::new(&self.tenants, self.book.entries.len());
        let mut injectors: Vec<Option<FaultInjector>> = (0..self.workers.len())
            .map(|i| self.chaos.injector_for(i))
            .collect();

        let mut batch: Vec<ServeRequest> = Vec::with_capacity(self.cfg.policy.max_batch());
        let mut next_arrival = 0usize;
        let mut now = 0u64;
        let mut batch_hist: Vec<u64> = Vec::new();
        let mut uploads = 0u64;
        let mut makespan = 0u64;
        let mut max_depth = 0usize;
        let mut flush_idx = 0usize;
        let mut admitted = 0u64;
        let mut completed = 0u64;
        let mut stats = ChaosStats::default();
        let mut ledger = SloLedger::new(backlog.tenants.len());
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(requests.len());

        // Autoscaler state: `active` gates dispatch to the worker prefix
        // `workers[..active]`; deactivated workers drain whatever batch
        // they already hold. Decisions fire at fixed virtual-time
        // instants, so the decision log is a pure function of the run.
        let auto = self.cfg.autoscale;
        let mut active = auto.map_or(self.workers.len(), |p| p.clamp(self.cfg.pool));
        let mut next_decision = auto.map(|p| p.interval_ns);
        let mut cooldown_until = 0u64;
        let mut window_lat: Vec<u64> = Vec::new();
        let mut scale_events: Vec<ScaleEvent> = Vec::new();
        let mut capacity_ns = 0u64;
        let mut priced_out = 0u64;

        // Power-governor state: `op` indexes the planner ladder (0 = the
        // configured operating point, deeper = lower VDD). Dispatch energy
        // accrues into the decision window; each decision converts the
        // window into average watts against the budget. Energy totals are
        // tracked even with the governor off — they add report fields
        // without perturbing any existing figure.
        let power = self.cfg.power;
        let rungs = self.planners.len();
        let mut op = 0usize;
        let mut next_power_decision = power.enabled.then_some(power.interval_ns);
        let mut last_power_decision = 0u64;
        // Each dispatch's energy is spread uniformly over its service
        // interval as a (start, end, watts) segment; a decision window
        // integrates the overlapping segments. Attributing the whole
        // batch to its dispatch instant would make windows inside long
        // low-rung batches read zero watts and flap the governor up.
        let mut power_segments: Vec<(u64, u64, f64)> = Vec::new();
        let mut energy_joules = 0.0f64;
        let mut op_residency_ns = vec![0u64; if power.enabled { rungs } else { 0 }];
        let mut power_events: Vec<PowerEvent> = Vec::new();

        loop {
            // Apply residency-churn flushes that have come due: every
            // worker forgets its resident binary, so the next dispatch
            // pays the upload again.
            while flush_idx < self.timeline.flushes.len() && self.timeline.flushes[flush_idx] <= now
            {
                flush_idx += 1;
                stats.residency_flushes += 1;
                for w in &mut self.workers {
                    w.resident = None;
                }
            }

            // Evaluate autoscaling decisions that have come due. The
            // decision window's p99 covers completions recorded since the
            // previous decision; the window resets whether or not an
            // action fires, so each decision sees fresh evidence.
            if let Some(policy) = auto {
                while let Some(nd) = next_decision.filter(|&nd| nd <= now) {
                    let p99 = select_percentile_ns(&mut window_lat, 99.0);
                    window_lat.clear();
                    if nd >= cooldown_until {
                        if let ScaleDecision::Scale(to, reason) =
                            policy.decide(active, backlog.depth, p99)
                        {
                            scale_events.push(ScaleEvent {
                                at_ns: nd,
                                group: 0,
                                from: active,
                                to,
                                queue_depth: backlog.depth,
                                window_p99_ns: p99,
                                reason,
                            });
                            self.tracer.emit(
                                Component::Host,
                                EventKind::Scale {
                                    from: active as u32,
                                    to: to as u32,
                                },
                                nd,
                                0,
                            );
                            active = to;
                            cooldown_until = nd + policy.cooldown_ns;
                        }
                    }
                    next_decision = Some(nd + policy.interval_ns);
                }
            }

            // Evaluate power-governor decisions that have come due. The
            // window's energy is everything dispatched since the last
            // decision; it resets whether or not the rung moves.
            if power.enabled {
                while let Some(nd) = next_power_decision.filter(|&nd| nd <= now) {
                    let window_ns = nd - last_power_decision;
                    let window_energy_j: f64 = power_segments
                        .iter()
                        .map(|&(start, end, watts)| {
                            let lo = start.max(last_power_decision);
                            let hi = end.min(nd);
                            watts * (hi.saturating_sub(lo) as f64 * 1e-9)
                        })
                        .sum();
                    power_segments.retain(|&(_, end, _)| end > nd);
                    let window_w = if window_ns > 0 {
                        window_energy_j / (window_ns as f64 * 1e-9)
                    } else {
                        0.0
                    };
                    let to = if window_w > power.budget_w {
                        (op + 1).min(rungs - 1)
                    } else if window_w < power.upscale_margin * power.budget_w {
                        op.saturating_sub(1)
                    } else {
                        op
                    };
                    if to != op {
                        power_events.push(PowerEvent {
                            at_ns: nd,
                            from_op: op,
                            to_op: to,
                            window_w,
                        });
                        op = to;
                    }
                    last_power_decision = nd;
                    next_power_decision = Some(nd + power.interval_ns);
                }
            }

            // Admit everything that has arrived by `now`.
            while next_arrival < requests.len() && requests[next_arrival].arrival_ns <= now {
                let r = requests[next_arrival];
                next_arrival += 1;
                let priced = self.cfg.admission.enabled && {
                    let target = (active as u64
                        * u64::from(self.cfg.admission.target_depth_per_worker))
                    .max(1);
                    let pressure_pct = backlog.depth as u64 * 100 / target;
                    pressure_pct
                        >= u64::from(self.cfg.admission.ceiling_pct[r.class.rank() as usize])
                };
                let t = &mut backlog.tenants[r.tenant];
                if priced || t.len >= t.spec.queue_cap {
                    priced_out += u64::from(priced);
                    t.rejected += 1;
                    let o = RequestOutcome {
                        id: r.id,
                        tenant: r.tenant,
                        class: r.class,
                        benchmark: r.benchmark,
                        arrival_ns: r.arrival_ns,
                        done_ns: r.arrival_ns,
                        kind: OutcomeKind::Rejected,
                    };
                    ledger.post(&o);
                    outcomes.push(o);
                    continue;
                }
                admitted += 1;
                let kernel = self.book.index_of(r.benchmark).expect("validated above");
                backlog.admit(r, kernel);
            }
            max_depth = max_depth.max(backlog.depth);

            // Dispatch while an active worker is idle and work is queued.
            while backlog.depth > 0 {
                let Some((widx, bidx, head)) = self.idle_worker(&backlog, now, active) else {
                    // Stalled purely by the timeline (an otherwise-idle
                    // worker exists but is blacked out)? Count it — the
                    // scheduler will wake at the blackout's end.
                    if self.workers[..active]
                        .iter()
                        .enumerate()
                        .any(|(i, w)| w.free_at_ns <= now && self.timeline.blacked_out(i, now))
                    {
                        stats.blackout_windows += 1;
                    }
                    break;
                };
                let est_ns = self.book.entries[bidx].est_ns;
                backlog.take_batch(&head, bidx, est_ns, &self.cfg, &mut batch);
                let kernel = head.benchmark;
                let ship = self.workers[widx].resident != Some(kernel);
                let iterations: usize = batch.iter().map(|r| r.iterations.max(1)).sum();
                let price = self.price(op, bidx, iterations, ship);
                energy_joules += price.energy_j;

                let (service_ns, fate) = match injectors[widx].as_mut() {
                    Some(inj) => {
                        let entry = &self.book.entries[bidx];
                        let d = degrade(
                            inj,
                            &self.chaos,
                            &self.timing,
                            &DispatchJob {
                                cost: &entry.cost,
                                iterations,
                                ship,
                                base_ns: price.base_ns,
                                compute_ns: price.compute_ns,
                                host_est_ns: entry.host_est_ns,
                            },
                        );
                        stats.retransmissions += d.retransmissions;
                        stats.watchdog_fires += d.watchdog_fires;
                        stats.late_events += d.late_events;
                        (d.service_ns, d.fate)
                    }
                    None => (price.base_ns, BatchFate::Served),
                };

                let w = &mut self.workers[widx];
                // A failed dispatch leaves the accelerator in an unknown
                // state; the watchdog restart wipes residency.
                w.resident = (fate == BatchFate::Served).then_some(kernel);
                w.free_at_ns = now + service_ns;
                w.busy_ns += service_ns;
                uploads += u64::from(ship && fate == BatchFate::Served);
                makespan = makespan.max(w.free_at_ns);
                if power.enabled && service_ns > 0 {
                    power_segments.push((
                        now,
                        now + service_ns,
                        price.energy_j / (service_ns as f64 * 1e-9),
                    ));
                }

                if batch_hist.len() < batch.len() {
                    batch_hist.resize(batch.len(), 0);
                }
                batch_hist[batch.len() - 1] += 1;
                let wid = u16::try_from(widx).expect("ServePool::new bounds the worker count");
                self.tracer.emit(
                    Component::Worker(wid),
                    EventKind::Batch {
                        size: batch.len() as u32,
                    },
                    now,
                    service_ns,
                );
                self.tracer.emit(
                    Component::Worker(wid),
                    EventKind::QueueDepth {
                        depth: backlog.depth as u32,
                    },
                    now,
                    0,
                );

                let done = now + service_ns;
                let kind = match fate {
                    BatchFate::Served => OutcomeKind::Completed,
                    BatchFate::FailedOver => OutcomeKind::FailedOver,
                    BatchFate::Failed => OutcomeKind::Failed,
                };
                for r in &batch {
                    let t = &mut backlog.tenants[r.tenant];
                    match fate {
                        BatchFate::Served | BatchFate::FailedOver => {
                            let latency = done - r.arrival_ns;
                            t.latencies.push(latency);
                            if auto.is_some() {
                                window_lat.push(latency);
                            }
                            if latency > r.class.deadline_ns() {
                                t.deadline_misses += 1;
                            }
                            if fate == BatchFate::FailedOver {
                                t.failed_over += 1;
                            } else {
                                completed += 1;
                            }
                        }
                        BatchFate::Failed => t.failed += 1,
                    }
                    let o = RequestOutcome {
                        id: r.id,
                        tenant: r.tenant,
                        class: r.class,
                        benchmark: r.benchmark,
                        arrival_ns: r.arrival_ns,
                        done_ns: done,
                        kind,
                    };
                    ledger.post(&o);
                    outcomes.push(o);
                }
                match fate {
                    BatchFate::FailedOver => {
                        stats.fallback_batches += 1;
                        stats.fallback_requests += batch.len() as u64;
                    }
                    BatchFate::Failed => stats.failed_requests += batch.len() as u64,
                    BatchFate::Served => {}
                }
            }

            // Advance the virtual clock to the next event. A scheduler
            // stalled by blackouts with work still queued must wake when
            // the earliest blackout lifts, or requests would strand.
            let queued = backlog.depth > 0;
            let next_t = [
                (next_arrival < requests.len()).then(|| requests[next_arrival].arrival_ns),
                self.workers
                    .iter()
                    .filter(|w| w.free_at_ns > now)
                    .map(|w| w.free_at_ns)
                    .min(),
                if queued {
                    self.timeline.next_blackout_end(now)
                } else {
                    None
                },
            ]
            .into_iter()
            .flatten()
            .min();
            match next_t {
                Some(t) => {
                    // A pending autoscale or power decision wakes the
                    // scheduler early, but never keeps a drained run
                    // alive: with no other event left the run ends and so
                    // does scaling.
                    let t = match next_decision {
                        Some(nd) if nd < t => nd,
                        _ => t,
                    };
                    let t = match next_power_decision {
                        Some(nd) if nd < t => nd,
                        _ => t,
                    };
                    if auto.is_some() {
                        capacity_ns += active as u64 * (t - now);
                    }
                    if power.enabled {
                        op_residency_ns[op] += t - now;
                    }
                    now = t;
                }
                None => break, // no arrivals, no busy workers: drained
            }
        }

        let stranded = backlog.depth as u64;
        let tenants = backlog.tenants;
        let mut all: Vec<u64> = Vec::new();
        for t in &tenants {
            all.extend_from_slice(&t.latencies);
        }
        for (i, w) in self.workers.iter().enumerate() {
            let wid = u16::try_from(i).expect("ServePool::new bounds the worker count");
            self.tracer
                .set_counter(Component::Worker(wid), w.busy_ns, makespan);
        }
        for inj in injectors.iter().flatten() {
            stats.absorb(inj.stats());
        }
        Ok(ServeReport {
            admitted,
            completed,
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            failed_over: tenants.iter().map(|t| t.failed_over).sum(),
            failed: tenants.iter().map(|t| t.failed).sum(),
            stranded,
            deadline_misses: tenants.iter().map(|t| t.deadline_misses).sum(),
            makespan_ns: makespan,
            latency: LatencyStats::of(&all),
            tenants: tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.spec.name.clone(),
                    weight: t.spec.weight,
                    latency: LatencyStats::of(&t.latencies),
                    rejected: t.rejected,
                    deadline_misses: t.deadline_misses,
                    failed_over: t.failed_over,
                    failed: t.failed,
                })
                .collect(),
            batch_hist,
            uploads,
            worker_busy_ns: self.workers.iter().map(|w| w.busy_ns).collect(),
            max_queue_depth: max_depth,
            chaos: stats,
            slo: ledger,
            outcomes,
            scale_events,
            capacity_ns,
            priced_out,
            energy_joules,
            op_residency_ns,
            power_events,
        })
    }

    /// Picks an idle, non-blacked-out worker from the active prefix,
    /// preferring one whose resident kernel matches the next dispatch's
    /// head request (lowest index wins ties for determinism), and
    /// returns it with the head's kernel index and the head. `None` when
    /// every active worker is busy or out — decided before any queue is
    /// read, so a wake-up with the pool saturated costs O(active).
    fn idle_worker(
        &self,
        backlog: &Backlog,
        now: u64,
        active: usize,
    ) -> Option<(usize, usize, ServeRequest)> {
        let idle =
            |i: usize| self.workers[i].free_at_ns <= now && !self.timeline.blacked_out(i, now);
        let first = (0..active).find(|&i| idle(i))?;
        let (kernel, head) = backlog.head(self.cfg.fair)?;
        let widx = (first..active)
            .find(|&i| self.workers[i].resident == Some(head.benchmark) && idle(i))
            .unwrap_or(first);
        Some((widx, kernel, head))
    }

    /// Healthy price of a batch on one worker, via the pure queue
    /// planner with a memo per dispatch shape. A batch is same-kernel by
    /// construction, so it **fuses** into one planned job whose
    /// iteration count is the batch's total payload count: the binary
    /// ships (at most) once, the instruction cache warms once, and every
    /// payload after the first streams through the pipeline schedule at
    /// the steady-state rate. A serial dispatch (batch of one)
    /// degenerates to the ordinary single offload.
    fn price(&mut self, op: usize, bidx: usize, iterations: usize, ship: bool) -> Price {
        let slot = (op * self.book.entries.len() + bidx) * 2 + usize::from(ship);
        let at = match self.prices[slot].binary_search_by_key(&iterations, |&(n, _)| n) {
            Ok(i) => return self.prices[slot][i].1,
            Err(i) => i,
        };
        let job = PlannedJob {
            cost: &self.book.entries[bidx].cost,
            opts: OffloadOptions {
                iterations,
                ..OffloadOptions::default()
            },
            ship_binary: ship,
        };
        let planner = &self.planners[op];
        let plan = planner.plan_queue(&[job], self.cfg.pipeline);
        let overhead_s = self.cfg.dispatch_overhead_cycles as f64 / self.mcu_hz;
        let overhead_w = planner.config().mcu.run_power_w(self.mcu_hz);
        let price = Price {
            base_ns: (plan.total_seconds * 1e9 + (overhead_s * 1e9).round()).round() as u64,
            compute_ns: (plan.reports[0].compute_seconds * 1e9).round() as u64,
            energy_j: plan.reports[0].total_energy_joules() + overhead_s * overhead_w,
        };
        self.prices[slot].insert(at, (iterations, price));
        price
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Blackout, FaultProfile};
    use crate::loadgen::{TenantLoad, WorkloadSpec};

    fn kernels() -> Vec<Benchmark> {
        vec![Benchmark::MatMul, Benchmark::MatMulShort, Benchmark::Cnn]
    }

    fn book() -> CostBook {
        CostBook::measure(
            &TargetEnv::pulp_parallel(),
            &HetSystemConfig::default(),
            &kernels(),
        )
        .expect("kernel measurement must succeed")
    }

    fn host_book() -> CostBook {
        CostBook::measure_with_host(
            &TargetEnv::pulp_parallel(),
            &TargetEnv::host_m4(),
            &HetSystemConfig::default(),
            &kernels(),
        )
        .expect("kernel measurement must succeed")
    }

    fn workload(seed: u64, rate: f64) -> Vec<ServeRequest> {
        WorkloadSpec {
            seed,
            duration_ns: 1_000_000_000,
            tenants: vec![TenantLoad::uniform(TenantSpec::new("t"), rate, &kernels())],
        }
        .generate()
    }

    fn pool(policy: BatchPolicy, book: CostBook) -> ServePool {
        ServePool::new(
            &HetSystemConfig::default(),
            vec![TenantSpec::new("t")],
            book,
            ServeConfig {
                pool: 2,
                policy,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn batching_amortizes_uploads_and_lifts_throughput() {
        let book = book();
        let reqs = workload(3, 400.0);
        let serial = pool(BatchPolicy::Serial, book.clone()).run(&reqs).unwrap();
        let batched = pool(BatchPolicy::KernelAware { max_batch: 8 }, book)
            .run(&reqs)
            .unwrap();
        assert_eq!(serial.completed + serial.rejected, reqs.len() as u64);
        assert!(batched.completed >= serial.completed);
        assert!(
            batched.uploads < serial.uploads,
            "batching must amortize uploads: {} vs {}",
            batched.uploads,
            serial.uploads
        );
        assert!(batched.mean_batch() > 1.0);
        assert!(
            batched.throughput_rps() > serial.throughput_rps(),
            "batched {} rps vs serial {} rps",
            batched.throughput_rps(),
            serial.throughput_rps()
        );
    }

    #[test]
    fn runs_are_repeatable() {
        let reqs = workload(9, 300.0);
        let mut p = pool(BatchPolicy::KernelAware { max_batch: 8 }, book());
        let a = p.run(&reqs).unwrap();
        let b = p.run(&reqs).unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.latency.p99_ns, b.latency.p99_ns);
        assert_eq!(a.batch_hist, b.batch_hist);
        assert_eq!(a.uploads, b.uploads);
    }

    #[test]
    fn admission_control_rejects_over_cap() {
        let book = book();
        let mut spec = TenantSpec::new("t");
        spec.queue_cap = 2;
        let mut p = ServePool::new(
            &HetSystemConfig::default(),
            vec![spec],
            book,
            ServeConfig {
                pool: 1,
                ..ServeConfig::default()
            },
        );
        // Heavy overload on one worker: the bound must trip.
        let r = p.run(&workload(5, 5_000.0)).unwrap();
        assert!(r.rejected > 0, "queue cap 2 must reject under overload");
        assert!(r.max_queue_depth <= 2);
    }

    #[test]
    fn fair_scheduling_bounds_the_background_tenant() {
        let book = book();
        let bg = TenantSpec::new("bg");
        let hot = TenantSpec::new("hot");
        let mk = |fair: bool| {
            ServePool::new(
                &HetSystemConfig::default(),
                vec![bg.clone(), hot.clone()],
                book.clone(),
                ServeConfig {
                    pool: 2,
                    fair,
                    ..ServeConfig::default()
                },
            )
        };
        let reqs = WorkloadSpec {
            seed: 11,
            duration_ns: 1_000_000_000,
            tenants: vec![
                TenantLoad::uniform(bg.clone(), 30.0, &[Benchmark::MatMul]),
                TenantLoad::uniform(hot.clone(), 600.0, &kernels()),
            ],
        }
        .generate();
        let fair = mk(true).run(&reqs).unwrap();
        let fifo = mk(false).run(&reqs).unwrap();
        let bg_fair = fair.tenants[0].latency.p99_ns;
        let bg_fifo = fifo.tenants[0].latency.p99_ns;
        assert!(
            bg_fair <= bg_fifo,
            "fair p99 {bg_fair} must not exceed FIFO p99 {bg_fifo}"
        );
    }

    #[test]
    fn tracer_records_batches_and_utilization() {
        let tracer = Tracer::enabled();
        let reqs = workload(2, 200.0);
        let mut p = ServePool::new(
            &HetSystemConfig::default(),
            vec![TenantSpec::new("t")],
            book(),
            ServeConfig::default(),
        )
        .with_tracer(tracer.clone());
        let r = p.run(&reqs).unwrap();
        let events = tracer.events();
        let batches = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Batch { .. }))
            .count() as u64;
        assert_eq!(batches, r.batch_hist.iter().sum::<u64>());
        let counters = tracer.counters();
        assert!(counters
            .iter()
            .any(|(c, k)| *c == Component::Worker(0) && k.total == r.makespan_ns));
    }

    /// Worker ids above 255 must keep their own trace tracks: 400
    /// simultaneous serial requests keep all 300 workers of a traced pool
    /// busy at once.
    #[test]
    fn traced_300_worker_pool_emits_300_worker_tracks() {
        let tracer = Tracer::enabled();
        let mut spec = TenantSpec::new("t");
        spec.queue_cap = 1_000;
        let reqs: Vec<ServeRequest> = (0..400)
            .map(|id| ServeRequest {
                id,
                tenant: 0,
                benchmark: Benchmark::MatMul,
                iterations: 1,
                class: DeadlineClass::Standard,
                arrival_ns: 0,
            })
            .collect();
        let mut p = ServePool::new(
            &HetSystemConfig::default(),
            vec![spec],
            book(),
            ServeConfig {
                pool: 300,
                policy: BatchPolicy::Serial,
                ..ServeConfig::default()
            },
        )
        .with_tracer(tracer.clone());
        p.run(&reqs).unwrap();
        let mut tracks: Vec<Component> = tracer
            .events()
            .iter()
            .map(|e| e.component)
            .filter(|c| matches!(c, Component::Worker(_)))
            .collect();
        tracks.sort();
        tracks.dedup();
        assert_eq!(tracks.len(), 300);
        assert_eq!(tracks.last(), Some(&Component::Worker(299)));
        assert_eq!(tracer.counters().len(), 300);
        let json = tracer.chrome_json();
        assert_eq!(json.matches("\"args\":{\"name\":\"worker").count(), 300);
    }

    #[test]
    #[should_panic(expected = "at most 65536 workers")]
    fn pools_beyond_the_trace_id_space_are_refused() {
        let _ = ServePool::new(
            &HetSystemConfig::default(),
            vec![TenantSpec::new("t")],
            book(),
            ServeConfig {
                pool: 65_537,
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    fn bad_requests_are_reported_not_panicked() {
        let mut p = pool(BatchPolicy::Serial, book());
        let mut r = workload(1, 50.0);
        r[0].tenant = 9;
        match p.run(&r) {
            Err(ServeError::UnknownTenant {
                index: 9,
                tenants: 1,
            }) => {}
            other => panic!("expected UnknownTenant, got {other:?}"),
        }

        // A chaos pool with host fallback demands host costs up front.
        let mut p = pool(BatchPolicy::Serial, book()).with_chaos(ChaosConfig::uniform(
            1,
            FaultProfile {
                drop_rate: 0.5,
                ..FaultProfile::default()
            },
        ));
        match p.run(&workload(1, 50.0)) {
            Err(ServeError::MissingHostCost { .. }) => {}
            other => panic!("expected MissingHostCost, got {other:?}"),
        }
    }

    #[test]
    fn chaos_conserves_every_request() {
        let reqs = workload(21, 500.0);
        let chaos = ChaosConfig::uniform(
            77,
            FaultProfile {
                bit_error_rate: 1e-5,
                drop_rate: 0.02,
                hang_rate: 0.01,
                ..FaultProfile::default()
            },
        );
        let mut p = pool(BatchPolicy::KernelAware { max_batch: 8 }, host_book()).with_chaos(chaos);
        let r = p.run(&reqs).unwrap();
        assert_eq!(
            r.completed + r.rejected + r.failed_over + r.failed,
            reqs.len() as u64,
            "every request must be accounted for exactly once"
        );
        assert_eq!(r.stranded, 0);
        assert_eq!(r.admitted + r.rejected, reqs.len() as u64);
        assert!(r.chaos.any(), "faults at these rates must leave a trace");
        assert_eq!(r.outcomes.len(), reqs.len());
        assert_eq!(r.slo, SloLedger::recompute(1, &r.outcomes));
    }

    #[test]
    fn certain_hang_fails_over_every_batch() {
        let reqs = workload(4, 100.0);
        let chaos = ChaosConfig::uniform(
            5,
            FaultProfile {
                hang_rate: 1.0,
                ..FaultProfile::default()
            },
        );
        let mut p = pool(BatchPolicy::Serial, host_book()).with_chaos(chaos);
        let r = p.run(&reqs).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.failed_over + r.rejected, reqs.len() as u64);
        assert!(r.chaos.watchdog_fires > 0);
        assert!(r.chaos.fallback_requests > 0);
    }

    #[test]
    fn blackout_delays_but_strands_nothing() {
        let reqs = workload(6, 200.0);
        let clean = pool(BatchPolicy::Serial, book()).run(&reqs).unwrap();
        let mut p = pool(BatchPolicy::Serial, book()).with_timeline(Timeline {
            blackouts: vec![
                Blackout {
                    worker: 0,
                    start_ns: 0,
                    end_ns: 400_000_000,
                },
                Blackout {
                    worker: 1,
                    start_ns: 0,
                    end_ns: 400_000_000,
                },
            ],
            flushes: Vec::new(),
        });
        let r = p.run(&reqs).unwrap();
        assert_eq!(r.stranded, 0);
        assert_eq!(
            r.completed + r.rejected,
            reqs.len() as u64,
            "a lifted blackout must not lose requests"
        );
        assert!(
            r.latency.p99_ns >= clean.latency.p99_ns,
            "a pool-wide outage cannot make tails better"
        );
        assert!(r.chaos.blackout_windows > 0);
    }

    #[test]
    fn residency_churn_costs_uploads() {
        let reqs = workload(8, 300.0);
        let clean = pool(BatchPolicy::KernelAware { max_batch: 8 }, book())
            .run(&reqs)
            .unwrap();
        let flushes: Vec<u64> = (1..20).map(|i| i * 50_000_000).collect();
        let mut p =
            pool(BatchPolicy::KernelAware { max_batch: 8 }, book()).with_timeline(Timeline {
                blackouts: Vec::new(),
                flushes,
            });
        let churned = p.run(&reqs).unwrap();
        assert!(churned.chaos.residency_flushes > 0);
        assert!(
            churned.uploads > clean.uploads,
            "churn {} uploads must exceed clean {}",
            churned.uploads,
            clean.uploads
        );
    }

    #[test]
    fn inactive_chaos_is_bit_identical_to_none() {
        let reqs = workload(13, 350.0);
        let plain = pool(BatchPolicy::KernelAware { max_batch: 8 }, book())
            .run(&reqs)
            .unwrap();
        let mut p = pool(BatchPolicy::KernelAware { max_batch: 8 }, book())
            .with_chaos(ChaosConfig::uniform(9, FaultProfile::default()))
            .with_timeline(Timeline::default());
        let idle = p.run(&reqs).unwrap();
        assert_eq!(plain.completed, idle.completed);
        assert_eq!(plain.makespan_ns, idle.makespan_ns);
        assert_eq!(plain.batch_hist, idle.batch_hist);
        assert_eq!(plain.uploads, idle.uploads);
        assert_eq!(plain.latency.p99_ns, idle.latency.p99_ns);
        assert!(!idle.chaos.any());
    }

    #[test]
    fn fixed_pool_reports_no_scaling_artifacts() {
        let mut p = pool(BatchPolicy::KernelAware { max_batch: 8 }, book());
        let r = p.run(&workload(17, 300.0)).unwrap();
        assert!(r.scale_events.is_empty());
        assert_eq!(r.capacity_ns, 0);
        assert_eq!(r.priced_out, 0);
    }

    #[test]
    fn autoscaler_grows_under_pressure_and_releases_when_quiet() {
        let book = book();
        let policy = AutoscalePolicy {
            interval_ns: 20_000_000,
            cooldown_ns: 40_000_000,
            ..AutoscalePolicy::new(1, 6)
        };
        let spec = TenantSpec::new("t");
        // A flash crowd in the first 300 ms, then a light tail: the pool
        // must grow into the crowd and hand workers back afterwards.
        let reqs = WorkloadSpec {
            seed: 31,
            duration_ns: 2_000_000_000,
            tenants: vec![TenantLoad::uniform(spec.clone(), 120.0, &kernels())],
        }
        .generate_with_bursts(&[crate::loadgen::Burst {
            tenant: 0,
            start_ns: 0,
            end_ns: 300_000_000,
            factor: 20.0,
        }]);
        let mut p = ServePool::new(
            &HetSystemConfig::default(),
            vec![spec.clone()],
            book.clone(),
            ServeConfig {
                pool: 1,
                autoscale: Some(policy),
                ..ServeConfig::default()
            },
        );
        let scaled = p.run(&reqs).unwrap();
        assert!(
            scaled.scale_events.iter().any(|e| e.to > e.from),
            "the flash crowd must trigger a scale-up: {:?}",
            scaled.scale_events
        );
        assert!(
            scaled.scale_events.iter().any(|e| e.to < e.from),
            "the quiet tail must release workers: {:?}",
            scaled.scale_events
        );
        assert!(scaled.capacity_ns > 0);
        // Cooldown: consecutive actions are at least cooldown_ns apart.
        for w in scaled.scale_events.windows(2) {
            assert!(w[1].at_ns >= w[0].at_ns + policy.cooldown_ns);
        }
        // Extra capacity cannot serve fewer requests than the pinned
        // single-worker pool.
        let pinned = ServePool::new(
            &HetSystemConfig::default(),
            vec![spec],
            book,
            ServeConfig {
                pool: 1,
                ..ServeConfig::default()
            },
        )
        .run(&reqs)
        .unwrap();
        assert!(scaled.completed >= pinned.completed);
    }

    #[test]
    fn admission_pricing_sheds_batch_class_first() {
        let book = book();
        let mut spec = TenantSpec::new("t");
        spec.queue_cap = 10_000; // pricing, not the per-tenant cap, must bind
        let load = TenantLoad {
            class_mix: [1.0, 1.0, 1.0],
            ..TenantLoad::uniform(spec.clone(), 3_000.0, &kernels())
        };
        let reqs = WorkloadSpec {
            seed: 41,
            duration_ns: 1_000_000_000,
            tenants: vec![load],
        }
        .generate();
        let mut p = ServePool::new(
            &HetSystemConfig::default(),
            vec![spec],
            book,
            ServeConfig {
                pool: 1,
                admission: AdmissionPricing::enabled(),
                ..ServeConfig::default()
            },
        );
        let r = p.run(&reqs).unwrap();
        assert!(r.priced_out > 0, "overload must price requests out");
        assert!(r.priced_out <= r.rejected);
        let by_class =
            |rank: usize| -> u64 { r.slo.cells.iter().map(|row| row[rank].rejected).sum() };
        let (interactive, batch) = (by_class(0), by_class(2));
        assert!(
            batch > interactive,
            "batch ({batch}) must shed before interactive ({interactive})"
        );
    }

    fn power_pool(power: PowerPolicy) -> ServePool {
        ServePool::new(
            &HetSystemConfig::default(),
            vec![TenantSpec::new("t")],
            book(),
            ServeConfig {
                pool: 2,
                power,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn ladder_descends_from_the_configured_point_to_the_floor() {
        let p = PowerPolicy::with_budget(5.0e-3);
        let rungs = p.ladder(0.65);
        assert_eq!(rungs.len(), 4);
        assert!((rungs[0] - 0.65).abs() < 1e-12);
        assert!((rungs[1] - 0.60).abs() < 1e-12);
        assert!((rungs[2] - 0.55).abs() < 1e-12);
        assert_eq!(rungs[3], 0.5);
        assert_eq!(PowerPolicy::default().ladder(0.65), vec![0.65]);
    }

    #[test]
    fn disabled_governor_reports_energy_but_no_ladder_state() {
        let reqs = workload(11, 400.0);
        let r = power_pool(PowerPolicy::default()).run(&reqs).unwrap();
        assert!(r.energy_joules > 0.0, "energy must be accounted even off");
        assert!(r.op_residency_ns.is_empty());
        assert!(r.power_events.is_empty());
        assert!(r.joules_per_request() > 0.0);
    }

    #[test]
    fn generous_budget_never_leaves_the_top_rung() {
        let reqs = workload(11, 400.0);
        let r = power_pool(PowerPolicy::with_budget(1.0))
            .run(&reqs)
            .unwrap();
        assert!(r.power_events.is_empty(), "1 W is never exceeded");
        assert_eq!(r.op_residency_ns.len(), 4);
        assert_eq!(r.op_residency_ns[1..], [0, 0, 0]);
        // Service times are untouched, so the off/on reports agree on
        // every scheduling figure.
        let off = power_pool(PowerPolicy::default()).run(&reqs).unwrap();
        assert_eq!(r.completed, off.completed);
        assert_eq!(r.makespan_ns, off.makespan_ns);
        assert_eq!(r.batch_hist, off.batch_hist);
        assert!((r.energy_joules - off.energy_joules).abs() < 1e-12);
    }

    #[test]
    fn tight_budget_trades_throughput_for_joules_per_request() {
        // Saturating load so the pool dispatches back-to-back; the tight
        // budget must walk down the ladder and hold the low rungs.
        let reqs = workload(13, 2_000.0);
        let off = power_pool(PowerPolicy::default()).run(&reqs).unwrap();
        let on = power_pool(PowerPolicy::with_budget(2.0e-4))
            .run(&reqs)
            .unwrap();
        assert!(!on.power_events.is_empty(), "budget must force rung moves");
        let low: u64 = on.op_residency_ns[1..].iter().sum();
        assert!(
            low > on.op_residency_ns[0],
            "most residency must sit below the top rung: {:?}",
            on.op_residency_ns
        );
        assert!(
            on.joules_per_request() < off.joules_per_request(),
            "governor must cut joules/request: {} vs {}",
            on.joules_per_request(),
            off.joules_per_request()
        );
        assert!(
            on.makespan_ns > off.makespan_ns,
            "slower rungs must stretch the run: {} vs {}",
            on.makespan_ns,
            off.makespan_ns
        );
        // Degrade before shed: the governor run still finishes everything
        // it admitted.
        assert_eq!(on.stranded, 0);
    }

    #[test]
    fn governor_runs_are_repeatable() {
        let reqs = workload(17, 1_500.0);
        let mut p = power_pool(PowerPolicy::with_budget(3.0e-4));
        let a = p.run(&reqs).unwrap();
        let b = p.run(&reqs).unwrap();
        assert_eq!(a.power_events, b.power_events);
        assert_eq!(a.op_residency_ns, b.op_residency_ns);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert!((a.energy_joules - b.energy_joules).abs() == 0.0);
    }
}
