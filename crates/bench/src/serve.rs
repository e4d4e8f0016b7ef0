//! Serving-layer study: batched vs serial dispatch across pool sizes,
//! rendered as a table and as `BENCH_serve.json`.
//!
//! For each paper benchmark the study builds a saturating two-tenant
//! workload in which that kernel is hot (about half the mix) and the
//! other nine share the rest, then serves the identical request stream
//! twice per pool size — once with per-request serial dispatch, once
//! with kernel-aware batching — and compares throughput. Everything
//! runs on the virtual clock, so the study (and its JSON) is a pure
//! function of the seed: byte-identical on every machine and under
//! every `--jobs` setting. The only wall-clock win `--jobs` buys is
//! that independent scenarios simulate in parallel.

use crate::json_escape;
use ulp_kernels::{Benchmark, TargetEnv};
use ulp_offload::HetSystemConfig;
use ulp_par::par_map;
use ulp_serve::{
    fmt_ms, BatchPolicy, CostBook, ServeConfig, ServePool, ServeReport, TenantLoad, TenantSpec,
    WorkloadSpec,
};

/// Pool sizes the study sweeps.
pub const POOLS: [usize; 3] = [1, 2, 4];
/// Largest batch a kernel-aware dispatch may carry.
pub const MAX_BATCH: usize = 32;
/// Workload seed (shared by every scenario).
pub const SEED: u64 = 20_260_807;
/// Requests each scenario aims to offer (sets the virtual duration).
const TARGET_REQUESTS: f64 = 1536.0;
/// Offered load as a multiple of the 4-worker serial capacity, so even
/// the largest pool stays saturated and throughput measures capacity.
const SATURATION: f64 = 4.0;

/// One (benchmark, pool) cell of the study.
#[derive(Clone, Debug)]
pub struct ServeCell {
    /// Hot kernel of the scenario.
    pub benchmark: Benchmark,
    /// Worker-pool size.
    pub pool: usize,
    /// Report of the serial per-request baseline.
    pub serial: ServeReport,
    /// Report of the kernel-aware batched run.
    pub batched: ServeReport,
}

impl ServeCell {
    /// Batched-over-serial throughput ratio.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let s = self.serial.throughput_rps();
        if s > 0.0 {
            self.batched.throughput_rps() / s
        } else {
            1.0
        }
    }
}

/// The full sweep: `POOLS.len()` cells per paper benchmark, in
/// `Benchmark::ALL` × `POOLS` order.
#[must_use]
pub fn study() -> Vec<ServeCell> {
    let env = TargetEnv::pulp_parallel();
    let config = HetSystemConfig::default();
    let book = CostBook::measure(&env, &config, &Benchmark::ALL).expect("cost measurement");

    let mut scenarios: Vec<(Benchmark, usize)> = Vec::new();
    for &b in &Benchmark::ALL {
        for &pool in &POOLS {
            scenarios.push((b, pool));
        }
    }
    par_map(&scenarios, |_, &(benchmark, pool)| {
        let (tenants, requests) = scenario(&book, benchmark);
        let run = |cfg: ServeConfig| {
            ServePool::new(&config, tenants.clone(), book.clone(), cfg)
                .run(&requests)
                .expect("study workload fits the pool configuration")
        };
        // The serial baseline is the paper's blocking runtime: one
        // request per dispatch, no pipelined engine. The batched run is
        // the serving layer proper.
        ServeCell {
            benchmark,
            pool,
            serial: run(ServeConfig {
                pool,
                policy: BatchPolicy::Serial,
                pipeline: ulp_offload::PipelineConfig::default(),
                ..ServeConfig::default()
            }),
            batched: run(ServeConfig {
                pool,
                policy: BatchPolicy::KernelAware {
                    max_batch: MAX_BATCH,
                },
                ..ServeConfig::default()
            }),
        }
    })
}

/// The saturating two-tenant workload whose hot kernel is `hot`.
fn scenario(book: &CostBook, hot: Benchmark) -> (Vec<TenantSpec>, Vec<ulp_serve::ServeRequest>) {
    let mix: Vec<(Benchmark, f64)> = Benchmark::ALL
        .iter()
        .map(|&b| (b, if b == hot { 9.0 } else { 1.0 }))
        .collect();
    let mix_total: f64 = mix.iter().map(|(_, w)| *w).sum();
    let mean_ns: f64 = mix
        .iter()
        .map(|&(b, w)| book.est_ns(b, 1) as f64 * w / mix_total)
        .sum();
    let rate = SATURATION * POOLS[POOLS.len() - 1] as f64 * 1e9 / mean_ns;

    let mut app = TenantSpec::weighted("app", 2);
    app.queue_cap = 512;
    let mut bg = TenantSpec::new("bg");
    bg.queue_cap = 512;
    let tenants = vec![app.clone(), bg.clone()];

    let mk = |spec: TenantSpec, share: f64, class_mix: [f64; 3]| TenantLoad {
        spec,
        rate_rps: rate * share,
        kernel_mix: mix.clone(),
        class_mix,
        iterations: 1,
    };
    let workload = WorkloadSpec {
        seed: SEED,
        duration_ns: (TARGET_REQUESTS / rate * 1e9) as u64,
        tenants: vec![mk(app, 0.7, [0.3, 0.6, 0.1]), mk(bg, 0.3, [0.0, 0.5, 0.5])],
    };
    (tenants, workload.generate())
}

/// Plain-text study table (the golden `serve_table.txt` snapshot).
#[must_use]
pub fn render_table(cells: &[ServeCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.benchmark.name().to_owned(),
                c.pool.to_string(),
                format!("{:.1}", c.serial.throughput_rps()),
                format!("{:.1}", c.batched.throughput_rps()),
                format!("{:.2}x", c.speedup()),
                format!("{:.2}", c.batched.mean_batch()),
                c.serial.uploads.to_string(),
                c.batched.uploads.to_string(),
                fmt_ms(c.batched.latency.p99_ns),
            ]
        })
        .collect();
    let mut out = String::from("Serving study: serial vs kernel-aware batched dispatch\n");
    out.push_str(&format!(
        "(saturating mixed-kernel load, max batch {MAX_BATCH}, seed {SEED})\n\n"
    ));
    out.push_str(&crate::render_table(
        &[
            "benchmark",
            "pool",
            "serial rps",
            "batched rps",
            "speedup",
            "mean batch",
            "uploads(s)",
            "uploads(b)",
            "p99 ms(b)",
        ],
        &rows,
    ));
    let wins = cells
        .iter()
        .filter(|c| c.pool == POOLS[POOLS.len() - 1] && c.speedup() >= 1.5)
        .count();
    out.push_str(&format!(
        "\nbatching >= 1.5x serial on {wins}/{} benchmarks at pool {}\n",
        Benchmark::ALL.len(),
        POOLS[POOLS.len() - 1],
    ));
    out
}

/// Renders the committed `BENCH_serve.json`. Deliberately excludes the
/// `--jobs` setting and every other machine fact: the file is a claim
/// about the *model*, and must be byte-identical however it was
/// produced.
#[must_use]
pub fn render_json(cells: &[ServeCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"het-accel-serve-v1\",\n");
    out.push_str("  \"time_basis\": \"virtual nanoseconds (seeded, machine-independent)\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"max_batch\": {MAX_BATCH},\n"));
    out.push_str(&format!(
        "  \"pools\": [{}],\n",
        POOLS.map(|p| p.to_string()).join(", ")
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"benchmark\": \"{}\", \"pool\": {}, ",
            json_escape(c.benchmark.name()),
            c.pool
        ));
        out.push_str(&format!(
            "\"serial_rps\": {:.3}, \"batched_rps\": {:.3}, \"speedup\": {:.3}, ",
            c.serial.throughput_rps(),
            c.batched.throughput_rps(),
            c.speedup()
        ));
        out.push_str(&format!(
            "\"mean_batch\": {:.3}, \"uploads_serial\": {}, \"uploads_batched\": {}, ",
            c.batched.mean_batch(),
            c.serial.uploads,
            c.batched.uploads
        ));
        out.push_str(&format!(
            "\"serial_p99_ms\": \"{}\", \"batched_p99_ms\": \"{}\", ",
            fmt_ms(c.serial.latency.p99_ns),
            fmt_ms(c.batched.latency.p99_ns)
        ));
        out.push_str(&format!(
            "\"completed_serial\": {}, \"completed_batched\": {}, \"rejected_serial\": {}, \"rejected_batched\": {}",
            c.serial.completed, c.batched.completed, c.serial.rejected, c.batched.rejected
        ));
        out.push_str(if i + 1 == cells.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ],\n");
    let top_pool = POOLS[POOLS.len() - 1];
    let wins = cells
        .iter()
        .filter(|c| c.pool == top_pool && c.speedup() >= 1.5)
        .count();
    out.push_str(&format!("  \"speedup_wins_at_pool_{top_pool}\": {wins}\n"));
    out.push_str("}\n");
    out
}

/// Runs the full study and returns the table (the `serve` binary's
/// stdout).
#[must_use]
pub fn run() -> String {
    render_table(&study())
}
