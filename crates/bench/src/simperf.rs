//! Simulator wall-clock performance tracking — the source of
//! `BENCH_simulator.json`.
//!
//! Unlike every other module in this crate, the quantity under test here is
//! not a *simulated* number but the cost of producing it: host seconds per
//! evaluation suite and *simulated MIPS* (retired target instructions per
//! host second). Two caveats shape the design:
//!
//! * **Host noise.** The CI and evaluation hosts are shared, so wall-clock
//!   readings swing by tens of percent run-to-run. We therefore measure
//!   **process CPU time** (user + sys, immune to steal and scheduling) and
//!   take the minimum of several repetitions, interleaving the engines
//!   being compared so slow drift hits both equally.
//! * **Apples to apples.** The only comparison made in-process — and thus
//!   the only defensible ratio — is engine vs engine (reference,
//!   micro-op, epoch) on the same build and the same host state. The pre-PR
//!   baseline seconds are
//!   recorded in the report for context, but they were captured on a
//!   different checkout and host state, so ratios against them are
//!   informational only.

use crate::json_escape;

/// Process CPU seconds (user + sys) consumed so far. On Linux this reads
/// `/proc/self/stat` (steal-immune); elsewhere it falls back to wall time
/// since first call, which still yields valid deltas.
#[must_use]
pub fn cpu_seconds() -> f64 {
    if let Some(s) = proc_stat_cpu_seconds() {
        return s;
    }
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn proc_stat_cpu_seconds() -> Option<f64> {
    // Fields after the ")" comm terminator: state ppid pgrp session tty_nr
    // tpgid flags minflt cminflt majflt cmajflt utime stime ... — so utime
    // and stime are at indices 11 and 12, in clock ticks (100 Hz).
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after = stat.rsplit(") ").next()?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// One timed evaluation suite.
#[derive(Clone, Debug)]
pub struct SuitePerf {
    /// Suite name (matches the binary that normally renders it).
    pub name: &'static str,
    /// Process CPU seconds consumed by one run of the suite.
    pub host_cpu_seconds: f64,
    /// Target instructions retired during the run.
    pub retired: u64,
    /// Simulated MIPS: retired target instructions per host CPU second.
    pub simulated_mips: f64,
}

/// Runs `suite` once, metering CPU seconds and the retired-instruction
/// delta from [`ulp_isa::perf`]. The rendered output is discarded (its
/// length is black-boxed so the render cannot be optimised away).
pub fn time_suite(name: &'static str, suite: impl FnOnce() -> String) -> SuitePerf {
    let retired_before = ulp_isa::perf::retired_total();
    let t0 = cpu_seconds();
    let output = suite();
    let host_cpu_seconds = cpu_seconds() - t0;
    let retired = ulp_isa::perf::retired_total() - retired_before;
    std::hint::black_box(output.len());
    SuitePerf {
        name,
        host_cpu_seconds,
        retired,
        simulated_mips: retired as f64 / host_cpu_seconds.max(1e-9) / 1e6,
    }
}

/// In-process engine comparison: a fixed workload under each of the three
/// cluster engines (reference, micro-op, epoch), interleaved,
/// min-of-`reps` CPU seconds each. This is the defensible speedup number —
/// same build, same host state, only the engine differs.
#[derive(Clone, Debug)]
pub struct EngineComparison {
    /// Human description of the timed workload (rendered in the report).
    pub workload: &'static str,
    /// Repetitions per engine (minimum is reported).
    pub reps: usize,
    /// Best-of-reps CPU seconds for the reference engine.
    pub reference_cpu_seconds: f64,
    /// Best-of-reps CPU seconds for the micro-op block engine.
    pub microop_cpu_seconds: f64,
    /// Best-of-reps CPU seconds for the speculative epoch engine.
    pub epoch_cpu_seconds: f64,
}

impl EngineComparison {
    /// Reference time over micro-op time (> 1 means micro-op is faster).
    #[must_use]
    pub fn microop_speedup(&self) -> f64 {
        self.reference_cpu_seconds / self.microop_cpu_seconds.max(1e-9)
    }

    /// Reference time over epoch time (> 1 means epoch is faster).
    #[must_use]
    pub fn epoch_speedup(&self) -> f64 {
        self.reference_cpu_seconds / self.epoch_cpu_seconds.max(1e-9)
    }

    /// Micro-op time over epoch time: what speculation buys on top of
    /// block replay (> 1 means epoch is faster than micro-op).
    #[must_use]
    pub fn epoch_over_microop(&self) -> f64 {
        self.microop_cpu_seconds / self.epoch_cpu_seconds.max(1e-9)
    }
}

/// The full engine-comparison workload: every benchmark on the M4 flat
/// host and the two cluster targets — the same flat/cluster mix `table1`
/// itself simulates. Flat hosts stopped being engine-independent when the
/// micro-op block engine landed ([`ulp_isa::Core::run`] replays blocks on
/// flat cores too), so the sweep covers both paths.
fn engine_sweep() {
    use ulp_kernels::TargetEnv;
    for env in [
        TargetEnv::host_m4(),
        TargetEnv::pulp_single(),
        TargetEnv::pulp_parallel(),
    ] {
        env_sweep(&env);
    }
}

/// The quad-core cell: every benchmark on `pulp_parallel` only, three
/// passes per timed measurement — one pass is ~0.2 CPU-seconds, short
/// enough that the 10 ms granularity of the process CPU clock moves the
/// engine ratio by several percent. Tracked as its own pinned number
/// because the full sweep averages the multi-core floor away behind the
/// single-core targets.
fn engine_sweep_quad() {
    for _ in 0..3 {
        env_sweep(&ulp_kernels::TargetEnv::pulp_parallel());
    }
}

fn env_sweep(env: &ulp_kernels::TargetEnv) {
    use ulp_kernels::{runner, Benchmark};
    for b in Benchmark::ALL {
        let build = b.build(env);
        let r = runner::run(&build, env).unwrap_or_else(|e| panic!("{} failed: {e}", build.name));
        std::hint::black_box(r.cycles);
    }
}

fn compare_engines_on(
    workload: &'static str,
    sweep: fn(),
    reps: usize,
    restore: ulp_cluster::Engine,
) -> EngineComparison {
    // Interleave the engines so slow host drift biases none of them.
    let mut best = [f64::INFINITY; ulp_cluster::Engine::ALL.len()];
    for _ in 0..reps.max(1) {
        for (slot, engine) in ulp_cluster::Engine::ALL.into_iter().enumerate() {
            ulp_cluster::set_default_engine(engine);
            let t0 = cpu_seconds();
            sweep();
            best[slot] = best[slot].min(cpu_seconds() - t0);
        }
    }
    ulp_cluster::set_default_engine(restore);
    EngineComparison {
        workload,
        reps: reps.max(1),
        reference_cpu_seconds: best[0],
        microop_cpu_seconds: best[1],
        epoch_cpu_seconds: best[2],
    }
}

/// Runs the full-sweep engine comparison. Toggles the process-wide
/// default engine around each sweep (restored to `restore` on exit), so
/// it must not race with concurrent simulations outside this call.
#[must_use]
pub fn compare_engines(reps: usize, restore: ulp_cluster::Engine) -> EngineComparison {
    compare_engines_on(
        "engine sweep (10 benchmarks x host_m4+pulp_single+pulp_parallel)",
        engine_sweep,
        reps,
        restore,
    )
}

/// Runs the quad-core `pulp_parallel`-only engine comparison — the cell
/// the epoch engine exists to lift. Same toggling caveat as
/// [`compare_engines`].
#[must_use]
pub fn compare_engines_quad(reps: usize, restore: ulp_cluster::Engine) -> EngineComparison {
    compare_engines_on(
        "quad-core cell (10 benchmarks x pulp_parallel)",
        engine_sweep_quad,
        reps,
        restore,
    )
}

/// Peak interpreter throughput per engine: simulated MIPS on a dense
/// arithmetic/memory loop run on a flat M4 core. This isolates the
/// engine's own hot loop from kernel build/verify overhead and from
/// cluster-parallel arbitration (whose exact (time, index) interleaving
/// bounds batch sizes regardless of engine), both of which dilute the
/// end-to-end sweep ratio in [`EngineComparison`].
#[derive(Clone, Debug)]
pub struct CorePeak {
    /// Best-of-reps simulated MIPS through the reference step loop.
    pub reference_mips: f64,
    /// Best-of-reps simulated MIPS through the micro-op block engine.
    pub microop_mips: f64,
}

impl CorePeak {
    /// Micro-op MIPS over reference MIPS (> 1 means micro-op is faster).
    #[must_use]
    pub fn microop_speedup(&self) -> f64 {
        self.microop_mips / self.reference_mips.max(1e-9)
    }
}

/// Measures [`CorePeak`]: a 20M-instruction dense ALU loop on a flat M4
/// core, best-of-`reps` per engine, interleaved like
/// [`compare_engines`]. Timed with the wall clock rather than CPU ticks:
/// one run is tens of milliseconds, below the 10 ms granularity of
/// `/proc/self/stat`, and taking the best of several reps sheds
/// scheduling noise the same way the minimum CPU time does.
#[must_use]
pub fn core_peak(reps: usize) -> CorePeak {
    use std::time::Instant;
    use ulp_isa::prelude::*;
    use ulp_isa::{Core, CoreModel, FlatMemory};

    // 2M iterations x 10 instructions of straight-line ALU work plus the
    // loop branch: no data memory traffic, so the engines' own dispatch
    // and retire paths are all that is being timed — the load/store and
    // arbitration models are shared between engines and would only add a
    // common constant.
    let mut a = Asm::new();
    a.li(R9, 2_000_000);
    let top = a.new_label();
    a.bind(top);
    a.add(R1, R2, R3);
    a.sub(R4, R4, R3);
    a.sub(R5, R5, R1);
    a.add(R6, R1, R4);
    a.slli(R7, R6, 1);
    a.srli(R8, R6, 2);
    a.add(R11, R7, R8);
    a.sub(R12, R11, R1);
    a.addi(R9, R9, -1);
    a.bne(R9, R0, top);
    a.halt();
    let prog = a.finish().expect("core_peak loop assembles");

    let mut best = [0.0f64; 2];
    for _ in 0..reps.max(1) {
        for (slot, microop) in [false, true].into_iter().enumerate() {
            let mut mem = FlatMemory::new(0, 1 << 16);
            mem.load_program(&prog, 0).expect("program fits");
            let mut core = Core::new(0, CoreModel::cortex_m4());
            core.set_microop(microop);
            core.reset(0);
            let retired_before = ulp_isa::perf::retired_total();
            let t0 = Instant::now();
            core.run(&mut mem, u64::MAX).expect("loop halts");
            let secs = t0.elapsed().as_secs_f64();
            let retired = ulp_isa::perf::retired_total() - retired_before;
            let mips = retired as f64 / secs.max(1e-9) / 1e6;
            best[slot] = best[slot].max(mips);
        }
    }
    CorePeak {
        reference_mips: best[0],
        microop_mips: best[1],
    }
}

/// Pre-PR serial-engine reference timings, for context in the report.
/// Captured with `time cargo run --release --bin <suite>` on the commit
/// named below — a different checkout and host state than the in-process
/// numbers this module measures, so treat ratios against them as
/// informational, not as the engine speedup (that is [`EngineComparison`]).
pub const PRE_PR_BASELINE: &[(&str, f64)] = &[
    ("table1", 0.92),
    ("pipeline_table", 0.58),
    ("all_experiments", 2.77),
];

/// Commit the [`PRE_PR_BASELINE`] numbers were measured at.
pub const PRE_PR_BASELINE_REV: &str = "e2f45d3";

/// Full-sweep engine-comparison CPU seconds from the committed
/// `BENCH_simulator.json` this PR's epoch engine and resident-block
/// micro-optimisations (pre-sized micro-op vectors, reused scheduler key
/// array) replace. Rendered next to the fresh numbers so the report
/// records the delta, with the usual different-host-state caveat.
pub const PRE_PR_ENGINE_SECONDS: &[(&str, f64)] = &[("reference", 0.90), ("microop", 0.59)];

fn render_comparison(out: &mut String, c: &EngineComparison, with_pre_pr: bool) {
    out.push_str(&format!(
        "    \"workload\": \"{}\",\n",
        json_escape(c.workload)
    ));
    out.push_str(&format!("    \"reps\": {},\n", c.reps));
    out.push_str(&format!(
        "    \"reference_cpu_seconds\": {:.4},\n",
        c.reference_cpu_seconds
    ));
    out.push_str(&format!(
        "    \"microop_cpu_seconds\": {:.4},\n",
        c.microop_cpu_seconds
    ));
    out.push_str(&format!(
        "    \"epoch_cpu_seconds\": {:.4},\n",
        c.epoch_cpu_seconds
    ));
    out.push_str(&format!(
        "    \"microop_speedup\": {:.3},\n",
        c.microop_speedup()
    ));
    out.push_str(&format!(
        "    \"epoch_speedup\": {:.3},\n",
        c.epoch_speedup()
    ));
    if with_pre_pr {
        out.push_str(&format!(
            "    \"epoch_over_microop\": {:.3},\n",
            c.epoch_over_microop()
        ));
        out.push_str("    \"pre_pr_cpu_seconds\": {");
        for (i, (name, secs)) in PRE_PR_ENGINE_SECONDS.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {secs}", json_escape(name)));
        }
        out.push_str("}\n");
    } else {
        out.push_str(&format!(
            "    \"epoch_over_microop\": {:.3}\n",
            c.epoch_over_microop()
        ));
    }
}

/// Renders the full report as pretty-printed JSON (hand-rolled; the
/// workspace has no serde). Stable key order, two-space indent.
#[must_use]
pub fn render_json(
    suites: &[SuitePerf],
    comparison: Option<&EngineComparison>,
    quad: Option<&EngineComparison>,
    peak: Option<&CorePeak>,
    jobs: usize,
    engine: ulp_cluster::Engine,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"het-accel-simperf-v1\",\n");
    out.push_str("  \"time_basis\": \"process CPU seconds (user+sys)\",\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"engine\": \"{}\",\n", engine.name()));
    out.push_str("  \"pre_pr_baseline\": {\n");
    out.push_str(&format!(
        "    \"rev\": \"{}\",\n",
        json_escape(PRE_PR_BASELINE_REV)
    ));
    out.push_str(
        "    \"note\": \"serial-engine wall-clock seconds from the pre-PR checkout; \
         different host state than the suites below — the in-process \
         engine_comparison is the defensible speedup\",\n",
    );
    out.push_str("    \"wall_seconds\": {");
    for (i, (name, secs)) in PRE_PR_BASELINE.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {secs}", json_escape(name)));
    }
    out.push_str("}\n  },\n");
    out.push_str("  \"suites\": [\n");
    for (i, s) in suites.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"name\": \"{}\", \"host_cpu_seconds\": {:.4}, \
             \"retired_instructions\": {}, \"simulated_mips\": {:.2}",
            json_escape(s.name),
            s.host_cpu_seconds,
            s.retired,
            s.simulated_mips
        ));
        out.push('}');
        if i + 1 < suites.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    let total_secs: f64 = suites.iter().map(|s| s.host_cpu_seconds).sum();
    let total_retired: u64 = suites.iter().map(|s| s.retired).sum();
    out.push_str(&format!("  \"total_cpu_seconds\": {total_secs:.4},\n"));
    out.push_str(&format!(
        "  \"total_retired_instructions\": {total_retired},\n"
    ));
    match comparison {
        Some(c) => {
            out.push_str("  \"engine_comparison\": {\n");
            render_comparison(&mut out, c, true);
            out.push_str("  },\n");
        }
        None => out.push_str("  \"engine_comparison\": null,\n"),
    }
    match quad {
        Some(c) => {
            out.push_str("  \"engine_comparison_quad\": {\n");
            render_comparison(&mut out, c, false);
            out.push_str("  },\n");
        }
        None => out.push_str("  \"engine_comparison_quad\": null,\n"),
    }
    match peak {
        Some(p) => {
            out.push_str("  \"core_peak\": {\n");
            out.push_str(
                "    \"workload\": \"20M-instruction dense ALU loop, \
                 flat M4 core, best-of-reps wall clock\",\n",
            );
            out.push_str(&format!(
                "    \"reference_mips\": {:.2},\n",
                p.reference_mips
            ));
            out.push_str(&format!("    \"microop_mips\": {:.2},\n", p.microop_mips));
            out.push_str(&format!(
                "    \"microop_speedup\": {:.3}\n",
                p.microop_speedup()
            ));
            out.push_str("  }\n");
        }
        None => out.push_str("  \"core_peak\": null\n"),
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_is_monotonic() {
        let a = cpu_seconds();
        // Burn a little CPU so the clock-tick counter has a chance to move.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(x);
        let b = cpu_seconds();
        assert!(b >= a, "CPU clock went backwards: {a} -> {b}");
    }

    #[test]
    fn time_suite_meters_retired_instructions() {
        let perf = time_suite("probe", || {
            // Any simulation works; SvmLinear is small.
            let m = crate::measure::measure(ulp_kernels::Benchmark::SvmLinear);
            format!("{}", m.risc_ops)
        });
        assert!(perf.retired > 0, "simulation must retire instructions");
        assert!(perf.host_cpu_seconds >= 0.0);
        assert!(perf.simulated_mips >= 0.0);
    }

    #[test]
    fn report_is_valid_json_shape() {
        let suites = vec![SuitePerf {
            name: "table1",
            host_cpu_seconds: 1.25,
            retired: 42_000_000,
            simulated_mips: 33.6,
        }];
        let cmp = EngineComparison {
            workload: "full sweep",
            reps: 3,
            reference_cpu_seconds: 2.0,
            microop_cpu_seconds: 0.25,
            epoch_cpu_seconds: 0.125,
        };
        let quad = EngineComparison {
            workload: "quad cell",
            reps: 3,
            reference_cpu_seconds: 4.0,
            microop_cpu_seconds: 4.0,
            epoch_cpu_seconds: 2.0,
        };
        let peak = CorePeak {
            reference_mips: 50.0,
            microop_mips: 250.0,
        };
        let json = render_json(
            &suites,
            Some(&cmp),
            Some(&quad),
            Some(&peak),
            4,
            ulp_cluster::Engine::Epoch,
        );
        // Structural smoke checks (no JSON parser in the workspace).
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"engine\": \"epoch\""));
        assert!(json.contains("\"simulated_mips\": 33.60"));
        assert!(json.contains("\"reference_cpu_seconds\": 2.0000"));
        assert!(json.contains("\"microop_speedup\": 8.000"));
        assert!(json.contains("\"epoch_speedup\": 16.000"));
        assert!(json.contains("\"epoch_over_microop\": 2.000"));
        assert!(json.contains("\"workload\": \"quad cell\""));
        assert!(json.contains("\"pre_pr_cpu_seconds\": {\"reference\": 0.9"));
        assert!(json.contains("\"reference_mips\": 50.00"));
        assert!(json.contains("\"microop_speedup\": 5.000"));
        assert!(json.contains(PRE_PR_BASELINE_REV));
        let no_cmp = render_json(&suites, None, None, None, 1, ulp_cluster::Engine::Reference);
        assert!(no_cmp.contains("\"engine\": \"reference\""));
        assert!(no_cmp.contains("\"engine_comparison\": null"));
        assert!(no_cmp.contains("\"engine_comparison_quad\": null"));
        assert!(no_cmp.contains("\"core_peak\": null"));
    }
}
