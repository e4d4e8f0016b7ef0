//! Simulator wall-clock performance tracker: times the evaluation suites,
//! meters simulated MIPS, runs the in-process three-way engine comparison
//! (reference vs micro-op vs epoch, full sweep plus the
//! quad-core `pulp_parallel` cell), and writes `BENCH_simulator.json`.
//!
//! Usage: `simperf [--jobs N] [--out PATH] [--reps N]
//! [--engine reference|microop|epoch] [--skip-comparison]`

use ulp_bench::simperf::{self, SuitePerf};
use ulp_cluster::Engine;

fn usage() -> ! {
    eprintln!(
        "usage: simperf [--jobs N] [--out PATH] [--reps N] \
         [--engine reference|microop|epoch] [--skip-comparison]"
    );
    std::process::exit(2);
}

fn main() {
    let mut out_path = String::from("BENCH_simulator.json");
    let mut reps = 3usize;
    let mut engine = Engine::Epoch;
    let mut comparison_enabled = true;
    let mut rest = ulp_bench::init_jobs_from_args().into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--out" => out_path = rest.next().unwrap_or_else(|| usage()),
            "--reps" => {
                reps = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--engine" => {
                engine = rest
                    .next()
                    .and_then(|v| Engine::from_name(&v))
                    .unwrap_or_else(|| usage());
            }
            "--skip-comparison" => comparison_enabled = false,
            _ => usage(),
        }
    }
    ulp_cluster::set_default_engine(engine);
    let jobs = ulp_par::effective_jobs();
    eprintln!("simperf: jobs={jobs} engine={} reps={reps}", engine.name());

    // Warm-up pass so one-time costs (page faults, lazy statics) don't
    // land on the first timed suite.
    std::hint::black_box(ulp_bench::table1::run().len());

    let suites: Vec<SuitePerf> = vec![
        simperf::time_suite("table1", ulp_bench::table1::run),
        simperf::time_suite("pipeline_table", ulp_bench::pipeline::run),
        simperf::time_suite("all_experiments", ulp_bench::full_report),
    ];
    for s in &suites {
        eprintln!(
            "simperf: {:16} {:7.3} cpu-s  {:>12} retired  {:7.2} simulated MIPS",
            s.name, s.host_cpu_seconds, s.retired, s.simulated_mips
        );
    }

    let (comparison, quad, peak) = if comparison_enabled {
        let c = simperf::compare_engines(reps, engine);
        eprintln!(
            "simperf: engine comparison (min of {}): reference {:.3} cpu-s, \
             microop {:.3} cpu-s ({:.3}x), epoch {:.3} cpu-s ({:.3}x)",
            c.reps,
            c.reference_cpu_seconds,
            c.microop_cpu_seconds,
            c.microop_speedup(),
            c.epoch_cpu_seconds,
            c.epoch_speedup()
        );
        let q = simperf::compare_engines_quad(reps, engine);
        eprintln!(
            "simperf: quad-core cell (min of {}): reference {:.3} cpu-s, microop {:.3} cpu-s \
             ({:.3}x), epoch {:.3} cpu-s ({:.3}x, {:.3}x over microop)",
            q.reps,
            q.reference_cpu_seconds,
            q.microop_cpu_seconds,
            q.microop_speedup(),
            q.epoch_cpu_seconds,
            q.epoch_speedup(),
            q.epoch_over_microop()
        );
        let p = simperf::core_peak(reps);
        eprintln!(
            "simperf: core peak (best of {reps}): reference {:.2} MIPS, microop {:.2} MIPS \
             ({:.3}x)",
            p.reference_mips,
            p.microop_mips,
            p.microop_speedup()
        );
        (Some(c), Some(q), Some(p))
    } else {
        (None, None, None)
    };

    let json = simperf::render_json(
        &suites,
        comparison.as_ref(),
        quad.as_ref(),
        peak.as_ref(),
        jobs,
        engine,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("simperf: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("simperf: wrote {out_path}");
    print!("{json}");
}
