//! `perfbench`: the repository's host-time benchmark.
//!
//! ```text
//! perfbench --workload <flat-sweep|cluster-offload|soak-chaos|fleet-autoscale|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run splits `--seconds` into segments. Each segment sets the
//! workload up afresh (`setup_s` is the median of these set-ups), then
//! repeats closed-loop passes over the whole input set until the
//! segment's share of the run is spent, checking every pass's outputs.
//! With `--trace 0` the
//! last line of stdout is a JSON object carrying the end-to-end metrics;
//! with `--trace 1` passes alternate traced and untraced, the spans are
//! written to `target/perfbench/`, and the JSON carries the per-layer
//! metrics. The exit code is non-zero when any output fails a check.

mod oracle;
mod span;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use oracle::Replay;
use span::{median, self_times, Recorder, Span, Tail};
use workloads::{default_seed, Counts, Workload, NAMES};

/// Segments per run, each opened by a set-up and holding at least one
/// pass: `setup_s` is the median of this many samples spread over the
/// run, and a traced run has at least two traced and two untraced passes.
const SEGMENTS: u32 = 5;
/// Layers whose self-time share of a pass the traced run reports, with
/// the metric that carries it.
const LAYERS: [(&str, &str); 6] = [
    ("kernels", "kernels.pct"),
    ("isa", "isa.pct"),
    ("cluster", "cluster.pct"),
    ("offload", "offload.pct"),
    ("serve", "serve.pct"),
    ("fleet", "fleet.pct"),
];

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: None,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => {
                    let v = value()?;
                    args.seed = Some(v.parse().map_err(|_| format!("--seed: bad number `{v}`"))?);
                }
                "--seconds" => {
                    let v = value()?;
                    args.seconds = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                        .ok_or(format!("--seconds: expected 0 < S <= 3600, got `{v}`"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of: {}, all",
                NAMES.join(", ")
            ));
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in its own process so `peak_rss_mib` is that
/// workload's alone, with the other arguments passed through.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut ok = true;
    for name in NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        ok &= cmd
            .status()
            .map_err(|e| format!("running {name}: {e}"))?
            .success();
    }
    Ok(ok)
}

/// Totals over a run's timed passes.
#[derive(Default)]
struct Tally {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    ops: u64,
    failed: u64,
    /// Retired instructions (simulator workloads) or offered requests
    /// (serving workloads) of the untraced passes.
    work: u64,
    counts: Counts,
}

/// One run's state: the recorder, the oracle's memory, and the tallies.
struct Run<'a> {
    args: &'a Args,
    seed: u64,
    rec: Recorder,
    replay: Replay<Counts>,
    failures: Vec<String>,
    tally: Tally,
}

impl Run<'_> {
    /// Sets the workload up once, the simulator workloads' verified
    /// warm-up pass included; returns it with the wall seconds it took.
    fn set_up(&mut self) -> Result<(Workload, f64), String> {
        self.rec.set_traced(self.args.trace);
        let t = Instant::now();
        let (name, seed) = (&self.args.workload, self.seed);
        let w = self.rec.span("setup", |rec| -> Result<Workload, String> {
            let w = Workload::setup(name, seed, rec)?;
            if let Some(warm) = w.warm_up() {
                let v = warm.verify(&warm.pass(rec));
                self.failures.extend(v.failures);
                if !self.replay.admit(v.digest, v.counts) {
                    self.failures.push(format!(
                        "warm-up pass differs from the first of seed {seed}"
                    ));
                }
            }
            Ok(w)
        })?;
        Ok((w, t.elapsed().as_secs_f64()))
    }

    /// Runs and checks one timed pass.
    fn pass(&mut self, w: &Workload, pass: u32) {
        let traced = self.args.trace && pass.is_multiple_of(2);
        self.rec.set_traced(traced);
        self.rec.set_pass(pass);
        let t = Instant::now();
        let outputs = self.rec.span("pass", |rec| w.pass(rec));
        let secs = t.elapsed().as_secs_f64();
        let v = w.verify(&outputs);
        drop(outputs);
        self.rec.set_pass(0);

        let tally = &mut self.tally;
        let replayed = self.replay.admit(v.digest, v.counts);
        if !replayed {
            self.failures.push(format!(
                "pass {pass}: outputs differ from the first pass of seed {}",
                self.seed
            ));
        }
        tally.ops += v.ops;
        tally.failed += if replayed {
            (v.failures.len() as u64).min(v.ops)
        } else {
            v.ops
        };
        self.failures.extend(v.failures);
        tally.counts = v.counts;
        if traced {
            tally.traced_s.push(secs);
        } else {
            tally.untraced_s.push(secs);
            tally.work += if w.serving() {
                v.counts.serve_requests
            } else {
                v.counts.isa_retired + v.counts.cluster_retired
            };
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    // Serial: `Fleet::run` is the only parallel map, and one job keeps
    // its timing steady.
    ulp_par::set_jobs(Some(1));
    let mut run = Run {
        args,
        seed: args.seed.unwrap_or_else(|| default_seed(&args.workload)),
        rec: Recorder::new(args.trace),
        replay: Replay::default(),
        failures: Vec::new(),
        tally: Tally::default(),
    };

    // The host's speed moves in phases of seconds to minutes, so the
    // set-ups are spread over the run instead of sharing one moment of
    // it. Each segment's workload is dropped before the next set-up, so
    // peak memory holds one set-up's inputs at a time.
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut serving = false;
    let mut pass = 0;
    for segment in 1..=SEGMENTS {
        let end = start
            + Duration::from_secs_f64(args.seconds * f64::from(segment) / f64::from(SEGMENTS));
        let (w, secs) = run.set_up()?;
        setup_s.push(secs);
        serving = w.serving();
        loop {
            pass += 1;
            run.pass(&w, pass);
            if Instant::now() >= end {
                break;
            }
        }
    }

    for f in run.failures.iter().take(40) {
        eprintln!("perfbench: FAILED {f}");
    }
    let correct = run.failures.is_empty();
    let metrics = if args.trace {
        let path = write_trace(&args.workload, run.seed, run.rec.spans())?;
        per_layer(args, run.seed, &run.tally, run.rec.spans(), &path)
    } else {
        end_to_end(args, run.seed, &run.tally, &setup_s, serving)?
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.ops,
        run.tally.failed,
        metrics
            .iter()
            .map(|(name, value, unit)| format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::io::stdout()
        .flush()
        .map_err(|e| format!("writing stdout: {e}"))?;
    Ok(correct)
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of an untraced run, printed by name with their
/// units, then returned for the JSON line.
fn end_to_end(
    args: &Args,
    seed: u64,
    t: &Tally,
    setup_s: &[f64],
    serving: bool,
) -> Result<Vec<Metric>, String> {
    let passes = &t.untraced_s;
    let busy: f64 = passes.iter().sum();
    let fastest = passes.iter().copied().fold(f64::INFINITY, f64::min);
    let tail = Tail::of(passes);
    let rate = t.work as f64 / busy;
    let rss = peak_rss_mib()?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={seed} seconds={} trace=0 jobs=1 passes={}",
        args.workload,
        args.seconds,
        passes.len()
    );
    let _ = writeln!(
        out,
        "  setup_s         {:>12.4} s  (median of {} set-ups)",
        median(setup_s),
        setup_s.len()
    );
    // The fastest pass, the median pass and the mean rate are printed
    // but are not JSON metrics: on a shared host, which of the host's
    // fast and slow phases a run catches moves them more than the
    // program does. The tail sits in the slow phase on every run.
    let _ = writeln!(out, "  pass_s.min      {fastest:>12.4} s");
    let _ = writeln!(out, "  pass_s.p50      {:>12.4} s", median(passes));
    let _ = writeln!(
        out,
        "  pass_s.tail     {:>12.4} s  (p{}, {} passes, {} beyond{})",
        tail.value,
        tail.percentile,
        passes.len(),
        tail.beyond,
        if tail.beyond < Tail::MIN_BEYOND {
            ": too few passes for a tail"
        } else {
            ""
        }
    );
    if serving {
        let _ = writeln!(
            out,
            "  requests_per_s  {rate:>12.1} 1/s  (sim_mips: n/a, no simulation in a pass)"
        );
    } else {
        let _ = writeln!(
            out,
            "  sim_mips        {:>12.2} MIPS  (requests_per_s: n/a)",
            rate / 1e6
        );
    }
    let _ = writeln!(out, "  peak_rss_mib    {rss:>12.1} MiB");
    let _ = writeln!(
        out,
        "  failed_share    {:>12} ({} of {} operations)",
        t.failed as f64 / t.ops.max(1) as f64,
        t.failed,
        t.ops
    );
    print_counts(&mut out, &t.counts);
    print!("{out}");

    Ok(vec![
        ("setup_s", median(setup_s), "s"),
        ("pass_s.tail", tail.value, "s"),
        ("peak_rss_mib", rss, "MiB"),
    ])
}

fn print_counts(out: &mut String, counts: &Counts) {
    let _ = write!(out, "  counts/pass    ");
    for (name, v) in counts.named().iter().filter(|(_, v)| *v > 0) {
        let _ = write!(out, " {name}={v}");
    }
    let _ = writeln!(out);
}

/// The per-layer metrics of a traced run: each layer's self-time share of
/// the traced passes, the unattributed share, exact counts, ratios, and
/// the tracing overhead. Printed by name first, including each call
/// site's self seconds per pass.
fn per_layer(args: &Args, seed: u64, t: &Tally, spans: &[Span], trace_path: &str) -> Vec<Metric> {
    let own = self_times(spans);
    let passes: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "pass")
        .collect();
    let traced = passes.len().max(1) as f64;
    let pass_ns: u64 = passes.iter().map(|&i| spans[i].duration_ns()).sum();
    let unattributed_ns: u64 = passes.iter().map(|&i| own[i]).sum();
    let share = |ns: u64| 100.0 * ns as f64 / pass_ns.max(1) as f64;
    // Self seconds per traced pass, by call site.
    let mut sites: Vec<(&'static str, u64)> = Vec::new();
    for (s, &ns) in spans.iter().zip(&own) {
        if s.pass == 0 || s.name == "pass" {
            continue;
        }
        match sites.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += ns,
            None => sites.push((s.name, ns)),
        }
    }
    let layer_ns = |layer: &str| -> u64 {
        sites
            .iter()
            .filter(|(name, _)| span::layer_of(name) == layer)
            .map(|(_, ns)| ns)
            .sum()
    };
    // Set-up shares, over every set-up root.
    let setup_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "setup")
        .map(Span::duration_ns)
        .sum();
    let setup_share = |name: &str| {
        let ns: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.pass == 0 && s.name == name)
            .map(|(_, ns)| ns)
            .sum();
        100.0 * ns as f64 / setup_ns.max(1) as f64
    };

    let c = &t.counts;
    let per_s = |n: u64, layer: &str| n as f64 * traced / (layer_ns(layer) as f64 / 1e9).max(1e-12);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let traced_p50 = median(&t.traced_s);
    let overhead = traced_p50 - median(&t.untraced_s);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={seed} seconds={} trace=1 traced_passes={} untraced_passes={}",
        args.workload,
        args.seconds,
        t.traced_s.len(),
        t.untraced_s.len()
    );
    let _ = writeln!(out, "  spans written to {trace_path}");
    let _ = writeln!(out, "  self time per traced pass:");
    for (name, ns) in &sites {
        let _ = writeln!(
            out,
            "    {name:<22} {:>10.6} s  {:>6.2}%",
            *ns as f64 / 1e9 / traced,
            share(*ns)
        );
    }
    let _ = writeln!(
        out,
        "    {:<22} {:>10.6} s  {:>6.2}%",
        "(unattributed)",
        unattributed_ns as f64 / 1e9 / traced,
        share(unattributed_ns)
    );
    let _ = write!(out, "  unattributed share of each traced pass (%):");
    for &i in &passes {
        let _ = write!(
            out,
            " {:.3}",
            100.0 * own[i] as f64 / spans[i].duration_ns().max(1) as f64
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  tracing overhead: traced pass_s.p50 {traced_p50:.6} s - untraced {:.6} s = {overhead:+.6} s",
        median(&t.untraced_s)
    );
    if c.link_frames > 0 {
        let _ = writeln!(
            out,
            "  serve.run_ns_per_frame {:.1} ns (serve.run self time / link.frames)",
            layer_ns("serve") as f64 / traced / c.link_frames as f64
        );
    }
    print_counts(&mut out, c);
    print!("{out}");

    let mut metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|&(layer, metric)| (metric, share(layer_ns(layer)), "%"))
        .collect();
    metrics.push(("unattributed.pct", share(unattributed_ns), "%"));
    metrics.push(("setup.serve.book.pct", setup_share("serve.book"), "%"));
    metrics.push(("setup.serve.loadgen.pct", setup_share("serve.loadgen"), "%"));
    for (name, v) in c.named() {
        metrics.push((name, v as f64, "count"));
    }
    metrics.push(("isa.mips", per_s(c.isa_retired, "isa") / 1e6, "MIPS"));
    metrics.push((
        "cluster.mips",
        per_s(c.cluster_retired, "cluster") / 1e6,
        "MIPS",
    ));
    metrics.push((
        "serve.requests_per_batch",
        ratio(c.serve_requests, c.serve_batches),
        "1",
    ));
    metrics.push((
        "link.frames_per_request",
        ratio(c.link_frames, c.serve_requests),
        "1",
    ));
    metrics.push(("trace.pass_s.p50", traced_p50, "s"));
    metrics.push(("trace.overhead_s", overhead, "s"));
    metrics
}

/// Writes the spans as Chrome trace-event JSON (one complete event per
/// span; pass id and parent index in `args`).
fn write_trace(workload: &str, seed: u64, spans: &[Span]) -> Result<String, String> {
    let dir = "target/perfbench";
    let path = format!("{dir}/trace-{workload}-seed{seed}.json");
    let mut text = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            text,
            "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"pass\": {}, \"parent\": {parent}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.pass,
        );
    }
    text.push_str("\n]}\n");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
