//! # ulp-bench — experiment harness for the DATE'16 evaluation
//!
//! Regenerates every table and figure of the paper's §IV from simulation:
//!
//! | artifact | module | binary |
//! |---|---|---|
//! | Table I  (benchmark summary)            | [`table1`] | `cargo run --bin table1` |
//! | Fig. 3   (matmul energy efficiency)     | [`fig3`]   | `cargo run --bin fig3` |
//! | Fig. 4   (architectural & parallel speedup) | [`fig4`] | `cargo run --bin fig4` |
//! | Fig. 5a  (speedup in a 10 mW envelope)  | [`fig5a`]  | `cargo run --bin fig5a` |
//! | Fig. 5b  (offload amortization)         | [`fig5b`]  | `cargo run --bin fig5b` |
//! | ablations (design-choice studies)       | [`ablation`] | `cargo run --bin ablations` |
//! | §V extensions (beyond the paper)        | [`extensions`] | `cargo run --bin extensions` |
//! | core-count scaling study                | [`scaling`] | `cargo run --bin scaling` |
//! | fault-injection resilience study        | [`faults`] | `cargo run --bin faults` |
//! | pipelined-offload study                 | [`pipeline`] | `cargo run --bin pipeline_table` |
//! | serving-layer batching study            | [`serve`]  | `cargo run --bin serve` |
//! | chaos soak study (million-request)      | [`soak`]   | `cargo run --bin soak` |
//! | fleet study (sharded groups, autoscale) | [`fleet`]  | `cargo run --bin fleet` |
//! | platform matrix (cost model, governor)  | [`platforms`] | `cargo run --bin platforms` |
//! | simulator wall-clock perf tracking      | [`simperf`] | `cargo run --bin simperf` |
//!
//! `cargo run --bin all_experiments` prints everything (the source of
//! `EXPERIMENTS.md`). Absolute numbers come from the calibrated models
//! described in `DESIGN.md`; the claims under test are the *shapes*: who
//! wins, by what factor, where the crossovers sit.

pub mod ablation;
pub mod extensions;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod fig5a;
pub mod fig5b;
pub mod fleet;
pub mod measure;
pub mod pipeline;
pub mod platforms;
pub mod scaling;
pub mod serve;
pub mod simperf;
pub mod soak;
pub mod table1;

/// Consumes a leading `--jobs N` / `--jobs=N` pair from the process
/// arguments, installs it via [`ulp_par::set_jobs`], and returns the
/// remaining arguments. Shared by the experiment binaries so every sweep
/// entry point accepts the same flag.
///
/// # Panics
///
/// Panics (with a usage message) when `--jobs` is present without a valid
/// positive integer.
#[must_use]
pub fn init_jobs_from_args() -> Vec<String> {
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            let n = args
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .expect("--jobs requires a positive integer");
            ulp_par::set_jobs(Some(n));
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            let n = v
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .expect("--jobs requires a positive integer");
            ulp_par::set_jobs(Some(n));
        } else {
            rest.push(arg);
        }
    }
    rest
}

/// The full experiments report: every table and figure of the
/// evaluation, each followed by a newline, in the order
/// `all_experiments` prints them (and `simperf` times them).
#[must_use]
pub fn full_report() -> String {
    let measurements = measure::measure_all();
    let mut report = String::new();
    for section in [
        table1::render(&measurements),
        fig3::run(),
        fig4::render(&measurements),
        fig5a::render(&fig5a::compute(&measurements)),
        fig5b::run(),
        ablation::run(),
        extensions::run(),
        scaling::run(),
        faults::run(),
    ] {
        report.push_str(&section);
        report.push('\n');
    }
    report
}

/// Escapes a string for a JSON string literal. The harness's strings
/// hold no control characters, so only backslashes and quotes need it.
pub(crate) fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders an aligned plain-text table (header + rows).
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        line.trim_end().to_owned()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer"));
    }
}
