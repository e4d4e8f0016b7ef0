//! Runs every experiment of the DATE'16 evaluation and prints the full
//! report (the source of `EXPERIMENTS.md`).
//!
//! Accepts `--jobs N` to bound the sweep's worker threads; the report is
//! byte-identical at any worker count.

fn main() {
    let rest = ulp_bench::init_jobs_from_args();
    assert!(rest.is_empty(), "usage: all_experiments [--jobs N]");
    print!("{}", ulp_bench::full_report());
}
