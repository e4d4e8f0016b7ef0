//! The golden snapshots under the micro-op engine, in a process of their
//! own: the test switches the process-wide default engine and the sweep
//! worker count, which would otherwise leak into the epoch-default golden
//! tests running in parallel threads of the same test binary.

/// Guard for the micro-op engine: the golden Table I and
/// Figure 3 snapshots hold with the block-caching engine pinned on
/// *explicitly* (not merely as the ambient default), and the full
/// experiments report — every table and figure the bench binaries write —
/// is byte-identical between 1 and 4 worker threads under that engine. A
/// future change to the engine default can therefore never silently
/// re-capture the goldens under a different interpreter, and the micro-op
/// block cache introduces no scheduling- or parallelism-dependent state.
#[test]
fn microop_engine_reproduces_goldens_and_is_jobs_deterministic() {
    ulp_cluster::set_default_engine(ulp_cluster::Engine::Microop);
    assert_eq!(
        format!("{}\n", ulp_bench::table1::run()),
        include_str!("golden/table1.txt"),
        "Table I under the pinned micro-op engine drifted from the golden snapshot"
    );
    assert_eq!(
        format!("{}\n", ulp_bench::fig3::run()),
        include_str!("golden/fig3.txt"),
        "Figure 3 under the pinned micro-op engine drifted from the golden snapshot"
    );

    let full_report = || {
        let measurements = ulp_bench::measure::measure_all();
        let mut report = String::new();
        report.push_str(&ulp_bench::table1::render(&measurements));
        report.push_str(&ulp_bench::fig3::run());
        report.push_str(&ulp_bench::fig4::render(&measurements));
        report.push_str(&ulp_bench::fig5a::render(&ulp_bench::fig5a::compute(
            &measurements,
        )));
        report.push_str(&ulp_bench::fig5b::run());
        report
    };
    ulp_par::set_jobs(Some(1));
    let serial = full_report();
    ulp_par::set_jobs(Some(4));
    let parallel = full_report();
    ulp_par::set_jobs(None);
    assert_eq!(
        parallel, serial,
        "worker count changed the experiments report under the micro-op engine"
    );
}
