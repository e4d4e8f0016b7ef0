//! Cross-crate integration tests: the full offload path for every Table I
//! benchmark, end-to-end invariants of the heterogeneous platform.

use het_accel::prelude::*;
use ulp_offload::OffloadError;

/// Every benchmark survives the complete offload path — binary over the
/// link, inputs marshalled, SPMD execution on the 4-core cluster, outputs
/// read back and verified bit-exact against the golden reference.
#[test]
fn every_benchmark_offloads_end_to_end() {
    let mut sys = HetSystem::new(HetSystemConfig::default());
    for b in Benchmark::ALL {
        let build = b.build(&TargetEnv::pulp_parallel());
        let report = sys
            .offload(
                &build,
                &OffloadOptions {
                    iterations: 2,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{b}: {e}"));
        assert!(report.compute_seconds > 0.0, "{b}");
        // Warm runs drop the cold I$ misses, but cores left in closer
        // phase alignment can collide systematically in the TCDM banks
        // when SPMD code streams the same shared operand (e.g. the BT
        // matrix); both effects are real, so only bound the jitter.
        assert!(
            report.cycles_warm as f64 <= report.cycles_cold as f64 * 1.2,
            "{b}: warm {} vs cold {}",
            report.cycles_warm,
            report.cycles_cold
        );
        assert!(report.total_energy_joules() > 0.0, "{b}");
    }
}

/// The headline claim of the paper, reproduced end to end: each benchmark,
/// offloaded with amortization, runs an order of magnitude faster than the
/// 32 MHz host-only baseline while the platform stays under 10 mW during
/// compute.
#[test]
fn headline_order_of_magnitude_speedup_under_10mw() {
    let host_sys = HetSystem::new(HetSystemConfig {
        mcu_freq_hz: 32.0e6,
        ..Default::default()
    });
    for b in [Benchmark::Strassen, Benchmark::SvmRbf, Benchmark::Cnn] {
        let host = host_sys
            .run_on_host(&b.build(&TargetEnv::host_m4()))
            .unwrap();

        let mut sys = HetSystem::new(HetSystemConfig::default());
        let report = sys
            .offload(
                &b.build(&TargetEnv::pulp_parallel()),
                &OffloadOptions {
                    iterations: 32,
                    double_buffer: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let per_iter = report.total_seconds() / 32.0;
        let speedup = host.seconds / per_iter;
        assert!(
            speedup > 10.0,
            "{b}: end-to-end speedup {speedup:.1}× below one order"
        );

        let power = sys.compute_phase_power_watts(&report.activity);
        assert!(
            power < 10.0e-3,
            "{b}: compute-phase power {:.2} mW",
            power * 1e3
        );
    }
}

/// Host-side execution of the same kernels produces the same verified
/// outputs (the runner checks against the shared golden reference), so
/// host and accelerator implementations agree functionally.
#[test]
fn host_and_accelerator_agree_functionally() {
    for b in [
        Benchmark::MatMulFixed,
        Benchmark::SvmPoly,
        Benchmark::CnnApprox,
    ] {
        let host_env = TargetEnv::host_m4();
        ulp_kernels::run(&b.build(&host_env), &host_env).unwrap_or_else(|e| panic!("{b}: {e}"));
        let accel_env = TargetEnv::pulp_parallel();
        ulp_kernels::run(&b.build(&accel_env), &accel_env).unwrap_or_else(|e| panic!("{b}: {e}"));
    }
}

/// The resident-binary optimization: a second offload of the same kernel
/// skips the program transfer; switching kernels pays it again.
#[test]
fn binary_residency_across_kernel_switches() {
    let mut sys = HetSystem::new(HetSystemConfig::default());
    let svm = Benchmark::SvmLinear.build(&TargetEnv::pulp_parallel());
    let cnn = Benchmark::Cnn.build(&TargetEnv::pulp_parallel());

    let first_svm = sys.offload(&svm, &OffloadOptions::default()).unwrap();
    let second_svm = sys.offload(&svm, &OffloadOptions::default()).unwrap();
    let first_cnn = sys.offload(&cnn, &OffloadOptions::default()).unwrap();
    let back_to_svm = sys.offload(&svm, &OffloadOptions::default()).unwrap();

    assert!(first_svm.binary_seconds > 0.0);
    assert_eq!(second_svm.binary_seconds, 0.0);
    assert!(first_cnn.binary_seconds > 0.0, "kernel switch reloads");
    assert!(back_to_svm.binary_seconds > 0.0, "svm was evicted by cnn");
}

/// Link statistics account every transferred byte.
#[test]
fn link_accounting_is_consistent() {
    let mut sys = HetSystem::new(HetSystemConfig::default());
    let build = Benchmark::MatMul.build(&TargetEnv::pulp_parallel());
    let iters = 4;
    let _ = sys
        .offload(
            &build,
            &OffloadOptions {
                iterations: iters,
                ..Default::default()
            },
        )
        .unwrap();
    let stats = sys.link_stats();
    // binary + iters × inputs (plus frame headers).
    let min_tx = build.offload_binary_bytes() + iters * build.input_bytes();
    let min_rx = iters * build.output_bytes();
    assert!(
        stats.bytes_tx >= min_tx as u64,
        "{} < {min_tx}",
        stats.bytes_tx
    );
    assert!(stats.bytes_rx >= min_rx as u64);
    assert!(stats.busy_seconds > 0.0);
}

/// Scaling the cluster: more cores help up to the work-sharing limit.
#[test]
fn core_count_scaling() {
    let cycles_with = |cores: usize| {
        let env = TargetEnv::pulp_with_cores(cores);
        let build = Benchmark::MatMul.build(&env);
        ulp_kernels::run(&build, &env).unwrap().cycles
    };
    let c1 = cycles_with(1);
    let c2 = cycles_with(2);
    let c4 = cycles_with(4);
    let c8 = cycles_with(8);
    assert!(
        c1 > c2 && c2 > c4 && c4 > c8,
        "{c1} > {c2} > {c4} > {c8} violated"
    );
    let s8 = c1 as f64 / c8 as f64;
    assert!(s8 > 5.0 && s8 < 8.0, "8-core speedup {s8:.2}");
}

/// Golden-figure regression: the Table I reproduction is bit-identical to
/// the snapshot in `tests/golden/table1.txt`. The bench binary prints the
/// same string, so any drift in kernel cycle counts, link modeling or
/// energy accounting — intended or not — shows up as a diff here and the
/// snapshot must be re-captured deliberately (`cargo run --release -p
/// ulp-bench --bin table1 > tests/golden/table1.txt`).
#[test]
fn table1_matches_golden_snapshot() {
    assert_eq!(
        format!("{}\n", ulp_bench::table1::run()),
        include_str!("golden/table1.txt"),
        "Table I output drifted from tests/golden/table1.txt"
    );
}

/// Same regression guard for the Figure 3 speedup/efficiency sweep
/// (`tests/golden/fig3.txt`).
#[test]
fn fig3_matches_golden_snapshot() {
    assert_eq!(
        format!("{}\n", ulp_bench::fig3::run()),
        include_str!("golden/fig3.txt"),
        "Figure 3 output drifted from tests/golden/fig3.txt"
    );
}

/// The parallel sweep harness is invisible in the output: Table I (the
/// full `measure_all` sweep) rendered with 4 worker threads is
/// byte-identical to the serial rendering — and to the golden snapshot,
/// via `table1_matches_golden_snapshot` running in the same process.
#[test]
fn table1_with_jobs_is_byte_identical_to_serial() {
    ulp_par::set_jobs(Some(1));
    let serial = ulp_bench::table1::run();
    ulp_par::set_jobs(Some(4));
    let parallel = ulp_bench::table1::run();
    ulp_par::set_jobs(None);
    assert_eq!(parallel, serial, "worker count changed Table I output");
}

/// Same regression guard for the fault-injection study
/// (`tests/golden/faults_table.txt`): every resilience row and the
/// event-wire faults, priced by the fault-aware offload path. Re-capture
/// deliberately with `cargo run --release -p ulp-bench --bin faults >
/// tests/golden/faults_table.txt`.
#[test]
fn faults_table_matches_golden_snapshot() {
    assert_eq!(
        format!("{}\n", ulp_bench::faults::run()),
        include_str!("golden/faults_table.txt"),
        "fault-injection study output drifted from tests/golden/faults_table.txt"
    );
}

/// Same regression guard for the pipelined-offload study
/// (`tests/golden/pipeline_table.txt`): serialized and pipelined modeled
/// times per benchmark, chunk counts and overlap accounting. Re-capture
/// deliberately with `cargo run --release -p ulp-bench --bin
/// pipeline_table > tests/golden/pipeline_table.txt`.
#[test]
fn pipeline_table_matches_golden_snapshot() {
    assert_eq!(
        format!("{}\n", ulp_bench::pipeline::run()),
        include_str!("golden/pipeline_table.txt"),
        "pipeline study output drifted from tests/golden/pipeline_table.txt"
    );
}

/// Empty `map` clauses are a no-op end to end: a zero-length buffer adds
/// no frames, no link bytes, no DMA bursts and no modeled time — with the
/// pipeline engine off and on — instead of tripping the empty-burst
/// assert downstream.
#[test]
fn empty_map_clauses_are_a_no_op() {
    let with_empty_maps = |build: &ulp_kernels::KernelBuild| {
        let mut b = build.clone();
        for (role, addr) in [
            (ulp_kernels::BufferRole::Input, 0x1000_f000),
            (ulp_kernels::BufferRole::Output, 0x1000_f800),
        ] {
            b.buffers.push(ulp_kernels::Buffer {
                name: "empty",
                addr,
                len: 0,
                init: ulp_kernels::BufferInit::Zero,
                role,
            });
        }
        b
    };
    let build = Benchmark::MatMul.build(&TargetEnv::pulp_parallel());
    let padded = with_empty_maps(&build);
    for pipeline in [PipelineConfig::default(), PipelineConfig::enabled()] {
        let opts = OffloadOptions {
            iterations: 3,
            pipeline,
            ..Default::default()
        };
        let mut plain_sys = HetSystem::new(HetSystemConfig::default());
        let plain = plain_sys.offload(&build, &opts).unwrap();
        let mut padded_sys = HetSystem::new(HetSystemConfig::default());
        let padded_report = padded_sys.offload(&padded, &opts).unwrap();
        assert_eq!(plain.input_seconds, padded_report.input_seconds);
        assert_eq!(plain.output_seconds, padded_report.output_seconds);
        assert_eq!(plain.overlapped_seconds, padded_report.overlapped_seconds);
        assert_eq!(plain.total_seconds(), padded_report.total_seconds());
        assert_eq!(plain.link_energy_joules, padded_report.link_energy_joules);
        assert_eq!(
            plain_sys.link_stats().bytes_tx,
            padded_sys.link_stats().bytes_tx
        );
        assert_eq!(
            plain_sys.link_stats().bytes_rx,
            padded_sys.link_stats().bytes_rx
        );
    }
}

/// A mismatching golden reference is detected by the offload runtime (the
/// verification path actually verifies).
#[test]
fn corrupted_reference_detected() {
    let mut sys = HetSystem::new(HetSystemConfig::default());
    let mut build = Benchmark::SvmLinear.build(&TargetEnv::pulp_parallel());
    let (_, expected) = &mut build.expected[0];
    expected[0] ^= 0xFF;
    match sys.offload(&build, &OffloadOptions::default()) {
        Err(OffloadError::OutputMismatch(names)) => assert!(!names.is_empty()),
        other => panic!("expected mismatch, got {other:?}"),
    }
}
