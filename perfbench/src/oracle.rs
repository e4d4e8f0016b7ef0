//! The correctness oracle: output digests and the modeled numbers each
//! workload must reproduce exactly.
//!
//! Modeled numbers (cycles, retired instructions, `predict` bits, serve
//! and fleet ledgers) are checks, never metrics: a faster program must
//! reproduce every one of them bit for bit.

use ulp_kernels::Benchmark;
use ulp_serve::{fmt_ms, FleetReport, ServeReport};

/// Word-at-a-time digest of a pass's outputs (FxHash mixing step).
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds in one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    /// Folds in a string's bytes and its length.
    pub fn str(&mut self, s: &str) {
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(s.len() as u64);
    }

    /// Folds in a pool report: every counter, the SLO ledger, and every
    /// per-request outcome.
    pub fn report(&mut self, r: &ServeReport) {
        let c = &r.chaos;
        for w in [
            r.admitted,
            r.completed,
            r.rejected,
            r.failed_over,
            r.failed,
            r.stranded,
            r.deadline_misses,
            r.makespan_ns,
            r.uploads,
            r.priced_out,
            r.latency.p50_ns,
            r.latency.p99_ns,
            r.latency.mean_ns,
            c.frames,
            c.bits_flipped,
            c.frames_damaged,
            c.crc_escapes,
            c.retransmissions,
            c.watchdog_fires,
            c.late_events,
            c.fallback_batches,
            c.fallback_requests,
            c.failed_requests,
            c.residency_flushes,
            c.blackout_windows,
        ] {
            self.word(w);
        }
        for &n in &r.batch_hist {
            self.word(n);
        }
        for tenant in &r.slo.cells {
            for cell in tenant {
                for w in [
                    cell.completed,
                    cell.failed_over,
                    cell.failed,
                    cell.rejected,
                    cell.missed,
                ] {
                    self.word(w);
                }
            }
        }
        for o in &r.outcomes {
            for w in [
                o.id,
                o.tenant as u64,
                u64::from(o.class.rank()),
                o.benchmark as u64,
                o.arrival_ns,
                o.done_ns,
                o.kind as u64,
            ] {
                self.word(w);
            }
        }
    }

    /// The digest value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `(kernel, target, cycles, retired)` of every flat-sweep run: the
/// modeled numbers of this commit, identical on every seed.
const FLAT: &[(&str, &str, u64, u64)] = &[
    ("matmul", "baseline", 2_658_949, 2_134_663),
    ("matmul", "m3", 1_413_764, 955_015),
    ("matmul", "m4", 1_151_620, 955_015),
    ("matmul (short)", "baseline", 2_658_949, 2_134_663),
    ("matmul (short)", "m3", 1_413_764, 955_015),
    ("matmul (short)", "m4", 1_151_620, 955_015),
    ("matmul (fixed)", "baseline", 2_921_093, 2_396_807),
    ("matmul (fixed)", "m3", 2_003_588, 1_610_375),
    ("matmul (fixed)", "m4", 2_003_588, 1_610_375),
    ("strassen", "baseline", 2_611_041, 2_116_095),
    ("strassen", "m3", 1_500_690, 1_044_991),
    ("strassen", "m4", 1_271_314, 1_044_991),
    ("svm (linear)", "baseline", 692_421, 610_503),
    ("svm (linear)", "m3", 648_900, 526_023),
    ("svm (linear)", "m4", 648_900, 526_023),
    ("svm (poly)", "baseline", 735_941, 654_023),
    ("svm (poly)", "m3", 692_420, 569_543),
    ("svm (poly)", "m4", 692_420, 569_543),
    ("svm (RBF)", "baseline", 974_021, 881_863),
    ("svm (RBF)", "m3", 935_620, 797_383),
    ("svm (RBF)", "m4", 935_620, 797_383),
    ("cnn", "baseline", 1_091_831, 1_035_187),
    ("cnn", "m3", 1_084_473, 999_507),
    ("cnn", "m4", 1_084_473, 999_507),
    ("cnn (approx)", "baseline", 829_831, 785_987),
    ("cnn (approx)", "m3", 824_073, 758_307),
    ("cnn (approx)", "m4", 824_073, 758_307),
    ("hog", "baseline", 4_101_605, 3_461_393),
    ("hog", "m3", 3_591_816, 2_586_998),
    ("hog", "m4", 3_507_758, 2_586_998),
];

/// `(kernel, cycles_cold, cycles_warm, [predict seconds, predict joules,
/// plan seconds] as f64 bits)` of every cluster-offload kernel.
const CLUSTER: &[(&str, u64, u64, [u64; 3])] = &[
    (
        "matmul",
        104_974,
        104_857,
        [0x404BFDCC30895A9B, 0x3FD405BA95DEEFC9, 0x3F9D9C6E0C106BC5],
    ),
    (
        "matmul (short)",
        150_212,
        170_404,
        [0x405B8C3573056972, 0x3FE3511E0FE4BBCC, 0x3FAC50BBC0E872A4],
    ),
    (
        "matmul (fixed)",
        506_745,
        493_969,
        [0x405EE674532E7CE8, 0x3FE9037BE308A883, 0x3FB1CE2A2BC3EFD0],
    ),
    (
        "strassen",
        119_385,
        111_992,
        [0x404C3AED814E13B9, 0x3FD45C4FC548270F, 0x3F9EE7B7E62B4A17],
    ),
    (
        "svm (linear)",
        140_992,
        152_877,
        [0x40427BCC320B46A6, 0x3FCE12E37764282C, 0x3F94D1256150311B],
    ),
    (
        "svm (poly)",
        142_250,
        164_573,
        [0x4042BA2DACEE1B70, 0x3FCEDB2D8F18B3B0, 0x3F94E2C7323794BE],
    ),
    (
        "svm (RBF)",
        220_679,
        221_411,
        [0x4043F0F8AB9BBB41, 0x3FD16B7FBDBC1AE1, 0x3F983ACE61E9EEB4],
    ),
    (
        "cnn",
        264_104,
        263_790,
        [0x403B0A9747E990FA, 0x3FC7E1241A75E30E, 0x3F9265A01148B929],
    ),
    (
        "cnn (approx)",
        203_426,
        204_807,
        [0x40360BF917F3E082, 0x3FC39A1FE09C0F6E, 0x3F8ED13B59FE8F75],
    ),
    (
        "hog",
        1_051_489,
        1_050_878,
        [0x406F09C018D1F24A, 0x3FF8B90D1BEF66BA, 0x3FC1F83EA935C757],
    ),
];

/// Checks one flat-sweep run against its pinned cycles and retired count.
///
/// # Errors
///
/// A message naming the run when it differs or is not pinned.
pub fn check_flat(b: Benchmark, target: &str, cycles: u64, retired: u64) -> Result<(), String> {
    match FLAT.iter().find(|p| p.0 == b.name() && p.1 == target) {
        Some(&(_, _, c, r)) if (c, r) == (cycles, retired) => Ok(()),
        Some(&(_, _, c, r)) => Err(format!(
            "{} on {target}: {cycles} cycles / {retired} retired, pinned {c} / {r}",
            b.name()
        )),
        None => Err(format!(
            "{} on {target}: no pinned value for {cycles} cycles / {retired} retired",
            b.name()
        )),
    }
}

/// Checks one cluster-offload kernel against its pinned cycles and the
/// exact bits of its `predict` and `plan_queue` results.
///
/// # Errors
///
/// A message naming the kernel when anything differs or is not pinned.
pub fn check_cluster(b: Benchmark, cold: u64, warm: u64, bits: [u64; 3]) -> Result<(), String> {
    match CLUSTER.iter().find(|p| p.0 == b.name()) {
        Some(&(_, c, w, pb)) if (c, w, pb) == (cold, warm, bits) => Ok(()),
        Some(&(_, c, w, pb)) => Err(format!(
            "{}: cold/warm {cold}/{warm} bits {bits:x?}, pinned {c}/{w} {pb:x?}",
            b.name()
        )),
        None => Err(format!(
            "{}: no pinned value for cold/warm {cold}/{warm} bits {bits:?}",
            b.name()
        )),
    }
}

/// The chaos cell of the committed `BENCH_soak.json`: conservation,
/// service and chaos counters, rendered as that file renders them.
pub const SOAK_CHAOS: &[(&str, &str)] = &[
    ("offered", "1095147"),
    ("admitted", "970950"),
    ("completed", "956795"),
    ("rejected", "124197"),
    ("failed_over", "14155"),
    ("failed", "0"),
    ("stranded", "0"),
    ("throughput_rps", "514.308"),
    ("mean_batch", "2.126"),
    ("p50_ms", "\"26.558\""),
    ("p99_ms", "\"6205.689\""),
    ("deadline_misses", "142013"),
    ("uploads", "419795"),
    ("makespan_ns", "1860354609489"),
    ("frames", "3515527"),
    ("frames_damaged", "205180"),
    ("bits_flipped", "208485"),
    ("crc_escapes", "3"),
    ("retransmissions", "199807"),
    ("watchdog_fires", "798"),
    ("late_events", "946"),
    ("fallback_batches", "5370"),
    ("fallback_requests", "14155"),
    ("failed_requests", "0"),
    ("residency_flushes", "64"),
    ("blackout_windows", "98001"),
];

/// The 1024-worker cell of the committed `BENCH_fleet.json`.
pub const FLEET_1024W: &[(&str, &str)] = &[
    ("offered", "1635043"),
    ("admitted", "1433571"),
    ("completed", "1433571"),
    ("rejected", "201472"),
    ("priced_out", "201472"),
    ("failed_over", "0"),
    ("failed", "0"),
    ("stranded", "0"),
    ("throughput_rps", "71578.056"),
    ("p50_ms", "\"41.567\""),
    ("p99_ms", "\"454.012\""),
    ("utilization", "0.727"),
    ("deadline_misses", "291429"),
    ("makespan_ns", "20028079466"),
    ("scale_ups", "98"),
    ("scale_downs", "95"),
    ("events", "193"),
];

/// A soak report in the shape of [`SOAK_CHAOS`].
#[must_use]
pub fn soak_summary(offered: u64, r: &ServeReport) -> Vec<(&'static str, String)> {
    let c = &r.chaos;
    let ints = [
        ("offered", offered),
        ("admitted", r.admitted),
        ("completed", r.completed),
        ("rejected", r.rejected),
        ("failed_over", r.failed_over),
        ("failed", r.failed),
        ("stranded", r.stranded),
        ("deadline_misses", r.deadline_misses),
        ("uploads", r.uploads),
        ("makespan_ns", r.makespan_ns),
        ("frames", c.frames),
        ("frames_damaged", c.frames_damaged),
        ("bits_flipped", c.bits_flipped),
        ("crc_escapes", c.crc_escapes),
        ("retransmissions", c.retransmissions),
        ("watchdog_fires", c.watchdog_fires),
        ("late_events", c.late_events),
        ("fallback_batches", c.fallback_batches),
        ("fallback_requests", c.fallback_requests),
        ("failed_requests", c.failed_requests),
        ("residency_flushes", c.residency_flushes),
        ("blackout_windows", c.blackout_windows),
    ];
    let mut out: Vec<(&'static str, String)> =
        ints.iter().map(|&(k, v)| (k, v.to_string())).collect();
    out.push(("throughput_rps", format!("{:.3}", r.throughput_rps())));
    out.push(("mean_batch", format!("{:.3}", r.mean_batch())));
    out.push(("p50_ms", format!("\"{}\"", fmt_ms(r.latency.p50_ns))));
    out.push(("p99_ms", format!("\"{}\"", fmt_ms(r.latency.p99_ns))));
    out
}

/// A fleet report in the shape of [`FLEET_1024W`].
#[must_use]
pub fn fleet_summary(r: &FleetReport) -> Vec<(&'static str, String)> {
    let ints = [
        ("offered", r.offered),
        ("admitted", r.admitted()),
        ("completed", r.completed()),
        ("rejected", r.rejected()),
        ("priced_out", r.priced_out()),
        ("failed_over", r.failed_over()),
        ("failed", r.failed()),
        ("stranded", r.stranded()),
        ("deadline_misses", r.deadline_misses()),
        ("makespan_ns", r.makespan_ns),
        ("scale_ups", r.scale_ups()),
        ("scale_downs", r.scale_downs()),
        ("events", r.scale_events.len() as u64),
    ];
    let mut out: Vec<(&'static str, String)> =
        ints.iter().map(|&(k, v)| (k, v.to_string())).collect();
    out.push(("throughput_rps", format!("{:.3}", r.throughput_rps())));
    out.push(("utilization", format!("{:.3}", r.utilization())));
    out.push(("p50_ms", format!("\"{}\"", fmt_ms(r.latency.p50_ns))));
    out.push(("p99_ms", format!("\"{}\"", fmt_ms(r.latency.p99_ns))));
    out
}

/// Compares an observed summary with its pinned values; one message per
/// field that differs or is missing.
#[must_use]
pub fn check_pinned(observed: &[(&'static str, String)], pinned: &[(&str, &str)]) -> Vec<String> {
    pinned
        .iter()
        .filter_map(
            |&(key, want)| match observed.iter().find(|(k, _)| *k == key) {
                Some((_, got)) if got == want => None,
                Some((_, got)) => Some(format!("{key}: {got}, pinned {want}")),
                None => Some(format!("{key}: missing, pinned {want}")),
            },
        )
        .collect()
}

/// Tracks a run's passes: every pass of one seed must reproduce the
/// first pass's digest and counts exactly.
#[derive(Debug, Default)]
pub struct Replay<T> {
    first: Option<(u64, T)>,
}

impl<T: PartialEq + Copy> Replay<T> {
    /// Admits one pass; false when it differs from the first.
    pub fn admit(&mut self, digest: u64, counts: T) -> bool {
        match self.first {
            None => {
                self.first = Some((digest, counts));
                true
            }
            Some(first) => first == (digest, counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text of one cell of a committed `BENCH_*.json`.
    fn committed_cell(file: &str, cell: &str) -> String {
        let path = format!("{}/../{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("committed artifact is readable");
        let start = text
            .find(&format!("\"cell\": \"{cell}\""))
            .expect("cell is in the artifact");
        // The counters end where the SLO ledger or the verdict begins.
        let len = ["\"slo\"", "\"invariant_violations\""]
            .iter()
            .filter_map(|end| text[start..].find(end))
            .min()
            .expect("cell ends with its verdict");
        text[start..start + len].to_owned()
    }

    #[test]
    fn pinned_serving_values_match_the_committed_artifacts() {
        for (file, cell, pinned) in [
            ("BENCH_soak.json", "chaos", SOAK_CHAOS),
            ("BENCH_fleet.json", "1024w", FLEET_1024W),
        ] {
            let text = committed_cell(file, cell);
            for (key, value) in pinned {
                let field = format!("\"{key}\": {value}");
                let hits = text.matches(&field).count();
                assert_eq!(hits, 1, "{file} {cell}: `{field}` found {hits} times");
            }
        }
    }

    #[test]
    fn a_perturbed_digest_or_count_is_rejected() {
        let mut replay = Replay::default();
        assert!(replay.admit(0xABCD, 7u64));
        assert!(replay.admit(0xABCD, 7));
        assert!(!replay.admit(0xABCD ^ 1, 7));
        assert!(!replay.admit(0xABCD, 8));
    }

    #[test]
    fn a_perturbed_pinned_value_is_rejected() {
        let mut observed: Vec<(&'static str, String)> =
            SOAK_CHAOS.iter().map(|&(k, v)| (k, v.to_owned())).collect();
        assert!(check_pinned(&observed, SOAK_CHAOS).is_empty());
        observed[0].1 = "1095148".to_owned();
        observed.pop();
        let errors = check_pinned(&observed, SOAK_CHAOS);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].starts_with("offered: 1095148"));
        assert!(errors[1].contains("missing"));
    }

    #[test]
    fn digest_sees_every_word_and_its_order() {
        let of = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.word(w));
            d.finish()
        };
        assert_ne!(of(&[1, 2]), of(&[2, 1]));
        assert_ne!(of(&[1, 2]), of(&[1, 2, 0]));
        let mut a = Digest::default();
        a.str("cnn");
        let mut b = Digest::default();
        b.str("cnn\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn every_kernel_run_is_pinned() {
        for b in Benchmark::ALL {
            for t in ["baseline", "m3", "m4"] {
                assert!(
                    FLAT.iter().any(|p| p.0 == b.name() && p.1 == t),
                    "{} {t}",
                    b.name()
                );
            }
            assert!(CLUSTER.iter().any(|p| p.0 == b.name()), "{}", b.name());
        }
    }
}
