//! Deterministic fault injection for the coupling link.
//!
//! A 10 mW deployment does not get a perfect channel: long flex cables,
//! marginal supply rails and clock-domain crossings produce bit errors,
//! dropped or truncated frames, and the accelerator itself can hang or
//! signal its end-of-computation event late. The [`FaultInjector`] models
//! all of these from one seeded [`XorShiftRng`] stream, so a given
//! `(seed, workload, policy)` triple replays the **exact same** fault
//! sequence — the property the resilience experiments and the acceptance
//! tests rely on.
//!
//! Two operating modes share the same random draws:
//!
//! * [`FaultInjector::transmit`] mutates real wire bytes (used by the
//!   frame-hardening tests and any future byte-accurate transport), and
//! * [`FaultInjector::assess`] draws the same outcome distribution for a
//!   frame of a given length without materializing bytes (used by the
//!   offload cost model, where data frames are accounting entities).
//!
//! With the default configuration every method is a no-op and the injector
//! reports [`inactive`](FaultConfig::is_active); the offload runtime skips
//! the resilience path entirely in that case, keeping the fault-free
//! figures bit-identical.

use ulp_rng::XorShiftRng;

use crate::crc::crc16;
use crate::GpioEvent;

/// Probability that a corruption slips past CRC-16 (2⁻¹⁶).
const CRC_ESCAPE_P: f64 = 1.0 / 65536.0;

/// Fault model of the link and event wires. All rates default to zero
/// (fault-free); [`FaultConfig::is_active`] reports whether any knob is
/// set.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultConfig {
    /// Seed of the injector's PRNG stream.
    pub seed: u64,
    /// Per-bit flip probability on the serial data lines.
    pub bit_error_rate: f64,
    /// Probability a whole frame is lost (chip-select glitch, DMA
    /// underrun). The receiver never answers; the sender times out.
    pub drop_rate: f64,
    /// Probability a frame is cut short mid-transfer.
    pub truncate_rate: f64,
    /// Probability one accelerator run hangs (no end-of-computation event
    /// ever fires).
    pub hang_rate: f64,
    /// Probability the end-of-computation event fires late.
    pub late_eoc_rate: f64,
    /// How late (accelerator cycles) a late event fires.
    pub late_eoc_cycles: u64,
    /// The fetch-enable wire is stuck: the accelerator never starts, so
    /// every run looks like a hang to the host.
    pub stuck_fetch_enable: bool,
    /// The end-of-computation wire is stuck low: the host never wakes from
    /// WFE, whatever the accelerator does.
    pub stuck_eoc: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            bit_error_rate: 0.0,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            hang_rate: 0.0,
            late_eoc_rate: 0.0,
            late_eoc_cycles: 0,
            stuck_fetch_enable: false,
            stuck_eoc: false,
        }
    }
}

impl FaultConfig {
    /// Whether any fault mechanism is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.bit_error_rate > 0.0
            || self.drop_rate > 0.0
            || self.truncate_rate > 0.0
            || self.hang_rate > 0.0
            || self.late_eoc_rate > 0.0
            || self.stuck_fetch_enable
            || self.stuck_eoc
    }
}

/// Per-fault-type event counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultStats {
    /// Frames passed through the injector.
    pub frames: u64,
    /// Individual bits flipped by the error process.
    pub bits_flipped: u64,
    /// Frames corrupted (≥ 1 bit flipped).
    pub frames_corrupted: u64,
    /// Frames dropped whole.
    pub frames_dropped: u64,
    /// Frames truncated mid-transfer.
    pub frames_truncated: u64,
    /// Corrupted frames whose CRC-16 accidentally still matched.
    pub crc_escapes: u64,
    /// Accelerator runs that hung (no end-of-computation event).
    pub hangs: u64,
    /// End-of-computation events that fired late.
    pub late_eocs: u64,
    /// Events swallowed by a stuck GPIO wire.
    pub stuck_wire_events: u64,
}

/// What happened to one transmitted frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxOutcome {
    /// The frame arrived intact.
    Delivered,
    /// Bits flipped in flight. `escaped` is true when the corruption slips
    /// past the CRC (probability 2⁻¹⁶) and the receiver accepts bad data.
    Corrupted {
        /// The CRC failed to detect the corruption.
        escaped: bool,
    },
    /// The frame was cut short; the receiver sees a truncation / CRC error.
    Truncated,
    /// The frame vanished entirely; the sender must time out.
    Dropped,
}

/// Outcome of one accelerator run's end-of-computation event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EocOutcome {
    /// The event fired when the computation finished.
    OnTime,
    /// The event fired the given number of accelerator cycles late.
    Late(u64),
    /// The event never fired: the host's watchdog is the only way out.
    Hang,
}

/// Seeded, deterministic injector of link and event-wire faults.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: XorShiftRng,
    stats: FaultStats,
    /// `ln(1 − bit_error_rate)`, the geometric gap sampler's divisor.
    ln_q: f64,
}

impl FaultInjector {
    /// Creates an injector for the given fault model.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            cfg,
            rng: XorShiftRng::seed_from_u64(cfg.seed),
            stats: FaultStats::default(),
            ln_q: (1.0 - cfg.bit_error_rate).ln(),
        }
    }

    /// The fault model.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether any fault mechanism is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// Accumulated per-fault-type counters.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Resets the counters **and** the PRNG stream, replaying the fault
    /// sequence from the seed.
    pub fn reset(&mut self) {
        self.stats = FaultStats::default();
        self.rng = XorShiftRng::seed_from_u64(self.cfg.seed);
    }

    /// Whether a GPIO event wire is stuck (its events never arrive).
    #[must_use]
    pub fn wire_stuck(&self, wire: GpioEvent) -> bool {
        match wire {
            GpioEvent::FetchEnable => self.cfg.stuck_fetch_enable,
            GpioEvent::EndOfComputation => self.cfg.stuck_eoc,
        }
    }

    /// Passes real wire bytes through the fault channel, mutating them in
    /// place. Returns what the receiver observes.
    pub fn transmit(&mut self, wire: &mut Vec<u8>) -> TxOutcome {
        self.stats.frames += 1;
        if self.cfg.drop_rate > 0.0 && self.rng.gen_bool(self.cfg.drop_rate) {
            self.stats.frames_dropped += 1;
            wire.clear();
            return TxOutcome::Dropped;
        }
        if self.cfg.truncate_rate > 0.0 && self.rng.gen_bool(self.cfg.truncate_rate) {
            self.stats.frames_truncated += 1;
            let keep = self.rng.gen_range(0..wire.len().max(1));
            wire.truncate(keep);
            return TxOutcome::Truncated;
        }
        let mut flips = Vec::new();
        self.for_each_bit_flip(wire.len() * 8, |bit| flips.push(bit));
        if flips.is_empty() {
            return TxOutcome::Delivered;
        }
        for bit in &flips {
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        self.stats.bits_flipped += flips.len() as u64;
        self.stats.frames_corrupted += 1;
        // A real receiver recomputes the CRC over whatever arrived; the
        // corruption escapes iff the stored CRC (possibly itself flipped)
        // still matches the recomputed one.
        let escaped = wire.len() >= 2 && {
            let (body, crc_bytes) = wire.split_at(wire.len() - 2);
            crc16(body) == u16::from_be_bytes([crc_bytes[0], crc_bytes[1]])
        };
        if escaped {
            self.stats.crc_escapes += 1;
        }
        TxOutcome::Corrupted { escaped }
    }

    /// Draws the fault outcome for a frame of `wire_bytes` length without
    /// materializing its bytes — the accounting twin of
    /// [`transmit`](Self::transmit), with the same outcome distribution.
    pub fn assess(&mut self, wire_bytes: usize) -> TxOutcome {
        self.stats.frames += 1;
        if self.cfg.drop_rate > 0.0 && self.rng.gen_bool(self.cfg.drop_rate) {
            self.stats.frames_dropped += 1;
            return TxOutcome::Dropped;
        }
        if self.cfg.truncate_rate > 0.0 && self.rng.gen_bool(self.cfg.truncate_rate) {
            self.stats.frames_truncated += 1;
            return TxOutcome::Truncated;
        }
        let mut flips = 0u64;
        self.for_each_bit_flip(wire_bytes * 8, |_| flips += 1);
        if flips == 0 {
            return TxOutcome::Delivered;
        }
        self.stats.bits_flipped += flips;
        self.stats.frames_corrupted += 1;
        let escaped = self.rng.gen_bool(CRC_ESCAPE_P);
        if escaped {
            self.stats.crc_escapes += 1;
        }
        TxOutcome::Corrupted { escaped }
    }

    /// Draws the event-wire outcome for one accelerator run.
    pub fn eoc(&mut self) -> EocOutcome {
        if self.cfg.stuck_eoc || self.cfg.stuck_fetch_enable {
            self.stats.stuck_wire_events += 1;
            return EocOutcome::Hang;
        }
        if self.cfg.hang_rate > 0.0 && self.rng.gen_bool(self.cfg.hang_rate) {
            self.stats.hangs += 1;
            return EocOutcome::Hang;
        }
        if self.cfg.late_eoc_rate > 0.0 && self.rng.gen_bool(self.cfg.late_eoc_rate) {
            self.stats.late_eocs += 1;
            return EocOutcome::Late(self.cfg.late_eoc_cycles);
        }
        EocOutcome::OnTime
    }

    /// Calls `flip` with each bit position flipped in an `n`-bit frame,
    /// in ascending order, via geometric gap sampling (O(flips), not
    /// O(bits)).
    fn for_each_bit_flip(&mut self, n_bits: usize, mut flip: impl FnMut(usize)) {
        let p = self.cfg.bit_error_rate;
        if p <= 0.0 || n_bits == 0 {
            return;
        }
        if p >= 1.0 {
            (0..n_bits).for_each(flip);
            return;
        }
        if self.ln_q == 0.0 {
            // p below f64 resolution: a flip effectively never fires.
            return;
        }
        let mut pos = 0.0f64;
        loop {
            // Geometric gap: number of surviving bits before the next flip.
            let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
            pos += (u.ln() / self.ln_q).floor();
            if pos >= n_bits as f64 {
                return;
            }
            flip(pos as usize);
            pos += 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Frame;

    fn cfg(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_config_is_inactive_and_transparent() {
        assert!(!FaultConfig::default().is_active());
        let mut inj = FaultInjector::new(FaultConfig::default());
        let frame = Frame::Write {
            addr: 0,
            data: vec![7; 64],
        };
        let mut wire = frame.to_wire();
        let orig = wire.clone();
        assert_eq!(inj.transmit(&mut wire), TxOutcome::Delivered);
        assert_eq!(wire, orig);
        assert_eq!(inj.assess(1024), TxOutcome::Delivered);
        assert_eq!(inj.eoc(), EocOutcome::OnTime);
        assert_eq!(inj.stats().bits_flipped, 0);
    }

    #[test]
    fn same_seed_replays_the_same_fault_sequence() {
        let c = FaultConfig {
            bit_error_rate: 1e-3,
            drop_rate: 0.05,
            truncate_rate: 0.05,
            hang_rate: 0.1,
            ..cfg(0xFA_017)
        };
        let run = || {
            let mut inj = FaultInjector::new(c);
            let outcomes: Vec<TxOutcome> = (0..200).map(|_| inj.assess(256)).collect();
            let eocs: Vec<EocOutcome> = (0..50).map(|_| inj.eoc()).collect();
            (outcomes, eocs, *inj.stats())
        };
        assert_eq!(run(), run());
    }

    /// `assess` must make the exact draws it always made: the outcome
    /// sequence, the counters, and the RNG position after 4000 frames
    /// are pinned per bit-error regime (sparse, rare, dense, certain).
    #[test]
    fn assess_draws_are_pinned() {
        let pinned = [
            (
                11,
                1e-3,
                96,
                [3026, 2078, 37, 57],
                0x507c_7878_8a08_06ff,
                0x2c6e_6d3a_e465_a984,
            ),
            (
                12,
                3e-5,
                1030,
                [965, 863, 42, 36],
                0xf78b_9a7c_7fbc_a7a1,
                0xa3b4_8acb_1958_f50d,
            ),
            (
                13,
                0.25,
                8,
                [86398, 3920, 47, 33],
                0x6003_c8dc_4cea_d3ef,
                0x3207_f821_3969_a43a,
            ),
            (
                14,
                1.0,
                3,
                [187_712, 3909, 53, 38],
                0xd7b0_f73b_948d_3619,
                0xc1e5_8c32_38b3_1a88,
            ),
        ];
        for (seed, ber, bytes, counts, outcomes, next) in pinned {
            let mut inj = FaultInjector::new(FaultConfig {
                bit_error_rate: ber,
                drop_rate: 0.01,
                truncate_rate: 0.01,
                ..cfg(seed)
            });
            let mut h = 0u64;
            for i in 0..4000usize {
                let k = match inj.assess(bytes + i % 7) {
                    TxOutcome::Delivered => 0,
                    TxOutcome::Corrupted { escaped: false } => 1,
                    TxOutcome::Corrupted { escaped: true } => 2,
                    TxOutcome::Truncated => 3,
                    TxOutcome::Dropped => 4,
                };
                h = h.wrapping_mul(31).wrapping_add(k);
            }
            let s = *inj.stats();
            assert_eq!(
                [
                    s.bits_flipped,
                    s.frames_corrupted,
                    s.frames_dropped,
                    s.frames_truncated
                ],
                counts,
                "seed {seed}"
            );
            assert_eq!(h, outcomes, "seed {seed}: outcome sequence moved");
            assert_eq!(inj.rng.next_u64(), next, "seed {seed}: draw count moved");
        }
    }

    #[test]
    fn reset_replays_from_the_seed() {
        let c = FaultConfig {
            bit_error_rate: 1e-2,
            ..cfg(9)
        };
        let mut inj = FaultInjector::new(c);
        let first: Vec<TxOutcome> = (0..64).map(|_| inj.assess(128)).collect();
        inj.reset();
        let second: Vec<TxOutcome> = (0..64).map(|_| inj.assess(128)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn bit_error_rate_tracks_expectation() {
        let c = FaultConfig {
            bit_error_rate: 1e-3,
            ..cfg(3)
        };
        let mut inj = FaultInjector::new(c);
        let frames = 2000usize;
        let bytes = 128usize;
        for _ in 0..frames {
            let _ = inj.assess(bytes);
        }
        let expect = frames as f64 * bytes as f64 * 8.0 * 1e-3;
        let got = inj.stats().bits_flipped as f64;
        assert!((got - expect).abs() / expect < 0.15, "{got} vs {expect}");
    }

    #[test]
    fn corruption_is_detected_by_the_frame_parser() {
        let c = FaultConfig {
            bit_error_rate: 5e-3,
            ..cfg(77)
        };
        let mut inj = FaultInjector::new(c);
        let frame = Frame::Write {
            addr: 0x20,
            data: vec![0x5A; 256],
        };
        let mut corrupted = 0;
        for _ in 0..200 {
            let mut wire = frame.to_wire();
            match inj.transmit(&mut wire) {
                TxOutcome::Corrupted { escaped: false } => {
                    corrupted += 1;
                    assert_eq!(Frame::from_wire(&wire), Err(crate::FrameError::BadChecksum));
                }
                TxOutcome::Delivered => {
                    assert_eq!(Frame::from_wire(&wire).unwrap(), frame);
                }
                _ => {}
            }
        }
        assert!(corrupted > 50, "only {corrupted} corrupted frames in 200");
        assert_eq!(inj.stats().frames, 200);
    }

    #[test]
    fn dropped_and_truncated_frames_counted() {
        // Every non-dropped frame is truncated: the two counters partition
        // the total.
        let c = FaultConfig {
            drop_rate: 0.5,
            truncate_rate: 1.0,
            ..cfg(11)
        };
        let mut inj = FaultInjector::new(c);
        for _ in 0..100 {
            let mut wire = Frame::Ack { seq: 1 }.to_wire();
            let _ = inj.transmit(&mut wire);
        }
        let s = inj.stats();
        assert_eq!(s.frames, 100);
        assert_eq!(s.frames_dropped + s.frames_truncated, 100);
        assert!(s.frames_dropped > 20 && s.frames_truncated > 10);
    }

    #[test]
    fn stuck_wires_always_hang() {
        let mut inj = FaultInjector::new(FaultConfig {
            stuck_eoc: true,
            ..cfg(0)
        });
        for _ in 0..10 {
            assert_eq!(inj.eoc(), EocOutcome::Hang);
        }
        assert_eq!(inj.stats().stuck_wire_events, 10);
        assert!(inj.wire_stuck(GpioEvent::EndOfComputation));
        assert!(!inj.wire_stuck(GpioEvent::FetchEnable));

        let mut inj = FaultInjector::new(FaultConfig {
            stuck_fetch_enable: true,
            ..cfg(0)
        });
        assert_eq!(inj.eoc(), EocOutcome::Hang);
        assert!(inj.wire_stuck(GpioEvent::FetchEnable));
    }

    #[test]
    fn late_eoc_reports_the_configured_delay() {
        let c = FaultConfig {
            late_eoc_rate: 1.0,
            late_eoc_cycles: 4096,
            ..cfg(5)
        };
        let mut inj = FaultInjector::new(c);
        assert_eq!(inj.eoc(), EocOutcome::Late(4096));
        assert_eq!(inj.stats().late_eocs, 1);
    }
}
