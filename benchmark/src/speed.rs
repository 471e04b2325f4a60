//! Host-speed reference. On the shared 2-core dev host the clock speed
//! drifts by up to ~30% over minutes, and everything slows together: a
//! cold grid and a fixed memory-bound kernel kept a ratio within 0.4%
//! (quartile spread over 15 minutes) while each alone spread 20%. So
//! the benchmark times that kernel between ops and reports end-to-end
//! times at the kernel's nominal speed: raw time x `NOMINAL_MS` / the
//! kernel's local median. The kernel is benchmark code, which a change
//! claiming a gain may not edit, so it runs the same on both commits.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the dev host when quiet, ms.
pub const NOMINAL_MS: f64 = 0.259;

/// Table words: 256 KiB, about the simulator's hot working set.
const TABLE: usize = 1 << 15;

/// Random read-modify-writes per kernel run.
const ITERS: u64 = 31_000;

/// Samples around an instant whose median gives the local speed.
const WINDOW: usize = 9;

/// Reference-kernel samples of one process, in time order.
pub struct Speed {
    epoch: Instant,
    table: Vec<u64>,
    /// (ns since `epoch`, kernel ms).
    samples: Vec<(u64, f64)>,
}

impl Speed {
    /// No samples yet.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            table: vec![0; TABLE],
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and keeps its time. The table is read once
    /// first, so what the last op left in the caches does not count.
    pub fn sample(&mut self) {
        black_box(self.table.iter().fold(0u64, |a, &w| a ^ w));
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let mut x: u64 = 7;
        for _ in 0..black_box(ITERS) {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let k = (x >> 33) as usize & mask;
            self.table[k] = self.table[k].wrapping_add(x);
            x ^= self.table[(k * 7) & mask];
        }
        black_box(x);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.push(self.ns(t), ms);
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, at_ns: u64, ms: f64) {
        self.samples.push((at_ns, ms));
    }

    /// Median kernel time over every sample, ms (0 with none).
    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        crate::stats::median(&ms)
    }

    /// Multiplier taking a raw time measured at `at` to nominal host
    /// speed: `NOMINAL_MS` over the median of the `WINDOW` samples
    /// nearest `at` (1 with no samples).
    pub fn factor_at(&self, at: Instant) -> f64 {
        self.factor_at_ns(self.ns(at))
    }

    fn factor_at_ns(&self, at_ns: u64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 1.0;
        }
        let pos = self.samples.partition_point(|s| s.0 < at_ns);
        let lo = pos.saturating_sub(WINDOW / 2).min(n.saturating_sub(WINDOW));
        let hi = (lo + WINDOW).min(n);
        let ms: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        NOMINAL_MS / crate::stats::median(&ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_follows_the_samples_nearest_in_time() {
        let mut s = Speed::new();
        assert_eq!(s.factor_at_ns(5), 1.0);
        // A quiet first second, then a host twice as slow.
        for i in 0..20 {
            s.push(i * 50_000_000, NOMINAL_MS);
        }
        for i in 20..40 {
            s.push(i * 50_000_000, 2.0 * NOMINAL_MS);
        }
        assert_eq!(s.factor_at_ns(100_000_000), 1.0);
        assert_eq!(s.factor_at_ns(1_800_000_000), 0.5);
        assert_eq!(s.factor_at_ns(u64::MAX), 0.5);
        // One interrupted sample does not move the local median.
        s.push(2_000_000_001, 50.0 * NOMINAL_MS);
        assert_eq!(s.factor_at_ns(2_000_000_000), 0.5);
    }

    #[test]
    fn the_kernel_is_timed() {
        let mut s = Speed::new();
        s.sample();
        s.sample();
        assert!(s.median_ms() > 0.0);
        assert!(s.factor_at(Instant::now()) > 0.0);
    }
}
