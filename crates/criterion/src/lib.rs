//! A self-contained, dependency-free drop-in for the subset of the
//! `criterion` API this workspace's benches use.
//!
//! The workspace builds in hermetic environments without crates.io
//! access, so the real criterion cannot be vendored. This shim keeps
//! `cargo bench` working with the same bench sources: it warms each
//! benchmark up, runs a fixed number of timed samples, and prints
//! median / min / max wall-clock times per iteration. There are no
//! statistics beyond that and no HTML reports — regressions are read
//! off the printed medians.

use std::time::{Duration, Instant};

/// Re-export mirroring `criterion::black_box` (benches in this
/// workspace use `std::hint::black_box` directly, but the name is part
/// of the criterion prelude).
pub use std::hint::black_box;

/// The benchmark driver handed to `criterion_group!` functions.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

/// Runs one benchmark body repeatedly (see [`Bencher::iter`]).
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `body`, collecting one sample per run after a warm-up run.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        black_box(body()); // warm-up (first-touch allocation, caches)
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(body());
            self.samples.push(t0.elapsed());
        }
    }
}

fn summarize(samples: &[Duration]) -> Summary {
    if samples.is_empty() {
        return Summary {
            median: Duration::ZERO,
            min: Duration::ZERO,
            max: Duration::ZERO,
            samples: 0,
        };
    }
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort();
    Summary {
        median: sorted[sorted.len() / 2],
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        samples: sorted.len(),
    }
}

fn report(label: &str, samples: &mut [Duration]) {
    if samples.is_empty() {
        println!("{label:<40} no samples");
        return;
    }
    samples.sort();
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let max = samples[samples.len() - 1];
    println!(
        "{label:<40} median {:>12?}   min {:>12?}   max {:>12?}   ({} samples)",
        median,
        min,
        max,
        samples.len()
    );
}

/// Summary statistics for one benchmark, for programmatic consumers
/// (`neve bench-sim` writes these to JSON). The real
/// criterion exposes estimates through its output files; this shim
/// returns them directly from [`Criterion::measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Median wall-clock time per sample.
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Number of timed samples (warm-up excluded).
    pub samples: usize,
}

impl Criterion {
    /// Overrides the number of timed samples per benchmark (mirrors
    /// `criterion::Criterion::sample_size`).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.measure(name, f);
        self
    }

    /// Like [`Criterion::bench_function`] but also returns the sample
    /// [`Summary`] so harnesses can persist machine-readable results.
    pub fn measure<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> Summary {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        report(name, &mut b.samples);
        summarize(&b.samples)
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}:");
        BenchmarkGroup {
            parent: self,
            sample_size: None,
        }
    }
}

/// A group of related benchmarks sharing a sample-size override.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs a named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size.unwrap_or(self.parent.sample_size),
        };
        f(&mut b);
        report(&format!("  {name}"), &mut b.samples);
        self
    }

    /// Ends the group (printing is immediate; nothing buffered).
    pub fn finish(&mut self) {}
}

/// Declares a group of benchmark functions (`fn(&mut Criterion)`).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($f:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($f(&mut c);)+
        }
    };
}

/// Declares the bench entry point from one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags like `--bench`; a plain
            // main ignores them.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default();
        let mut runs = 0u32;
        c.bench_function("noop", |b| b.iter(|| runs += 1));
        // warm-up + sample_size runs
        assert_eq!(runs, 21);
    }

    #[test]
    fn group_sample_size_is_respected() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        let mut runs = 0u32;
        g.bench_function("noop", |b| b.iter(|| runs += 1));
        g.finish();
        assert_eq!(runs, 4);
    }

    #[test]
    fn measure_returns_a_summary() {
        let mut c = Criterion::default();
        c.sample_size(5);
        let s = c.measure("noop", |b| b.iter(|| black_box(2 + 2)));
        assert_eq!(s.samples, 5);
        assert!(s.min <= s.median && s.median <= s.max);
    }

    criterion_group!(demo_group, demo_bench);
    fn demo_bench(c: &mut Criterion) {
        c.bench_function("demo", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn group_macro_expands_to_a_runnable_fn() {
        demo_group();
    }
}
