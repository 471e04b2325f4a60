//! Criterion benches over the ARM microbenchmark configurations.
//!
//! Criterion measures the *simulator's* wall-clock time per simulated
//! microbenchmark run; the simulated cycle counts themselves are printed
//! by `neve tables`. Keeping both matters: wall-time regressions here
//! mean the simulator got slower, not that NEVE changed.

use criterion::{criterion_group, criterion_main, Criterion};
use neve_kvmarm::{ArmConfig, MicroBench, ParaMode, TestBed};

fn configs() -> Vec<(&'static str, ArmConfig)> {
    vec![
        ("vm", ArmConfig::Vm),
        (
            "nested_v83",
            ArmConfig::Nested {
                guest_vhe: false,
                neve: false,
                para: ParaMode::None,
            },
        ),
        (
            "nested_v83_vhe",
            ArmConfig::Nested {
                guest_vhe: true,
                neve: false,
                para: ParaMode::None,
            },
        ),
        (
            "nested_neve",
            ArmConfig::Nested {
                guest_vhe: false,
                neve: true,
                para: ParaMode::None,
            },
        ),
        (
            "nested_neve_vhe",
            ArmConfig::Nested {
                guest_vhe: true,
                neve: true,
                para: ParaMode::None,
            },
        ),
    ]
}

fn bench_hypercall(c: &mut Criterion) {
    let mut g = c.benchmark_group("arm_hypercall");
    g.sample_size(10);
    for (name, cfg) in configs() {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut tb = TestBed::new(cfg, MicroBench::Hypercall, 10);
                std::hint::black_box(tb.run(10))
            })
        });
    }
    g.finish();
}

fn bench_device_io(c: &mut Criterion) {
    let mut g = c.benchmark_group("arm_device_io");
    g.sample_size(10);
    for (name, cfg) in [configs()[0], configs()[3]] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut tb = TestBed::new(cfg, MicroBench::DeviceIo, 10);
                std::hint::black_box(tb.run(10))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_hypercall, bench_device_io);
criterion_main!(benches);
