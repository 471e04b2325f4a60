//! Execution-based workload replay — the cross-check for the Figure 2
//! model.
//!
//! The analytical model in [`crate::apps`] prices each virtualization
//! event from the microbenchmark matrix. Replay instead *runs* a mixed
//! transaction loop (computation + hypercalls + device reads) through
//! the full simulated stack and measures end-to-end cycles, which
//! catches anything the per-event pricing would miss (per-transition
//! state interactions, warm-up effects, TLB behaviour).
//!
//! `replay_vs_model` returns both numbers so tests can assert the model
//! is faithful for the event mixes Figure 2 is built from.

use crate::platforms::{arm_config, Config, MicroMatrix};
use neve_kvmarm::{ArmConfig, MicroBench, TestBed};

/// A replayed transaction mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Computation per transaction (cycles).
    pub work: u16,
    /// Hypercalls per transaction.
    pub hcs: u8,
    /// Device reads per transaction.
    pub ios: u8,
}

/// Outcome of one replay: measured overhead and the analytical
/// prediction for the same mix.
#[derive(Debug, Clone, Copy)]
pub struct ReplayResult {
    /// End-to-end measured overhead (virtualized cycles per transaction
    /// over event-free cycles per transaction).
    pub measured: f64,
    /// The [`crate::apps`]-style prediction from per-event costs.
    pub predicted: f64,
}

fn run_mix(cfg: ArmConfig, mix: Mix, iters: u64) -> u64 {
    let bench = MicroBench::Mixed {
        work: mix.work,
        hcs: mix.hcs,
        ios: mix.ios,
    };
    let mut tb = TestBed::new(cfg, bench, iters);
    tb.run(iters).cycles
}

/// Replays `mix` on `cfg` and compares against the analytical model.
///
/// The event-free baseline runs the *same* transaction loop with the
/// events stripped, on the same configuration — so loop overhead and
/// the guest-side instruction costs cancel, exactly as "native" cancels
/// in the paper's normalized figure.
pub fn replay_vs_model(cfg: Config, mix: Mix, m: &MicroMatrix) -> ReplayResult {
    let iters = 20;
    let ac = arm_config(cfg).expect("replay covers the ARM configurations");
    let with_events = run_mix(ac, mix, iters);
    let baseline = run_mix(
        ac,
        Mix {
            work: mix.work,
            hcs: 0,
            ios: 0,
        },
        iters,
    );
    let measured = with_events as f64 / baseline as f64;

    let costs = m.costs(cfg);
    let predicted = 1.0
        + (mix.hcs as f64 * costs.hypercall.cycles as f64
            + mix.ios as f64 * costs.device_io.cycles as f64)
            / baseline as f64;
    ReplayResult {
        measured,
        predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn matrix() -> &'static MicroMatrix {
        static M: OnceLock<MicroMatrix> = OnceLock::new();
        M.get_or_init(MicroMatrix::measure)
    }

    /// The analytical model must agree with end-to-end execution within
    /// a few percent across architectures and event densities — the
    /// validity condition for regenerating Figure 2 from per-event
    /// costs.
    #[test]
    fn model_matches_execution_across_configs() {
        let mix = Mix {
            work: 20_000,
            hcs: 2,
            ios: 1,
        };
        for cfg in [
            Config::ArmVm,
            Config::ArmNestedV83,
            Config::ArmNestedNeve,
            Config::ArmNestedNeveVhe,
        ] {
            let r = replay_vs_model(cfg, mix, matrix());
            let err = (r.measured - r.predicted).abs() / r.measured;
            assert!(
                err < 0.05,
                "{cfg:?}: measured {:.3} vs predicted {:.3} ({:.1}% off)",
                r.measured,
                r.predicted,
                err * 100.0
            );
        }
    }

    #[test]
    fn denser_event_mixes_scale_linearly() {
        let m = matrix();
        let sparse = replay_vs_model(
            Config::ArmNestedNeve,
            Mix {
                work: 30_000,
                hcs: 1,
                ios: 0,
            },
            m,
        );
        let dense = replay_vs_model(
            Config::ArmNestedNeve,
            Mix {
                work: 30_000,
                hcs: 4,
                ios: 0,
            },
            m,
        );
        // 4x the events => ~4x the added overhead.
        let ratio = (dense.measured - 1.0) / (sparse.measured - 1.0);
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cpu_heavy_mix_has_tiny_overhead_even_nested() {
        // The kernbench/SPECjvm story, executed: plenty of computation
        // between events keeps even ARMv8.3 nesting tolerable.
        let r = replay_vs_model(
            Config::ArmNestedV83,
            Mix {
                work: 60_000,
                hcs: 0,
                ios: 1,
            },
            matrix(),
        );
        assert!(r.measured < 12.0, "{}", r.measured);
        let r2 = replay_vs_model(
            Config::ArmNestedNeve,
            Mix {
                work: 60_000,
                hcs: 0,
                ios: 1,
            },
            matrix(),
        );
        assert!(r2.measured < 3.0, "{}", r2.measured);
    }
}
