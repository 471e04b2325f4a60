//! The session layer: one [`SimSession`] owns the full lifecycle of a
//! single (configuration, microbenchmark) evaluation cell — build the
//! testbed, run warm-up plus measured iterations, and report per-op
//! costs together with the trap breakdown (Table 7's observability
//! data).
//!
//! Sessions are self-contained owned values: every simulated machine
//! owns its memory, cores and cycle counter outright, so a session is
//! `Send` and the evaluation matrix can build sessions on one thread
//! and move them into scoped worker threads. Each cell's result depends
//! only on its own deterministic simulation, so a parallel evaluation
//! is bit-identical to a serial one.

use crate::platforms::{Config, PerOpSer};
use neve_armv8::{Engine, FaultPlan};
use neve_cycles::counter::Measured;
use neve_cycles::SimFault;
use neve_kvmarm::{MicroBench, TestBed};
use neve_x86vt::testbed::{X86Bench, X86TestBed};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Renders a `catch_unwind` panic payload as text. `panic!` with a
/// literal yields `&str`, with a format string yields `String`;
/// anything else (a `panic_any` value) is opaque. Shared by every
/// containment site in this crate (the worker pool, sessions, serve's
/// cells) so a panic always surfaces its message in the structured
/// error instead of re-raising.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A microbenchmark, platform-neutral (one row of Tables 1/6/7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bench {
    /// VM -> hypervisor -> VM round trip.
    Hypercall,
    /// Emulated-device read.
    DeviceIo,
    /// Cross-vCPU virtual IPI.
    VirtualIpi,
    /// Trap-free virtual interrupt completion.
    VirtualEoi,
}

impl Bench {
    /// All benchmarks, table row order.
    pub fn all() -> [Bench; 4] {
        [
            Bench::Hypercall,
            Bench::DeviceIo,
            Bench::VirtualIpi,
            Bench::VirtualEoi,
        ]
    }

    /// Measured iterations (the simulator is deterministic, so small
    /// counts give exact steady-state averages; the IPI pair is the
    /// slowest cell and gets fewer).
    pub fn iters(self) -> u64 {
        match self {
            Bench::VirtualIpi => IPI_ITERS,
            _ => ITERS,
        }
    }

    /// Stable machine-readable label (CLI operands, JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            Bench::Hypercall => "hypercall",
            Bench::DeviceIo => "device_io",
            Bench::VirtualIpi => "virtual_ipi",
            Bench::VirtualEoi => "virtual_eoi",
        }
    }

    /// The inverse of [`Bench::label`].
    pub fn from_label(label: &str) -> Option<Bench> {
        Bench::all().into_iter().find(|b| b.label() == label)
    }

    pub(crate) fn arm(self) -> MicroBench {
        match self {
            Bench::Hypercall => MicroBench::Hypercall,
            Bench::DeviceIo => MicroBench::DeviceIo,
            Bench::VirtualIpi => MicroBench::VirtualIpi,
            Bench::VirtualEoi => MicroBench::VirtualEoi,
        }
    }

    pub(crate) fn x86(self) -> X86Bench {
        match self {
            Bench::Hypercall => X86Bench::Hypercall,
            Bench::DeviceIo => X86Bench::DeviceIo,
            Bench::VirtualIpi => X86Bench::VirtualIpi,
            Bench::VirtualEoi => X86Bench::VirtualEoi,
        }
    }
}

const ITERS: u64 = 24;
const IPI_ITERS: u64 = 10;

/// The platform-specific half of a session.
enum Bed {
    Arm(Box<TestBed>),
    X86(Box<X86TestBed>),
}

/// One evaluation cell's full lifecycle: testbed construction through
/// trap-stats report. Owned and `Send`; built on any thread, runnable
/// on any other.
pub struct SimSession {
    config: Config,
    bench: Bench,
    iters: u64,
    bed: Bed,
}

/// What one session measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMeasurement {
    /// The configuration the cell ran on.
    pub config: Config,
    /// The microbenchmark it ran.
    pub bench: Bench,
    /// Per-operation averages.
    pub per_op: PerOpSer,
    /// Traps by reason over the measured region (keys are the stable
    /// `TrapKind` debug names; absolute counts, not per-op).
    pub traps_by_kind: BTreeMap<String, u64>,
    /// Cycles by world-switch phase over the measured region (keys are
    /// [`Phase::label`](neve_cycles::Phase::label) names; absolute).
    pub cycles_by_phase: BTreeMap<String, u64>,
    /// Traps by the phase they interrupted (absolute counts; together
    /// with `traps_by_kind` this is the cell's full provenance).
    pub traps_by_phase: BTreeMap<String, u64>,
}

/// One evaluation cell's outcome: a clean measurement, or a contained
/// fault. A faulted cell never poisons its matrix — the other cells
/// measure normally and the failure is carried alongside the partial
/// results.
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// The cell ran to completion and measured cleanly.
    Ok(CellMeasurement),
    /// The cell crashed, stalled past its step budget, or panicked; the
    /// fault carries the diagnostic snapshot.
    Failed {
        /// The configuration the cell ran on.
        config: Config,
        /// The microbenchmark it ran.
        bench: Bench,
        /// What went wrong, with pc/EL/phase/trace context.
        fault: SimFault,
    },
}

impl CellResult {
    /// The cell's configuration, measured or not.
    pub fn config(&self) -> Config {
        match self {
            CellResult::Ok(m) => m.config,
            CellResult::Failed { config, .. } => *config,
        }
    }

    /// The cell's benchmark, measured or not.
    pub fn bench(&self) -> Bench {
        match self {
            CellResult::Ok(m) => m.bench,
            CellResult::Failed { bench, .. } => *bench,
        }
    }

    /// The measurement, if the cell completed cleanly.
    pub fn measurement(&self) -> Option<&CellMeasurement> {
        match self {
            CellResult::Ok(m) => Some(m),
            CellResult::Failed { .. } => None,
        }
    }

    /// The fault, if the cell failed.
    pub fn fault(&self) -> Option<&SimFault> {
        match self {
            CellResult::Ok(_) => None,
            CellResult::Failed { fault, .. } => Some(fault),
        }
    }

    /// Unwraps the measurement.
    ///
    /// # Panics
    ///
    /// Panics (with the fault's description) if the cell failed.
    pub fn expect_measured(self) -> CellMeasurement {
        match self {
            CellResult::Ok(m) => m,
            CellResult::Failed { fault, .. } => panic!("cell failed: {fault}"),
        }
    }
}

impl SimSession {
    /// Builds the full stack for one (configuration, benchmark) cell.
    /// Construction is cheap relative to measurement; the warm-up runs
    /// as part of [`SimSession::run`].
    pub fn new(config: Config, bench: Bench) -> Self {
        let iters = bench.iters();
        let bed = match crate::platforms::arm_config(config) {
            Some(ac) => Bed::Arm(Box::new(TestBed::new(ac, bench.arm(), iters))),
            None => Bed::X86(Box::new(X86TestBed::new(
                crate::platforms::x86_config(config),
                bench.x86(),
                iters,
            ))),
        };
        Self {
            config,
            bench,
            iters,
            bed,
        }
    }

    /// The cell's configuration.
    pub fn config(&self) -> Config {
        self.config
    }

    /// The cell's benchmark.
    pub fn bench(&self) -> Bench {
        self.bench
    }

    /// Attaches an execution trace to the simulated machine (ARM beds
    /// only; a no-op on x86, which has no trace ring). Pure
    /// observability: a traced session measures bit-identically to an
    /// untraced one — the determinism suite asserts this.
    pub fn attach_trace(&mut self, capacity: usize) {
        if let Bed::Arm(tb) = &mut self.bed {
            tb.m.attach_trace(capacity);
        }
    }

    /// Attaches a deterministic fault-injection plan (ARM beds only;
    /// the x86 side has no injection points and ignores the plan).
    pub fn attach_fault_plan(&mut self, plan: &FaultPlan) {
        if let Bed::Arm(tb) = &mut self.bed {
            tb.attach_fault_plan(plan.clone());
        }
    }

    /// Selects the execution engine (ARM beds only; the x86 testbed has
    /// a single interpreter and ignores the choice). Both engines are
    /// proven step- and cycle-identical, so this never changes what a
    /// cell measures — only how fast the host simulates it.
    pub fn set_engine(&mut self, engine: Engine) {
        if let Bed::Arm(tb) = &mut self.bed {
            tb.m.set_engine(engine);
        }
    }

    /// Overrides the run-loop step budget on either platform.
    pub fn set_step_budget(&mut self, budget: u64) {
        match &mut self.bed {
            Bed::Arm(tb) => {
                tb.set_step_budget(budget);
            }
            Bed::X86(tb) => {
                tb.set_step_budget(budget);
            }
        }
    }

    /// Runs warm-up plus measured iterations and reports the outcome.
    /// Consumes the session: the testbed's end state is not reusable
    /// for another measurement.
    ///
    /// Never panics and never hangs (the run loops are under a step
    /// budget): a crash, stall, or stray panic in the simulation stack
    /// becomes [`CellResult::Failed`] so a single bad cell cannot
    /// poison a parallel matrix measure.
    pub fn run(mut self) -> CellResult {
        let config = self.config;
        let bench = self.bench;
        let iters = self.iters;
        let outcome = catch_unwind(AssertUnwindSafe(move || match &mut self.bed {
            Bed::Arm(tb) => tb.try_run_measured(iters),
            Bed::X86(tb) => tb.try_run_measured(iters),
        }));
        let measured = match outcome {
            Ok(Ok(m)) => m,
            Ok(Err(fault)) => {
                return CellResult::Failed {
                    config,
                    bench,
                    fault,
                }
            }
            Err(payload) => {
                return CellResult::Failed {
                    config,
                    bench,
                    fault: SimFault::from_panic(panic_message(payload.as_ref())),
                };
            }
        };
        let Measured {
            per_op,
            traps_by_kind,
            cycles_by_phase,
            traps_by_phase,
        } = measured;
        CellResult::Ok(CellMeasurement {
            config,
            bench,
            per_op: per_op.into(),
            traps_by_kind: traps_by_kind
                .into_iter()
                .map(|(k, v)| (format!("{k:?}"), v))
                .collect(),
            cycles_by_phase: cycles_by_phase
                .into_iter()
                .map(|(p, v)| (p.label().to_string(), v))
                .collect(),
            traps_by_phase: traps_by_phase
                .into_iter()
                .map(|(p, v)| (p.label().to_string(), v))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole's static guarantee: whole machines and testbeds can
    /// move across threads. These are compile-time assertions — if any
    /// component regresses to a non-`Send` sharing scheme (`Rc`,
    /// raw pointers), this test stops compiling.
    #[test]
    fn simulation_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<neve_armv8::machine::Machine>();
        assert_send::<neve_kvmarm::TestBed>();
        assert_send::<neve_x86vt::testbed::X86TestBed>();
        assert_send::<SimSession>();
        assert_send::<CellMeasurement>();
        assert_send::<CellResult>();
        assert_send::<crate::platforms::MicroMatrix>();
    }

    #[test]
    fn a_session_runs_one_cell() {
        let r = SimSession::new(Config::ArmVm, Bench::Hypercall)
            .run()
            .expect_measured();
        assert_eq!(r.config, Config::ArmVm);
        assert_eq!(r.bench, Bench::Hypercall);
        assert!(r.per_op.cycles > 0);
        // A single-level hypercall traps exactly once per iteration.
        assert!((r.per_op.traps - 1.0).abs() < 1e-9);
        let total: u64 = r.traps_by_kind.values().sum();
        assert!(total >= ITERS, "breakdown covers the measured region");
        assert!(r.traps_by_kind.contains_key("Hvc"), "{:?}", r.traps_by_kind);
    }

    #[test]
    fn sessions_move_across_threads() {
        // Build on the main thread, run on a worker — the pattern
        // measure_parallel relies on, exercised directly.
        let s = SimSession::new(Config::X86Vm, Bench::DeviceIo);
        let r = std::thread::scope(|scope| scope.spawn(move || s.run()).join().unwrap());
        assert!(r.expect_measured().per_op.cycles > 0);
    }

    #[test]
    fn nested_cells_attribute_cycles_and_traps_to_phases() {
        let r = SimSession::new(Config::ArmNestedV83, Bench::Hypercall)
            .run()
            .expect_measured();
        // The nested hypercall round trip exercises the world switch:
        // the eret emulation and EL1 context moves must show up.
        for phase in ["eret_emul", "el1_save", "el1_restore", "gic_switch"] {
            assert!(
                r.cycles_by_phase.get(phase).copied().unwrap_or(0) > 0,
                "no cycles in {phase}: {:?}",
                r.cycles_by_phase
            );
        }
        // Phase attribution partitions the same trap population the
        // per-kind map counts.
        let by_kind: u64 = r.traps_by_kind.values().sum();
        let by_phase: u64 = r.traps_by_phase.values().sum();
        assert_eq!(by_kind, by_phase);
    }

    #[test]
    fn tracing_does_not_change_a_cell() {
        // The tentpole's hard invariant at session granularity.
        let plain = SimSession::new(Config::ArmNestedNeve, Bench::Hypercall)
            .run()
            .expect_measured();
        let mut traced = SimSession::new(Config::ArmNestedNeve, Bench::Hypercall);
        traced.attach_trace(128);
        assert_eq!(traced.run().expect_measured(), plain);
    }

    #[test]
    fn eoi_cells_report_zero_traps() {
        // Virtual EOI is the trap-free row of Table 7 on both platforms.
        for config in [Config::ArmVm, Config::X86Vm] {
            let r = SimSession::new(config, Bench::VirtualEoi)
                .run()
                .expect_measured();
            assert_eq!(r.per_op.traps, 0.0, "{config:?}");
            assert!(r.traps_by_kind.is_empty(), "{config:?}");
        }
    }

    #[test]
    fn a_tiny_step_budget_fails_the_cell_instead_of_hanging() {
        let mut s = SimSession::new(Config::ArmNestedV83, Bench::Hypercall);
        s.set_step_budget(100);
        match s.run() {
            CellResult::Failed { config, fault, .. } => {
                assert_eq!(config, Config::ArmNestedV83);
                assert!(
                    matches!(
                        fault.cause,
                        neve_cycles::FaultCause::StepBudgetExhausted { budget: 100 }
                    ),
                    "{fault}"
                );
            }
            CellResult::Ok(_) => panic!("100 steps cannot complete a nested hypercall cell"),
        }
    }

    #[test]
    fn an_injected_fault_is_contained_in_the_cell_result() {
        // The chaos plan fires every fault kind early in the run; the
        // cell must end in a structured result either way — and the
        // same seed must reproduce the same outcome bit-for-bit.
        let run_once = || {
            let mut s = SimSession::new(Config::ArmNestedV83, Bench::Hypercall);
            s.attach_fault_plan(&FaultPlan::builtin("chaos", 7).unwrap());
            s.set_step_budget(2_000_000);
            s.run()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "fault injection must replay bit-identically");
    }

    /// The simulated schedule, pinned per cell: the machine steps every
    /// grid cell retires (warm-up and receiver bursts included) and its
    /// final simulated cycle count. Any change to how a run loop
    /// interleaves, parks or stops cores moves at least one row.
    #[test]
    fn every_grid_cell_retires_its_pinned_steps_and_cycles() {
        #[rustfmt::skip]
        const PINS: [(Config, Bench, u64, u64); 28] = [
            (Config::ArmVm, Bench::Hypercall, 98, 83841),
            (Config::ArmVm, Bench::DeviceIo, 99, 105250),
            (Config::ArmVm, Bench::VirtualIpi, 1000, 115129),
            (Config::ArmVm, Bench::VirtualEoi, 162, 80129),
            (Config::ArmNestedV83, Bench::Hypercall, 9306, 11713780),
            (Config::ArmNestedV83, Bench::DeviceIo, 9467, 11730133),
            (Config::ArmNestedV83, Bench::VirtualIpi, 27530, 13409162),
            (Config::ArmNestedV83, Bench::VirtualEoi, 282, 231124),
            (Config::ArmNestedV83Vhe, Bench::Hypercall, 6874, 7965296),
            (Config::ArmNestedV83Vhe, Bench::DeviceIo, 7035, 7981649),
            (Config::ArmNestedV83Vhe, Bench::VirtualIpi, 20620, 9144904),
            (Config::ArmNestedV83Vhe, Bench::VirtualEoi, 250, 181904),
            (Config::ArmNestedNeve, Bench::Hypercall, 9306, 1984547),
            (Config::ArmNestedNeve, Bench::DeviceIo, 9467, 2000900),
            (Config::ArmNestedNeve, Bench::VirtualIpi, 27530, 2419698),
            (Config::ArmNestedNeve, Bench::VirtualEoi, 282, 113539),
            (Config::ArmNestedNeveVhe, Bench::Hypercall, 6874, 1945775),
            (Config::ArmNestedNeveVhe, Bench::DeviceIo, 7035, 1962128),
            (Config::ArmNestedNeveVhe, Bench::VirtualIpi, 20620, 2374604),
            (Config::ArmNestedNeveVhe, Bench::VirtualEoi, 250, 116591),
            (Config::X86Vm, Bench::Hypercall, 98, 41345),
            (Config::X86Vm, Bench::DeviceIo, 98, 58945),
            (Config::X86Vm, Bench::VirtualIpi, 1005, 68468),
            (Config::X86Vm, Bench::VirtualEoi, 98, 9665),
            (Config::X86Nested, Bench::Hypercall, 1090, 1020225),
            (Config::X86Nested, Bench::DeviceIo, 1218, 1033153),
            (Config::X86Nested, Bench::VirtualIpi, 4245, 1167908),
            (Config::X86Nested, Bench::VirtualEoi, 98, 9665),
        ];
        for (config, bench, steps, cycles) in PINS {
            let mut s = SimSession::new(config, bench);
            let iters = s.iters;
            let got = match &mut s.bed {
                Bed::Arm(tb) => {
                    tb.try_run_measured(iters).expect("cell measures");
                    (tb.m.steps_retired(), tb.m.counter.cycles())
                }
                Bed::X86(tb) => {
                    tb.try_run_measured(iters).expect("cell measures");
                    (tb.m.steps_retired(), tb.m.counter.cycles())
                }
            };
            assert_eq!(got, (steps, cycles), "{config:?} {bench:?}");
        }
    }
}
