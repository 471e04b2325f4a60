//! x86 test bed: VM and nested-VM microbenchmark configurations.

use crate::guesthyp;
use crate::isa::{X86Asm, X86Instr, X86Program};
use crate::machine::{X86Ctx, X86Machine, X86MachineConfig, X86Step, GPR_SLOTS};
use crate::vmcs::VmcsField;
use neve_cycles::counter::{Delta, Measured, PerOp};
use neve_cycles::{FaultCause, Phase, SimFault};
use std::ops::ControlFlow;

/// Payload image base (single-level VM or nested VM).
pub const PAYLOAD_BASE: u64 = 0x10_000;
/// Shared flag address for the IPI pair.
pub const IPI_FLAG: u64 = 0x20_0000;
/// Payload halt code.
pub const DONE: u16 = 0xd07e;

/// x86 configuration (the Table 1/6 x86 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum X86Config {
    /// Single-level VM on KVM x86.
    Vm,
    /// Nested VM on KVM-on-KVM (Turtles), with or without VMCS
    /// shadowing (the Section 8 ablation; the paper's numbers have it
    /// on).
    Nested {
        /// VMCS shadowing enabled.
        shadowing: bool,
    },
}

/// Microbenchmark (same four as the ARM side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum X86Bench {
    /// `vmcall` round trip.
    Hypercall,
    /// Emulated-device read.
    DeviceIo,
    /// Cross-vCPU IPI.
    VirtualIpi,
    /// APICv virtual EOI (no exit).
    VirtualEoi,
}

impl X86Bench {
    fn ncpus(self) -> usize {
        match self {
            X86Bench::VirtualIpi => 2,
            _ => 1,
        }
    }
}

/// Warm-up iterations excluded from measurement.
const WARMUP: u64 = 8;

/// Default run-loop watchdog for the x86 side.
pub const DEFAULT_STEP_BUDGET: u64 = 50_000_000;

/// The assembled x86 stack.
pub struct X86TestBed {
    /// The machine (the L0 hypervisor is built in).
    pub m: X86Machine,
    bench: X86Bench,
    step_budget: u64,
}

fn payload(bench: X86Bench, base: u64, iters: u64, cpu: usize) -> X86Program {
    let mut a = X86Asm::new(base);
    match (bench, cpu) {
        (X86Bench::Hypercall, _) => {
            a.i(X86Instr::MovImm(10, iters));
            let top = a.label();
            a.bind(top);
            a.i(X86Instr::Vmcall);
            a.i(X86Instr::SubImm(10, 1));
            a.jnz(10, top);
            a.i(X86Instr::Halt(DONE));
        }
        (X86Bench::DeviceIo, _) => {
            a.i(X86Instr::MovImm(10, iters));
            let top = a.label();
            a.bind(top);
            a.i(X86Instr::MmioRead(2));
            a.i(X86Instr::SubImm(10, 1));
            a.jnz(10, top);
            a.i(X86Instr::Halt(DONE));
        }
        (X86Bench::VirtualIpi, 0) => {
            // Sender: IPI to CPU 1, spin on the shared counter.
            a.i(X86Instr::MovImm(10, iters));
            a.i(X86Instr::MovImm(11, 0));
            let top = a.label();
            let wait = a.label();
            a.bind(top);
            a.i(X86Instr::AddImm(11, 1));
            a.i(X86Instr::MovImm(0, 1 | (0x40 << 8)));
            a.i(X86Instr::SendIpi(0));
            a.bind(wait);
            a.i(X86Instr::Load(2, IPI_FLAG));
            a.i(X86Instr::Sub(2, 11));
            a.jnz(2, wait);
            a.i(X86Instr::SubImm(10, 1));
            a.jnz(10, top);
            a.i(X86Instr::Halt(DONE));
        }
        (X86Bench::VirtualIpi, _) => {
            // Receiver body: spin; the handler lives at base + 0x100.
            let spin = a.label();
            a.bind(spin);
            a.i(X86Instr::Jmp(base));
        }
        (X86Bench::VirtualEoi, _) => {
            a.i(X86Instr::MovImm(10, iters));
            let top = a.label();
            a.bind(top);
            a.i(X86Instr::ApicEoi);
            a.i(X86Instr::SubImm(10, 1));
            a.jnz(10, top);
            a.i(X86Instr::Halt(DONE));
        }
    }
    a.assemble()
}

/// The IPI receiver's interrupt handler.
fn ipi_handler(base: u64) -> X86Program {
    let mut a = X86Asm::new(base);
    a.i(X86Instr::Load(4, IPI_FLAG));
    a.i(X86Instr::AddImm(4, 1));
    a.i(X86Instr::Store(4, IPI_FLAG));
    a.i(X86Instr::ApicEoi);
    a.i(X86Instr::Iret);
    a.assemble()
}

impl X86TestBed {
    /// Builds the stack for `cfg` running `bench`.
    pub fn new(cfg: X86Config, bench: X86Bench, iters: u64) -> Self {
        let ncpus = bench.ncpus();
        let (nested, shadowing) = match cfg {
            X86Config::Vm => (false, true),
            X86Config::Nested { shadowing } => (true, shadowing),
        };
        let mut m = X86Machine::new(X86MachineConfig {
            ncpus,
            vmcs_shadowing: shadowing,
            nested,
            cost: Default::default(),
        });
        let total = iters + WARMUP;
        for cpu in 0..ncpus {
            let base = PAYLOAD_BASE + cpu as u64 * 0x1000;
            m.load(payload(bench, base, total, cpu));
            if bench == X86Bench::VirtualIpi && cpu == 1 {
                m.load(ipi_handler(base + 0x100));
                m.core_mut(cpu).handler_base = base + 0x100;
                m.core_mut(cpu).irq_enabled = true;
            }
            if nested {
                let gh = guesthyp::build(cpu);
                let gh_entry = gh.base;
                m.load(gh);
                // The guest hypervisor "booted": its vmcs12 knows its
                // exit-handler entry and the nested VM's state; the
                // parked L2 GPRs start zeroed.
                m.vmcs12[cpu].write(VmcsField::HostRip, gh_entry);
                m.vmcs12[cpu].write(VmcsField::GuestRip, base);
                m.vmcs12[cpu].write(VmcsField::ProcCtls, 1);
                for i in 0..crate::isa::NUM_GPRS {
                    m.mem_write(GPR_SLOTS + cpu as u64 * 0x100 + i as u64 * 8, 0);
                }
                // Start inside the guest hypervisor's resume path by
                // entering L2 through a real nested entry: point the
                // guest hypervisor at its handler with a synthetic
                // hypercall exit... simpler: start in L2 directly with
                // vmcs02 merged once.
                m.vmcs02[cpu].write(VmcsField::GuestRip, base);
                m.ctx[cpu] = X86Ctx::L2;
                m.core_mut(cpu).rip = base;
                if bench == X86Bench::VirtualIpi && cpu == 1 {
                    m.core_mut(cpu).irq_enabled = true;
                }
            } else {
                m.ctx[cpu] = X86Ctx::L1;
                m.core_mut(cpu).rip = base;
            }
        }
        Self {
            m,
            bench,
            step_budget: DEFAULT_STEP_BUDGET,
        }
    }

    /// Overrides the run-loop watchdog (clamped to at least 1). The
    /// unit is one round: a cpu-0 step plus, on the IPI benchmark, the
    /// receiver's burst, so on the single-core benchmarks it is one
    /// step. A run that finishes within `budget` rounds succeeds.
    pub fn set_step_budget(&mut self, budget: u64) -> &mut Self {
        self.step_budget = budget.max(1);
        self
    }

    /// Builds a [`SimFault`] with the cpu0 diagnostic snapshot. The x86
    /// machine has no EL or trace ring; context is encoded in `el` as
    /// the virtualization depth (0 = L0 root, 1 = L1, 2 = L2).
    fn fault(&self, cause: FaultCause, steps: u64) -> SimFault {
        let depth = match self.m.ctx[0] {
            X86Ctx::L1 | X86Ctx::GhL1 => 1,
            X86Ctx::L2 => 2,
        };
        SimFault {
            cause,
            pc: self.m.core(0).rip,
            el: depth,
            phase: Phase::Guest,
            steps,
            recent_events: Vec::new(),
        }
    }

    /// Runs to completion, measuring after warm-up. Returns
    /// per-operation averages.
    ///
    /// # Panics
    ///
    /// Panics if a payload crashes or stalls.
    pub fn run(&mut self, iters: u64) -> PerOp {
        self.run_measured(iters).per_op
    }

    /// Like [`X86TestBed::run`] but also reports the measured region's
    /// trap breakdown by exit reason (Table 7 observability).
    ///
    /// # Panics
    ///
    /// Panics if a payload crashes or stalls (use
    /// [`X86TestBed::try_run_measured`] for a structured error).
    pub fn run_measured(&mut self, iters: u64) -> Measured {
        self.try_run_measured(iters)
            .unwrap_or_else(|f| panic!("{f}"))
    }

    /// Fallible [`X86TestBed::run_measured`] under the step-budget
    /// watchdog.
    ///
    /// # Errors
    ///
    /// A [`SimFault`] describing the crash, stall, or measurement
    /// shortfall.
    pub fn try_run_measured(&mut self, iters: u64) -> Result<Measured, SimFault> {
        // Revalidate the flat cost table once per run so the per-step
        // fast path never re-matches the model (see the ARM testbed).
        self.m.refresh_cost_table();
        let eoi = self.bench == X86Bench::VirtualEoi;
        let mut snap = None;
        // EOI measures only the `ApicEoi` instruction: `bracket` holds
        // the snapshot taken before that step until the step has run.
        let mut bracket = None;
        let mut measured = Delta::default();
        let mut done = 0u64;
        let rounds = self.exec(|m, rounds| {
            // A borrow, not `take()`: moving the snapshot out would copy
            // it on every round, bracket or not.
            if let Some(s) = &bracket {
                done += 1;
                if done > WARMUP {
                    measured.accumulate(&m.counter.delta_since(s));
                }
                bracket = None;
            }
            if m.core(0).halted == Some(DONE) {
                return ControlFlow::Break(());
            }
            if eoi {
                if at_apic_eoi(m.core(0).rip) {
                    bracket = Some(m.counter.snapshot());
                }
            } else if rounds > 0 && snap.is_none() && payload_counter(m) == iters {
                snap = Some(m.counter.snapshot());
            }
            ControlFlow::Continue(())
        })?;
        let (delta, n) = if eoi {
            if done < iters || done <= WARMUP {
                let cause = FaultCause::EoiShortfall {
                    expected: iters,
                    seen: done,
                };
                return Err(self.fault(cause, rounds));
            }
            (measured, done - WARMUP)
        } else {
            let Some(snap) = snap else {
                return Err(self.fault(FaultCause::MissedSnapshot, rounds));
            };
            (self.m.counter.delta_since(&snap), iters)
        };
        Ok(delta.measured(n))
    }

    /// The run loop. `between` runs before every round with the rounds
    /// started so far and stops the run by returning `Break`. A round
    /// steps cpu 0 once and then gives the IPI receiver a burst of 4
    /// steps, so delivery latency is not dominated by the interleave
    /// ratio. A receiver that halts with [`DONE`] leaves the round. The
    /// step budget counts rounds: a run that finishes within it
    /// succeeds. Returns the rounds run.
    fn exec(
        &mut self,
        mut between: impl FnMut(&X86Machine, u64) -> ControlFlow<()>,
    ) -> Result<u64, SimFault> {
        let budget = self.step_budget;
        let ncpus = self.bench.ncpus();
        let mut rounds = 0u64;
        loop {
            if between(&self.m, rounds).is_break() {
                return Ok(rounds);
            }
            if rounds == budget {
                return Err(self.fault(FaultCause::StepBudgetExhausted { budget }, rounds));
            }
            rounds += 1;
            let mut stopped = None;
            for cpu in 0..ncpus {
                if self.m.core(cpu).halted.is_some() {
                    continue;
                }
                let quantum = if cpu == 0 { 1 } else { 4 };
                for _ in 0..quantum {
                    let cause = match self.m.step(cpu) {
                        X86Step::Executed => continue,
                        X86Step::Halted(DONE) => break,
                        X86Step::Halted(code) => FaultCause::PayloadCrash { code },
                        X86Step::FetchFailure(rip) => FaultCause::UnexpectedStop {
                            detail: format!("fetch failure at {rip:#x}"),
                        },
                    };
                    stopped.get_or_insert(cause);
                    break;
                }
            }
            if let Some(cause) = stopped {
                return Err(self.fault(cause, rounds));
            }
        }
    }
}

/// The payload's iteration counter (register 10), live or parked.
fn payload_counter(m: &X86Machine) -> u64 {
    match m.ctx[0] {
        X86Ctx::GhL1 => m.mem_read(GPR_SLOTS + 10 * 8),
        _ => m.core(0).gprs[10],
    }
}

/// True when `rip` is an `ApicEoi` of the EOI payload, whose shape is
/// `[MovImm, (ApicEoi, SubImm, Jnz)*]`.
fn at_apic_eoi(rip: u64) -> bool {
    rip > PAYLOAD_BASE && (rip - PAYLOAD_BASE - 1).is_multiple_of(3)
}
