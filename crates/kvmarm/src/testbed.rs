//! Evaluation test bed: assembles a machine + hypervisor stack per paper
//! configuration and runs the kvm-unit-tests-equivalent microbenchmarks.
//!
//! Configurations follow Tables 1 and 6:
//!
//! - **VM**: the payload runs as a single-level VM on the host
//!   hypervisor.
//! - **Nested VM**: the payload runs as a nested VM on a guest
//!   hypervisor (non-VHE or VHE) which runs on the host hypervisor,
//!   with the architecture level selecting ARMv8.3 trap-and-emulate or
//!   NEVE — or ARMv8.0 plus the paravirtualized guest hypervisor images
//!   (the paper's own methodology, used here for the validation
//!   ablation).

use crate::guesthyp::{self, GuestHypFlavor, ParaMode};
use crate::guests;
use crate::hyp::{HostHyp, NestedMode, HCR_VM_RUN};
use crate::layout;
use crate::rosters;
use crate::vcpu::Ctx;
use neve_armv8::isa::Instr;
use neve_armv8::machine::{ExecSpec, Executed, Machine, MachineConfig, Stop};
use neve_armv8::pstate::Pstate;
use neve_armv8::trace::Trace;
use neve_armv8::{ArchLevel, FaultPlan};
use neve_core::VncrEl2;
use neve_cycles::counter::{Delta, Measured, PerOp};
use neve_cycles::{FaultCause, SimFault};
use neve_gic::vgic::ICH_HCR_EN;
use neve_memsim::{FrameAlloc, PageTable, Perms};
use neve_sysreg::bits::{spsr, vttbr};
use neve_sysreg::{RegId, SysReg};
use std::ops::ControlFlow;

/// An evaluation configuration (one column of Tables 1/6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmConfig {
    /// Single-level VM on the host hypervisor.
    Vm,
    /// Nested VM under a guest hypervisor.
    Nested {
        /// VHE guest hypervisor.
        guest_vhe: bool,
        /// NEVE (ARMv8.4) instead of ARMv8.3 trap-and-emulate.
        neve: bool,
        /// Paravirtualization mode (selects ARMv8.0 hardware when not
        /// [`ParaMode::None`]).
        para: ParaMode,
    },
}

impl ArmConfig {
    /// The hardware architecture level this configuration requires.
    pub fn arch(self) -> ArchLevel {
        match self {
            ArmConfig::Vm => ArchLevel::V8_0,
            ArmConfig::Nested {
                para: ParaMode::None,
                neve: true,
                ..
            } => ArchLevel::V8_4,
            ArmConfig::Nested {
                para: ParaMode::None,
                neve: false,
                ..
            } => ArchLevel::V8_3,
            ArmConfig::Nested { .. } => ArchLevel::V8_0,
        }
    }
}

/// A microbenchmark (one row of Tables 1/6/7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroBench {
    /// VM -> hypervisor -> VM round trip.
    Hypercall,
    /// Read of a device register emulated by the owning hypervisor.
    DeviceIo,
    /// Cross-vCPU virtual IPI, send to delivery.
    VirtualIpi,
    /// Trap-free virtual interrupt completion.
    VirtualEoi,
    /// Workload replay: per transaction, `work` cycles of computation
    /// plus `hcs` hypercalls and `ios` device reads (the
    /// execution-based Figure 2 cross-check).
    Mixed {
        /// Computation per transaction, in cycles.
        work: u16,
        /// Hypercalls per transaction.
        hcs: u8,
        /// Device reads per transaction.
        ios: u8,
    },
    /// Idle vCPU woken only by timer interrupts: the payload sits in
    /// `wfi` forever and its vector acknowledges whatever fires. The
    /// consolidation rig's shape — it never halts, so build it with
    /// [`TestBed::new_tick`] and drive it with [`TestBed::try_exec`],
    /// whose between-rounds callback re-arms the ticks and decides when
    /// to stop, not with [`TestBed::run`].
    Idle,
}

impl MicroBench {
    /// CPUs the benchmark needs.
    pub fn ncpus(self) -> usize {
        match self {
            MicroBench::VirtualIpi => 2,
            _ => 1,
        }
    }
}

/// The assembled stack.
pub struct TestBed {
    /// The machine.
    pub m: Machine,
    /// The host hypervisor.
    pub hyp: HostHyp,
    /// The configuration.
    pub cfg: ArmConfig,
    bench: MicroBench,
    step_budget: u64,
}

/// Iterations dropped as warm-up (lazy Stage-2 faults, shadow fills).
const WARMUP: u64 = 8;

/// Default run-loop watchdog: generous for every configuration in the
/// matrix (the slowest cell retires well under a million steps).
pub const DEFAULT_STEP_BUDGET: u64 = 80_000_000;

/// Provenance-ring lines carried in a [`SimFault`] diagnostic snapshot.
const FAULT_TRACE_LINES: usize = 16;

/// The payload's remaining-iterations counter (x10), regardless of
/// which context currently owns the hardware.
fn payload_counter(m: &Machine, hyp: &HostHyp) -> u64 {
    match hyp.vcpus[0].ctx {
        Ctx::L1Payload | Ctx::L2 => m.core(0).gpr(10),
        // The payload's x10 sits in the guest hypervisor's save area
        // while the hypervisor runs.
        _ => m
            .mem
            .read_u64(layout::gh_save_area(0) + crate::guesthyp::slots::GPRS + 8 * 10),
    }
}

impl TestBed {
    /// Builds the full stack for `cfg` running `bench` with `iters`
    /// measured iterations (GICv3 system-register GIC interface).
    pub fn new(cfg: ArmConfig, bench: MicroBench, iters: u64) -> Self {
        Self::with_gic(cfg, bench, iters, false)
    }

    /// Like [`TestBed::new`] but with a GICv2 memory-mapped hypervisor
    /// control interface (the paper's hardware; nested configurations
    /// only — the flag is ignored for plain VMs).
    pub fn new_gicv2(cfg: ArmConfig, bench: MicroBench, iters: u64) -> Self {
        Self::build(cfg, bench, iters, true, false)
    }

    /// Like [`TestBed::new`] but with a standalone (Xen-style) guest
    /// hypervisor (paper Section 6.5's design comparison; nested
    /// configurations only).
    pub fn new_xen(cfg: ArmConfig, bench: MicroBench, iters: u64) -> Self {
        Self::build(cfg, bench, iters, false, true)
    }

    fn with_gic(cfg: ArmConfig, bench: MicroBench, iters: u64, gic_mmio: bool) -> Self {
        Self::build(cfg, bench, iters, gic_mmio, false)
    }

    fn build(cfg: ArmConfig, bench: MicroBench, iters: u64, gic_mmio: bool, xen: bool) -> Self {
        let ncpus = bench.ncpus();
        let mut m = Machine::new(MachineConfig {
            arch: cfg.arch(),
            ncpus,
            mem_size: layout::RAM_SIZE,
            cost: Default::default(),
        });
        let total = iters + WARMUP;
        let hyp = match cfg {
            ArmConfig::Vm => Self::setup_vm(&mut m, bench, total, ncpus),
            ArmConfig::Nested {
                guest_vhe,
                neve,
                para,
            } => Self::setup_nested(
                &mut m,
                bench,
                total,
                ncpus,
                NestedMode {
                    guest_vhe,
                    neve,
                    para,
                    gic_mmio,
                    xen,
                },
            ),
        };
        Self {
            m,
            hyp,
            cfg,
            bench,
            step_budget: DEFAULT_STEP_BUDGET,
        }
    }

    fn load_payloads(m: &mut Machine, bench: MicroBench, base: u64, iters: u64) {
        match bench {
            MicroBench::Hypercall => m.load(guests::hypercall(base, iters)),
            MicroBench::DeviceIo => m.load(guests::device_io(base, iters)),
            MicroBench::VirtualIpi => {
                let flag = guests::ipi_flag(base);
                m.load(guests::ipi_sender(base, flag, iters));
                m.load(guests::ipi_receiver(base + 0x4000, flag));
            }
            MicroBench::VirtualEoi => m.load(guests::eoi(base, iters)),
            MicroBench::Mixed { work, hcs, ios } => {
                m.load(guests::mixed(base, iters, work as u64, hcs, ios))
            }
            MicroBench::Idle => m.load(guests::wfi_receiver(base, guests::ipi_flag(base))),
        }
    }

    fn payload_entry(bench: MicroBench, base: u64, cpu: usize) -> u64 {
        match (bench, cpu) {
            (MicroBench::VirtualIpi, 1) => base + 0x4000,
            _ => base,
        }
    }

    fn payload_vbar(bench: MicroBench, base: u64, cpu: usize) -> u64 {
        match (bench, cpu) {
            (MicroBench::VirtualIpi, 1) => base + 0x4000,
            (MicroBench::Idle, _) => base,
            _ => 0,
        }
    }

    fn payload_irqs_unmasked(bench: MicroBench, cpu: usize) -> bool {
        matches!(
            (bench, cpu),
            (MicroBench::VirtualIpi, 1) | (MicroBench::Idle, _)
        )
    }

    /// Single-level VM configuration.
    fn setup_vm(m: &mut Machine, bench: MicroBench, iters: u64, ncpus: usize) -> HostHyp {
        let hyp = HostHyp::new(m, ncpus, None);
        let base = layout::L1_PAYLOAD_BASE;
        Self::load_payloads(m, bench, base, iters);
        for cpu in 0..ncpus {
            m.core_mut(cpu).pstate = Pstate {
                el: 1,
                irq_masked: !Self::payload_irqs_unmasked(bench, cpu),
                fiq_masked: true,
            };
            m.core_mut(cpu).pc = Self::payload_entry(bench, base, cpu);
            m.core_mut(cpu)
                .regs
                .write(SysReg::VbarEl1, Self::payload_vbar(bench, base, cpu));
            m.core_mut(cpu).regs.write(SysReg::HcrEl2, HCR_VM_RUN);
            m.core_mut(cpu).regs.write(
                SysReg::VttbrEl2,
                vttbr::build(layout::VMID_L1, hyp.host_s2.root),
            );
            m.gic.ich_write(cpu, SysReg::IchHcrEl2, ICH_HCR_EN);
        }
        if bench == MicroBench::VirtualEoi {
            m.gic.inject_virq(0, layout::EOI_VINTID, 0x80);
        }
        hyp
    }

    /// Nested configuration: guest hypervisor + nested VM.
    fn setup_nested(
        m: &mut Machine,
        bench: MicroBench,
        iters: u64,
        ncpus: usize,
        mode: NestedMode,
    ) -> HostHyp {
        let mut hyp = HostHyp::new(m, ncpus, Some(mode));
        let flavor = GuestHypFlavor {
            vhe: mode.guest_vhe,
            para: mode.para,
            gicv2: mode.gic_mmio,
        };

        // The guest hypervisor's Stage-2 table for its nested VM, built
        // in L1-owned memory on its behalf (the "booted" state): L2 IPA
        // identity-maps to L1 PA for the payload's data pages.
        let mut gframes = FrameAlloc::new(layout::GUEST_S2_FRAMES, layout::GUEST_S2_FRAMES_SIZE);
        let guest_s2 = PageTable::new(&mut m.mem, &mut gframes);
        let l2 = layout::L2_PAYLOAD_BASE;
        for page in 0..32u64 {
            let a = l2 + page * 4096;
            guest_s2.map(&mut m.mem, &mut gframes, a, a, Perms::RWX);
        }
        hyp.guest_s2_root = guest_s2.root;

        Self::load_payloads(m, bench, l2, iters);

        for cpu in 0..ncpus {
            let img = if mode.xen {
                crate::xen::build(flavor, cpu)
            } else {
                guesthyp::build(flavor, cpu)
            };
            let hyp_base = img.hyp.base;
            m.load(img.hyp);
            m.load(img.kernel);

            // "Boot" state of the guest hypervisor: its vector base and
            // the save-area constants its switch code loads. The chain
            // starts in virtual EL2, so hardware EL1 must *be* the
            // virtual-EL2 image (the host saves hardware into the image
            // on the first switch away).
            hyp.vcpus[cpu].vel2_hw.write(SysReg::VbarEl1, hyp_base);
            m.core_mut(cpu).regs.write(SysReg::VbarEl1, hyp_base);
            hyp.vcpus[cpu].ctx = Ctx::GhVel2;
            let save = layout::gh_save_area(cpu);
            use crate::guesthyp::slots;
            // Host-kernel EL1 context: synthetic but distinct values.
            for (i, _) in rosters::el1_context().iter().enumerate() {
                m.mem
                    .write_u64(save + slots::HOST_EL1 + 8 * i as u64, 0x1000 + i as u64);
            }
            m.mem
                .write_u64(save + slots::HCR_HOST, neve_sysreg::bits::hcr::IMO);
            m.mem.write_u64(
                save + slots::HCR_VM,
                neve_sysreg::bits::hcr::VM | neve_sysreg::bits::hcr::IMO,
            );
            m.mem
                .write_u64(save + slots::VTTBR_VM, vttbr::build(7, guest_s2.root));
            m.mem
                .write_u64(save + slots::ELR, Self::payload_entry(bench, l2, cpu));
            let sp = if Self::payload_irqs_unmasked(bench, cpu) {
                spsr::mode_h(1)
            } else {
                spsr::mode_h(1) | spsr::I | spsr::F
            };
            m.mem.write_u64(save + slots::SPSR, sp);
            // The VM context starts dirty so lazy-restoring designs
            // (the Xen flavour) load it on first entry.
            m.mem.write_u64(save + slots::REASON, 1);
            // The nested VM's initial EL1 context (roster order).
            for (i, reg) in rosters::el1_context().iter().copied().enumerate() {
                let v = if reg == SysReg::VbarEl1 {
                    Self::payload_vbar(bench, l2, cpu)
                } else {
                    0
                };
                m.mem.write_u64(save + slots::VM_EL1 + 8 * i as u64, v);
            }

            // Hardware state: enter the guest hypervisor at its run
            // entry; it performs the first world switch into the VM.
            m.core_mut(cpu).pstate = Pstate {
                el: 1,
                irq_masked: true,
                fiq_masked: true,
            };
            m.core_mut(cpu).pc = hyp_base + guesthyp::RUN_ENTRY_OFFSET;
            let hcr_bits = {
                use neve_sysreg::bits::hcr;
                let mut b = HCR_VM_RUN | hcr::NV;
                if !mode.guest_vhe {
                    b |= hcr::NV1;
                }
                if mode.neve {
                    b |= hcr::NV2;
                }
                b
            };
            m.core_mut(cpu).regs.write(SysReg::HcrEl2, hcr_bits);
            m.core_mut(cpu).regs.write(
                SysReg::VttbrEl2,
                vttbr::build(layout::VMID_L1, hyp.host_s2.root),
            );
            if mode.neve {
                let raw = VncrEl2::enabled_at(layout::vncr_page(cpu))
                    .expect("aligned")
                    .raw();
                // Through the storage router so the core's NEVE engine
                // sees the value.
                m.hyp_write(cpu, SysReg::VncrEl2, raw);
            }
            m.gic.ich_write(cpu, SysReg::IchHcrEl2, ICH_HCR_EN);
        }
        if bench == MicroBench::VirtualEoi {
            // The guest hypervisor "injected" an interrupt: place it in
            // the virtual GIC state so L2 entry loads it.
            hyp.vcpus[0].vgic_l2.write(
                SysReg::IchLrEl2(0),
                neve_gic::lr::ListRegister::pending(layout::EOI_VINTID, 0x80).encode(),
            );
        }
        hyp
    }

    /// Switches the host hypervisor to VHE mode (kernel in EL2: no EL1
    /// context swap per exit). Call before [`TestBed::run`].
    pub fn host_vhe(&mut self) -> &mut Self {
        self.hyp.vhe_host = true;
        self
    }

    /// Overrides the run-loop watchdog (clamped to at least 1). The
    /// unit is one round of [`Machine::exec`]: every runnable core
    /// stepped for its quantum. On the single-core benchmarks a round
    /// is one machine step; on the IPI benchmark it is one sender step
    /// plus the receiver's burst. A run that finishes within `budget`
    /// rounds succeeds.
    pub fn set_step_budget(&mut self, budget: u64) -> &mut Self {
        self.step_budget = budget.max(1);
        self
    }

    /// Attaches a deterministic fault-injection schedule to the machine.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.m.attach_fault_plan(plan);
        self
    }

    /// Runs the benchmark to completion and returns per-operation
    /// averages over the measured iterations (warm-up excluded).
    ///
    /// # Panics
    ///
    /// Panics if the payload crashes or stalls (use
    /// [`TestBed::try_run_measured`] for a structured error instead).
    pub fn run(&mut self, iters: u64) -> PerOp {
        self.run_measured(iters).per_op
    }

    /// Like [`TestBed::run`] but also reports the trap breakdown of the
    /// measured region by reason — the Table 7 observability data the
    /// session layer persists alongside cycle counts.
    ///
    /// # Panics
    ///
    /// Panics if the payload crashes or stalls (use
    /// [`TestBed::try_run_measured`] for a structured error instead).
    pub fn run_measured(&mut self, iters: u64) -> Measured {
        self.try_run_measured(iters)
            .unwrap_or_else(|f| panic!("{f}"))
    }

    /// Fallible [`TestBed::run_measured`]: a crash, stall (step-budget
    /// exhaustion), or broken measurement protocol comes back as a
    /// [`SimFault`] with a diagnostic snapshot instead of a panic.
    ///
    /// # Errors
    ///
    /// The [`SimFault`] carries pc/EL/phase/steps and the tail of the
    /// provenance ring when a trace is attached.
    pub fn try_run_measured(&mut self, iters: u64) -> Result<Measured, SimFault> {
        let (delta, n) = self.try_run_region(iters)?;
        Ok(delta.measured(n))
    }

    /// Like [`TestBed::run_measured`] but returns the raw
    /// measured-region [`Delta`] and iteration count — the trace
    /// command reads the delta's per-phase maps next to the machine's
    /// retained trace ring. When a trace is attached, it is cleared at
    /// the measurement snapshot so the ring covers exactly the measured
    /// region (the bracket-measured EOI benchmark keeps the whole run).
    ///
    /// # Panics
    ///
    /// Panics if the payload crashes or stalls (use
    /// [`TestBed::try_run_region`] for a structured error instead).
    pub fn run_region(&mut self, iters: u64) -> (Delta, u64) {
        self.try_run_region(iters).unwrap_or_else(|f| panic!("{f}"))
    }

    /// Fallible [`TestBed::run_region`] under the step-budget watchdog.
    ///
    /// # Errors
    ///
    /// A [`SimFault`] describing the crash, stall, or measurement
    /// shortfall.
    pub fn try_run_region(&mut self, iters: u64) -> Result<(Delta, u64), SimFault> {
        let eoi = self.bench == MicroBench::VirtualEoi;
        // The IPI receiver gets a burst of steps per sender step so
        // delivery latency is not dominated by the interleave ratio.
        let quanta: &[u32] = if self.bench == MicroBench::VirtualIpi {
            &[1, 4]
        } else {
            &[]
        };
        let mut snap = None;
        // The EOI benchmark measures only the acknowledge + complete
        // pair; the re-arm hypercall between iterations is excluded, as
        // in kvm-unit-tests where the interrupt is raised outside the
        // timed region. `bracket` holds the snapshot taken before an
        // `EOIR` step until the step has run.
        let mut bracket = None;
        let mut measured = Delta::default();
        let mut done = 0u64;
        let run = self.try_exec(quanta, |m, hyp, rounds| {
            // A borrow, not `take()`: moving the snapshot out would copy
            // it on every round, bracket or not.
            if let Some(s) = &bracket {
                done += 1;
                if done > WARMUP {
                    measured.accumulate(&m.counter.delta_since(s));
                }
                bracket = None;
            }
            if m.core(0).halted == Some(guests::DONE) {
                return ControlFlow::Break(());
            }
            if eoi {
                let at_eoir = matches!(
                    m.peek(m.core(0).pc),
                    Some(Instr::Msr(RegId::Plain(SysReg::IccEoir1El1), _))
                );
                if at_eoir {
                    bracket = Some(m.counter.snapshot());
                }
            } else if rounds > 0 && snap.is_none() && payload_counter(m, hyp) == iters {
                // Warm-up done: the iteration counter dropped to `iters`.
                snap = Some(m.counter.snapshot());
                if let Some(t) = &mut m.trace {
                    t.clear();
                }
            }
            ControlFlow::Continue(())
        })?;
        if eoi {
            // Both guards matter under fault injection: enough pairs for
            // the requested per-op figure, and at least one pair past
            // the warm-up so the division below is meaningful
            // (`done - WARMUP` must not underflow).
            if done < iters || done <= WARMUP {
                let cause = FaultCause::EoiShortfall {
                    expected: iters,
                    seen: done,
                };
                return Err(self.fault(cause, run.rounds));
            }
            return Ok((measured, done - WARMUP));
        }
        let Some(snap) = snap else {
            return Err(self.fault(FaultCause::MissedSnapshot, run.rounds));
        };
        Ok((self.m.counter.delta_since(&snap), iters))
    }

    /// Drives [`Machine::exec`] under this bed's step budget, with cores
    /// that halt with [`guests::DONE`] leaving the run quietly, and
    /// turns every other way a run can end into a [`SimFault`].
    /// `quanta` and `between` are as for [`Machine::exec`].
    ///
    /// # Errors
    ///
    /// A [`SimFault`] for a payload crash, fetch failure, budget
    /// exhaustion, or a full-machine sleep with no event armed.
    pub fn try_exec(
        &mut self,
        quanta: &[u32],
        between: impl FnMut(&mut Machine, &mut HostHyp, u64) -> ControlFlow<()>,
    ) -> Result<Executed, SimFault> {
        // Run boundaries are the only place the cost model may have
        // been reconfigured; revalidate the flat table once here so
        // the per-step fast path never has to.
        self.m.refresh_cost_table();
        let budget = self.step_budget;
        let spec = ExecSpec {
            budget,
            done: guests::DONE,
            quanta,
        };
        let run = self.m.exec(&mut self.hyp, spec, between);
        let cause = match run.stop {
            Stop::Requested => return Ok(run),
            Stop::BudgetExhausted => FaultCause::StepBudgetExhausted { budget },
            Stop::Deadlock => FaultCause::UnexpectedStop {
                detail: "no runnable core and no pending event".into(),
            },
            Stop::Halted { code, .. } => FaultCause::PayloadCrash { code },
            Stop::FetchFailure { pc, .. } => FaultCause::UnexpectedStop {
                detail: format!("fetch failure at {pc:#x}"),
            },
        };
        Err(self.fault(cause, run.rounds))
    }

    /// Builds a [`SimFault`] with the cpu0 diagnostic snapshot.
    fn fault(&self, cause: FaultCause, steps: u64) -> SimFault {
        let core = self.m.core(0);
        let recent_events = self
            .m
            .trace
            .as_ref()
            .map(|t| {
                let skip = t.len().saturating_sub(FAULT_TRACE_LINES);
                t.events().skip(skip).map(Trace::render).collect()
            })
            .unwrap_or_default();
        SimFault {
            cause,
            pc: core.pc,
            el: core.pstate.el,
            phase: self.m.counter.phase(),
            steps,
            recent_events,
        }
    }

    // ------------------------------------------------------------------
    // The discrete-event driver.
    // ------------------------------------------------------------------

    /// Big-SMP single-level VM: `vcpus` cores under the host
    /// hypervisor, with cpu 0 doing the only real work.
    ///
    /// - `storm: false` — cpu 0 runs the hypercall loop; every other
    ///   core executes `wfi` once and parks for the whole run (the
    ///   mostly-idle shape the O(0)-idle claim is measured on).
    /// - `storm: true` — cpu 0 sends `iters` SGIs to cpu 1, which
    ///   waits in WFI between deliveries (each IPI exercises the full
    ///   park/wake path); cores 2.. park forever.
    ///
    /// Drive it with [`TestBed::try_run_wheel`] until cpu 0 halts.
    pub fn new_bigsmp(vcpus: usize, storm: bool, iters: u64) -> Self {
        assert!(vcpus >= 2, "big-SMP needs at least a busy and an idle core");
        let mut m = Machine::new(MachineConfig {
            arch: ArchLevel::V8_0,
            ncpus: vcpus,
            mem_size: layout::RAM_SIZE,
            cost: Default::default(),
        });
        let hyp = HostHyp::new(&mut m, vcpus, None);
        let base = layout::L1_PAYLOAD_BASE;
        let flag = guests::ipi_flag(base);
        // The idle image sits past the IPI flag page so the shared
        // counter never aliases code.
        let idle_base = base + 0xc000;
        let bench = if storm {
            m.load(guests::ipi_sender(base, flag, iters));
            m.load(guests::wfi_receiver(base + 0x4000, flag));
            MicroBench::VirtualIpi
        } else {
            m.load(guests::hypercall(base, iters));
            MicroBench::Hypercall
        };
        if vcpus > 2 || !storm {
            m.load(guests::wfi_idle(idle_base));
        }
        for cpu in 0..vcpus {
            let (entry, vbar, unmasked) = match (storm, cpu) {
                (_, 0) => (base, 0, false),
                (true, 1) => (base + 0x4000, base + 0x4000, true),
                _ => (idle_base, 0, false),
            };
            m.core_mut(cpu).pstate = Pstate {
                el: 1,
                irq_masked: !unmasked,
                fiq_masked: true,
            };
            m.core_mut(cpu).pc = entry;
            m.core_mut(cpu).regs.write(SysReg::VbarEl1, vbar);
            m.core_mut(cpu).regs.write(SysReg::HcrEl2, HCR_VM_RUN);
            m.core_mut(cpu).regs.write(
                SysReg::VttbrEl2,
                vttbr::build(layout::VMID_L1, hyp.host_s2.root),
            );
            m.gic.ich_write(cpu, SysReg::IchHcrEl2, ICH_HCR_EN);
        }
        Self {
            m,
            hyp,
            cfg: ArmConfig::Vm,
            bench,
            step_budget: DEFAULT_STEP_BUDGET,
        }
    }

    /// Consolidation stack: `vcpus` idle vCPUs under one host
    /// hypervisor, each one a full guest-hypervisor stack with an idle
    /// nested VM (nested configurations) or a plain idle VM
    /// ([`ArmConfig::Vm`]).
    ///
    /// Every payload sits in `wfi`; the only activity is whatever the
    /// caller arms on the host's physical EL2 timers (the scheduler
    /// tick, [`neve_vtimer::PPI_HPTIMER`]). The EL2 timer lives in no
    /// world-switch roster, so a rig-armed deadline survives VM
    /// entry/exit — unlike the EL1 virtual timer, which the guest
    /// hypervisor's switch code save/restores. The payloads never
    /// halt: drive the bed with [`TestBed::try_exec`], re-arming the
    /// ticks and deciding when to stop in its between-rounds callback,
    /// not with [`TestBed::run`].
    pub fn new_tick(cfg: ArmConfig, vcpus: usize) -> Self {
        assert!(vcpus >= 1, "a consolidation stack needs at least one vCPU");
        let bench = MicroBench::Idle;
        let mut m = Machine::new(MachineConfig {
            arch: cfg.arch(),
            ncpus: vcpus,
            mem_size: layout::RAM_SIZE,
            cost: Default::default(),
        });
        let hyp = match cfg {
            ArmConfig::Vm => Self::setup_vm(&mut m, bench, 0, vcpus),
            ArmConfig::Nested {
                guest_vhe,
                neve,
                para,
            } => Self::setup_nested(
                &mut m,
                bench,
                0,
                vcpus,
                NestedMode {
                    guest_vhe,
                    neve,
                    para,
                    gic_mmio: false,
                    xen: false,
                },
            ),
        };
        Self {
            m,
            hyp,
            cfg,
            bench,
            step_budget: DEFAULT_STEP_BUDGET,
        }
    }

    /// Wheel-driven run loop: [`TestBed::try_exec`] with one step per
    /// core per round. Steps only the runnable set, parks cores that
    /// hit WFI, services wake-ups after every step, and — when every
    /// live core is parked — jumps the clock to the next pending event
    /// instead of polling. A parked core costs zero host steps.
    ///
    /// Runs until `stop` returns true (checked between rounds), a core
    /// crashes, or the step budget runs out. Cores that halt with
    /// [`guests::DONE`] drop out of the round quietly. Returns the
    /// number of host steps retired — the denominator of the big-SMP
    /// throughput scenarios.
    ///
    /// # Errors
    ///
    /// A [`SimFault`] for a payload crash, fetch failure, budget
    /// exhaustion, or a full-machine sleep with no event armed.
    pub fn try_run_wheel<F>(&mut self, mut stop: F) -> Result<u64, SimFault>
    where
        F: FnMut(&Machine) -> bool,
    {
        let run = self.try_exec(&[], |m, _, _| {
            if stop(m) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        Ok(run.steps)
    }
}
