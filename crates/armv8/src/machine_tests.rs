//! Semantic tests for the machine: the trap architecture of paper
//! Sections 2-6, validated instruction by instruction.

use crate::isa::{Asm, Instr, Special};
use crate::machine::{ExecSpec, ExitInfo, Hypervisor, Machine, MachineConfig, StepOutcome, Stop};
use crate::pstate::Pstate;
use crate::ArchLevel;
use neve_core::VncrEl2;
use neve_cycles::{Event, TrapKind};
use neve_gic::vgic::ICH_HCR_EN;
use neve_memsim::{FrameAlloc, PageTable, Perms};
use neve_sysreg::bits::{esr, hcr, spsr};
use neve_sysreg::classify::vncr_offset;
use neve_sysreg::{RegId, SysReg};

/// A hypervisor driven by a closure, recording every exit.
struct FnHyp<F: FnMut(&mut Machine, usize, ExitInfo)> {
    on_sync: F,
    exits: Vec<u64>,
    irqs: u64,
}

impl<F: FnMut(&mut Machine, usize, ExitInfo)> FnHyp<F> {
    fn new(on_sync: F) -> Self {
        Self {
            on_sync,
            exits: Vec::new(),
            irqs: 0,
        }
    }
}

impl<F: FnMut(&mut Machine, usize, ExitInfo)> Hypervisor for FnHyp<F> {
    fn handle_sync(&mut self, m: &mut Machine, cpu: usize, info: ExitInfo) {
        self.exits.push(esr::ec(info.esr));
        (self.on_sync)(m, cpu, info);
    }

    fn handle_irq(&mut self, m: &mut Machine, _cpu: usize) {
        self.irqs += 1;
        // Drain the interrupt so we do not spin.
        let pending: Vec<_> = (0..m.ncpus())
            .filter_map(|c| m.gic.dist.ack(c).map(|i| (c, i)))
            .collect();
        for (c, i) in pending {
            m.gic.dist.eoi(c, i);
        }
    }
}

/// A hypervisor that skips the trapped instruction (KVM's
/// `kvm_skip_instr` for traps it chooses to ignore).
fn skipping_hyp() -> FnHyp<impl FnMut(&mut Machine, usize, ExitInfo)> {
    FnHyp::new(|m: &mut Machine, cpu: usize, info: ExitInfo| {
        // hvc already has the preferred return after the instruction.
        if esr::ec(info.esr) != esr::EC_HVC64 {
            m.core_mut(cpu)
                .regs
                .write(SysReg::ElrEl2, info.elr.wrapping_add(4));
        }
    })
}

fn machine(arch: ArchLevel) -> Machine {
    Machine::new(MachineConfig {
        arch,
        ncpus: 2,
        mem_size: 1 << 32,
        cost: Default::default(),
    })
}

/// Puts `cpu` at EL1 with the given hardware HCR_EL2 and pc.
fn enter_guest(m: &mut Machine, cpu: usize, hcr_bits: u64, pc: u64) {
    m.core_mut(cpu).regs.write(SysReg::HcrEl2, hcr_bits);
    m.core_mut(cpu).pstate = Pstate {
        el: 1,
        irq_masked: true,
        fiq_masked: true,
    };
    m.core_mut(cpu).pc = pc;
}

#[test]
fn arithmetic_program_runs_and_halts() {
    let mut m = machine(ArchLevel::V8_0);
    let mut a = Asm::new(0x1000);
    let top = a.label();
    a.i(Instr::MovImm(0, 5)).i(Instr::MovImm(1, 0));
    a.bind(top);
    a.i(Instr::AddImm(1, 1, 3));
    a.i(Instr::SubImm(0, 0, 1));
    a.cbnz(0, top);
    a.i(Instr::Halt(7));
    m.load(a.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    let mut hyp = skipping_hyp();
    let out = m.run(&mut hyp, 0, 1000);
    assert_eq!(out, StepOutcome::Halted(7));
    assert_eq!(m.core(0).gpr(1), 15);
    assert!(m.counter.cycles() > 0);
    assert_eq!(m.counter.traps_total(), 0);
}

/// Two cores under `exec` with quanta `[1, 3]`: cpu 0 runs `MovImm`
/// then halts with code 9; cpu 1 spins forever.
fn exec_pair(done: u16, budget: u64, stop_after: u64) -> (Machine, crate::machine::Executed) {
    let mut m = machine(ArchLevel::V8_0);
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(0, 1)).i(Instr::Halt(9));
    m.load(a.assemble());
    let mut b = Asm::new(0x2000);
    let top = b.label();
    b.bind(top);
    b.i(Instr::MovImm(1, 2));
    b.b(top);
    m.load(b.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    enter_guest(&mut m, 1, 0, 0x2000);
    let spec = ExecSpec {
        budget,
        done,
        quanta: &[1, 3],
    };
    let mut hyp = skipping_hyp();
    let run = m.exec(&mut hyp, spec, |_, _, rounds| {
        if rounds == stop_after {
            std::ops::ControlFlow::Break(())
        } else {
            std::ops::ControlFlow::Continue(())
        }
    });
    (m, run)
}

#[test]
fn exec_ends_a_faulted_run_after_its_round() {
    // Round 2: cpu 0 halts with a code that is not `done`; cpu 1 still
    // takes its 3-step turn before the run ends.
    let (m, run) = exec_pair(0xd07e, 100, u64::MAX);
    assert_eq!(run.stop, Stop::Halted { cpu: 0, code: 9 });
    assert_eq!((run.rounds, run.steps), (2, 8));
    assert_eq!(m.steps_retired(), 8);
}

#[test]
fn exec_lets_a_done_core_leave_and_counts_the_budget_in_rounds() {
    // With 9 as the done code cpu 0 leaves quietly in round 2 and cpu 1
    // runs on alone.
    let (_, run) = exec_pair(9, 100, 4);
    assert_eq!(run.stop, Stop::Requested);
    assert_eq!((run.rounds, run.steps), (4, 4 + 4 + 3 + 3));
    // Exactly `budget` rounds run; the next one is refused.
    let (_, run) = exec_pair(9, 3, u64::MAX);
    assert_eq!(run.stop, Stop::BudgetExhausted);
    assert_eq!((run.rounds, run.steps), (3, 4 + 4 + 3));
}

#[test]
fn hvc_traps_to_el2_with_imm_and_returns_after() {
    let mut m = machine(ArchLevel::V8_0);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Hvc(0x42))
        .i(Instr::MovImm(0, 99))
        .i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(hyp.exits, vec![esr::EC_HVC64]);
    assert_eq!(m.core(0).gpr(0), 99, "resumed at the next instruction");
    assert_eq!(m.counter.traps_of(TrapKind::Hvc), 1);
}

#[test]
fn hypervisor_instruction_at_el1_is_undefined_on_v8_0() {
    // Paper Section 2: "This would typically lead to an unmodified
    // hypervisor crashing if executed in EL1": the access raises an
    // exception *to EL1*, not a trap to EL2.
    let mut m = machine(ArchLevel::V8_0);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Msr(RegId::Plain(SysReg::VbarEl2), 0));
    m.load(a.assemble());
    // An exception vector that halts with a recognisable code.
    let mut v = Asm::new(0x8000);
    v.org(0x200);
    v.i(Instr::Halt(0xdead));
    m.load(v.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    m.core_mut(0).regs.write(SysReg::VbarEl1, 0x8000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0xdead));
    assert_eq!(m.counter.traps_total(), 0, "no trap to EL2 on v8.0");
    assert_eq!(
        esr::ec(m.core(0).regs.read(SysReg::EsrEl1)),
        esr::EC_UNKNOWN
    );
}

#[test]
fn hypervisor_instruction_traps_to_el2_with_nv() {
    // Paper Section 2: ARMv8.3 "enables trapping of hypervisor
    // instructions executed in EL1 to EL2".
    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Msr(RegId::Plain(SysReg::VbarEl2), 5))
        .i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV, 0x1000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(hyp.exits, vec![esr::EC_SYSREG]);
    assert_eq!(m.counter.traps_of(TrapKind::SysReg), 1);
}

#[test]
fn current_el_is_disguised_under_nv() {
    // Paper Section 2: the guest hypervisor reads EL2 from CurrentEL.
    for (arch, hcr_bits, expect) in [
        (ArchLevel::V8_0, 0, 1u64 << 2),
        (ArchLevel::V8_3, hcr::NV, 2u64 << 2),
    ] {
        let mut m = machine(arch);
        let mut a = Asm::new(0x1000);
        a.i(Instr::MrsSpecial(3, Special::CurrentEl))
            .i(Instr::Halt(0));
        m.load(a.assemble());
        enter_guest(&mut m, 0, hcr_bits, 0x1000);
        let mut hyp = skipping_hyp();
        m.run(&mut hyp, 0, 10);
        assert_eq!(m.core(0).gpr(3), expect, "{arch:?}");
    }
}

#[test]
fn eret_at_el1_traps_under_nv_and_is_native_otherwise() {
    // With NV: eret from virtual EL2 traps (Section 4, third kind).
    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Eret).i(Instr::Halt(1));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV, 0x1000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(1));
    assert_eq!(m.counter.traps_of(TrapKind::Eret), 1);

    // Without NV: a native EL1 eret drops to EL0 via SPSR_EL1/ELR_EL1.
    let mut m = machine(ArchLevel::V8_0);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Eret);
    m.load(a.assemble());
    let mut u = Asm::new(0x4000);
    u.i(Instr::Halt(2));
    m.load(u.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    m.core_mut(0).regs.write(SysReg::ElrEl1, 0x4000);
    m.core_mut(0).regs.write(SysReg::SpsrEl1, spsr::M_EL0T);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(2));
    assert_eq!(m.core(0).pstate.el, 0);
    assert_eq!(m.counter.traps_total(), 0);
}

fn neve_machine() -> (Machine, u64) {
    let mut m = machine(ArchLevel::V8_4);
    let page = 0x9000_0000u64;
    let v = VncrEl2::enabled_at(page).unwrap().raw();
    m.hyp_write(0, SysReg::VncrEl2, v);
    (m, page)
}

#[test]
fn neve_defers_vm_register_writes_to_memory_without_trapping() {
    // Paper Section 6.1: VM system register accesses are rewritten to
    // loads/stores on the deferred access page.
    let (mut m, page) = neve_machine();
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(2, 0xabcd));
    a.i(Instr::Msr(RegId::Plain(SysReg::VttbrEl2), 2));
    a.i(Instr::Mrs(3, RegId::Plain(SysReg::VttbrEl2)));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV | hcr::NV1 | hcr::NV2, 0x1000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(m.counter.traps_total(), 0, "no traps under NEVE");
    assert_eq!(m.core(0).gpr(3), 0xabcd, "read-back through the page");
    let off = vncr_offset(SysReg::VttbrEl2).unwrap() as u64;
    assert_eq!(m.mem.read_u64(page + off), 0xabcd, "slot holds the value");
    // The hardware register is untouched: only the page was written.
    assert_eq!(m.core(0).regs.read(SysReg::VttbrEl2), 0);
}

#[test]
fn neve_redirects_hypervisor_control_registers_to_el1() {
    // Paper Section 6.1 / Table 4: VBAR_EL2 redirects to VBAR_EL1.
    let (mut m, _) = neve_machine();
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(2, 0x7000));
    a.i(Instr::Msr(RegId::Plain(SysReg::VbarEl2), 2));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV | hcr::NV1 | hcr::NV2, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.counter.traps_total(), 0);
    assert_eq!(m.core(0).regs.read(SysReg::VbarEl1), 0x7000);
}

#[test]
fn neve_trap_on_write_registers_still_trap_writes_but_not_reads() {
    let (mut m, page) = neve_machine();
    // Host caches CNTVOFF's virtual value in the page.
    let off = vncr_offset(SysReg::CntvoffEl2).unwrap() as u64;
    m.mem.write_u64(page + off, 777);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Mrs(3, RegId::Plain(SysReg::CntvoffEl2)));
    a.i(Instr::Msr(RegId::Plain(SysReg::CntvoffEl2), 3));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV | hcr::NV1 | hcr::NV2, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.core(0).gpr(3), 777, "read served from cached copy");
    assert_eq!(m.counter.traps_total(), 1, "write trapped");
    assert_eq!(hyp.exits, vec![esr::EC_SYSREG]);
}

#[test]
fn el1_state_accesses_trap_for_non_vhe_guest_and_defer_under_neve() {
    // v8.3 + NV1: a non-VHE guest hypervisor's SCTLR_EL1 access is a VM
    // register access and traps (paper Section 4, second kind).
    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Mrs(1, RegId::Plain(SysReg::SctlrEl1)))
        .i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV | hcr::NV1, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.counter.traps_of(TrapKind::SysReg), 1);

    // Same access with NEVE: deferred, no trap.
    let (mut m, _) = neve_machine();
    let mut a = Asm::new(0x1000);
    a.i(Instr::Mrs(1, RegId::Plain(SysReg::SctlrEl1)))
        .i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV | hcr::NV1 | hcr::NV2, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.counter.traps_total(), 0);
}

#[test]
fn vhe_guest_el1_accesses_do_not_trap() {
    // Paper Section 5: a VHE guest hypervisor "simply accesses EL1
    // registers directly without trapping"; the host leaves NV1 clear.
    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(2, 0x123));
    a.i(Instr::Msr(RegId::Plain(SysReg::SctlrEl1), 2));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.counter.traps_total(), 0);
    assert_eq!(m.core(0).regs.read(SysReg::SctlrEl1), 0x123);
}

#[test]
fn el12_aliases_trap_on_v8_3_and_defer_under_neve() {
    // The VHE-added `*_EL12` names a VHE guest hypervisor uses for the
    // nested VM's state: always trap on v8.3 (Section 4, fourth kind)...
    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Msr(RegId::El12(SysReg::SctlrEl1), 2))
        .i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.counter.traps_of(TrapKind::SysReg), 1);

    // ...and are rewritten to the page with NEVE (Section 6.4).
    let (mut m, page) = neve_machine();
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(2, 0x5a5a));
    a.i(Instr::Msr(RegId::El12(SysReg::SctlrEl1), 2));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV | hcr::NV2, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.counter.traps_total(), 0);
    let off = vncr_offset(SysReg::SctlrEl1).unwrap() as u64;
    assert_eq!(m.mem.read_u64(page + off), 0x5a5a);

    // ...and are undefined without NV (they do not exist on v8.0):
    let mut m = machine(ArchLevel::V8_0);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Msr(RegId::El12(SysReg::SctlrEl1), 2));
    m.load(a.assemble());
    let mut v = Asm::new(0x8000);
    v.org(0x200);
    v.i(Instr::Halt(0xbad));
    m.load(v.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    m.core_mut(0).regs.write(SysReg::VbarEl1, 0x8000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0xbad));
}

#[test]
fn virtual_interrupt_delivery_and_trap_free_eoi() {
    // The Virtual EOI microbenchmark property (Tables 1/6): acknowledge
    // and complete entirely in hardware, zero traps.
    let mut m = machine(ArchLevel::V8_3);
    // Guest: unmask IRQs via an eret to self, then wait; handler reads
    // IAR, writes EOIR, halts.
    let mut a = Asm::new(0x1000);
    a.i(Instr::Nop).i(Instr::Nop).i(Instr::B(0x1004));
    m.load(a.assemble());
    let mut v = Asm::new(0x8000);
    v.org(0x280); // IRQ from current EL
    v.i(Instr::Mrs(1, RegId::Plain(SysReg::IccIar1El1)));
    v.i(Instr::Msr(RegId::Plain(SysReg::IccEoir1El1), 1));
    v.i(Instr::Halt(0));
    m.load(v.assemble());
    enter_guest(&mut m, 0, hcr::IMO | hcr::NV, 0x1000);
    m.core_mut(0).pstate.irq_masked = false;
    m.core_mut(0).regs.write(SysReg::VbarEl1, 0x8000);
    // Hypervisor injected a virtual interrupt beforehand.
    m.gic.ich_write(0, SysReg::IchHcrEl2, ICH_HCR_EN);
    m.gic.inject_virq(0, 27, 0x80);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 50), StepOutcome::Halted(0));
    assert_eq!(m.core(0).gpr(1), 27, "acknowledged vintid");
    assert_eq!(m.counter.traps_total(), 0, "no hypervisor involvement");
    assert_eq!(
        m.gic.ich_read(0, SysReg::IchEisrEl2),
        1,
        "EOI latched for the hypervisor"
    );
}

#[test]
fn stage2_abort_delivers_mmio_request() {
    let mut m = machine(ArchLevel::V8_3);
    // Identity stage-2 for RAM, nothing at the device address.
    let mut frames = FrameAlloc::new(0x0100_0000, 0x40_0000);
    let s2 = PageTable::new(&mut m.mem, &mut frames);
    for p in 0..16u64 {
        s2.map(&mut m.mem, &mut frames, p * 4096, p * 4096, Perms::RWX);
    }
    m.core_mut(0).regs.write(
        SysReg::VttbrEl2,
        neve_sysreg::bits::vttbr::build(1, s2.root),
    );
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(1, 0x0900_0000)); // device address, unmapped
    a.i(Instr::Ldr(2, 1, 8));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::VM, 0x1000);
    let mut hyp = FnHyp::new(|m: &mut Machine, cpu: usize, info: ExitInfo| {
        let req = m.take_mmio(cpu).expect("mmio request");
        assert!(!req.write);
        assert_eq!(req.ipa, 0x0900_0008);
        m.complete_mmio_read(cpu, req, 0xfeed);
        m.core_mut(cpu)
            .regs
            .write(SysReg::ElrEl2, info.elr.wrapping_add(4));
    });
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(m.core(0).gpr(2), 0xfeed);
    assert_eq!(m.counter.traps_of(TrapKind::Stage2Abort), 1);
}

#[test]
fn two_stage_translation_and_tlb_reuse() {
    let mut m = machine(ArchLevel::V8_3);
    let mut frames = FrameAlloc::new(0x0100_0000, 0x40_0000);
    // Stage-1: VA 0x20_0000 -> IPA 0x30_0000.
    let s1 = PageTable::new(&mut m.mem, &mut frames);
    s1.map(&mut m.mem, &mut frames, 0x20_0000, 0x30_0000, Perms::RWX);
    // Stage-2: IPA 0x30_0000 -> PA 0x40_0000, plus the S1 table pages
    // themselves (identity) so the walker can read them... the hardware
    // walker reads S1 descriptors as *physical* in this simulator
    // (documented simplification), so no extra mappings needed.
    let s2 = PageTable::new(&mut m.mem, &mut frames);
    s2.map(&mut m.mem, &mut frames, 0x30_0000, 0x40_0000, Perms::RWX);
    m.mem.write_u64(0x40_0018, 4242);
    m.core_mut(0).regs.write(SysReg::SctlrEl1, 1);
    m.core_mut(0).regs.write(SysReg::Ttbr0El1, s1.root);
    m.core_mut(0).regs.write(
        SysReg::VttbrEl2,
        neve_sysreg::bits::vttbr::build(3, s2.root),
    );
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(1, 0x20_0000));
    a.i(Instr::Ldr(2, 1, 0x18));
    a.i(Instr::Ldr(3, 1, 0x18));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::VM, 0x1000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(m.core(0).gpr(2), 4242);
    assert_eq!(m.core(0).gpr(3), 4242);
    let (hits, misses, _) = m.tlb.stats();
    assert_eq!(misses, 1, "first access walks");
    assert_eq!(hits, 1, "second access hits the TLB");
}

#[test]
fn sgi_write_traps_for_vms() {
    // The send half of the Virtual IPI microbenchmark: SGI generation
    // from a VM traps to the hypervisor for emulation (Section 5).
    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(1, 0b10)); // target cpu 1
    a.i(Instr::Msr(RegId::Plain(SysReg::IccSgi1rEl1), 1));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::IMO, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.counter.traps_of(TrapKind::SysReg), 1);
}

#[test]
fn wfi_traps_with_twi_and_idles_without() {
    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Wfi).i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::TWI, 0x1000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(m.counter.traps_of(TrapKind::Wfx), 1);

    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Wfi).i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Wfi);
}

#[test]
fn physical_irq_routes_to_el2_with_imo() {
    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Nop).i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::IMO, 0x1000);
    m.gic.dist.enable(0, 40);
    m.gic.dist.set_spi_target(40, 0);
    m.gic.dist.raise_spi(40);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(hyp.irqs, 1);
    assert_eq!(m.counter.traps_of(TrapKind::Irq), 1);
}

#[test]
fn smc_traps_with_tsc() {
    let mut m = machine(ArchLevel::V8_3);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Smc(1)).i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::TSC, 0x1000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(m.counter.traps_of(TrapKind::Smc), 1);
}

#[test]
fn trap_costs_match_section_5_measurements() {
    // The §5 validation: an hvc round trip costs trap-in (68-76) +
    // trap-out (65) plus nothing else when the handler does no work.
    let mut m = machine(ArchLevel::V8_0);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Hvc(0)).i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    let mut hyp = skipping_hyp();
    let snap = m.counter.snapshot();
    m.run(&mut hyp, 0, 10);
    let d = m.counter.delta_since(&snap);
    // hvc (free) + trap enter + trap return + halt fetch.
    assert!(
        (130..160).contains(&d.cycles),
        "round trip cost {} outside the §5 band",
        d.cycles
    );
}

#[test]
fn neve_disabled_vncr_means_v8_3_behaviour_even_on_v8_4() {
    // NV2 hardware with VNCR.Enable clear falls back to trapping.
    let mut m = machine(ArchLevel::V8_4);
    m.hyp_write(0, SysReg::VncrEl2, 0); // disabled
    let mut a = Asm::new(0x1000);
    a.i(Instr::Msr(RegId::Plain(SysReg::VttbrEl2), 2))
        .i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV | hcr::NV1 | hcr::NV2, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.counter.traps_of(TrapKind::SysReg), 1);
}

#[test]
fn gic_ich_registers_are_cached_reads_trap_writes_under_neve() {
    // Paper Table 5: list registers are cached copies.
    let (mut m, page) = neve_machine();
    let off = vncr_offset(SysReg::IchLrEl2(0)).unwrap() as u64;
    m.mem.write_u64(page + off, 0x1234);
    let mut a = Asm::new(0x1000);
    a.i(Instr::Mrs(1, RegId::Plain(SysReg::IchLrEl2(0))));
    a.i(Instr::Msr(RegId::Plain(SysReg::IchLrEl2(0)), 1));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, hcr::NV | hcr::NV1 | hcr::NV2, 0x1000);
    let mut hyp = skipping_hyp();
    m.run(&mut hyp, 0, 10);
    assert_eq!(m.core(0).gpr(1), 0x1234, "read from cached copy");
    assert_eq!(m.counter.traps_total(), 1, "write trapped");
}

#[test]
fn vhe_redirects_el1_names_to_el2_registers_at_el2() {
    // ARMv8.1 VHE (paper Section 2): with E2H set, EL1-named accesses
    // *at EL2* reach the EL2 registers, so an unmodified OS kernel runs
    // in EL2. (Guest programs normally never run at EL2 in the test
    // bed; this exercises the architectural path directly.)
    let mut m = machine(ArchLevel::V8_1);
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(2, 0x777));
    a.i(Instr::Msr(RegId::Plain(SysReg::VbarEl1), 2)); // redirected
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    m.core_mut(0).pstate = Pstate {
        el: 2,
        irq_masked: true,
        fiq_masked: true,
    };
    m.core_mut(0).pc = 0x1000;
    m.core_mut(0).regs.write(SysReg::HcrEl2, hcr::E2H);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(m.core(0).regs.read(SysReg::VbarEl2), 0x777, "redirected");
    assert_eq!(m.core(0).regs.read(SysReg::VbarEl1), 0, "EL1 untouched");
}

#[test]
fn el12_aliases_reach_el1_storage_from_el2_under_vhe() {
    let mut m = machine(ArchLevel::V8_1);
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(2, 0x123));
    a.i(Instr::Msr(RegId::El12(SysReg::SctlrEl1), 2));
    a.i(Instr::Mrs(3, RegId::El12(SysReg::SctlrEl1)));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    m.core_mut(0).pstate = Pstate {
        el: 2,
        irq_masked: true,
        fiq_masked: true,
    };
    m.core_mut(0).pc = 0x1000;
    m.core_mut(0).regs.write(SysReg::HcrEl2, hcr::E2H);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(m.core(0).regs.read(SysReg::SctlrEl1), 0x123);
    assert_eq!(m.core(0).gpr(3), 0x123);
}

#[test]
fn out_of_range_physical_access_aborts_instead_of_panicking() {
    // A guest with the MMU off and a wild pointer takes an external
    // abort to its own EL1 — never a simulator panic.
    let mut m = machine(ArchLevel::V8_0);
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(1, 1 << 62));
    a.i(Instr::Ldr(2, 1, 0));
    m.load(a.assemble());
    let mut v = Asm::new(0x8000);
    v.org(0x200);
    v.i(Instr::Halt(0xab));
    m.load(v.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    m.core_mut(0).regs.write(SysReg::VbarEl1, 0x8000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0xab));
}

#[test]
fn tlb_caches_walked_perms_and_permission_miss_rewalks_like_cold_miss() {
    // The TLB must cache the permissions the walk actually returned
    // (not a blanket RWX), so a later access the page does not permit
    // re-walks and faults instead of silently succeeding from the
    // cache. The re-walk reaches the leaf before the permission check,
    // so it charges PageWalkLevel exactly like the cold miss did.
    let mut m = machine(ArchLevel::V8_3);
    let mut frames = FrameAlloc::new(0x0100_0000, 0x40_0000);
    let s1 = PageTable::new(&mut m.mem, &mut frames);
    let ro = Perms {
        r: true,
        w: false,
        x: false,
    };
    s1.map(&mut m.mem, &mut frames, 0x20_0000, 0x30_0000, ro);
    m.core_mut(0).regs.write(SysReg::SctlrEl1, 1);
    m.core_mut(0).regs.write(SysReg::Ttbr0El1, s1.root);
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(1, 0x20_0000));
    a.i(Instr::Ldr(2, 1, 0)); // cold miss: full walk
    a.i(Instr::Ldr(3, 1, 0)); // TLB hit, read permitted
    a.i(Instr::Str(1, 1, 0)); // hit, but write not cached as allowed
    a.i(Instr::Halt(9));
    m.load(a.assemble());
    let mut v = Asm::new(0x8000);
    v.org(0x200);
    v.i(Instr::Halt(0xab));
    m.load(v.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    m.core_mut(0).regs.write(SysReg::VbarEl1, 0x8000);
    let mut hyp = skipping_hyp();

    assert_eq!(m.step(&mut hyp, 0), StepOutcome::Executed); // MovImm
    assert_eq!(m.step(&mut hyp, 0), StepOutcome::Executed); // cold Ldr
    let cold_walk = m.counter.events_of(Event::PageWalkLevel);
    assert!(cold_walk > 0, "cold miss must walk");
    assert_eq!(m.step(&mut hyp, 0), StepOutcome::Executed); // warm Ldr
    assert_eq!(
        m.counter.events_of(Event::PageWalkLevel),
        cold_walk,
        "TLB hit must not walk"
    );
    assert_eq!(m.step(&mut hyp, 0), StepOutcome::Executed); // Str
    assert_eq!(
        m.counter.events_of(Event::PageWalkLevel),
        2 * cold_walk,
        "permission-mismatched hit re-walks exactly like a cold miss"
    );
    // The write permission-faulted into the guest's own EL1 vector —
    // no hypervisor trap, and the cached RO entry never honored it.
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0xab));
    assert_eq!(m.counter.traps_total(), 0);
    let (hits, misses, _) = m.tlb.stats();
    assert_eq!(misses, 1, "only the first access misses");
    assert_eq!(hits, 2, "warm read and the mismatched write both hit");
}

#[test]
fn oversized_shift_immediates_wrap_instead_of_panicking() {
    // `lsl/lsr` with a shift >= 64 used to panic the interpreter in
    // debug builds; AArch64 semantics take the amount modulo the
    // register width.
    let mut m = machine(ArchLevel::V8_0);
    let mut a = Asm::new(0x1000);
    a.i(Instr::MovImm(1, 0xabcd));
    a.i(Instr::LslImm(2, 1, 64)); // == shift by 0
    a.i(Instr::LsrImm(3, 1, 68)); // == shift by 4
    a.i(Instr::LslImm(4, 1, 63));
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    enter_guest(&mut m, 0, 0, 0x1000);
    let mut hyp = skipping_hyp();
    assert_eq!(m.run(&mut hyp, 0, 10), StepOutcome::Halted(0));
    assert_eq!(m.core(0).gpr(2), 0xabcd);
    assert_eq!(m.core(0).gpr(3), 0xabcd >> 4);
    assert_eq!(m.core(0).gpr(4), 0xabcd_u64.wrapping_shl(63));
}

#[test]
fn observers_force_the_reference_interpreter() {
    use crate::fault::FaultPlan;
    use crate::uop::Engine;
    let mut m = machine(ArchLevel::V8_3);
    assert_eq!(m.active_engine(), Engine::Uop, "uop engine is the default");
    m.attach_checker();
    assert_eq!(
        m.active_engine(),
        Engine::Interp,
        "a checker must force the oracle interpreter"
    );
    assert!(m.take_checker().is_some());
    assert_eq!(
        m.active_engine(),
        Engine::Uop,
        "detaching restores the fast path"
    );
    m.attach_trace(16);
    assert_eq!(
        m.active_engine(),
        Engine::Interp,
        "a trace must force the oracle interpreter"
    );
    let mut m2 = machine(ArchLevel::V8_3);
    m2.attach_fault_plan(FaultPlan::new(vec![]));
    assert_eq!(
        m2.active_engine(),
        Engine::Interp,
        "a fault plan must force the oracle interpreter"
    );
    let mut m3 = machine(ArchLevel::V8_3);
    m3.set_engine(Engine::Interp);
    assert_eq!(m3.active_engine(), Engine::Interp);
    m3.set_engine(Engine::Uop);
    assert_eq!(m3.active_engine(), Engine::Uop);
}

#[test]
fn replace_program_invalidates_stale_fetch_hints() {
    use crate::uop::Engine;
    for engine in [Engine::Uop, Engine::Interp] {
        let mut m = machine(ArchLevel::V8_3);
        m.set_engine(engine);
        // Two disjoint programs; execute inside the second so cpu 0's
        // fetch hint points at its entry.
        let mut a = Asm::new(0x10_0000);
        a.i(Instr::MovImm(0, 1));
        a.i(Instr::Halt(1));
        m.load(a.assemble());
        let mut b = Asm::new(0x20_0000);
        b.i(Instr::MovImm(1, 7));
        b.i(Instr::MovImm(2, 8));
        b.i(Instr::Halt(2));
        m.load(b.assemble());
        enter_guest(&mut m, 0, 0, 0x20_0000);
        let mut hyp = skipping_hyp();
        assert_eq!(m.step(&mut hyp, 0), StepOutcome::Executed);
        assert_eq!(m.core(0).gpr(1), 7);
        // Replace the program under the warm hint: same range,
        // different code. The stale hint must never serve the old
        // image, and the pre-decoded micro-ops must be rebuilt too.
        let mut nb = Asm::new(0x20_0000);
        nb.i(Instr::MovImm(3, 99));
        nb.i(Instr::Halt(3));
        assert_eq!(m.replace_program(nb.assemble()), 1);
        assert_eq!(m.peek(0x20_0000), Some(Instr::MovImm(3, 99)));
        assert_eq!(
            m.compiled_programs()
                .iter()
                .map(|c| c.base)
                .collect::<Vec<_>>(),
            vec![0x10_0000, 0x20_0000],
            "compiled images track the program list"
        );
        m.core_mut(0).pc = 0x20_0000;
        assert_eq!(m.step(&mut hyp, 0), StepOutcome::Executed);
        assert_eq!(m.core(0).gpr(3), 99, "engine {engine:?} fetched stale code");
        assert_eq!(m.step(&mut hyp, 0), StepOutcome::Halted(3));
    }
}

#[test]
fn replace_program_unloads_every_overlapping_image() {
    let prog = |base: u64, n: usize| {
        let mut a = Asm::new(base);
        for _ in 0..n {
            a.i(Instr::Nop);
        }
        a.assemble()
    };
    let mut m = machine(ArchLevel::V8_3);
    m.load(prog(0x1000, 2)); // [0x1000, 0x1008)
    m.load(prog(0x1010, 2)); // [0x1010, 0x1018)
                             // [0x1004, 0x1014) straddles both.
    assert_eq!(m.replace_program(prog(0x1004, 4)), 2);
    assert_eq!(m.compiled_programs().len(), 1);
    assert_eq!(m.peek(0x1000), None, "unloaded range must not fetch");
    assert_eq!(m.peek(0x1004), Some(Instr::Nop));
    // Replacing a vacant range removes nothing.
    assert_eq!(m.replace_program(prog(0x8000, 1)), 0);
}
