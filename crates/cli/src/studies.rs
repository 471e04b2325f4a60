//! The paper's validation and ablation studies (`neve ablations`): the
//! Section 5 trap-cost study, then Ablations A-E (DESIGN.md's experiment
//! index). Each study prints its rows; a study whose claim does not hold
//! returns an error, so the command exits non-zero.

use crate::args;
use crate::commands::{per_op, target, Target};
use neve_armv8::isa::{Asm, Instr};
use neve_armv8::machine::{ExitInfo, Hypervisor, Machine, MachineConfig};
use neve_armv8::pstate::Pstate;
use neve_armv8::ArchLevel;
use neve_core::engine::NeveFeatures;
use neve_cycles::counter::PerOp;
use neve_kvmarm::{ArmConfig, MicroBench, ParaMode};
use neve_sysreg::bits::{esr, hcr};
use neve_sysreg::{RegId, SysReg};

/// Section 5's measured EL1->EL2 trap cost in cycles (range).
const TRAP_ENTER_RANGE: (u64, u64) = (68, 76);
/// Section 5's measured trap return cost in cycles.
const TRAP_RETURN: u64 = 65;

/// Runs every study in turn (`neve ablations`).
pub(crate) fn ablations_cmd(_: &args::Parsed) -> Result<(), String> {
    trap_cost()?;
    println!();
    paravirt()?;
    println!();
    mechanism_study()?;
    println!();
    vmcs_shadowing()?;
    println!();
    designs()?;
    println!();
    vhe_host_study()
}

/// Iterations per study cell: the evaluation matrix's counts.
fn iters(bench: MicroBench) -> u64 {
    if bench == MicroBench::VirtualIpi {
        10
    } else {
        24
    }
}

/// One study cell on a configuration named as `neve micro --config`
/// names it.
fn op(config: &str, bench: MicroBench) -> Result<PerOp, String> {
    per_op(target(config)?, bench, iters(bench), |_| {})
}

/// A nested KVM configuration, including the paravirtualized ones the
/// command-line names do not cover.
fn nested(guest_vhe: bool, neve: bool, para: ParaMode) -> Target {
    Target::Arm {
        cfg: ArmConfig::Nested {
            guest_vhe,
            neve,
            para,
        },
        xen: false,
    }
}

/// A host that skips each trapping instruction without doing any work:
/// isolates the hardware trap cost.
struct NullHyp;

impl Hypervisor for NullHyp {
    fn handle_sync(&mut self, m: &mut Machine, cpu: usize, info: ExitInfo) {
        if esr::ec(info.esr) != esr::EC_HVC64 {
            m.core_mut(cpu).regs.write(SysReg::ElrEl2, info.elr + 4);
        }
    }
    fn handle_irq(&mut self, _m: &mut Machine, _cpu: usize) {}
}

/// One trap round trip from EL1 under `hcr_bits`, in cycles.
fn trap_round_trip(label: &str, trapping: Instr, hcr_bits: u64, arch: ArchLevel) -> u64 {
    let mut m = Machine::new(MachineConfig {
        arch,
        ncpus: 1,
        mem_size: 1 << 30,
        cost: Default::default(),
    });
    let mut a = Asm::new(0x1000);
    a.i(trapping);
    a.i(Instr::Halt(0));
    m.load(a.assemble());
    m.core_mut(0).pstate = Pstate {
        el: 1,
        irq_masked: true,
        fiq_masked: true,
    };
    m.core_mut(0).pc = 0x1000;
    m.core_mut(0).regs.write(SysReg::HcrEl2, hcr_bits);
    let snap = m.counter.snapshot();
    m.run(&mut NullHyp, 0, 10);
    // The Halt fetch is free, so the delta is the round trip alone.
    let d = m.counter.delta_since(&snap);
    println!(
        "  {label:<34} round trip = {:>4} cycles ({} traps)",
        d.cycles, d.traps
    );
    d.cycles
}

/// The Section 5 trap-cost study: traps from EL1 to EL2 cost the same
/// regardless of the trapping instruction, so `hvc` stands in for them.
fn trap_cost() -> Result<(), String> {
    println!("Section 5 validation: trap costs across trapping instructions");
    println!("==============================================================");
    println!(
        "Paper: EL1->EL2 trap {}-{} cycles, return {TRAP_RETURN} cycles; variation < 10%.",
        TRAP_ENTER_RANGE.0, TRAP_ENTER_RANGE.1
    );
    println!();
    let mut costs = [
        trap_round_trip("hvc (explicit trap)", Instr::Hvc(0), 0, ArchLevel::V8_0),
        trap_round_trip(
            "msr VBAR_EL2 (EL2 sysreg, NV)",
            Instr::Msr(RegId::Plain(SysReg::VbarEl2), 1),
            hcr::NV,
            ArchLevel::V8_3,
        ),
        trap_round_trip(
            "mrs SCTLR_EL1 (EL1 sysreg, NV1)",
            Instr::Mrs(1, RegId::Plain(SysReg::SctlrEl1)),
            hcr::NV | hcr::NV1,
            ArchLevel::V8_3,
        ),
        trap_round_trip("eret (trapped, NV)", Instr::Eret, hcr::NV, ArchLevel::V8_3),
        trap_round_trip(
            "msr SCTLR_EL12 (VHE alias, NV)",
            Instr::Msr(RegId::El12(SysReg::SctlrEl1), 1),
            hcr::NV,
            ArchLevel::V8_3,
        ),
    ];
    costs.sort();
    let spread = (costs[costs.len() - 1] - costs[0]) as f64 / costs[0] as f64;
    println!();
    println!(
        "Spread across instructions: {:.1}% (paper: <10%) -- hvc is a valid stand-in",
        spread * 100.0
    );
    if spread >= 0.10 {
        return Err(format!(
            "trap-cost interchangeability violated: {:.1}% spread",
            spread * 100.0
        ));
    }
    Ok(())
}

/// Ablation A, the paper's methodology validation: replacing would-trap
/// instructions with `hvc` on ARMv8.0 (Section 3), or with loads/stores
/// plus EL1 redirects for NEVE (Section 6.4), reproduces the unmodified
/// hypervisor on ARMv8.3/v8.4.
fn paravirt() -> Result<(), String> {
    println!("Ablation A: paravirtualization fidelity (paper Sections 3-5)");
    println!("=============================================================");
    for bench in [MicroBench::Hypercall, MicroBench::DeviceIo] {
        println!("\n{bench:?}:");
        let run = |t| per_op(t, bench, iters(bench), |_| {});
        for vhe in [false, true] {
            let native = run(nested(vhe, false, ParaMode::None))?;
            let para = run(nested(vhe, false, ParaMode::HvcV83))?;
            println!(
                "  v8.3 vhe={vhe:<5}: native {:>7} cyc / {:>5.1} traps   para-v8.0 {:>7} cyc / {:>5.1} traps   (trap ratio {:.3})",
                native.cycles, native.traps, para.cycles, para.traps,
                para.traps / native.traps
            );
        }
        let native = run(nested(false, true, ParaMode::None))?;
        let para = run(nested(false, true, ParaMode::NeveLs))?;
        println!(
            "  NEVE          : native {:>7} cyc / {:>5.1} traps   para-v8.0 {:>7} cyc / {:>5.1} traps   (trap ratio {:.3})",
            native.cycles, native.traps, para.cycles, para.traps,
            para.traps / native.traps.max(1.0)
        );
    }
    println!("\nThe paper's assumption holds when trap ratios are ~1.0.");
    Ok(())
}

/// Ablation B's rows: the nested hypercall (non-VHE guest hypervisor)
/// under full NEVE, with each of its three mechanisms (Section 6)
/// disabled in turn, and on ARMv8.3 without NEVE.
fn mechanisms() -> Result<Vec<(&'static str, PerOp)>, String> {
    let neve = target("neve")?;
    let bench = MicroBench::Hypercall;
    let with = |tweak: fn(&mut NeveFeatures)| {
        per_op(neve, bench, iters(bench), |tb| {
            for cpu in 0..tb.m.ncpus() {
                tweak(&mut tb.m.core_mut(cpu).neve.features);
            }
        })
    };
    Ok(vec![
        ("full NEVE", with(|_| {})?),
        (
            "without VM-register deferral",
            with(|f| f.defer_vm_regs = false)?,
        ),
        ("without EL1 redirection", with(|f| f.redirect_el1 = false)?),
        (
            "without cached-copy reads",
            with(|f| f.cached_reads = false)?,
        ),
        ("ARMv8.3 (no NEVE at all)", op("v83", bench)?),
    ])
}

/// Ablation B: each NEVE mechanism's share of the trap reduction.
fn mechanism_study() -> Result<(), String> {
    println!("Ablation B: NEVE mechanism contributions (hypercall microbenchmark)");
    println!("===================================================================");
    let rows = mechanisms()?;
    for (label, p) in &rows {
        println!(
            "  {label:<32}: {:>7} cycles, {:>5.1} traps",
            p.cycles, p.traps
        );
    }
    println!();
    println!("Each mechanism's removal restores a distinct slice of the exit");
    println!("multiplication; deferral of VM registers is the largest single win.");
    let full = rows[0].1.traps;
    for (label, p) in &rows[1..4] {
        if p.traps <= full {
            return Err(format!(
                "Ablation B: running {label} does not add traps to full NEVE's {full:.1}"
            ));
        }
    }
    Ok(())
}

/// Ablation C (Section 8): VMCS shadowing on and off.
fn vmcs_shadowing() -> Result<(), String> {
    println!("Ablation C: VMCS shadowing (paper Section 8: ~10% application-level win)");
    println!("========================================================================");
    for bench in [
        MicroBench::Hypercall,
        MicroBench::DeviceIo,
        MicroBench::VirtualIpi,
    ] {
        let on = op("x86-nested", bench)?;
        let off = op("x86-noshadow", bench)?;
        println!(
            "  {bench:?}: shadowing ON {:>6} cyc / {:>4.1} exits   OFF {:>6} cyc / {:>4.1} exits   ({:.2}x cycles, {:.1}x exits)",
            on.cycles, on.traps, off.cycles, off.traps,
            off.cycles as f64 / on.cycles as f64,
            off.traps / on.traps
        );
    }
    println!();
    println!("Shadowing removes the vmread/vmwrite exits of the guest hypervisor's");
    println!("world switch, the VMCS analogue of what NEVE does for ARM system");
    println!("registers (paper Section 8's comparison).");
    Ok(())
}

/// Ablation D (Section 6.5): three guest hypervisor designs under
/// nesting — non-VHE KVM (full EL1 context churn on every exit), VHE
/// KVM (less), and standalone Xen (cheap hypercalls, expensive VM
/// switches through Dom0) — each on ARMv8.3 and on NEVE.
fn designs() -> Result<(), String> {
    println!("Ablation D: guest hypervisor designs under nesting (Section 6.5)");
    println!("================================================================");
    for bench in [MicroBench::Hypercall, MicroBench::DeviceIo] {
        println!("\n{bench:?}:");
        for (name, v83, neve) in [
            ("KVM non-VHE", "v83", "neve"),
            ("KVM VHE    ", "v83-vhe", "neve-vhe"),
            ("Xen        ", "v83-xen", "neve-xen"),
        ] {
            let v83 = op(v83, bench)?;
            let neve = op(neve, bench)?;
            println!(
                "  {name}: ARMv8.3 {:>7} cyc / {:>5.1} traps   NEVE {:>6} cyc / {:>4.1} traps   ({:.1}x fewer traps)",
                v83.cycles, v83.traps, neve.cycles, neve.traps, v83.traps / neve.traps.max(1.0)
            );
        }
    }
    println!();
    println!("Xen's hypercall path skips the VM-register churn entirely (its own");
    println!("execution never touches them), but its Dom0-routed device I/O pays the");
    println!("full switch — and every design gains from NEVE, as Section 6.5 argues.");
    Ok(())
}

/// Ablation E's rows: the nested hypercall on ARMv8.3 and on NEVE, each
/// under a non-VHE and a VHE host hypervisor.
fn host_modes() -> Result<Vec<(&'static str, PerOp, PerOp)>, String> {
    let bench = MicroBench::Hypercall;
    [("ARMv8.3", "v83"), ("NEVE   ", "neve")]
        .into_iter()
        .map(|(name, config)| {
            let plain = op(config, bench)?;
            let vhe = per_op(target(config)?, bench, iters(bench), |tb| {
                tb.host_vhe();
            })?;
            Ok((name, plain, vhe))
        })
        .collect()
}

/// Ablation E: the paper's host ran on ARMv8.0 and paid a full EL1
/// context swap on every trap; a VHE host (Dall et al., ATC'17, the
/// paper's reference 16) handles traps with its kernel already in EL2.
/// It cuts the cost of each trap, never their number.
fn vhe_host_study() -> Result<(), String> {
    println!("Ablation E: non-VHE vs VHE host hypervisor (nested hypercall)");
    println!("=============================================================");
    let rows = host_modes()?;
    for (name, plain, vhe) in &rows {
        println!(
            "  {name}: non-VHE host {:>7} cyc   VHE host {:>7} cyc   ({:.2}x faster; traps unchanged at {:.0})",
            plain.cycles,
            vhe.cycles,
            plain.cycles as f64 / vhe.cycles as f64,
            vhe.traps
        );
    }
    println!();
    println!("A VHE host reduces the *cost* of each trap; NEVE reduces the *number*.");
    println!("The two compose: the fully-optimized stack is VHE host + NEVE guest.");
    for (name, plain, vhe) in &rows {
        if plain.traps != vhe.traps {
            return Err(format!(
                "Ablation E: the host mode changed {}'s trap count ({} -> {})",
                name.trim_end(),
                plain.traps,
                vhe.traps
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_run_and_their_checks_hold() {
        ablations_cmd(&args::Parsed::default()).expect("every study's check holds");
    }

    /// The trap counts EXPERIMENTS.md records for Ablations B and E.
    #[test]
    fn ablation_trap_counts_match_the_experiments_record() {
        let traps: Vec<f64> = mechanisms().unwrap().iter().map(|r| r.1.traps).collect();
        assert_eq!(traps, [15.0, 88.0, 23.0, 26.0, 107.0]);
        let hosts: Vec<(f64, f64)> = host_modes()
            .unwrap()
            .iter()
            .map(|(_, plain, vhe)| (plain.traps, vhe.traps))
            .collect();
        assert_eq!(hosts, [(107.0, 107.0), (15.0, 15.0)]);
    }
}
