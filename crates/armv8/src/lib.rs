//! ARMv8 CPU and machine model for the NEVE simulator.
//!
//! The crate provides the *hardware* the hypervisors in `neve-kvmarm` run
//! on:
//!
//! - [`isa`]: a small AArch64-like instruction set and assembler. Guest
//!   software (guest hypervisors, nested VMs, test payloads) is built as
//!   instruction streams and *interpreted*, so privileged instructions
//!   genuinely execute deprivileged and genuinely trap per the
//!   architecture rules — trap counts in the experiments are emergent,
//!   not constants.
//! - [`pstate`] / [`cpu`]: per-core architectural state.
//! - [`machine`]: the machine — physical memory, GIC, timers, TLB, cycle
//!   accounting, and the run loop. Exceptions *to EL2* invoke native Rust
//!   software (the host hypervisor, via the [`machine::Hypervisor`]
//!   trait); exceptions *to EL1* are pure state mutation, after which the
//!   interpreter simply continues at the guest's vector — the paper's
//!   nested reflection (Section 4) falls out of these two rules.
//!
//! Architecture levels ([`ArchLevel`]) gate the virtualization features
//! exactly as the paper stages them: v8.0 (baseline, hypervisor
//! instructions at EL1 are UNDEFINED), v8.1 (VHE), v8.3 (nested
//! virtualization: trapping, `CurrentEL` disguise), v8.4 (NEVE).

pub mod check;
pub mod cpu;
pub mod fault;
pub mod fuzzgen;
pub mod host;
pub mod isa;
pub mod machine;
pub mod pstate;
pub mod trace;
pub mod uop;

pub use check::{Checker, Violation, ViolationKind};
pub use cpu::CoreState;
pub use fault::{FaultPlan, InjectedFault, Injection, BUILTIN_PLANS};
pub use host::{boot_harness, harness_machine, install_stage2, EmulHyp, SkipHyp};
pub use isa::{Asm, Instr, Label, Program, Special};
pub use machine::{
    ExecSpec, Executed, ExitInfo, Hypervisor, Machine, MachineConfig, MachineSnapshot, MmioRequest,
    StepOutcome, Stop,
};
pub use pstate::Pstate;
pub use trace::{Trace, TraceEvent};
pub use uop::{CompiledProgram, Engine, Uop};

/// The architecture revision the simulated hardware implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArchLevel {
    /// ARMv8.0: VE only. Hypervisor instructions executed at EL1 are
    /// UNDEFINED (exception *to EL1*), the behaviour the paper's
    /// paravirtualization works around (Section 3).
    V8_0,
    /// ARMv8.1: adds the Virtualization Host Extensions (`HCR_EL2.E2H`).
    V8_1,
    /// ARMv8.3: adds nested virtualization (`HCR_EL2.{NV,NV1}`).
    V8_3,
    /// ARMv8.4: adds NEVE (`HCR_EL2.NV2` + `VNCR_EL2`).
    V8_4,
}

impl ArchLevel {
    /// VHE available (v8.1+).
    pub fn has_vhe(self) -> bool {
        self >= ArchLevel::V8_1
    }

    /// Nested virtualization available (v8.3+).
    pub fn has_nv(self) -> bool {
        self >= ArchLevel::V8_3
    }

    /// NEVE available (v8.4).
    pub fn has_nv2(self) -> bool {
        self >= ArchLevel::V8_4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_levels_are_cumulative() {
        assert!(!ArchLevel::V8_0.has_vhe());
        assert!(ArchLevel::V8_1.has_vhe());
        assert!(!ArchLevel::V8_1.has_nv());
        assert!(ArchLevel::V8_3.has_nv());
        assert!(!ArchLevel::V8_3.has_nv2());
        assert!(ArchLevel::V8_4.has_nv2());
        assert!(ArchLevel::V8_4.has_vhe());
    }
}

#[cfg(test)]
mod machine_tests;
