//! Cycle accounting and calibrated cost model for the NEVE simulator.
//!
//! The NEVE paper ("NEVE: Nested Virtualization Extensions for ARM",
//! SOSP '17) evaluates architecture changes by counting *traps* and the
//! *cycles* spent in each part of the virtualization stack. Because this
//! reproduction runs on a simulator rather than Applied Micro Atlas or Xeon
//! silicon, every hardware-visible operation is charged against a
//! [`CostModel`] whose constants are documented and, where the paper reports
//! a measurement, calibrated to it (Section 5 of the paper measured traps
//! from EL1 to EL2 at 68-76 cycles and trap returns at 65 cycles).
//!
//! The crate provides:
//!
//! - [`CostModel`]: named cycle costs for ARM and x86 primitives.
//! - [`CycleCounter`]: an accumulator shared by every component of a
//!   simulated machine, with per-event statistics.
//! - [`TrapKind`] / [`Event`]: classification of what happened, so that the
//!   Table 7 trap-count reproduction can break down *why* the hypervisor was
//!   entered.

pub mod cost;
pub mod counter;
pub mod fault;
pub mod sched;

pub use cost::{ArmCosts, CostModel, CostTable, SoftwareCosts, X86Costs};
pub use counter::{CounterSnapshot, CycleCounter, Delta, Measured};
pub use fault::{FaultCause, SimFault};
pub use sched::{EventKey, Waker, Wheel};

/// Classification of a trap (exception taken to a hypervisor).
///
/// Trap counts per microbenchmark iteration are the core quantity behind the
/// paper's Table 7; keeping the reason lets the harness explain *where* the
/// exit multiplication comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrapKind {
    /// `hvc` issued by software at EL1 (a hypercall, or a paravirtualized
    /// hypervisor instruction on ARMv8.0 per Section 3 of the paper).
    Hvc,
    /// `smc` issued at EL1 and trapped by `HCR_EL2.TSC`.
    Smc,
    /// A system-register access trapped to EL2 (MSR/MRS).
    SysReg,
    /// An `eret` executed at EL1 trapped by the nested-virtualization
    /// support (`HCR_EL2.NV`).
    Eret,
    /// A Stage-2 translation fault (used for MMIO emulation and shadow
    /// page-table construction).
    Stage2Abort,
    /// A Stage-1 abort forwarded to the hypervisor while `HCR_EL2.TGE` is
    /// set.
    Stage1Abort,
    /// A physical interrupt routed to EL2 (`HCR_EL2.IMO`).
    Irq,
    /// `wfi`/`wfe` trapped by `HCR_EL2.TWI`/`TWE`.
    Wfx,
    /// `svc` routed to EL2 by `HCR_EL2.TGE` (hosted-mode syscalls).
    Svc,
    /// x86: a `vmcall` from non-root mode.
    VmCall,
    /// x86: `vmread`/`vmwrite` executed in non-root mode without VMCS
    /// shadowing.
    VmcsAccess,
    /// x86: `vmlaunch`/`vmresume` executed in non-root mode.
    VmEntryInstr,
    /// x86: other privileged VMX instruction (`vmptrld`, `invept`, ...).
    VmxOther,
    /// x86: external interrupt exit.
    ExtInt,
    /// x86: I/O port or MMIO (EPT violation) exit.
    IoAccess,
    /// x86: APIC access / interrupt-window exit.
    ApicAccess,
}

impl TrapKind {
    /// Number of trap kinds (flat-array sizing).
    pub const COUNT: usize = 16;

    /// Every kind, declaration (= `Ord`) order.
    pub fn all() -> [TrapKind; Self::COUNT] {
        [
            TrapKind::Hvc,
            TrapKind::Smc,
            TrapKind::SysReg,
            TrapKind::Eret,
            TrapKind::Stage2Abort,
            TrapKind::Stage1Abort,
            TrapKind::Irq,
            TrapKind::Wfx,
            TrapKind::Svc,
            TrapKind::VmCall,
            TrapKind::VmcsAccess,
            TrapKind::VmEntryInstr,
            TrapKind::VmxOther,
            TrapKind::ExtInt,
            TrapKind::IoAccess,
            TrapKind::ApicAccess,
        ]
    }

    /// Dense index in `0..COUNT` (declaration order; the counter's
    /// flat arrays are indexed by this).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// A world-switch phase: which part of the virtualization stack the
/// machine is currently executing on behalf of.
///
/// The counter attributes every charged cycle and every recorded trap to
/// the phase active at the time, giving the per-phase anatomy of a
/// nested world switch that Section 5 of the paper narrates in prose.
/// Phase bookkeeping is always on (it is pure accounting and never
/// feeds back into costs), so attaching a trace cannot perturb the
/// measured numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Phase {
    /// Guest/payload instructions (any interpreted EL0/EL1 code,
    /// including deprivileged guest hypervisors). The default.
    #[default]
    Guest,
    /// Hardware exception entry into EL2.
    TrapEntry,
    /// Host-hypervisor software outside any finer-grained phase
    /// (exit decode, handler dispatch, the host-kernel round trip).
    HostSw,
    /// EL1 context save (hardware EL1 leaves for the stage or the
    /// virtual-EL2 image).
    El1Save,
    /// EL1 context restore (staged or virtual-EL2 state enters
    /// hardware EL1).
    El1Restore,
    /// GIC hypervisor-interface save/restore (list registers, VMCR).
    GicSwitch,
    /// Timer context save/restore.
    TimerSwitch,
    /// Trapped system-register emulation for the guest hypervisor.
    SysRegEmul,
    /// Trapped-`eret` emulation: the nested world switch proper.
    EretEmul,
    /// NEVE deferred-access-page maintenance (populate/harvest).
    VncrRefresh,
    /// Hardware `eret` from EL2 back to the guest.
    TrapReturn,
    /// Simulated idle time: the event-wheel run loop jumping the clock
    /// over a window in which every core was parked (WFI/halted). No
    /// instruction executes during these cycles; keeping them in their
    /// own phase lets consolidation workloads separate "the host did
    /// work" from "simulated time passed".
    Idle,
}

impl Phase {
    /// Number of phases (flat-array sizing).
    pub const COUNT: usize = 12;

    /// Dense index in `0..COUNT` (declaration order, which matches
    /// [`Phase::all`]'s world-switch order).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Every phase, in world-switch order.
    pub fn all() -> [Phase; 12] {
        [
            Phase::Guest,
            Phase::TrapEntry,
            Phase::HostSw,
            Phase::El1Save,
            Phase::El1Restore,
            Phase::GicSwitch,
            Phase::TimerSwitch,
            Phase::SysRegEmul,
            Phase::EretEmul,
            Phase::VncrRefresh,
            Phase::TrapReturn,
            Phase::Idle,
        ]
    }

    /// Stable machine-readable label (JSON keys, cache schema).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Guest => "guest",
            Phase::TrapEntry => "trap_entry",
            Phase::HostSw => "host_sw",
            Phase::El1Save => "el1_save",
            Phase::El1Restore => "el1_restore",
            Phase::GicSwitch => "gic_switch",
            Phase::TimerSwitch => "timer_switch",
            Phase::SysRegEmul => "sysreg_emul",
            Phase::EretEmul => "eret_emul",
            Phase::VncrRefresh => "vncr_refresh",
            Phase::TrapReturn => "trap_return",
            Phase::Idle => "idle",
        }
    }

    /// The inverse of [`Phase::label`].
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::all().into_iter().find(|p| p.label() == label)
    }
}

/// A cost-bearing event, charged against a [`CycleCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// A generic interpreted instruction (ALU, branch, move).
    Instr,
    /// An untrapped system-register read.
    SysRegRead,
    /// An untrapped system-register write.
    SysRegWrite,
    /// A data memory load.
    MemLoad,
    /// A data memory store.
    MemStore,
    /// A trap from a lower exception level into the hypervisor
    /// (EL1 -> EL2 on ARM; a VM exit on x86).
    TrapEnter,
    /// Return from the hypervisor to the lower level (`eret` from EL2, VM
    /// entry on x86).
    TrapReturn,
    /// An exception delivered within/into EL1 (e.g. an emulated virtual EL2
    /// exception entry, or an `svc`).
    El1ExceptionEntry,
    /// An `eret` executed natively (not trapped).
    EretNative,
    /// Barrier instruction (`isb`/`dsb`).
    Barrier,
    /// One level of a page-table walk.
    PageWalkLevel,
    /// A TLB invalidation operation.
    TlbFlush,
    /// Generic software work cycles (modelled C-code paths in a
    /// hypervisor); carries no own constant, the caller provides cycles.
    SoftwareWork,
    /// x86: hardware VMCS state save on VM exit.
    VmcsHwSave,
    /// x86: hardware VMCS state load on VM entry.
    VmcsHwLoad,
    /// x86: a `vmread` satisfied without a VM exit.
    VmRead,
    /// x86: a `vmwrite` satisfied without a VM exit.
    VmWrite,
    /// Interrupt delivery through the (virtual) interrupt controller
    /// without hypervisor involvement (e.g. virtual EOI, Table 1/6's only
    /// trap-free row).
    DirectIrqOp,
}

impl Event {
    /// Number of events (sizes the precomputed cost table and the
    /// counter's flat per-event array).
    pub const COUNT: usize = 18;

    /// Every event, declaration (= `Ord`) order.
    pub fn all() -> [Event; Self::COUNT] {
        [
            Event::Instr,
            Event::SysRegRead,
            Event::SysRegWrite,
            Event::MemLoad,
            Event::MemStore,
            Event::TrapEnter,
            Event::TrapReturn,
            Event::El1ExceptionEntry,
            Event::EretNative,
            Event::Barrier,
            Event::PageWalkLevel,
            Event::TlbFlush,
            Event::SoftwareWork,
            Event::VmcsHwSave,
            Event::VmcsHwLoad,
            Event::VmRead,
            Event::VmWrite,
            Event::DirectIrqOp,
        ]
    }

    /// Dense index in `0..COUNT` (declaration order).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for p in Phase::all() {
            assert!(seen.insert(p.label()), "duplicate label {}", p.label());
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("warp_drive"), None);
        assert_eq!(Phase::default(), Phase::Guest);
    }

    #[test]
    fn dense_indices_are_bijective() {
        // The flat-array fast paths depend on `index()` enumerating
        // 0..COUNT exactly once, in `all()` order.
        for (i, e) in Event::all().into_iter().enumerate() {
            assert_eq!(e.index(), i);
        }
        for (i, k) in TrapKind::all().into_iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, p) in Phase::all().into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn trap_kinds_are_ordered_and_hashable() {
        let mut v = vec![TrapKind::SysReg, TrapKind::Hvc, TrapKind::Eret];
        v.sort();
        assert_eq!(v[0], TrapKind::Hvc);
        let set: std::collections::HashSet<_> = v.into_iter().collect();
        assert_eq!(set.len(), 3);
    }
}
