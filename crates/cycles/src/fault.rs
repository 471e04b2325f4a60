//! Structured simulation faults.
//!
//! The testbed run loops used to `panic!` on any unexpected step
//! outcome and spin without a bound, so one
//! divergent guest-hypervisor configuration aborted (or hung) the whole
//! parallel evaluation matrix. A [`SimFault`] replaces those panics with
//! a structured error that carries a diagnostic snapshot — program
//! counter, exception level, the world-switch [`Phase`] the machine was
//! in, how many steps had retired, and the last few rendered events from
//! the provenance ring — so a faulted cell can be reported, cached, and
//! rendered instead of poisoning the measurement.
//!
//! The type lives in `cycles` because both machine backends (`kvmarm`
//! and `x86vt`) depend on this crate and on nothing of each other.

use crate::Phase;

/// Why a simulated benchmark run could not produce a measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCause {
    /// The run loop hit its step-budget watchdog: the guest stack never
    /// reached the completion hypercall within `budget` rounds. A round
    /// steps every runnable core for its quantum: one machine step on a
    /// single-core benchmark, one sender step plus the receiver's burst
    /// on the IPI benchmark.
    StepBudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The payload halted with an exit code other than the expected
    /// completion code (a guest-visible crash).
    PayloadCrash {
        /// The halt code the payload reported.
        code: u16,
    },
    /// The machine stopped in a way the benchmark protocol does not
    /// allow (a fetch failure, or every core asleep with no event
    /// armed). The detail string is deterministic.
    UnexpectedStop {
        /// Deterministic human-readable description.
        detail: String,
    },
    /// The run completed but the warm-up snapshot was never taken, so
    /// there is no measurement interval to report.
    MissedSnapshot,
    /// The EOI bracket counter retired fewer operations than the
    /// benchmark needs for a per-op figure.
    EoiShortfall {
        /// Operations the protocol expected to observe.
        expected: u64,
        /// Operations actually observed.
        seen: u64,
    },
    /// A panic escaped the simulation stack and was caught at the
    /// session boundary (a harness bug surfaced by fault injection
    /// rather than a modelled guest failure).
    HarnessPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultCause::StepBudgetExhausted { budget } => {
                write!(f, "step budget of {budget} exhausted")
            }
            FaultCause::PayloadCrash { code } => {
                write!(f, "payload crashed with halt code {code:#x}")
            }
            FaultCause::UnexpectedStop { detail } => write!(f, "{detail}"),
            FaultCause::MissedSnapshot => write!(f, "warm-up snapshot never taken"),
            FaultCause::EoiShortfall { expected, seen } => {
                write!(
                    f,
                    "EOI bracket shortfall: expected {expected} ops, saw {seen}"
                )
            }
            FaultCause::HarnessPanic { message } => write!(f, "harness panic: {message}"),
        }
    }
}

/// A structured simulation failure with a diagnostic snapshot.
///
/// Every field is deterministic for a deterministic run, so a campaign
/// report that embeds rendered faults replays byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFault {
    /// What went wrong.
    pub cause: FaultCause,
    /// Program counter of the faulting CPU when the run was abandoned.
    pub pc: u64,
    /// Exception level of the faulting CPU.
    pub el: u8,
    /// World-switch phase the cycle counter was attributing to.
    pub phase: Phase,
    /// Run-loop rounds started before the fault, in the step budget's
    /// unit (see [`FaultCause::StepBudgetExhausted`]).
    pub steps: u64,
    /// The last few rendered events from the provenance ring (empty
    /// when no trace was attached).
    pub recent_events: Vec<String>,
}

impl SimFault {
    /// Wraps a caught panic payload as a fault with no machine snapshot
    /// (the machine was torn down by the unwind).
    pub fn from_panic(message: String) -> Self {
        SimFault {
            cause: FaultCause::HarnessPanic { message },
            pc: 0,
            el: 0,
            phase: Phase::Guest,
            steps: 0,
            recent_events: Vec::new(),
        }
    }

    /// One-line deterministic description for reports and cache files.
    pub fn describe(&self) -> String {
        format!(
            "{} (pc={:#x} EL{} phase={} steps={})",
            self.cause,
            self.pc,
            self.el,
            self.phase.label(),
            self.steps
        )
    }
}

impl std::fmt::Display for SimFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.describe())?;
        if !self.recent_events.is_empty() {
            writeln!(f, "last {} trace events:", self.recent_events.len())?;
            for line in &self.recent_events {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for SimFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_is_one_line_and_mentions_the_snapshot() {
        let f = SimFault {
            cause: FaultCause::StepBudgetExhausted { budget: 1000 },
            pc: 0x8_0040,
            el: 2,
            phase: Phase::EretEmul,
            steps: 1000,
            recent_events: vec!["ev1".into(), "ev2".into()],
        };
        let d = f.describe();
        assert!(!d.contains('\n'));
        assert!(d.contains("step budget of 1000"));
        assert!(d.contains("EL2"));
        assert!(d.contains("eret_emul"));
        let full = f.to_string();
        assert!(full.contains("ev2"));
    }

    #[test]
    fn panic_faults_carry_the_message() {
        let f = SimFault::from_panic("index out of bounds".into());
        assert!(f.describe().contains("harness panic: index out of bounds"));
    }

    #[test]
    fn causes_render_distinctly() {
        let causes = [
            FaultCause::StepBudgetExhausted { budget: 7 },
            FaultCause::PayloadCrash { code: 0xdead },
            FaultCause::UnexpectedStop {
                detail: "unexpected wfi".into(),
            },
            FaultCause::MissedSnapshot,
            FaultCause::EoiShortfall {
                expected: 24,
                seen: 3,
            },
            FaultCause::HarnessPanic {
                message: "boom".into(),
            },
        ];
        let rendered: std::collections::HashSet<String> =
            causes.iter().map(|c| c.to_string()).collect();
        assert_eq!(rendered.len(), causes.len());
    }
}
