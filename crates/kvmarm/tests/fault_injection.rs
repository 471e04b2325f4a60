//! Property-based robustness of the fault-injection harness: any
//! seeded [`FaultPlan`] under any step budget always terminates — a
//! clean measurement or a structured [`SimFault`], never a panic and
//! never an unbounded loop.

use neve_armv8::FaultPlan;
use neve_kvmarm::{ArmConfig, MicroBench, ParaMode, TestBed};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary injection schedules against the nested v8.3 hypercall
    /// cell: the run loop must end in `Ok` or `Err(SimFault)` within
    /// the budget, and the watchdog itself must never panic.
    #[test]
    fn any_fault_plan_terminates_within_its_budget(
        seed in 0u64..1_000_000,
        count in 0usize..12,
        budget in 10_000u64..200_000,
    ) {
        let plan = FaultPlan::seeded(seed, count, 50_000);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut tb = TestBed::new(
                ArmConfig::Nested {
                    guest_vhe: false,
                    neve: false,
                    para: ParaMode::None,
                },
                MicroBench::Hypercall,
                3,
            );
            tb.set_step_budget(budget);
            tb.attach_fault_plan(plan);
            tb.try_run_measured(3)
        }));
        // Ok(Ok) and Ok(Err(fault)) are both acceptable terminations;
        // an unwinding panic is the one forbidden outcome.
        prop_assert!(outcome.is_ok(), "fault-injected run panicked");
        if let Ok(Err(fault)) = outcome {
            // The diagnostic snapshot must be coherent: the fault fired
            // at or under the budget (strictly above only for the
            // budget fault itself, which reports exactly the limit).
            prop_assert!(fault.steps <= budget, "{fault}");
        }
    }

    /// The same plan and budget twice: bit-identical outcomes, whether
    /// the run completes or faults (replayability of injected runs).
    #[test]
    fn injected_runs_replay_bit_identically(
        seed in 0u64..1_000_000,
    ) {
        let run = || {
            let mut tb = TestBed::new(
                ArmConfig::Nested {
                    guest_vhe: false,
                    neve: true,
                    para: ParaMode::None,
                },
                MicroBench::Hypercall,
                3,
            );
            tb.set_step_budget(100_000);
            tb.attach_fault_plan(FaultPlan::seeded(seed, 4, 50_000));
            tb.try_run_measured(3)
        };
        prop_assert_eq!(run(), run());
    }
}

/// The budget bounds the rounds a run may start, so a run that halts on
/// exactly its budgeted step succeeds and one step less is a budget
/// fault (on a single-core benchmark a round is one step).
#[test]
fn a_budget_of_exactly_the_steps_run_suffices() {
    let run = |budget: u64| {
        let mut tb = TestBed::new(ArmConfig::Vm, MicroBench::Hypercall, 10);
        tb.set_step_budget(budget);
        tb.try_run_measured(10).map(|_| tb.m.steps_retired())
    };
    assert_eq!(run(56), Ok(56));
    let fault = run(55).expect_err("one step short of the run");
    assert_eq!(
        fault.cause,
        neve_cycles::FaultCause::StepBudgetExhausted { budget: 55 }
    );
    assert_eq!(fault.steps, 55);
}
