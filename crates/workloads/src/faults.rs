//! The fault-injection campaign behind `neve faults`.
//!
//! For every nested-ARM evaluation cell the campaign measures a
//! fault-free baseline, then re-runs the cell under each built-in
//! [`FaultPlan`] and classifies the outcome:
//!
//! - **detected** — the stack turned the injected fault into a
//!   structured [`SimFault`](neve_cycles::SimFault) (the cell ended
//!   [`CellResult::Failed`]). The harness contained the damage and can
//!   say exactly where it happened.
//! - **recovered** — the cell completed and its measurement is
//!   bit-identical to the fault-free baseline. The stack absorbed the
//!   fault (e.g. a corrupted shadow PTE rebuilt on the next abort, or
//!   an injection scheduled past the payload's halt never fired).
//! - **mis-measured** — the cell completed but its numbers differ from
//!   the baseline: the worst outcome, a silently corrupted result.
//!
//! Everything is seeded and deterministic: the same seed produces a
//! byte-identical report, which `neve faults --smoke` exploits as a CI
//! gate (run twice, compare bytes).

use crate::platforms::Config;
use crate::session::{Bench, CellResult, SimSession};
use neve_armv8::{FaultPlan, BUILTIN_PLANS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default per-cell step budget for campaign runs. Tighter than the
/// testbed default: an injected fault that wedges a run loop should be
/// caught in seconds, not minutes.
pub const DEFAULT_CAMPAIGN_BUDGET: u64 = 10_000_000;

/// Campaign parameters (the `neve faults` flags).
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Seed folded into every fault plan's injection schedule.
    pub seed: u64,
    /// Small deterministic grid for CI (2 configs x 2 benches x 3
    /// plans) instead of the full nested-ARM matrix.
    pub smoke: bool,
    /// Worker threads for the injected runs (0 and 1 both mean serial).
    pub jobs: usize,
    /// Stop the campaign at the first detected fault (serial order).
    pub fail_fast: bool,
    /// Step-budget override (default [`DEFAULT_CAMPAIGN_BUDGET`]).
    pub step_budget: Option<u64>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self {
            seed: 2017,
            smoke: false,
            jobs: 1,
            fail_fast: false,
            step_budget: None,
        }
    }
}

/// How one injected run ended relative to its fault-free baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The stack reported a structured fault.
    Detected,
    /// The run completed bit-identical to the baseline.
    Recovered,
    /// The run completed with different numbers: silent corruption.
    MisMeasured,
}

impl Verdict {
    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Detected => "detected",
            Verdict::Recovered => "recovered",
            Verdict::MisMeasured => "mis-measured",
        }
    }
}

/// One (configuration, benchmark, plan) outcome.
#[derive(Debug, Clone)]
pub struct CampaignEntry {
    /// Configuration the cell ran on.
    pub config: Config,
    /// Microbenchmark it ran.
    pub bench: Bench,
    /// Built-in plan name (see [`BUILTIN_PLANS`]).
    pub plan: &'static str,
    /// The classification.
    pub verdict: Verdict,
    /// Human-readable evidence (fault description or measurement
    /// delta).
    pub detail: String,
}

/// The campaign's full, deterministic result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The seed the schedules were derived from.
    pub seed: u64,
    /// Step budget every run was under.
    pub step_budget: u64,
    /// Entries in grid order (config, bench, plan).
    pub entries: Vec<CampaignEntry>,
    /// True when `--fail-fast` stopped the campaign early.
    pub truncated: bool,
}

impl CampaignReport {
    /// Entries with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.entries.iter().filter(|e| e.verdict == v).count()
    }

    /// True when any injected run silently corrupted its measurement.
    pub fn any_mismeasured(&self) -> bool {
        self.count(Verdict::MisMeasured) > 0
    }

    /// Renders the report; byte-identical across runs for the same
    /// spec (the `--smoke` CI gate depends on this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault-injection campaign (seed {}, step budget {})",
            self.seed, self.step_budget
        );
        let _ = writeln!(out);
        let mut per_plan: BTreeMap<&str, [usize; 3]> = BTreeMap::new();
        for e in &self.entries {
            let idx = match e.verdict {
                Verdict::Detected => 0,
                Verdict::Recovered => 1,
                Verdict::MisMeasured => 2,
            };
            per_plan.entry(e.plan).or_default()[idx] += 1;
            let _ = writeln!(
                out,
                "  {:<18} {:<11} {:<14} {:<12} {}",
                e.config.label(),
                e.bench.label(),
                e.plan,
                e.verdict.label(),
                e.detail
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "per plan:");
        for (plan, [det, rec, mis]) in &per_plan {
            let _ = writeln!(
                out,
                "  {plan:<14} detected {det:<3} recovered {rec:<3} mis-measured {mis}"
            );
        }
        let _ = writeln!(
            out,
            "total: {} runs, {} detected, {} recovered, {} mis-measured",
            self.entries.len(),
            self.count(Verdict::Detected),
            self.count(Verdict::Recovered),
            self.count(Verdict::MisMeasured),
        );
        if self.truncated {
            let _ = writeln!(out, "campaign stopped early (--fail-fast)");
        }
        out
    }
}

/// The campaign grid. Fault plans only have ARM injection points, so
/// the x86 configurations are out of scope.
fn grid(smoke: bool) -> (Vec<(Config, Bench)>, Vec<&'static str>) {
    if smoke {
        (
            vec![
                (Config::ArmNestedV83, Bench::Hypercall),
                (Config::ArmNestedV83, Bench::VirtualEoi),
                (Config::ArmNestedNeve, Bench::Hypercall),
                (Config::ArmNestedNeve, Bench::VirtualEoi),
            ],
            vec!["pte-corruption", "spurious-trap", "counter-reset"],
        )
    } else {
        let configs = [
            Config::ArmVm,
            Config::ArmNestedV83,
            Config::ArmNestedV83Vhe,
            Config::ArmNestedNeve,
            Config::ArmNestedNeveVhe,
        ];
        let mut cells = Vec::new();
        for c in configs {
            for b in Bench::all() {
                cells.push((c, b));
            }
        }
        (cells, BUILTIN_PLANS.to_vec())
    }
}

/// Runs one cell, optionally under an injection plan, and never
/// panics: faults come back as [`CellResult::Failed`].
fn run_cell(config: Config, bench: Bench, plan: Option<&FaultPlan>, budget: u64) -> CellResult {
    let mut s = SimSession::new(config, bench);
    s.set_step_budget(budget);
    if let Some(p) = plan {
        s.attach_fault_plan(p);
    }
    s.run()
}

/// Classifies one injected outcome against its fault-free baseline.
fn classify(baseline: &CellResult, injected: CellResult) -> (Verdict, String) {
    match injected {
        CellResult::Failed { fault, .. } => (Verdict::Detected, fault.describe()),
        CellResult::Ok(m) => match baseline.measurement() {
            Some(base) if *base == m => (
                Verdict::Recovered,
                "measurement identical to fault-free baseline".to_string(),
            ),
            Some(base) => (
                Verdict::MisMeasured,
                format!(
                    "per-op cycles {} vs baseline {}, traps {} vs {}",
                    m.per_op.cycles, base.per_op.cycles, m.per_op.traps, base.per_op.traps
                ),
            ),
            None => (
                Verdict::MisMeasured,
                "fault-free baseline itself failed".to_string(),
            ),
        },
    }
}

/// Runs `f` on every key across `jobs` workers, results in key order.
/// A panic surfaces as a structured campaign error instead of poisoning
/// the caller.
fn run_all<K: Sync>(
    keys: &[K],
    jobs: usize,
    f: impl Fn(&K) -> CellResult + Sync,
) -> Result<Vec<CellResult>, String> {
    crate::par::striped_map(keys, jobs, || Ok(()), |_, k| f(k))
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("campaign worker {e}; partial results discarded"))
}

/// Runs the full injection campaign described by `spec`.
///
/// # Errors
///
/// Reports a worker panic or an unknown built-in plan name as a
/// structured error (both indicate harness bugs, not findings).
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignReport, String> {
    let (cells, plans) = grid(spec.smoke);
    let budget = spec.step_budget.unwrap_or(DEFAULT_CAMPAIGN_BUDGET);

    // Fault-free baselines, one per cell (the recovery reference).
    let baselines = run_all(&cells, spec.jobs, |&(c, b)| run_cell(c, b, None, budget))?;

    // The injected grid, in deterministic (config, bench, plan) order.
    let mut units: Vec<(usize, &'static str, FaultPlan)> =
        Vec::with_capacity(cells.len() * plans.len());
    for i in 0..cells.len() {
        for &plan in &plans {
            let p = FaultPlan::builtin(plan, spec.seed)
                .ok_or_else(|| format!("internal: unknown built-in fault plan `{plan}`"))?;
            units.push((i, plan, p));
        }
    }

    let mut entries = Vec::with_capacity(units.len());
    let mut truncated = false;
    if spec.fail_fast {
        // Serial and ordered so "first fault" is well-defined.
        for (cell_idx, plan, p) in &units {
            let (config, bench) = cells[*cell_idx];
            let outcome = run_cell(config, bench, Some(p), budget);
            let (verdict, detail) = classify(&baselines[*cell_idx], outcome);
            entries.push(CampaignEntry {
                config,
                bench,
                plan,
                verdict,
                detail,
            });
            if verdict == Verdict::Detected {
                truncated = true;
                break;
            }
        }
    } else {
        let outcomes = run_all(&units, spec.jobs, |(cell_idx, _, p)| {
            let (config, bench) = cells[*cell_idx];
            run_cell(config, bench, Some(p), budget)
        })?;
        for ((cell_idx, plan, _), outcome) in units.iter().zip(outcomes) {
            let (config, bench) = cells[*cell_idx];
            let (verdict, detail) = classify(&baselines[*cell_idx], outcome);
            entries.push(CampaignEntry {
                config,
                bench,
                plan,
                verdict,
                detail,
            });
        }
    }

    Ok(CampaignReport {
        seed: spec.seed,
        step_budget: budget,
        entries,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_spec(seed: u64) -> CampaignSpec {
        CampaignSpec {
            seed,
            smoke: true,
            jobs: 4,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn smoke_campaign_is_deterministic_and_complete() {
        let a = run_campaign(&smoke_spec(2017)).unwrap();
        let b = run_campaign(&smoke_spec(2017)).unwrap();
        assert_eq!(a.render(), b.render(), "same seed must replay identically");
        // 2 configs x 2 benches x 3 plans, nothing dropped.
        assert_eq!(a.entries.len(), 12);
        assert!(!a.truncated);
    }

    #[test]
    fn seeds_change_the_schedule() {
        let a = run_campaign(&smoke_spec(1)).unwrap();
        let b = run_campaign(&smoke_spec(2)).unwrap();
        // Different injection steps; entry counts match but the reports
        // should not be forced equal. (They can coincide in principle,
        // but not for these seeds — this guards against the seed being
        // silently ignored.)
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn fail_fast_stops_at_the_first_detection() {
        let spec = CampaignSpec {
            fail_fast: true,
            ..smoke_spec(2017)
        };
        let r = run_campaign(&spec).unwrap();
        let detections: Vec<_> = r
            .entries
            .iter()
            .filter(|e| e.verdict == Verdict::Detected)
            .collect();
        if r.truncated {
            assert_eq!(detections.len(), 1);
            assert_eq!(r.entries.last().unwrap().verdict, Verdict::Detected);
        } else {
            assert!(detections.is_empty());
        }
    }
}
