//! Unified access to both simulated platforms.

use crate::session::{Bench, CellResult, SimSession};
use neve_armv8::FaultPlan;
use neve_cycles::counter::PerOp;
use neve_kvmarm::{ArmConfig, ParaMode};
use std::collections::BTreeMap;

/// Every evaluation configuration of Tables 1/6/7 and Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Config {
    /// ARM single-level VM.
    ArmVm,
    /// ARMv8.3 nested, non-VHE guest hypervisor.
    ArmNestedV83,
    /// ARMv8.3 nested, VHE guest hypervisor.
    ArmNestedV83Vhe,
    /// NEVE nested, non-VHE guest hypervisor.
    ArmNestedNeve,
    /// NEVE nested, VHE guest hypervisor.
    ArmNestedNeveVhe,
    /// x86 single-level VM.
    X86Vm,
    /// x86 nested (VMCS shadowing on, as in the paper).
    X86Nested,
}

impl Config {
    /// All configurations, table order.
    pub fn all() -> [Config; 7] {
        [
            Config::ArmVm,
            Config::ArmNestedV83,
            Config::ArmNestedV83Vhe,
            Config::ArmNestedNeve,
            Config::ArmNestedNeveVhe,
            Config::X86Vm,
            Config::X86Nested,
        ]
    }

    /// Display label (matches the paper's column headers).
    pub fn label(self) -> &'static str {
        match self {
            Config::ArmVm => "ARM VM",
            Config::ArmNestedV83 => "ARMv8.3 Nested",
            Config::ArmNestedV83Vhe => "ARMv8.3 Nested VHE",
            Config::ArmNestedNeve => "NEVE Nested",
            Config::ArmNestedNeveVhe => "NEVE Nested VHE",
            Config::X86Vm => "x86 VM",
            Config::X86Nested => "x86 Nested",
        }
    }

    /// True for x86 configurations.
    pub fn is_x86(self) -> bool {
        matches!(self, Config::X86Vm | Config::X86Nested)
    }

    /// The single-level baseline of this configuration's platform
    /// (used for the paper's "overhead vs VM" multipliers).
    pub fn vm_baseline(self) -> Config {
        if self.is_x86() {
            Config::X86Vm
        } else {
            Config::ArmVm
        }
    }

    /// The inverse of [`Config::label`] (used to read cached results
    /// back; labels are the cache's config keys).
    pub fn from_label(label: &str) -> Option<Config> {
        Config::all().into_iter().find(|c| c.label() == label)
    }
}

/// The per-operation costs of one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroCosts {
    /// Hypercall round trip.
    pub hypercall: PerOpSer,
    /// Emulated-device read.
    pub device_io: PerOpSer,
    /// Cross-vCPU virtual IPI.
    pub virtual_ipi: PerOpSer,
    /// Virtual EOI.
    pub virtual_eoi: PerOpSer,
}

/// Serializable [`PerOp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerOpSer {
    /// Average cycles per operation.
    pub cycles: u64,
    /// Average traps per operation.
    pub traps: f64,
}

impl From<PerOp> for PerOpSer {
    fn from(p: PerOp) -> Self {
        Self {
            cycles: p.cycles,
            traps: p.traps,
        }
    }
}

/// One world-switch phase's share of a configuration's measured work
/// (absolute over the measured regions, summed across benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStat {
    /// Cycles attributed to the phase.
    pub cycles: u64,
    /// Traps taken while the phase was active.
    pub traps: u64,
}

/// All microbenchmark results across all configurations, computed once
/// (or loaded from the persistent cache; see [`crate::cache`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MicroMatrix {
    results: BTreeMap<Config, MicroCosts>,
    /// Per-configuration trap breakdown by reason, summed over the four
    /// measured benchmarks (absolute counts; the Table 7 observability
    /// data). Empty for synthetic matrices.
    trap_kinds: BTreeMap<Config, BTreeMap<String, u64>>,
    /// Per-configuration world-switch phase breakdown (keys are
    /// [`Phase::label`](neve_cycles::Phase::label) names), summed over
    /// the four measured benchmarks. Empty for synthetic matrices.
    phases: BTreeMap<Config, BTreeMap<String, PhaseStat>>,
    /// Cells that faulted instead of measuring: configuration ->
    /// benchmark label -> fault description. A faulted cell's per-op
    /// entry is a zero placeholder; renderers mark it as failed. Empty
    /// for clean (and synthetic) matrices.
    failures: BTreeMap<Config, BTreeMap<String, String>>,
}

/// Options for a matrix measurement run (fault-campaign entry point;
/// the plain table paths use [`MicroMatrix::measure_parallel`]).
#[derive(Debug, Clone, Default)]
pub struct MeasureOpts {
    /// Worker threads (0 and 1 both mean serial).
    pub jobs: usize,
    /// Deterministic fault-injection plan, cloned into every ARM cell.
    pub fault_plan: Option<FaultPlan>,
    /// Step-budget override for every cell's run-loop watchdog.
    pub step_budget: Option<u64>,
}

pub(crate) fn arm_config(c: Config) -> Option<ArmConfig> {
    Some(match c {
        Config::ArmVm => ArmConfig::Vm,
        Config::ArmNestedV83 => ArmConfig::Nested {
            guest_vhe: false,
            neve: false,
            para: ParaMode::None,
        },
        Config::ArmNestedV83Vhe => ArmConfig::Nested {
            guest_vhe: true,
            neve: false,
            para: ParaMode::None,
        },
        Config::ArmNestedNeve => ArmConfig::Nested {
            guest_vhe: false,
            neve: true,
            para: ParaMode::None,
        },
        Config::ArmNestedNeveVhe => ArmConfig::Nested {
            guest_vhe: true,
            neve: true,
            para: ParaMode::None,
        },
        _ => return None,
    })
}

/// A cell's result from the worker pool. An `Err` — a panic outside
/// `SimSession::run`'s own containment — degrades to
/// [`CellResult::Failed`] with the message, so the rest of the matrix
/// still assembles.
fn pool_cell((config, bench): (Config, Bench), result: Result<CellResult, String>) -> CellResult {
    result.unwrap_or_else(|e| CellResult::Failed {
        config,
        bench,
        fault: neve_cycles::SimFault::from_panic(format!("evaluation worker {e}")),
    })
}

/// Every (configuration, benchmark) cell of the evaluation matrix, in
/// deterministic (table) order.
fn all_cells() -> Vec<(Config, Bench)> {
    let mut cells = Vec::with_capacity(Config::all().len() * Bench::all().len());
    for c in Config::all() {
        for b in Bench::all() {
            cells.push((c, b));
        }
    }
    cells
}

impl MicroMatrix {
    /// Runs every microbenchmark on every configuration, serially (the
    /// reference order). [`MicroMatrix::measure_parallel`] produces
    /// bit-identical results faster.
    pub fn measure() -> Self {
        Self::assemble(
            all_cells()
                .into_iter()
                .map(|(c, b)| SimSession::new(c, b).run())
                .collect(),
        )
    }

    /// Runs every cell of the matrix across `jobs` worker threads.
    ///
    /// Every cell is an independent deterministic simulation and
    /// assembly keys cells into `BTreeMap`s, so the result is
    /// bit-identical to [`MicroMatrix::measure`] regardless of `jobs`
    /// or scheduling.
    pub fn measure_parallel(jobs: usize) -> Self {
        Self::measure_with(&MeasureOpts {
            jobs,
            ..MeasureOpts::default()
        })
    }

    /// Runs every cell with explicit options: worker count, an optional
    /// fault-injection plan, and an optional step-budget override.
    /// Faulted cells degrade to [`CellResult::Failed`] and surface via
    /// [`MicroMatrix::has_failures`]; clean cells measure exactly as
    /// they would without options (injection off means zero measurement
    /// perturbation).
    pub fn measure_with(opts: &MeasureOpts) -> Self {
        // Item `i` runs on worker `i % jobs`, so the slow nested-ARM
        // cells of one config spread over the workers.
        let cells = all_cells();
        let results = crate::par::striped_map(
            &cells,
            opts.jobs,
            || Ok(()),
            |_, &(c, b)| {
                let mut s = SimSession::new(c, b);
                if let Some(plan) = &opts.fault_plan {
                    s.attach_fault_plan(plan);
                }
                if let Some(budget) = opts.step_budget {
                    s.set_step_budget(budget);
                }
                s.run()
            },
        );
        Self::assemble(
            cells
                .into_iter()
                .zip(results)
                .map(|(cell, r)| pool_cell(cell, r))
                .collect(),
        )
    }

    /// Measures every cell serially with an execution trace attached to
    /// each session. Exists for the determinism suite: the result must
    /// be bit-identical to [`MicroMatrix::measure`], proving that
    /// tracing never perturbs measured cycles or trap counts.
    pub fn measure_traced(capacity: usize) -> Self {
        Self::assemble(
            all_cells()
                .into_iter()
                .map(|(c, b)| {
                    let mut s = SimSession::new(c, b);
                    s.attach_trace(capacity);
                    s.run()
                })
                .collect(),
        )
    }

    /// Keys cell results into the matrix; the `BTreeMap` makes the
    /// result independent of arrival order. Failed cells contribute a
    /// zero per-op placeholder plus a failure record — one bad cell
    /// never drops the rest of the matrix.
    fn assemble(cells: Vec<CellResult>) -> Self {
        let mut per_config: BTreeMap<Config, BTreeMap<Bench, PerOpSer>> = BTreeMap::new();
        let mut trap_kinds: BTreeMap<Config, BTreeMap<String, u64>> = BTreeMap::new();
        let mut phases: BTreeMap<Config, BTreeMap<String, PhaseStat>> = BTreeMap::new();
        let mut failures: BTreeMap<Config, BTreeMap<String, String>> = BTreeMap::new();
        for result in cells {
            let cell = match result {
                CellResult::Ok(m) => m,
                CellResult::Failed {
                    config,
                    bench,
                    fault,
                } => {
                    per_config.entry(config).or_default().insert(
                        bench,
                        PerOpSer {
                            cycles: 0,
                            traps: 0.0,
                        },
                    );
                    failures
                        .entry(config)
                        .or_default()
                        .insert(bench.label().to_string(), fault.describe());
                    continue;
                }
            };
            per_config
                .entry(cell.config)
                .or_default()
                .insert(cell.bench, cell.per_op);
            let kinds = trap_kinds.entry(cell.config).or_default();
            for (k, v) in cell.traps_by_kind {
                *kinds.entry(k).or_insert(0) += v;
            }
            let stats = phases.entry(cell.config).or_default();
            for (p, v) in cell.cycles_by_phase {
                stats.entry(p).or_default().cycles += v;
            }
            for (p, v) in cell.traps_by_phase {
                stats.entry(p).or_default().traps += v;
            }
        }
        let results = per_config
            .into_iter()
            .map(|(c, benches)| {
                let get = |b: Bench| {
                    *benches
                        .get(&b)
                        .unwrap_or_else(|| panic!("missing cell {c:?}/{b:?}"))
                };
                (
                    c,
                    MicroCosts {
                        hypercall: get(Bench::Hypercall),
                        device_io: get(Bench::DeviceIo),
                        virtual_ipi: get(Bench::VirtualIpi),
                        virtual_eoi: get(Bench::VirtualEoi),
                    },
                )
            })
            .collect();
        Self {
            results,
            trap_kinds,
            phases,
            failures,
        }
    }

    /// Assembles a matrix from independently measured cell results —
    /// the serve engine's finalization path, where cells arrive from a
    /// shared store in whatever order workers completed them. Arrival
    /// order never matters (everything keys through `BTreeMap`s), but
    /// every configuration present must have all four benchmark cells.
    ///
    /// # Panics
    ///
    /// Panics if a present configuration is missing a benchmark cell.
    pub fn from_cells(cells: Vec<CellResult>) -> Self {
        Self::assemble(cells)
    }

    /// Builds a matrix from externally supplied per-config costs (no
    /// trap or phase breakdowns). Used by tests that need synthetic
    /// cost points the real stacks never produce.
    pub fn from_results(results: BTreeMap<Config, MicroCosts>) -> Self {
        Self {
            results,
            trap_kinds: BTreeMap::new(),
            phases: BTreeMap::new(),
            failures: BTreeMap::new(),
        }
    }

    /// Restores a matrix including trap and phase breakdowns and any
    /// recorded cell failures (the cache loader).
    pub fn from_parts(
        results: BTreeMap<Config, MicroCosts>,
        trap_kinds: BTreeMap<Config, BTreeMap<String, u64>>,
        phases: BTreeMap<Config, BTreeMap<String, PhaseStat>>,
        failures: BTreeMap<Config, BTreeMap<String, String>>,
    ) -> Self {
        Self {
            results,
            trap_kinds,
            phases,
            failures,
        }
    }

    /// The costs of one configuration.
    pub fn costs(&self, c: Config) -> MicroCosts {
        self.results[&c]
    }

    /// The configurations this matrix holds results for.
    pub fn configs(&self) -> impl Iterator<Item = Config> + '_ {
        self.results.keys().copied()
    }

    /// The trap breakdown of one configuration, by reason, summed over
    /// the four microbenchmarks. Empty for synthetic matrices.
    pub fn trap_kinds(&self, c: Config) -> BTreeMap<String, u64> {
        self.trap_kinds.get(&c).cloned().unwrap_or_default()
    }

    /// The world-switch phase breakdown of one configuration, summed
    /// over the four microbenchmarks. Empty for synthetic matrices.
    pub fn phases(&self, c: Config) -> BTreeMap<String, PhaseStat> {
        self.phases.get(&c).cloned().unwrap_or_default()
    }

    /// True when any cell faulted instead of measuring.
    pub fn has_failures(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Total faulted cells across the matrix.
    pub fn failed_cells(&self) -> usize {
        self.failures.values().map(BTreeMap::len).sum()
    }

    /// The failures of one configuration: benchmark label -> fault
    /// description. Empty when the configuration measured cleanly.
    pub fn failures(&self, c: Config) -> BTreeMap<String, String> {
        self.failures.get(&c).cloned().unwrap_or_default()
    }

    /// All recorded failures (cache serialization).
    pub fn all_failures(&self) -> &BTreeMap<Config, BTreeMap<String, String>> {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            Config::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), Config::all().len());
    }

    #[test]
    fn baselines_point_at_same_platform() {
        assert_eq!(Config::ArmNestedNeve.vm_baseline(), Config::ArmVm);
        assert_eq!(Config::X86Nested.vm_baseline(), Config::X86Vm);
        assert_eq!(Config::ArmVm.vm_baseline(), Config::ArmVm);
    }

    /// A panic outside `SimSession::run`'s own containment fails only
    /// its cell: the pool's `Err` becomes a `Failed` cell carrying the
    /// message, and the matrix still assembles around it.
    #[test]
    fn a_pool_error_becomes_a_failed_cell_that_still_assembles() {
        let cells: Vec<(Config, Bench)> =
            Bench::all().iter().map(|&b| (Config::ArmVm, b)).collect();
        let results = crate::par::striped_map(
            &cells,
            2,
            || Ok(()),
            |_, &(c, b)| {
                if b == Bench::Hypercall {
                    panic!("deliberate worker crash");
                }
                SimSession::new(c, b).run()
            },
        );
        let cells: Vec<CellResult> = cells
            .into_iter()
            .zip(results)
            .map(|(cell, r)| pool_cell(cell, r))
            .collect();
        let fault = cells[0].fault().expect("the panicking cell must be Failed");
        assert_eq!(
            (cells[0].config(), cells[0].bench()),
            (Config::ArmVm, Bench::Hypercall)
        );
        assert!(
            fault.describe().contains("deliberate worker crash"),
            "{fault}"
        );
        let m = MicroMatrix::from_cells(cells);
        assert!(m.has_failures());
        assert_eq!(m.failed_cells(), 1);
        assert_eq!(m.costs(Config::ArmVm).hypercall.cycles, 0);
        assert!(m.costs(Config::ArmVm).device_io.cycles > 0);
    }
}
