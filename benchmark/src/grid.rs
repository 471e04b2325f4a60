//! `grid`: the cold 28-cell evaluation matrix, run serially. This is
//! what every table and figure costs, and every hot-path layer (micro-op
//! dispatch, host-hypervisor exits, memory translation) does real work
//! in it; there are no observers, idle cores or serve engine in the way.

use crate::drive::Timed;
use crate::md5;
use crate::record::Record;
use crate::rng::SplitMix;
use crate::trace::Tracer;
use crate::{ClosedLoop, OpError};
use neve_cycles::counter::Measured;
use neve_cycles::CostModel;
use neve_kvmarm::{ArmConfig, MicroBench, ParaMode, TestBed};
use neve_workloads::cache;
use neve_workloads::{Bench, CellMeasurement, CellResult, Config, MicroMatrix, SimSession};
use neve_x86vt::testbed::{X86Bench, X86Config, X86TestBed};
use std::collections::BTreeMap;
use std::time::Instant;

/// Digest of the matrix's cache JSON (fingerprint 0x9d6a649bd535079b),
/// unchanged since the first recorded matrix.
pub const MATRIX_MD5: &str = "772e5f96051d56c2b2c68cd7dfc77a30";

/// Every (configuration, benchmark) cell, in table order.
pub fn cells() -> Vec<(Config, Bench)> {
    Config::all()
        .into_iter()
        .flat_map(|c| Bench::all().map(|b| (c, b)))
        .collect()
}

/// The configurations whose cells the per-configuration metrics follow.
pub fn class(c: Config) -> &'static str {
    match c {
        Config::ArmVm => "vm",
        Config::ArmNestedV83 => "v83",
        Config::ArmNestedNeve => "neve",
        _ => "",
    }
}

/// The ARM testbed a session builds for `c` (`None` for x86).
fn arm_config(c: Config) -> Option<ArmConfig> {
    let nested = |guest_vhe, neve| ArmConfig::Nested {
        guest_vhe,
        neve,
        para: ParaMode::None,
    };
    Some(match c {
        Config::ArmVm => ArmConfig::Vm,
        Config::ArmNestedV83 => nested(false, false),
        Config::ArmNestedV83Vhe => nested(true, false),
        Config::ArmNestedNeve => nested(false, true),
        Config::ArmNestedNeveVhe => nested(true, true),
        Config::X86Vm | Config::X86Nested => return None,
    })
}

fn micro_bench(b: Bench) -> MicroBench {
    match b {
        Bench::Hypercall => MicroBench::Hypercall,
        Bench::DeviceIo => MicroBench::DeviceIo,
        Bench::VirtualIpi => MicroBench::VirtualIpi,
        Bench::VirtualEoi => MicroBench::VirtualEoi,
    }
}

fn x86_bed(c: Config, b: Bench) -> X86TestBed {
    let cfg = match c {
        Config::X86Vm => X86Config::Vm,
        _ => X86Config::Nested { shadowing: true },
    };
    let bench = match b {
        Bench::Hypercall => X86Bench::Hypercall,
        Bench::DeviceIo => X86Bench::DeviceIo,
        Bench::VirtualIpi => X86Bench::VirtualIpi,
        Bench::VirtualEoi => X86Bench::VirtualEoi,
    };
    X86TestBed::new(cfg, bench, b.iters())
}

/// What `SimSession::run` reports for a measured region.
fn measurement(config: Config, bench: Bench, m: Measured) -> CellMeasurement {
    CellMeasurement {
        config,
        bench,
        per_op: m.per_op.into(),
        traps_by_kind: m
            .traps_by_kind
            .into_iter()
            .map(|(k, v)| (format!("{k:?}"), v))
            .collect(),
        cycles_by_phase: m
            .cycles_by_phase
            .into_iter()
            .map(|(p, v)| (p.label().to_string(), v))
            .collect(),
        traps_by_phase: m
            .traps_by_phase
            .into_iter()
            .map(|(p, v)| (p.label().to_string(), v))
            .collect(),
    }
}

/// Checks `text` against a pinned digest.
pub fn check_md5(what: &str, text: &str, want: &str) -> Result<(), OpError> {
    let got = md5::hex(text.as_bytes());
    if got == want {
        Ok(())
    } else {
        Err(OpError::Wrong(format!("{what}: md5 {got}, want {want}")))
    }
}

/// Steps retired and final simulated cycles of one cell's untraced run.
fn twin(c: Config, b: Bench) -> Result<(u64, u64), String> {
    let iters = b.iters();
    let fail = |f: neve_cycles::SimFault| format!("{}/{}: {f}", c.label(), b.label());
    match arm_config(c) {
        Some(ac) => {
            let mut tb = TestBed::new(ac, micro_bench(b), iters);
            tb.try_run_measured(iters).map_err(fail)?;
            Ok((tb.m.steps_retired(), tb.m.counter.cycles()))
        }
        None => {
            let mut tb = x86_bed(c, b);
            tb.try_run_measured(iters).map_err(fail)?;
            Ok((tb.m.steps_retired(), tb.m.counter.cycles()))
        }
    }
}

/// The grid workload of one round.
pub struct Grid {
    cells: Vec<(Config, Bench)>,
    /// Cell order per op.
    rng: SplitMix,
    fingerprint: u64,
    /// Per-cell (steps, cycles) of untraced twins; empty unless traced.
    twins: Vec<(u64, u64)>,
}

impl Grid {
    /// Sets up a round. A traced round first runs every cell untraced
    /// to learn the steps and cycles its traced copies must match.
    pub fn new(seed: u64, round: u64, traced: bool) -> Result<Self, String> {
        let cells = cells();
        let twins = if traced {
            cells
                .iter()
                .map(|&(c, b)| twin(c, b))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Self {
            cells,
            rng: SplitMix::new(seed, round),
            fingerprint: CostModel::default().fingerprint(),
            twins,
        })
    }

    fn plain(&self, order: &[usize], rec: &mut Record) -> Result<(), OpError> {
        let start = Instant::now();
        let mut results = Vec::with_capacity(order.len());
        let mut class_ns: BTreeMap<&str, f64> = BTreeMap::new();
        for &k in order {
            let (c, b) = self.cells[k];
            let t = Instant::now();
            results.push(SimSession::new(c, b).run());
            *class_ns.entry(class(c)).or_default() += t.elapsed().as_nanos() as f64;
        }
        let json = cache::to_json(&MicroMatrix::from_cells(results), self.fingerprint);
        let op_ns = start.elapsed().as_nanos() as f64;
        if !self.twins.is_empty() {
            let steps = |cls: Option<&str>| -> f64 {
                self.cells
                    .iter()
                    .zip(&self.twins)
                    .filter(|((c, _), _)| cls.is_none_or(|k| class(*c) == k))
                    .map(|(_, (s, _))| *s as f64)
                    .sum()
            };
            rec.sample("workloads.msteps_per_s", steps(None) * 1e3 / op_ns);
            for k in ["v83", "neve"] {
                rec.sample(
                    &format!("workloads.{k}_msteps_per_s"),
                    steps(Some(k)) * 1e3 / class_ns[k],
                );
            }
        }
        check_md5("grid matrix", &json, MATRIX_MD5)
    }

    fn traced(
        &self,
        i: u64,
        order: &[usize],
        t: &mut Tracer,
        rec: &mut Record,
    ) -> Result<(), OpError> {
        let op = t.open("grid.op", i, None);
        let mut results = Vec::with_capacity(order.len());
        for &k in order {
            let (c, b) = self.cells[k];
            let what = format!("{}/{}", c.label(), b.label());
            let iters = b.iters();
            let t0 = Instant::now();
            let (t1, result, steps, cycles) = match arm_config(c) {
                Some(ac) => {
                    let mb = micro_bench(b);
                    let mut tb = TestBed::new(ac, mb, iters);
                    let t1 = Instant::now();
                    let mut timed = Timed::new(&mut tb);
                    let region = timed.run_region(mb, iters);
                    let t2 = Instant::now();
                    let calls = timed.calls();
                    let (delta, n) = region.map_err(|e| OpError::Abort(format!("{what}: {e}")))?;
                    let id = t.record("grid.cell", i, Some(op), (t1, t2), what.clone(), calls);
                    rec.arm_run(class(c), &t.spans()[id], tb.m.steps_retired(), false);
                    rec.machine(&tb.m);
                    let m = measurement(c, b, delta.measured(n));
                    (t1, m, tb.m.steps_retired(), tb.m.counter.cycles())
                }
                None => {
                    let mut tb = x86_bed(c, b);
                    let t1 = Instant::now();
                    let measured = tb.try_run_measured(iters);
                    let t2 = Instant::now();
                    let measured = measured.map_err(|f| OpError::Abort(format!("{what}: {f}")))?;
                    t.record("x86vt.run", i, Some(op), (t1, t2), what.clone(), vec![]);
                    rec.add("x86vt.steps", tb.m.steps_retired() as f64);
                    rec.add("x86vt.run_ns", (t2 - t1).as_nanos() as f64);
                    rec.add("cycles.sim_cycles", tb.m.counter.cycles() as f64);
                    rec.add("cycles.traps", tb.m.counter.traps_total() as f64);
                    let m = measurement(c, b, measured);
                    (t1, m, tb.m.steps_retired(), tb.m.counter.cycles())
                }
            };
            t.record(
                "kvmarm.testbed_new",
                i,
                Some(op),
                (t0, t1),
                what.clone(),
                vec![],
            );
            rec.add("kvmarm.testbed_new.timed", 1.0);
            rec.add("kvmarm.testbed_new.ns", (t1 - t0).as_nanos() as f64);
            if (steps, cycles) != self.twins[k] {
                return Err(OpError::Abort(format!(
                    "{what}: traced run retired {steps} steps / {cycles} cycles, \
                     its untraced twin {:?}",
                    self.twins[k]
                )));
            }
            results.push(CellResult::Ok(result));
        }
        let a0 = Instant::now();
        let json = cache::to_json(&MicroMatrix::from_cells(results), self.fingerprint);
        let a1 = Instant::now();
        t.record(
            "workloads.assemble",
            i,
            Some(op),
            (a0, a1),
            String::new(),
            vec![],
        );
        rec.add("workloads.assemble_ns", (a1 - a0).as_nanos() as f64);
        t.close(op);
        check_md5("traced grid matrix", &json, MATRIX_MD5)
    }
}

impl ClosedLoop for Grid {
    fn op(&mut self, i: u64, tracer: Option<&mut Tracer>, rec: &mut Record) -> Result<(), OpError> {
        let order = self.rng.permutation(self.cells.len());
        match tracer {
            Some(t) => self.traced(i, &order, t, rec),
            None => self.plain(&order, rec),
        }
    }
}
