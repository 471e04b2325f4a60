//! `wheel`: the event-wheel scenarios — the multi-VM consolidation
//! table, a 64-vCPU machine with 63 cores parked, and an IPI storm that
//! parks and wakes its receiver on every delivery. Most vCPUs are
//! parked, so the work is park/wake, wake-up servicing and timer
//! delivery with few instructions per event.

use crate::drive::Timed;
use crate::grid::check_md5;
use crate::record::Record;
use crate::rng::SplitMix;
use crate::trace::Tracer;
use crate::{ClosedLoop, OpError};
use neve_kvmarm::guests::DONE;
use neve_kvmarm::TestBed;
use neve_workloads::{run_consolidate, ConsolidateSpec};
use std::time::Instant;

/// Digest of `ConsolidateReport::to_json()` for the full spec, equal
/// to the tracked `results/consolidate.json`.
pub const CONSOLIDATE_MD5: &str = "56390e53c0101ecdfa45f5a068a7d5fb";

/// Iterations of cpu 0's payload in the big-SMP runs.
const ITERS: u64 = 25_000;

/// A big-SMP run: name, vCPUs, IPI storm, host steps to cpu 0's halt.
struct BigSmp {
    name: &'static str,
    vcpus: usize,
    storm: bool,
    steps: u64,
}

const BIGSMP: [BigSmp; 2] = [
    BigSmp {
        name: "idle-64",
        vcpus: 64,
        storm: false,
        steps: 75_065,
    },
    BigSmp {
        name: "storm-8",
        vcpus: 8,
        storm: true,
        steps: 600_013,
    },
];

/// The wheel workload of one round.
pub struct Wheel {
    /// Part order per op.
    rng: SplitMix,
    /// Final simulated cycles of each big-SMP run untraced; empty
    /// unless traced.
    twins: Vec<u64>,
}

/// Runs a big-SMP scenario untraced: (steps, final cycles).
fn run_plain(b: &BigSmp) -> Result<(u64, u64), String> {
    let mut tb = TestBed::new_bigsmp(b.vcpus, b.storm, ITERS);
    let steps = tb
        .try_run_wheel(|m| m.core(0).halted == Some(DONE))
        .map_err(|f| format!("{}: {f}", b.name))?;
    Ok((steps, tb.m.counter.cycles()))
}

impl Wheel {
    /// Sets up a round; a traced round first learns each big-SMP run's
    /// cycles from an untraced twin.
    pub fn new(seed: u64, round: u64, traced: bool) -> Result<Self, String> {
        let mut twins = Vec::new();
        if traced {
            for b in &BIGSMP {
                let (steps, cycles) = run_plain(b)?;
                if steps != b.steps {
                    return Err(format!("{}: {steps} steps, want {}", b.name, b.steps));
                }
                twins.push(cycles);
            }
        }
        Ok(Self {
            rng: SplitMix::new(seed, round),
            twins,
        })
    }

    fn consolidate(
        &self,
        i: u64,
        op: Option<(&mut Tracer, usize)>,
        rec: &mut Record,
    ) -> Result<u64, OpError> {
        let t0 = Instant::now();
        let report = run_consolidate(ConsolidateSpec::full()).map_err(OpError::Wrong)?;
        let t1 = Instant::now();
        check_md5("consolidate table", &report.to_json(), CONSOLIDATE_MD5)?;
        let host_steps: u64 = report.rows.iter().map(|r| r.host_steps).sum();
        if let Some((t, op)) = op {
            t.record(
                "workloads.consolidate",
                i,
                Some(op),
                (t0, t1),
                String::new(),
                vec![],
            );
            rec.add("workloads.consolidate_ns", (t1 - t0).as_nanos() as f64);
            rec.add("cycles.consolidate_host_steps", host_steps as f64);
        }
        Ok(host_steps)
    }

    fn bigsmp(
        &self,
        k: usize,
        i: u64,
        op: Option<(&mut Tracer, usize)>,
        rec: &mut Record,
    ) -> Result<(), OpError> {
        let b = &BIGSMP[k];
        let Some((t, op)) = op else {
            let (steps, _) = run_plain(b).map_err(OpError::Wrong)?;
            return if steps == b.steps {
                Ok(())
            } else {
                Err(OpError::Wrong(format!(
                    "{}: {steps} steps, want {}",
                    b.name, b.steps
                )))
            };
        };
        let t0 = Instant::now();
        let mut tb = TestBed::new_bigsmp(b.vcpus, b.storm, ITERS);
        let t1 = Instant::now();
        let mut timed = Timed::new(&mut tb);
        let steps = timed.run_wheel_to_halt();
        let t2 = Instant::now();
        let calls = timed.calls();
        let steps = steps.map_err(|e| OpError::Abort(format!("{}: {e}", b.name)))?;
        let cycles = tb.m.counter.cycles();
        if (steps, cycles) != (b.steps, self.twins[k]) {
            return Err(OpError::Abort(format!(
                "{}: traced run retired {steps} steps / {cycles} cycles, its untraced twin {} / {}",
                b.name, b.steps, self.twins[k]
            )));
        }
        t.record(
            "kvmarm.testbed_new",
            i,
            Some(op),
            (t0, t1),
            b.name.into(),
            vec![],
        );
        let id = t.record("wheel.run", i, Some(op), (t1, t2), b.name.into(), calls);
        rec.add("kvmarm.testbed_new.timed", 1.0);
        rec.add("kvmarm.testbed_new.ns", (t1 - t0).as_nanos() as f64);
        rec.arm_run("", &t.spans()[id], steps, true);
        rec.machine(&tb.m);
        Ok(())
    }
}

impl ClosedLoop for Wheel {
    fn op(
        &mut self,
        i: u64,
        mut tracer: Option<&mut Tracer>,
        rec: &mut Record,
    ) -> Result<(), OpError> {
        let start = Instant::now();
        let op = tracer.as_deref_mut().map(|t| t.open("wheel.op", i, None));
        let mut steps = BIGSMP.iter().map(|b| b.steps).sum::<u64>();
        for part in self.rng.permutation(3) {
            let traced = tracer.as_deref_mut().zip(op);
            match part {
                0 => steps += self.consolidate(i, traced, rec)?,
                k => self.bigsmp(k - 1, i, traced, rec)?,
            }
        }
        if let (Some(t), Some(op)) = (tracer, op) {
            t.close(op);
        } else {
            rec.sample(
                "workloads.msteps_per_s",
                steps as f64 * 1e3 / start.elapsed().as_nanos() as f64,
            );
        }
        Ok(())
    }
}
