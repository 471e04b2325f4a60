//! Traced run loops: step-for-step copies of `TestBed::run_simple`,
//! `run_ipi`, `run_eoi` and `try_run_wheel` that time each call into a
//! layer. Host-hypervisor exits go through [`TimedHyp`], a
//! `Hypervisor` that wraps `HostHyp`. The grid and wheel workloads
//! check every traced run against an untraced twin (same retired steps,
//! same simulated cycles), so a drift between these copies and the
//! originals aborts the traced run instead of skewing its numbers.

use crate::trace::Calls;
use neve_armv8::isa::Instr;
use neve_armv8::machine::{ExitInfo, Hypervisor, Machine, StepOutcome};
use neve_cycles::counter::Delta;
use neve_kvmarm::guesthyp::slots;
use neve_kvmarm::guests::DONE;
use neve_kvmarm::testbed::DEFAULT_STEP_BUDGET;
use neve_kvmarm::vcpu::Ctx;
use neve_kvmarm::{layout, HostHyp, MicroBench, TestBed};
use neve_sysreg::{RegId, SysReg};
use std::time::{Duration, Instant};

/// `TestBed`'s warm-up iterations (the EOI bracket drops them).
const WARMUP: u64 = 8;

/// `service_wakeups` runs once per step and costs about as much as the
/// two clock reads that would time it, so only one call in this many is
/// timed; every call is counted.
const WAKEUP_SAMPLE: u64 = 16;

/// Times every host-hypervisor entry of the wrapped `HostHyp`.
pub struct TimedHyp<'a> {
    inner: &'a mut HostHyp,
    sync: Calls,
    irq: Calls,
}

impl TimedHyp<'_> {
    fn ns(&self) -> u64 {
        self.sync.ns + self.irq.ns
    }
}

impl Hypervisor for TimedHyp<'_> {
    fn handle_sync(&mut self, m: &mut Machine, cpu: usize, info: ExitInfo) {
        let t = Instant::now();
        self.inner.handle_sync(m, cpu, info);
        self.sync.timed(t.elapsed());
    }

    fn handle_irq(&mut self, m: &mut Machine, cpu: usize) {
        let t = Instant::now();
        self.inner.handle_irq(m, cpu);
        self.irq.timed(t.elapsed());
    }
}

/// A testbed being stepped under timing. Every `Machine` scheduling
/// call is timed net of the hypervisor exits it triggers, so the
/// aggregates are disjoint self times.
pub struct Timed<'a> {
    m: &'a mut Machine,
    hyp: TimedHyp<'a>,
    wakeups: Calls,
    park: Calls,
    advance: Calls,
}

impl<'a> Timed<'a> {
    /// Wraps a testbed's machine and host hypervisor.
    pub fn new(tb: &'a mut TestBed) -> Self {
        Self {
            m: &mut tb.m,
            hyp: TimedHyp {
                inner: &mut tb.hyp,
                sync: Calls::new("kvmarm.handle_sync"),
                irq: Calls::new("kvmarm.handle_irq"),
            },
            wakeups: Calls::new("armv8.service_wakeups"),
            park: Calls::new("armv8.park"),
            advance: Calls::new("armv8.advance_to_wake"),
        }
    }

    /// The aggregated calls, for the enclosing span.
    pub fn calls(&self) -> Vec<Calls> {
        vec![
            self.hyp.sync,
            self.hyp.irq,
            self.wakeups,
            self.park,
            self.advance,
        ]
    }

    fn step(&mut self, cpu: usize) -> StepOutcome {
        self.m.step(&mut self.hyp, cpu)
    }

    /// Runs `f`, returning its result and its time net of the
    /// host-hypervisor exits it triggered.
    fn net<R>(&mut self, f: impl FnOnce(&mut Machine, &mut TimedHyp<'a>) -> R) -> (R, Duration) {
        let h0 = self.hyp.ns();
        let t = Instant::now();
        let r = f(self.m, &mut self.hyp);
        let hyp = Duration::from_nanos(self.hyp.ns() - h0);
        (r, t.elapsed().saturating_sub(hyp))
    }

    fn service_wakeups(&mut self) {
        if self.wakeups.count.is_multiple_of(WAKEUP_SAMPLE) {
            let (_, d) = self.net(|m, h| m.service_wakeups(h));
            self.wakeups.timed(d);
        } else {
            self.wakeups.untimed();
            self.m.service_wakeups(&mut self.hyp);
        }
    }

    fn park(&mut self, cpu: usize) {
        let (_, d) = self.net(|m, h| m.park(h, cpu));
        self.park.timed(d);
    }

    fn advance_to_wake(&mut self) -> bool {
        let (woke, d) = self.net(|m, h| m.advance_to_wake(h));
        self.advance.timed(d);
        woke
    }

    /// The payload's remaining-iterations counter (x10), wherever the
    /// current context keeps it.
    fn payload_counter(&self) -> u64 {
        match self.hyp.inner.vcpus[0].ctx {
            Ctx::L1Payload | Ctx::L2 => self.m.core(0).gpr(10),
            _ => self
                .m
                .mem
                .read_u64(layout::gh_save_area(0) + slots::GPRS + 8 * 10),
        }
    }

    /// `TestBed::try_run_region` for `bench`: the measured region's
    /// delta and iteration count.
    pub fn run_region(&mut self, bench: MicroBench, iters: u64) -> Result<(Delta, u64), String> {
        self.m.refresh_cost_table();
        match bench {
            MicroBench::VirtualEoi => self.run_eoi(iters),
            MicroBench::VirtualIpi => self.run_ipi(iters),
            _ => self.run_simple(iters),
        }
    }

    fn run_simple(&mut self, iters: u64) -> Result<(Delta, u64), String> {
        let mut snap = None;
        let mut steps: u64 = 0;
        loop {
            let out = self.step(0);
            steps += 1;
            if steps >= DEFAULT_STEP_BUDGET {
                return Err("step budget exhausted".into());
            }
            match out {
                StepOutcome::Executed => {}
                StepOutcome::Halted(code) if code == DONE => break,
                other => return Err(format!("payload stopped: {other:?}")),
            }
            if snap.is_none() && self.payload_counter() == iters {
                snap = Some(self.m.counter.snapshot());
            }
        }
        let snap = snap.ok_or("missed the measurement snapshot")?;
        Ok((self.m.counter.delta_since(&snap), iters))
    }

    fn run_ipi(&mut self, iters: u64) -> Result<(Delta, u64), String> {
        let mut snap = None;
        let mut steps: u64 = 0;
        loop {
            let out0 = self.step(0);
            self.service_wakeups();
            for _ in 0..4 {
                if self.m.is_parked(1) {
                    break;
                }
                let r = self.step(1);
                if r == StepOutcome::Wfi {
                    self.park(1);
                    continue;
                }
                if r != StepOutcome::Executed {
                    return Err(format!("receiver stopped: {r:?}"));
                }
            }
            steps += 1;
            if steps >= DEFAULT_STEP_BUDGET {
                return Err("step budget exhausted".into());
            }
            match out0 {
                StepOutcome::Executed | StepOutcome::Wfi => {}
                StepOutcome::Halted(code) if code == DONE => break,
                other => return Err(format!("sender stopped: {other:?}")),
            }
            if snap.is_none() && self.payload_counter() == iters {
                snap = Some(self.m.counter.snapshot());
            }
        }
        let snap = snap.ok_or("missed the measurement snapshot")?;
        Ok((self.m.counter.delta_since(&snap), iters))
    }

    fn run_eoi(&mut self, iters: u64) -> Result<(Delta, u64), String> {
        let mut measured = Delta::default();
        let mut done = 0u64;
        let mut steps: u64 = 0;
        loop {
            let at_eoir = matches!(
                self.m.peek(self.m.core(0).pc),
                Some(Instr::Msr(RegId::Plain(SysReg::IccEoir1El1), _))
            );
            let snapped = at_eoir.then(|| self.m.counter.snapshot());
            let out = self.step(0);
            steps += 1;
            if steps >= DEFAULT_STEP_BUDGET {
                return Err("step budget exhausted".into());
            }
            if let Some(s) = snapped {
                let d = self.m.counter.delta_since(&s);
                done += 1;
                if done > WARMUP {
                    measured.accumulate(&d);
                }
            }
            match out {
                StepOutcome::Executed => {}
                StepOutcome::Halted(code) if code == DONE => break,
                other => return Err(format!("payload stopped: {other:?}")),
            }
        }
        if done < iters || done <= WARMUP {
            return Err(format!("EOI shortfall: {done} of {iters}"));
        }
        Ok((measured, done - WARMUP))
    }

    /// `TestBed::try_run_wheel` until cpu 0 halts: host steps retired.
    pub fn run_wheel_to_halt(&mut self) -> Result<u64, String> {
        self.m.refresh_cost_table();
        let mut halted = vec![false; self.m.ncpus()];
        let mut steps: u64 = 0;
        let mut round: Vec<usize> = Vec::new();
        loop {
            if self.m.core(0).halted == Some(DONE) {
                return Ok(steps);
            }
            round.clear();
            round.extend(self.m.runnable().iter().copied().filter(|&c| !halted[c]));
            if round.is_empty() {
                if !self.advance_to_wake() {
                    return Err("no runnable core and no pending event".into());
                }
                continue;
            }
            for &cpu in &round {
                match self.step(cpu) {
                    StepOutcome::Executed => {}
                    StepOutcome::Wfi => self.park(cpu),
                    StepOutcome::Halted(code) if code == DONE => halted[cpu] = true,
                    other => return Err(format!("cpu {cpu} stopped: {other:?}")),
                }
                steps += 1;
                if steps >= DEFAULT_STEP_BUDGET {
                    return Err("step budget exhausted".into());
                }
                self.service_wakeups();
            }
        }
    }
}
