//! Raw per-layer accumulators of one round. Rounds are pooled by adding
//! sums and concatenating samples; ratios are taken only after pooling
//! (see `report::per_layer`), so a round with few calls weighs little.

use crate::trace::{self_ns, Calls, Span};
use neve_armv8::machine::Machine;
use std::collections::BTreeMap;

/// Sums and samples keyed by accumulator name.
#[derive(Debug, Default, Clone)]
pub struct Record {
    /// Additive totals (counts, ns).
    pub sums: BTreeMap<String, f64>,
    /// Per-op or per-request values whose median is reported.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Record {
    /// Adds `v` to the sum `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// Appends a sample to `key`.
    pub fn sample(&mut self, key: &str, v: f64) {
        self.samples.entry(key.to_string()).or_default().push(v);
    }

    /// The sum `key`, 0 when never added.
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// The samples of `key`, empty when never added.
    pub fn samples_of(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Folds one traced ARM run: `span` covers the run loop and carries
    /// its aggregated exits and scheduling calls; `steps` is what the
    /// run retired. `class` (`v83`, `neve`, `vm` or empty) files the run
    /// under a configuration as well; `wheel` marks wheel-driven runs.
    pub fn arm_run(&mut self, class: &str, span: &Span, steps: u64, wheel: bool) {
        let calls = |name: &str| {
            span.calls
                .iter()
                .find(|c| c.name == name)
                .copied()
                .unwrap_or(Calls::new("none"))
        };
        let sync = calls("kvmarm.handle_sync");
        let irq = calls("kvmarm.handle_irq");
        let exits = (sync.count + irq.count) as f64;
        let exit_ns = (sync.ns + irq.ns) as f64;
        let step_self = self_ns(span, &[]) as f64;
        let steps = steps as f64;
        self.add("kvmarm.exits", exits);
        self.add("kvmarm.exit_ns", exit_ns);
        self.add("armv8.steps", steps);
        self.add("armv8.step_self_ns", step_self);
        for name in [
            "armv8.service_wakeups",
            "armv8.park",
            "armv8.advance_to_wake",
        ] {
            let c = calls(name);
            self.add(&format!("{name}.calls"), c.count as f64);
            self.add(&format!("{name}.timed"), c.timed as f64);
            self.add(&format!("{name}.ns"), c.ns as f64);
        }
        if !class.is_empty() {
            self.add(&format!("kvmarm.exits.{class}"), exits);
            self.add(&format!("kvmarm.exit_ns.{class}"), exit_ns);
            self.add(&format!("run_ns.{class}"), span.ns() as f64);
            self.add(&format!("armv8.steps.{class}"), steps);
            self.add(&format!("armv8.step_self_ns.{class}"), step_self);
        }
        if wheel {
            self.add("wheel.steps", steps);
            self.add("wheel.step_self_ns", step_self);
        }
    }

    /// Folds a finished machine's exact counters: TLB, NEVE deferrals,
    /// deferrable traps, simulated cycles and traps.
    pub fn machine(&mut self, m: &Machine) {
        let (hits, misses, flushes) = m.tlb.stats();
        self.add("memsim.tlb_hits", hits as f64);
        self.add("memsim.tlb_misses", misses as f64);
        self.add("memsim.tlb_flushes", flushes as f64);
        self.add("neve.vncr_deferrals", m.vncr_deferrals() as f64);
        self.add("armv8.deferrable_traps", m.deferrable_sysreg_traps() as f64);
        self.add("cycles.sim_cycles", m.counter.cycles() as f64);
        self.add("cycles.traps", m.counter.traps_total() as f64);
    }
}
