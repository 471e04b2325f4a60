//! Host-side simulator throughput: steps/sec and ns/step per platform
//! configuration and per event-wheel scenario.
//!
//! Every paper artifact is bottlenecked by `Machine::step`, so this
//! module measures how fast the *host* retires simulated steps — the
//! evidence that the interpreter fast path pays. There are two kinds of
//! subject and one record, [`Throughput`], for both: a configuration
//! sample runs all four microbenchmarks of that configuration
//! start-to-finish on fresh testbeds (the same cells the evaluation
//! matrix measures), and a `bigsmp_idle_N` scenario sample drains an
//! N-vCPU mostly idle guest on the event wheel. Either way one sampler
//! ([`measure`], built on the in-tree criterion shim) divides retired
//! steps by wall-clock time and summarizes median/min/max; one writer
//! and one reader carry the record through the report's `current` and
//! `scenarios` sections; one 20% band check guards both.
//!
//! Unlike the cycle-accounting caches, wall-clock results are host
//! dependent and *not* deterministic; `results/bench_throughput.json`
//! is a report artifact (like `figure2.csv`), not a replay gate. The
//! simulated step counts, however, are deterministic and are asserted
//! identical across samples.

use crate::platforms::{arm_config, x86_config, Config};
use crate::session::Bench;
use criterion::Criterion;
use neve_armv8::Engine;
use neve_json::JsonValue;
use neve_kvmarm::{guests, TestBed};
use neve_x86vt::testbed::X86TestBed;
use std::collections::BTreeMap;

/// Where the throughput report lives.
pub const BENCH_PATH: &str = "results/bench_throughput.json";

/// How the numbers in [`BENCH_PATH`] were obtained (recorded in the
/// JSON so the artifact is self-describing).
pub const METHODOLOGY: &str = "One sample = run all four microbenchmarks (hypercall, device_io, \
     virtual_ipi, virtual_eoi) of a configuration on freshly built \
     testbeds, warm-up plus measured iterations, exactly as the \
     evaluation matrix does; steps = machine steps retired across all \
     CPUs summed over the four cells (bit-identical across samples by \
     determinism), time = wall-clock per sample via the in-tree \
     criterion shim (one untimed warm-up sample, then `samples` timed \
     runs; median reported). steps_per_sec = steps * 1e9 / median_ns. \
     The current section is the working tree; `neve bench-sim --guard` \
     compares fresh samples against it. The scenarios section \
     measures event-wheel shapes that are not evaluation-matrix \
     configurations: bigsmp_idle_N runs an N-vCPU guest with one busy \
     core (hypercall loop) and N-1 cores parked in wfi on the event \
     wheel; steps = host steps retired by the wheel run loop, so idle \
     cores that cost host work show up directly as lost steps/sec.";

/// One subject's measured throughput: an evaluation-matrix
/// configuration (labelled by [`Config::label`]) or an event-wheel
/// scenario (e.g. `bigsmp_idle_64`).
#[derive(Debug, Clone, PartialEq)]
pub struct Throughput {
    /// The subject measured.
    pub label: String,
    /// Simulated steps retired per sample (deterministic, asserted
    /// identical across samples).
    pub steps: u64,
    /// Median wall-clock nanoseconds per sample.
    pub median_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Timed samples (warm-up excluded).
    pub samples: usize,
}

impl Throughput {
    /// Host-side simulated steps per second (median sample).
    pub fn steps_per_sec(&self) -> f64 {
        per_sec(self.steps, self.median_ns)
    }

    /// Host steps per second of the fastest sample (what the guard
    /// compares — see [`guard_band`] on why best-case).
    pub fn best_steps_per_sec(&self) -> f64 {
        per_sec(self.steps, self.min_ns)
    }

    /// Host nanoseconds per simulated step (median sample).
    pub fn ns_per_step(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.median_ns as f64 / self.steps as f64
    }
}

fn per_sec(steps: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    steps as f64 * 1e9 / ns as f64
}

/// Times `run` — one untimed warm-up run, then `samples` timed runs —
/// and records the steps each run returns under `label`.
///
/// # Panics
///
/// Panics if the retired-step count varies across runs (a determinism
/// violation).
pub fn measure(label: &str, samples: usize, mut run: impl FnMut() -> u64) -> Throughput {
    let mut c = Criterion::default();
    c.sample_size(samples);
    let mut step_counts: Vec<u64> = Vec::new();
    let summary = c.measure(label, |b| b.iter(|| step_counts.push(run())));
    let steps = step_counts[0];
    assert!(
        step_counts.iter().all(|&s| s == steps),
        "retired steps varied across samples for {label}: {step_counts:?}"
    );
    Throughput {
        label: label.to_string(),
        steps,
        median_ns: summary.median.as_nanos() as u64,
        min_ns: summary.min.as_nanos() as u64,
        max_ns: summary.max.as_nanos() as u64,
        samples: summary.samples,
    }
}

/// Runs every benchmark of `config` once on fresh testbeds and returns
/// the total machine steps retired. `engine` steps the ARM cells; x86
/// configurations have no micro-op engine and ignore it.
///
/// # Panics
///
/// Panics if any cell faults — throughput is only meaningful on a
/// healthy tree, and the regular test suite gates cell health.
pub fn run_config(config: Config, engine: Engine) -> u64 {
    let mut steps = 0u64;
    for bench in Bench::all() {
        let iters = bench.iters();
        let fault = |f| panic!("{:?}/{}: {f}", config, bench.label());
        steps += match arm_config(config) {
            Some(ac) => {
                let mut tb = TestBed::new(ac, bench.arm(), iters);
                tb.m.set_engine(engine);
                tb.try_run_measured(iters).unwrap_or_else(fault);
                tb.m.steps_retired()
            }
            None => {
                let mut tb = X86TestBed::new(x86_config(config), bench.x86(), iters);
                tb.try_run_measured(iters).unwrap_or_else(fault);
                tb.m.steps_retired()
            }
        };
    }
    steps
}

/// Measures each of `configs` (in order) with `samples` timed runs of
/// [`run_config`].
pub fn measure_configs(configs: &[Config], samples: usize, engine: Engine) -> Vec<Throughput> {
    configs
        .iter()
        .map(|&config| measure(config.label(), samples, || run_config(config, engine)))
        .collect()
}

/// vCPU counts of the recorded `bigsmp_idle` scenarios. The pair is
/// the idle-core-cost axis: the guard asserts the 64-vCPU shape stays
/// within [`BIGSMP_IDLE_SPREAD`]x of the 8-vCPU shape in host
/// steps/sec, which only holds while parked cores are free.
pub const BIGSMP_IDLE_VCPUS: [usize; 2] = [8, 64];

/// Maximum tolerated fresh steps/sec ratio between the smallest and
/// largest `bigsmp_idle` shapes (64 mostly idle vCPUs within 2x of 8).
pub const BIGSMP_IDLE_SPREAD: f64 = 2.0;

/// Busy-core hypercall iterations per `bigsmp_idle` sample — enough
/// work that building 56 extra vCPUs of testbed state does not
/// dominate the timing (the scenario measures run-loop cost, and the
/// idle-scaling bound only reflects it once stepping dominates).
pub const BIGSMP_IDLE_ITERS: u64 = 25_000;

/// Scenario label for an N-vCPU mostly-idle guest.
pub fn bigsmp_idle_label(vcpus: usize) -> String {
    format!("bigsmp_idle_{vcpus}")
}

/// Runs one `bigsmp_idle` sample: builds the N-vCPU one-busy-core
/// testbed and drains it on the event wheel until the busy core halts.
/// Returns the host steps the run loop retired.
///
/// # Panics
///
/// Panics if the wheel run faults — like the matrix cells, throughput
/// is only meaningful on a healthy tree.
pub fn run_bigsmp_idle(vcpus: usize) -> u64 {
    let mut tb = TestBed::new_bigsmp(vcpus, false, BIGSMP_IDLE_ITERS);
    tb.try_run_wheel(|m| m.core(0).halted == Some(guests::DONE))
        .unwrap_or_else(|f| panic!("bigsmp_idle_{vcpus}: {f}"))
}

/// Measures every recorded scenario with `samples` timed runs of
/// [`run_bigsmp_idle`].
pub fn measure_scenarios(samples: usize) -> Vec<Throughput> {
    BIGSMP_IDLE_VCPUS
        .into_iter()
        .map(|vcpus| {
            measure(&bigsmp_idle_label(vcpus), samples, || {
                run_bigsmp_idle(vcpus)
            })
        })
        .collect()
}

/// The report's schema tag; a report with any other tag is not read.
const SCHEMA: &str = "neve-bench-throughput-v1";

/// Renders one report section: each record keyed by its label, followed
/// by its steps/sec and, when `per_step` (the `current` section), its
/// ns/step.
fn section_json(records: &[Throughput], per_step: bool) -> JsonValue {
    let record = |r: &Throughput| {
        let mut fields = vec![
            ("steps", r.steps as f64),
            ("median_ns", r.median_ns as f64),
            ("min_ns", r.min_ns as f64),
            ("max_ns", r.max_ns as f64),
            ("samples", r.samples as f64),
            ("steps_per_sec", r.steps_per_sec()),
        ];
        if per_step {
            fields.push(("ns_per_step", r.ns_per_step()));
        }
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), JsonValue::Number(v)))
                .collect(),
        )
    };
    JsonValue::Object(
        records
            .iter()
            .map(|r| (r.label.clone(), record(r)))
            .collect(),
    )
}

/// Renders the report JSON: the `current` section, plus the
/// event-wheel `scenarios` section (`bigsmp_idle_*`) unless
/// `scenarios` is empty.
pub fn report_json(current: &[Throughput], scenarios: &[Throughput]) -> String {
    let fingerprint = format!("{:#018x}", neve_cycles::CostModel::default().fingerprint());
    let mut root: Vec<(String, JsonValue)> = vec![
        ("schema".to_string(), JsonValue::from(SCHEMA)),
        ("methodology".to_string(), JsonValue::from(METHODOLOGY)),
        ("fingerprint".to_string(), JsonValue::from(fingerprint)),
        ("current".to_string(), section_json(current, true)),
    ];
    if !scenarios.is_empty() {
        root.push(("scenarios".to_string(), section_json(scenarios, false)));
    }
    JsonValue::Object(root).pretty()
}

/// Reads the `key` section (`"current"` or `"scenarios"`) back from a
/// report file's text. Returns `None` if the text does not parse, the
/// schema is unknown, or the section (or any record in it) is malformed
/// or absent — reports recorded before the event wheel have no
/// `scenarios`.
pub fn section_from_report(text: &str, key: &str) -> Option<Vec<Throughput>> {
    let root = neve_json::parse(text).ok()?;
    if root.get("schema")?.as_str()? != SCHEMA {
        return None;
    }
    root.get(key)?
        .as_object()?
        .iter()
        .map(|(label, record)| {
            let num = |key: &str| record.get(key)?.as_f64();
            Some(Throughput {
                label: label.clone(),
                steps: num("steps")? as u64,
                median_ns: num("median_ns")? as u64,
                min_ns: num("min_ns")? as u64,
                max_ns: num("max_ns")? as u64,
                samples: num("samples")? as usize,
            })
        })
        .collect()
}

/// Maximum tolerated steps/sec regression for the CI guard, as a
/// fraction of the recorded value: the gate fails when throughput
/// drops below `1 - GUARD_TOLERANCE` of the recorded number.
pub const GUARD_TOLERANCE: f64 = 0.20;

/// The throughput band: compares fresh records against recorded ones
/// and returns one line per label whose fresh throughput fell more than
/// [`GUARD_TOLERANCE`] below the recorded median steps/sec. Labels
/// absent from the recorded set are skipped (they have nothing to
/// regress against).
///
/// The *fastest* fresh sample is compared, not the median: wall-clock
/// numbers are host dependent and a loaded CI machine produces slow
/// samples routinely. A best-case sample that is still 20% under the
/// recorded median means the tree itself got slower.
pub fn guard_band(fresh: &[Throughput], recorded: &[Throughput]) -> Vec<String> {
    let by_label: BTreeMap<&str, &Throughput> =
        recorded.iter().map(|r| (r.label.as_str(), r)).collect();
    fresh
        .iter()
        .filter_map(|f| {
            let r = by_label.get(f.label.as_str())?;
            let floor = r.steps_per_sec() * (1.0 - GUARD_TOLERANCE);
            (f.best_steps_per_sec() < floor).then(|| {
                format!(
                    "{}: best fresh sample {:.0} steps/s is more than {:.0}% below \
                     the recorded {:.0} steps/s",
                    f.label,
                    f.best_steps_per_sec(),
                    GUARD_TOLERANCE * 100.0,
                    r.steps_per_sec()
                )
            })
        })
        .collect()
}

/// The idle-core scaling bound: the largest fresh `bigsmp_idle` shape
/// must stay within [`BIGSMP_IDLE_SPREAD`]x of the smallest in host
/// steps/sec. It compares two fresh samples against each other, so
/// host load cancels out and it holds (or fails) on any machine.
fn idle_scaling(fresh: &[Throughput]) -> Option<String> {
    let find = |v: usize| fresh.iter().find(|s| s.label == bigsmp_idle_label(v));
    let [small, large] = BIGSMP_IDLE_VCPUS.map(find);
    let (s, l) = (small?, large?);
    let (s_sps, l_sps) = (s.best_steps_per_sec(), l.best_steps_per_sec());
    (l_sps * BIGSMP_IDLE_SPREAD < s_sps).then(|| {
        format!(
            "{}: {:.0} steps/s is more than {}x slower than {} at {:.0} \
             steps/s — idle cores are costing host work again",
            l.label, l_sps, BIGSMP_IDLE_SPREAD, s.label, s_sps
        )
    })
}

/// The `--guard` gate's verdict with its one-noise-retry policy,
/// centralized so the sample-selection rule is pinned by a unit test.
/// A verdict is [`guard_band`] over the configurations, then over the
/// scenarios, then the [`idle_scaling`] bound — over **one attempt's
/// samples alone**. Each attempt is `(configurations, scenarios)`. A
/// clean first attempt decides immediately; a regressed first attempt
/// is discarded wholesale and the verdict is re-taken on the retry
/// attempt by itself. Samples are never merged across attempts —
/// `--guard --samples N` always compares exactly N clean samples, so a
/// lucky fast sample inside a discarded attempt cannot rescue a
/// configuration that is slow in the attempt that decides.
pub fn noise_retry_verdict(
    recorded: &[Throughput],
    recorded_scenarios: &[Throughput],
    first: (&[Throughput], &[Throughput]),
    retry: Option<(&[Throughput], &[Throughput])>,
) -> Vec<String> {
    let verdict = |(configs, scenarios): (&[Throughput], &[Throughput])| {
        let mut bad = guard_band(configs, recorded);
        bad.extend(guard_band(scenarios, recorded_scenarios));
        bad.extend(idle_scaling(scenarios));
        bad
    };
    let bad = verdict(first);
    match retry {
        Some(retry) if !bad.is_empty() => verdict(retry),
        _ => bad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, steps: u64, ns: u64) -> Throughput {
        Throughput {
            label: label.to_string(),
            steps,
            median_ns: ns,
            min_ns: ns,
            max_ns: ns,
            samples: 3,
        }
    }

    #[test]
    fn report_roundtrips_both_sections() {
        let cur = vec![Throughput {
            label: "ARMv8.3 Nested".to_string(),
            steps: 1_000_000,
            median_ns: 50_000_000,
            min_ns: 49_000_000,
            max_ns: 52_000_000,
            samples: 5,
        }];
        let scen = vec![record("bigsmp_idle_8", 13_000, 1_000_000)];
        let text = report_json(&cur, &scen);
        assert_eq!(section_from_report(&text, "current").unwrap(), cur);
        assert_eq!(section_from_report(&text, "scenarios").unwrap(), scen);
        // `current` and `scenarios` are the report's only sections.
        let root = neve_json::parse(&text).unwrap();
        assert!(root.get("baseline").is_none() && root.get("speedup").is_none());
    }

    /// The writer reproduces the tracked report's sections exactly,
    /// key order and derived rates included.
    #[test]
    fn the_tracked_report_rerenders_byte_for_byte() {
        let text = include_str!("../../../results/bench_throughput.json");
        let root = neve_json::parse(text).unwrap();
        let current = section_from_report(text, "current").unwrap();
        let scenarios = section_from_report(text, "scenarios").unwrap();
        assert_eq!(current.len(), Config::all().len());
        assert_eq!(scenarios.len(), BIGSMP_IDLE_VCPUS.len());
        assert_eq!(&section_json(&current, true), root.get("current").unwrap());
        assert_eq!(
            &section_json(&scenarios, false),
            root.get("scenarios").unwrap()
        );
    }

    #[test]
    fn steps_per_sec_is_consistent_with_ns_per_step() {
        let s = Throughput {
            min_ns: 1,
            max_ns: 1,
            samples: 1,
            ..record("ARM VM", 2_000, 1_000_000)
        };
        assert!((s.steps_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert!((s.best_steps_per_sec() - 2e12).abs() < 1e-3);
        assert!((s.ns_per_step() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn a_cell_run_retires_steps_deterministically() {
        let a = run_config(Config::ArmVm, Engine::default());
        let b = run_config(Config::ArmVm, Engine::default());
        assert!(a > 0);
        assert_eq!(a, b);
    }

    #[test]
    fn both_engines_retire_identical_step_counts() {
        let uop = run_config(Config::ArmNestedV83, Engine::Uop);
        let interp = run_config(Config::ArmNestedV83, Engine::Interp);
        assert_eq!(uop, interp, "engine choice changed simulated behaviour");
    }

    #[test]
    fn guard_passes_within_band_and_fails_beyond_it() {
        // Recorded: 10M steps/s.
        let rec = record("ARMv8.3 Nested", 1_000_000, 100_000_000);
        // Best sample 9M steps/s: a 10% dip, inside the 20% band.
        let ok = Throughput {
            median_ns: 130_000_000,
            min_ns: 111_111_111,
            ..rec.clone()
        };
        let recorded = [rec.clone()];
        assert_eq!(guard_band(&[ok], &recorded), Vec::<String>::new());
        // Best sample 5M steps/s: a 50% regression, out of band.
        let slow = Throughput {
            median_ns: 220_000_000,
            min_ns: 200_000_000,
            ..rec
        };
        let bad = guard_band(std::slice::from_ref(&slow), &recorded);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("ARMv8.3 Nested"), "{bad:?}");
        // A config with no recorded counterpart is skipped.
        let other = Throughput {
            label: "ARM VM".to_string(),
            ..slow
        };
        assert_eq!(guard_band(&[other], &recorded), Vec::<String>::new());
    }

    /// Pins the retry sample-selection rule: the decision always rests
    /// on exactly one attempt's N samples. A min-merge of both attempts
    /// would let a configuration slow in the retry be rescued by a fast
    /// first-attempt outlier — best-of-2N instead of best-of-N.
    #[test]
    fn noise_retry_judges_the_retry_attempt_alone() {
        let at = |label, ns| record(label, 1_000_000, ns);
        // Recorded: both configs at 10M steps/s; the 20% floor is 8M.
        let recorded = vec![
            at("ARMv8.3 Nested", 100_000_000),
            at("NEVE Nested", 100_000_000),
        ];
        let fast = 111_111_111; // 9M steps/s: inside the band
        let slow = 200_000_000; // 5M steps/s: far out of band
                                // First attempt: V83 slow (triggers the retry), NEVE fast.
        let first = vec![at("ARMv8.3 Nested", slow), at("NEVE Nested", fast)];
        // Retry: V83 recovered (it was host noise), NEVE now slow.
        let retry = vec![at("ARMv8.3 Nested", fast), at("NEVE Nested", slow)];

        // Without a retry the first attempt's verdict stands.
        let bad = noise_retry_verdict(&recorded, &[], (&first, &[]), None);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("ARMv8.3 Nested"), "{bad:?}");

        // With the retry, NEVE must fail: its fast first-attempt sample
        // is in a discarded attempt and cannot rescue it. (A min-merge
        // would pass both configs here.)
        let bad = noise_retry_verdict(&recorded, &[], (&first, &[]), Some((&retry, &[])));
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("NEVE Nested"), "{bad:?}");

        // A clean first attempt decides immediately; a retry attempt is
        // never consulted (and in practice never measured).
        let clean = vec![at("ARMv8.3 Nested", fast), at("NEVE Nested", fast)];
        let bad = noise_retry_verdict(&recorded, &[], (&clean, &[]), Some((&first, &[])));
        assert_eq!(bad, Vec::<String>::new());
    }

    #[test]
    fn scenarios_roundtrip_through_the_report() {
        let cur = vec![Throughput {
            min_ns: 900_000,
            max_ns: 1_100_000,
            ..record("ARM VM", 1_000, 1_000_000)
        }];
        let scen = vec![
            record("bigsmp_idle_8", 13_000, 1_000_000),
            record("bigsmp_idle_64", 13_056, 1_200_000),
        ];
        let text = report_json(&cur, &scen);
        assert_eq!(section_from_report(&text, "scenarios").unwrap(), scen);
        // The matrix section is unaffected by the extra section.
        assert_eq!(section_from_report(&text, "current").unwrap(), cur);
        // A scenario-less report (the pre-wheel format) has no section.
        let old = report_json(&cur, &[]);
        assert!(section_from_report(&old, "scenarios").is_none());
    }

    #[test]
    fn scenario_guard_flags_regressions_and_idle_scaling() {
        let rec = vec![
            record("bigsmp_idle_8", 13_000, 1_000_000),
            record("bigsmp_idle_64", 13_056, 1_200_000),
        ];
        let verdict = |fresh: &[Throughput], recorded: &[Throughput]| {
            noise_retry_verdict(&[], recorded, (&[], fresh), None)
        };
        // Fresh within band and within the 2x spread: clean.
        assert_eq!(verdict(&rec, &rec), Vec::<String>::new());
        // 64-vCPU shape collapses to 3x slower than recorded *and* more
        // than 2x under the fresh 8-vCPU shape: both checks fire.
        let slow = vec![rec[0].clone(), record("bigsmp_idle_64", 13_056, 3_600_000)];
        let bad = verdict(&slow, &rec);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[1].contains("idle cores"), "{bad:?}");
        // An unrecorded label is skipped by the band check but the
        // fresh-vs-fresh scaling bound still applies.
        let bad = verdict(&slow, &rec[..1]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("idle cores"), "{bad:?}");
    }

    #[test]
    fn bigsmp_idle_runs_are_deterministic_and_mostly_free() {
        let a = run_bigsmp_idle(8);
        let b = run_bigsmp_idle(8);
        assert!(a > 0);
        assert_eq!(a, b);
        // The idle-core tax in host steps: exactly one step per extra
        // parked core for the whole run.
        let wide = run_bigsmp_idle(64);
        assert_eq!(wide, a + 56);
    }
}
