//! `sim_throughput` — host-side simulator throughput (steps/sec and
//! ns/step per platform configuration).
//!
//! Modes:
//!
//! - default: measure every configuration and write
//!   `results/bench_throughput.json`, preserving (and reporting
//!   speedups against) a previously recorded baseline section.
//! - `--record-baseline`: measure and write the results as the
//!   *baseline* section only — run this at the commit you want later
//!   runs compared against.
//! - `--smoke`: the CI gate. Re-measures the evaluation matrix and
//!   asserts it is byte-identical to the cached file for the current
//!   cost-model fingerprint (the determinism invariant), then prints
//!   steps/sec for a quick configuration pair. Exits non-zero on any
//!   mismatch; never writes `results/`.
//! - `--guard`: the throughput-regression gate. Freshly measures the
//!   nested ARM configurations plus the `bigsmp_idle` event-wheel
//!   scenarios and fails (exit 1) if any best-case sample lands more
//!   than 20% below the steps/sec recorded in
//!   `results/bench_throughput.json`, or if the 64-vCPU mostly-idle
//!   scenario falls more than 2x under the 8-vCPU one (idle cores
//!   costing host work). Never writes `results/`.
//!
//! `--samples N` overrides the timed sample count (default 5).
//! `--engine uop|interp` selects the step engine for the ARM cells:
//! the pre-decoded micro-op IR (default) or the reference
//! interpreter — the axis the decode-once speedup is measured along.

use neve_armv8::Engine;
use neve_cycles::CostModel;
use neve_workloads::cache::{self, CACHE_PATH};
use neve_workloads::par::default_jobs;
use neve_workloads::platforms::{Config, MicroMatrix};
use neve_workloads::throughput::{
    self, measure_config_with, ConfigThroughput, ScenarioThroughput, BENCH_PATH,
};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: sim_throughput [--samples N] [--engine uop|interp] \
         [--record-baseline | --smoke | --guard]\n\
         \n\
         Measures host-side simulated steps/sec per configuration and\n\
         writes {BENCH_PATH}.\n\
         --record-baseline  store this run as the comparison baseline\n\
         --smoke            CI mode: matrix byte-identity + quick steps/sec\n\
         --guard            CI mode: fail on a >20% steps/sec regression\n\
         \u{20}                   against the recorded `current` section\n\
         --engine E         step engine for ARM cells: uop (default) or interp\n\
         --samples N        timed samples per configuration (default 5)"
    );
    std::process::exit(2);
}

fn print_stats(stats: &[ConfigThroughput]) {
    println!(
        "\n{:<20} {:>14} {:>14} {:>10}",
        "config", "steps/sec", "ns/step", "steps"
    );
    for s in stats {
        println!(
            "{:<20} {:>14.0} {:>14.1} {:>10}",
            s.config.label(),
            s.steps_per_sec(),
            s.ns_per_step(),
            s.steps
        );
    }
}

fn print_scenarios(stats: &[ScenarioThroughput]) {
    println!("\n{:<20} {:>14} {:>10}", "scenario", "steps/sec", "steps");
    for s in stats {
        println!(
            "{:<20} {:>14.0} {:>10}",
            s.label,
            s.steps_per_sec(),
            s.steps
        );
    }
}

/// The CI determinism gate: the freshly measured matrix must
/// serialize byte-identically to the cached file (same fingerprint).
fn smoke(samples: usize, engine: Engine) {
    let fingerprint = CostModel::default().fingerprint();
    let cached = std::fs::read_to_string(CACHE_PATH).ok();
    let matches_fingerprint = cached
        .as_deref()
        .map(|text| cache::from_json(text, fingerprint).is_some())
        .unwrap_or(false);
    if matches_fingerprint {
        let fresh = cache::to_json(&MicroMatrix::measure_parallel(default_jobs()), fingerprint);
        if Some(fresh.as_str()) != cached.as_deref() {
            eprintln!(
                "FAIL: freshly measured matrix differs from {CACHE_PATH} \
                 for fingerprint {fingerprint:#018x} — the simulation is \
                 no longer bit-identical to the cached measurement"
            );
            std::process::exit(1);
        }
        println!("matrix byte-identical to {CACHE_PATH} (fingerprint {fingerprint:#018x})");
    } else {
        // No comparable cache: fall back to self-consistency, which
        // still catches nondeterminism introduced by a change.
        let a = cache::to_json(&MicroMatrix::measure_parallel(default_jobs()), fingerprint);
        let b = cache::to_json(&MicroMatrix::measure_parallel(default_jobs()), fingerprint);
        if a != b {
            eprintln!("FAIL: two matrix measurements disagree — nondeterministic simulation");
            std::process::exit(1);
        }
        println!(
            "no cache for fingerprint {fingerprint:#018x}; \
             two fresh measurements are byte-identical"
        );
    }
    let mut c = criterion::Criterion::default();
    let stats: Vec<ConfigThroughput> = [Config::ArmVm, Config::ArmNestedV83]
        .into_iter()
        .map(|config| measure_config_with(&mut c, config, samples.min(3), engine))
        .collect();
    print_stats(&stats);
}

/// The throughput-regression gate: nested ARM configurations, fresh
/// best-case sample vs the recorded `current` section.
///
/// Wall clock on a shared host is bursty, so a failed first attempt
/// re-measures once and the verdict is re-taken on the retry attempt
/// *alone* (`throughput::noise_retry_verdict`): a genuine regression
/// is slow in both attempts, a co-tenant burst is not — and either
/// way the decision compares exactly `--samples N` clean samples,
/// never a best-of-both merge.
fn guard(samples: usize, engine: Engine) {
    let report = std::fs::read_to_string(BENCH_PATH).ok();
    let recorded = report
        .as_deref()
        .and_then(|t| throughput::section_from_report(t, "current"));
    let Some(recorded) = recorded else {
        // Nothing recorded yet (fresh checkout before the first full
        // run): the gate has no reference, so it passes vacuously.
        println!("no recorded `current` section in {BENCH_PATH}; guard skipped");
        return;
    };
    // Reports recorded before the event wheel have no scenario
    // section; the per-label bands then pass vacuously but the
    // fresh-vs-fresh idle-scaling bound still applies.
    let recorded_scenarios = report
        .as_deref()
        .and_then(throughput::scenarios_from_report)
        .unwrap_or_default();
    let measure = || -> Vec<ConfigThroughput> {
        let mut c = criterion::Criterion::default();
        [Config::ArmNestedV83, Config::ArmNestedNeve]
            .into_iter()
            .map(|config| measure_config_with(&mut c, config, samples, engine))
            .collect()
    };
    let fresh = measure();
    let fresh_scenarios = throughput::measure_scenarios(samples);
    print_stats(&fresh);
    print_scenarios(&fresh_scenarios);
    let mut bad = throughput::noise_retry_verdict(
        &recorded,
        &recorded_scenarios,
        (&fresh, &fresh_scenarios),
        None,
    );
    if !bad.is_empty() {
        println!("\nfirst attempt regressed; re-measuring once (host noise check)");
        let again = measure();
        let again_scenarios = throughput::measure_scenarios(samples);
        print_stats(&again);
        print_scenarios(&again_scenarios);
        bad = throughput::noise_retry_verdict(
            &recorded,
            &recorded_scenarios,
            (&fresh, &fresh_scenarios),
            Some((&again, &again_scenarios)),
        );
    }
    if !bad.is_empty() {
        eprintln!("\nFAIL: host throughput regressed:");
        for b in &bad {
            eprintln!("  {b}");
        }
        std::process::exit(1);
    }
    println!(
        "\nguard: all configurations and scenarios within {:.0}% of the \
         recorded steps/sec, idle scaling within bounds",
        throughput::GUARD_TOLERANCE * 100.0
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut samples = 5usize;
    let mut record_baseline = false;
    let mut smoke_mode = false;
    let mut guard_mode = false;
    let mut engine = Engine::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--record-baseline" => record_baseline = true,
            "--smoke" => smoke_mode = true,
            "--guard" => guard_mode = true,
            "--engine" => {
                engine = match it.next().map(String::as_str) {
                    Some("uop") => Engine::Uop,
                    Some("interp") => Engine::Interp,
                    _ => usage(),
                };
            }
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    if [record_baseline, smoke_mode, guard_mode]
        .iter()
        .filter(|&&m| m)
        .count()
        > 1
    {
        usage();
    }
    if smoke_mode {
        smoke(samples, engine);
        return;
    }
    if guard_mode {
        guard(samples, engine);
        return;
    }

    let stats = throughput::measure_all_with(samples, engine);
    let scenarios = throughput::measure_scenarios(samples);
    print_stats(&stats);
    print_scenarios(&scenarios);
    if engine != Engine::default() {
        // A non-default engine is a manual experiment, not the report
        // artifact: writing it would make the recorded `current`
        // section describe the wrong engine.
        println!("\n--engine {engine:?}: report not written");
        return;
    }

    let existing = std::fs::read_to_string(BENCH_PATH).ok();
    let text = if record_baseline {
        // A baseline-only report: `current` mirrors the baseline until
        // a later default run replaces it.
        throughput::report_json_with_scenarios(&stats, Some(&stats), &scenarios)
    } else {
        let baseline = existing
            .as_deref()
            .and_then(|t| throughput::section_from_report(t, "baseline"));
        throughput::report_json_with_scenarios(&stats, baseline.as_deref(), &scenarios)
    };
    let path = Path::new(BENCH_PATH);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = cache::write_atomically(path, &text) {
        eprintln!("failed to write {BENCH_PATH}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {BENCH_PATH}");
}
