//! Host-side simulator throughput (`neve bench-sim`): steps/sec and
//! ns/step per platform configuration, plus the `bigsmp_idle`
//! event-wheel scenarios — both measured, printed and recorded as the
//! one [`Throughput`] record of `neve_workloads::throughput`. A default
//! run records `results/bench_throughput.json`; `--smoke` and `--guard`
//! are the CI gates and never write `results/`.

use crate::args;
use neve_armv8::Engine;
use neve_cycles::CostModel;
use neve_workloads::cache::{self, CACHE_PATH};
use neve_workloads::par::default_jobs;
use neve_workloads::platforms::{Config, MicroMatrix};
use neve_workloads::throughput::{
    self, measure_configs, measure_scenarios, section_from_report, Throughput, BENCH_PATH,
};

pub(crate) fn bench_sim_cmd(p: &args::Parsed) -> Result<(), String> {
    let samples = p.get_u64("samples", 5)?.max(1) as usize;
    let engine = match p.get("engine", "uop") {
        "uop" => Engine::Uop,
        "interp" => Engine::Interp,
        other => return Err(format!("unknown engine `{other}` (expected uop or interp)")),
    };
    match (p.has("smoke"), p.has("guard")) {
        (true, true) => Err("--smoke and --guard are separate gates; pass one".into()),
        (true, false) => smoke(samples, engine),
        (false, true) => guard(samples, engine),
        (false, false) => record(samples, engine),
    }
}

/// Prints one report section as a table, with an ns/step column when
/// `per_step` (the configurations).
fn print_table(subject: &str, records: &[Throughput], per_step: bool) {
    let column = |cell: String| if per_step { cell } else { String::new() };
    let head = column(format!(" {:>14}", "ns/step"));
    println!("\n{subject:<20} {:>14}{head} {:>10}", "steps/sec", "steps");
    for r in records {
        let ns = column(format!(" {:>14.1}", r.ns_per_step()));
        println!(
            "{:<20} {:>14.0}{ns} {:>10}",
            r.label,
            r.steps_per_sec(),
            r.steps
        );
    }
}

/// Measures everything and writes the report. A non-default engine is
/// a manual experiment: writing it would make the recorded `current`
/// section describe the wrong engine, so it only prints.
fn record(samples: usize, engine: Engine) -> Result<(), String> {
    let stats = measure_configs(&Config::all(), samples, engine);
    let scenarios = measure_scenarios(samples);
    print_table("config", &stats, true);
    print_table("scenario", &scenarios, false);
    if engine != Engine::default() {
        println!("\n--engine {engine:?}: report not written");
        return Ok(());
    }
    let path = std::path::Path::new(BENCH_PATH);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    cache::write_atomically(path, &throughput::report_json(&stats, &scenarios))
        .map_err(|e| format!("failed to write {BENCH_PATH}: {e}"))?;
    println!("\nwrote {BENCH_PATH}");
    Ok(())
}

/// The CI determinism gate: the freshly measured matrix must
/// serialize byte-identically to the matrix file `neve export` wrote
/// (same fingerprint).
fn smoke(samples: usize, engine: Engine) -> Result<(), String> {
    let fingerprint = CostModel::default().fingerprint();
    let measure = || cache::to_json(&MicroMatrix::measure_parallel(default_jobs()), fingerprint);
    let cached = std::fs::read_to_string(CACHE_PATH)
        .ok()
        .filter(|text| cache::from_json(text, fingerprint).is_some());
    match cached {
        Some(cached) => {
            if measure() != cached {
                return Err(format!(
                    "freshly measured matrix differs from {CACHE_PATH} for fingerprint \
                     {fingerprint:#018x} — the simulation is no longer bit-identical to \
                     the exported measurement"
                ));
            }
            println!("matrix byte-identical to {CACHE_PATH} (fingerprint {fingerprint:#018x})");
        }
        None => {
            // No comparable file: fall back to self-consistency, which
            // still catches nondeterminism introduced by a change.
            if measure() != measure() {
                return Err(
                    "two matrix measurements disagree — nondeterministic simulation".into(),
                );
            }
            println!(
                "no {CACHE_PATH} for fingerprint {fingerprint:#018x}; \
                 two fresh measurements are byte-identical"
            );
        }
    }
    let stats = measure_configs(
        &[Config::ArmVm, Config::ArmNestedV83],
        samples.min(3),
        engine,
    );
    print_table("config", &stats, true);
    Ok(())
}

/// The throughput-regression gate: nested ARM configurations and the
/// idle scenarios, fresh best-case sample vs the recorded `current`
/// section.
///
/// Wall clock on a shared host is bursty, so a failed first attempt
/// re-measures once and the verdict is re-taken on the retry attempt
/// *alone* (`throughput::noise_retry_verdict`): a genuine regression
/// is slow in both attempts, a co-tenant burst is not — and either
/// way the decision compares exactly `--samples N` clean samples,
/// never a best-of-both merge.
fn guard(samples: usize, engine: Engine) -> Result<(), String> {
    let report = std::fs::read_to_string(BENCH_PATH).ok();
    let section = |key| {
        report
            .as_deref()
            .and_then(|text| section_from_report(text, key))
    };
    let Some(recorded) = section("current") else {
        // Nothing recorded yet (fresh checkout before the first full
        // run): the gate has no reference, so it passes vacuously.
        println!("no recorded `current` section in {BENCH_PATH}; guard skipped");
        return Ok(());
    };
    // Reports recorded before the event wheel have no scenario
    // section; the per-label bands then pass vacuously but the
    // fresh-vs-fresh idle-scaling bound still applies.
    let recorded_scenarios = section("scenarios").unwrap_or_default();
    let measure = || {
        let configs = measure_configs(
            &[Config::ArmNestedV83, Config::ArmNestedNeve],
            samples,
            engine,
        );
        let scenarios = measure_scenarios(samples);
        print_table("config", &configs, true);
        print_table("scenario", &scenarios, false);
        (configs, scenarios)
    };
    let first = measure();
    let verdict = |retry: Option<&(Vec<Throughput>, Vec<Throughput>)>| {
        throughput::noise_retry_verdict(
            &recorded,
            &recorded_scenarios,
            (&first.0, &first.1),
            retry.map(|(c, s)| (&c[..], &s[..])),
        )
    };
    let mut bad = verdict(None);
    if !bad.is_empty() {
        println!("\nfirst attempt regressed; re-measuring once (host noise check)");
        bad = verdict(Some(&measure()));
    }
    if !bad.is_empty() {
        return Err(format!(
            "host throughput regressed:\n  {}",
            bad.join("\n  ")
        ));
    }
    println!(
        "\nguard: all configurations and scenarios within {:.0}% of the \
         recorded steps/sec, idle scaling within bounds",
        throughput::GUARD_TOLERANCE * 100.0
    );
    Ok(())
}
