//! Subcommand implementations.

use crate::args;
use neve_armv8::trace::{Trace, TraceEvent, MAX_CAPACITY};
use neve_cycles::counter::Measured;
use neve_json::JsonValue;
use neve_kvmarm::{ArmConfig, MicroBench, ParaMode, TestBed};
use neve_workloads::cache::{self, MatrixSource};
use neve_workloads::par::default_jobs;
use neve_workloads::platforms::{MicroMatrix, PhaseStat};
use neve_workloads::{apps, provenance, tables};
use neve_x86vt::testbed::{X86Bench, X86Config, X86TestBed};
use std::collections::BTreeMap;

/// A resolved platform configuration.
enum Target {
    Arm { cfg: ArmConfig, xen: bool },
    X86(X86Config),
}

fn target(name: &str) -> Result<Target, String> {
    let nested = |vhe, neve| ArmConfig::Nested {
        guest_vhe: vhe,
        neve,
        para: ParaMode::None,
    };
    Ok(match name {
        "vm" => Target::Arm {
            cfg: ArmConfig::Vm,
            xen: false,
        },
        "v83" | "v8.3" | "v8.3-nested" => Target::Arm {
            cfg: nested(false, false),
            xen: false,
        },
        "v83-vhe" | "v8.3-nested-vhe" => Target::Arm {
            cfg: nested(true, false),
            xen: false,
        },
        "neve" | "neve-nested" => Target::Arm {
            cfg: nested(false, true),
            xen: false,
        },
        "neve-vhe" | "neve-nested-vhe" => Target::Arm {
            cfg: nested(true, true),
            xen: false,
        },
        "v83-xen" => Target::Arm {
            cfg: nested(false, false),
            xen: true,
        },
        "neve-xen" => Target::Arm {
            cfg: nested(false, true),
            xen: true,
        },
        "x86-vm" => Target::X86(X86Config::Vm),
        "x86-nested" => Target::X86(X86Config::Nested { shadowing: true }),
        "x86-noshadow" => Target::X86(X86Config::Nested { shadowing: false }),
        other => return Err(format!("unknown config `{other}`")),
    })
}

fn arm_bench(name: &str) -> Result<MicroBench, String> {
    Ok(match name {
        "hypercall" => MicroBench::Hypercall,
        "devio" | "device_io" => MicroBench::DeviceIo,
        "ipi" | "virtual_ipi" => MicroBench::VirtualIpi,
        "eoi" | "virtual_eoi" => MicroBench::VirtualEoi,
        other => return Err(format!("unknown benchmark `{other}`")),
    })
}

fn x86_bench(name: &str) -> Result<X86Bench, String> {
    Ok(match name {
        "hypercall" => X86Bench::Hypercall,
        "devio" | "device_io" => X86Bench::DeviceIo,
        "ipi" | "virtual_ipi" => X86Bench::VirtualIpi,
        "eoi" | "virtual_eoi" => X86Bench::VirtualEoi,
        other => return Err(format!("unknown benchmark `{other}`")),
    })
}

/// Routes a parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let p = args::parse(argv)?;
    match p.command.as_str() {
        "micro" => micro(&p),
        "tables" => tables_cmd(&p),
        "figure2" => figure2_cmd(&p),
        "trace" => trace_cmd(&p),
        "faults" => faults_cmd(&p),
        "fuzz" => fuzz_cmd(&p),
        "check" => check_cmd(&p),
        "bench-sim" => bench_sim_cmd(&p),
        "consolidate" => consolidate_cmd(&p),
        "serve" => serve_cmd(&p),
        "help" | "-h" | "--help" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

const HELP: &str = "\
neve - the NEVE nested-virtualization simulator

USAGE:
    neve micro   [--bench B] [--config C] [--iters N]   run one microbenchmark
    neve tables  [--jobs N] [--no-cache]                regenerate Tables 1/6/7
    neve figure2 [--explain WORKLOAD] [--jobs N] [--no-cache]
                                                        regenerate Figure 2
    neve trace   <config> <bench> [--json] [--limit N]  world-switch anatomy
                                                        with trap provenance
    neve faults  [--seed N] [--jobs N] [--budget N] [--smoke] [--fail-fast]
                                                        fault-injection campaign
    neve fuzz    [--seed N] [--cases N] [--jobs N] [--smoke]
                 [--corpus-dir D] [--replay FILE]       coverage-guided fuzzing
                                                        with snapshot/restore
    neve check   [--smoke] [--jobs N] [--no-cache]      correctness oracles:
                                                        differential v8.3-vs-NEVE
                                                        lockstep, trap algebra,
                                                        golden-table diff
    neve bench-sim [--samples N] [--record-baseline]    host-side simulator
                   [--engine uop|interp]                throughput (steps/sec)
    neve consolidate [--jobs N] [--smoke] [--json]      multi-VM consolidation
                                                        table (VMs per host at
                                                        <=5% tick overhead)
    neve serve   [--jobs N] [--listen ADDR] [--smoke]   long-running job engine:
                 [--max-queued N] [--no-cache]          batched sweep requests
                                                        over JSONL (stdin + TCP)
    neve help                                           this text

CONFIGS:    vm v83 v83-vhe neve neve-vhe v83-xen neve-xen
            x86-vm x86-nested x86-noshadow
            (aliases: v8.3-nested v8.3-nested-vhe neve-nested ...)
BENCHMARKS: hypercall devio ipi eoi
            (aliases: device_io virtual_ipi virtual_eoi)

`neve trace` replays one ARM cell with the execution trace attached and
prints every architectural event of the last round trip (each trap
annotated with the system register that caused it and the world-switch
phase it interrupted), then the per-phase cycle/trap attribution and the
per-kind trap totals behind Table 7. --json emits the same data in the
results-cache schema.

Table and figure commands measure the 28-cell evaluation matrix in
parallel (--jobs N workers, default: available cores) and cache the
results keyed by the cost-model fingerprint; pass --no-cache to force
a fresh measurement. If any cell fails to measure, the partial results
still print (failed rows as 0) and the command exits non-zero.

`neve faults` runs a seeded fault-injection campaign over the nested
ARM cells: each built-in plan (corrupted shadow Stage-2 PTE, dropped or
doubled VNCR write, spurious trap, cycle-counter reset, chaos) is
injected at deterministic step counts and the outcome is classified as
detected (structured fault), recovered (bit-identical to the fault-free
baseline), or mis-measured (completed with silently wrong numbers).
--smoke runs a small grid twice and verifies the reports are
byte-identical; --fail-fast stops at the first detected fault and
exits non-zero.

`neve fuzz` runs the coverage-guided nested-virt fuzzing campaign:
seeded guest-hypervisor-shaped programs execute from an O(dirty-pages)
machine snapshot on three lockstep testbeds (reference interpreter and
micro-op engine on NEVE hardware, reference interpreter on ARMv8.3)
with the architectural invariant checker attached; coverage is the set
of (trap-kind x phase x EL) provenance tuples and new-coverage cases
seed a mutation round. Findings are delta-minimized and persisted as
replayable JSON reproducers under results/fuzz_corpus/;
`--replay FILE` re-runs one reproducer through the same oracle stack
and exits non-zero if it no longer re-triggers. --smoke runs a small
fixed-seed campaign twice and verifies the reports are byte-identical
(the CI gate). A completed campaign exits zero; the findings *are* the
product.

`neve check` runs the correctness oracles: ARMv8.3-NV and NEVE stacks
executed in lockstep with bit-identical architectural state demanded at
every step (the paper's semantics-preservation claim as a bug detector,
with the architectural invariant checker attached to both machines),
the trap-count algebra (NEVE never traps more than v8.3; Virtual EOI is
trap-free; every deferrable v8.3 trap is accounted as a NEVE deferral
or residual trap), and a diff of the regenerated Tables 6/7 against the
EXPERIMENTS.md golden values (cycles within 2%, trap counts exact).
--smoke restricts the differential grid to one pair for CI. Any
violation exits non-zero with a structured first-divergence report.

`neve bench-sim` measures how fast the *host* simulates each
configuration (steps/sec and ns/step — wall-clock performance of the
step engine, not simulated cycles) and writes
results/bench_throughput.json, reporting speedups against the recorded
baseline section. --record-baseline stores this run as the baseline
later runs are compared against. --engine selects the ARM step engine:
uop (the pre-decoded micro-op IR, the default) or interp (the
reference interpreter); a non-default engine prints the table without
writing the report, so the recorded numbers always describe the
default engine.

`neve consolidate` measures what an *idle* guest costs its host: each
configuration runs co-resident single-vCPU idle guests whose only
activity is the host scheduler tick (the physical EL2 timer), driven
on the discrete-event wheel so parked cores cost zero host work. From
the busy simulated cycles per tick it derives the paper's
consolidation figure — how many such idle guests one host core
carries before their ticks exceed 5% of the core — for a plain VM,
ARMv8.3 trap-and-emulate, and NEVE (non-VHE and VHE guest
hypervisors). Full runs write results/consolidate.json; --smoke runs
a reduced table twice and demands byte-identical reports (the CI
gate, also exercised across --jobs fan-outs); --json prints the
artifact instead of the table.

`neve serve` hosts the other job kinds as a long-running engine: each
stdin (or TCP, with --listen ADDR) line is a JSON request naming a job
kind (micro, faults, fuzz, consolidate, bench-sim) and its sweep axes
(configs x benches x engine x budget x fault plan). Requests decompose
into content-addressed cells run by --jobs workers from one queue;
identical cells — within one request, across
requests, or across connections — coalesce onto one computation, and
repeat queries are answered from the in-memory store or the on-disk
matrix cache. Results stream back as JSONL events (accepted, one cell
per line with its cycles/traps and provenance source, then done with
the assembled matrix or rendered report). A cell that exhausts its
--budget streams as failed while the rest of the batch completes; a
submission whose new cells would push the queue past --max-queued
(default 1024) is refused with a single structured error. --smoke proves the coalescing, byte-identity, and
budget-containment contracts and exits non-zero on any violation.
";

fn micro(p: &args::Parsed) -> Result<(), String> {
    let iters = p.get_u64("iters", 25)?.max(1);
    let bench = p.get("bench", "hypercall");
    let cfg = p.get("config", "neve");
    let result = match target(cfg)? {
        Target::Arm { cfg: ac, xen } => {
            let b = arm_bench(bench)?;
            let mut tb = if xen {
                TestBed::new_xen(ac, b, iters)
            } else {
                TestBed::new(ac, b, iters)
            };
            tb.run(iters)
        }
        Target::X86(xc) => {
            let b = x86_bench(bench)?;
            let mut tb = X86TestBed::new(xc, b, iters);
            tb.run(iters)
        }
    };
    println!(
        "{bench} on {cfg}: {} cycles/op, {:.1} traps/op ({iters} iterations)",
        result.cycles, result.traps
    );
    Ok(())
}

/// Resolves the shared evaluation matrix for the table/figure commands:
/// cache hit when `results/micro_matrix.json` matches the current cost
/// model, a parallel re-measurement otherwise.
fn matrix(p: &args::Parsed) -> Result<MicroMatrix, String> {
    let jobs = p.get_u64("jobs", default_jobs() as u64)?.max(1) as usize;
    let use_cache = !p.has("no-cache");
    let (m, source) = cache::load_or_measure(jobs, use_cache);
    match source {
        MatrixSource::Cache => {
            println!(
                "Loaded measurements from {} (--no-cache to refresh).\n",
                cache::CACHE_PATH
            );
        }
        MatrixSource::Measured => {
            println!(
                "Measured every configuration ({jobs} worker threads); cached at {}.\n",
                cache::CACHE_PATH
            );
        }
        MatrixSource::Quarantined => {
            println!(
                "Cache was corrupt; quarantined to {}.<pid>.<seq>.corrupt and \
                 re-measured every configuration ({jobs} worker threads).\n",
                cache::CACHE_PATH
            );
        }
    }
    Ok(m)
}

/// Renders the failed cells of a partial matrix and produces the
/// non-zero-exit error the table/figure commands end with. Partial
/// results are still printed (and cached) before this runs — a faulted
/// cell degrades the report, it does not discard it.
fn failure_report(m: &MicroMatrix) -> String {
    let mut lines = vec![format!(
        "{} cell(s) failed to measure (rows above show 0 for them):",
        m.failed_cells()
    )];
    for c in m.configs() {
        for (bench, why) in m.failures(c) {
            lines.push(format!("  FAILED {} / {bench}: {why}", c.label()));
        }
    }
    lines.join("\n")
}

fn tables_cmd(p: &args::Parsed) -> Result<(), String> {
    let m = matrix(p)?;
    println!("Table 1 (cycle counts):");
    println!("{}", tables::render(&tables::table1(&m)));
    println!("Table 6 (cycle counts with NEVE):");
    println!("{}", tables::render(&tables::table6(&m)));
    println!("Table 7 (trap counts):");
    println!("{}", tables::render(&tables::table7(&m)));
    if m.has_failures() {
        return Err(failure_report(&m));
    }
    Ok(())
}

fn figure2_cmd(p: &args::Parsed) -> Result<(), String> {
    let m = matrix(p)?;
    println!("{}", apps::render(&apps::figure2(&m)));
    if let Some(workload) = p.options.get("explain") {
        let Some(w) = apps::WORKLOADS
            .iter()
            .find(|w| w.name.eq_ignore_ascii_case(workload))
        else {
            return Err(format!("unknown workload `{workload}`"));
        };
        println!("\nOverhead composition for {}:", w.name);
        println!(
            "{:<22} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "config", "hc%", "io%", "ipi%", "irq%", "kick%", "tick%"
        );
        for c in neve_workloads::platforms::Config::all() {
            let b = apps::breakdown(w, c, &m);
            println!(
                "{:<22} {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}%",
                c.label(),
                b.hypercalls * 100.0,
                b.device_ios * 100.0,
                b.ipis * 100.0,
                b.net_irqs * 100.0,
                b.virtio_kicks * 100.0,
                b.feedback * 100.0
            );
        }
    }
    if m.has_failures() {
        return Err(failure_report(&m));
    }
    Ok(())
}

/// Measures host-side simulator throughput (`neve bench-sim`): wall
/// clock per simulated step for every configuration, written to
/// `results/bench_throughput.json` with speedups against the recorded
/// baseline section (the same report `sim_throughput` produces).
fn bench_sim_cmd(p: &args::Parsed) -> Result<(), String> {
    use neve_armv8::Engine;
    use neve_workloads::throughput::{self, BENCH_PATH};

    let samples = p.get_u64("samples", 5)?.max(1) as usize;
    let engine = match p.get("engine", "uop") {
        "uop" => Engine::Uop,
        "interp" => Engine::Interp,
        other => return Err(format!("unknown engine `{other}` (expected uop or interp)")),
    };
    let stats = throughput::measure_all_with(samples, engine);
    let scenarios = throughput::measure_scenarios(samples);
    println!(
        "{:<20} {:>14} {:>14} {:>10}",
        "config", "steps/sec", "ns/step", "steps"
    );
    for s in &stats {
        println!(
            "{:<20} {:>14.0} {:>14.1} {:>10}",
            s.config.label(),
            s.steps_per_sec(),
            s.ns_per_step(),
            s.steps
        );
    }
    println!("\n{:<20} {:>14} {:>10}", "scenario", "steps/sec", "steps");
    for s in &scenarios {
        println!(
            "{:<20} {:>14.0} {:>10}",
            s.label,
            s.steps_per_sec(),
            s.steps
        );
    }
    if engine != Engine::default() {
        // Manual experiment: the recorded report must keep describing
        // the default engine.
        println!("\n--engine {engine:?}: report not written");
        return Ok(());
    }
    let existing = std::fs::read_to_string(BENCH_PATH).ok();
    let text = if p.has("record-baseline") {
        throughput::report_json_with_scenarios(&stats, Some(&stats), &scenarios)
    } else {
        let baseline = existing
            .as_deref()
            .and_then(|t| throughput::section_from_report(t, "baseline"));
        throughput::report_json_with_scenarios(&stats, baseline.as_deref(), &scenarios)
    };
    let path = std::path::Path::new(BENCH_PATH);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    cache::write_atomically(path, &text)
        .map_err(|e| format!("failed to write {BENCH_PATH}: {e}"))?;
    println!("\nwrote {BENCH_PATH}");
    Ok(())
}

/// Runs the deterministic fault-injection campaign (`neve faults`).
///
/// With `--smoke` the (small) campaign is run twice with the same seed
/// and the two reports are compared byte-for-byte — the CI determinism
/// gate. `--fail-fast` stops at the first detected fault and exits
/// non-zero so scripts can bisect. Mis-measured entries are findings
/// the report exists to surface, not harness failures, so a completed
/// campaign exits zero.
fn faults_cmd(p: &args::Parsed) -> Result<(), String> {
    let spec = neve_workloads::CampaignSpec {
        seed: p.get_u64("seed", 2017)?,
        smoke: p.has("smoke"),
        jobs: p.get_u64("jobs", default_jobs() as u64)?.max(1) as usize,
        fail_fast: p.has("fail-fast"),
        step_budget: match p.get_u64("budget", 0)? {
            0 => None,
            b => Some(b),
        },
    };
    let report = neve_workloads::run_campaign(&spec)?;
    print!("{}", report.render());
    if spec.smoke {
        let again = neve_workloads::run_campaign(&spec)?;
        if again.render() != report.render() {
            return Err(
                "fault campaign is not deterministic: two runs with the same \
                        seed produced different reports"
                    .into(),
            );
        }
        println!("determinism check: second run is byte-identical");
    }
    if report.truncated {
        return Err("campaign stopped at the first detected fault (--fail-fast)".into());
    }
    Ok(())
}

/// Runs the multi-VM consolidation table (`neve consolidate`).
///
/// `--smoke` is the CI contract: a reduced table measured twice (the
/// second time across a `--jobs` fan-out) with byte-identical renders
/// demanded, and nothing written. Full runs record
/// `results/consolidate.json`.
fn consolidate_cmd(p: &args::Parsed) -> Result<(), String> {
    use neve_workloads::{run_consolidate, ConsolidateSpec, CONSOLIDATE_PATH};
    let smoke = p.has("smoke");
    let mut spec = if smoke {
        ConsolidateSpec::smoke()
    } else {
        ConsolidateSpec::full()
    };
    spec.jobs = p.get_u64("jobs", default_jobs() as u64)?.max(1) as usize;
    let report = run_consolidate(spec)?;
    if p.has("json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if smoke {
        // The determinism gate: same table from a serial run and from
        // a different fan-out.
        let again = run_consolidate(ConsolidateSpec {
            jobs: if spec.jobs == 1 { 3 } else { 1 },
            ..spec
        })?;
        if again.render() != report.render() {
            return Err(
                "consolidation table is not deterministic: two runs (different \
                 --jobs) produced different reports"
                    .into(),
            );
        }
        println!("determinism check: second run (different --jobs) is byte-identical");
        return Ok(());
    }
    report
        .write()
        .map_err(|e| format!("failed to write {CONSOLIDATE_PATH}: {e}"))?;
    println!("\nwrote {CONSOLIDATE_PATH}");
    Ok(())
}

/// Hosts the long-running job engine (`neve serve`).
///
/// Serves the line-delimited JSON protocol on stdin/stdout and, with
/// `--listen ADDR`, on a TCP listener sharing the same coalescing
/// store (so identical requests from different connections cost one
/// computation). `--smoke` runs the protocol contracts in-process and
/// exits non-zero on any violation — the CI gate.
fn serve_cmd(p: &args::Parsed) -> Result<(), String> {
    use neve_workloads::serve;
    if p.has("smoke") {
        return serve::smoke();
    }
    let jobs = p.get_u64("jobs", default_jobs() as u64)?.max(1) as usize;
    let max_queued = p.get_u64("max-queued", 1024)?.max(1) as usize;
    let fingerprint = neve_cycles::CostModel::default().fingerprint();
    let cache_path =
        (!p.has("no-cache")).then(|| std::path::PathBuf::from(neve_workloads::CACHE_PATH));
    let engine = std::sync::Arc::new(serve::JobEngine::new(
        jobs,
        fingerprint,
        cache_path,
        max_queued,
    ));
    if let Some(addr) = p.options.get("listen") {
        let (local, _accept) = serve::listen(std::sync::Arc::clone(&engine), addr)
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        eprintln!("listening on {local} ({jobs} workers); also serving stdin");
    }
    let sink: serve::Sink = std::sync::Arc::new(std::sync::Mutex::new(std::io::stdout()));
    serve::run_protocol(std::io::stdin().lock(), &sink, &engine);
    Ok(())
}

/// Runs the coverage-guided fuzzing campaign (`neve fuzz`), or replays
/// one persisted reproducer with `--replay FILE`.
///
/// Mirrors `neve faults`' CI contract: `--smoke` double-runs the
/// campaign and demands byte-identical reports. A completed campaign
/// exits zero — findings are the report's product, not harness
/// failures; a `--replay` that no longer re-triggers exits non-zero
/// (the reproducer went stale, which CI must notice).
fn fuzz_cmd(p: &args::Parsed) -> Result<(), String> {
    use neve_workloads::fuzz;

    if let Some(path) = p.options.get("replay") {
        let out = fuzz::replay(path)?;
        return match &out.observed {
            Some(f) if out.reproduced() => {
                println!("reproduced {}: {}", f.kind.label(), f.detail);
                Ok(())
            }
            Some(f) => Err(format!(
                "--replay: {path} recorded `{}` but this run observed `{}`: {}",
                out.expected.label(),
                f.kind.label(),
                f.detail
            )),
            None => Err(format!(
                "--replay: {path} recorded `{}` but this run observed no finding",
                out.expected.label()
            )),
        };
    }

    let smoke = p.has("smoke");
    let spec = fuzz::FuzzSpec {
        seed: p.get_u64("seed", 0x7e1)?,
        cases: p
            .get_u64("cases", if smoke { 24 } else { 96 })?
            .clamp(1, 100_000) as usize,
        jobs: p.get_u64("jobs", default_jobs() as u64)?.max(1) as usize,
        corpus_dir: Some(p.get("corpus-dir", fuzz::CORPUS_DIR).to_string()),
    };
    let report = fuzz::run_fuzz(&spec)?;
    print!("{}", report.render());
    if smoke {
        let again = fuzz::run_fuzz(&spec)?;
        if again.render() != report.render() {
            return Err(
                "fuzz campaign is not deterministic: two runs with the same seed \
                 produced different reports"
                    .into(),
            );
        }
        println!("determinism check: second run is byte-identical");
    }
    Ok(())
}

/// Runs the correctness oracles (`neve check`): the lockstep
/// differential state oracle, the trap-count algebra, and the
/// golden-table diff, over the cached (or freshly measured) matrix.
/// Exits non-zero on any violation.
fn check_cmd(p: &args::Parsed) -> Result<(), String> {
    let smoke = p.has("smoke");
    let m = matrix(p)?;
    let report = neve_workloads::run_checks(&m, smoke);
    print!("{}", report.render());
    if !report.is_clean() {
        return Err(format!(
            "{} oracle violation(s); the paper's semantic identities do not hold",
            report.violation_count()
        ));
    }
    println!(
        "oracle: every check passed{}",
        if smoke { " (smoke grid)" } else { "" }
    );
    Ok(())
}

/// Traces one microbenchmark's measured region and prints the anatomy
/// of the nested world switch — the paper's Section 5 prose as an event
/// log with trap provenance — plus the per-phase and per-kind summary.
/// `--json` emits the same data in the results-cache schema instead.
fn trace_cmd(p: &args::Parsed) -> Result<(), String> {
    if p.positionals.len() > 2 {
        return Err(format!(
            "trace takes `<config> <bench>`, got {:?}",
            p.positionals
        ));
    }
    let cfg_name = match p.positionals.first() {
        Some(s) => s.as_str(),
        None => p.get("config", "v83"),
    };
    let bench_name = match p.positionals.get(1) {
        Some(s) => s.as_str(),
        None => p.get("bench", "hypercall"),
    };
    let limit = p.get_u64("limit", 400)? as usize;
    let Target::Arm { cfg, xen } = target(cfg_name)? else {
        return Err("trace supports the ARM configurations".into());
    };
    let bench = arm_bench(bench_name)?;

    // The ring must retain the whole measured region (the testbed clears
    // it at the measurement snapshot) so the per-kind totals below are
    // exact, not a suffix — MAX_CAPACITY holds it with room to spare.
    let iters = 8;
    let mut tb = if xen {
        TestBed::new_xen(cfg, bench, iters)
    } else {
        TestBed::new(cfg, bench, iters)
    };
    tb.m.attach_trace(MAX_CAPACITY);
    let (delta, n) = tb.run_region(iters);
    let trace =
        tb.m.trace
            .take()
            .ok_or("internal: the trace detached during the measured run")?;
    let Measured {
        per_op,
        traps_by_kind,
        cycles_by_phase,
        traps_by_phase,
    } = delta.measured(n);

    // The same string-keyed shape the session layer persists.
    let kinds: BTreeMap<String, u64> = traps_by_kind
        .into_iter()
        .map(|(k, v)| (format!("{k:?}"), v))
        .collect();
    let mut phases: BTreeMap<String, PhaseStat> = BTreeMap::new();
    for (ph, v) in cycles_by_phase {
        phases.entry(ph.label().to_string()).or_default().cycles = v;
    }
    for (ph, v) in traps_by_phase {
        phases.entry(ph.label().to_string()).or_default().traps = v;
    }

    if p.has("json") {
        let mut body = vec![
            ("config".into(), JsonValue::from(cfg_name)),
            ("bench".into(), JsonValue::from(bench_name)),
            ("iterations".into(), JsonValue::from(n)),
            (
                "per_op".into(),
                JsonValue::Object(vec![
                    ("cycles".into(), JsonValue::from(per_op.cycles)),
                    ("traps".into(), JsonValue::from(per_op.traps)),
                ]),
            ),
        ];
        body.extend(provenance::json_fields(&kinds, &phases));
        print!("{}", JsonValue::Object(body).pretty());
        return Ok(());
    }

    println!(
        "{bench_name} on {cfg_name}: {} cycles/op, {:.1} traps/op ({n} measured iterations)\n",
        per_op.cycles, per_op.traps
    );
    print_anatomy(&trace, limit);
    println!("\nPer-phase attribution of the measured region:");
    print!("{}", provenance::render_phases(&phases));
    if kinds.is_empty() {
        println!("\nNo traps in the measured region (the trap-free fast path).");
    } else {
        println!("\nTraps by kind (Table 7's counts, event by event):");
        let mut total = 0u64;
        for (k, v) in &kinds {
            total += v;
            println!("  {k:<10} {v:>6} total  {:>4}/op", (v + n / 2) / n);
        }
        println!(
            "  {:<10} {total:>6} total  {:>4}/op",
            "all",
            (total + n / 2) / n
        );
    }
    Ok(())
}

/// Prints the tail of the retained event log: from the last payload
/// round-trip entry (the final `Hvc` the payload executed, when there
/// is one) to the end, capped at `limit` lines.
fn print_anatomy(trace: &Trace, limit: usize) {
    let events: Vec<&TraceEvent> = trace.events().collect();
    let mut start = 0;
    for (i, ev) in events.iter().enumerate() {
        if let TraceEvent::Retired {
            instr: neve_armv8::isa::Instr::Hvc(0),
            pc,
            ..
        } = ev
        {
            if *pc >= neve_kvmarm::layout::L2_PAYLOAD_BASE
                || *pc >= neve_kvmarm::layout::L1_PAYLOAD_BASE
            {
                start = i;
            }
        }
    }
    let mut shown = 0;
    for ev in &events[start..] {
        println!("{}", Trace::render(ev));
        shown += 1;
        if shown >= limit {
            println!("... (truncated; raise --limit to see more)");
            break;
        }
    }
    println!(
        "\n{} events shown ({} captured in total).",
        shown, trace.total
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_is_always_available() {
        assert!(dispatch(&sv(&["help"])).is_ok());
        assert!(dispatch(&[]).is_ok());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(dispatch(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn micro_runs_on_every_config() {
        for cfg in ["vm", "v83", "neve", "v83-xen", "x86-vm", "x86-nested"] {
            dispatch(&sv(&[
                "micro",
                "--config",
                cfg,
                "--bench",
                "hypercall",
                "--iters",
                "5",
            ]))
            .unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn bad_config_and_bench_are_reported() {
        assert!(dispatch(&sv(&["micro", "--config", "pdp11"])).is_err());
        assert!(dispatch(&sv(&["micro", "--bench", "quantum"])).is_err());
    }

    #[test]
    fn trace_rejects_x86() {
        assert!(dispatch(&sv(&["trace", "--config", "x86-vm"])).is_err());
        assert!(dispatch(&sv(&["trace", "x86-nested", "hypercall"])).is_err());
    }

    #[test]
    fn fuzz_runs_a_tiny_campaign_and_replays_errors_structurally() {
        let dir = std::env::temp_dir().join(format!("neve-fuzz-cli-{}", std::process::id()));
        let dir_s = dir.display().to_string();
        dispatch(&sv(&[
            "fuzz",
            "--cases",
            "4",
            "--seed",
            "9",
            "--jobs",
            "2",
            "--corpus-dir",
            &dir_s,
        ]))
        .expect("tiny fuzz campaign");
        std::fs::remove_dir_all(&dir).ok();
        // --replay of a missing file names the file and fails.
        let err = dispatch(&sv(&["fuzz", "--replay", "/no/such/repro.json"])).unwrap_err();
        assert!(err.contains("/no/such/repro.json"), "unstructured: {err}");
        // --replay of a truncated reproducer fails structurally too —
        // a damaged corpus entry must never panic the CLI.
        let dir = std::env::temp_dir().join(format!("neve-fuzz-cli-tr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let truncated = dir.join("cut.json");
        std::fs::write(
            &truncated,
            "{\n  \"version\": \"neve-fuzz-repro-v1\",\n  \"campaign_seed\": \"0x9\",\n  \"cas",
        )
        .unwrap();
        let err =
            dispatch(&sv(&["fuzz", "--replay", &truncated.display().to_string()])).unwrap_err();
        assert!(err.contains("cut.json"), "file not named: {err}");
        std::fs::remove_dir_all(&dir).ok();
        // Bad numbers name the flag.
        let err = dispatch(&sv(&["fuzz", "--cases", "lots"])).unwrap_err();
        assert!(err.contains("--cases"), "flag not named: {err}");
    }

    #[test]
    fn trace_accepts_the_positional_form_and_aliases() {
        // The acceptance syntax: `neve trace v8.3-nested hypercall`.
        dispatch(&sv(&["trace", "v8.3-nested", "hypercall", "--limit", "5"]))
            .expect("positional trace");
        dispatch(&sv(&["trace", "neve", "device_io", "--json"])).expect("json trace");
        assert!(dispatch(&sv(&["trace", "v8.3-nested", "hypercall", "extra"])).is_err());
        assert!(dispatch(&sv(&["trace", "v8.3-nested", "quantum"])).is_err());
    }
}
