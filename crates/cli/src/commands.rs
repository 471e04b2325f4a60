//! Subcommand routing and the single-cell, campaign and server
//! subcommands. The paper's reports live in `report`, the host
//! throughput gates in `bench_sim`, and the ablation studies in
//! `studies`.

use crate::args::{self, Command};
use crate::{bench_sim, report, studies};
use neve_armv8::trace::{Trace, TraceEvent, MAX_CAPACITY};
use neve_cycles::counter::{Measured, PerOp};
use neve_json::JsonValue;
use neve_kvmarm::{ArmConfig, MicroBench, ParaMode, TestBed};
use neve_workloads::par::default_jobs;
use neve_workloads::platforms::PhaseStat;
use neve_workloads::provenance;
use neve_x86vt::testbed::{X86Bench, X86Config, X86TestBed};
use std::collections::BTreeMap;

/// A resolved platform configuration.
#[derive(Clone, Copy)]
pub(crate) enum Target {
    Arm { cfg: ArmConfig, xen: bool },
    X86(X86Config),
}

pub(crate) fn target(name: &str) -> Result<Target, String> {
    // Guest VHE, NEVE and Xen of the nested ARM configurations.
    let (guest_vhe, neve, xen) = match name {
        "vm" => {
            let cfg = ArmConfig::Vm;
            return Ok(Target::Arm { cfg, xen: false });
        }
        "v83" | "v8.3" | "v8.3-nested" => (false, false, false),
        "v83-vhe" | "v8.3-nested-vhe" => (true, false, false),
        "neve" | "neve-nested" => (false, true, false),
        "neve-vhe" | "neve-nested-vhe" => (true, true, false),
        "v83-xen" => (false, false, true),
        "neve-xen" => (false, true, true),
        "x86-vm" => return Ok(Target::X86(X86Config::Vm)),
        "x86-nested" => return Ok(Target::X86(X86Config::Nested { shadowing: true })),
        "x86-noshadow" => return Ok(Target::X86(X86Config::Nested { shadowing: false })),
        other => return Err(format!("unknown config `{other}`")),
    };
    let cfg = ArmConfig::Nested {
        guest_vhe,
        neve,
        para: ParaMode::None,
    };
    Ok(Target::Arm { cfg, xen })
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

/// A fresh ARM testbed for `bench`: the KVM stack, or Xen when `xen`.
fn arm_testbed(cfg: ArmConfig, xen: bool, bench: MicroBench, iters: u64) -> TestBed {
    if xen {
        TestBed::new_xen(cfg, bench, iters)
    } else {
        TestBed::new(cfg, bench, iters)
    }
}

/// Runs `iters` iterations of `bench` on a fresh testbed for `target`
/// and returns its per-op cost. `prep` adjusts an ARM testbed before
/// the run; x86 testbeds run as built, for the four benchmarks both
/// architectures share.
pub(crate) fn per_op(
    target: Target,
    bench: MicroBench,
    iters: u64,
    prep: impl FnOnce(&mut TestBed),
) -> Result<PerOp, String> {
    Ok(match target {
        Target::Arm { cfg, xen } => {
            let mut tb = arm_testbed(cfg, xen, bench, iters);
            prep(&mut tb);
            tb.run(iters)
        }
        Target::X86(xc) => {
            let xb = match bench {
                MicroBench::Hypercall => X86Bench::Hypercall,
                MicroBench::DeviceIo => X86Bench::DeviceIo,
                MicroBench::VirtualIpi => X86Bench::VirtualIpi,
                MicroBench::VirtualEoi => X86Bench::VirtualEoi,
                other => return Err(format!("{other:?} has no x86 counterpart")),
            };
            X86TestBed::new(xc, xb, iters).run(iters)
        }
    })
}

/// Every subcommand, the flags it accepts, and its entry point.
const COMMANDS: &[Command] = &[
    ("micro", &["bench", "config", "iters"], micro),
    ("tables", &["jobs"], report::tables_cmd),
    ("figure2", &["explain", "jobs"], report::figure2_cmd),
    ("export", &["jobs"], report::export_cmd),
    ("ablations", &[], studies::ablations_cmd),
    ("trace", &["config", "bench", "json", "limit"], trace_cmd),
    (
        "faults",
        &["seed", "jobs", "budget", "smoke", "fail-fast"],
        faults_cmd,
    ),
    (
        "fuzz",
        &["seed", "cases", "jobs", "smoke", "corpus-dir", "replay"],
        fuzz_cmd,
    ),
    ("check", &["smoke", "jobs"], check_cmd),
    (
        "bench-sim",
        &["samples", "engine", "smoke", "guard"],
        bench_sim::bench_sim_cmd,
    ),
    ("consolidate", &["jobs", "smoke", "json"], consolidate_cmd),
    (
        "serve",
        &["jobs", "max-queued", "no-cache", "listen", "smoke"],
        serve_cmd,
    ),
    ("help", &[], help),
];

/// Routes a command line to its subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    if matches!(argv.first().map(String::as_str), Some("-h" | "--help")) {
        return help(&args::Parsed::default());
    }
    let ((_, _, run), p) = args::parse(argv, COMMANDS)?;
    run(&p)
}

fn help(_: &args::Parsed) -> Result<(), String> {
    print!("{HELP}");
    Ok(())
}

const HELP: &str = "\
neve - the NEVE nested-virtualization simulator

USAGE:
    neve micro   [--bench B] [--config C] [--iters N]   run one microbenchmark
    neve tables  [--jobs N]                             regenerate Tables 1/6/7
                                                        beside the paper's values
    neve figure2 [--explain WORKLOAD] [--jobs N]        regenerate Figure 2
    neve export  [--jobs N]                             write results/neve_results.json,
                                                        results/figure2.csv and
                                                        results/micro_matrix.json
    neve ablations                                      Section 5 trap-cost study
                                                        and Ablations A-E
    neve trace   <config> <bench> [--json] [--limit N]  world-switch anatomy
                                                        with trap provenance
    neve faults  [--seed N] [--jobs N] [--budget N] [--smoke] [--fail-fast]
                                                        fault-injection campaign
    neve fuzz    [--seed N] [--cases N] [--jobs N] [--smoke]
                 [--corpus-dir D] [--replay FILE]       coverage-guided fuzzing
                                                        with snapshot/restore
    neve check   [--smoke] [--jobs N]                   correctness oracles:
                                                        differential v8.3-vs-NEVE
                                                        lockstep, trap algebra,
                                                        golden-table diff
    neve bench-sim [--samples N] [--engine uop|interp]  host-side simulator
                   [--smoke | --guard]                  throughput (steps/sec)
    neve consolidate [--jobs N] [--smoke] [--json]      multi-VM consolidation
                                                        table (VMs per host at
                                                        <=5% tick overhead)
    neve serve   [--jobs N] [--listen ADDR] [--smoke]   long-running job engine:
                 [--max-queued N] [--no-cache]          batched sweep requests
                                                        over JSONL (stdin + TCP)
    neve help                                           this text

A flag the subcommand does not take is a usage error.

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
schema of results/micro_matrix.json.

Table, figure, export and check commands measure the 28-cell
evaluation matrix afresh on every run, in parallel (--jobs N workers,
default: available cores). `neve export` also writes it, keyed by the
cost-model fingerprint, to results/micro_matrix.json. If any cell fails
to measure, the partial results still print (failed rows as 0) and the
command exits non-zero.

`neve ablations` runs the paper's validation studies in turn: the
Section 5 trap-cost study (every trapping instruction costs the same
round trip within 10%), A paravirtualized-v8.0 fidelity, B NEVE's
mechanism contributions, C VMCS shadowing on x86, D guest hypervisor
designs (KVM non-VHE/VHE, Xen) and E a VHE host. A study whose claim
does not hold exits non-zero.

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
results/bench_throughput.json. --engine selects the ARM step engine:
uop (the pre-decoded micro-op IR, the default) or interp (the
reference interpreter); a non-default engine prints the table without
writing the report, so the recorded numbers always describe the
default engine. Two CI gates write nothing: --smoke demands the freshly
measured matrix be byte-identical to results/micro_matrix.json, and
--guard fails when the nested ARM configurations or the bigsmp_idle
scenarios run more than 20% below the report's recorded steps/sec
(one re-measurement excuses host noise).

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

`neve serve` measures evaluation-matrix cells as a long-running engine:
each stdin (or TCP, with --listen ADDR) line is a JSON request naming
its sweep axes (configs x benches x engine x budget x fault plan); the
campaigns (faults, fuzz, consolidate, bench-sim) run only as the
subcommands above. Requests decompose into content-addressed cells run
by --jobs workers from one queue; identical cells — within one request,
across requests, or across connections — coalesce onto one
computation, and repeat queries are answered from the in-memory store.
A full default grid is answered from results/micro_matrix.json when
that file is valid (--no-cache skips it), and written back there after
a fresh measurement. Results stream back as JSONL events (accepted, one
cell per line with its cycles/traps and provenance source, then done
with the assembled matrix when the request covers all four benches). A cell that exhausts its
--budget streams as failed while the rest of the batch completes; a
submission whose new cells would push the queue past --max-queued
(default 1024) is refused with a single structured error. --smoke proves the coalescing, byte-identity, and
budget-containment contracts and exits non-zero on any violation.
";

fn micro(p: &args::Parsed) -> Result<(), String> {
    let iters = p.get_u64("iters", 25)?.max(1);
    let bench = p.get("bench", "hypercall");
    let cfg = p.get("config", "neve");
    let result = per_op(target(cfg)?, arm_bench(bench)?, iters, |_| {})?;
    println!(
        "{bench} on {cfg}: {} cycles/op, {:.1} traps/op ({iters} iterations)",
        result.cycles, result.traps
    );
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
/// golden-table diff, over a freshly measured matrix.
/// Exits non-zero on any violation.
fn check_cmd(p: &args::Parsed) -> Result<(), String> {
    let smoke = p.has("smoke");
    let m = report::matrix(p)?;
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
/// `--json` emits the same data in the schema of
/// `results/micro_matrix.json` instead.
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
    let mut tb = arm_testbed(cfg, xen, bench, iters);
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
    fn only_serve_takes_no_cache() {
        for cmd in ["tables", "figure2", "export", "check"] {
            let err = dispatch(&sv(&[cmd, "--no-cache"])).unwrap_err();
            assert!(err.contains("does not take --no-cache"), "{cmd}: {err}");
        }
        let serve = COMMANDS.iter().find(|c| c.0 == "serve").unwrap();
        assert!(serve.1.contains(&"no-cache"));
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
