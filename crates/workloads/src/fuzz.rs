//! Coverage-guided fuzzing campaign over the nested-virtualization
//! stack (`neve fuzz`).
//!
//! The campaign combines the pieces earlier PRs shipped into a standing
//! bug detector:
//!
//! - **Snapshot/restore** (`Machine::snapshot`) makes per-case setup
//!   O(dirty pages): each worker builds its three-machine rig *once* —
//!   construction, Stage-2 install, guest-hypervisor boot — snapshots
//!   it, then runs every case as `restore → replace_program → run`.
//! - **Generator** ([`neve_armv8::fuzzgen`]): seeded, splitmix64
//!   deterministic guest-hypervisor-shaped programs (EL2 sysreg traffic
//!   including VNCR-deferred registers, TLBIs, IPIs, S2-translated
//!   loads/stores).
//! - **Oracle stack**, strongest first:
//!   1. the architectural invariant [`neve_armv8::Checker`] on the reference
//!      interpreter running NEVE hardware;
//!   2. *engine lockstep* — the same case under the micro-op engine
//!      must end bit-identical (state, steps, cycles);
//!   3. *cross-configuration lockstep* — the same case on ARMv8.3
//!      (every deferrable access traps into [`EmulHyp`]) must end
//!      guest-visibly identical (state and steps, **not** cycles);
//!   4. the *trap algebra* — every deferrable v8.3 trap is accounted as
//!      a NEVE deferral or residual trap.
//! - **Coverage** is the set of (trap-kind × phase × EL) provenance
//!   tuples observed in the trace; cases that reach new tuples seed a
//!   second, mutation round.
//! - **Findings** are delta-minimized and persisted as replayable JSON
//!   reproducers under [`CORPUS_DIR`]; `neve fuzz --replay <file>`
//!   re-runs one reproducer through the same oracle stack.
//!
//! Everything is deterministic in `(seed, cases)`: reports are
//! byte-identical across runs *and across `--jobs` values* (case
//! synthesis is index-pure, coverage is merged in index order), which
//! is what lets CI double-run the smoke campaign and diff the bytes.

use neve_armv8::fault::{FaultPlan, InjectedFault, Injection};
use neve_armv8::fuzzgen::{self, splitmix64};
use neve_armv8::host::{
    boot_harness, harness_machine, install_stage2, EmulHyp, PROGRAM_BASE, SCRATCH_BASE, VNCR_PAGE,
};
use neve_armv8::isa::{Asm, Instr, Program};
use neve_armv8::machine::{Machine, MachineSnapshot, StepOutcome};
use neve_armv8::trace::TraceEvent;
use neve_armv8::uop::Engine;
use neve_armv8::ArchLevel;
use neve_cycles::TrapKind;
use neve_json::JsonValue;
use neve_sysreg::bits::hcr;
use neve_sysreg::SysReg;
use std::collections::BTreeSet;
use std::path::Path;

/// Where the campaign persists replayable reproducers.
pub const CORPUS_DIR: &str = "results/fuzz_corpus";

/// Steps each oracle leg may run (cases that neither halt nor fault by
/// then are simply truncated — still compared, still deterministic).
const STEP_BUDGET: u64 = 600;

/// Trace ring capacity for the observed leg (ample for [`STEP_BUDGET`]
/// steps; the ring would truncate *oldest* events, which would cost
/// coverage, not soundness).
const TRACE_CAP: usize = 8192;

/// Most findings minimized + persisted per campaign (a campaign that
/// finds more than this has a systemic bug; minimizing every instance
/// of it would only slow the report down).
const MAX_MINIMIZED: usize = 8;

/// Coverage-guided round: how many new-coverage cases seed mutants, and
/// how many mutants each seeds.
const CORPUS_PARENTS: usize = 6;
const MUTANTS_PER_PARENT: usize = 3;

/// Campaign parameters (the CLI's `--seed/--cases/--jobs`).
#[derive(Debug, Clone)]
pub struct FuzzSpec {
    /// Campaign seed; everything derives from it.
    pub seed: u64,
    /// Number of first-round cases.
    pub cases: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Where to write reproducers; `None` skips persistence (tests).
    pub corpus_dir: Option<String>,
}

/// One fuzz case: a generated program body plus optional scheduled
/// fault injections (steps are relative to the post-boot snapshot).
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The case's identity (derived from the campaign seed; names the
    /// reproducer file).
    pub seed: u64,
    /// Program body (the harness appends the trailing `Halt`).
    pub instrs: Vec<Instr>,
    /// Scheduled injections, if this is an injected case.
    pub injections: Vec<Injection>,
}

/// Which oracle flagged a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The architectural invariant checker recorded a violation.
    CheckerViolation,
    /// Micro-op engine and reference interpreter diverged.
    EngineDivergence,
    /// ARMv8.3 and NEVE runs ended guest-visibly different.
    CrossConfigDivergence,
    /// Deferrable-trap accounting did not balance.
    TrapAlgebraViolation,
}

impl FindingKind {
    /// Stable label (report lines, reproducer JSON, `--replay`).
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::CheckerViolation => "checker-violation",
            FindingKind::EngineDivergence => "engine-divergence",
            FindingKind::CrossConfigDivergence => "cross-config-divergence",
            FindingKind::TrapAlgebraViolation => "trap-algebra-violation",
        }
    }

    /// Parses a [`Self::label`] back (reproducer loading).
    pub fn from_label(s: &str) -> Option<Self> {
        [
            FindingKind::CheckerViolation,
            FindingKind::EngineDivergence,
            FindingKind::CrossConfigDivergence,
            FindingKind::TrapAlgebraViolation,
        ]
        .into_iter()
        .find(|k| k.label() == s)
    }
}

/// A flagged case, as the oracle reported it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which oracle fired.
    pub kind: FindingKind,
    /// First divergence / first violation, human-readable.
    pub detail: String,
}

/// A coverage tuple: (trap kind, world-switch phase, EL the guest was
/// executing at when it trapped).
pub type CovTuple = (String, String, u8);

/// Everything one oracle pass over one case yields.
struct CaseOutcome {
    coverage: BTreeSet<CovTuple>,
    finding: Option<Finding>,
    /// Cross-config + algebra oracles were suspended (IRQ timing).
    cross_skipped: bool,
}

/// A minimized, persisted finding as the report presents it.
#[derive(Debug, Clone)]
pub struct FindingRecord {
    /// First-round index (round-2 mutants order after them).
    pub case_index: usize,
    /// The case that fired, *minimized*.
    pub case: FuzzCase,
    /// Injection labels carried by the case (empty when clean).
    pub injected: Vec<&'static str>,
    /// What the oracle said.
    pub finding: Finding,
    /// Program length before minimization.
    pub original_len: usize,
    /// Reproducer path, when persistence was on.
    pub file: Option<String>,
}

/// The campaign's deterministic report.
#[derive(Debug)]
pub struct FuzzReport {
    /// Echo of the spec (seed, first-round cases).
    pub seed: u64,
    /// generated / mutated / injected first-round case counts.
    pub generated: usize,
    /// Mutated (corpus-less, index-derived) first-round cases.
    pub mutated: usize,
    /// Injected first-round cases.
    pub injected: usize,
    /// Injected cases the invariant checker caught.
    pub injections_detected: usize,
    /// Second-round coverage-guided mutants run.
    pub guided_mutants: usize,
    /// Union of coverage tuples over every case.
    pub coverage: BTreeSet<CovTuple>,
    /// Cases whose cross-config/algebra oracles were suspended.
    pub cross_skipped: usize,
    /// Minimized findings, in case order.
    pub findings: Vec<FindingRecord>,
}

impl FuzzReport {
    /// Renders the report. Byte-identical for equal `(seed, cases)`
    /// regardless of `--jobs` — the CI determinism gate diffs this.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.generated + self.mutated + self.injected;
        out.push_str("nested-virt fuzzing campaign\n");
        out.push_str(&format!("  seed           {:#018x}\n", self.seed));
        out.push_str(&format!(
            "  cases          {} generated + {} mutated + {} injected = {}, +{} coverage-guided mutants\n",
            self.generated, self.mutated, self.injected, total, self.guided_mutants
        ));
        out.push_str(&format!(
            "  step budget    {STEP_BUDGET} steps per case per oracle leg\n"
        ));
        out.push_str(&format!(
            "  coverage       {} (trap-kind x phase x EL) tuples\n",
            self.coverage.len()
        ));
        for (kind, phase, el) in &self.coverage {
            out.push_str(&format!("    {kind} @ {phase} EL{el}\n"));
        }
        if self.cross_skipped > 0 {
            out.push_str(&format!(
                "  cross-config   {} case(s) skipped (IRQ timing is legitimately configuration-dependent)\n",
                self.cross_skipped
            ));
        }
        out.push_str(&format!(
            "  injections     {} scheduled, {} detected by the invariant checker\n",
            self.injected, self.injections_detected
        ));
        out.push_str(&format!("  findings       {}\n", self.findings.len()));
        for f in &self.findings {
            let inj = if f.injected.is_empty() {
                String::new()
            } else {
                format!(" (injected {})", f.injected.join(", "))
            };
            let file = f
                .file
                .as_deref()
                .map(|p| format!(" -> {p}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "    [{:04}] {}{inj}: {} | {} -> {} instrs{file}\n",
                f.case_index,
                f.finding.kind.label(),
                f.finding.detail,
                f.original_len,
                f.case.instrs.len(),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// The three-machine oracle rig.
// ---------------------------------------------------------------------

/// Per-worker testbed: three booted machines and their snapshots.
/// Every case runs as restore → replace program → run, on each leg.
struct Rig {
    /// Reference interpreter on NEVE hardware — the observed leg
    /// (checker + trace attach here).
    neve: Machine,
    neve_snap: MachineSnapshot,
    /// Micro-op engine on NEVE hardware — the engine-lockstep leg.
    uop: Machine,
    uop_snap: MachineSnapshot,
    /// Reference interpreter on ARMv8.3 — the cross-config leg.
    v83: Machine,
    v83_snap: MachineSnapshot,
    /// Deferrable-trap counters at the snapshot point (restore rewinds
    /// the machines to exactly these, so per-case deltas subtract them).
    base_neve_deferrals: u64,
    base_neve_residual: u64,
    base_v83_deferrable: u64,
}

fn nv_hcr(neve: bool) -> u64 {
    hcr::VM | hcr::IMO | hcr::NV | hcr::NV1 | if neve { hcr::NV2 } else { 0 }
}

/// Builds one booted harness machine (placeholder program; cases swap
/// it per run).
fn build_machine(neve: bool, engine: Engine) -> Result<Machine, String> {
    let mut a = Asm::new(PROGRAM_BASE);
    a.i(Instr::Halt(1));
    let arch = if neve {
        ArchLevel::V8_4
    } else {
        ArchLevel::V8_3
    };
    let mut m = harness_machine(a.assemble(), arch, nv_hcr(neve), 1);
    install_stage2(&mut m, 0, 7);
    if neve {
        let raw = neve_core::VncrEl2::enabled_at(VNCR_PAGE)
            .map_err(|e| format!("internal: VNCR_PAGE rejected as VNCR_EL2 base: {e:?}"))?
            .raw();
        m.hyp_write(0, SysReg::VncrEl2, raw);
    }
    boot_harness(&mut m, 0);
    m.set_engine(engine);
    Ok(m)
}

impl Rig {
    fn new() -> Result<Self, String> {
        let mut neve = build_machine(true, Engine::Interp)?;
        let mut uop = build_machine(true, Engine::Uop)?;
        let mut v83 = build_machine(false, Engine::Interp)?;
        let neve_snap = neve.snapshot();
        let uop_snap = uop.snapshot();
        let v83_snap = v83.snapshot();
        Ok(Self {
            base_neve_deferrals: neve.vncr_deferrals(),
            base_neve_residual: neve.deferrable_sysreg_traps(),
            base_v83_deferrable: v83.deferrable_sysreg_traps(),
            neve,
            neve_snap,
            uop,
            uop_snap,
            v83,
            v83_snap,
        })
    }
}

/// Assembles a case body into the harness program (trailing `Halt`).
fn program_for(case: &FuzzCase) -> Program {
    let mut a = Asm::new(PROGRAM_BASE);
    for &i in &case.instrs {
        a.i(i);
    }
    a.i(Instr::Halt(1));
    a.assemble()
}

/// Everything architecturally visible about one leg's end state.
#[derive(Debug, PartialEq, Eq, Clone)]
struct LegEnd {
    outcome: StepOutcome,
    steps: u64,
    pc: u64,
    el: u8,
    gprs: [u64; 31],
    mem_probe: u64,
}

/// Runs one leg to halt or budget under a fresh emulating host and
/// returns (end state, cycles consumed, IRQ traps serviced).
fn run_leg(m: &mut Machine) -> (LegEnd, u64, u64) {
    let start_steps = m.steps_retired();
    let start_cycles = m.counter.cycles();
    let mut h = EmulHyp::new();
    let outcome = m.run(&mut h, 0, STEP_BUDGET);
    let mut gprs = [0u64; 31];
    for (r, g) in gprs.iter_mut().enumerate() {
        *g = m.core(0).gpr(r as u8);
    }
    // Scratch + deferred-access page: the memory a case can write
    // identically on every leg.
    let mem_probe = (0..32)
        .map(|i| m.mem.read_u64(SCRATCH_BASE + 8 * i))
        .chain((0..32).map(|i| m.mem.read_u64(VNCR_PAGE + 8 * i)))
        .fold(0u64, |acc, v| {
            acc.rotate_left(7) ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        });
    let end = LegEnd {
        outcome,
        steps: m.steps_retired() - start_steps,
        pc: m.core(0).pc,
        el: m.core(0).pstate.el,
        gprs,
        mem_probe,
    };
    // An injected counter reset can move the cycle source backwards;
    // the delta is only compared between uninjected legs, so wrap.
    (
        end,
        m.counter.cycles().wrapping_sub(start_cycles),
        h.irq_traps,
    )
}

/// First field where two leg ends differ, for divergence details.
fn first_divergence(a: &LegEnd, b: &LegEnd, names: (&str, &str)) -> String {
    let (an, bn) = names;
    if a.outcome != b.outcome {
        return format!("outcome: {an} {:?} vs {bn} {:?}", a.outcome, b.outcome);
    }
    if a.steps != b.steps {
        return format!("steps: {an} {} vs {bn} {}", a.steps, b.steps);
    }
    if a.pc != b.pc {
        return format!("pc: {an} {:#x} vs {bn} {:#x}", a.pc, b.pc);
    }
    if a.el != b.el {
        return format!("el: {an} {} vs {bn} {}", a.el, b.el);
    }
    for r in 0..31 {
        if a.gprs[r] != b.gprs[r] {
            return format!("x{r}: {an} {:#x} vs {bn} {:#x}", a.gprs[r], b.gprs[r]);
        }
    }
    format!(
        "memory probe: {an} {:#x} vs {bn} {:#x}",
        a.mem_probe, b.mem_probe
    )
}

/// Runs one case through the oracle stack.
///
/// Clean cases run all three legs; injected cases run only the observed
/// leg (the injection makes the others diverge *by design* — the
/// invariant checker is the oracle there).
fn run_case(rig: &mut Rig, case: &FuzzCase) -> CaseOutcome {
    // Leg 1: reference interpreter on NEVE, checker + trace attached.
    rig.neve.restore(&rig.neve_snap);
    rig.neve.replace_program(program_for(case));
    rig.neve.attach_trace(TRACE_CAP);
    rig.neve.attach_checker();
    if !case.injections.is_empty() {
        let base = rig.neve.steps_retired();
        let plan = FaultPlan::new(
            case.injections
                .iter()
                .map(|i| Injection {
                    step: base + i.step,
                    fault: i.fault,
                    param: i.param,
                })
                .collect(),
        );
        rig.neve.attach_fault_plan(plan);
    }
    let (a_end, a_cycles, a_irqs) = run_leg(&mut rig.neve);

    let mut coverage = BTreeSet::new();
    let mut last_el = 1u8;
    if let Some(trace) = rig.neve.trace.take() {
        for ev in trace.events() {
            match ev {
                TraceEvent::Retired { el, .. } => last_el = *el,
                TraceEvent::TrapToEl2 { kind, phase, .. } => {
                    coverage.insert((trap_label(*kind), phase.label().to_string(), last_el));
                }
                _ => {}
            }
        }
    }
    let violations = rig
        .neve
        .take_checker()
        .map(|c| c.violations().to_vec())
        .unwrap_or_default();

    if let Some(v) = violations.first() {
        return CaseOutcome {
            coverage,
            finding: Some(Finding {
                kind: FindingKind::CheckerViolation,
                detail: v.to_string(),
            }),
            cross_skipped: false,
        };
    }
    if !case.injections.is_empty() {
        // Injected but unflagged: the lockstep legs would report the
        // *injection*, not a bug; stop here.
        return CaseOutcome {
            coverage,
            finding: None,
            cross_skipped: false,
        };
    }

    // Leg 2: micro-op engine, same config — must be bit-identical
    // including cycles.
    rig.uop.restore(&rig.uop_snap);
    rig.uop.replace_program(program_for(case));
    let (b_end, b_cycles, _) = run_leg(&mut rig.uop);
    if a_end != b_end || a_cycles != b_cycles {
        let detail = if a_end == b_end {
            format!("cycles: interp {a_cycles} vs uop {b_cycles}")
        } else {
            first_divergence(&a_end, &b_end, ("interp", "uop"))
        };
        return CaseOutcome {
            coverage,
            finding: Some(Finding {
                kind: FindingKind::EngineDivergence,
                detail,
            }),
            cross_skipped: false,
        };
    }

    // Leg 3: ARMv8.3 — guest-visibly identical, cycles excepted.
    rig.v83.restore(&rig.v83_snap);
    rig.v83.replace_program(program_for(case));
    let (c_end, _, c_irqs) = run_leg(&mut rig.v83);
    if a_irqs > 0 || c_irqs > 0 {
        // Interrupt delivery times depend on cycle counts, which the
        // two configurations legitimately disagree on; comparing would
        // report the cost model, not a bug.
        return CaseOutcome {
            coverage,
            finding: None,
            cross_skipped: true,
        };
    }
    if a_end != c_end {
        return CaseOutcome {
            coverage,
            finding: Some(Finding {
                kind: FindingKind::CrossConfigDivergence,
                detail: first_divergence(&a_end, &c_end, ("neve", "v8.3")),
            }),
            cross_skipped: false,
        };
    }

    // The paper's accounting identity, per case: every deferrable v8.3
    // trap is a NEVE deferral or a NEVE residual trap.
    let v83_deferrable = rig.v83.deferrable_sysreg_traps() - rig.base_v83_deferrable;
    let neve_deferrals = rig.neve.vncr_deferrals() - rig.base_neve_deferrals;
    let neve_residual = rig.neve.deferrable_sysreg_traps() - rig.base_neve_residual;
    if v83_deferrable != neve_deferrals + neve_residual {
        return CaseOutcome {
            coverage,
            finding: Some(Finding {
                kind: FindingKind::TrapAlgebraViolation,
                detail: format!(
                    "v8.3 deferrable traps {v83_deferrable} != NEVE deferrals {neve_deferrals} + residual traps {neve_residual}"
                ),
            }),
            cross_skipped: false,
        };
    }

    CaseOutcome {
        coverage,
        finding: None,
        cross_skipped: false,
    }
}

fn trap_label(kind: TrapKind) -> String {
    format!("{kind:?}").to_lowercase()
}

// ---------------------------------------------------------------------
// Deterministic case synthesis.
// ---------------------------------------------------------------------

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Index-pure seed derivation: identical for a given `(seed, i)` no
/// matter which worker computes it.
fn mix(seed: u64, i: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(GOLDEN);
    splitmix64(&mut s)
}

fn base_instrs(spec_seed: u64, i: usize) -> Vec<Instr> {
    let mut s = mix(spec_seed, i as u64);
    let len = 10 + (splitmix64(&mut s) % 30) as usize;
    fuzzgen::generate(splitmix64(&mut s), len)
}

/// Synthesizes first-round case `i`. Every 8th-ish case (i % 8 == 5)
/// carries a scheduled fault injection; every 4th-ish (i % 4 == 3) is
/// an index-derived mutant of the base two slots earlier; the rest are
/// freshly generated.
pub fn case_for_index(spec_seed: u64, i: usize) -> FuzzCase {
    let id = mix(spec_seed, i as u64);
    if i % 8 == 5 {
        return injected_case(spec_seed, i, id);
    }
    if i % 4 == 3 && i >= 3 {
        let parent = base_instrs(spec_seed, i - 2);
        let mut s = id;
        let mseed = splitmix64(&mut s);
        return FuzzCase {
            seed: id,
            instrs: fuzzgen::mutate(&parent, mseed),
            injections: vec![],
        };
    }
    FuzzCase {
        seed: id,
        instrs: base_instrs(spec_seed, i),
        injections: vec![],
    }
}

/// An injected case: branch-free body (so execution is long enough for
/// the injection to fire) ending in a forced TLB invalidate + Stage-2
/// walk, with one fault from the [`InjectedFault`] rotation scheduled a
/// few steps in. Shadow-PTE corruption always uses `param` 1024 — slot
/// 1024 % 512 = 0 is the one root descriptor covering the testbed's
/// RAM, so the corruption is architecturally reachable and the checker
/// *must* re-detect it.
fn injected_case(spec_seed: u64, i: usize, id: u64) -> FuzzCase {
    let mut s = id ^ spec_seed.rotate_left(17);
    let len = 24 + (splitmix64(&mut s) % 16) as usize;
    let gseed = splitmix64(&mut s);
    let mut instrs: Vec<Instr> = fuzzgen::generate(gseed, len)
        .into_iter()
        .filter(|ins| !matches!(ins, Instr::B(_) | Instr::Cbz(_, _) | Instr::Cbnz(_, _)))
        .collect();
    instrs.extend([
        Instr::TlbiVmall,
        Instr::MovImm(1, SCRATCH_BASE),
        Instr::Ldr(2, 1, 0),
        Instr::Str(2, 1, 8),
    ]);
    let all = InjectedFault::all();
    let fault = all[(i / 8) % all.len()];
    let param = match fault {
        InjectedFault::CorruptShadowPte => 1024,
        _ => splitmix64(&mut s) % 4096,
    };
    let step = 4 + splitmix64(&mut s) % 8;
    FuzzCase {
        seed: id,
        instrs,
        injections: vec![Injection { step, fault, param }],
    }
}

// ---------------------------------------------------------------------
// Minimization.
// ---------------------------------------------------------------------

/// Delta-minimizes `case` while the oracle keeps reporting the same
/// finding kind: repeatedly drops instruction chunks (halving the chunk
/// size down to single instructions), keeping each removal that still
/// reproduces.
fn minimize(rig: &mut Rig, case: &FuzzCase, kind: FindingKind) -> FuzzCase {
    let mut best = case.clone();
    let reproduces = |rig: &mut Rig, c: &FuzzCase| -> bool {
        run_case(rig, c).finding.map(|f| f.kind) == Some(kind)
    };
    let mut chunk = best.instrs.len().div_ceil(2).max(1);
    loop {
        let mut i = 0;
        while i < best.instrs.len() && best.instrs.len() > 1 {
            let mut cand = best.clone();
            let hi = (i + chunk).min(cand.instrs.len());
            cand.instrs.drain(i..hi);
            if !cand.instrs.is_empty() && reproduces(rig, &cand) {
                best = cand; // keep the removal; retry the same offset
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    best
}

// ---------------------------------------------------------------------
// Reproducers (JSON corpus).
// ---------------------------------------------------------------------

/// Serializes a finding into the replayable reproducer schema.
fn reproducer_json(rec: &FindingRecord, campaign_seed: u64) -> String {
    let case = &rec.case;
    let instrs: Vec<JsonValue> = case
        .instrs
        .iter()
        .map(|&i| JsonValue::from(fuzzgen::instr_to_string(i)))
        .collect();
    let injections: Vec<JsonValue> = case
        .injections
        .iter()
        .map(|inj| {
            JsonValue::Object(vec![
                ("step".into(), JsonValue::from(inj.step)),
                ("fault".into(), JsonValue::from(inj.fault.label())),
                ("param".into(), JsonValue::from(inj.param)),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("version".into(), JsonValue::from(1u64)),
        (
            "campaign_seed".into(),
            JsonValue::from(format!("{campaign_seed:#018x}")),
        ),
        (
            "case".into(),
            JsonValue::from(format!("{:#018x}", case.seed)),
        ),
        ("finding".into(), JsonValue::from(rec.finding.kind.label())),
        (
            "detail".into(),
            JsonValue::from(rec.finding.detail.as_str()),
        ),
        ("minimized".into(), JsonValue::Bool(true)),
        ("instrs".into(), JsonValue::Array(instrs)),
        ("injections".into(), JsonValue::Array(injections)),
    ])
    .pretty()
}

/// A finding's identity across cases: its kind plus its detail with
/// the checker's `step N cpuK:` position prefix stripped, so the same
/// violation reached at another step or on another core is one finding.
fn signature(f: &Finding) -> (FindingKind, &str) {
    let position = |rest: &str| -> Option<usize> {
        let (pos, _) = rest.split_once(": ")?;
        let (step, cpu) = pos.strip_prefix("step ")?.split_once(" cpu")?;
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        (digits(step) && digits(cpu)).then_some(pos.len() + 2)
    };
    let detail = f.detail.as_str();
    (f.kind, position(detail).map_or(detail, |n| &detail[n..]))
}

/// Writes one reproducer; returns its path.
fn persist(rec: &FindingRecord, dir: &str, campaign_seed: u64) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let name = format!("{}-{:016x}.json", rec.finding.kind.label(), rec.case.seed);
    let path = Path::new(dir).join(&name);
    crate::cache::write_atomically(&path, &reproducer_json(rec, campaign_seed))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Loads a reproducer file back into a case + expected finding kind.
pub fn load_reproducer(path: &str) -> Result<(FuzzCase, FindingKind), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = neve_json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e:?}"))?;
    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| format!("{path}: missing field `{k}`"))
    };
    let seed_text = field("case")?
        .as_str()
        .ok_or_else(|| format!("{path}: `case` must be a hex string"))?;
    let seed = u64::from_str_radix(seed_text.trim_start_matches("0x"), 16)
        .map_err(|_| format!("{path}: `case` is not a hex number: {seed_text}"))?;
    let kind_text = field("finding")?
        .as_str()
        .ok_or_else(|| format!("{path}: `finding` must be a string"))?;
    let kind = FindingKind::from_label(kind_text)
        .ok_or_else(|| format!("{path}: unknown finding kind `{kind_text}`"))?;
    let mut instrs = Vec::new();
    for (n, v) in field("instrs")?
        .as_array()
        .ok_or_else(|| format!("{path}: `instrs` must be an array"))?
        .iter()
        .enumerate()
    {
        let s = v
            .as_str()
            .ok_or_else(|| format!("{path}: instrs[{n}] must be a string"))?;
        instrs.push(
            fuzzgen::instr_from_string(s)
                .ok_or_else(|| format!("{path}: instrs[{n}]: unparseable instruction `{s}`"))?,
        );
    }
    let mut injections = Vec::new();
    for (n, v) in field("injections")?
        .as_array()
        .ok_or_else(|| format!("{path}: `injections` must be an array"))?
        .iter()
        .enumerate()
    {
        let err = |what: &str| format!("{path}: injections[{n}]: {what}");
        let step = v
            .get("step")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err("missing numeric `step`"))?;
        let label = v
            .get("fault")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("missing `fault` label"))?;
        let fault = InjectedFault::all()
            .into_iter()
            .find(|f| f.label() == label)
            .ok_or_else(|| err(&format!("unknown fault `{label}`")))?;
        let param = v
            .get("param")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err("missing numeric `param`"))?;
        injections.push(Injection { step, fault, param });
    }
    Ok((
        FuzzCase {
            seed,
            instrs,
            injections,
        },
        kind,
    ))
}

/// What `--replay` reports.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The reproducer's recorded finding kind.
    pub expected: FindingKind,
    /// What this run's oracle said (None: nothing fired).
    pub observed: Option<Finding>,
}

impl ReplayOutcome {
    /// The reproducer re-triggered its recorded finding kind.
    pub fn reproduced(&self) -> bool {
        self.observed.as_ref().map(|f| f.kind) == Some(self.expected)
    }
}

/// Re-runs one persisted reproducer through the oracle stack.
pub fn replay(path: &str) -> Result<ReplayOutcome, String> {
    let (case, expected) = load_reproducer(path)?;
    let mut rig = Rig::new()?;
    let out = run_case(&mut rig, &case);
    Ok(ReplayOutcome {
        expected,
        observed: out.finding,
    })
}

// ---------------------------------------------------------------------
// The campaign.
// ---------------------------------------------------------------------

/// Runs every case across `jobs` workers, one [`Rig`] per worker,
/// results in case order (so the outcome is independent of `jobs`).
fn run_all(cases: &[FuzzCase], jobs: usize) -> Result<Vec<CaseOutcome>, String> {
    crate::par::striped_map(cases, jobs, Rig::new, run_case)
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("fuzz worker: {e}"))
}

/// Runs the campaign: a first round of index-synthesized cases, a
/// second coverage-guided round mutating the cases that reached new
/// provenance tuples, then sequential minimization + persistence of
/// every finding.
pub fn run_fuzz(spec: &FuzzSpec) -> Result<FuzzReport, String> {
    let round1: Vec<FuzzCase> = (0..spec.cases)
        .map(|i| case_for_index(spec.seed, i))
        .collect();
    let outcomes = run_all(&round1, spec.jobs)?;

    // Coverage is merged in index order, so "which case was first to a
    // tuple" — and therefore the round-2 parent set — is jobs-invariant.
    let mut coverage: BTreeSet<CovTuple> = BTreeSet::new();
    let mut parents: Vec<usize> = Vec::new();
    let mut cross_skipped = 0usize;
    let mut findings: Vec<(usize, FuzzCase, Finding)> = Vec::new();
    let mut injections_detected = 0usize;
    for (i, out) in outcomes.iter().enumerate() {
        let novel = out.coverage.iter().any(|t| !coverage.contains(t));
        coverage.extend(out.coverage.iter().cloned());
        if novel && round1[i].injections.is_empty() && parents.len() < CORPUS_PARENTS {
            parents.push(i);
        }
        if out.cross_skipped {
            cross_skipped += 1;
        }
        if let Some(f) = &out.finding {
            if !round1[i].injections.is_empty() && f.kind == FindingKind::CheckerViolation {
                injections_detected += 1;
            }
            findings.push((i, round1[i].clone(), f.clone()));
        }
    }

    // Round 2: mutants of the new-coverage parents.
    let mut round2: Vec<FuzzCase> = Vec::with_capacity(parents.len() * MUTANTS_PER_PARENT);
    for &p in &parents {
        for j in 0..MUTANTS_PER_PARENT {
            let id = mix(spec.seed, 0x5eed_0000 + (p as u64) * 16 + j as u64);
            let mut s = id;
            let mseed = splitmix64(&mut s);
            round2.push(FuzzCase {
                seed: id,
                instrs: fuzzgen::mutate(&round1[p].instrs, mseed),
                injections: vec![],
            });
        }
    }
    let outcomes2 = run_all(&round2, spec.jobs)?;
    for (k, out) in outcomes2.iter().enumerate() {
        coverage.extend(out.coverage.iter().cloned());
        if out.cross_skipped {
            cross_skipped += 1;
        }
        if let Some(f) = &out.finding {
            findings.push((spec.cases + k, round2[k].clone(), f.clone()));
        }
    }

    // Minimize + persist, sequentially and in case order. One
    // reproducer per signature: a later finding with the same signature
    // points at the first one's file instead of adding another.
    let mut rig = Rig::new()?;
    let mut records = Vec::new();
    let mut persisted: Vec<(FindingKind, String, String)> = Vec::new();
    for (idx, case, finding) in findings.into_iter().take(MAX_MINIMIZED) {
        let original_len = case.instrs.len();
        let min = minimize(&mut rig, &case, finding.kind);
        let mut rec = FindingRecord {
            case_index: idx,
            injected: min.injections.iter().map(|i| i.fault.label()).collect(),
            case: min,
            finding,
            original_len,
            file: None,
        };
        if let Some(dir) = &spec.corpus_dir {
            let (kind, detail) = signature(&rec.finding);
            let first = persisted
                .iter()
                .find(|(k, d, _)| *k == kind && d == detail)
                .map(|(_, _, file)| file.clone());
            rec.file = Some(match first {
                Some(file) => file,
                None => {
                    let file = persist(&rec, dir, spec.seed)?;
                    persisted.push((kind, detail.to_string(), file.clone()));
                    file
                }
            });
        }
        records.push(rec);
    }

    let mut generated = 0;
    let mut mutated = 0;
    let mut injected = 0;
    for i in 0..spec.cases {
        if i % 8 == 5 {
            injected += 1;
        } else if i % 4 == 3 && i >= 3 {
            mutated += 1;
        } else {
            generated += 1;
        }
    }
    Ok(FuzzReport {
        seed: spec.seed,
        generated,
        mutated,
        injected,
        injections_detected,
        guided_mutants: round2.len(),
        coverage,
        cross_skipped,
        findings: records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(cases: usize, jobs: usize) -> FuzzSpec {
        FuzzSpec {
            seed: 0x7e1,
            cases,
            jobs,
            corpus_dir: None,
        }
    }

    #[test]
    fn campaign_is_deterministic_and_jobs_invariant() {
        let a = run_fuzz(&spec(14, 1)).unwrap().render();
        let b = run_fuzz(&spec(14, 3)).unwrap().render();
        assert_eq!(a, b, "report depends on worker count");
    }

    #[test]
    fn snapshot_mid_wfi_restores_pending_timer_wake() {
        use neve_vtimer::PPI_VTIMER;
        let mut m = build_machine(true, Engine::Interp).unwrap();
        // An idle guest: park in `wfi`, halt once woken.
        let mut a = Asm::new(PROGRAM_BASE);
        a.i(Instr::Wfi);
        a.i(Instr::Halt(1));
        m.replace_program(a.assemble());
        let mut h = EmulHyp::new();
        let mut out = StepOutcome::Executed;
        for _ in 0..64 {
            out = m.step(&mut h, 0);
            if out == StepOutcome::Wfi {
                break;
            }
        }
        assert_eq!(out, StepOutcome::Wfi, "guest never reached its wfi");
        // Arm the EL1 virtual timer and park: the wake is now a
        // pending wheel event a snapshot must carry.
        let deadline = m.counter.cycles() + 10_000;
        m.gic.dist.enable(0, PPI_VTIMER);
        m.timers.write(0, SysReg::CntvCvalEl0, deadline);
        m.timers.write(0, SysReg::CntvCtlEl0, 1);
        assert!(m.park(&mut h, 0), "core with a future deadline must park");
        let parked_at = m.counter.cycles();
        let snap = m.snapshot();
        // Original timeline: the wake is time-driven (the clock leapt
        // to the timer deadline, `CNTVOFF`-adjusted by the wheel).
        assert!(m.advance_to_wake(&mut h));
        let woke_at = m.counter.cycles();
        assert!(
            woke_at >= deadline && woke_at > parked_at,
            "wake at {woke_at} is not a forward leap to the armed deadline {deadline}"
        );
        assert!(!m.is_parked(0));
        // Restored timeline: same pending event, same simulated time.
        m.restore(&snap);
        assert_eq!(m.counter.cycles(), parked_at);
        assert!(m.is_parked(0), "restore must rewind to the parked state");
        assert!(
            m.advance_to_wake(&mut h),
            "restored wheel lost the armed vtimer event"
        );
        assert_eq!(
            m.counter.cycles(),
            woke_at,
            "restored wake landed at a different simulated time"
        );
        assert!(!m.is_parked(0));
    }

    #[test]
    fn campaign_observes_trap_coverage() {
        let r = run_fuzz(&spec(8, 2)).unwrap();
        assert!(
            !r.coverage.is_empty(),
            "eight guest-hypervisor cases produced no trap provenance at all"
        );
        // Generated programs are EL1 guest-hypervisor shapes.
        assert!(r.coverage.iter().all(|(_, _, el)| *el == 1));
    }

    #[test]
    fn injected_shadow_pte_corruption_is_detected_minimized_and_replayable() {
        let dir = std::env::temp_dir().join(format!("neve-fuzz-test-{}", std::process::id()));
        let dir_s = dir.display().to_string();
        // Index 5 is the campaign's first injected case and carries
        // CorruptShadowPte (rotation slot 0) with param 1024.
        let mut s = spec(6, 2);
        s.corpus_dir = Some(dir_s.clone());
        let r = run_fuzz(&s).unwrap();
        assert_eq!(r.injected, 1);
        assert_eq!(r.injections_detected, 1, "checker missed the corruption");
        let rec = r
            .findings
            .iter()
            .find(|f| f.injected.contains(&"corrupt-shadow-pte"))
            .expect("no reproducer for the injected corruption");
        assert_eq!(rec.finding.kind, FindingKind::CheckerViolation);
        assert!(rec.finding.detail.contains("malformed-stage2"));
        assert!(
            rec.case.instrs.len() <= rec.original_len,
            "minimization grew the case"
        );
        assert!(rec.case.instrs.len() < rec.original_len);

        let file = rec.file.clone().expect("reproducer not persisted");
        let out = replay(&file).unwrap();
        assert!(
            out.reproduced(),
            "--replay did not re-trigger: {:?}",
            out.observed
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_default_campaign_persists_one_reproducer_per_signature() {
        let dir = std::env::temp_dir().join(format!("neve-fuzz-sig-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = spec(96, 2);
        s.corpus_dir = Some(dir.display().to_string());
        let r = run_fuzz(&s).unwrap();
        let mut signatures: Vec<(FindingKind, &str)> = Vec::new();
        for f in &r.findings {
            let sig = signature(&f.finding);
            if !signatures.contains(&sig) {
                signatures.push(sig);
            }
        }
        let files = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            r.findings.len() > signatures.len(),
            "the default campaign reaches one violation from several cases"
        );
        assert_eq!(files, signatures.len(), "one reproducer per signature");
        // Every finding, duplicates included, names a persisted file.
        for f in &r.findings {
            let first = r
                .findings
                .iter()
                .find(|g| signature(&g.finding) == signature(&f.finding))
                .unwrap();
            assert_eq!(f.file, first.file);
        }
    }

    #[test]
    fn signatures_strip_only_the_position_prefix() {
        let f = |detail: &str| Finding {
            kind: FindingKind::CheckerViolation,
            detail: detail.into(),
        };
        let a = f("step 511 cpu0: malformed-stage2: root slot 0");
        let b = f("step 514 cpu1: malformed-stage2: root slot 0");
        assert_eq!(signature(&a), signature(&b));
        assert_eq!(signature(&a).1, "malformed-stage2: root slot 0");
        let plain = f("cycles: interp 5 vs uop 6");
        assert_eq!(signature(&plain).1, "cycles: interp 5 vs uop 6");
        assert_ne!(
            signature(&a),
            signature(&f("step 511 cpu0: malformed-stage2: root slot 1"))
        );
    }

    #[test]
    fn replay_reports_structured_errors() {
        let err = replay("/nonexistent/repro.json").unwrap_err();
        assert!(err.contains("/nonexistent/repro.json"));
        let dir = std::env::temp_dir().join(format!("neve-fuzz-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"finding\": \"nope\"}").unwrap();
        let err = replay(&bad.display().to_string()).unwrap_err();
        assert!(err.contains("bad.json"), "error must name the file: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reproducer whose write was cut short (power loss, full disk)
    /// must fail the replay with an error naming the file — at *every*
    /// truncation point (mid-string, mid-field, mid-array). Panicking
    /// here would turn a damaged corpus entry into a harness crash.
    #[test]
    fn truncated_reproducers_fail_structurally_at_every_cut() {
        let case = case_for_index(0x7e1, 5);
        let rec = FindingRecord {
            case_index: 5,
            injected: vec!["corrupt-shadow-pte"],
            case: case.clone(),
            finding: Finding {
                kind: FindingKind::CheckerViolation,
                detail: "step 1 cpu0: malformed-stage2: x".into(),
            },
            original_len: case.instrs.len(),
            file: None,
        };
        let text = reproducer_json(&rec, 0x7e1);
        let dir = std::env::temp_dir().join(format!("neve-fuzz-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        let path_s = path.display().to_string();
        // Every prefix that drops at least the closing brace; stepping
        // by a few bytes keeps the test fast while still crossing every
        // structural boundary (mid-string, mid-field, mid-array).
        for cut in (0..text.len().saturating_sub(1)).step_by(7) {
            std::fs::write(&path, &text[..cut]).unwrap();
            let err = load_reproducer(&path_s).unwrap_err();
            assert!(
                err.contains("truncated.json"),
                "cut at {cut}: error must name the file: {err}"
            );
        }
        // An empty file (zero-byte write) is the degenerate truncation.
        std::fs::write(&path, "").unwrap();
        let err = replay(&path_s).unwrap_err();
        assert!(err.contains("truncated.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reproducer_round_trips_through_json() {
        let case = case_for_index(0x7e1, 5);
        let rec = FindingRecord {
            case_index: 5,
            injected: vec!["corrupt-shadow-pte"],
            case: case.clone(),
            finding: Finding {
                kind: FindingKind::CheckerViolation,
                detail: "step 1 cpu0: malformed-stage2: x".into(),
            },
            original_len: case.instrs.len(),
            file: None,
        };
        let text = reproducer_json(&rec, 0x7e1);
        let dir = std::env::temp_dir().join(format!("neve-fuzz-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.json");
        std::fs::write(&path, &text).unwrap();
        let (loaded, kind) = load_reproducer(&path.display().to_string()).unwrap();
        assert_eq!(kind, FindingKind::CheckerViolation);
        assert_eq!(loaded.seed, case.seed);
        assert_eq!(loaded.instrs, case.instrs);
        assert_eq!(loaded.injections.len(), 1);
        assert_eq!(loaded.injections[0].param, 1024);
        std::fs::remove_dir_all(&dir).ok();
    }
}
