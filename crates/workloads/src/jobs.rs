//! Job requests for the serve engine: the line-delimited JSON schema,
//! content-addressed cell keys, and the decomposition of one batched
//! sweep request into independently schedulable cells.
//!
//! A request names a *sweep slice* of the evaluation matrix — which
//! configurations, which benchmarks, which step engine, an optional
//! fault plan and an optional step budget — and the engine splits it
//! into one cell per (configuration, benchmark). Two requests that
//! describe the same cell (same cost model, same knobs) produce the
//! same [`CellKey`], which is what lets the serve store coalesce
//! duplicate in-flight work and serve repeat queries from memory.
//! Campaigns (`faults`, `fuzz`, `consolidate`, `bench-sim`) are not
//! jobs: they run as `neve` subcommands.

use crate::platforms::Config;
use crate::session::Bench;
use neve_armv8::{Engine, FaultPlan};
use neve_json::JsonValue;

/// The job kinds a serve request can name: only evaluation-matrix
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobKind {
    /// Evaluation-matrix measurement: one cell per (config, bench).
    Micro,
}

impl JobKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Micro => "micro",
        }
    }
}

/// Resolves a configuration from either its table label (`"ARM VM"`,
/// the matrix file's keys) or its CLI alias (`"vm"`, `"v83"`, ...).
pub fn config_from_name(name: &str) -> Option<Config> {
    if let Some(c) = Config::from_label(name) {
        return Some(c);
    }
    Some(match name {
        "vm" => Config::ArmVm,
        "v83" | "v8.3" | "v8.3-nested" => Config::ArmNestedV83,
        "v83-vhe" | "v8.3-nested-vhe" => Config::ArmNestedV83Vhe,
        "neve" | "neve-nested" => Config::ArmNestedNeve,
        "neve-vhe" | "neve-nested-vhe" => Config::ArmNestedNeveVhe,
        "x86-vm" => Config::X86Vm,
        "x86-nested" => Config::X86Nested,
        _ => return None,
    })
}

/// Resolves a benchmark from its label or CLI alias.
pub fn bench_from_name(name: &str) -> Option<Bench> {
    if let Some(b) = Bench::from_label(name) {
        return Some(b);
    }
    Some(match name {
        "devio" => Bench::DeviceIo,
        "ipi" => Bench::VirtualIpi,
        "eoi" => Bench::VirtualEoi,
        _ => return None,
    })
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Submit a job.
    Submit(JobRequest),
    /// Cancel a previously submitted job by id.
    Cancel(String),
}

/// A batched sweep request, decomposable into cells.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Caller-chosen id; every streamed event echoes it.
    pub id: String,
    /// Which job kind to run (always [`JobKind::Micro`]).
    pub kind: JobKind,
    /// Configurations to sweep (defaults to all).
    pub configs: Vec<Config>,
    /// Benchmarks to sweep (defaults to all four).
    pub benches: Vec<Bench>,
    /// Step engine for ARM cells.
    pub engine: Engine,
    /// Per-cell step budget (`None` = platform default). The watchdog
    /// turns an exhausted budget into a structured `SimFault`, so an
    /// over-budget cell streams as `failed` while the rest of the
    /// batch completes — backpressure, not poison.
    pub budget: Option<u64>,
    /// Fault plan `(builtin name, seed)` attached to every ARM cell.
    pub plan: Option<(String, u64)>,
    /// Ignored. Left from the campaign job kinds; the wire protocol no
    /// longer reads it.
    pub seed: u64,
    /// Ignored, like `seed`.
    pub cases: usize,
    /// Ignored, like `seed`.
    pub smoke: bool,
    /// Ignored, like `seed`.
    pub samples: usize,
}

/// The content address of one schedulable cell, and all a worker needs
/// to run it. Everything that can change a cell's result is part of
/// the key — cost-model fingerprint, configuration, benchmark, engine,
/// budget, fault plan — so equal keys are interchangeable results and
/// the store can coalesce and cache on key identity alone.
/// `BTreeMap`-friendly (`Ord`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// Cost-model fingerprint the cell is measured under.
    pub fingerprint: u64,
    /// Configuration to build.
    pub config: Config,
    /// Benchmark to run.
    pub bench: Bench,
    /// Step engine for ARM beds.
    pub engine: Engine,
    /// Step budget (`None` = platform default).
    pub budget: Option<u64>,
    /// Builtin fault-plan name and seed, already checked to resolve.
    pub plan: Option<(String, u64)>,
}

impl JobRequest {
    /// A request for `configs × benches` with the default engine, no
    /// budget and no fault plan.
    pub fn micro(id: impl Into<String>, configs: Vec<Config>, benches: Vec<Bench>) -> Self {
        JobRequest {
            id: id.into(),
            kind: JobKind::Micro,
            configs,
            benches,
            engine: Engine::default(),
            budget: None,
            plan: None,
            seed: 0,
            cases: 0,
            smoke: false,
            samples: 0,
        }
    }

    /// Splits the request into content-addressed cells. `fingerprint`
    /// is the current cost model's — requests never choose it; it is
    /// part of the key so a cost-model edit invalidates every stored
    /// result at once.
    ///
    /// # Errors
    ///
    /// An unknown builtin fault-plan name.
    pub fn cells(&self, fingerprint: u64) -> Result<Vec<CellKey>, String> {
        if let Some((name, seed)) = &self.plan {
            FaultPlan::builtin(name, *seed)
                .ok_or_else(|| format!("unknown fault plan `{name}`"))?;
        }
        let mut cells = Vec::new();
        for &config in &self.configs {
            for &bench in &self.benches {
                cells.push(CellKey {
                    fingerprint,
                    config,
                    bench,
                    engine: self.engine,
                    budget: self.budget,
                    plan: self.plan.clone(),
                });
            }
        }
        Ok(cells)
    }

    /// True when this request describes exactly the evaluation matrix
    /// the matrix file stores: every configuration, all four
    /// benchmarks, default engine, no plan, no budget. Only such
    /// requests may be answered from (or written back to) the file —
    /// anything narrower goes through the in-memory store.
    pub fn is_full_default_grid(&self) -> bool {
        self.engine == Engine::default()
            && self.budget.is_none()
            && self.plan.is_none()
            && self.benches.len() == Bench::all().len()
            && Bench::all().iter().all(|b| self.benches.contains(b))
            && self.configs.len() == Config::all().len()
            && Config::all().iter().all(|c| self.configs.contains(c))
    }
}

fn str_field(doc: &JsonValue, key: &str) -> Result<Option<String>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

fn u64_field(doc: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

/// A protocol line [`parse_request`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The line's request id, so the error event names the refused
    /// request; empty when the line is not JSON or has no string `id`.
    pub id: String,
    /// Why the line was refused.
    pub error: String,
}

/// Parses one protocol line.
///
/// The submit schema (all fields except `id` optional):
///
/// ```json
/// {"id":"r1","job":"micro","configs":["vm","neve"],
///  "benches":["hypercall"],"engine":"interp","budget":2000,
///  "plan":"chaos","plan_seed":7}
/// ```
///
/// and `{"cmd":"cancel","id":"r1"}` cancels.
///
/// # Errors
///
/// Malformed JSON, unknown fields' values, or a missing `id`.
pub fn parse_request(line: &str) -> Result<Command, RequestError> {
    let refuse = |id: &str, error| RequestError {
        id: id.to_string(),
        error,
    };
    let doc = neve_json::parse(line).map_err(|e| refuse("", format!("invalid JSON: {e:?}")))?;
    let id = doc.get("id").and_then(JsonValue::as_str).unwrap_or("");
    parse_fields(&doc).map_err(|error| refuse(id, error))
}

/// [`parse_request`] on a parsed line.
fn parse_fields(doc: &JsonValue) -> Result<Command, String> {
    let id = str_field(doc, "id")?.ok_or("missing `id`")?;
    if let Some(cmd) = str_field(doc, "cmd")? {
        return match cmd.as_str() {
            "cancel" => Ok(Command::Cancel(id)),
            other => Err(format!("unknown cmd `{other}`")),
        };
    }
    if let Some(job) = str_field(doc, "job")?.filter(|j| j != JobKind::Micro.label()) {
        return Err(format!("unknown job `{job}`"));
    }
    let configs = match doc.get("configs") {
        None => Config::all().to_vec(),
        Some(v) => {
            let arr = v.as_array().ok_or("`configs` must be an array")?;
            let mut out = Vec::new();
            for item in arr {
                let name = item.as_str().ok_or("`configs` entries must be strings")?;
                out.push(config_from_name(name).ok_or_else(|| format!("unknown config `{name}`"))?);
            }
            if out.is_empty() {
                return Err("`configs` must not be empty".into());
            }
            out
        }
    };
    let benches = match doc.get("benches") {
        None => Bench::all().to_vec(),
        Some(v) => {
            let arr = v.as_array().ok_or("`benches` must be an array")?;
            let mut out = Vec::new();
            for item in arr {
                let name = item.as_str().ok_or("`benches` entries must be strings")?;
                out.push(bench_from_name(name).ok_or_else(|| format!("unknown bench `{name}`"))?);
            }
            if out.is_empty() {
                return Err("`benches` must not be empty".into());
            }
            out
        }
    };
    let engine = match str_field(doc, "engine")?.as_deref() {
        None => Engine::default(),
        Some("uop") => Engine::Uop,
        Some("interp") => Engine::Interp,
        Some(other) => return Err(format!("unknown engine `{other}`")),
    };
    let plan = match str_field(doc, "plan")? {
        None => None,
        Some(name) => {
            let seed = u64_field(doc, "plan_seed")?.unwrap_or(2017);
            // Resolve now so a bad name fails the request at parse
            // time, not on a worker.
            FaultPlan::builtin(&name, seed)
                .ok_or_else(|| format!("unknown fault plan `{name}`"))?;
            Some((name, seed))
        }
    };
    Ok(Command::Submit(JobRequest {
        engine,
        budget: match u64_field(doc, "budget")? {
            Some(0) | None => None,
            Some(b) => Some(b),
        },
        plan,
        ..JobRequest::micro(id, configs, benches)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_defaults_and_aliases() {
        let Command::Submit(r) = parse_request(r#"{"id":"a"}"#).unwrap() else {
            panic!("submit expected")
        };
        assert_eq!(r.kind, JobKind::Micro);
        assert_eq!(r.configs.len(), Config::all().len());
        assert_eq!(r.benches.len(), 4);
        assert!(r.is_full_default_grid());

        let Command::Submit(r) = parse_request(
            r#"{"id":"b","job":"micro","configs":["vm","ARM VM","x86-vm"],
               "benches":["ipi"],"engine":"interp","budget":500}"#,
        )
        .unwrap() else {
            panic!("submit expected")
        };
        assert_eq!(r.configs, vec![Config::ArmVm, Config::ArmVm, Config::X86Vm]);
        assert_eq!(r.benches, vec![Bench::VirtualIpi]);
        assert_eq!(r.budget, Some(500));
        assert!(!r.is_full_default_grid());

        assert_eq!(
            parse_request(r#"{"cmd":"cancel","id":"b"}"#).unwrap(),
            Command::Cancel("b".into())
        );
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        assert!(parse_request("not json").is_err());
        let anonymous = parse_request(r#"{"job":"micro"}"#).unwrap_err();
        assert!(anonymous.error.contains("id") && anonymous.id.is_empty());
        assert_eq!(parse_request("not json").unwrap_err().id, "");
        // The campaigns are CLI subcommands, not job kinds.
        for job in ["mystery", "faults", "fuzz", "consolidate", "bench-sim"] {
            let line = format!(r#"{{"id":"x","job":"{job}"}}"#);
            assert_eq!(
                parse_request(&line).unwrap_err(),
                RequestError {
                    id: "x".into(),
                    error: format!("unknown job `{job}`")
                }
            );
        }
        assert!(parse_request(r#"{"id":"x","configs":["quantum"]}"#)
            .unwrap_err()
            .error
            .contains("quantum"));
        assert!(parse_request(r#"{"id":"x","plan":"nope"}"#)
            .unwrap_err()
            .error
            .contains("nope"));
        assert!(parse_request(r#"{"id":"x","configs":[]}"#).is_err());
    }

    #[test]
    fn cell_keys_are_content_addressed() {
        let Command::Submit(r) = parse_request(r#"{"id":"a","configs":["vm"]}"#).unwrap() else {
            panic!()
        };
        let Command::Submit(s) = parse_request(r#"{"id":"zzz","configs":["ARM VM"]}"#).unwrap()
        else {
            panic!()
        };
        // Same sweep under different request ids: identical keys (the
        // id is routing metadata, not content).
        let rc = r.cells(7).unwrap();
        let sc = s.cells(7).unwrap();
        assert_eq!(rc.len(), 4);
        assert_eq!(rc, sc);
        // A different fingerprint, engine, or budget changes every key.
        assert_ne!(rc[0], r.cells(8).unwrap()[0]);
        let mut rb = r.clone();
        rb.budget = Some(1000);
        assert_ne!(rc[0], rb.cells(7).unwrap()[0]);
        let mut re = r.clone();
        re.engine = Engine::Interp;
        assert_ne!(rc[0], re.cells(7).unwrap()[0]);
    }
}
