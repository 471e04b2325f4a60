//! Workload models reproducing the NEVE paper's evaluation.
//!
//! - [`session`]: [`SimSession`], the unit of evaluation — one
//!   (configuration, benchmark) cell owning its testbed from build to
//!   measured result. Sessions are `Send`, so the matrix fans out
//!   across worker threads.
//! - [`platforms`]: a unified view over the ARM ([`neve_kvmarm`]) and
//!   x86 ([`neve_x86vt`]) test beds; [`MicroMatrix`] runs every
//!   microbenchmark on every configuration (serially or in parallel,
//!   bit-identically) — the data behind Tables 1, 6 and 7, including
//!   the per-kind trap breakdown.
//! - [`cache`]: the matrix's JSON schema and its file
//!   (`results/micro_matrix.json`, written by `neve export`), keyed by
//!   the cost-model fingerprint.
//! - [`faults`]: the fault-injection campaign — every built-in
//!   [`FaultPlan`](neve_armv8::FaultPlan) against every nested ARM
//!   cell, classifying each outcome as detected, recovered, or
//!   mis-measured (the `neve faults` subcommand).
//! - [`tables`]: assembles those results into the paper's table rows.
//! - [`apps`]: the application-workload model behind Figure 2. Each of
//!   the paper's ten workloads (Table 8) is characterized by rates of
//!   virtualization events per unit of CPU work; the per-event costs
//!   come from the *simulated stacks* (the same numbers as Table 6), so
//!   the figure is regenerated, not transcribed. The virtio
//!   notification-suppression model reproduces the paper's x86
//!   Memcached anomaly (Section 7.2: "having faster hardware can result
//!   in more virtualization overhead").
//! - [`par`]: the one worker pool every batch campaign runs on —
//!   index-ordered, panic-contained [`par::striped_map`].
//! - [`jobs`] and [`serve`]: the long-running job engine behind
//!   `neve serve` — batched matrix-sweep requests over line-delimited
//!   JSON, decomposed into content-addressed cells on a single FIFO
//!   queue, with in-flight coalescing, an in-memory result store
//!   layered over the matrix file, and streaming JSONL partial-matrix
//!   events.

pub mod apps;
pub mod cache;
pub mod consolidate;
pub mod faults;
pub mod fuzz;
pub mod jobs;
pub mod oracle;
pub mod par;
pub mod platforms;
pub mod provenance;
pub mod replay;
pub mod serve;
pub mod session;
pub mod tables;
pub mod throughput;

pub use apps::{figure2, WorkloadProfile, WorkloadRow, WORKLOADS};
pub use cache::CACHE_PATH;
pub use consolidate::{
    run_consolidate, ConsolidateReport, ConsolidateRow, ConsolidateSpec, CONSOLIDATE_PATH,
};
pub use faults::{run_campaign, CampaignReport, CampaignSpec, Verdict};
pub use fuzz::{run_fuzz, FuzzReport, FuzzSpec, CORPUS_DIR};
pub use jobs::{parse_request, CellKey, Command, JobKind, JobRequest};
pub use oracle::{
    diff_pair, engine_lockstep, golden_diff, run_checks, trap_algebra, wheel_determinism,
    OracleReport, PairReport,
};
pub use platforms::{Config, MeasureOpts, MicroCosts, MicroMatrix, PhaseStat};
pub use replay::{replay_vs_model, Mix, ReplayResult};
pub use serve::{listen, run_protocol, JobEngine, SharedBuf, Sink};
pub use session::{Bench, CellMeasurement, CellResult, SimSession};
pub use tables::{table1, table6, table7, Cell, TableRow};
pub use throughput::{
    guard_regressions, guard_scenario_regressions, measure_all, measure_all_with,
    measure_scenarios, ConfigThroughput, ScenarioThroughput, BENCH_PATH,
};
