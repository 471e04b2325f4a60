//! The metrics: their names and units (which `BENCHMARK.json` lists
//! too), and how each is computed from the pooled rounds of a workload.

use crate::record::Record;
use crate::stats::{median, percentile};
use neve_json::JsonValue;

/// A reported metric.
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the simulator waits for, per workload (untraced runs).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("op_ms_p50", "ms", "lower"),
    m("op_ms_p90", "ms", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics (traced runs). A workload whose traced run does
/// not reach a layer reports 0 for it.
pub const PER_LAYER: &[Metric] = &[
    m("kvmarm.exits", "count", "lower"),
    m("kvmarm.exit_ns", "ns", "lower"),
    m("kvmarm.exit_ns.v83", "ns", "lower"),
    m("kvmarm.exit_ns.neve", "ns", "lower"),
    m("kvmarm.share.v83", "ratio", "lower"),
    m("kvmarm.share.neve", "ratio", "lower"),
    m("kvmarm.testbed_new_us", "us", "lower"),
    m("armv8.steps", "count", "lower"),
    m("armv8.step_ns", "ns", "lower"),
    m("armv8.step_ns.v83", "ns", "lower"),
    m("armv8.step_ns.neve", "ns", "lower"),
    m("armv8.step_ns.vm", "ns", "lower"),
    m("armv8.wheel.step_ns", "ns", "lower"),
    m("armv8.service_wakeups_ns", "ns", "lower"),
    m("armv8.service_wakeups_calls", "count", "lower"),
    m("armv8.park_calls", "count", "lower"),
    m("armv8.park_ns", "ns", "lower"),
    m("armv8.advance_to_wake_calls", "count", "lower"),
    m("armv8.advance_to_wake_ns", "ns", "lower"),
    m("armv8.deferrable_traps", "count", "lower"),
    m("x86vt.steps", "count", "lower"),
    m("x86vt.step_ns", "ns", "lower"),
    m("memsim.tlb_hits", "count", "higher"),
    m("memsim.tlb_misses", "count", "lower"),
    m("memsim.tlb_flushes", "count", "lower"),
    m("memsim.tlb_hit_ratio", "ratio", "higher"),
    m("neve.vncr_deferrals", "count", "lower"),
    m("cycles.sim_cycles", "count", "lower"),
    m("cycles.traps", "count", "lower"),
    m("cycles.consolidate_host_steps", "count", "lower"),
    m("workloads.assemble_us", "us", "lower"),
    m("workloads.fuzz_ms", "ms", "lower"),
    m("workloads.fuzz_cases", "count", "higher"),
    m("workloads.fuzz_coverage", "count", "higher"),
    m("workloads.faults_ms", "ms", "lower"),
    m("workloads.faults_entries", "count", "higher"),
    m("workloads.oracle_ms", "ms", "lower"),
    m("workloads.consolidate_ms", "ms", "lower"),
    m("workloads.msteps_per_s", "Msteps/s", "higher"),
    m("workloads.v83_msteps_per_s", "Msteps/s", "higher"),
    m("workloads.neve_msteps_per_s", "Msteps/s", "higher"),
    m("workloads.serve.hit_ms_p50", "ms", "lower"),
    m("workloads.serve.fresh_ms_p50", "ms", "lower"),
    m("workloads.serve.queue_ms_p50", "ms", "lower"),
    m("workloads.serve.submit_us", "us", "lower"),
    m("workloads.serve.computed", "count", "lower"),
    m("workloads.serve.src_measured", "count", "lower"),
    m("workloads.serve.src_memory", "count", "higher"),
    m("workloads.serve.src_coalesced", "count", "higher"),
    m("bench.gen_late_ms_max", "ms", "lower"),
    m("bench.trace_overhead", "ratio", "lower"),
    m("bench.ref_kernel_ms", "ms", "lower"),
];

/// Every round of one workload. Times are at nominal host speed (see
/// `speed`) except an open loop's schedule-bound wall time.
#[derive(Debug, Default)]
pub struct Pool {
    /// Per round: child start to ready, s.
    pub setup_s: Vec<f64>,
    /// Per round: the timed phase's duration, s.
    pub wall_s: Vec<f64>,
    /// Per round: untraced op times (request latencies, for serve), ms.
    pub op_ms: Vec<Vec<f64>>,
    /// Per round: median reference-kernel time, ms.
    pub ref_ms: Vec<f64>,
    /// Ops (requests, for serve) whose outputs were checked.
    pub attempted: u64,
    /// Ops whose outputs were wrong.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// Peak resident set of any round, KiB.
    pub rss_kb: u64,
    /// Per-layer accumulators, summed over rounds.
    pub rec: Record,
}

impl Pool {
    /// Every round's untraced op times together.
    pub fn all_op_ms(&self) -> Vec<f64> {
        self.op_ms.concat()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `END_TO_END`'s values, in order. Each is the median over rounds of
/// the round's own value, so a burst of host noise that spoils one
/// round does not move it.
pub fn end_to_end(p: &Pool) -> Vec<f64> {
    let rounds =
        |f: &dyn Fn(usize) -> f64| median(&(0..p.op_ms.len()).map(f).collect::<Vec<f64>>());
    vec![
        median(&p.setup_s),
        rounds(&|r| percentile(&p.op_ms[r], 500)),
        rounds(&|r| percentile(&p.op_ms[r], 900)),
        rounds(&|r| ratio(p.op_ms[r].len() as f64, p.wall_s[r])),
        p.rss_kb as f64 / 1024.0,
    ]
}

/// `PER_LAYER`'s values, in order. Counts are per traced op (serve's
/// are totals over its requests); times are self times per call.
pub fn per_layer(p: &Pool) -> Vec<f64> {
    let r = &p.rec;
    let s = |k: &str| r.sum(k);
    let med = |k: &str| median(r.samples_of(k));
    let ops = s("traced_ops");
    let per_op = |k: &str| ratio(s(k), ops);
    let per_call = |k: &str| ratio(s(&format!("{k}.ns")), s(&format!("{k}.timed")));
    let step_ns = |cls: &str| {
        ratio(
            s(&format!("armv8.step_self_ns{cls}")),
            s(&format!("armv8.steps{cls}")),
        )
    };
    let (hits, misses) = (s("memsim.tlb_hits"), s("memsim.tlb_misses"));
    PER_LAYER
        .iter()
        .map(|metric| match metric.name {
            "kvmarm.exits" => per_op("kvmarm.exits"),
            "kvmarm.exit_ns" => ratio(s("kvmarm.exit_ns"), s("kvmarm.exits")),
            "kvmarm.exit_ns.v83" => ratio(s("kvmarm.exit_ns.v83"), s("kvmarm.exits.v83")),
            "kvmarm.exit_ns.neve" => ratio(s("kvmarm.exit_ns.neve"), s("kvmarm.exits.neve")),
            "kvmarm.share.v83" => ratio(s("kvmarm.exit_ns.v83"), s("run_ns.v83")),
            "kvmarm.share.neve" => ratio(s("kvmarm.exit_ns.neve"), s("run_ns.neve")),
            "kvmarm.testbed_new_us" => per_call("kvmarm.testbed_new") / 1e3,
            "armv8.steps" => per_op("armv8.steps"),
            "armv8.step_ns" => step_ns(""),
            "armv8.step_ns.v83" => step_ns(".v83"),
            "armv8.step_ns.neve" => step_ns(".neve"),
            "armv8.step_ns.vm" => step_ns(".vm"),
            "armv8.wheel.step_ns" => ratio(s("wheel.step_self_ns"), s("wheel.steps")),
            "armv8.service_wakeups_ns" => per_call("armv8.service_wakeups"),
            "armv8.service_wakeups_calls" => per_op("armv8.service_wakeups.calls"),
            "armv8.park_calls" => per_op("armv8.park.calls"),
            "armv8.park_ns" => per_call("armv8.park"),
            "armv8.advance_to_wake_calls" => per_op("armv8.advance_to_wake.calls"),
            "armv8.advance_to_wake_ns" => per_call("armv8.advance_to_wake"),
            "armv8.deferrable_traps" => per_op("armv8.deferrable_traps"),
            "x86vt.steps" => per_op("x86vt.steps"),
            "x86vt.step_ns" => ratio(s("x86vt.run_ns"), s("x86vt.steps")),
            "memsim.tlb_hits" => per_op("memsim.tlb_hits"),
            "memsim.tlb_misses" => per_op("memsim.tlb_misses"),
            "memsim.tlb_flushes" => per_op("memsim.tlb_flushes"),
            "memsim.tlb_hit_ratio" => ratio(hits, hits + misses),
            "neve.vncr_deferrals" => per_op("neve.vncr_deferrals"),
            "cycles.sim_cycles" => per_op("cycles.sim_cycles"),
            "cycles.traps" => per_op("cycles.traps"),
            "cycles.consolidate_host_steps" => per_op("cycles.consolidate_host_steps"),
            "workloads.assemble_us" => per_op("workloads.assemble_ns") / 1e3,
            "workloads.fuzz_ms" => per_op("workloads.fuzz_ns") / 1e6,
            "workloads.fuzz_cases" => per_op("workloads.fuzz_cases"),
            "workloads.fuzz_coverage" => per_op("workloads.fuzz_coverage"),
            "workloads.faults_ms" => per_op("workloads.faults_ns") / 1e6,
            "workloads.faults_entries" => per_op("workloads.faults_entries"),
            "workloads.oracle_ms" => per_op("workloads.oracle_ns") / 1e6,
            "workloads.consolidate_ms" => per_op("workloads.consolidate_ns") / 1e6,
            "workloads.msteps_per_s" => med("workloads.msteps_per_s"),
            "workloads.v83_msteps_per_s" => med("workloads.v83_msteps_per_s"),
            "workloads.neve_msteps_per_s" => med("workloads.neve_msteps_per_s"),
            "workloads.serve.hit_ms_p50" => med("serve.hit_ms"),
            "workloads.serve.fresh_ms_p50" => med("serve.fresh_ms"),
            "workloads.serve.queue_ms_p50" => med("serve.queue_ms"),
            "workloads.serve.submit_us" => med("serve.submit_us"),
            "workloads.serve.computed" => s("serve.computed"),
            "workloads.serve.src_measured" => s("serve.src_measured"),
            "workloads.serve.src_memory" => s("serve.src_memory"),
            "workloads.serve.src_coalesced" => s("serve.src_coalesced"),
            "bench.gen_late_ms_max" => r
                .samples_of("bench.gen_late_ms")
                .iter()
                .copied()
                .fold(0.0, f64::max),
            "bench.trace_overhead" => {
                let traced = med("traced_op_ms");
                let plain = median(&p.all_op_ms());
                if traced == 0.0 || plain == 0.0 {
                    0.0
                } else {
                    traced / plain - 1.0
                }
            }
            "bench.ref_kernel_ms" => median(&p.ref_ms),
            other => unreachable!("per-layer metric {other} has no definition"),
        })
        .collect()
}

/// The metrics object of a result: every end-to-end metric untraced,
/// every per-layer metric traced. `prefix` namespaces the names when
/// several workloads share one object.
pub fn metrics_json(p: &Pool, traced: bool, prefix: &str, into: &mut Vec<(String, JsonValue)>) {
    let (specs, values) = if traced {
        (PER_LAYER, per_layer(p))
    } else {
        (END_TO_END, end_to_end(p))
    };
    for (spec, value) in specs.iter().zip(values) {
        into.push((
            format!("{prefix}{}", spec.name),
            JsonValue::Object(vec![
                ("value".into(), JsonValue::Number(value)),
                ("unit".into(), spec.unit.into()),
            ]),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn listed(doc: &JsonValue, section: &str) -> Vec<(String, String, String)> {
        doc.get(section)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let f = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (f("name"), f("unit"), f("better"))
            })
            .collect()
    }

    /// The printed JSON names exactly the metrics and workloads
    /// `BENCHMARK.json` declares, with the same units and directions.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = neve_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let pool = Pool {
            op_ms: vec![vec![1.0, 2.0]],
            wall_s: vec![1.0],
            ..Pool::default()
        };
        for (section, specs, traced) in [
            ("end_to_end", END_TO_END, false),
            ("per_layer", PER_LAYER, true),
        ] {
            let mut printed = Vec::new();
            metrics_json(&pool, traced, "", &mut printed);
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.get("unit").and_then(JsonValue::as_str).unwrap().into(),
                    )
                })
                .collect();
            let want = listed(&doc, section);
            let names_units: Vec<(String, String)> = want
                .iter()
                .map(|(n, u, _)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(printed, names_units, "{section}");
            for (spec, (_, _, better)) in specs.iter().zip(&want) {
                assert_eq!(spec.better, better, "{}", spec.name);
            }
        }
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(spec.name.len() <= 64);
            assert!(spec.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(spec.better == "lower" || spec.better == "higher");
        }
    }

    #[test]
    fn a_noisy_round_does_not_move_the_end_to_end_values() {
        let quiet: Vec<f64> = (1..=100).map(f64::from).collect();
        let noisy: Vec<f64> = quiet.iter().map(|x| x * 3.0).collect();
        let pool = Pool {
            setup_s: vec![0.1, 0.9, 0.1],
            wall_s: vec![5.0, 15.0, 5.0],
            op_ms: vec![quiet.clone(), noisy, quiet],
            rss_kb: 2048,
            ..Pool::default()
        };
        assert_eq!(end_to_end(&pool), [0.1, 50.0, 90.0, 20.0, 2.0]);
    }

    #[test]
    fn per_layer_ratios_are_taken_after_pooling() {
        let mut pool = Pool::default();
        pool.rec.add("traced_ops", 2.0);
        pool.rec.add("kvmarm.exits", 10.0);
        pool.rec.add("kvmarm.exit_ns", 5000.0);
        pool.rec.add("memsim.tlb_hits", 3.0);
        pool.rec.add("memsim.tlb_misses", 1.0);
        let v = per_layer(&pool);
        let get = |name| v[PER_LAYER.iter().position(|m| m.name == name).unwrap()];
        assert_eq!(get("kvmarm.exits"), 5.0);
        assert_eq!(get("kvmarm.exit_ns"), 500.0);
        assert_eq!(get("memsim.tlb_hit_ratio"), 0.75);
        assert_eq!(get("armv8.step_ns"), 0.0, "an unreached layer reads 0");
    }
}
