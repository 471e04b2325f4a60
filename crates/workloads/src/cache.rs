//! The evaluation matrix's JSON schema and its file,
//! `results/micro_matrix.json`.
//!
//! [`to_json`] is the one matrix serializer: `neve export` writes the
//! file with it, `neve serve` streams it in `done` events, and the host
//! benchmark digests it. The report commands do not read the file; they
//! re-measure the 28 cells on every run (a few tens of ms). Two readers
//! remain, and both go through [`from_json`], which rejects a document
//! measured under another cost model: `neve serve`'s disk tier, and
//! `neve bench-sim --smoke`, which compares a fresh grid to the file.

use crate::platforms::{Config, MicroCosts, MicroMatrix, PerOpSer, PhaseStat};
use neve_json::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// The matrix file, relative to the working directory (next to
/// `neve export`'s other outputs).
pub const CACHE_PATH: &str = "results/micro_matrix.json";

/// Atomically replaces `path` with `contents` (same-directory temp
/// file + rename), so a concurrent reader never sees a torn file.
/// Shared by every writer under `results/`.
///
/// # Errors
///
/// Any I/O error from the write or the rename (the temp file is
/// cleaned up on a failed rename).
pub fn write_atomically(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.to_path_buf();
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("cache");
    tmp.set_file_name(format!(".{name}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Serializes `m` (with the cost-model `fingerprint` it was measured
/// under) to the cache's JSON schema.
pub fn to_json(m: &MicroMatrix, fingerprint: u64) -> String {
    let per_op = |p: PerOpSer| {
        JsonValue::Object(vec![
            ("cycles".into(), JsonValue::from(p.cycles)),
            ("traps".into(), JsonValue::from(p.traps)),
        ])
    };
    let configs = m
        .configs()
        .map(|c| {
            let costs = m.costs(c);
            let mut body = vec![
                ("hypercall".into(), per_op(costs.hypercall)),
                ("device_io".into(), per_op(costs.device_io)),
                ("virtual_ipi".into(), per_op(costs.virtual_ipi)),
                ("virtual_eoi".into(), per_op(costs.virtual_eoi)),
            ];
            body.extend(crate::provenance::json_fields(
                &m.trap_kinds(c),
                &m.phases(c),
            ));
            (c.label().to_string(), JsonValue::Object(body))
        })
        .collect();
    let mut top = vec![
        // Hex string, not a JSON number: the fingerprint uses all 64
        // bits and would lose precision through an f64 number.
        (
            "fingerprint".into(),
            JsonValue::String(format!("{fingerprint:#018x}")),
        ),
        ("configs".into(), JsonValue::Object(configs)),
    ];
    // Failures are an optional schema element: a clean matrix writes no
    // key at all, so pre-fault-harness readers and byte-for-byte cache
    // comparisons are unaffected.
    if m.has_failures() {
        let failures = m
            .all_failures()
            .iter()
            .map(|(c, cells)| {
                (
                    c.label().to_string(),
                    JsonValue::Object(
                        cells
                            .iter()
                            .map(|(b, why)| (b.clone(), JsonValue::String(why.clone())))
                            .collect(),
                    ),
                )
            })
            .collect();
        top.push(("failures".into(), JsonValue::Object(failures)));
    }
    JsonValue::Object(top).pretty()
}

/// Parses a cache document; `None` if it is malformed, incomplete, or
/// was measured under a different cost model than `expect_fingerprint`.
pub fn from_json(text: &str, expect_fingerprint: u64) -> Option<MicroMatrix> {
    let doc = neve_json::parse(text).ok()?;
    let fp = doc.get("fingerprint")?.as_str()?;
    let fp = u64::from_str_radix(fp.strip_prefix("0x")?, 16).ok()?;
    if fp != expect_fingerprint {
        return None;
    }
    let per_op = |v: &JsonValue| -> Option<PerOpSer> {
        Some(PerOpSer {
            cycles: v.get("cycles")?.as_u64()?,
            traps: v.get("traps")?.as_f64()?,
        })
    };
    let mut results = BTreeMap::new();
    let mut trap_kinds = BTreeMap::new();
    let mut phases = BTreeMap::new();
    for (label, body) in doc.get("configs")?.as_object()? {
        let c = Config::from_label(label)?;
        results.insert(
            c,
            MicroCosts {
                hypercall: per_op(body.get("hypercall")?)?,
                device_io: per_op(body.get("device_io")?)?,
                virtual_ipi: per_op(body.get("virtual_ipi")?)?,
                virtual_eoi: per_op(body.get("virtual_eoi")?)?,
            },
        );
        let mut kinds = BTreeMap::new();
        for (k, v) in body.get("trap_kinds")?.as_object()? {
            kinds.insert(k.clone(), v.as_u64()?);
        }
        trap_kinds.insert(c, kinds);
        // The per-phase breakdown is a required schema element: a cache
        // from before the provenance layer fails here and is re-measured
        // (the usual staleness rule, not an error).
        let mut stats = BTreeMap::new();
        for (p, v) in body.get("phases")?.as_object()? {
            stats.insert(
                p.clone(),
                PhaseStat {
                    cycles: v.get("cycles")?.as_u64()?,
                    traps: v.get("traps")?.as_u64()?,
                },
            );
        }
        phases.insert(c, stats);
    }
    // A cache missing any configuration is unusable: consumers index
    // the matrix by every `Config`.
    if Config::all().iter().any(|c| !results.contains_key(c)) {
        return None;
    }
    // Failures are optional (absent for clean matrices, so a measured
    // matrix compares equal to its own cache round trip).
    let mut failures = BTreeMap::new();
    if let Some(f) = doc.get("failures") {
        for (label, cells) in f.as_object()? {
            let c = Config::from_label(label)?;
            let mut per_bench = BTreeMap::new();
            for (b, why) in cells.as_object()? {
                per_bench.insert(b.clone(), why.as_str()?.to_string());
            }
            failures.insert(c, per_bench);
        }
    }
    Some(MicroMatrix::from_parts(
        results, trap_kinds, phases, failures,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> MicroMatrix {
        let p = |cycles, traps| PerOpSer { cycles, traps };
        let costs = |k: u64| MicroCosts {
            hypercall: p(100 * k, 1.0),
            device_io: p(200 * k, 2.0),
            virtual_ipi: p(300 * k, 2.5),
            virtual_eoi: p(70, 0.0),
        };
        let results = Config::all()
            .into_iter()
            .enumerate()
            .map(|(i, c)| (c, costs(i as u64 + 1)))
            .collect();
        let trap_kinds = Config::all()
            .into_iter()
            .map(|c| (c, BTreeMap::from([("Hvc".to_string(), 24u64)])))
            .collect();
        let phases = Config::all()
            .into_iter()
            .map(|c| {
                (
                    c,
                    BTreeMap::from([
                        (
                            "guest".to_string(),
                            PhaseStat {
                                cycles: 9000,
                                traps: 0,
                            },
                        ),
                        (
                            "eret_emul".to_string(),
                            PhaseStat {
                                cycles: 1200,
                                traps: 24,
                            },
                        ),
                    ]),
                )
            })
            .collect();
        MicroMatrix::from_parts(results, trap_kinds, phases, BTreeMap::new())
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let m = synthetic();
        let text = to_json(&m, 42);
        let back = from_json(&text, 42).expect("round trip");
        assert_eq!(back, m);
    }

    #[test]
    fn failures_survive_the_round_trip_only_when_present() {
        let clean = synthetic();
        assert!(!to_json(&clean, 42).contains("failures"));

        let mut failures = BTreeMap::new();
        failures.insert(
            Config::ArmNestedV83,
            BTreeMap::from([(
                "hypercall".to_string(),
                "step budget of 100 exhausted (pc=0x0 EL2 phase=guest steps=100)".to_string(),
            )]),
        );
        let results = Config::all()
            .into_iter()
            .map(|c| (c, clean.costs(c)))
            .collect();
        // The serializer emits (possibly empty) provenance maps per
        // config; mirror that so the round trip compares equal.
        let empty_kinds = Config::all()
            .into_iter()
            .map(|c| (c, BTreeMap::new()))
            .collect();
        let empty_phases = Config::all()
            .into_iter()
            .map(|c| (c, BTreeMap::new()))
            .collect();
        let failed = MicroMatrix::from_parts(results, empty_kinds, empty_phases, failures);
        assert!(failed.has_failures());
        assert_eq!(failed.failed_cells(), 1);
        let text = to_json(&failed, 42);
        assert!(text.contains("failures"));
        let back = from_json(&text, 42).expect("round trip");
        assert_eq!(back, failed);
    }

    #[test]
    fn fingerprint_mismatch_rejects_the_cache() {
        let text = to_json(&synthetic(), 42);
        assert!(from_json(&text, 43).is_none());
    }

    #[test]
    fn pre_provenance_schema_is_rejected() {
        // A cache written before the per-phase breakdown existed must
        // fail the load and trigger a clean re-measure.
        let text = to_json(&synthetic(), 42);
        let doc = neve_json::parse(&text).unwrap();
        let stripped = match doc {
            JsonValue::Object(top) => JsonValue::Object(
                top.into_iter()
                    .map(|(k, v)| {
                        if k != "configs" {
                            return (k, v);
                        }
                        let JsonValue::Object(cfgs) = v else {
                            unreachable!()
                        };
                        let cfgs = cfgs
                            .into_iter()
                            .map(|(label, body)| {
                                let JsonValue::Object(fields) = body else {
                                    unreachable!()
                                };
                                let fields =
                                    fields.into_iter().filter(|(f, _)| f != "phases").collect();
                                (label, JsonValue::Object(fields))
                            })
                            .collect();
                        (k, JsonValue::Object(cfgs))
                    })
                    .collect(),
            ),
            _ => unreachable!(),
        };
        assert!(from_json(&stripped.pretty(), 42).is_none());
    }

    #[test]
    fn garbage_and_truncation_are_rejected() {
        assert!(from_json("", 42).is_none());
        assert!(from_json("{\"fingerprint\": 42}", 42).is_none());
        let text = to_json(&synthetic(), 42);
        assert!(from_json(&text[..text.len() / 2], 42).is_none());
    }

    #[test]
    fn missing_config_rejects_the_cache() {
        let mut m = synthetic();
        // Rebuild without the last config.
        let mut results: BTreeMap<_, _> =
            Config::all().into_iter().map(|c| (c, m.costs(c))).collect();
        results.remove(&Config::X86Nested);
        m = MicroMatrix::from_results(results);
        let text = to_json(&m, 42);
        assert!(from_json(&text, 42).is_none());
    }
}
