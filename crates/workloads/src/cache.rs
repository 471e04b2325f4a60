//! Persistent results cache for the evaluation matrix.
//!
//! Measuring the full matrix means simulating 28 testbeds; the report
//! subcommands (`neve tables`, `neve figure2`, `neve export`,
//! `neve check`) all need the same data. The cache lets them measure once and share: the matrix is
//! written to `results/micro_matrix.json`, keyed by the
//! [`CostModel`](neve_cycles::CostModel) fingerprint, and later runs
//! load it instead of re-measuring.
//!
//! Staleness safety: a cache whose fingerprint does not match the
//! *current* cost model is ignored and overwritten — edit any
//! calibrated constant and every number is re-measured. A corrupt or
//! truncated file is likewise ignored, never trusted.

use crate::platforms::{Config, MicroCosts, MicroMatrix, PerOpSer, PhaseStat};
use neve_cycles::CostModel;
use neve_json::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// Default cache location, relative to the working directory (next to
/// `neve export`'s outputs).
pub const CACHE_PATH: &str = "results/micro_matrix.json";

/// Where a matrix came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixSource {
    /// Loaded from a valid cache file.
    Cache,
    /// Freshly measured (no cache, stale fingerprint, or `--no-cache`).
    Measured,
    /// Freshly measured after quarantining a corrupt cache file to
    /// `<path>.<pid>.<seq>.corrupt` (truncated write, bit rot, or hand
    /// editing).
    Quarantined,
}

/// What a read of the cache file found.
enum CacheRead {
    /// Valid for the current cost model.
    Valid(MicroMatrix),
    /// Missing or unreadable: nothing to distrust, just measure.
    Absent,
    /// Readable and parseable, but for a different cost model or an
    /// older schema: the normal staleness rule, overwrite in place.
    Stale,
    /// Not even parseable JSON (or the fingerprint itself is mangled):
    /// quarantine the file before overwriting so the evidence survives.
    Corrupt,
}

fn read_cache(path: &Path, fingerprint: u64) -> CacheRead {
    let Ok(text) = std::fs::read_to_string(path) else {
        return CacheRead::Absent;
    };
    let Ok(doc) = neve_json::parse(&text) else {
        return CacheRead::Corrupt;
    };
    // A document whose fingerprint is absent or malformed was not
    // written by this code: corrupt, not merely stale.
    let fp = doc
        .get("fingerprint")
        .and_then(|v| v.as_str())
        .and_then(|s| s.strip_prefix("0x"))
        .and_then(|s| u64::from_str_radix(s, 16).ok());
    let Some(fp) = fp else {
        return CacheRead::Corrupt;
    };
    if fp != fingerprint {
        return CacheRead::Stale;
    }
    match from_json(&text, fingerprint) {
        Some(m) => CacheRead::Valid(m),
        None => CacheRead::Stale,
    }
}

/// Loads the matrix from `CACHE_PATH` if it is valid for the current
/// cost model; otherwise measures across `jobs` threads and writes the
/// cache back. With `use_cache` false, always re-measures (still
/// refreshing the file, so later cached runs agree with this one).
pub fn load_or_measure(jobs: usize, use_cache: bool) -> (MicroMatrix, MatrixSource) {
    load_or_measure_at(Path::new(CACHE_PATH), jobs, use_cache)
}

/// [`load_or_measure`] against an explicit path (tests use a temp dir).
pub fn load_or_measure_at(
    path: &Path,
    jobs: usize,
    use_cache: bool,
) -> (MicroMatrix, MatrixSource) {
    let fingerprint = CostModel::default().fingerprint();
    let mut source = MatrixSource::Measured;
    if use_cache {
        match read_cache(path, fingerprint) {
            CacheRead::Valid(m) => return (m, MatrixSource::Cache),
            CacheRead::Corrupt => {
                // Keep the damaged bytes for post-mortem instead of
                // silently overwriting them; a failed rename (another
                // process won the race, exotic permissions) still
                // falls through to a re-measure.
                quarantine_corrupt(path);
                source = MatrixSource::Quarantined;
            }
            CacheRead::Absent | CacheRead::Stale => {}
        }
    }
    let m = MicroMatrix::measure_parallel(jobs);
    // Failing to persist is not fatal (read-only checkout, missing
    // permissions): the caller still gets fresh numbers.
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    // Atomic replace: two report processes racing must never leave a
    // torn file for a third to read. Write a process-unique temp file
    // in the same directory (rename is only atomic within one
    // filesystem), then rename into place.
    let _ = write_atomically(path, &to_json(&m, fingerprint));
    (m, source)
}

/// Moves a corrupt cache file aside as
/// `<file>.<pid>.<seq>.corrupt` so the damaged bytes survive for
/// post-mortem. The name is process-unique (pid) *and* call-unique
/// (an in-process counter), mirroring the temp-file write path: two
/// processes — or two threads — that both find the same corrupt file
/// each rename toward a different target, so the race is only over
/// the source. `rename(2)` is atomic there: exactly one caller wins
/// the bytes, the losers get a failed rename and simply re-measure.
///
/// Returns the quarantine path if this caller won, `None` if the file
/// was already gone (or undeletable).
pub fn quarantine_corrupt(path: &Path) -> Option<std::path::PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut quarantine = path.to_path_buf();
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("cache");
    quarantine.set_file_name(format!("{name}.{}.{seq}.corrupt", std::process::id()));
    std::fs::rename(path, &quarantine).ok().map(|_| quarantine)
}

/// Atomically replaces `path` with `contents` (same-directory temp
/// file + rename); shared by the matrix cache and the throughput
/// report writer.
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

    /// All `*.corrupt` quarantine files in `dir`, with their contents.
    fn quarantine_files(dir: &Path) -> Vec<(std::path::PathBuf, String)> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let p = entry.unwrap().path();
            if p.to_str().is_some_and(|s| s.ends_with(".corrupt")) {
                let text = std::fs::read_to_string(&p).unwrap();
                found.push((p, text));
            }
        }
        found
    }

    #[test]
    fn corrupt_cache_is_quarantined_and_remeasured() {
        // A garbage cache file must be moved aside as `*.corrupt`, a
        // fresh measurement written in its place, and the rewritten
        // cache must then load cleanly under the same fingerprint.
        let dir =
            std::env::temp_dir().join(format!("neve-cache-test-{}-single", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("micro_matrix.json");
        std::fs::write(&path, "{ not json at all").unwrap();

        let (m, source) = load_or_measure_at(&path, 4, true);
        assert_eq!(source, MatrixSource::Quarantined);
        let quarantined = quarantine_files(&dir);
        assert_eq!(quarantined.len(), 1, "{quarantined:?}");
        assert_eq!(
            quarantined[0].1, "{ not json at all",
            "the damaged bytes must survive for post-mortem"
        );
        let name = quarantined[0].0.file_name().unwrap().to_str().unwrap();
        assert!(
            name.starts_with(&format!("micro_matrix.json.{}.", std::process::id())),
            "quarantine name must be process-unique: {name}"
        );

        let (again, source2) = load_or_measure_at(&path, 4, true);
        assert_eq!(source2, MatrixSource::Cache);
        assert_eq!(again, m, "re-measured cache must load back identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The satellite bugfix's regression test: two concurrent actors
    /// that both find the same corrupt cache race on the quarantine.
    /// With process/call-unique targets, `rename(2)` atomicity on the
    /// shared *source* guarantees exactly one winner; the loser's
    /// rename fails cleanly and it just re-measures — the damaged
    /// bytes are never lost and never duplicated.
    #[test]
    fn concurrent_corruption_quarantine_has_exactly_one_winner() {
        let dir = std::env::temp_dir().join(format!("neve-cache-test-{}-race", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("micro_matrix.json");

        for round in 0..8 {
            std::fs::write(&path, format!("{{ corrupt round {round}")).unwrap();
            let barrier = std::sync::Barrier::new(2);
            let (a, b) = std::thread::scope(|s| {
                let h1 = s.spawn(|| {
                    barrier.wait();
                    quarantine_corrupt(&path)
                });
                let h2 = s.spawn(|| {
                    barrier.wait();
                    quarantine_corrupt(&path)
                });
                (h1.join().unwrap(), h2.join().unwrap())
            });
            assert!(
                a.is_some() ^ b.is_some(),
                "exactly one racer must win the bytes: {a:?} vs {b:?}"
            );
            let winner = a.or(b).unwrap();
            assert_eq!(
                std::fs::read_to_string(&winner).unwrap(),
                format!("{{ corrupt round {round}"),
                "the winner holds the intact damaged bytes"
            );
            assert!(!path.exists(), "the corrupt original must be gone");
        }
        // Every round quarantined under a distinct name: nothing was
        // overwritten across rounds.
        assert_eq!(quarantine_files(&dir).len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
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
