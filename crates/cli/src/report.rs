//! The paper's reports: Tables 1/6/7 and Figure 2 printed next to the
//! published values (`neve tables`, `neve figure2`), and their JSON/CSV
//! export (`neve export`). Each measures the shared evaluation matrix
//! afresh; `neve export` also writes it to `results/micro_matrix.json`.

use crate::args;
use neve_cycles::CostModel;
use neve_json::JsonValue;
use neve_workloads::cache::{self, CACHE_PATH};
use neve_workloads::par::default_jobs;
use neve_workloads::platforms::{Config, MicroMatrix, PerOpSer};
use neve_workloads::{apps, provenance, tables};
use std::fmt::Write as _;
use std::fs;

/// The paper's published values, printed beside the measured tables.
mod paper {
    /// Table 1 cycle counts: (benchmark, ARM VM, v8.3 nested, v8.3
    /// nested VHE, x86 VM, x86 nested).
    pub const TABLE1: [(&str, u64, u64, u64, u64, u64); 4] = [
        ("Hypercall", 2_729, 422_720, 307_363, 1_188, 36_345),
        ("Device I/O", 3_534, 436_924, 312_148, 2_307, 39_108),
        ("Virtual IPI", 8_364, 611_686, 494_765, 2_751, 45_360),
        ("Virtual EOI", 71, 71, 71, 316, 316),
    ];

    /// Table 6 cycle counts: (benchmark, v8.3, v8.3 VHE, NEVE, NEVE
    /// VHE, x86 nested).
    pub const TABLE6: [(&str, u64, u64, u64, u64, u64); 4] = [
        ("Hypercall", 422_720, 307_363, 92_385, 100_895, 36_345),
        ("Device I/O", 436_924, 312_148, 96_002, 105_071, 39_108),
        ("Virtual IPI", 611_686, 494_765, 184_657, 213_256, 45_360),
        ("Virtual EOI", 71, 71, 71, 71, 316),
    ];

    /// Table 7 trap counts: (benchmark, v8.3, v8.3 VHE, NEVE, NEVE VHE,
    /// x86 nested).
    pub const TABLE7: [(&str, u64, u64, u64, u64, u64); 4] = [
        ("Hypercall", 126, 82, 15, 15, 5),
        ("Device I/O", 128, 82, 15, 15, 5),
        ("Virtual IPI", 261, 172, 37, 38, 9),
        ("Virtual EOI", 0, 0, 0, 0, 0),
    ];
}

/// Measures the shared evaluation matrix for the report commands on
/// `--jobs` worker threads (default: available cores).
pub(crate) fn matrix(p: &args::Parsed) -> Result<MicroMatrix, String> {
    let jobs = p.get_u64("jobs", default_jobs() as u64)?.max(1) as usize;
    Ok(MicroMatrix::measure_parallel(jobs))
}

/// Renders the failed cells of a partial matrix and produces the
/// non-zero-exit error the report commands end with. Partial results
/// are still printed before this runs — a faulted cell
/// degrades the report, it does not discard it.
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

/// Tables 1, 6 and 7 (`neve tables`), each followed by the paper's
/// values and its headline ratio; Table 7 adds the per-config trap-kind
/// breakdown and the world-switch phase attribution behind the counts.
pub(crate) fn tables_cmd(p: &args::Parsed) -> Result<(), String> {
    let m = matrix(p)?;

    println!("Table 1: Microbenchmark Cycle Counts (measured | paper)");
    let rows = tables::table1(&m);
    println!("{}", tables::render(&rows));
    println!("Paper reference:");
    for (name, a, b, c, d, e) in paper::TABLE1 {
        println!(
            "  {name:<12} ARM VM={a:>7} v8.3={b:>7} v8.3-VHE={c:>7} x86 VM={d:>6} x86N={e:>6}"
        );
    }
    // The headline: ARM nested overhead is an order of magnitude worse
    // than x86 in relative terms (Section 5).
    let (arm_rel, x86_rel) = (rows[0].cells[1].mult, rows[0].cells[4].mult);
    println!();
    println!(
        "ARM v8.3 nested/VM = {arm_rel:.0}x vs x86 nested/VM = {x86_rel:.0}x (paper: 155x vs 31x)"
    );

    println!("\nTable 6: Microbenchmark Cycle Counts with NEVE (measured | paper)");
    let rows = tables::table6(&m);
    println!("{}", tables::render(&rows));
    println!("Paper reference:");
    for (name, a, b, c, d, e) in paper::TABLE6 {
        println!(
            "  {name:<12} v8.3={a:>7} v8.3-VHE={b:>7} NEVE={c:>7} NEVE-VHE={d:>7} x86N={e:>6}"
        );
    }
    println!();
    println!(
        "NEVE speedup over ARMv8.3 (hypercall): {:.1}x (paper: ~4.6x, \"up to 5 times\")",
        rows[0].cells[0].value as f64 / rows[0].cells[2].value.max(1) as f64
    );

    println!("\nTable 7: Microbenchmark Average Trap Counts (measured | paper)");
    let rows = tables::table7(&m);
    println!("{}", tables::render(&rows));
    println!("Trap-kind breakdown (total traps across the four benchmarks):");
    for c in Config::all() {
        let parts: Vec<String> = m
            .trap_kinds(c)
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        let line = if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(" ")
        };
        println!("  {:<22} {line}", c.label());
    }
    println!();
    println!("World-switch phase attribution (the provenance behind the counts;");
    println!("same breakdown as `neve trace <config> <bench>`):");
    for c in [Config::ArmNestedV83, Config::ArmNestedNeve] {
        println!("  {}:", c.label());
        for line in provenance::render_phases(&m.phases(c)).lines() {
            println!("    {line}");
        }
    }
    println!();
    println!("Paper reference:");
    for (name, a, b, c, d, e) in paper::TABLE7 {
        println!(
            "  {name:<12} v8.3={a:>4} v8.3-VHE={b:>4} NEVE={c:>3} NEVE-VHE={d:>3} x86N={e:>2}"
        );
    }
    println!();
    println!(
        "NEVE reduces hypercall traps {:.1}x vs ARMv8.3 (paper: \"more than six times\", 126 -> 15)",
        rows[0].cells[0].value as f64 / rows[0].cells[2].value.max(1) as f64
    );
    if m.has_failures() {
        return Err(failure_report(&m));
    }
    Ok(())
}

/// Figure 2 (`neve figure2`) with the paper's landmarks, and with
/// `--explain WORKLOAD` the per-event composition of one workload's
/// overhead.
pub(crate) fn figure2_cmd(p: &args::Parsed) -> Result<(), String> {
    let m = matrix(p)?;
    println!("Per-event costs are the measured Table 6 values; see DESIGN.md for the model.");
    println!();
    println!("{}", apps::render(&apps::figure2(&m)));
    println!("Paper landmarks: Memcached >40x on ARMv8.3 vs <3x NEVE vs 8x x86;");
    println!("Hackbench 15x non-VHE / 11x VHE; kernbench 1.33x/1.26x; NEVE beats x86 on");
    println!("TCP_MAERTS, Nginx, Memcached and MySQL (Section 7.2).");
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
        for c in Config::all() {
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

/// Exports every regenerated result (`neve export`): the
/// microbenchmark matrix and Figure 2 as `results/neve_results.json`,
/// Figure 2 as `results/figure2.csv`, for downstream plotting, and the
/// matrix in its own schema as `results/micro_matrix.json`, which
/// `neve serve`'s disk tier answers from. The per-config provenance
/// block (`trap_kinds` + `phases`) is rendered by the same
/// [`provenance`] helper the matrix file and `neve trace --json` use,
/// so the three exports share one schema.
pub(crate) fn export_cmd(p: &args::Parsed) -> Result<(), String> {
    fs::create_dir_all("results").map_err(|e| format!("cannot create results/: {e}"))?;
    let m = matrix(p)?;

    let per_op = |p: PerOpSer| {
        JsonValue::Object(vec![
            ("cycles".into(), JsonValue::from(p.cycles)),
            ("traps".into(), JsonValue::from(p.traps)),
        ])
    };
    let micro = Config::all()
        .into_iter()
        .map(|c| {
            let costs = m.costs(c);
            let mut body = vec![
                ("hypercall".into(), per_op(costs.hypercall)),
                ("device_io".into(), per_op(costs.device_io)),
                ("virtual_ipi".into(), per_op(costs.virtual_ipi)),
                ("virtual_eoi".into(), per_op(costs.virtual_eoi)),
            ];
            body.extend(provenance::json_fields(&m.trap_kinds(c), &m.phases(c)));
            (c.label().to_string(), JsonValue::Object(body))
        })
        .collect();

    let rows = apps::figure2(&m);
    let figure2 = rows
        .iter()
        .map(|r| {
            let cells = r
                .overheads
                .iter()
                // Round to four decimals so the export diffs cleanly.
                .map(|(c, o)| {
                    let rounded = (o * 10_000.0).round() / 10_000.0;
                    (c.label().to_string(), JsonValue::from(rounded))
                })
                .collect();
            (r.name.to_string(), JsonValue::Object(cells))
        })
        .collect();

    let doc = JsonValue::Object(vec![
        ("micro".into(), JsonValue::Object(micro)),
        ("figure2".into(), JsonValue::Object(figure2)),
    ]);
    let out = doc.pretty();
    fs::write("results/neve_results.json", &out)
        .map_err(|e| format!("cannot write results/neve_results.json: {e}"))?;
    println!("Wrote results/neve_results.json ({} bytes).", out.len());

    // A CSV of Figure 2 for spreadsheet users.
    let mut csv = String::from("workload");
    for c in Config::all() {
        let _ = write!(csv, ",{}", c.label());
    }
    csv.push('\n');
    for r in &rows {
        let _ = write!(csv, "{}", r.name);
        for (_, o) in &r.overheads {
            let _ = write!(csv, ",{o:.4}");
        }
        csv.push('\n');
    }
    fs::write("results/figure2.csv", &csv)
        .map_err(|e| format!("cannot write results/figure2.csv: {e}"))?;
    println!("Wrote results/figure2.csv.");

    let matrix = cache::to_json(&m, CostModel::default().fingerprint());
    cache::write_atomically(std::path::Path::new(CACHE_PATH), &matrix)
        .map_err(|e| format!("cannot write {CACHE_PATH}: {e}"))?;
    println!("Wrote {CACHE_PATH}.");
    if m.has_failures() {
        return Err(format!(
            "{} matrix cell(s) failed to measure; the export contains zero placeholders",
            m.failed_cells()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_have_four_rows() {
        // The three tables name the same benchmarks in the same order,
        // the order `tables::render` prints its rows in.
        let names = |t: &[(&str, u64, u64, u64, u64, u64)]| -> Vec<String> {
            t.iter().map(|r| r.0.to_string()).collect()
        };
        let want = vec!["Hypercall", "Device I/O", "Virtual IPI", "Virtual EOI"];
        assert_eq!(names(&paper::TABLE1), want);
        assert_eq!(names(&paper::TABLE6), want);
        assert_eq!(names(&paper::TABLE7), want);
    }
}
