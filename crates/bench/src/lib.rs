//! Benchmark harness: regenerates every table and figure of the NEVE
//! paper from the simulated stacks, printing measured values next to
//! the paper's published ones.
//!
//! Binaries (one per experiment; see DESIGN.md's experiment index):
//!
//! - `table1` — microbenchmark cycle counts, ARMv8.3 + x86.
//! - `table6` — cycle counts including NEVE, with overhead multipliers.
//! - `table7` — average trap counts.
//! - `figure2` — normalized application-workload overheads.
//! - `trapcost` — the Section 5 trap-cost validation study.
//! - `ablation_paravirt` — paravirtualized-v8.0 vs native-v8.3/v8.4
//!   equivalence (the paper's methodology validation).
//! - `ablation_neve` — NEVE mechanism breakdown (defer / redirect /
//!   cached copies).
//! - `ablation_vmcs` — VMCS shadowing on/off (Section 8).

use neve_cycles::counter::PerOp;
use neve_workloads::cache::{self, MatrixSource};
use neve_workloads::platforms::MicroMatrix;

/// Resolves the shared evaluation matrix for the table/figure binaries:
/// a cache hit against `results/micro_matrix.json` when it matches the
/// current cost model, a parallel re-measurement otherwise. Honors
/// `--jobs N` and `--no-cache` on the binary's command line so every
/// bin shares the `neve` CLI's surface.
pub fn shared_matrix() -> MicroMatrix {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = neve_workloads::par::default_jobs();
    let mut use_cache = true;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-cache" => use_cache = false,
            "--jobs" => {
                let v = it.next().and_then(|v| v.parse().ok());
                jobs = v.unwrap_or_else(|| {
                    eprintln!("--jobs needs a positive number");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument `{other}` (accepted: --jobs N, --no-cache)");
                std::process::exit(2);
            }
        }
    }
    let (m, source) = cache::load_or_measure(jobs.max(1), use_cache);
    match source {
        MatrixSource::Cache => println!(
            "Loaded measurements from {} (--no-cache to refresh).\n",
            cache::CACHE_PATH
        ),
        MatrixSource::Measured => println!(
            "Measured every configuration ({jobs} worker threads); cached at {}.\n",
            cache::CACHE_PATH
        ),
        MatrixSource::Quarantined => println!(
            "Cache was corrupt; quarantined to {}.corrupt and re-measured \
             every configuration ({jobs} worker threads).\n",
            cache::CACHE_PATH
        ),
    }
    if m.has_failures() {
        println!(
            "WARNING: {} cell(s) failed to measure; failed rows print as 0 \
             and are marked below.\n",
            m.failed_cells()
        );
    }
    m
}

/// The paper's published values for side-by-side printing.
pub mod paper {
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

    /// Section 5's measured primitives: trap EL1->EL2 in cycles
    /// (range), return cost.
    pub const TRAP_ENTER_RANGE: (u64, u64) = (68, 76);
    /// Trap return cost.
    pub const TRAP_RETURN: u64 = 65;
}

/// Formats a measured-vs-paper cell.
pub fn cell(measured: u64, paper: u64) -> String {
    if paper == 0 {
        format!("{measured} (paper 0)")
    } else {
        format!(
            "{measured} (paper {paper}, {:.2}x)",
            measured as f64 / paper as f64
        )
    }
}

/// Formats a [`PerOp`] with its trap count.
pub fn perop(p: PerOp) -> String {
    format!("{} cycles, {:.1} traps", p.cycles, p.traps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_have_four_rows() {
        assert_eq!(paper::TABLE1.len(), 4);
        assert_eq!(paper::TABLE6.len(), 4);
        assert_eq!(paper::TABLE7.len(), 4);
    }

    #[test]
    fn cell_formats_ratio() {
        let s = cell(200, 100);
        assert!(s.contains("2.00x"), "{s}");
        assert!(cell(5, 0).contains("paper 0"));
    }
}
