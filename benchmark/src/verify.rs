//! `verify`: the observer paths CI runs on every commit — a fuzzing
//! campaign, a fault-injection campaign and the oracle checks. They
//! force the reference interpreter and exercise snapshot/restore, fault
//! hooks and the invariant checker; the micro-op engine does no work.

use crate::grid::{check_md5, MATRIX_MD5};
use crate::record::Record;
use crate::rng::SplitMix;
use crate::trace::Tracer;
use crate::{ClosedLoop, OpError};
use neve_cycles::CostModel;
use neve_workloads::{cache, run_campaign, run_checks, run_fuzz};
use neve_workloads::{CampaignSpec, FuzzSpec, MicroMatrix};
use std::collections::BTreeMap;
use std::time::Instant;

/// First-round fuzz cases per op.
const FUZZ_CASES: usize = 64;

/// Entries of the smoke fault campaign: 2 configurations x 2 benches x
/// 3 plans.
const SMOKE_ENTRIES: usize = 12;

/// The campaigns' seeds. A campaign's cost depends on its seed (how
/// many findings it minimizes), and eight seeds drawn per run made the
/// median op vary by 20% between runs; a fixed set, in an order the
/// benchmark seed permutes, makes every run do the same work. Each seed
/// recurs every eight ops, so its reports can be compared.
const SEEDS: [u64; 8] = [2017, 2018, 2019, 2020, 2021, 2022, 2023, 2024];

/// The verify workload of one round.
pub struct Verify {
    /// Op `i` runs both campaigns with `SEEDS[order[i % 8]]`.
    order: Vec<usize>,
    /// The checks run against the real matrix, measured at set-up.
    matrix: MicroMatrix,
    /// First report seen per (campaign, seed).
    renders: BTreeMap<(&'static str, u64), String>,
}

impl Verify {
    /// Sets up a round: measures the matrix the oracle checks read.
    pub fn new(seed: u64, round: u64) -> Result<Self, String> {
        let matrix = MicroMatrix::measure();
        let json = cache::to_json(&matrix, CostModel::default().fingerprint());
        check_md5("verify matrix", &json, MATRIX_MD5).map_err(|e| e.to_string())?;
        Ok(Self {
            order: SplitMix::new(seed, round).permutation(SEEDS.len()),
            matrix,
            renders: BTreeMap::new(),
        })
    }

    /// A campaign report must read the same every time its seed runs.
    fn same_as_before(
        &mut self,
        campaign: &'static str,
        seed: u64,
        text: String,
    ) -> Result<(), OpError> {
        let first = self
            .renders
            .entry((campaign, seed))
            .or_insert_with(|| text.clone());
        if *first == text {
            Ok(())
        } else {
            Err(OpError::Wrong(format!(
                "{campaign} seed {seed:#x} rendered a different report:\n{text}"
            )))
        }
    }
}

impl ClosedLoop for Verify {
    fn op(
        &mut self,
        i: u64,
        mut tracer: Option<&mut Tracer>,
        rec: &mut Record,
    ) -> Result<(), OpError> {
        let op = tracer.as_deref_mut().map(|t| t.open("verify.op", i, None));
        let wrong = OpError::Wrong;

        let seed = SEEDS[self.order[i as usize % SEEDS.len()]];
        let t0 = Instant::now();
        let fuzz = run_fuzz(&FuzzSpec {
            seed,
            cases: FUZZ_CASES,
            jobs: 1,
            corpus_dir: None,
        })
        .map_err(wrong)?;
        let t1 = Instant::now();
        self.same_as_before("fuzz", seed, fuzz.render())?;

        let campaign = run_campaign(&CampaignSpec {
            seed,
            smoke: true,
            jobs: 1,
            ..CampaignSpec::default()
        })
        .map_err(wrong)?;
        let t2 = Instant::now();
        // Mis-measured entries are the campaign's findings (every seed
        // has some), not failures: the campaign must finish its whole
        // grid and report the same findings every time.
        if campaign.truncated || campaign.entries.len() != SMOKE_ENTRIES {
            return Err(wrong(format!(
                "fault campaign incomplete:\n{}",
                campaign.render()
            )));
        }
        self.same_as_before("faults", seed, campaign.render())?;

        let oracle = run_checks(&self.matrix, true);
        let t3 = Instant::now();
        if !oracle.is_clean() {
            return Err(wrong(format!("oracle checks failed:\n{}", oracle.render())));
        }

        if let (Some(t), Some(op)) = (tracer, op) {
            for (name, span) in [
                ("workloads.fuzz", (t0, t1)),
                ("workloads.faults", (t1, t2)),
                ("workloads.oracle", (t2, t3)),
            ] {
                t.record(name, i, Some(op), span, String::new(), vec![]);
                rec.add(&format!("{name}_ns"), (span.1 - span.0).as_nanos() as f64);
            }
            t.close(op);
            let cases = fuzz.generated + fuzz.mutated + fuzz.injected + fuzz.guided_mutants;
            rec.add("workloads.fuzz_cases", cases as f64);
            rec.add("workloads.fuzz_coverage", fuzz.coverage.len() as f64);
            rec.add("workloads.faults_entries", campaign.entries.len() as f64);
        }
        Ok(())
    }
}
