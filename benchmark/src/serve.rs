//! `serve`: an open loop of single-cell requests at a fixed rate
//! against a one-worker `JobEngine`, the long-running engine behind
//! `neve serve`. Most requests name a fresh cell key and are simulated;
//! the rest repeat an earlier request exactly and are answered from the
//! engine's memory without simulating, so a simulator gain moves only
//! the fresh share while a queue or store change moves both.

use crate::grid::{cells, check_md5, MATRIX_MD5};
use crate::record::Record;
use crate::rng::SplitMix;
use crate::speed::Speed;
use crate::stats::median;
use crate::trace::Tracer;
use neve_cycles::CostModel;
use neve_json::JsonValue;
use neve_workloads::platforms::PerOpSer;
use neve_workloads::{cache, Bench, CellResult, Config, JobEngine, MicroMatrix, SimSession, Sink};
use neve_workloads::{JobKind, JobRequest};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests per second: about a third of what one worker sustains.
pub const RATE: f64 = 300.0;

/// Every block of `BLOCK` requests holds `REPEATS` repeats of earlier
/// requests (30%), at random places.
const BLOCK: usize = 10;
const REPEATS: usize = 3;

/// Fresh requests get step budgets from here up. Every cell retires far
/// fewer steps, so a distinct budget makes a distinct cell key for
/// identical work.
const FRESH_BUDGET: u64 = 1_000_000_000;

/// Budgets reserved per stream, so two streams never share a key.
const STREAM_BUDGETS: u64 = 10_000_000;

/// Direct runs per cell at set-up, for the cell's unqueued cost.
const DIRECT_RUNS: usize = 3;

/// The generator times the reference kernel (~0.26 ms) only when the
/// next request is at least this far off, so sampling never makes it
/// late.
const SAMPLE_IDLE: Duration = Duration::from_millis(1);

/// The generator sleeps until this long before a due time and spins
/// the rest: the OS's sleep overshoot (50-100 us on the dev host) would
/// otherwise be most of a memory hit's latency.
const SPIN: Duration = Duration::from_micros(200);

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Index into `grid::cells()`.
    pub cell: usize,
    /// Step budget; equal budgets on one cell are the same cell key.
    pub budget: u64,
    /// False when this request repeats an earlier one.
    pub fresh: bool,
}

/// The request stream: a pure function of its arguments. A repeat names
/// a uniformly chosen earlier request exactly; a fresh request names a
/// new key on a cell of configuration x benchmark. Both are dealt from
/// shuffled decks (`REPEATS` in each block of `BLOCK`; every cell once
/// per `ncells` fresh requests) rather than drawn independently, so
/// every seed yields the same mix in a different order, and the tail
/// latency, which the slow cells set, does not vary with the seed.
pub fn request_mix(seed: u64, stream: u64, n: usize, ncells: usize, first_budget: u64) -> Vec<Req> {
    let mut g = SplitMix::new(seed, stream);
    let mut out: Vec<Req> = Vec::with_capacity(n);
    let mut repeats: Vec<bool> = Vec::new();
    let mut cells: Vec<usize> = Vec::new();
    for i in 0..n {
        if repeats.is_empty() {
            repeats = g
                .permutation(BLOCK)
                .into_iter()
                .map(|k| k < REPEATS)
                .collect();
        }
        let repeat = repeats.pop() == Some(true);
        if repeat && i > 0 {
            let earlier = out[g.below(i)];
            out.push(Req {
                fresh: false,
                ..earlier
            });
            continue;
        }
        if cells.is_empty() {
            cells = g.permutation(ncells);
        }
        out.push(Req {
            cell: cells.pop().expect("refilled above"),
            budget: first_budget + i as u64,
            fresh: true,
        });
    }
    out
}

/// Open-loop schedule: request `i` is due `i / rate` seconds after the
/// start, whether or not earlier requests have finished.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// (latency, lateness) of a request due at `due`, handed to the engine
/// at `sent` and done at `done` (ns). Both run from the due time, so a
/// stall in the generator counts against every request it delays.
pub fn account(due: u64, sent: u64, done: u64) -> (u64, u64) {
    (done.saturating_sub(due), sent.saturating_sub(due))
}

/// A sink that timestamps every event line as it is written.
struct EventLog {
    partial: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

impl Write for EventLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.lines.push((Instant::now(), line));
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one stream measured.
#[derive(Debug, Default)]
pub struct Stream {
    /// (due time, latency in ms) of every request that completed
    /// correctly.
    pub latency: Vec<(Instant, f64)>,
    /// Start to the last `done` event, s.
    pub wall_s: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, failed, lost or answered wrongly.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
}

/// The serve workload of one round.
pub struct Serve {
    engine: JobEngine,
    cells: Vec<(Config, Bench)>,
    /// Per-cell costs from the md5-checked matrix: every served cell
    /// must report exactly these.
    reference: Vec<PerOpSer>,
    /// Per-cell median direct run time, ms.
    direct_ms: Vec<f64>,
    seed: u64,
    round: u64,
    streams: u64,
}

fn per_op(m: &MicroMatrix, c: Config, b: Bench) -> PerOpSer {
    let costs = m.costs(c);
    match b {
        Bench::Hypercall => costs.hypercall,
        Bench::DeviceIo => costs.device_io,
        Bench::VirtualIpi => costs.virtual_ipi,
        Bench::VirtualEoi => costs.virtual_eoi,
    }
}

impl Serve {
    /// Sets up a round: runs every cell directly (the reference costs
    /// and unqueued times), starts the engine and sends one warm-up
    /// request.
    pub fn new(seed: u64, round: u64, speed: &mut Speed) -> Result<Self, String> {
        let cells = cells();
        let fingerprint = CostModel::default().fingerprint();
        let mut times = vec![Vec::new(); cells.len()];
        let mut first: Vec<CellResult> = Vec::new();
        for run in 0..DIRECT_RUNS {
            for (k, &(c, b)) in cells.iter().enumerate() {
                let t = Instant::now();
                let r = SimSession::new(c, b).run();
                times[k].push(t.elapsed().as_secs_f64() * 1e3);
                if run == 0 {
                    first.push(r);
                }
            }
        }
        let matrix = MicroMatrix::from_cells(first);
        check_md5(
            "serve reference matrix",
            &cache::to_json(&matrix, fingerprint),
            MATRIX_MD5,
        )
        .map_err(|e| e.to_string())?;
        let mut serve = Self {
            engine: JobEngine::new(1, fingerprint, None, 1 << 20),
            reference: cells.iter().map(|&(c, b)| per_op(&matrix, c, b)).collect(),
            direct_ms: times.iter().map(|t| median(t)).collect(),
            cells,
            seed,
            round,
            streams: 0,
        };
        let warm = serve.stream(1, None, speed, &mut Record::default());
        if warm.failed > 0 {
            return Err(format!("serve warm-up failed: {:?}", warm.errors));
        }
        Ok(serve)
    }

    fn request(&self, i: usize, r: &Req) -> JobRequest {
        let (config, bench) = self.cells[r.cell];
        JobRequest {
            id: format!("r{i}"),
            kind: JobKind::Micro,
            configs: vec![config],
            benches: vec![bench],
            engine: Default::default(),
            budget: Some(r.budget),
            plan: None,
            seed: 0,
            cases: 0,
            smoke: false,
            samples: 1,
        }
    }

    /// Sends `n` requests on the open-loop schedule, waits for every
    /// one, and checks each answer. The generator times the reference
    /// kernel while it waits for the next due time.
    pub fn stream(
        &mut self,
        n: usize,
        mut tracer: Option<&mut Tracer>,
        speed: &mut Speed,
        rec: &mut Record,
    ) -> Stream {
        let budget0 = FRESH_BUDGET + self.streams * STREAM_BUDGETS;
        let stream = (self.round << 8) | self.streams;
        let mix = request_mix(self.seed, stream, n, self.cells.len(), budget0);
        self.streams += 1;
        let log = Arc::new(Mutex::new(EventLog {
            partial: Vec::new(),
            lines: Vec::new(),
        }));
        let sink: Sink = log.clone();
        let computed0 = self.engine.computed();
        let mut sent = Vec::with_capacity(n);
        let start = Instant::now();
        for (i, r) in mix.iter().enumerate() {
            let due = start + Duration::from_nanos(due_ns(i, RATE));
            let idle = |now: Instant| due.checked_duration_since(now).unwrap_or_default();
            if idle(Instant::now()) >= SAMPLE_IDLE {
                speed.sample();
            }
            std::thread::sleep(idle(Instant::now()).saturating_sub(SPIN));
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let s = Instant::now();
            self.engine.submit(self.request(i, r), &sink);
            sent.push((s, s.elapsed()));
        }
        self.engine.drain();
        let computed = self.engine.computed() - computed0;

        let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
        let mut out = Stream {
            attempted: n as u64,
            ..Stream::default()
        };
        let fail = |out: &mut Stream, why: String| {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(why);
            }
        };
        let mut done: Vec<Option<Instant>> = vec![None; n];
        let mut answered = vec![0u32; n];
        let mut sources = [0u64; 3];
        let lines = std::mem::take(&mut log.lock().expect("event log lock").lines);
        for (at, line) in &lines {
            let Ok(ev) = neve_json::parse(line) else {
                fail(&mut out, format!("unparseable event: {line}"));
                continue;
            };
            let field = |k: &str| ev.get(k).and_then(JsonValue::as_str).unwrap_or("");
            let Some(i) = field("id")
                .strip_prefix('r')
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&i| i < n)
            else {
                fail(&mut out, format!("event for no request: {line}"));
                continue;
            };
            let r = mix[i];
            match field("event") {
                "accepted" => {}
                "cell" => {
                    answered[i] += 1;
                    let want = self.reference[r.cell];
                    let source = field("source");
                    let expected = if r.fresh {
                        source == "measured"
                    } else {
                        source == "memory" || source == "coalesced"
                    };
                    let exact = field("status") == "ok"
                        && ev.get("cycles").and_then(JsonValue::as_u64) == Some(want.cycles)
                        && ev.get("traps").and_then(JsonValue::as_f64) == Some(want.traps);
                    if !exact || !expected {
                        fail(
                            &mut out,
                            format!("request {i} answered {line}, want {want:?}"),
                        );
                    }
                    if let Some(k) = ["measured", "memory", "coalesced"]
                        .iter()
                        .position(|s| *s == source)
                    {
                        sources[k] += 1;
                    }
                }
                "done" => {
                    let ok = ev.get("ok").and_then(JsonValue::as_u64) == Some(1)
                        && ev.get("failed").and_then(JsonValue::as_u64) == Some(0);
                    if ok && answered[i] == 1 {
                        done[i] = Some(*at);
                    } else {
                        fail(&mut out, format!("request {i} finished {line}"));
                    }
                }
                _ => fail(&mut out, format!("request {i}: {line}")),
            }
        }
        let fresh = mix.iter().filter(|r| r.fresh).count() as u64;
        if computed != fresh {
            fail(
                &mut out,
                format!("engine computed {computed} cells for {fresh} fresh requests"),
            );
        }

        let mut last_done = start;
        for (i, r) in mix.iter().enumerate() {
            let Some(at) = done[i] else {
                fail(&mut out, format!("request {i} never finished"));
                continue;
            };
            last_done = last_done.max(at);
            let due = due_ns(i, RATE);
            let (s, submit) = sent[i];
            let (latency, late) = account(due, ns(s), ns(at));
            let ms = latency as f64 / 1e6;
            let due_at = start + Duration::from_nanos(due);
            out.latency.push((due_at, ms));
            rec.sample("bench.gen_late_ms", late as f64 / 1e6);
            rec.sample("serve.submit_us", submit.as_secs_f64() * 1e6);
            if r.fresh {
                rec.sample("serve.fresh_ms", ms);
                rec.sample("serve.queue_ms", ms - self.direct_ms[r.cell]);
            } else {
                rec.sample("serve.hit_ms", ms);
            }
            if let Some(t) = tracer.as_deref_mut() {
                let id = t.record(
                    "serve.request",
                    i as u64,
                    None,
                    (due_at, at),
                    format!("r{i}"),
                    vec![],
                );
                t.record(
                    "serve.submit",
                    i as u64,
                    Some(id),
                    (s, s + submit),
                    String::new(),
                    vec![],
                );
            }
        }
        rec.add("serve.computed", computed as f64);
        for (k, name) in [
            "serve.src_measured",
            "serve.src_memory",
            "serve.src_coalesced",
        ]
        .iter()
        .enumerate()
        {
            rec.add(name, sources[k] as f64);
        }
        out.wall_s = (last_done - start).as_secs_f64();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_mix_is_a_pure_function_of_the_seed() {
        let a = request_mix(2017, 1, 3000, 28, FRESH_BUDGET);
        assert_eq!(a, request_mix(2017, 1, 3000, 28, FRESH_BUDGET));
        assert_ne!(a, request_mix(2018, 1, 3000, 28, FRESH_BUDGET));
        assert_ne!(a, request_mix(2017, 2, 3000, 28, FRESH_BUDGET));
        assert!(a[0].fresh);
        // Exactly 3 in every 10 repeat (the first block may lose its
        // first slot's repeat: nothing precedes it).
        for (k, block) in a.chunks(BLOCK).enumerate() {
            let repeats = block.iter().filter(|r| !r.fresh).count();
            assert!(repeats == REPEATS || (k == 0 && repeats == REPEATS - 1));
        }
        // Fresh requests cover every cell once per 28, so the counts
        // differ by at most one.
        let mut per_cell = [0usize; 28];
        for r in a.iter().filter(|r| r.fresh) {
            per_cell[r.cell] += 1;
        }
        assert!(per_cell.iter().max().unwrap() - per_cell.iter().min().unwrap() <= 1);
        for (i, r) in a.iter().enumerate() {
            assert!(r.cell < 28);
            if r.fresh {
                // A fresh key is new: no earlier request used its budget.
                assert!(a[..i].iter().all(|e| e.budget != r.budget));
            } else {
                // A repeat names exactly an earlier fresh request.
                assert!(a[..i]
                    .iter()
                    .any(|e| e.fresh && (e.cell, e.budget) == (r.cell, r.budget)));
            }
        }
    }

    #[test]
    fn open_loop_requests_are_due_on_a_fixed_schedule_and_timed_from_due() {
        assert_eq!(due_ns(0, 300.0), 0);
        assert_eq!(due_ns(3, 300.0), 10_000_000);
        assert_eq!(due_ns(300, 300.0), 1_000_000_000);
        // On time: latency is service time, lateness zero.
        assert_eq!(account(10, 10, 25), (15, 0));
        // A generator stall of 20 ns delays the send: the stall counts in
        // both the lateness and the request's latency.
        assert_eq!(account(10, 30, 45), (35, 20));
        // Sent early (clock granularity): no negative lateness.
        assert_eq!(account(10, 9, 12), (2, 0));
    }
}
