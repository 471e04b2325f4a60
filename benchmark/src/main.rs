//! Host benchmark of the NEVE simulator: end-to-end metrics per
//! workload, per-layer metrics from a traced run. See README.md.
//!
//! `run` is the parent: it measures each workload in `ROUNDS` child
//! processes (one per round and workload, rotating the workload order
//! every round, so bursts of host noise spread over all workloads and
//! each child's peak memory is its own), pools their samples, checks
//! that every op was answered correctly, prints every metric by name
//! with its unit, writes JSON to `benchmark/out/`, and prints one JSON
//! result as its last line. `child` runs one round of one workload.

mod drive;
mod grid;
mod md5;
mod record;
mod report;
mod rng;
mod serve;
mod speed;
mod stats;
mod trace;
mod verify;
mod wheel;

use record::Record;
use report::{Pool, END_TO_END, PER_LAYER};
use speed::Speed;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: neve-benchmark run [--workload grid|verify|wheel|serve] \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Child processes per workload.
const ROUNDS: u64 = 7;

const DEFAULT_SEED: u64 = 2017;
const DEFAULT_SECONDS: f64 = 25.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Grid,
    Verify,
    Wheel,
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Grid,
        Workload::Verify,
        Workload::Wheel,
        Workload::Serve,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Verify => "verify",
            Workload::Wheel => "wheel",
            Workload::Serve => "serve",
        }
    }
}

/// Why an op did not count as a success.
#[derive(Debug)]
pub enum OpError {
    /// An output check failed: counted as a failure, the run goes on.
    Wrong(String),
    /// A traced run diverged from its untraced twin: the run stops.
    Abort(String),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Wrong(e) | OpError::Abort(e) => f.write_str(e),
        }
    }
}

/// A workload whose single client sends its next op when the last one
/// is answered.
pub trait ClosedLoop {
    /// Runs op `i` and checks its outputs; with a tracer, records spans
    /// and per-layer accumulators as well.
    fn op(&mut self, i: u64, tracer: Option<&mut Tracer>, rec: &mut Record) -> Result<(), OpError>;
}

/// Parsed command-line options.
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    round: u64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        round: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or(format!("unknown workload {value}"))?;
                o.workloads = vec![w];
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--round" => o.round = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse(&args[1..]).and_then(|o| run(&o)),
        Some("child") => parse(&args[1..]).and_then(|o| child(&o)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("neve-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Where results and traces go (gitignored).
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

// ---------------------------------------------------------------------
// Child: one round of one workload.
// ---------------------------------------------------------------------

/// What one child measured; printed as one JSON line.
#[derive(Default)]
struct Round {
    wall_s: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    rss_kb: u64,
    /// Median reference-kernel time, ms.
    ref_ms: f64,
    op_ms: Vec<f64>,
    rec: Record,
}

impl Round {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Counts a serve stream's requests and failures.
    fn absorb(&mut self, mut st: serve::Stream) -> serve::Stream {
        self.attempted += st.attempted;
        self.failed += st.failed;
        self.errors.append(&mut st.errors);
        st
    }

    fn to_json(&self) -> neve_json::JsonValue {
        use neve_json::JsonValue as J;
        let nums = |v: &[f64]| J::Array(v.iter().map(|&x| J::Number(x)).collect());
        J::Object(vec![
            ("wall_s".into(), J::Number(self.wall_s)),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            (
                "errors".into(),
                J::Array(self.errors.iter().map(|e| e.as_str().into()).collect()),
            ),
            ("rss_kb".into(), self.rss_kb.into()),
            ("ref_ms".into(), J::Number(self.ref_ms)),
            ("op_ms".into(), nums(&self.op_ms)),
            (
                "sums".into(),
                J::Object(
                    self.rec
                        .sums
                        .iter()
                        .map(|(k, v)| (k.clone(), J::Number(*v)))
                        .collect(),
                ),
            ),
            (
                "samples".into(),
                J::Object(
                    self.rec
                        .samples
                        .iter()
                        .map(|(k, v)| (k.clone(), nums(v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Peak resident set of this process, KiB.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Tells the parent set-up is over: the next op is timed.
fn ready() -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

/// Raw times of one phase's ops: (when the op started or was due, ms).
type Timings = Vec<(Instant, f64)>;

/// Runs closed-loop ops for `seconds` (at least one), timing the
/// reference kernel before each.
fn closed_loop(
    w: &mut dyn ClosedLoop,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    first_op: u64,
    speed: &mut Speed,
    r: &mut Round,
) -> Result<Timings, String> {
    let start = Instant::now();
    let mut times = Timings::new();
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        speed.sample();
        let t = Instant::now();
        let res = w.op(
            first_op + times.len() as u64,
            tracer.as_deref_mut(),
            &mut r.rec,
        );
        times.push((t, t.elapsed().as_secs_f64() * 1e3));
        r.attempted += 1;
        match res {
            Ok(()) => {}
            Err(OpError::Wrong(e)) => r.fail(e),
            Err(OpError::Abort(e)) => return Err(e),
        }
    }
    Ok(times)
}

/// One round: set up (with one untimed warm-up op), then time ops for
/// `seconds`. A traced round spends half of it untraced, for the tracing
/// overhead, and half traced. Op times are reported at nominal host
/// speed (see `speed`).
fn child(o: &Opts) -> Result<bool, String> {
    let w = o.workloads[0];
    let mut r = Round::default();
    let mut tracer = Tracer::new();
    let mut speed = Speed::new();
    let timed_s = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let (untraced, traced) = if w == Workload::Serve {
        let mut s = serve::Serve::new(o.seed, o.round, &mut speed)?;
        ready()?;
        let n = ((serve::RATE * timed_s).round() as usize).max(1);
        let untraced = s.stream(n, None, &mut speed, &mut r.rec);
        let untraced = r.absorb(untraced);
        // An open loop's time base is its schedule: wall time, raw.
        r.wall_s = untraced.wall_s;
        let traced = if o.trace {
            // The serve.* layer metrics come from the untraced stream.
            let traced = s.stream(n, Some(&mut tracer), &mut speed, &mut Record::default());
            r.absorb(traced).latency
        } else {
            Timings::new()
        };
        (untraced.latency, traced)
    } else {
        let mut wl: Box<dyn ClosedLoop> = match w {
            Workload::Grid => Box::new(grid::Grid::new(o.seed, o.round, o.trace)?),
            Workload::Verify => Box::new(verify::Verify::new(o.seed, o.round)?),
            Workload::Wheel => Box::new(wheel::Wheel::new(o.seed, o.round, o.trace)?),
            Workload::Serve => unreachable!(),
        };
        closed_loop(wl.as_mut(), 0.0, None, 0, &mut speed, &mut r)?;
        ready()?;
        let untraced = closed_loop(wl.as_mut(), timed_s, None, 1, &mut speed, &mut r)?;
        let traced = if o.trace {
            let next = 1 + untraced.len() as u64;
            closed_loop(
                wl.as_mut(),
                timed_s,
                Some(&mut tracer),
                next,
                &mut speed,
                &mut r,
            )?
        } else {
            Timings::new()
        };
        (untraced, traced)
    };
    let norm =
        |t: &Timings| -> Vec<f64> { t.iter().map(|&(at, ms)| ms * speed.factor_at(at)).collect() };
    r.op_ms = norm(&untraced);
    if w != Workload::Serve {
        r.wall_s = r.op_ms.iter().sum::<f64>() / 1e3;
    }
    if o.trace {
        let traced = norm(&traced);
        r.rec.add("traced_ops", traced.len() as f64);
        r.rec.samples.insert("traced_op_ms".into(), traced);
    }
    r.ref_ms = speed.median_ms();
    r.rss_kb = vm_hwm_kb();
    if o.trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("trace-{}.jsonl", w.name()));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(o.round > 0)
            .truncate(o.round == 0)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(tracer.jsonl().as_bytes())
            .map_err(|e| e.to_string())?;
    }
    println!("{}", r.to_json().compact());
    Ok(true)
}

// ---------------------------------------------------------------------
// Parent: rounds of children, pooled into metrics.
// ---------------------------------------------------------------------

/// Runs one child and folds its round into `pool`.
fn spawn_child(w: Workload, o: &Opts, round: u64, pool: &mut Pool) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = o.seconds / ROUNDS as f64;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["child", "--workload", w.name()])
        .args([
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args([
            "--trace",
            if o.trace { "1" } else { "0" },
            "--round",
            &round.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a {} child: {e}", w.name()))?;
    let mut setup_s = None;
    let mut last = String::new();
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if setup_s.is_none() && line == "ready" {
                setup_s = Some(start.elapsed().as_secs_f64());
            } else {
                last = line;
            }
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "{} round {round} child failed ({status})",
            w.name()
        ));
    }
    let setup_s = setup_s.ok_or(format!("{} round {round} child never got ready", w.name()))?;
    let doc = neve_json::parse(&last).map_err(|e| format!("{} round {round}: {e:?}", w.name()))?;
    let num = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let nums = |v: &neve_json::JsonValue| -> Vec<f64> {
        v.as_array()
            .unwrap_or(&[])
            .iter()
            .filter_map(|x| x.as_f64())
            .collect()
    };
    let ref_ms = num("ref_ms");
    pool.ref_ms.push(ref_ms);
    let factor = if ref_ms > 0.0 {
        speed::NOMINAL_MS / ref_ms
    } else {
        1.0
    };
    pool.setup_s.push(setup_s * factor);
    pool.wall_s.push(num("wall_s"));
    pool.op_ms
        .push(doc.get("op_ms").map(nums).unwrap_or_default());
    pool.attempted += num("attempted") as u64;
    pool.failed += num("failed") as u64;
    pool.rss_kb = pool.rss_kb.max(num("rss_kb") as u64);
    for e in doc.get("errors").and_then(|v| v.as_array()).unwrap_or(&[]) {
        pool.errors
            .extend(e.as_str().map(|s| format!("round {round}: {s}")));
    }
    for (k, v) in doc.get("sums").and_then(|v| v.as_object()).unwrap_or(&[]) {
        pool.rec.add(k, v.as_f64().unwrap_or(0.0));
    }
    for (k, v) in doc
        .get("samples")
        .and_then(|v| v.as_object())
        .unwrap_or(&[])
    {
        pool.rec
            .samples
            .entry(k.clone())
            .or_default()
            .extend(nums(v));
    }
    Ok(())
}

/// The sample counts behind the op timings, for people.
fn samples_note(p: &Pool) -> String {
    let n = p.all_op_ms().len();
    let fewest = p.op_ms.iter().map(Vec::len).min().unwrap_or(0);
    let tail = |n| stats::tail_permille(n).map_or("none".to_string(), stats::label);
    format!(
        "{n} ops, {} per round at least; highest percentile with >=10 samples beyond it: {} pooled, {} per round",
        fewest,
        tail(n),
        tail(fewest)
    )
}

/// Each round's own values, whose medians are the end-to-end metrics,
/// and its raw reference-kernel time.
fn rounds_json(p: &Pool) -> neve_json::JsonValue {
    use neve_json::JsonValue as J;
    let rounds = (0..p.op_ms.len()).map(|r| {
        let ops = &p.op_ms[r];
        J::Object(vec![
            ("ops".into(), (ops.len() as u64).into()),
            ("setup_s".into(), J::Number(p.setup_s[r])),
            ("op_ms_p50".into(), J::Number(stats::percentile(ops, 500))),
            ("op_ms_p90".into(), J::Number(stats::percentile(ops, 900))),
            ("wall_s".into(), J::Number(p.wall_s[r])),
            ("ref_ms".into(), J::Number(p.ref_ms[r])),
        ])
    });
    J::Array(rounds.collect())
}

/// Prints one workload's metrics for people.
fn print_pool(w: Workload, o: &Opts, p: &Pool) {
    println!(
        "{} — {} rounds x {:.2} s, seed {}, {}",
        w.name(),
        ROUNDS,
        o.seconds / ROUNDS as f64,
        o.seed,
        samples_note(p)
    );
    let (specs, values) = if o.trace {
        (PER_LAYER, report::per_layer(p))
    } else {
        (END_TO_END, report::end_to_end(p))
    };
    for (spec, v) in specs.iter().zip(values) {
        let note = match spec.name {
            "setup_s" | "op_ms_p50" | "op_ms_p90" | "ops_per_s" => {
                format!("median over {} rounds", p.op_ms.len())
            }
            _ => String::new(),
        };
        println!(
            "  {:<32} {:>14.6} {:<9} {:<7} {note}",
            spec.name, v, spec.unit, spec.better
        );
    }
    println!("  attempted {}, failed {}", p.attempted, p.failed);
    for e in &p.errors {
        println!("  FAILED: {e}");
    }
}

/// The parent: every round of every selected workload, then the report.
fn run(o: &Opts) -> Result<bool, String> {
    let n = o.workloads.len();
    let mut pools: Vec<Pool> = (0..n).map(|_| Pool::default()).collect();
    for round in 0..ROUNDS {
        for k in 0..n {
            let slot = (k + round as usize) % n;
            spawn_child(o.workloads[slot], o, round, &mut pools[slot])?;
        }
    }

    use neve_json::JsonValue as J;
    let single = n == 1;
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for (w, p) in o.workloads.iter().zip(&pools) {
        print_pool(*w, o, p);
        let prefix = if single {
            String::new()
        } else {
            format!("{}.", w.name())
        };
        report::metrics_json(p, o.trace, &prefix, &mut metrics);
        let mut own = Vec::new();
        report::metrics_json(p, o.trace, "", &mut own);
        detail.push((
            w.name().to_string(),
            J::Object(vec![
                ("samples".into(), samples_note(p).into()),
                ("rounds".into(), rounds_json(p)),
                ("attempted".into(), p.attempted.into()),
                ("failed".into(), p.failed.into()),
                (
                    "errors".into(),
                    J::Array(p.errors.iter().map(|e| e.as_str().into()).collect()),
                ),
                ("metrics".into(), J::Object(own)),
            ]),
        ));
    }
    let attempted: u64 = pools.iter().map(|p| p.attempted).sum();
    let failed: u64 = pools.iter().map(|p| p.failed).sum();
    let correct = failed == 0 && attempted > 0;

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let name = if single { o.workloads[0].name() } else { "run" };
    let file = dir.join(format!(
        "{name}{}.json",
        if o.trace { "-trace" } else { "" }
    ));
    let full = J::Object(vec![
        ("seed".into(), o.seed.into()),
        ("seconds".into(), J::Number(o.seconds)),
        ("rounds".into(), ROUNDS.into()),
        ("trace".into(), J::Bool(o.trace)),
        (
            "nproc".into(),
            (std::thread::available_parallelism().map_or(0, |p| p.get()) as u64).into(),
        ),
        ("correct".into(), J::Bool(correct)),
        ("workloads".into(), J::Object(detail)),
    ]);
    std::fs::write(&file, full.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("wrote {}", file.display());

    let result = J::Object(vec![
        ("correct".into(), J::Bool(correct)),
        ("attempted".into(), attempted.into()),
        ("failed".into(), failed.into()),
        ("metrics".into(), J::Object(metrics)),
    ]);
    println!("{}", result.compact());
    Ok(correct)
}
