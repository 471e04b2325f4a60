//! The serve engine: a long-running job host that accepts batched
//! evaluation-matrix sweep requests (line-delimited JSON), decomposes
//! them into content-addressed (configuration, benchmark) cells
//! ([`crate::jobs`]), runs the cells from one FIFO queue, and streams
//! results back as JSONL events.
//!
//! The result store is the coalescing layer: a cell key maps to one
//! slot that is `Queued`, `Running`, or `Done`. The first request to
//! name a key pays for the computation (`"source":"measured"` in its
//! cell event); any request arriving while the slot is in flight
//! attaches as a waiter (`"coalesced"`); a request arriving after
//! completion is answered from memory (`"memory"`); and a
//! full-default-grid request with a valid matrix file
//! ([`crate::cache::CACHE_PATH`], written by `neve export`) is answered
//! straight from disk (`"disk"`) without touching the queue.
//!
//! Lock order: the store mutex and the requests mutex are never held
//! at the same time — workers collect deliveries under the store lock,
//! drop it, then deliver under the requests lock. A sink's lock is a
//! leaf, taken under either. A faulted or
//! cancelled cell streams as a `failed`/`cancelled` event and the rest
//! of the batch completes; nothing poisons the queue.

use crate::cache;
use crate::jobs::{self, CellKey, Command, JobRequest};
use crate::platforms::MicroMatrix;
use crate::session::{panic_message, Bench, CellResult, SimSession};
use neve_armv8::FaultPlan;
use neve_cycles::SimFault;
use neve_json::JsonValue;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Where a request's events are written (one JSON object per line).
pub type Sink = Arc<Mutex<dyn Write + Send>>;

/// One slot of the coalescing result store.
enum Slot {
    /// Enqueued, not yet picked up. Holds every request waiting on it.
    Queued { waiters: Vec<Waiter> },
    /// A worker is executing it; late arrivals still attach here.
    Running { waiters: Vec<Waiter> },
    /// Finished; repeat queries are answered from memory.
    Done(Arc<CellResult>),
}

/// A request waiting on a cell, with the provenance tag its cell event
/// will carry (assigned at registration time: the registrant that
/// created the slot is `"measured"`, in-flight joiners `"coalesced"`).
struct Waiter {
    request: String,
    source: &'static str,
}

/// Per-request bookkeeping, alive from accept to the `done` event.
struct RequestState {
    /// Every bench per config present and deduped: the `done` event
    /// may carry an assembled matrix.
    full_benches: bool,
    /// Full-default-grid request that missed the matrix file: the
    /// assembled matrix is written back on completion.
    write_back: bool,
    pending: usize,
    ok: usize,
    failed: usize,
    cancelled: usize,
    cells: Vec<(CellKey, Option<Arc<CellResult>>)>,
    sink: Sink,
}

/// The coalescing store and the queue that feeds the workers, under
/// one mutex: `queue` holds exactly the keys whose slot is `Queued`.
#[derive(Default)]
struct Store {
    slots: BTreeMap<CellKey, Slot>,
    queue: VecDeque<CellKey>,
    shutdown: bool,
}

struct Shared {
    fingerprint: u64,
    cache_path: Option<PathBuf>,
    max_queued: usize,
    store: Mutex<Store>,
    /// Notified when a key is enqueued or the engine shuts down.
    work: Condvar,
    requests: Mutex<BTreeMap<String, RequestState>>,
    /// Notified every time a request finalizes (for [`JobEngine::drain`]).
    done_cond: Condvar,
    /// Cells actually executed (coalesced and memory hits excluded) —
    /// the observable the coalescing smoke asserts on.
    computed: AtomicU64,
}

/// The long-running job engine. Dropping it stops the workers.
pub struct JobEngine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn event(pairs: Vec<(&str, JsonValue)>) -> String {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).compact()
}

fn emit(sink: &Sink, line: &str) {
    if let Ok(mut s) = sink.lock() {
        let _ = writeln!(s, "{line}");
        let _ = s.flush();
    }
}

fn error_event(id: &str, error: String) -> String {
    event(vec![
        ("event", JsonValue::String("error".into())),
        ("id", JsonValue::String(id.into())),
        ("error", JsonValue::String(error)),
    ])
}

fn cell_location(pairs: &mut Vec<(&str, JsonValue)>, key: &CellKey) {
    pairs.push(("config", JsonValue::String(key.config.label().into())));
    pairs.push(("bench", JsonValue::String(key.bench.label().into())));
}

fn cell_event(id: &str, key: &CellKey, outcome: &CellResult, source: &str) -> String {
    let mut pairs: Vec<(&str, JsonValue)> = vec![
        ("event", JsonValue::String("cell".into())),
        ("id", JsonValue::String(id.into())),
    ];
    cell_location(&mut pairs, key);
    match outcome {
        CellResult::Ok(m) => {
            pairs.push(("status", JsonValue::String("ok".into())));
            pairs.push(("cycles", JsonValue::from(m.per_op.cycles)));
            pairs.push(("traps", JsonValue::from(m.per_op.traps)));
        }
        CellResult::Failed { fault, .. } => {
            pairs.push(("status", JsonValue::String("failed".into())));
            pairs.push(("error", JsonValue::String(fault.describe())));
        }
    }
    pairs.push(("source", JsonValue::String(source.into())));
    event(pairs)
}

fn execute(key: &CellKey) -> CellResult {
    let run = || {
        let mut s = SimSession::new(key.config, key.bench);
        s.set_engine(key.engine);
        if let Some((name, seed)) = &key.plan {
            // `JobRequest::cells` refuses a plan name that does not
            // resolve, so this cannot miss.
            if let Some(plan) = FaultPlan::builtin(name, *seed) {
                s.attach_fault_plan(&plan);
            }
        }
        if let Some(budget) = key.budget {
            s.set_step_budget(budget);
        }
        s.run()
    };
    // The last containment layer: a panic building a cell becomes that
    // cell's structured failure, never a dead worker (`SimSession::run`
    // already contains panics in the run itself).
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        CellResult::Failed {
            config: key.config,
            bench: key.bench,
            fault: SimFault::from_panic(panic_message(payload.as_ref())),
        }
    })
}

/// Delivers one finished cell to its waiters under the requests lock
/// (the store lock must already be released) and finalizes any request
/// whose last cell this was.
fn deliver(shared: &Shared, key: &CellKey, outcome: &Arc<CellResult>, waiters: &[Waiter]) {
    let mut requests = shared.requests.lock().unwrap();
    let mut finished: Vec<(String, RequestState)> = Vec::new();
    for waiter in waiters {
        let Some(state) = requests.get_mut(&waiter.request) else {
            continue; // cancelled while in flight
        };
        let Some(cell) = state
            .cells
            .iter_mut()
            .find(|(k, o)| k == key && o.is_none())
        else {
            continue;
        };
        cell.1 = Some(Arc::clone(outcome));
        if outcome.fault().is_some() {
            state.failed += 1;
        } else {
            state.ok += 1;
        }
        state.pending -= 1;
        emit(
            &state.sink,
            &cell_event(&waiter.request, key, outcome, waiter.source),
        );
        if state.pending == 0 {
            let state = requests.remove(&waiter.request).unwrap();
            finished.push((waiter.request.clone(), state));
        }
    }
    drop(requests);
    for (id, state) in finished {
        finalize(shared, &id, state);
    }
    shared.done_cond.notify_all();
}

/// Emits a request's `done` event — with the assembled matrix for
/// full-bench requests — and writes a freshly measured full default
/// grid back to the matrix file.
fn finalize(shared: &Shared, id: &str, state: RequestState) {
    let mut pairs: Vec<(&str, JsonValue)> = vec![
        ("event", JsonValue::String("done".into())),
        ("id", JsonValue::String(id.into())),
        ("ok", JsonValue::from(state.ok as u64)),
        ("failed", JsonValue::from(state.failed as u64)),
    ];
    if state.full_benches {
        let cells: Vec<CellResult> = state
            .cells
            .iter()
            .filter_map(|(_, o)| o.as_deref().cloned())
            .collect();
        if cells.len() == state.cells.len() {
            let matrix = MicroMatrix::from_cells(cells);
            let json = cache::to_json(&matrix, shared.fingerprint);
            if state.write_back && state.failed == 0 {
                if let Some(path) = &shared.cache_path {
                    if let Some(dir) = path.parent() {
                        let _ = std::fs::create_dir_all(dir);
                    }
                    let _ = cache::write_atomically(path, &json);
                }
            }
            pairs.push(("matrix", JsonValue::String(json)));
        }
    }
    emit(&state.sink, &event(pairs));
}

fn worker_loop(shared: &Shared) {
    loop {
        let key = {
            let mut store = shared.store.lock().unwrap();
            loop {
                if let Some(key) = store.queue.pop_front() {
                    let Some(Slot::Queued { waiters }) = store.slots.remove(&key) else {
                        unreachable!("every queued key has a Queued slot");
                    };
                    store.slots.insert(key.clone(), Slot::Running { waiters });
                    break key;
                }
                if store.shutdown {
                    return;
                }
                store = shared.work.wait(store).unwrap();
            }
        };
        let outcome = Arc::new(execute(&key));
        shared.computed.fetch_add(1, Ordering::Relaxed);
        let waiters = {
            let mut store = shared.store.lock().unwrap();
            let Some(Slot::Running { waiters }) = store.slots.remove(&key) else {
                continue;
            };
            store
                .slots
                .insert(key.clone(), Slot::Done(Arc::clone(&outcome)));
            waiters
        };
        // Lock-order rule: store lock dropped before requests lock.
        deliver(shared, &key, &outcome, &waiters);
    }
}

impl JobEngine {
    /// Builds an engine with `jobs` worker threads. `cache_path`
    /// layers the matrix file under the in-memory store (`None`
    /// disables the disk tier). `jobs == 0` is a test-only
    /// shape: cells queue but never execute.
    pub fn new(
        jobs: usize,
        fingerprint: u64,
        cache_path: Option<PathBuf>,
        max_queued: usize,
    ) -> Self {
        let shared = Arc::new(Shared {
            fingerprint,
            cache_path,
            max_queued,
            store: Mutex::new(Store::default()),
            work: Condvar::new(),
            requests: Mutex::new(BTreeMap::new()),
            done_cond: Condvar::new(),
            computed: AtomicU64::new(0),
        });
        let workers = (0..jobs)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Cells executed so far (memory/disk/coalesced hits excluded).
    pub fn computed(&self) -> u64 {
        self.shared.computed.load(Ordering::Relaxed)
    }

    /// Handles one parsed protocol command, streaming this request's
    /// events to `sink`.
    pub fn handle(&self, cmd: Command, sink: &Sink) {
        match cmd {
            Command::Submit(req) => self.submit(req, sink),
            Command::Cancel(id) => self.cancel(&id, sink),
        }
    }

    /// Submits one job request. Every outcome — acceptance, each cell,
    /// completion, or a structured refusal — is an event on `sink`.
    pub fn submit(&self, req: JobRequest, sink: &Sink) {
        let cells = match req.cells(self.shared.fingerprint) {
            Ok(cells) => cells,
            Err(e) => {
                emit(sink, &error_event(&req.id, e));
                return;
            }
        };
        // Dedup within the request: duplicate config/bench entries
        // collapse to one cell (they would race on one store slot).
        let mut unique: Vec<CellKey> = Vec::new();
        for key in cells {
            if !unique.contains(&key) {
                unique.push(key);
            }
        }
        if self.shared.requests.lock().unwrap().contains_key(&req.id) {
            emit(
                sink,
                &error_event(&req.id, "a request with this id is already active".into()),
            );
            return;
        }
        let accepted = event(vec![
            ("event", JsonValue::String("accepted".into())),
            ("id", JsonValue::String(req.id.clone())),
            ("job", JsonValue::String(req.kind.label().into())),
            ("cells", JsonValue::from(unique.len() as u64)),
        ]);

        // Disk tier: the exact grid the matrix file stores, with a valid
        // clean file present, streams straight from disk.
        let mut disk_miss = false;
        if req.is_full_default_grid() {
            if let Some(path) = &self.shared.cache_path {
                let valid = std::fs::read_to_string(path)
                    .ok()
                    .and_then(|text| {
                        cache::from_json(&text, self.shared.fingerprint).map(|m| (text, m))
                    })
                    .filter(|(_, m)| !m.has_failures());
                match valid {
                    Some((text, matrix)) => {
                        emit(sink, &accepted);
                        stream_from_disk(&req, &unique, &matrix, &text, sink);
                        return;
                    }
                    None => disk_miss = true,
                }
            }
        }

        // Registered before any of its cells is visible to a worker, so
        // no delivery can miss it.
        let id = req.id.clone();
        self.shared.requests.lock().unwrap().insert(
            id.clone(),
            RequestState {
                full_benches: Bench::all().iter().all(|b| req.benches.contains(b)),
                write_back: disk_miss,
                pending: unique.len(),
                ok: 0,
                failed: 0,
                cancelled: 0,
                cells: unique.iter().map(|k| (k.clone(), None)).collect(),
                sink: Arc::clone(sink),
            },
        );

        // Admission and registration under the lock that enqueues: only
        // cells that create a new slot count against `--max-queued`, and
        // `accepted` is out before any worker can deliver one of them.
        let mut store = self.shared.store.lock().unwrap();
        let fresh = unique
            .iter()
            .filter(|k| !store.slots.contains_key(k))
            .count();
        if store.queue.len() + fresh > self.shared.max_queued {
            drop(store);
            // Backpressure: refuse rather than queue without bound. The
            // per-cell step budget (watchdog) bounds each admitted cell.
            self.shared.requests.lock().unwrap().remove(&id);
            self.shared.done_cond.notify_all();
            let cap = self.shared.max_queued;
            emit(
                sink,
                &error_event(&id, format!("queue full (cap {cap} cells); retry later")),
            );
            return;
        }
        emit(sink, &accepted);
        // Memory hits are delivered after the lock drops (lock order).
        let mut hits: Vec<(CellKey, Arc<CellResult>)> = Vec::new();
        for key in unique {
            match store.slots.get_mut(&key) {
                Some(Slot::Done(outcome)) => hits.push((key, Arc::clone(outcome))),
                Some(Slot::Queued { waiters, .. }) | Some(Slot::Running { waiters }) => {
                    waiters.push(Waiter {
                        request: id.clone(),
                        source: "coalesced",
                    });
                }
                None => {
                    store.slots.insert(
                        key.clone(),
                        Slot::Queued {
                            waiters: vec![Waiter {
                                request: id.clone(),
                                source: "measured",
                            }],
                        },
                    );
                    store.queue.push_back(key);
                }
            }
        }
        drop(store);
        self.shared.work.notify_all();
        for (key, outcome) in hits {
            deliver(
                &self.shared,
                &key,
                &outcome,
                &[Waiter {
                    request: id.clone(),
                    source: "memory",
                }],
            );
        }
    }

    /// Cancels an active request: undelivered cells stream as
    /// `cancelled`, the request finalizes immediately, and orphaned
    /// queued cells (no remaining waiter) are dropped from the store.
    pub fn cancel(&self, id: &str, sink: &Sink) {
        let state = self.shared.requests.lock().unwrap().remove(id);
        let Some(mut state) = state else {
            emit(
                sink,
                &error_event(id, "no active request with this id".into()),
            );
            return;
        };
        for (key, outcome) in &state.cells {
            if outcome.is_some() {
                continue;
            }
            state.cancelled += 1;
            let mut pairs: Vec<(&str, JsonValue)> = vec![
                ("event", JsonValue::String("cell".into())),
                ("id", JsonValue::String(id.into())),
            ];
            cell_location(&mut pairs, key);
            pairs.push(("status", JsonValue::String("cancelled".into())));
            pairs.push(("source", JsonValue::String("cancelled".into())));
            emit(&state.sink, &event(pairs));
        }
        emit(
            &state.sink,
            &event(vec![
                ("event", JsonValue::String("done".into())),
                ("id", JsonValue::String(id.into())),
                ("ok", JsonValue::from(state.ok as u64)),
                ("failed", JsonValue::from(state.failed as u64)),
                ("cancelled", JsonValue::from(state.cancelled as u64)),
            ]),
        );
        self.shared.done_cond.notify_all();
        // Drop this request's waiters; a queued slot nobody waits on
        // any more leaves the store and the queue.
        let mut store = self.shared.store.lock().unwrap();
        let Store { slots, queue, .. } = &mut *store;
        slots.retain(|_, slot| match slot {
            Slot::Queued { waiters, .. } => {
                waiters.retain(|w| w.request != id);
                !waiters.is_empty()
            }
            Slot::Running { waiters } => {
                waiters.retain(|w| w.request != id);
                true // the worker owns it; the result lands in Done
            }
            Slot::Done(_) => true,
        });
        queue.retain(|key| slots.contains_key(key));
    }

    /// Blocks until every active request has finalized.
    pub fn drain(&self) {
        let mut requests = self.shared.requests.lock().unwrap();
        while !requests.is_empty() {
            requests = self.shared.done_cond.wait(requests).unwrap();
        }
    }
}

impl Drop for JobEngine {
    fn drop(&mut self) {
        self.shared.store.lock().unwrap().shutdown = true;
        self.shared.work.notify_all();
        for w in self.workers.lock().unwrap().drain(..) {
            let _ = w.join();
        }
    }
}

fn stream_from_disk(
    req: &JobRequest,
    cells: &[CellKey],
    matrix: &MicroMatrix,
    raw: &str,
    sink: &Sink,
) {
    for key in cells {
        let costs = matrix.costs(key.config);
        let per_op = match key.bench {
            Bench::Hypercall => costs.hypercall,
            Bench::DeviceIo => costs.device_io,
            Bench::VirtualIpi => costs.virtual_ipi,
            Bench::VirtualEoi => costs.virtual_eoi,
        };
        let mut pairs: Vec<(&str, JsonValue)> = vec![
            ("event", JsonValue::String("cell".into())),
            ("id", JsonValue::String(req.id.clone())),
        ];
        cell_location(&mut pairs, key);
        pairs.extend([
            ("status", JsonValue::String("ok".into())),
            ("cycles", JsonValue::from(per_op.cycles)),
            ("traps", JsonValue::from(per_op.traps)),
            ("source", JsonValue::String("disk".into())),
        ]);
        emit(sink, &event(pairs));
    }
    // The raw validated file text, verbatim: byte-identity with the
    // file `neve export` writes is the protocol contract.
    emit(
        sink,
        &event(vec![
            ("event", JsonValue::String("done".into())),
            ("id", JsonValue::String(req.id.clone())),
            ("ok", JsonValue::from(cells.len() as u64)),
            ("failed", JsonValue::from(0u64)),
            ("matrix", JsonValue::String(raw.to_string())),
        ]),
    );
}

/// Runs the line protocol: one request or cancel per line, events
/// interleaved onto `sink`, until EOF; then drains the engine so every
/// accepted request has streamed its `done` event.
pub fn run_protocol(reader: impl BufRead, sink: &Sink, engine: &JobEngine) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match jobs::parse_request(line) {
            Ok(cmd) => engine.handle(cmd, sink),
            Err(e) => emit(sink, &error_event("", e)),
        }
    }
    engine.drain();
}

/// Binds a TCP listener and serves each connection with the shared
/// engine (one reader thread per connection; cross-connection requests
/// coalesce in the same store). Returns the bound address and the
/// accept-loop handle; the loop runs until the process exits.
pub fn listen(
    engine: Arc<JobEngine>,
    addr: &str,
) -> std::io::Result<(std::net::SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = std::net::TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            let Ok(reader) = stream.try_clone() else {
                continue;
            };
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let sink: Sink = Arc::new(Mutex::new(stream));
                run_protocol(std::io::BufReader::new(reader), &sink, &engine);
            });
        }
    });
    Ok((local, handle))
}

/// A `Write` handle over a shared byte buffer (test/smoke sinks that
/// are read back after `drain`).
#[derive(Clone, Default)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// The buffered text so far.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }

    /// Wraps this buffer as a protocol sink.
    pub fn sink(&self) -> Sink {
        Arc::new(Mutex::new(self.clone()))
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Parses the JSONL a sink captured back into event objects.
pub fn parse_events(text: &str) -> Vec<JsonValue> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| neve_json::parse(l).expect("engine emitted invalid JSON"))
        .collect()
}

fn events_for<'a>(events: &'a [JsonValue], id: &str) -> Vec<&'a JsonValue> {
    events
        .iter()
        .filter(|e| e.get("id").and_then(|v| v.as_str()) == Some(id))
        .collect()
}

fn str_of<'a>(e: &'a JsonValue, key: &str) -> &'a str {
    e.get(key).and_then(|v| v.as_str()).unwrap_or("")
}

/// The CI smoke: proves the three serve contracts on a live engine.
///
/// 1. **Coalescing** — two identical partial-grid requests cost one
///    computation per cell (`computed == cells`), the second served
///    entirely from the store (`coalesced`/`memory`, never
///    `measured`).
/// 2. **Byte-identity** — a full-default-grid request's `done.matrix`
///    is byte-identical to the serially assembled one-shot matrix.
/// 3. **Budget containment** — an under-budget cell streams `failed`
///    while the rest of the batch completes `ok`.
///
/// # Errors
///
/// A human-readable description of the first violated contract.
pub fn smoke() -> Result<(), String> {
    use crate::platforms::Config;
    let fingerprint = neve_cycles::CostModel::default().fingerprint();

    // 1: coalescing. Two cheap configs, all four benches, twice.
    let engine = JobEngine::new(2, fingerprint, None, 1024);
    let grid = |id: &str| {
        JobRequest::micro(
            id,
            vec![Config::ArmVm, Config::X86Vm],
            Bench::all().to_vec(),
        )
    };
    let buf = SharedBuf::default();
    let sink = buf.sink();
    engine.submit(grid("a"), &sink);
    engine.submit(grid("b"), &sink);
    engine.drain();
    if engine.computed() != 8 {
        return Err(format!(
            "coalescing: expected 8 computed cells for two identical 8-cell requests, got {}",
            engine.computed()
        ));
    }
    let events = parse_events(&buf.text());
    let b_cells: Vec<_> = events_for(&events, "b")
        .into_iter()
        .filter(|e| str_of(e, "event") == "cell")
        .collect();
    if b_cells.len() != 8 {
        return Err(format!(
            "coalescing: request b streamed {} cells, expected 8",
            b_cells.len()
        ));
    }
    if b_cells.iter().any(|e| str_of(e, "source") == "measured") {
        return Err("coalescing: request b re-measured a cell the store already owned".into());
    }
    drop(engine);

    // 2: byte-identity. A full default grid through the engine (disk
    // tier disabled) must serialize exactly as the serial one-shot
    // path does.
    let engine = JobEngine::new(2, fingerprint, None, 1024);
    let full = JobRequest::micro("full", Config::all().to_vec(), Bench::all().to_vec());
    let buf = SharedBuf::default();
    let sink = buf.sink();
    engine.submit(full, &sink);
    engine.drain();
    let events = parse_events(&buf.text());
    let done = events
        .iter()
        .find(|e| str_of(e, "event") == "done" && str_of(e, "id") == "full")
        .ok_or("byte-identity: no done event for the full-grid request")?;
    let streamed = str_of(done, "matrix");
    if streamed.is_empty() {
        return Err("byte-identity: done event carries no matrix".into());
    }
    let serial = cache::to_json(&MicroMatrix::measure(), fingerprint);
    if streamed != serial {
        return Err("byte-identity: streamed matrix differs from the serially measured one".into());
    }
    // When the matrix file is valid for this fingerprint, the
    // serve output must also match it byte-for-byte.
    if let Ok(text) = std::fs::read_to_string(cache::CACHE_PATH) {
        if cache::from_json(&text, fingerprint).is_some() && streamed != text {
            return Err(format!(
                "byte-identity: streamed matrix differs from {}",
                cache::CACHE_PATH
            ));
        }
    }
    drop(engine);

    // 3: budget containment. 2000 steps admits the single-level
    // hypercall but starves the nested one; the starved cell must
    // stream `failed` while the other completes.
    let engine = JobEngine::new(2, fingerprint, None, 1024);
    let budget = JobRequest {
        budget: Some(2000),
        ..JobRequest::micro(
            "tight",
            vec![Config::ArmVm, Config::ArmNestedV83],
            vec![Bench::Hypercall],
        )
    };
    let buf = SharedBuf::default();
    let sink = buf.sink();
    engine.submit(budget, &sink);
    engine.drain();
    let events = parse_events(&buf.text());
    let done = events
        .iter()
        .find(|e| str_of(e, "event") == "done" && str_of(e, "id") == "tight")
        .ok_or("budget: no done event for the budgeted request")?;
    let ok = done.get("ok").and_then(|v| v.as_u64());
    let failed = done.get("failed").and_then(|v| v.as_u64());
    if (ok, failed) != (Some(1), Some(1)) {
        return Err(format!(
            "budget: expected ok=1 failed=1 under a 2000-step budget, got ok={ok:?} failed={failed:?}"
        ));
    }
    let starved = events.iter().any(|e| {
        str_of(e, "event") == "cell"
            && str_of(e, "config") == Config::ArmNestedV83.label()
            && str_of(e, "status") == "failed"
    });
    if !starved {
        return Err("budget: the nested hypercall cell did not stream as failed".into());
    }
    println!(
        "serve smoke: coalescing (8 computed for 16 requested cells), \
         matrix byte-identity, and budget containment all hold"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::Config;

    fn done_of<'a>(events: &'a [JsonValue], id: &str) -> &'a JsonValue {
        events
            .iter()
            .find(|e| str_of(e, "event") == "done" && str_of(e, "id") == id)
            .expect("done event")
    }

    #[test]
    fn duplicate_requests_coalesce_onto_one_computation() {
        let fp = neve_cycles::CostModel::default().fingerprint();
        let engine = JobEngine::new(2, fp, None, 64);
        let buf = SharedBuf::default();
        let sink = buf.sink();
        // Same cell three times (cheap: single-level x86 hypercall).
        for id in ["r1", "r2", "r3"] {
            engine.submit(
                JobRequest::micro(id, vec![Config::X86Vm], vec![Bench::Hypercall]),
                &sink,
            );
        }
        engine.drain();
        assert_eq!(engine.computed(), 1, "one cell key, one computation");
        let events = parse_events(&buf.text());
        for id in ["r1", "r2", "r3"] {
            let done = done_of(&events, id);
            assert_eq!(done.get("ok").and_then(|v| v.as_u64()), Some(1));
        }
        // Exactly one request measured; the others hit the store.
        let sources: Vec<String> = events
            .iter()
            .filter(|e| str_of(e, "event") == "cell")
            .map(|e| str_of(e, "source").to_string())
            .collect();
        assert_eq!(sources.iter().filter(|s| *s == "measured").count(), 1);
        assert_eq!(sources.len(), 3);
    }

    #[test]
    fn cell_results_are_byte_identical_to_the_serial_path() {
        // The full default grid through the engine must assemble to
        // exactly the serial one-shot bytes (jobs=2 exercises
        // completion-order independence).
        let fp = neve_cycles::CostModel::default().fingerprint();
        let engine = JobEngine::new(2, fp, None, 64);
        let buf = SharedBuf::default();
        let sink = buf.sink();
        engine.submit(
            JobRequest::micro("m", Config::all().to_vec(), Bench::all().to_vec()),
            &sink,
        );
        engine.drain();
        let events = parse_events(&buf.text());
        let done = done_of(&events, "m");
        let streamed = str_of(done, "matrix");
        assert!(!streamed.is_empty());
        assert_eq!(
            streamed,
            cache::to_json(&MicroMatrix::measure(), fp),
            "streamed matrix must be byte-identical to the serial path"
        );
    }

    #[test]
    fn budget_starved_cells_stream_failed_without_poisoning_the_batch() {
        let fp = neve_cycles::CostModel::default().fingerprint();
        let engine = JobEngine::new(1, fp, None, 64);
        let buf = SharedBuf::default();
        let sink = buf.sink();
        let mut req = JobRequest::micro(
            "b",
            vec![Config::ArmVm, Config::ArmNestedV83],
            vec![Bench::Hypercall],
        );
        req.budget = Some(2000); // admits ArmVm (98 steps), starves nested
        engine.submit(req, &sink);
        engine.drain();
        let events = parse_events(&buf.text());
        let done = done_of(&events, "b");
        assert_eq!(done.get("ok").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(done.get("failed").and_then(|v| v.as_u64()), Some(1));
        assert!(events.iter().any(|e| {
            str_of(e, "config") == Config::ArmNestedV83.label()
                && str_of(e, "status") == "failed"
                && !str_of(e, "error").is_empty()
        }));
    }

    #[test]
    fn cancel_streams_cancelled_cells_and_orphans_queued_work() {
        let fp = neve_cycles::CostModel::default().fingerprint();
        // Zero workers: everything stays queued, so cancellation is
        // fully deterministic.
        let engine = JobEngine::new(0, fp, None, 64);
        let buf = SharedBuf::default();
        let sink = buf.sink();
        engine.submit(
            JobRequest::micro(
                "c",
                vec![Config::X86Vm],
                vec![Bench::Hypercall, Bench::DeviceIo],
            ),
            &sink,
        );
        engine.cancel("c", &sink);
        engine.drain(); // returns immediately: cancel finalized it
        let events = parse_events(&buf.text());
        let done = done_of(&events, "c");
        assert_eq!(done.get("cancelled").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            events
                .iter()
                .filter(|e| str_of(e, "status") == "cancelled")
                .count(),
            2
        );
        // Cancelling an unknown id is a structured error, not a panic.
        engine.cancel("ghost", &sink);
        let events = parse_events(&buf.text());
        assert!(events
            .iter()
            .any(|e| str_of(e, "event") == "error" && str_of(e, "id") == "ghost"));
    }

    /// A zero-worker engine capped at two queued cells, and a sink to
    /// read its events back.
    fn capped_engine() -> (JobEngine, SharedBuf, Sink) {
        let fp = neve_cycles::CostModel::default().fingerprint();
        let buf = SharedBuf::default();
        let sink = buf.sink();
        (JobEngine::new(0, fp, None, 2), buf, sink)
    }

    fn two_x86_cells(id: &str, benches: [Bench; 2]) -> JobRequest {
        JobRequest::micro(id, vec![Config::X86Vm], benches.to_vec())
    }

    fn event_kinds(buf: &SharedBuf, id: &str) -> Vec<String> {
        let events = parse_events(&buf.text());
        events_for(&events, id)
            .into_iter()
            .map(|e| str_of(e, "event").to_string())
            .collect()
    }

    #[test]
    fn cancelled_cells_free_their_queue_capacity() {
        let (engine, buf, sink) = capped_engine();
        let cells = [Bench::Hypercall, Bench::DeviceIo];
        engine.submit(two_x86_cells("c", cells), &sink);
        engine.cancel("c", &sink);
        engine.submit(two_x86_cells("d", cells), &sink);
        assert_eq!(event_kinds(&buf, "d"), ["accepted"], "{}", buf.text());
    }

    #[test]
    fn a_request_that_only_coalesces_is_admitted_at_the_cap() {
        let (engine, buf, sink) = capped_engine();
        let cells = [Bench::Hypercall, Bench::DeviceIo];
        engine.submit(two_x86_cells("a", cells), &sink);
        engine.submit(two_x86_cells("b", cells), &sink);
        assert_eq!(event_kinds(&buf, "b"), ["accepted"], "{}", buf.text());
    }

    #[test]
    fn a_refused_request_streams_one_error_and_no_accepted() {
        let (engine, buf, sink) = capped_engine();
        engine.submit(
            two_x86_cells("a", [Bench::Hypercall, Bench::DeviceIo]),
            &sink,
        );
        engine.submit(
            two_x86_cells("r", [Bench::VirtualIpi, Bench::VirtualEoi]),
            &sink,
        );
        assert_eq!(event_kinds(&buf, "r"), ["error"], "{}", buf.text());
        // The refusal leaves no request behind for `drain` to wait on.
        engine.cancel("a", &sink);
        engine.drain();
    }

    #[test]
    fn the_line_protocol_streams_errors_and_results() {
        let fp = neve_cycles::CostModel::default().fingerprint();
        let engine = JobEngine::new(1, fp, None, 64);
        let buf = SharedBuf::default();
        let sink = buf.sink();
        let input = "not json\n\
                     {\"id\":\"p\",\"configs\":[\"x86-vm\"],\"benches\":[\"hypercall\"]}\n\
                     {\"id\":\"bad\",\"configs\":[\"warp-drive\"]}\n";
        run_protocol(std::io::BufReader::new(input.as_bytes()), &sink, &engine);
        let events = parse_events(&buf.text());
        assert!(events
            .iter()
            .any(|e| str_of(e, "event") == "error" && str_of(e, "error").contains("JSON")));
        assert!(events
            .iter()
            .any(|e| str_of(e, "event") == "error" && str_of(e, "error").contains("warp-drive")));
        let done = done_of(&events, "p");
        assert_eq!(done.get("ok").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn campaign_job_kinds_stream_one_error_and_no_accepted() {
        let fp = neve_cycles::CostModel::default().fingerprint();
        let engine = JobEngine::new(1, fp, None, 64);
        for job in ["faults", "fuzz", "consolidate", "bench-sim"] {
            let buf = SharedBuf::default();
            let line = format!("{{\"id\":\"c\",\"job\":\"{job}\"}}\n");
            run_protocol(
                std::io::BufReader::new(line.as_bytes()),
                &buf.sink(),
                &engine,
            );
            let events = parse_events(&buf.text());
            assert_eq!(events.len(), 1, "{job}: {}", buf.text());
            assert_eq!(str_of(&events[0], "event"), "error");
            assert_eq!(str_of(&events[0], "error"), format!("unknown job `{job}`"));
        }
        assert_eq!(engine.computed(), 0);
    }

    #[test]
    fn disk_tier_serves_a_valid_cache_file_verbatim() {
        let fp = neve_cycles::CostModel::default().fingerprint();
        let dir = std::env::temp_dir().join(format!("neve-serve-disk-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("micro_matrix.json");
        // Seed the disk tier with a measured matrix.
        let text = cache::to_json(&MicroMatrix::measure(), fp);
        cache::write_atomically(&path, &text).unwrap();

        let engine = JobEngine::new(1, fp, Some(path.clone()), 64);
        let buf = SharedBuf::default();
        let sink = buf.sink();
        engine.submit(
            JobRequest::micro("d", Config::all().to_vec(), Bench::all().to_vec()),
            &sink,
        );
        engine.drain();
        assert_eq!(
            engine.computed(),
            0,
            "a valid matrix file costs no computation"
        );
        let events = parse_events(&buf.text());
        let cells: Vec<_> = events
            .iter()
            .filter(|e| str_of(e, "event") == "cell")
            .collect();
        assert_eq!(cells.len(), Config::all().len() * 4);
        assert!(cells.iter().all(|e| str_of(e, "source") == "disk"));
        assert_eq!(str_of(done_of(&events, "d"), "matrix"), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_connections_share_the_coalescing_store() {
        let fp = neve_cycles::CostModel::default().fingerprint();
        let engine = Arc::new(JobEngine::new(1, fp, None, 64));
        let Ok((addr, _accept)) = listen(Arc::clone(&engine), "127.0.0.1:0") else {
            eprintln!("skipping: cannot bind a loopback listener in this sandbox");
            return;
        };
        let ask = |id: &str| -> Vec<String> {
            use std::io::{BufRead, BufReader, Write};
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            writeln!(
                conn,
                "{{\"id\":\"{id}\",\"configs\":[\"x86-vm\"],\"benches\":[\"hypercall\"]}}"
            )
            .unwrap();
            let mut lines = Vec::new();
            for line in BufReader::new(conn.try_clone().unwrap()).lines() {
                let line = line.unwrap();
                let is_done = line.contains("\"done\"");
                lines.push(line);
                if is_done {
                    break;
                }
            }
            lines
        };
        let first = ask("t1");
        let second = ask("t2");
        assert!(first.iter().any(|l| l.contains("\"measured\"")));
        assert!(
            second.iter().any(|l| l.contains("\"memory\"")),
            "the second connection must hit the shared store: {second:?}"
        );
        assert_eq!(engine.computed(), 1);
    }
}
