//! The `das-serve` server: a thread-per-connection TCP front end over the
//! shared simulation state, with bounded admission, streaming results and
//! graceful drain.
//!
//! ## Shape
//!
//! One [`Server`] owns the process-wide state every connection shares:
//! the job [`Registry`] (+ condvar for state-change waits), which is also
//! the work queue its `threads` workers take jobs from in admission
//! order, the memoized [`ProfileCache`], the optional content-addressed
//! [`TraceStore`], the fsync'd [`ServiceJournal`] audit trail, and the
//! [`Metrics`] behind the `stats` request. The experiment catalog is
//! compiled in (loaded once by construction); submitting the same
//! experiment twice shares the profile memo and trace store, not the
//! jobs.
//!
//! ## Admission and backpressure
//!
//! Capacity bounds *outstanding* jobs (queued + running). A submission
//! that would exceed it is rejected with a structured `busy` error
//! carrying `retry_after_ms` — never blocked, never dropped — and a batch
//! is admitted atomically or not at all, so a rejected client retries the
//! whole submission. A batch larger than the capacity itself could never
//! be admitted, so it gets `bad_request` instead: `busy` always means a
//! retry can succeed. While draining, every submission gets `draining`.
//!
//! ## Determinism
//!
//! [`das_harness::runner::execute`] is a pure function of the job spec
//! (the shared profile memo and trace store are themselves
//! deterministic), so a report fetched from the server renders
//! byte-identically to one computed by a direct `harness` run — the
//! loopback tests and the CI smoke job lock this. Ticket prefixes
//! (`t3/<job-id>`) keep concurrent submissions of the same experiment
//! distinct without touching report bytes.
//!
//! ## Drain
//!
//! A `drain` request (the protocol's SIGTERM equivalent) stops admission,
//! lets in-flight and queued jobs finish, journals `drained`, and wakes
//! the accept loop and the workers so [`Server::run`] returns — the
//! process exits 0 with every admitted job at a terminal, journalled
//! state.
//!
//! Lock order is `registry → journal` everywhere (admission and job
//! completion both write the journal while holding the registry), which
//! also guarantees the journal's terminal line is on disk before a job
//! becomes observably terminal: when drain sees every job terminal, the
//! journal is complete.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use das_harness::cli::build_catalog_manifest;
use das_harness::journal::{ServiceJournal, ServiceSummary};
use das_harness::manifest::JobSpec;
use das_harness::profile::ProfileCache;
use das_harness::runner;
use das_telemetry::json::Value;
use das_trace::TraceStore;

use crate::proto::{self, code, ProtoError};
use crate::state::{JobState, Metrics, Registry};

/// File name of the service journal inside the output directory.
pub const SERVE_JOURNAL_NAME: &str = "serve-journal.jsonl";

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulation worker threads.
    pub threads: usize,
    /// Maximum outstanding (queued + running) jobs; submissions beyond
    /// this get a structured `busy` rejection.
    pub capacity: usize,
    /// Output directory: service journal plus job side-effect exports.
    pub out_dir: PathBuf,
    /// Content-addressed trace store directory (optional).
    pub trace_store_dir: Option<PathBuf>,
    /// Per-connection read/idle timeout: a connection silent this long is
    /// closed.
    pub read_timeout: Duration,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
    /// The `retry_after_ms` hint sent with `busy` rejections.
    pub retry_after_ms: u64,
    /// Resume an existing service journal instead of truncating it:
    /// torn-tail-truncate, journal a `restart` marker, and re-drive every
    /// orphaned job whose admission carried a spec (crash recovery).
    pub resume_journal: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 2,
            capacity: 16,
            out_dir: PathBuf::from("."),
            trace_store_dir: None,
            read_timeout: Duration::from_secs(30),
            max_frame: proto::DEFAULT_MAX_FRAME,
            retry_after_ms: 250,
            resume_journal: false,
        }
    }
}

/// Locks a mutex, recovering from poisoning. Registry, journal and
/// metrics updates are single multi-field writes completed before any
/// unwind point (the simulation itself runs outside these locks, wrapped
/// in `catch_unwind`), so a poisoned lock still guards consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Shared {
    cfg: ServerConfig,
    registry: Mutex<Registry>,
    /// Notified on every registry transition (admission included), on
    /// drain and on stop; workers wait on it for queued jobs.
    changed: Condvar,
    journal: Mutex<ServiceJournal>,
    metrics: Mutex<Metrics>,
    profiles: ProfileCache,
    store: Option<TraceStore>,
    draining: AtomicBool,
    /// Set once drained (or when a server is dropped without running):
    /// the accept loop and the workers exit, and connections stop picking
    /// up new requests. Set under the registry lock, so a worker never
    /// misses it between its check and its wait.
    stop: AtomicBool,
    tickets: AtomicU64,
    /// Read-halves of live connections, shut down on stop so handlers
    /// blocked in a read see EOF instead of holding shutdown for up to
    /// `read_timeout` (a drained server exits promptly).
    conn_socks: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
    /// When this incarnation bound its listener; `stats` reports the
    /// elapsed time as `uptime_ms`.
    started: Instant,
}

/// A bound server: its workers already run re-driven orphans, and
/// [`Server::run`] starts accepting connections.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), initializes the
    /// shared state (output directory, service journal, optional trace
    /// store) and starts `cfg.threads` workers.
    ///
    /// # Errors
    ///
    /// Readable messages for bind, directory, journal or store failures.
    pub fn bind(addr: &str, cfg: ServerConfig) -> Result<Server, String> {
        std::fs::create_dir_all(&cfg.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
        let journal_path = cfg.out_dir.join(SERVE_JOURNAL_NAME);
        let (mut journal, summary) = if cfg.resume_journal {
            ServiceJournal::resume(&journal_path)?
        } else {
            (
                ServiceJournal::create(&journal_path)?,
                ServiceSummary::default(),
            )
        };
        if summary.admitted > 0 {
            journal.marker("restart")?;
        }
        // Tickets resume past every number a prior incarnation can have
        // used (one ticket per admitted batch, each batch >= 1 job), so
        // fresh admissions never collide with journalled ids.
        let admitted_before = summary.admitted;
        let store = match &cfg.trace_store_dir {
            Some(dir) => Some(
                TraceStore::open(dir)
                    .map_err(|e| format!("cannot open trace store {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        // Orphans whose admission carried a spec are re-queued in journal
        // order (their admit line is already journalled; only a terminal
        // event is owed). Spec-less orphans cannot be re-driven: close them
        // as failed so the journal validates clean and clients resubmit.
        let mut registry = Registry::default();
        let mut recovered = 0u64;
        for (id, spec) in summary.orphan_specs {
            match spec.as_ref().map(JobSpec::from_value) {
                Some(Ok(spec)) => {
                    registry.insert_queued(id, spec);
                    recovered += 1;
                }
                _ => {
                    journal.terminal("failed", &id, Some("job spec lost across restart"))?;
                }
            }
        }
        let shared = Arc::new(Shared {
            cfg,
            registry: Mutex::new(registry),
            changed: Condvar::new(),
            journal: Mutex::new(journal),
            metrics: Mutex::new(Metrics::default()),
            profiles: ProfileCache::new(),
            store,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            tickets: AtomicU64::new(admitted_before),
            conn_socks: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
            started: Instant::now(),
        });
        lock(&shared.metrics).recovered = recovered;
        let workers = (0..shared.cfg.threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker(&shared))
            })
            .collect();
        Ok(Server {
            listener,
            shared,
            workers,
        })
    }

    /// The bound address (interesting with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS lookup failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until drained: accepts connections (one thread each),
    /// and returns once a `drain` request has been honoured — admission
    /// stopped, every admitted job terminal, journal flushed, workers
    /// joined.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop failures only; per-connection and per-job
    /// failures are answered in-protocol.
    pub fn run(mut self) -> Result<(), String> {
        let addr = self
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let shared = Arc::clone(&self.shared);
        let completer = std::thread::spawn(move || drain_completer(&shared, addr));
        let mut conns = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(s) => {
                    let id = self.shared.conn_seq.fetch_add(1, Ordering::SeqCst);
                    if let Ok(dup) = s.try_clone() {
                        lock(&self.shared.conn_socks).insert(id, dup);
                    }
                    let shared = Arc::clone(&self.shared);
                    conns.push(std::thread::spawn(move || {
                        handle_connection(&shared, s);
                        lock(&shared.conn_socks).remove(&id);
                    }));
                }
                Err(e) => {
                    eprintln!("das-serve: accept failed: {e}");
                }
            }
        }
        // Drained: all jobs terminal, journal complete. Shut down the
        // read half of every live connection so handlers blocked in a
        // read return *now* (in-flight response writes still complete),
        // then join what's left.
        for sock in lock(&self.shared.conn_socks).values() {
            let _ = sock.shutdown(std::net::Shutdown::Read);
        }
        for h in conns {
            let _ = h.join();
        }
        let _ = completer.join();
        self.stop_workers();
        Ok(())
    }

    /// Sets `stop` and joins the workers. A worker finishes the job it is
    /// running; jobs still queued stay journalled orphans, which a server
    /// resumed on the same journal re-drives. Idempotent.
    fn stop_workers(&mut self) {
        {
            let _reg = lock(&self.shared.registry);
            self.shared.stop.store(true, Ordering::SeqCst);
        }
        self.shared.changed.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    /// A server dropped without [`Server::run`] still stops its workers.
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// One worker: takes the oldest queued job from the registry and runs it,
/// until `stop` is set.
fn worker(shared: &Arc<Shared>) {
    loop {
        let (id, spec) = {
            let mut reg = lock(&shared.registry);
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = reg.start_next() {
                    break job;
                }
                reg = shared.changed.wait(reg).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.changed.notify_all();
        run_job(shared, &id, &spec);
    }
}

/// Waits for "draining and nothing outstanding", journals `drained`, and
/// wakes the blocked accept loop with a self-connection.
fn drain_completer(shared: &Arc<Shared>, addr: SocketAddr) {
    let mut reg = lock(&shared.registry);
    loop {
        if shared.draining.load(Ordering::SeqCst) && reg.outstanding() == 0 {
            break;
        }
        reg = shared
            .changed
            .wait_timeout(reg, Duration::from_millis(200))
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
    {
        let mut jr = lock(&shared.journal);
        if let Err(e) = jr.marker("drained") {
            eprintln!("das-serve: {e}");
        }
    }
    shared.stop.store(true, Ordering::SeqCst);
    drop(reg);
    shared.changed.notify_all();
    // The accept loop is blocked in accept(); a throwaway connection
    // wakes it so it can observe `stop`.
    let _ = TcpStream::connect(addr);
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let req = match proto::read_frame(&mut reader, shared.cfg.max_frame) {
            Ok(v) => v,
            Err(ProtoError::Closed) => return,
            Err(ProtoError::Io(_)) => return, // disconnect mid-frame or idle timeout
            Err(ProtoError::Malformed { msg, recoverable }) => {
                lock(&shared.metrics).malformed_frames += 1;
                let c = if msg.contains("UTF-8") || msg.contains("JSON") {
                    code::PARSE
                } else {
                    code::FRAME
                };
                if proto::write_frame(&mut writer, &proto::error(c, &msg)).is_err() || !recoverable
                {
                    return;
                }
                continue;
            }
        };
        let start = Instant::now();
        let kind = req
            .get("kind")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let keep = match handle_request(shared, &req, &kind, &mut writer) {
            Ok(()) => true,
            Err(_) => false, // client went away mid-response
        };
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        lock(&shared.metrics).record_request(&kind, micros);
        if !keep {
            return;
        }
    }
}

/// Dispatches one request; everything but `stream` writes exactly one
/// response frame. Returns `Err` only on transport failure.
fn handle_request(
    shared: &Arc<Shared>,
    req: &Value,
    kind: &str,
    writer: &mut TcpStream,
) -> std::io::Result<()> {
    if let Err(resp) = proto::check_version(req) {
        return proto::write_frame(writer, &resp);
    }
    match kind {
        "submit_job" => {
            let resp = handle_submit_job(shared, req);
            proto::write_frame(writer, &resp)
        }
        "submit_experiment" => {
            let resp = handle_submit_experiment(shared, req);
            proto::write_frame(writer, &resp)
        }
        "status" => {
            let resp = handle_status(shared, req);
            proto::write_frame(writer, &resp)
        }
        "stream" => handle_stream(shared, req, writer),
        "cancel" => {
            let resp = handle_cancel(shared, req);
            proto::write_frame(writer, &resp)
        }
        "ping" => {
            let resp = proto::ok("pong")
                .set("pid", u64::from(std::process::id()))
                .set("draining", shared.draining.load(Ordering::SeqCst))
                .set("outstanding", lock(&shared.registry).outstanding());
            proto::write_frame(writer, &resp)
        }
        "stats" => {
            let resp = handle_stats(shared);
            proto::write_frame(writer, &resp)
        }
        "metrics" => {
            // Prometheus-style projection of the same stats document —
            // two encodings, one source of numbers.
            let stats = handle_stats(shared);
            let resp = proto::ok("metrics")
                .set("content_type", crate::metrics_text::CONTENT_TYPE)
                .set("body", crate::metrics_text::render(&stats));
            proto::write_frame(writer, &resp)
        }
        "list" => {
            let resp = handle_list(shared);
            proto::write_frame(writer, &resp)
        }
        "drain" => handle_drain(shared, req, writer),
        other => proto::write_frame(
            writer,
            &proto::error(
                code::BAD_REQUEST,
                &format!("unknown request kind {other:?}"),
            ),
        ),
    }
}

/// Admits a batch of jobs atomically: capacity-checked, journalled and
/// queued in the registry under one ticket, then the workers are woken.
/// `Err` carries
/// the ready-made rejection response (`bad_request` for a batch larger
/// than the whole capacity, `draining`, `busy`, `internal`).
fn admit(shared: &Arc<Shared>, specs: Vec<JobSpec>) -> Result<(u64, Vec<String>), Value> {
    if specs.is_empty() {
        return Err(proto::error(code::BAD_REQUEST, "nothing to admit"));
    }
    if specs.len() > shared.cfg.capacity {
        // No retry can ever admit this batch, so it is not `busy`.
        return Err(proto::error(
            code::BAD_REQUEST,
            &format!(
                "batch of {} jobs exceeds capacity {}",
                specs.len(),
                shared.cfg.capacity
            ),
        ));
    }
    let mut reg = lock(&shared.registry);
    if shared.draining.load(Ordering::SeqCst) {
        lock(&shared.metrics).rejected_draining += 1;
        return Err(proto::error(
            code::DRAINING,
            "server is draining and admits no new work",
        ));
    }
    let outstanding = reg.outstanding();
    if outstanding + specs.len() > shared.cfg.capacity {
        lock(&shared.metrics).rejected_busy += 1;
        return Err(proto::busy(
            &format!(
                "{} outstanding + {} submitted exceeds capacity {}",
                outstanding,
                specs.len(),
                shared.cfg.capacity
            ),
            shared.cfg.retry_after_ms,
        ));
    }
    let ticket = shared.tickets.fetch_add(1, Ordering::SeqCst) + 1;
    let ids: Vec<String> = specs
        .iter()
        .map(|s| format!("t{ticket}/{}", s.id))
        .collect();
    {
        let mut jr = lock(&shared.journal);
        for (id, spec) in ids.iter().zip(&specs) {
            if let Err(e) = jr.admit_with_spec(id, &spec.to_value()) {
                return Err(proto::error(code::INTERNAL, &e));
            }
        }
    }
    for (id, spec) in ids.iter().zip(specs) {
        reg.insert_queued(id.clone(), spec);
    }
    lock(&shared.metrics).admitted += ids.len() as u64;
    drop(reg);
    shared.changed.notify_all();
    Ok((ticket, ids))
}

/// Executes one started job on a worker: runs the simulation with the
/// server's only panic containment, journals the terminal event and
/// publishes the outcome.
fn run_job(shared: &Arc<Shared>, id: &str, spec: &JobSpec) {
    let exec_start = Instant::now();
    let outcome = match catch_unwind(AssertUnwindSafe(|| {
        runner::execute(
            spec,
            &shared.profiles,
            &shared.cfg.out_dir,
            shared.store.as_ref(),
        )
    })) {
        Ok(r) => r,
        Err(p) => {
            let what = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(format!("job panicked: {what}"))
        }
    };
    let wall_ms = u64::try_from(exec_start.elapsed().as_millis()).unwrap_or(u64::MAX);
    {
        let mut m = lock(&shared.metrics);
        m.record_job_wall(wall_ms);
        if let Ok(report) = &outcome {
            m.record_coherence(report);
            m.record_policy(report);
        }
    }
    let mut reg = lock(&shared.registry);
    {
        let mut jr = lock(&shared.journal);
        let (event, err) = match &outcome {
            Ok(_) => ("done", None),
            Err(e) => ("failed", Some(e.as_str())),
        };
        if let Err(e) = jr.terminal(event, id, err) {
            eprintln!("das-serve: {e}");
        }
    }
    reg.finish(id, outcome);
    drop(reg);
    shared.changed.notify_all();
}

fn handle_submit_job(shared: &Arc<Shared>, req: &Value) -> Value {
    let Some(job) = req.get("job") else {
        return proto::error(code::BAD_REQUEST, "submit_job needs a \"job\" object");
    };
    let spec = match JobSpec::from_value(job) {
        Ok(s) => s,
        Err(e) => return proto::error(code::BAD_REQUEST, &format!("bad job spec: {e}")),
    };
    match admit(shared, vec![spec]) {
        Ok((ticket, ids)) => proto::ok("submit_job")
            .set("ticket", ticket)
            .set("job", ids[0].as_str()),
        Err(resp) => resp,
    }
}

fn handle_submit_experiment(shared: &Arc<Shared>, req: &Value) -> Value {
    let ids: Vec<String> = match req.get("exp").and_then(Value::as_arr) {
        Some(arr) => match arr
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
        {
            Some(ids) => ids,
            None => return proto::error(code::BAD_REQUEST, "\"exp\" must be an array of strings"),
        },
        None => {
            return proto::error(
                code::BAD_REQUEST,
                "submit_experiment needs an \"exp\" array of experiment ids",
            )
        }
    };
    let insts = req
        .get("insts")
        .and_then(Value::as_u64)
        .unwrap_or(3_000_000);
    let scale = match u32::try_from(req.get("scale").and_then(Value::as_u64).unwrap_or(64)) {
        Ok(s) => s,
        Err(_) => return proto::error(code::BAD_REQUEST, "\"scale\" out of range"),
    };
    let only: Vec<String> = req
        .get("only")
        .and_then(Value::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let manifest = match build_catalog_manifest(&ids, insts, scale, &only) {
        Ok(m) => m,
        Err(e) => return proto::error(code::NOT_FOUND, &e),
    };
    if let Err(e) = manifest.validate() {
        return proto::error(code::BAD_REQUEST, &format!("invalid run matrix: {e}"));
    }
    let specs: Vec<JobSpec> = manifest
        .experiments
        .iter()
        .flat_map(|e| e.jobs.iter().cloned())
        .collect();
    match admit(shared, specs) {
        Ok((ticket, ids)) => proto::ok("submit_experiment").set("ticket", ticket).set(
            "jobs",
            Value::Arr(ids.iter().map(|i| Value::Str(i.clone())).collect()),
        ),
        Err(resp) => resp,
    }
}

fn handle_status(shared: &Arc<Shared>, req: &Value) -> Value {
    let Some(id) = req.get("job").and_then(Value::as_str) else {
        return proto::error(code::BAD_REQUEST, "status needs a \"job\" id");
    };
    let reg = lock(&shared.registry);
    match reg.entry(id) {
        Some(e) => {
            let mut resp = proto::ok("status")
                .set("job", id)
                .set("state", e.state.as_str());
            if let Some(err) = &e.error {
                resp = resp.set("error", err.as_str());
            }
            resp
        }
        None => proto::error(code::NOT_FOUND, &format!("unknown job {id:?}")),
    }
}

fn handle_cancel(shared: &Arc<Shared>, req: &Value) -> Value {
    let Some(id) = req.get("job").and_then(Value::as_str) else {
        return proto::error(code::BAD_REQUEST, "cancel needs a \"job\" id");
    };
    let mut reg = lock(&shared.registry);
    let Some(entry) = reg.entry(id) else {
        return proto::error(code::NOT_FOUND, &format!("unknown job {id:?}"));
    };
    let was = entry.state;
    if was == JobState::Queued {
        {
            let mut jr = lock(&shared.journal);
            if let Err(e) = jr.terminal("cancelled", id, None) {
                return proto::error(code::INTERNAL, &e);
            }
        }
        reg.cancel_queued(id);
        drop(reg);
        shared.changed.notify_all();
        proto::ok("cancel")
            .set("job", id)
            .set("cancelled", true)
            .set("state", JobState::Cancelled.as_str())
    } else {
        // Running jobs run to completion; terminal jobs stay as they are.
        proto::ok("cancel")
            .set("job", id)
            .set("cancelled", false)
            .set("state", was.as_str())
    }
}

fn handle_stats(shared: &Arc<Shared>) -> Value {
    let counts = lock(&shared.registry).counts();
    let m = lock(&shared.metrics);
    let mut resp = proto::ok("stats")
        .set("capacity", shared.cfg.capacity)
        .set("threads", shared.cfg.threads)
        .set("pid", u64::from(std::process::id()))
        .set(
            "uptime_ms",
            u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX),
        )
        .set("draining", shared.draining.load(Ordering::SeqCst))
        .set(
            "jobs",
            Value::obj()
                .set("queued", counts.queued)
                .set("running", counts.running)
                .set("done", counts.done)
                .set("failed", counts.failed)
                .set("cancelled", counts.cancelled),
        )
        .set(
            "admission",
            Value::obj()
                .set("admitted", m.admitted)
                .set("rejected_busy", m.rejected_busy)
                .set("rejected_draining", m.rejected_draining)
                .set("recovered", m.recovered),
        )
        .set("malformed_frames", m.malformed_frames)
        .set("request_latency_us", m.latency_value())
        .set("job_latency_ms", m.job_latency_value());
    if let Some(c) = m.coherence_value() {
        resp = resp.set("coherence", c);
    }
    if let Some(p) = m.policy_value() {
        resp = resp.set("policy", p);
    }
    if let Some(store) = &shared.store {
        let s = store.stats();
        resp = resp.set(
            "trace_store",
            Value::obj()
                .set("hits", s.hits)
                .set("misses", s.misses)
                .set("bytes_written", s.bytes_written)
                .set("bytes_read", s.bytes_read)
                .set("locks_reclaimed", s.locks_reclaimed)
                .set("lock_waits", s.lock_waits),
        );
    }
    resp
}

fn handle_list(shared: &Arc<Shared>) -> Value {
    let reg = lock(&shared.registry);
    let jobs: Vec<Value> = reg
        .list()
        .into_iter()
        .map(|(id, state)| Value::obj().set("job", id).set("state", state.as_str()))
        .collect();
    proto::ok("list").set("jobs", Value::Arr(jobs))
}

fn handle_drain(shared: &Arc<Shared>, req: &Value, writer: &mut TcpStream) -> std::io::Result<()> {
    let first = !shared.draining.swap(true, Ordering::SeqCst);
    if first {
        let mut jr = lock(&shared.journal);
        if let Err(e) = jr.marker("drain") {
            eprintln!("das-serve: {e}");
        }
    }
    shared.changed.notify_all();
    let wait = req.get("wait").and_then(Value::as_bool).unwrap_or(false);
    if wait {
        let mut reg = lock(&shared.registry);
        while reg.outstanding() > 0 {
            reg = shared
                .changed
                .wait_timeout(reg, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
    let outstanding = lock(&shared.registry).outstanding();
    proto::write_frame(
        writer,
        &proto::ok("drain")
            .set("draining", true)
            .set("outstanding", outstanding),
    )
}

/// Streams job outcomes: after an ack frame, emits a `progress` frame
/// when a watched job starts running, a `result` frame (with report or
/// error) when it reaches a terminal state, in the requested job order,
/// then a final `stream_end` frame. Unknown ids fail the whole request
/// up front with `not_found`.
fn handle_stream(shared: &Arc<Shared>, req: &Value, writer: &mut TcpStream) -> std::io::Result<()> {
    let ids: Option<Vec<String>> = req.get("jobs").and_then(Value::as_arr).map(|arr| {
        arr.iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect()
    });
    let Some(ids) = ids.filter(|ids| !ids.is_empty()) else {
        return proto::write_frame(
            writer,
            &proto::error(code::BAD_REQUEST, "stream needs a non-empty \"jobs\" array"),
        );
    };
    {
        let reg = lock(&shared.registry);
        if let Some(bad) = ids.iter().find(|id| reg.entry(id).is_none()) {
            return proto::write_frame(
                writer,
                &proto::error(code::NOT_FOUND, &format!("unknown job {bad:?}")),
            );
        }
    }
    proto::write_frame(writer, &proto::ok("stream").set("jobs", ids.len()))?;
    for id in &ids {
        let mut reported_running = false;
        loop {
            enum Step {
                Wait,
                Progress,
                Result(Value),
            }
            let step = {
                let mut reg = lock(&shared.registry);
                loop {
                    // Entry is guaranteed present (validated above;
                    // entries are never removed).
                    let Some(e) = reg.entry(id) else {
                        break Step::Wait;
                    };
                    match e.state {
                        JobState::Queued => {}
                        JobState::Running if reported_running => {}
                        JobState::Running => break Step::Progress,
                        state => {
                            let mut frame = proto::ok("result")
                                .set("job", id.as_str())
                                .set("state", state.as_str());
                            if let Some(r) = &e.report {
                                frame = frame.set("report", r.clone());
                            }
                            if let Some(err) = &e.error {
                                frame = frame.set("error", err.as_str());
                            }
                            break Step::Result(frame);
                        }
                    }
                    reg = shared
                        .changed
                        .wait_timeout(reg, Duration::from_millis(100))
                        .unwrap_or_else(|p| p.into_inner())
                        .0;
                }
            };
            match step {
                Step::Wait => {}
                Step::Progress => {
                    reported_running = true;
                    proto::write_frame(
                        writer,
                        &proto::ok("progress")
                            .set("job", id.as_str())
                            .set("state", JobState::Running.as_str()),
                    )?;
                }
                Step::Result(frame) => {
                    proto::write_frame(writer, &frame)?;
                    break;
                }
            }
        }
    }
    proto::write_frame(writer, &proto::ok("stream_end"))
}
