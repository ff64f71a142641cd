//! The daemon: accept loop, connection handlers, runner threads,
//! timeout watchdog, graceful shutdown.
//!
//! # Scheduling
//!
//! A fixed set of `runners` threads pops jobs from the bounded queue.
//! Runner `i` executes its job under
//! `with_worker_limit(worker_shares(worker_count(), runners)[i])` — the
//! eval harness's remainder-distributing share logic — so concurrent
//! jobs share the persistent pool without oversubscribing it, and
//! because every inner parallel region is bit-identical at any worker
//! limit, a job's result does not depend on which runner executed it or
//! what else was running. That is the daemon's determinism contract:
//! N concurrent submissions produce byte-identical result lines to N
//! serial ones.
//!
//! # Cancellation paths
//!
//! All four teardown paths converge on the job's [`CancelToken`], which
//! the optimizer polls at iteration boundaries:
//!
//! * client `cancel` request → token flipped by the connection thread;
//! * request timeout → token flipped by the watchdog;
//! * client disconnect (streaming jobs) → socket write fails, the
//!   hardened `JsonlSink` latches the error, [`StreamSink`] flips the
//!   token;
//! * daemon shutdown → every active token flipped, queue drained.

use crate::cache::SimulatorCache;
use crate::protocol::{self, JobSpec, Request};
use crate::queue::{JobQueue, PushError};
use crate::stream::{SharedWriter, StreamSink};
use cfaopc_core::{run_circleopt, CircleOptConfig, CircleOptResult, RunCtx};
use cfaopc_fft::parallel::{with_worker_limit, worker_count, worker_shares};
use cfaopc_litho::{CancelToken, LithoError};
use cfaopc_metrics::{evaluate_mask, EpeConfig};
use cfaopc_trace::TelemetrySink;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration. `Default` binds an ephemeral loopback port
/// with a 32-deep queue, auto-sized runners and no default timeout.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; loopback by default (the daemon trusts its peers —
    /// binding wider is an explicit operator decision).
    pub addr: String,
    /// Bounded queue depth; a full queue rejects submissions.
    pub queue_capacity: usize,
    /// Concurrent jobs (runner threads); `0` = auto
    /// (`worker_count()` capped at 4).
    pub runners: usize,
    /// Default per-job timeout (ms) when a submit does not set one;
    /// `None` = no timeout.
    pub default_timeout_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 32,
            runners: 0,
            default_timeout_ms: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
}

struct JobEntry {
    id: String,
    cancel: CancelToken,
    state: JobState,
    deadline: Option<Instant>,
    timed_out: bool,
}

/// A job as it sits in the queue: parsed spec, its cancel token, and
/// the submitting connection's shared writer for responses.
struct QueuedJob {
    spec: JobSpec,
    cancel: CancelToken,
    writer: SharedWriter<TcpStream>,
}

/// Keep at most this many finished registry entries (oldest pruned);
/// active entries are never pruned.
const DONE_RETENTION: usize = 4096;

struct State {
    queue: JobQueue<QueuedJob>,
    registry: Mutex<Vec<JobEntry>>,
    cache: SimulatorCache,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    runners: usize,
    default_timeout_ms: Option<u64>,
}

impl State {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

/// Handle to a daemon running on a background thread (tests, embedders).
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to shut down (send it a `shutdown` request
    /// first).
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O error, if any.
    pub fn join(self) -> std::io::Result<()> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("daemon thread panicked")),
        }
    }
}

impl Server {
    /// Binds the listener and prepares shared state (no threads yet).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let runners = if config.runners == 0 {
            worker_count().min(4)
        } else {
            config.runners
        };
        let state = Arc::new(State {
            queue: JobQueue::new(config.queue_capacity),
            registry: Mutex::new(Vec::new()),
            cache: SimulatorCache::new(),
            shutdown: AtomicBool::new(false),
            local_addr,
            runners,
            default_timeout_ms: config.default_timeout_ms,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Runs the daemon on the calling thread until a `shutdown` request
    /// arrives; runner and watchdog threads are joined before returning.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors other than transient
    /// per-connection failures (which are skipped).
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, state } = self;
        let shares = worker_shares(worker_count(), state.runners);
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(state.runners + 1);
        for &share in shares.iter().take(state.runners) {
            let state = Arc::clone(&state);
            workers.push(std::thread::spawn(move || runner_loop(&state, share)));
        }
        {
            let state = Arc::clone(&state);
            workers.push(std::thread::spawn(move || watchdog_loop(&state)));
        }

        for incoming in listener.incoming() {
            if state.shutting_down() {
                break;
            }
            match incoming {
                Ok(stream) => {
                    let state = Arc::clone(&state);
                    // Connection threads are detached: they exit on
                    // client EOF or shutdown, and hold no state the
                    // joiners below wait on.
                    std::thread::spawn(move || handle_connection(&state, stream));
                }
                Err(_) => continue,
            }
        }

        for handle in workers {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Binds and runs on a background thread; returns once the address
    /// is known.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle { addr, thread })
    }
}

// --- connection handling ----------------------------------------------------

fn handle_connection(state: &Arc<State>, stream: TcpStream) {
    let writer = match stream.try_clone() {
        Ok(clone) => SharedWriter::new(clone),
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match Request::parse(trimmed) {
            Err(message) => {
                let _ = writer.send(&protocol::error(&message));
            }
            Ok(Request::Ping) => {
                let _ = writer.send(&protocol::pong());
            }
            Ok(Request::Status) => {
                let (running, done) = {
                    let registry = state.registry.lock().unwrap_or_else(|e| e.into_inner());
                    let running = registry
                        .iter()
                        .filter(|j| j.state == JobState::Running)
                        .count();
                    let done = registry
                        .iter()
                        .filter(|j| j.state == JobState::Done)
                        .count();
                    (running, done)
                };
                let _ = writer.send(&protocol::status(
                    state.queue.len(),
                    running,
                    done,
                    state.cache.len(),
                ));
            }
            Ok(Request::Cancel { id }) => cancel_job(state, &id, &writer),
            Ok(Request::Submit(spec)) => submit_job(state, spec, &writer),
            Ok(Request::Shutdown) => {
                let _ = writer.send(&protocol::shutting_down());
                initiate_shutdown(state);
                break;
            }
        }
        if state.shutting_down() {
            break;
        }
    }
}

fn submit_job(state: &Arc<State>, spec: JobSpec, writer: &SharedWriter<TcpStream>) {
    if state.shutting_down() {
        let _ = writer.send(&protocol::rejected(&spec.id, "shutting down"));
        return;
    }
    let cancel = CancelToken::new();
    {
        let mut registry = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        let duplicate = registry
            .iter()
            .any(|j| j.id == spec.id && j.state != JobState::Done);
        if duplicate {
            drop(registry);
            let _ = writer.send(&protocol::rejected(&spec.id, "duplicate id"));
            return;
        }
        // Prune the oldest finished entries so the registry stays
        // bounded on a long-lived daemon.
        let finished = registry
            .iter()
            .filter(|j| j.state == JobState::Done)
            .count();
        if finished > DONE_RETENTION {
            if let Some(oldest) = registry.iter().position(|j| j.state == JobState::Done) {
                registry.remove(oldest);
            }
        }
        registry.push(JobEntry {
            id: spec.id.clone(),
            cancel: cancel.clone(),
            state: JobState::Queued,
            deadline: None,
            timed_out: false,
        });
    }
    let id = spec.id.clone();
    let priority = spec.priority;
    let job = QueuedJob {
        spec,
        cancel,
        writer: writer.clone(),
    };
    match state.queue.push(priority, job) {
        Ok(depth) => {
            let _ = writer.send(&protocol::ack(&id, depth));
        }
        Err(err) => {
            let reason = match err {
                PushError::Full(_) => "queue full",
                PushError::Closed(_) => "shutting down",
            };
            finish_entry(state, &id);
            let _ = writer.send(&protocol::rejected(&id, reason));
        }
    }
}

fn cancel_job(state: &Arc<State>, id: &str, writer: &SharedWriter<TcpStream>) {
    // Still queued? Pull it out before a runner ever sees it.
    if let Some(job) = state.queue.remove_if(|j| j.spec.id == id) {
        finish_entry(state, id);
        let _ = job.writer.send(&protocol::cancelled(id, "cancel"));
        return;
    }
    // Running (or racing with a runner): flip the token; the runner
    // emits the `cancelled` line when the optimizer observes it.
    let token = {
        let registry = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        registry
            .iter()
            .find(|j| j.id == id && j.state != JobState::Done)
            .map(|j| j.cancel.clone())
    };
    match token {
        Some(token) => token.cancel(),
        None => {
            let _ = writer.send(&protocol::error(&format!("unknown job id {id:?}")));
        }
    }
}

fn initiate_shutdown(state: &Arc<State>) {
    state.shutdown.store(true, Ordering::Relaxed);
    // Reject-and-notify everything still waiting in line.
    for job in state.queue.close_and_drain() {
        finish_entry(state, &job.spec.id);
        let _ = job
            .writer
            .send(&protocol::cancelled(&job.spec.id, "shutdown"));
    }
    // Cancel everything currently running; runners emit the lines.
    {
        let registry = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        for entry in registry.iter().filter(|j| j.state == JobState::Running) {
            entry.cancel.cancel();
        }
    }
    // Wake the accept loop so it observes the flag.
    let _ = TcpStream::connect(state.local_addr);
}

fn finish_entry(state: &Arc<State>, id: &str) {
    let mut registry = state.registry.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = registry
        .iter_mut()
        .find(|j| j.id == id && j.state != JobState::Done)
    {
        entry.state = JobState::Done;
        entry.deadline = None;
    }
}

// --- job execution ----------------------------------------------------------

fn runner_loop(state: &Arc<State>, share: usize) {
    while let Some(job) = state.queue.pop() {
        run_job(state, job, share);
    }
}

fn watchdog_loop(state: &Arc<State>) {
    while !state.shutting_down() {
        std::thread::sleep(Duration::from_millis(5));
        let now = Instant::now();
        let mut registry = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        for entry in registry.iter_mut() {
            if entry.state == JobState::Running && !entry.timed_out {
                if let Some(deadline) = entry.deadline {
                    if now >= deadline {
                        entry.timed_out = true;
                        entry.cancel.cancel();
                    }
                }
            }
        }
    }
}

/// Builds the job's optimizer configuration exactly as the eval suite
/// does ([`CircleOptConfig::for_grid`]), with optional per-job loss
/// weights on top.
fn job_config(spec: &JobSpec) -> CircleOptConfig {
    let mut config =
        CircleOptConfig::for_grid(spec.size, spec.init_iterations, spec.circle_iterations);
    if let Some(w) = spec.weight_l2 {
        config.weights.l2 = w;
    }
    if let Some(w) = spec.weight_pvb {
        config.weights.pvb = w;
    }
    config
}

fn run_job(state: &Arc<State>, job: QueuedJob, share: usize) {
    let QueuedJob {
        spec,
        cancel,
        writer,
    } = job;
    let timeout_ms = spec.timeout_ms.or(state.default_timeout_ms);
    {
        let mut registry = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = registry
            .iter_mut()
            .find(|j| j.id == spec.id && j.state == JobState::Queued)
        {
            entry.state = JobState::Running;
            entry.deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        }
    }

    let outcome = execute(state, &spec, &cancel, &writer, share);

    let line = match outcome {
        Ok((result, metrics)) => protocol::result(&spec.id, &metrics, result.history.len()),
        Err(JobError::Cancelled) => {
            let reason = cancel_reason(state, &spec.id);
            protocol::cancelled(&spec.id, reason)
        }
        Err(JobError::Failed(message)) => protocol::failed(&spec.id, &message),
    };
    finish_entry(state, &spec.id);
    let _ = writer.send(&line);
}

enum JobError {
    Cancelled,
    Failed(String),
}

fn execute(
    state: &Arc<State>,
    spec: &JobSpec,
    cancel: &CancelToken,
    writer: &SharedWriter<TcpStream>,
    share: usize,
) -> Result<(CircleOptResult, cfaopc_metrics::MaskMetrics), JobError> {
    let fail = |message: String| JobError::Failed(message);
    let sim = state
        .cache
        .get(spec.size, spec.kernel_count)
        .map_err(|e| fail(e.to_string()))?;
    let layout = spec.source.layout().map_err(|e| fail(e.to_string()))?;
    let target = layout.rasterize(spec.size);
    let config = job_config(spec);

    // The whole optimize-and-measure pipeline runs under this runner's
    // pool share; inner regions are bit-identical at any limit, so the
    // share never shows up in the results.
    with_worker_limit(share, || {
        let mut stream = spec
            .stream
            .then(|| StreamSink::new(writer.clone(), &spec.id, cancel.clone()));
        let ctx = RunCtx {
            init: None,
            sink: stream.as_mut().map(|s| s as &mut dyn TelemetrySink),
            cancel: Some(cancel),
        };
        let result = run_circleopt(&sim, &target, &config, ctx).map_err(|e| match e {
            LithoError::Cancelled { .. } => JobError::Cancelled,
            other => fail(other.to_string()),
        })?;
        let mut metrics = evaluate_mask(&sim, &result.mask_raster, &target, &EpeConfig::default())
            .map_err(|e| fail(e.to_string()))?;
        metrics.shots = result.shot_count();
        Ok((result, metrics))
    })
}

/// Why did this job's token flip? Precedence: an expired deadline is a
/// timeout even if shutdown follows; a daemon-wide shutdown beats an
/// individual cancel; otherwise it was a client cancel or disconnect
/// (the latter indistinguishable once the socket is gone — the line
/// likely isn't delivered anyway).
fn cancel_reason(state: &Arc<State>, id: &str) -> &'static str {
    let timed_out = {
        let registry = state.registry.lock().unwrap_or_else(|e| e.into_inner());
        registry
            .iter()
            .any(|j| j.id == id && j.state == JobState::Running && j.timed_out)
    };
    if timed_out {
        "timeout"
    } else if state.shutting_down() {
        "shutdown"
    } else {
        "cancel"
    }
}
