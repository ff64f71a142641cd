//! The daemon: accept loop, connection handlers, runner threads, the job
//! table, graceful shutdown.
//!
//! # Job table
//!
//! Every job's life sits in one table behind one mutex: the waiting jobs
//! in start order, the running jobs' ids and cancel tokens, a count of
//! accepted jobs that have ended, and the closed flag. Each transition —
//! submit, pop-and-start, cancel, finish, shutdown drain — is one
//! critical section, so an accepted job is always exactly one of
//! waiting, running or ended, and no socket write happens under the
//! lock. A submit publishes its job and writes its `ack` under the
//! connection's [`SharedWriter`] lock, so the `ack` is the job's first
//! line on the socket; that writer → table nesting is the only one, since
//! runners never write while holding the table.
//!
//! # Scheduling
//!
//! A fixed set of `runners` threads starts jobs from the table. Runner
//! `i` executes its job under
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
//! * client `cancel` request → a waiting job leaves the table at once; a
//!   running job's token is flipped by the connection thread;
//! * request timeout → the runner starts the job on a clone of its token
//!   carrying the deadline (`timeout_ms`, else `--timeout-ms`), which
//!   reads as cancelled once the deadline has passed;
//! * client disconnect (streaming jobs) → socket write fails, the
//!   hardened `JsonlSink` latches the error, [`StreamSink`] flips the
//!   token;
//! * daemon shutdown → the table closes, its waiting jobs are drained
//!   and every running token is flipped.

use crate::cache::SimulatorCache;
use crate::protocol::{self, JobSpec, Request, MAX_REQUEST_BYTES};
use crate::stream::{SharedWriter, StreamSink};
use cfaopc_core::{run_circleopt, CircleOptConfig, CircleOptResult, RunCtx};
use cfaopc_fft::parallel::{with_worker_limit, worker_count, worker_shares};
use cfaopc_litho::{CancelToken, LithoError};
use cfaopc_metrics::{evaluate_mask, EpeConfig};
use cfaopc_trace::TelemetrySink;
use std::io::{BufRead, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration. `Default` binds an ephemeral loopback port
/// with a 32-deep queue, auto-sized runners and no default timeout.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; loopback by default (the daemon trusts its peers —
    /// binding wider is an explicit operator decision).
    pub addr: String,
    /// Most jobs waiting to start; a submit past it is rejected.
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

/// An accepted job that has not started: parsed spec, its cancel token,
/// and the submitting connection's shared writer for responses.
struct Job {
    spec: JobSpec,
    cancel: CancelToken,
    writer: SharedWriter<TcpStream>,
}

/// The daemon's job state, behind [`State::table`].
#[derive(Default)]
struct Table {
    /// Waiting jobs in start order: highest priority first, FIFO within
    /// a priority.
    waiting: Vec<Job>,
    /// Running jobs' ids and tokens.
    running: Vec<(String, CancelToken)>,
    /// Accepted jobs that have ended since the daemon started.
    ended: usize,
    /// Set by shutdown: no submit is accepted, and runners exit once no
    /// job waits.
    closed: bool,
}

struct State {
    table: Mutex<Table>,
    /// Signalled when a job starts waiting or the table closes.
    available: Condvar,
    queue_capacity: usize,
    cache: SimulatorCache,
    local_addr: SocketAddr,
    runners: usize,
    default_timeout_ms: Option<u64>,
}

impl State {
    fn shutting_down(&self) -> bool {
        self.table.lock().unwrap_or_else(|e| e.into_inner()).closed
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
            table: Mutex::new(Table::default()),
            available: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            cache: SimulatorCache::new(),
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
    /// arrives; runner threads are joined before returning.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors other than transient
    /// per-connection failures (which are skipped).
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, state } = self;
        let shares = worker_shares(worker_count(), state.runners);
        let runners: Vec<JoinHandle<()>> = shares
            .into_iter()
            .take(state.runners)
            .map(|share| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || runner_loop(&state, share))
            })
            .collect();

        for incoming in listener.incoming() {
            if state.shutting_down() {
                break;
            }
            if let Ok(stream) = incoming {
                let state = Arc::clone(&state);
                // Connection threads are detached: they exit on client
                // EOF or shutdown, and hold no state the joiners below
                // wait on.
                std::thread::spawn(move || handle_connection(&state, stream));
            }
        }

        for handle in runners {
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

fn handle_connection(state: &State, stream: TcpStream) {
    let writer = match stream.try_clone() {
        Ok(clone) => SharedWriter::new(clone),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    // One byte past the bound tells a full-length line from a longer one,
    // so no line costs more memory than the bound.
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    loop {
        line.clear();
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            let _ = writer.send(&protocol::error(&format!(
                "request line exceeds the maximum {MAX_REQUEST_BYTES} bytes"
            )));
            let _ = reader.get_ref().shutdown(Shutdown::Both);
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        let trimmed = text.trim();
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
                let (queued, running, done) = {
                    let table = state.table.lock().unwrap_or_else(|e| e.into_inner());
                    (table.waiting.len(), table.running.len(), table.ended)
                };
                let _ = writer.send(&protocol::status(queued, running, done, state.cache.len()));
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

/// Accepts `spec` into the table, or rejects it: shutting down, then a
/// duplicate of a waiting or running id, then a full queue. The job is
/// published and its reply written under the writer's lock, so a runner
/// that starts it at once writes nothing before the `ack`.
fn submit_job(state: &State, spec: JobSpec, writer: &SharedWriter<TcpStream>) {
    let _ = writer.send_with(|| {
        let mut table = state.table.lock().unwrap_or_else(|e| e.into_inner());
        let duplicate = table.waiting.iter().any(|j| j.spec.id == spec.id)
            || table.running.iter().any(|(id, _)| *id == spec.id);
        let refusal = if table.closed {
            Some("shutting down")
        } else if duplicate {
            Some("duplicate id")
        } else if table.waiting.len() >= state.queue_capacity {
            Some("queue full")
        } else {
            None
        };
        if let Some(reason) = refusal {
            return protocol::rejected(&spec.id, reason);
        }
        let ack = protocol::ack(&spec.id, table.waiting.len() + 1);
        let at = table
            .waiting
            .partition_point(|j| j.spec.priority >= spec.priority);
        table.waiting.insert(
            at,
            Job {
                spec,
                cancel: CancelToken::new(),
                writer: writer.clone(),
            },
        );
        state.available.notify_one();
        ack
    });
}

/// Ends a waiting job at once, or flips a running job's token (its
/// runner writes the `cancelled` line when the optimizer observes it).
fn cancel_job(state: &State, id: &str, writer: &SharedWriter<TcpStream>) {
    let (waiting, running) = {
        let mut table = state.table.lock().unwrap_or_else(|e| e.into_inner());
        let waiting = match table.waiting.iter().position(|j| j.spec.id == id) {
            Some(at) => {
                table.ended += 1;
                Some(table.waiting.remove(at))
            }
            None => None,
        };
        let running = table.running.iter().find(|(rid, _)| rid == id);
        if let Some((_, token)) = running {
            token.cancel();
        }
        (waiting, running.is_some())
    };
    if let Some(job) = waiting {
        let _ = job.writer.send(&protocol::cancelled(id, "cancel"));
    } else if !running {
        let _ = writer.send(&protocol::error(&format!("unknown job id {id:?}")));
    }
}

/// Closes the table, cancels every running job (their runners write the
/// `cancelled` lines) and ends every waiting one here.
fn initiate_shutdown(state: &State) {
    let drained = {
        let mut table = state.table.lock().unwrap_or_else(|e| e.into_inner());
        table.closed = true;
        for (_, token) in &table.running {
            token.cancel();
        }
        table.ended += table.waiting.len();
        std::mem::take(&mut table.waiting)
    };
    state.available.notify_all();
    for job in drained {
        let _ = job
            .writer
            .send(&protocol::cancelled(&job.spec.id, "shutdown"));
    }
    // Wake the accept loop so it observes the flag.
    let _ = TcpStream::connect(state.local_addr);
}

// --- job execution ----------------------------------------------------------

fn runner_loop(state: &State, share: usize) {
    while let Some(job) = start_next(state) {
        run_job(state, job, share);
    }
}

/// Blocks until a job waits, then moves the first one to running in the
/// same critical section; `None` once the table is closed.
fn start_next(state: &State) -> Option<Job> {
    let mut table = state.table.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if !table.waiting.is_empty() {
            let job = table.waiting.remove(0);
            table
                .running
                .push((job.spec.id.clone(), job.cancel.clone()));
            return Some(job);
        }
        if table.closed {
            return None;
        }
        table = state
            .available
            .wait(table)
            .unwrap_or_else(|e| e.into_inner());
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

fn run_job(state: &State, job: Job, share: usize) {
    let Job {
        spec,
        cancel,
        writer,
    } = job;
    // The timeout runs from the job's start; a deadline past the clock's
    // range is no deadline.
    let deadline = spec
        .timeout_ms
        .or(state.default_timeout_ms)
        .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
    let cancel = match deadline {
        Some(deadline) => cancel.with_deadline(deadline),
        None => cancel,
    };

    let line = match execute(state, &spec, &cancel, &writer, share) {
        Ok((result, metrics)) => protocol::result(&spec.id, &metrics, result.history.len()),
        Err(JobError::Cancelled) => protocol::cancelled(&spec.id, cancel_reason(state, &cancel)),
        Err(JobError::Failed(message)) => protocol::failed(&spec.id, &message),
    };
    {
        let mut table = state.table.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(at) = table.running.iter().position(|(id, _)| *id == spec.id) {
            table.running.swap_remove(at);
        }
        table.ended += 1;
    }
    let _ = writer.send(&line);
}

enum JobError {
    Cancelled,
    Failed(String),
}

fn execute(
    state: &State,
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

/// Why did this job's token fire? Precedence: a passed deadline is a
/// timeout even if shutdown follows; a daemon-wide shutdown beats an
/// individual cancel; otherwise a client cancelled it or dropped its
/// socket (the latter's line is not delivered anyway).
fn cancel_reason(state: &State, cancel: &CancelToken) -> &'static str {
    if cancel.timed_out() {
        "timeout"
    } else if state.shutting_down() {
        "shutdown"
    } else {
        "cancel"
    }
}
