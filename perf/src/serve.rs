//! `serve_mixed`: the job daemon, `cfaopc_serve::Server::spawn`, driven
//! over loopback TCP by a closed loop of clients.
//!
//! Each client sends its next job only after the previous one ended, so
//! the load is `nproc` jobs in flight at most and the daemon's queue
//! never backs up: this workload measures what jobs cost with cached
//! simulators, not queueing. The jobs walk a fixed cycle drawn from the
//! seed in an assumed mix, one pass of the cycle after another: 60 %
//! plain 128 px jobs, 30 % 128 px jobs streaming per-iteration
//! telemetry, 10 % 256 px jobs.

use crate::common::{self, Outcome, PassCosts, Quality, RunConfig, Scale, SetupTimes};
use crate::ledger::{self, StageLedger, TimingSink, TraceRun};
use cfaopc_core::{run_circleopt_cancellable, CircleOptConfig};
use cfaopc_eval::{CaseSource, Json};
use cfaopc_fft::parallel::{with_worker_limit, worker_count, worker_shares};
use cfaopc_grid::BitGrid;
use cfaopc_layouts::TILE_NM;
use cfaopc_litho::CancelToken;
use cfaopc_metrics::{evaluate_mask, EpeConfig, MaskMetrics};
use cfaopc_serve::{protocol, ServeConfig, Server, ServerHandle, SimulatorCache};
use cfaopc_trace::span;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// SOCS kernels per corner for every job (the protocol default).
const KERNELS: usize = 6;
/// Daemon queue depth.
const QUEUE: usize = 32;
/// A reply slower than this means the daemon is stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// One job of the cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Layout.
    pub source: CaseSource,
    /// Grid edge, px.
    pub size: usize,
    /// Stream per-iteration telemetry.
    pub stream: bool,
    /// CircleOpt stage-1 iterations.
    pub init_iterations: usize,
    /// CircleOpt stage-2 iterations.
    pub circle_iterations: usize,
}

impl Job {
    /// Jobs with the same key produce the same result.
    fn key(&self) -> (CaseSource, usize) {
        (self.source, self.size)
    }

    fn submit_line(&self, id: &str) -> String {
        let source = match self.source {
            CaseSource::Benchmark(n) => ("case".to_string(), Json::Num(n as f64)),
            CaseSource::Generated(s) => ("seed".to_string(), Json::Num(s as f64)),
        };
        let mut line = Json::Obj(vec![
            ("cmd".into(), Json::Str("submit".into())),
            ("id".into(), Json::Str(id.into())),
            source,
            ("size".into(), Json::Num(self.size as f64)),
            ("kernels".into(), Json::Num(KERNELS as f64)),
            ("init_iters".into(), Json::Num(self.init_iterations as f64)),
            ("iters".into(), Json::Num(self.circle_iterations as f64)),
            ("stream".into(), Json::Bool(self.stream)),
        ])
        .to_string_compact();
        line.push('\n');
        line
    }

    /// The job's target raster.
    fn target(&self) -> Result<BitGrid, String> {
        Ok(self
            .source
            .layout()
            .map_err(|e| e.to_string())?
            .rasterize(self.size))
    }

    /// The daemon's optimizer configuration for this job.
    fn config(&self) -> CircleOptConfig {
        CircleOptConfig {
            init_iterations: self.init_iterations,
            circle_iterations: self.circle_iterations,
            gamma: 3.0 * (self.size as f64 / 2048.0).powi(2),
            ..CircleOptConfig::default()
        }
    }
}

/// The job cycle for `cfg`. At full scale: 20 jobs in an assumed mix
/// of 60 % plain 128 px jobs, 30 % streamed 128 px jobs and 10 % 256 px
/// jobs. The 128 px jobs are the ten benchmark tiles and two
/// seed-generated tiles once each plus six seed-picked repeats, every
/// third of them streaming, in an order the seed shuffles. The 256 px
/// jobs, benchmark tile 3 and the first generated tile, go in back to
/// back at a seed-picked place: with two or more clients they run at
/// once in every pass, so every run reaches the same memory peak. At
/// [`Scale::Small`]: three short jobs at 64 and 128 px.
pub fn job_cycle(cfg: &RunConfig) -> Vec<Job> {
    let mut rng = cfg.seed;
    let mut next = |bound: usize| {
        rng = rng.wrapping_add(1);
        common::derive_seed(rng, 7) as usize % bound
    };
    let generated = [
        CaseSource::Generated(common::derive_seed(cfg.seed, 4)),
        CaseSource::Generated(common::derive_seed(cfg.seed, 5)),
    ];
    let job = |source, size, init_iterations, circle_iterations| Job {
        source,
        size,
        stream: false,
        init_iterations,
        circle_iterations,
    };
    if cfg.scale == Scale::Small {
        let mut jobs = vec![
            job(CaseSource::Benchmark(4), 64, 2, 4),
            job(generated[0], 64, 2, 4),
            job(CaseSource::Benchmark(4), 128, 1, 2),
        ];
        jobs[1].stream = true;
        return jobs;
    }
    let sources: Vec<CaseSource> = (1..=10)
        .map(CaseSource::Benchmark)
        .chain(generated)
        .collect();
    let mut jobs: Vec<Job> = sources.iter().map(|&s| job(s, 128, 4, 12)).collect();
    for _ in 0..6 {
        jobs.push(job(sources[next(sources.len())], 128, 4, 12));
    }
    for (k, j) in jobs.iter_mut().enumerate() {
        j.stream = k % 3 == 1;
    }
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, next(i + 1));
    }
    let at = next(jobs.len() + 1);
    jobs.splice(
        at..at,
        [CaseSource::Benchmark(3), generated[0]].map(|s| job(s, 256, 4, 12)),
    );
    jobs
}

/// A line-oriented client connection to the daemon.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// The next line from the daemon, parsed, with its raw text kept in
    /// `self.line`.
    fn recv(&mut self) -> Result<Json, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Json::parse(self.line.trim()).map_err(|e| format!("bad line: {e}")),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn request(&mut self, cmd: &str) -> Result<Json, String> {
        self.send(&format!("{{\"cmd\":\"{cmd}\"}}\n"))?;
        self.recv()
    }
}

fn kind(msg: &Json) -> &str {
    msg.get("kind").and_then(Json::as_str).unwrap_or("")
}

/// Client-side record of one job.
#[derive(Debug, Clone)]
struct Sample {
    /// Submission number within its pass; the job is `cycle[n]`.
    n: usize,
    id: String,
    submit_s: f64,
    ack_s: f64,
    queued: usize,
    first_iter_s: Option<f64>,
    end_s: f64,
    iter_lines: usize,
    /// The terminal line as received.
    terminal: String,
}

impl Sample {
    fn ok(&self) -> bool {
        self.terminal.contains("\"kind\":\"result\"")
    }
}

/// Submits `job` and reads until its terminal line.
fn run_job(
    client: &mut Client,
    job: &Job,
    n: usize,
    id: String,
    start: Instant,
) -> Result<Sample, String> {
    let submit_s = common::since(start);
    client.send(&job.submit_line(&id))?;
    let (mut ack_s, mut queued, mut first_iter_s, mut iter_lines) = (f64::NAN, 0, None, 0);
    loop {
        let msg = client.recv()?;
        let now = common::since(start);
        match kind(&msg) {
            "ack" => {
                ack_s = now;
                queued = msg.get("queued").and_then(Json::as_usize).unwrap_or(0);
            }
            "iter" => {
                first_iter_s.get_or_insert(now);
                iter_lines += 1;
            }
            "result" | "failed" | "cancelled" | "rejected" => {
                return Ok(Sample {
                    n,
                    id,
                    submit_s,
                    ack_s,
                    queued,
                    first_iter_s,
                    end_s: now,
                    iter_lines,
                    terminal: client.line.clone(),
                })
            }
            other => return Err(format!("unexpected {other:?} line for job {id}")),
        }
    }
}

/// `clients` closed loops that together submit every job of `cycle`
/// once; job ids are `<prefix><n>`. Returns the samples in submission
/// order.
fn closed_loop(
    addr: SocketAddr,
    cycle: &[Job],
    clients: usize,
    prefix: &str,
    start: Instant,
) -> Result<Vec<Sample>, String> {
    let next = AtomicUsize::new(0);
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr)?;
                    let mut samples = Vec::new();
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = cycle.get(n) else {
                            return Ok(samples);
                        };
                        samples.push(run_job(&mut client, job, n, format!("{prefix}{n}"), start)?);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for s in per_client {
        samples.extend(s?);
    }
    samples.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s));
    Ok(samples)
}

/// A running daemon, stopped by [`Daemon::shutdown`].
struct Daemon {
    handle: ServerHandle,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon and waits for it to answer `ping`.
    fn start() -> Result<Daemon, String> {
        let handle = Server::spawn(ServeConfig {
            queue_capacity: QUEUE,
            runners: worker_count(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("spawn daemon: {e}"))?;
        let addr = handle.addr();
        let pong = Client::connect(addr)?.request("ping")?;
        if kind(&pong) != "pong" {
            return Err(format!("ping answered {pong:?}"));
        }
        Ok(Daemon { handle, addr })
    }

    /// Requests shutdown and waits for the daemon thread to end.
    fn shutdown(self) -> Result<(), String> {
        let reply = Client::connect(self.addr)?.request("shutdown")?;
        if kind(&reply) != "shutting_down" {
            return Err(format!("shutdown answered {reply:?}"));
        }
        self.handle.join().map_err(|e| format!("daemon: {e}"))
    }
}

struct Inputs {
    cycle: Vec<Job>,
    cache: SimulatorCache,
    build_s: f64,
    daemon: Daemon,
}

/// Generates the job cycle, readies a simulator for each optical setup
/// (built, then imaging the first job of its size, as
/// [`common::ready_optical_setup`] does), and brings a daemon up to
/// answering `ping`. The build time returned is the smallest grid's.
fn setup(cfg: &RunConfig) -> Result<Inputs, String> {
    let cycle = job_cycle(cfg);
    let cache = SimulatorCache::new();
    let mut sizes: Vec<usize> = cycle.iter().map(|j| j.size).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut build_s = Vec::with_capacity(sizes.len());
    for &size in &sizes {
        let (sim, secs) = common::timed(|| cache.get(size, KERNELS));
        let sim = sim.map_err(|e| e.to_string())?;
        build_s.push(secs);
        let first = cycle
            .iter()
            .find(|j| j.size == size)
            .ok_or("no job of a cycle size")?;
        sim.aerial_corners(&first.target()?.to_real())
            .map_err(|e| e.to_string())?;
    }
    let build_s = build_s[0];
    let daemon = Daemon::start()?;
    Ok(Inputs {
        cycle,
        cache,
        build_s,
        daemon,
    })
}

/// One job through the daemon's per-job pipeline in process: the
/// shared simulator, CircleOpt, then the metrics, rendered as the
/// daemon's `result` line.
struct Replica {
    line: String,
    metrics: MaskMetrics,
    stages: StageLedger,
    wall_s: f64,
}

/// Runs one job in process under a pool share of `share` workers.
fn replica_job(
    cache: &SimulatorCache,
    job: &Job,
    id: &str,
    share: usize,
) -> Result<Replica, String> {
    let (replica, wall_s) =
        common::timed(|| with_worker_limit(share, || replica_pipeline(cache, job, id)));
    replica.map(|r| Replica { wall_s, ..r })
}

fn replica_pipeline(cache: &SimulatorCache, job: &Job, id: &str) -> Result<Replica, String> {
    let sim = cache.get(job.size, KERNELS).map_err(|e| e.to_string())?;
    let target = job.target()?;
    let config = job.config();
    let mut sink = TimingSink::new(config.init_iterations + config.circle_iterations);
    let result = run_circleopt_cancellable(&sim, &target, &config, &mut sink, &CancelToken::new())
        .map_err(|e| e.to_string())?;
    let mut stages = StageLedger::default();
    stages.add_run(
        &sink,
        sink.elapsed(),
        result.circles.len(),
        result.shot_count(),
    );
    let mut metrics = {
        let _s = span("perf.score");
        evaluate_mask(&sim, &result.mask_raster, &target, &EpeConfig::default())
            .map_err(|e| e.to_string())?
    };
    metrics.shots = result.shot_count();
    Ok(Replica {
        line: protocol::result(id, &metrics, result.history.len()),
        metrics,
        stages,
        wall_s: 0.0,
    })
}

/// Runs `jobs` through [`replica_job`] on one thread per worker, each
/// under the runner share the daemon gives it. Returns the replicas in
/// input order.
fn replica_runners(cache: &SimulatorCache, jobs: &[(Job, String)]) -> Result<Vec<Replica>, String> {
    let runners = worker_count();
    let shares = worker_shares(runners, runners);
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<Replica, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|&share| {
                let next = &next;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((job, id)) = jobs.get(i) else {
                            return done;
                        };
                        done.push((i, replica_job(cache, job, id, share)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    if done.len() != jobs.len() {
        return Err("a replica runner panicked".into());
    }
    done.sort_by_key(|(i, _)| *i);
    done.into_iter()
        .map(|(i, r)| r.map_err(|e| format!("replica of {}: {e}", jobs[i].1)))
        .collect()
}

/// Checks every sample's terminal line: a `result`, byte-identical to
/// its replica's once the job id is aligned.
fn check_lines(out: &mut Outcome, samples: &[Sample], replicas: &[(String, &str)]) {
    for s in samples {
        let (id, line) = &replicas[s.n];
        let expected = line.replacen(
            &format!("\"id\":\"{id}\""),
            &format!("\"id\":\"{}\"", s.id),
            1,
        );
        out.check(s.ok() && s.terminal == expected, || {
            format!(
                "job {} ended with {:?}, expected {expected:?}",
                s.id,
                s.terminal.trim()
            )
        });
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the daemon cannot be reached or a client
/// connection breaks.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let teardown = |i: Inputs| i.daemon.shutdown();
    let inputs = setups.repeat(|| setup(cfg), teardown)?;
    // Warm-up: one job per optical setup (fills the daemon's cache).
    let mut warm_jobs: Vec<Job> = Vec::new();
    for job in &inputs.cycle {
        if !warm_jobs.iter().any(|w| w.size == job.size) {
            warm_jobs.push(*job);
        }
    }
    for s in closed_loop(inputs.daemon.addr, &warm_jobs, 1, "w", Instant::now())? {
        out.check(s.ok(), || {
            format!("warm-up job ended with {:?}", s.terminal.trim())
        });
    }
    if cfg.trace {
        let traced = trace(&inputs, &mut out);
        inputs.daemon.shutdown()?;
        return traced.map(|()| out);
    }

    // Passes over the job cycle until the time is up; the cost is
    // sampled once a pass.
    let start = Instant::now();
    let (mut samples, mut costs) = (Vec::new(), PassCosts::default());
    while costs.passes() == 0 || common::since(start) < cfg.seconds {
        costs.start()?;
        let prefix = format!("j{}-", costs.passes());
        let pass = closed_loop(
            inputs.daemon.addr,
            &inputs.cycle,
            worker_count(),
            &prefix,
            start,
        )?;
        costs.end(pass.len())?;
        samples.extend(pass);
    }
    let status = Client::connect(inputs.daemon.addr)?.request("status")?;
    let Inputs {
        cycle,
        cache,
        daemon,
        ..
    } = inputs;
    daemon.shutdown()?;

    // Verification: one in-process replica per distinct job, compared
    // byte for byte with every result line of that job.
    let mut distinct: Vec<usize> = Vec::new();
    let key_of: Vec<usize> = cycle
        .iter()
        .enumerate()
        .map(
            |(i, job)| match distinct.iter().position(|&d| cycle[d].key() == job.key()) {
                Some(k) => k,
                None => {
                    distinct.push(i);
                    distinct.len() - 1
                }
            },
        )
        .collect();
    let replica_jobs: Vec<(Job, String)> = distinct
        .iter()
        .map(|&i| (cycle[i], format!("v{i}")))
        .collect();
    let replicas = replica_runners(&cache, &replica_jobs)?;
    let by_job: Vec<(String, &str)> = key_of
        .iter()
        .map(|&k| (replica_jobs[k].1.clone(), replicas[k].line.as_str()))
        .collect();
    check_lines(&mut out, &samples, &by_job);

    // Latency of every job, submit to terminal line.
    let latency: Vec<f64> = samples.iter().map(|s| s.end_s - s.submit_s).collect();
    out.metric("peak_rss_mb", common::peak_rss_mb()?);
    let extra = setups.repeat(|| setup(cfg), teardown)?;
    teardown(extra)?;
    costs.record(&mut out, &setups, &latency)?;
    let mut quality = Quality::default();
    for (&i, replica) in distinct.iter().zip(&replicas) {
        let job = &cycle[i];
        if matches!(job.source, CaseSource::Benchmark(_)) {
            let target = job.target()?;
            let pixel_nm = f64::from(TILE_NM) / job.size as f64;
            quality.add(
                replica.metrics.l2,
                replica.metrics.pvb,
                replica.metrics.shots,
                &target,
                pixel_nm,
            );
        }
    }
    quality.record(&mut out)?;
    serve_details(&mut out, &samples, &status);
    Ok(out)
}

fn serve_details(out: &mut Outcome, samples: &[Sample], status: &Json) {
    let ms = |f: &dyn Fn(&Sample) -> Option<f64>| -> Vec<f64> {
        samples.iter().filter_map(f).map(|v| v * 1e3).collect()
    };
    out.detail_summary("ack_ms", &ms(&|s| Some(s.ack_s - s.submit_s)));
    out.detail_summary(
        "first_iter_ms",
        &ms(&|s| s.first_iter_s.map(|t| t - s.submit_s)),
    );
    out.detail(
        "iter_lines",
        Json::Num(samples.iter().map(|s| s.iter_lines).sum::<usize>() as f64),
    );
    out.detail(
        "queue_depth_max",
        Json::Num(samples.iter().map(|s| s.queued).max().unwrap_or(0) as f64),
    );
    out.detail("jobs", Json::Num(samples.len() as f64));
    out.detail("status", status.clone());
}

/// The traced run over one job cycle: through the daemon with tracing
/// off and on, then the replica on in-process runner threads, then one
/// job at every worker and at one worker.
fn trace(inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let (addr, cycle) = (inputs.daemon.addr, &inputs.cycle);
    let overhead = ledger::measure_overhead(|rep| {
        closed_loop(
            addr,
            cycle,
            worker_count(),
            &format!("o{rep}-"),
            Instant::now(),
        )
    })?;

    let jobs: Vec<(Job, String)> = cycle
        .iter()
        .enumerate()
        .map(|(i, &job)| (job, format!("t{i}")))
        .collect();
    ledger::reset_trace(true);
    let (replicas, replica_wall_s) = common::timed(|| replica_runners(&inputs.cache, &jobs));
    let (spans, counters) = ledger::collect_trace();
    let replicas = replicas?;
    let by_job: Vec<(String, &str)> = jobs
        .iter()
        .zip(&replicas)
        .map(|((_, id), r)| (id.clone(), r.line.as_str()))
        .collect();
    for samples in &overhead.outputs {
        check_lines(out, samples, &by_job);
    }

    let share = worker_shares(worker_count(), worker_count())[0];
    let mut stages = StageLedger::default();
    let mut item_busy_s = 0.0;
    for replica in replicas {
        item_busy_s += replica.wall_s * share as f64;
        stages.merge(replica.stages);
    }
    // The scaling probe: the cycle's first job of the smallest size.
    let probe_job = *cycle
        .iter()
        .min_by_key(|j| j.size)
        .ok_or("empty job cycle")?;
    let scaling = ledger::measure_scaling(worker_count(), |limit| {
        replica_job(&inputs.cache, &probe_job, "p", limit).map(|r| r.line)
    })?;
    out.check(
        scaling.outputs.iter().all(|l| *l == scaling.outputs[0]),
        || "one-worker and all-worker job results differ".into(),
    );

    serve_details(out, &overhead.outputs.concat(), &Json::Null);
    TraceRun {
        workers: worker_count(),
        share,
        replica_wall_s,
        item_busy_s,
        spans,
        counters,
        stages,
        untraced_wall_s: overhead.untraced_wall_s,
        traced_wall_s: overhead.traced_wall_s,
        sim_build_ms: inputs.build_s * 1e3,
        parallel: scaling.parallel,
        serial: scaling.serial,
    }
    .record(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 1.0,
            trace: false,
            scale: Scale::Full,
        }
    }

    #[test]
    fn job_cycle_has_the_documented_mix() {
        let cycle = job_cycle(&cfg(1));
        assert_eq!(cycle.len(), 20);
        let large = cycle.iter().filter(|j| j.size == 256).count();
        let streamed = cycle.iter().filter(|j| j.stream).count();
        // 60 % plain, 30 % streamed, 10 % large, the large ones together.
        assert_eq!((large, streamed), (2, 6));
        assert!(cycle
            .windows(2)
            .any(|w| w[0].size == 256 && w[1].size == 256));
        assert!(cycle.iter().all(|j| !(j.stream && j.size == 256)));
        for n in 1..=10 {
            assert!(cycle
                .iter()
                .any(|j| j.source == CaseSource::Benchmark(n) && j.size == 128));
        }
    }

    #[test]
    fn job_cycle_depends_only_on_the_seed() {
        assert_eq!(job_cycle(&cfg(9)), job_cycle(&cfg(9)));
        assert_ne!(job_cycle(&cfg(9)), job_cycle(&cfg(10)));
    }

    #[test]
    fn submit_lines_parse_as_the_daemon_reads_them() {
        for job in job_cycle(&cfg(3)) {
            let line = job.submit_line("x1");
            match cfaopc_serve::Request::parse(line.trim()).unwrap() {
                cfaopc_serve::Request::Submit(spec) => {
                    assert_eq!(spec.source, job.source);
                    assert_eq!(spec.size, job.size);
                    assert_eq!(spec.stream, job.stream);
                    assert_eq!(spec.circle_iterations, job.circle_iterations);
                }
                other => panic!("not a submit: {other:?}"),
            }
        }
    }
}
