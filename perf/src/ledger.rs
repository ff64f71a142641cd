//! The per-layer ledger of a traced run.
//!
//! Three sources feed it, none of which adds code to the program:
//!
//! * the spans the program already opens (`core.circleopt`,
//!   `ilt.pixel`, `litho.loss_and_gradient`, `litho.loss_only`) plus
//!   `perf.*` spans the benchmark opens around its own calls into the
//!   layers' public functions;
//! * the program's counters (`fft_2d`, `pool_regions`, the composition
//!   tile and timing counters);
//! * a [`TimingSink`] that timestamps the optimizer's per-iteration
//!   telemetry records, which splits a CircleOpt run into its stages.
//!
//! Busy time is worker time: a span's duration times the number of pool
//! workers the item running it holds (its `share`), so an item that
//! owns the whole pool is charged for the whole pool even in its serial
//! sections. The residual is what no span covers: idle workers between
//! items plus code outside every span.

use crate::common::Outcome;
use crate::stats;
use cfaopc_eval::Json;
use cfaopc_trace::{IterationRecord, SpanStat, Stage, TelemetrySink};
use std::time::Instant;

/// A telemetry sink that keeps every record with the time it arrived.
#[derive(Debug)]
pub struct TimingSink {
    start: Instant,
    records: Vec<(IterationRecord, f64)>,
}

impl TimingSink {
    /// A sink whose clock starts now; `capacity` records fit without
    /// reallocating.
    pub fn new(capacity: usize) -> Self {
        TimingSink {
            start: Instant::now(),
            records: Vec::with_capacity(capacity),
        }
    }

    /// The records received, in arrival order.
    pub fn records(&self) -> impl Iterator<Item = &IterationRecord> {
        self.records.iter().map(|(r, _)| r)
    }

    /// Seconds since the sink was created.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl TelemetrySink for TimingSink {
    fn record(&mut self, rec: &IterationRecord) {
        let t = self.start.elapsed().as_secs_f64();
        self.records.push((*rec, t));
    }
}

/// CircleOpt stage times summed over runs, from [`TimingSink`] records.
///
/// A record arrives when its iteration's work is done, so stage 1 ends
/// at the last pixel record. The gap to the first circle record is the
/// seeding (init-mask clean-up, CircleRule reparameterization) together
/// with the first circle iteration; stage 2 is the rest of the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageLedger {
    /// CircleOpt runs recorded.
    pub runs: usize,
    /// Stage-1 pixel ILT seconds.
    pub stage1_s: f64,
    /// Seeding plus first circle iteration seconds.
    pub seed_s: f64,
    /// Remaining stage-2 seconds, including the final rasterization.
    pub stage2_s: f64,
    /// Every stage-2 iteration gap, milliseconds.
    pub iter_ms: Vec<f64>,
    /// Circles seeded into stage 2.
    pub seed_circles: usize,
    /// Final shots.
    pub final_shots: usize,
}

impl StageLedger {
    /// Adds one finished run; `end_s` is the sink clock when the call
    /// returned.
    pub fn add_run(
        &mut self,
        sink: &TimingSink,
        end_s: f64,
        seed_circles: usize,
        final_shots: usize,
    ) {
        let at = |stage: Stage| -> Vec<f64> {
            sink.records
                .iter()
                .filter(|(r, _)| r.stage == stage)
                .map(|&(_, t)| t)
                .collect()
        };
        let (pixel, circle) = (at(Stage::PixelIlt), at(Stage::CircleOpt));
        let p_last = pixel.last().copied().unwrap_or(0.0);
        let c_first = circle.first().copied().unwrap_or(end_s);
        let gaps: Vec<f64> = circle.windows(2).map(|w| w[1] - w[0]).collect();
        self.runs += 1;
        self.stage1_s += p_last;
        self.seed_s += c_first - p_last;
        self.stage2_s += end_s - c_first;
        self.iter_ms.extend(gaps.iter().map(|g| g * 1e3));
        self.seed_circles += seed_circles;
        self.final_shots += final_shots;
    }

    /// Folds another ledger in (per-item ledgers merge in item order).
    pub fn merge(&mut self, other: StageLedger) {
        self.runs += other.runs;
        self.stage1_s += other.stage1_s;
        self.seed_s += other.seed_s;
        self.stage2_s += other.stage2_s;
        self.iter_ms.extend(other.iter_ms);
        self.seed_circles += other.seed_circles;
        self.final_shots += other.final_shots;
    }
}

/// One span name's aggregate over the call tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Span name.
    pub name: &'static str,
    /// Times entered.
    pub calls: u64,
    /// Wall seconds inside, children included.
    pub total_s: f64,
    /// Wall seconds inside, minus the time its child spans cover.
    pub self_s: f64,
}

/// Aggregates a preorder span snapshot by name, in first-seen order.
pub fn span_table(snapshot: &[SpanStat]) -> Vec<SpanRow> {
    let mut rows: Vec<SpanRow> = Vec::new();
    for (i, node) in snapshot.iter().enumerate() {
        let children_ns: u64 = snapshot[i + 1..]
            .iter()
            .take_while(|s| s.depth > node.depth)
            .filter(|s| s.depth == node.depth + 1)
            .map(|s| s.total_ns)
            .sum();
        let self_ns = node.total_ns.saturating_sub(children_ns);
        let row = match rows.iter_mut().find(|r| r.name == node.name) {
            Some(row) => row,
            None => {
                rows.push(SpanRow {
                    name: node.name,
                    calls: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                });
                rows.last_mut().expect("row just pushed")
            }
        };
        row.calls += node.calls;
        row.total_s += node.total_ns as f64 * 1e-9;
        row.self_s += self_ns as f64 * 1e-9;
    }
    rows
}

fn row<'a>(rows: &'a [SpanRow], name: &str) -> Option<&'a SpanRow> {
    rows.iter().find(|r| r.name == name)
}

fn total(rows: &[SpanRow], name: &str) -> f64 {
    row(rows, name).map_or(0.0, |r| r.total_s)
}

fn self_time(rows: &[SpanRow], name: &str) -> f64 {
    row(rows, name).map_or(0.0, |r| r.self_s)
}

fn span_json(rows: &[SpanRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::Obj(vec![
                    ("span".into(), Json::Str(r.name.into())),
                    ("calls".into(), Json::Num(r.calls as f64)),
                    ("total_s".into(), Json::Num(r.total_s)),
                    ("self_s".into(), Json::Num(r.self_s)),
                ])
            })
            .collect(),
    )
}

/// Spans of one traced run of a single item.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Item wall seconds.
    pub wall_s: f64,
    /// Span table of the item.
    pub spans: Vec<SpanRow>,
}

/// Everything a traced workload run measured.
#[derive(Debug)]
pub struct TraceRun {
    /// Pool workers.
    pub workers: usize,
    /// Workers each item of the replica holds.
    pub share: usize,
    /// Wall seconds of the traced replica unit.
    pub replica_wall_s: f64,
    /// Σ item wall seconds × share in the replica unit.
    pub item_busy_s: f64,
    /// Span table of the replica unit.
    pub spans: Vec<SpanRow>,
    /// Counter snapshot of the replica unit.
    pub counters: Vec<(&'static str, u64)>,
    /// CircleOpt stage split of the replica unit.
    pub stages: StageLedger,
    /// Wall seconds of the real entry point, tracing off.
    pub untraced_wall_s: f64,
    /// Wall seconds of the same call, tracing on.
    pub traced_wall_s: f64,
    /// Set-up build time of the workload's main simulator, ms.
    pub sim_build_ms: f64,
    /// One item at every worker.
    pub parallel: Probe,
    /// The same item at one worker.
    pub serial: Probe,
}

impl TraceRun {
    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    }

    /// Records every per-layer metric and the ledger detail.
    pub fn record(&self, out: &mut Outcome) {
        let share = self.share as f64;
        let worker_s = self.workers as f64 * self.replica_wall_s;
        let litho = row(&self.spans, "litho.loss_and_gradient");
        let (grad_calls, grad_s) = litho.map_or((0, 0.0), |r| (r.calls, r.total_s));
        let attributed: f64 = self.spans.iter().map(|r| r.self_s).sum::<f64>() * share;
        let residual = worker_s - attributed;
        let ratio = |name: &str, f: fn(&[SpanRow], &str) -> f64| {
            f(&self.serial.spans, name) / f(&self.parallel.spans, name)
        };

        out.metric("fft.transforms", self.counter("fft_2d"));
        out.metric("fft.pool_regions", self.counter("pool_regions"));
        out.metric("litho.sim_build_ms", self.sim_build_ms);
        out.metric("litho.loss_grad_calls", grad_calls as f64);
        out.metric("litho.loss_grad_s", share * grad_s);
        out.metric("litho.loss_grad_ms", grad_s / grad_calls as f64 * 1e3);
        out.metric(
            "ilt.pixel_self_s",
            share * self_time(&self.spans, "ilt.pixel"),
        );
        out.metric(
            "core.circleopt_self_s",
            share * self_time(&self.spans, "core.circleopt"),
        );
        out.metric(
            "core.compose_s",
            share * self.counter("compose_render_ns") * 1e-9,
        );
        out.metric(
            "core.backward_s",
            share * (self.counter("backward_scan_ns") + self.counter("backward_merge_ns")) * 1e-9,
        );
        out.metric("core.stage1_s", share * self.stages.stage1_s);
        out.metric("core.seed_s", share * self.stages.seed_s);
        out.metric("core.stage2_s", share * self.stages.stage2_s);
        out.metric(
            "core.iter_ms_p50",
            stats::median(&self.stages.iter_ms).unwrap_or(f64::NAN),
        );
        out.detail_summary("core.iter_ms", &self.stages.iter_ms);
        out.metric("core.tiles_rendered", self.counter("tiles_rendered"));
        out.metric("core.tiles_skipped", self.counter("tiles_skipped"));
        out.metric("core.circles_pruned", self.counter("circles_pruned"));
        out.metric("core.seed_circles", self.stages.seed_circles as f64);
        out.metric("core.final_shots", self.stages.final_shots as f64);
        out.metric(
            "metrics.score_s",
            share * self_time(&self.spans, "perf.score"),
        );
        out.metric("pipeline.busy_s", self.item_busy_s);
        out.metric("pipeline.parallel_eff", self.item_busy_s / worker_s);
        out.metric("residual_s", residual);
        out.metric("residual_share", residual / worker_s);
        out.metric(
            "trace.overhead",
            self.traced_wall_s / self.untraced_wall_s - 1.0,
        );
        out.metric("item.scaling", self.serial.wall_s / self.parallel.wall_s);
        out.metric("litho.scaling", ratio("litho.loss_and_gradient", total));
        out.metric("ilt.scaling", ratio("ilt.pixel", self_time));
        out.metric("core.scaling", ratio("core.circleopt", self_time));

        out.detail("workers", Json::Num(self.workers as f64));
        out.detail("share", Json::Num(self.share as f64));
        out.detail("replica_wall_s", Json::Num(self.replica_wall_s));
        out.detail("untraced_wall_s", Json::Num(self.untraced_wall_s));
        out.detail("traced_wall_s", Json::Num(self.traced_wall_s));
        out.detail("spans", span_json(&self.spans));
        out.detail(
            "counters",
            Json::Obj(
                self.counters
                    .iter()
                    .map(|&(n, v)| (n.to_string(), Json::Num(v as f64)))
                    .collect(),
            ),
        );
        out.detail("circleopt_runs", Json::Num(self.stages.runs as f64));
        out.detail("scaling_parallel_spans", span_json(&self.parallel.spans));
        out.detail("scaling_serial_spans", span_json(&self.serial.spans));
    }
}

/// Runs alternate this many times per side for `trace.overhead` and for
/// the scaling probes, so drift in the machine's speed falls on both
/// sides; with three a side, one disturbed run cannot move a median.
const PAIRS: usize = 3;

/// Scaling probes of one item: traced runs at every worker and at one
/// worker, alternating, each side keeping its fastest run.
#[derive(Debug)]
pub struct Scaling<T> {
    /// Every run's output, in run order.
    pub outputs: Vec<T>,
    /// The fastest run at every worker.
    pub parallel: Probe,
    /// The fastest run at one worker.
    pub serial: Probe,
}

/// Runs `item(limit)` traced with `limit` = `workers` and `limit` = 1,
/// alternating.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn measure_scaling<T>(
    workers: usize,
    mut item: impl FnMut(usize) -> Result<T, String>,
) -> Result<Scaling<T>, String> {
    let mut outputs = Vec::new();
    let mut best: [Option<Probe>; 2] = [None, None];
    for rep in 0..2 * PAIRS {
        let limit = if rep % 2 == 0 { workers } else { 1 };
        reset_trace(true);
        let (output, wall_s) = crate::common::timed(|| item(limit));
        let (spans, _) = collect_trace();
        outputs.push(output?);
        let slot = &mut best[rep % 2];
        if slot.as_ref().is_none_or(|p| wall_s < p.wall_s) {
            *slot = Some(Probe { wall_s, spans });
        }
    }
    let [parallel, serial] = best;
    Ok(Scaling {
        outputs,
        parallel: parallel.unwrap_or_default(),
        serial: serial.unwrap_or_default(),
    })
}

/// Alternating untraced and traced runs of one unit of work.
#[derive(Debug)]
pub struct Overhead<T> {
    /// Every run's output, in run order (untraced first).
    pub outputs: Vec<T>,
    /// Median wall seconds with tracing off.
    pub untraced_wall_s: f64,
    /// Median wall seconds with tracing on.
    pub traced_wall_s: f64,
}

/// Runs `unit(rep)` [`PAIRS`] times with tracing off and as many with
/// it on, alternating.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn measure_overhead<T>(
    mut unit: impl FnMut(usize) -> Result<T, String>,
) -> Result<Overhead<T>, String> {
    let (mut off, mut on, mut outputs) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..2 * PAIRS {
        let traced = rep % 2 == 1;
        reset_trace(traced);
        let (output, wall) = crate::common::timed(|| unit(rep));
        collect_trace();
        outputs.push(output?);
        if traced { &mut on } else { &mut off }.push(wall);
    }
    Ok(Overhead {
        outputs,
        untraced_wall_s: stats::median(&off).unwrap_or(f64::NAN),
        traced_wall_s: stats::median(&on).unwrap_or(f64::NAN),
    })
}

/// Clears the trace registry and turns tracing on or off.
pub fn reset_trace(enabled: bool) {
    cfaopc_trace::set_enabled(false);
    cfaopc_trace::reset();
    cfaopc_trace::set_enabled(enabled);
}

/// Stops tracing and returns the span table and counters gathered since
/// the last [`reset_trace`].
pub fn collect_trace() -> (Vec<SpanRow>, Vec<(&'static str, u64)>) {
    cfaopc_trace::set_enabled(false);
    (
        span_table(&cfaopc_trace::span_snapshot()),
        cfaopc_trace::counter_snapshot(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(name: &'static str, depth: usize, total_ns: u64) -> SpanStat {
        SpanStat {
            name,
            depth,
            calls: 1,
            total_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let snap = [
            stat("core.circleopt", 0, 100),
            stat("ilt.pixel", 1, 40),
            stat("litho.loss_and_gradient", 2, 30),
            stat("litho.loss_and_gradient", 1, 50),
            stat("perf.score", 0, 20),
            stat("ilt.pixel", 0, 10),
        ];
        let rows = span_table(&snap);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("core.circleopt").self_s, 10e-9);
        let pixel = get("ilt.pixel");
        assert_eq!(pixel.calls, 2);
        assert!((pixel.self_s - 20e-9).abs() < 1e-18);
        assert!((get("litho.loss_and_gradient").total_s - 80e-9).abs() < 1e-18);
        assert_eq!(get("perf.score").self_s, 20e-9);
        let sum: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((sum - 130e-9).abs() < 1e-18, "self times tile the roots");
    }

    fn rec(stage: Stage) -> IterationRecord {
        IterationRecord {
            stage,
            iteration: 0,
            loss_l2: 0.0,
            loss_pvb: 0.0,
            loss_total: 0.0,
            sparsity: 0.0,
            active: 0,
            grad_l2: 0.0,
            grad_linf: 0.0,
        }
    }

    #[test]
    fn stages_partition_the_run() {
        let mut sink = TimingSink::new(8);
        let stamps = [
            (Stage::PixelIlt, 1.0),
            (Stage::PixelIlt, 2.0),
            (Stage::CircleOpt, 4.5),
            (Stage::CircleOpt, 5.0),
            (Stage::CircleOpt, 5.5),
        ];
        sink.records = stamps.iter().map(|&(s, t)| (rec(s), t)).collect();
        let mut ledger = StageLedger::default();
        ledger.add_run(&sink, 6.0, 30, 12);
        assert_eq!(ledger.stage1_s, 2.0);
        assert_eq!(ledger.seed_s, 2.5);
        assert_eq!(ledger.stage2_s, 1.5);
        assert_eq!(ledger.iter_ms, vec![500.0, 500.0]);
        let mut merged = StageLedger::default();
        merged.merge(ledger.clone());
        merged.merge(ledger);
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.seed_circles, 60);
        assert_eq!(merged.iter_ms.len(), 4);
    }

    #[test]
    fn a_run_without_circles_is_all_stage1_and_seeding() {
        let mut sink = TimingSink::new(2);
        sink.records = vec![(rec(Stage::PixelIlt), 1.0)];
        let mut ledger = StageLedger::default();
        ledger.add_run(&sink, 1.5, 0, 0);
        assert_eq!(
            (ledger.stage1_s, ledger.seed_s, ledger.stage2_s),
            (1.0, 0.5, 0.0)
        );
    }
}
