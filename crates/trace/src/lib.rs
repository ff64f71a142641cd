//! Zero-dependency observability for the CFAOPC stack.
//!
//! Production curvy-mask flows are throughput pipelines: without
//! per-stage timing and counters, a slow (or diverging) run is a black
//! box. This crate provides the three primitives the rest of the
//! workspace threads through its hot paths, all `std`-only:
//!
//! * **Counters** ([`counters`]) — process-wide atomic event counters
//!   (FFTs executed, pool regions opened, tiles rendered vs. skipped,
//!   circles pruned). Incrementing is a single relaxed atomic add, gated
//!   behind the global [`enabled`] flag so the disabled cost is one
//!   relaxed load and a predictable branch.
//! * **Spans** ([`span`]) — hierarchical monotonic timers. Entering a
//!   span records its parent from a thread-local cursor, so nested spans
//!   aggregate into a call tree ([`span_snapshot`]). Span bookkeeping
//!   allocates only the first time a `(parent, name)` pair is seen;
//!   steady-state enter/exit is allocation-free.
//! * **Telemetry sinks** ([`TelemetrySink`]) — per-iteration records
//!   ([`IterationRecord`]) emitted by the optimizers: loss terms,
//!   sparsity, active shots, gradient norms. [`MemorySink`] collects
//!   into a pre-allocated buffer (allocation-free once warm);
//!   [`JsonlSink`] streams JSON lines through a reusable format buffer.
//!
//! It also holds the workspace's one JSON layer ([`json`]): the ordered
//! tree, deterministic writer and strict parser behind every report,
//! golden file, protocol frame and telemetry line.
//!
//! Tracing is **opt-in** ([`set_enabled`]) and strictly observational:
//! attaching a sink or enabling counters never changes what the
//! optimizers compute — outputs are bit-identical either way.
//!
//! The numerical-health guards in `cfaopc-ilt`/`cfaopc-core` use
//! [`grad_norms`] to fold the gradient scan they already need for
//! telemetry into their NaN/Inf sentinels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub mod json;
mod sink;

pub use sink::{IterationRecord, JsonlSink, MemorySink, Stage, TelemetrySink};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables tracing (counters and spans).
///
/// Disabled is the default; in that state counters skip their atomic add
/// and [`span`] returns an inert guard, so the overhead on hot paths is
/// one relaxed load each.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A named process-wide event counter.
///
/// All counters live in [`counters`]; they only advance while tracing is
/// [`enabled`], and increments are relaxed atomic adds (safe from pool
/// worker threads).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's stable snake_case name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events (no-op while tracing is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event (no-op while tracing is disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// The workspace counter inventory.
///
/// | Counter | Incremented by |
/// |---|---|
/// | `fft_2d` | every 2-D FFT execution (parallel or serial) |
/// | `fft_2d_points` | `h·w` of every 2-D FFT execution |
/// | `pool_regions` | every parallel region opened on the worker pool |
/// | `tiles_rendered` | composition tiles cleared + rendered |
/// | `tiles_skipped` | composition tiles skipped (untouched twice over) |
/// | `circles_pruned` | circles dropped by the hard-max `q_floor` |
/// | `nonfinite_aborts` | runs terminated by the numerical-health guard |
/// | `compose_render_ns` | wall ns inside composition render regions |
/// | `backward_scan_ns` | wall ns inside fused-backward band scans |
/// | `backward_merge_ns` | wall ns merging backward band partials |
pub mod counters {
    use super::Counter;

    /// 2-D FFT executions (forward + inverse, parallel + serial).
    pub static FFT_2D: Counter = Counter::new("fft_2d");
    /// Grid points of those executions (`h·w` per 2-D transform), so a
    /// small transform counts less work than a large one.
    pub static FFT_2D_POINTS: Counter = Counter::new("fft_2d_points");
    /// Parallel regions opened on the persistent worker pool.
    pub static POOL_REGIONS: Counter = Counter::new("pool_regions");
    /// Composition tiles cleared and rendered.
    pub static TILES_RENDERED: Counter = Counter::new("tiles_rendered");
    /// Composition tiles skipped (no circle now or on the previous render).
    pub static TILES_SKIPPED: Counter = Counter::new("tiles_skipped");
    /// Circles pruned from the hard-max passes by the activation floor.
    pub static CIRCLES_PRUNED: Counter = Counter::new("circles_pruned");
    /// Optimizer runs aborted by the NaN/Inf health guard.
    pub static NONFINITE_ABORTS: Counter = Counter::new("nonfinite_aborts");
    /// Nanoseconds spent in composition render regions (wall time around
    /// the dynamic tile-claiming region, accumulated per compose).
    pub static COMPOSE_RENDER_NS: Counter = Counter::new("compose_render_ns");
    /// Nanoseconds spent in the fused backward band-scan regions.
    pub static BACKWARD_SCAN_NS: Counter = Counter::new("backward_scan_ns");
    /// Nanoseconds spent merging backward band partials (ordered
    /// reduction on the calling thread).
    pub static BACKWARD_MERGE_NS: Counter = Counter::new("backward_merge_ns");

    /// Every counter, in inventory order.
    pub fn all() -> [&'static Counter; 10] {
        [
            &FFT_2D,
            &FFT_2D_POINTS,
            &POOL_REGIONS,
            &TILES_RENDERED,
            &TILES_SKIPPED,
            &CIRCLES_PRUNED,
            &NONFINITE_ABORTS,
            &COMPOSE_RENDER_NS,
            &BACKWARD_SCAN_NS,
            &BACKWARD_MERGE_NS,
        ]
    }
}

/// Snapshot of every counter as `(name, value)` pairs.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    counters::all()
        .iter()
        .map(|c| (c.name(), c.get()))
        .collect()
}

// --- spans ------------------------------------------------------------------

const ROOT: usize = usize::MAX;

struct SpanNode {
    name: &'static str,
    parent: usize,
    calls: u64,
    total_ns: u64,
}

static SPANS: Mutex<Vec<SpanNode>> = Mutex::new(Vec::new());

thread_local! {
    /// The innermost open span on this thread (`ROOT` = none).
    static CURRENT: Cell<usize> = const { Cell::new(ROOT) };
}

/// Aggregated timing of one span node in the call tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name as passed to [`span`].
    pub name: &'static str,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Times the span was entered.
    pub calls: u64,
    /// Total time spent inside, nanoseconds (includes children).
    pub total_ns: u64,
}

/// RAII guard returned by [`span`]; records the elapsed time on drop.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard {
    node: usize,
    prev: usize,
    start: Instant,
}

/// Opens a hierarchical timing span named `name` on this thread.
///
/// While tracing is disabled this returns an inert guard and records
/// nothing. Nested spans attach under the innermost open span of the
/// current thread; the same `(parent, name)` pair aggregates into one
/// node, so steady-state enter/exit performs no allocation — only a
/// mutex-guarded counter update.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            node: ROOT,
            prev: ROOT,
            start: Instant::now(),
        };
    }
    let prev = CURRENT.with(|c| c.get());
    let mut nodes = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let node = nodes
        .iter()
        .position(|n| n.parent == prev && n.name == name)
        .unwrap_or_else(|| {
            nodes.push(SpanNode {
                name,
                parent: prev,
                calls: 0,
                total_ns: 0,
            });
            nodes.len() - 1
        });
    drop(nodes);
    CURRENT.with(|c| c.set(node));
    SpanGuard {
        node,
        prev,
        start: Instant::now(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.node == ROOT {
            return;
        }
        let elapsed = self.start.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(self.prev));
        let mut nodes = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        let n = &mut nodes[self.node];
        n.calls += 1;
        n.total_ns += elapsed;
    }
}

/// The span call tree in preorder (parents before children).
pub fn span_snapshot() -> Vec<SpanStat> {
    let nodes = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::with_capacity(nodes.len());
    fn walk(nodes: &[SpanNode], parent: usize, depth: usize, out: &mut Vec<SpanStat>) {
        for (i, n) in nodes.iter().enumerate() {
            if n.parent == parent {
                out.push(SpanStat {
                    name: n.name,
                    depth,
                    calls: n.calls,
                    total_ns: n.total_ns,
                });
                walk(nodes, i, depth + 1, out);
            }
        }
    }
    walk(&nodes, ROOT, 0, &mut out);
    out
}

/// Resets every counter and discards all span data (the enabled flag is
/// untouched). Intended for per-run reporting: reset, run, snapshot.
pub fn reset() {
    for c in counters::all() {
        c.reset();
    }
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

// --- numeric helpers --------------------------------------------------------

/// The L2 and L∞ norms of a gradient slice, in one pass.
///
/// The optimizers call this every iteration: the result feeds both the
/// telemetry record and the numerical-health guard (a NaN or Inf entry
/// makes at least one of the returned norms non-finite; an L2 overflow
/// from astronomically large finite entries also trips the guard, which
/// is the right call for a gradient that size).
pub fn grad_norms(grad: &[f64]) -> (f64, f64) {
    let mut sum_sq = 0.0f64;
    let mut linf = 0.0f64;
    for &g in grad {
        sum_sq += g * g;
        let a = g.abs();
        // A NaN entry must poison the max, so take it alongside `>`.
        if a > linf || a.is_nan() {
            linf = a;
        }
    }
    (sum_sq.sqrt(), linf)
}

/// Counters and spans are process-global; tests that reset or assert on
/// them serialize through this lock (shared with the sink tests).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    fn lock() -> MutexGuard<'static, ()> {
        crate::test_lock()
    }

    #[test]
    fn counters_only_advance_while_enabled() {
        let _g = lock();
        reset();
        set_enabled(false);
        counters::FFT_2D.incr();
        assert_eq!(counters::FFT_2D.get(), 0);
        set_enabled(true);
        counters::FFT_2D.incr();
        counters::FFT_2D.add(2);
        assert_eq!(counters::FFT_2D.get(), 3);
        set_enabled(false);
        reset();
        assert_eq!(counters::FFT_2D.get(), 0);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _g = lock();
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _solo = span("outer");
        }
        set_enabled(false);
        let snap = span_snapshot();
        reset();
        let outer = snap.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.calls, 4);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.calls, 3);
        assert_eq!(inner.depth, 1, "inner must nest under outer");
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = lock();
        reset();
        set_enabled(false);
        {
            let _s = span("ghost");
        }
        assert!(span_snapshot().iter().all(|s| s.name != "ghost"));
    }

    #[test]
    fn grad_norms_basics() {
        let (l2, linf) = grad_norms(&[3.0, -4.0]);
        assert!((l2 - 5.0).abs() < 1e-12);
        assert_eq!(linf, 4.0);
        let (l2, linf) = grad_norms(&[0.0, f64::NAN]);
        assert!(l2.is_nan());
        assert!(linf.is_nan());
        let (l2, linf) = grad_norms(&[f64::INFINITY]);
        assert!(l2.is_infinite());
        assert!(linf.is_infinite());
        assert_eq!(grad_norms(&[]), (0.0, 0.0));
    }
}
