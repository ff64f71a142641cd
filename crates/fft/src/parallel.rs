//! Persistent-pool data-parallel helpers.
//!
//! The lithography pipeline is embarrassingly parallel across FFT rows,
//! optical kernels and circle shots, and the optimizer calls into these
//! helpers thousands of times per run. Rather than spawn scoped threads on
//! every call (the original design) or pull in a work-stealing runtime, this
//! module keeps one **process-wide worker pool**: long-lived threads created
//! lazily on the first parallel region and reused for every region after
//! that, so steady-state parallel calls spawn zero new OS threads.
//!
//! How a region runs:
//!
//! 1. The caller publishes a [`Region`] (an atomic work cursor over `0..n`
//!    plus a type-erased reference to the closure) on the pool's queue and
//!    wakes the workers.
//! 2. Workers and the caller all claim indices through the cursor — dynamic
//!    claiming, so uneven work balances out; the unit of work (an FFT row
//!    block, a whole kernel convolution) is large enough that the claim
//!    cost is noise.
//! 3. The caller participates until the cursor is exhausted, then blocks
//!    until every claimed index has finished. Only then does it return,
//!    which is what makes lending the non-`'static` closure to the pool
//!    sound.
//!
//! Panics inside a task are caught on the worker, carried back, and resumed
//! on the calling thread once the region has fully drained; the workers
//! themselves survive. Regions are reentrant: a task may itself open a
//! nested parallel region (the nested caller participates in its own
//! region, so progress is always guaranteed), although the hot paths in
//! `cfaopc-litho` deliberately flatten nesting instead — one parallel
//! region with serial FFTs inside beats thread-thrashing nested regions.
//!
//! `CFAOPC_THREADS` overrides the worker count; it is read **once**, when
//! the pool configuration is first consulted, and clamped to `[1, 32]`.
//! `CFAOPC_THREADS=1` keeps everything on the calling thread and never
//! creates the pool. Unparsable values emit a warning on stderr and fall
//! back to auto-detection. [`with_worker_limit`] narrows the count further
//! for a scope (e.g. benchmarking scaling curves, or forcing a bit-exact
//! serial run next to a parallel one in tests).

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};

/// Upper bound on pool size; beyond this the FFT row blocks are too small
/// for extra threads to pay for themselves.
const MAX_WORKERS: usize = 32;

/// Returns the configured worker count: `CFAOPC_THREADS` if set and valid,
/// else `available_parallelism`, both clamped to `[1, 32]`.
///
/// The value is computed once per process (the persistent pool is sized by
/// it); changing the environment variable afterwards has no effect.
/// Unparsable values are ignored with a warning on stderr.
pub fn worker_count() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        if let Ok(v) = std::env::var("CFAOPC_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(n) => return n.clamp(1, MAX_WORKERS),
                Err(_) => {
                    eprintln!(
                        "cfaopc-fft: warning: CFAOPC_THREADS={v:?} is not a valid \
                         thread count; falling back to auto-detection"
                    );
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, MAX_WORKERS)
    })
}

thread_local! {
    static WORKER_LIMIT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Runs `f` with parallel regions on this thread capped at `limit` workers
/// (including the calling thread). `limit == 1` forces fully serial, inline
/// execution — bit-identical to what a `CFAOPC_THREADS=1` process computes —
/// which is how the test suite compares serial and parallel results within
/// one process. Limits nest; the innermost one wins.
pub fn with_worker_limit<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    let limit = limit.max(1);
    let prev = WORKER_LIMIT.with(|l| l.replace(limit));
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_LIMIT.with(|l| l.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Worker count after applying the scoped [`with_worker_limit`] cap.
fn effective_workers() -> usize {
    worker_count().min(WORKER_LIMIT.with(|l| l.get()))
}

/// Most threads a parallel region over `n` indices, opened from this
/// thread, can run at once (the caller included): the worker count under
/// any [`with_worker_limit`] cap, and never more than `n`.
///
/// Tasks that each borrow one pooled scratch buffer push their pool to
/// this many buffers — but only once enough of them happen to overlap,
/// which depends on scheduling. Reserving this many up front with
/// [`crate::BufferPool::reserve`] makes the region allocation-free from
/// its first run on, however its tasks interleave.
pub fn region_width(n: usize) -> usize {
    effective_workers().min(n.max(1))
}

/// Splits `workers` threads across `slots` concurrent coarse-grained
/// tasks, distributing the remainder so no worker sits idle: slot `i`
/// gets `workers / slots`, plus one if `i < workers % slots`, and always
/// at least 1 (oversubscribed slots run serially rather than starve).
///
/// This is the share table for two-level scheduling — an outer claim of
/// whole tasks (eval cases, daemon jobs) where each task caps its inner
/// regions at its share via [`with_worker_limit`]. `4` workers over `3`
/// slots yields `[2, 1, 1]`, not the `[1, 1, 1]`-plus-idle-worker split
/// a plain `workers / slots` produces. Because inner regions are
/// bit-identical at any worker limit, the uneven shares never change
/// results — only how fully the pool is used.
pub fn worker_shares(workers: usize, slots: usize) -> Vec<usize> {
    let slots = slots.max(1);
    let workers = workers.max(1);
    let base = workers / slots;
    let rem = workers % slots;
    (0..slots)
        .map(|i| (base + usize::from(i < rem)).max(1))
        .collect()
}

/// Number of OS threads the persistent pool has spawned so far (0 until the
/// first parallel region runs, then constant). Exposed for benchmarks and
/// the steady-state "zero new threads" test.
pub fn pool_thread_count() -> usize {
    POOL.get().map_or(0, |p| p.spawned)
}

/// Type-erased borrow of a region body. The region protocol (caller blocks
/// until all claimed indices finish) keeps the borrow alive for as long as
/// any thread can dereference it.
#[derive(Clone, Copy)]
struct RawTask(&'static (dyn Fn(usize) + Sync));

/// One parallel region: an atomic cursor over `0..n` plus completion
/// tracking. Shared between the caller and the pool workers via `Arc`.
struct Region {
    task: RawTask,
    n: usize,
    /// Next unclaimed index; claims beyond `n` mean "exhausted".
    next: AtomicUsize,
    /// Finished task count; the region is complete when it reaches `n`.
    done: AtomicUsize,
    /// Cap on pool workers attached concurrently (caller not counted).
    max_extra: usize,
    /// Pool workers currently attached.
    extra: AtomicUsize,
    /// Completion flag + first caught panic, guarded for the condvar.
    state: Mutex<RegionState>,
    finished: Condvar,
}

struct RegionState {
    complete: bool,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Region {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }

    /// Reserves an attachment slot for a pool worker, respecting the cap.
    fn try_attach(&self) -> bool {
        let mut cur = self.extra.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_extra {
                return false;
            }
            match self.extra.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    fn detach(&self) {
        self.extra.fetch_sub(1, Ordering::Relaxed);
    }

    /// Claims and runs indices until the cursor is exhausted. Panics from
    /// the task body are caught and recorded (first one wins); every claimed
    /// index still counts toward completion so the caller never hangs.
    fn participate(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| (self.task.0)(i)));
            if let Err(payload) = result {
                let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                st.panic.get_or_insert(payload);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                st.complete = true;
                self.finished.notify_all();
            }
        }
    }

    /// Blocks until every index has finished; returns the first panic.
    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !st.complete {
            st = self.finished.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.panic.take()
    }
}

/// The process-wide pool: a queue of active regions and the workers that
/// drain it.
struct Pool {
    shared: Arc<PoolShared>,
    /// Worker threads spawned (pool size minus the participating caller).
    spawned: usize,
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Region>>>,
    work_available: Condvar,
    /// Every worker plus the spawning thread meet here once, so the pool
    /// exists only after each worker has finished starting up.
    started: Barrier,
}

static POOL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    fn global() -> &'static Pool {
        POOL.get_or_init(|| {
            let spawned = worker_count().saturating_sub(1);
            let shared = Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                work_available: Condvar::new(),
                started: Barrier::new(spawned + 1),
            });
            for i in 0..spawned {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cfaopc-worker-{i}"))
                    .spawn(move || {
                        shared.started.wait();
                        worker_loop(&shared)
                    })
                    .expect("spawning pool worker");
            }
            // A thread allocates as it starts (name, thread-locals); doing
            // that here, not whenever the scheduler first runs it, keeps
            // it out of every later region.
            shared.started.wait();
            Pool { shared, spawned }
        })
    }

    fn inject(&self, region: Arc<Region>) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(region);
        drop(q);
        self.shared.work_available.notify_all();
    }

    /// Takes a finished region off the queue, then waits out the workers
    /// still holding it — they drop it right after their last claim. The
    /// region is therefore freed by its caller, before the caller returns,
    /// rather than whenever a worker next wakes: the heap looks the same
    /// after every region, however the workers were scheduled.
    fn retire(&self, region: &Arc<Region>) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.retain(|queued| !Arc::ptr_eq(queued, region));
        drop(q);
        // Workers attach only through the queue, so the count can only
        // fall from here.
        while Arc::strong_count(region) > 1 {
            std::thread::yield_now();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let region = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                // First region with free work and a free attachment slot;
                // each caller takes its own region off the queue.
                let claimed = q.iter().find(|r| !r.exhausted() && r.try_attach()).cloned();
                match claimed {
                    Some(r) => break r,
                    None => {
                        q = shared
                            .work_available
                            .wait(q)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        };
        region.participate();
        region.detach();
        if !region.exhausted() {
            // We hit the attachment cap race or bailed early: let a sleeping
            // worker reconsider the region.
            shared.work_available.notify_all();
        }
    }
}

/// Runs `f(0..n)` on the persistent pool with at most `workers` threads
/// (including the caller). Blocks until the whole region has finished;
/// resumes the first panic on the calling thread.
///
/// # Safety-by-protocol
///
/// The closure reference is lifetime-erased before it is shared with the
/// pool. This is sound because (a) the caller does not return until
/// `done == n`, i.e. every dereference has completed, and (b) once the
/// cursor passes `n`, workers only touch the region's atomics, never the
/// closure.
fn run_region(n: usize, workers: usize, f: &(dyn Fn(usize) + Sync)) {
    debug_assert!(n > 1 && workers > 1);
    cfaopc_trace::counters::POOL_REGIONS.incr();
    // SAFETY: see "Safety-by-protocol" above — the borrow outlives every
    // dereference because this function blocks until the region drains.
    #[allow(unsafe_code)]
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let region = Arc::new(Region {
        task: RawTask(task),
        n,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        max_extra: workers - 1,
        extra: AtomicUsize::new(0),
        state: Mutex::new(RegionState {
            complete: false,
            panic: None,
        }),
        finished: Condvar::new(),
    });
    let pool = Pool::global();
    if pool.spawned > 0 {
        pool.inject(Arc::clone(&region));
    }
    region.participate();
    let panic = region.wait();
    if pool.spawned > 0 {
        pool.retire(&region);
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Applies `f` to equal-length mutable chunks of `data` in parallel.
///
/// `f` receives the chunk index (i.e. `offset / chunk_len`) and the chunk.
/// The final chunk may be shorter when `data.len()` is not a multiple of
/// `chunk_len`. Runs serially (inline, spawning nothing) when only one
/// worker is configured or there is at most one chunk.
///
/// # Panics
///
/// Panics if `chunk_len == 0`. Panics propagate from `f` (the region drains
/// fully before the panic resumes on this thread).
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = region_width(n_chunks);
    if workers <= 1 || n_chunks <= 1 {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    let len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    run_region(n_chunks, workers, &|i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: chunk index `i` is claimed exactly once per region, and
        // distinct indices map to disjoint `[start, end)` windows of `data`,
        // so no two live `&mut` slices alias. `data` outlives the region
        // because `run_region` blocks until all tasks finish.
        #[allow(unsafe_code)]
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.at(start), end - start) };
        f(i, chunk);
    });
}

/// Runs `f(i)` for every `i in 0..n` with **dynamic claiming in batches
/// of `grain` consecutive indices** on the persistent pool.
///
/// This is the work-stealing-style primitive behind the dirty-tile
/// composition scheduler in `cfaopc-core`: the region's atomic cursor
/// hands each participant `grain` indices per claim, so the claim cost
/// amortizes over a batch while short, uneven worklists (sparse circle
/// sets touch few tiles) still balance dynamically instead of being
/// carved into fixed bands up front. Indices inside a batch run in
/// ascending order; batches themselves are unordered across threads, so
/// `f` must make iterations independent (e.g. each index owns a
/// disjoint region of the output — see [`DisjointSliceMut`]).
///
/// Runs serially (inline, spawning nothing) when only one worker is
/// configured or there is at most one batch.
///
/// # Panics
///
/// Panics if `grain == 0`. Panics propagate from `f` after the region
/// drains.
pub fn par_index_claim<F>(n: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    assert!(grain > 0, "grain must be positive");
    let batches = n.div_ceil(grain);
    let workers = region_width(batches);
    if workers <= 1 || batches <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    run_region(batches, workers, &|b| {
        let start = b * grain;
        let end = (start + grain).min(n);
        for i in start..end {
            f(i);
        }
    });
}

/// A shared mutable slice that parallel tasks may carve into
/// **caller-guaranteed disjoint** sub-slices.
///
/// The safe constructor borrows the slice mutably for the wrapper's
/// lifetime, so no other access can exist while tasks write through it;
/// the remaining obligation — that concurrent [`DisjointSliceMut::slice_mut`]
/// calls never overlap — cannot be checked here and is why that method
/// is `unsafe`. This is the tile-renderer's write path: each claimed
/// tile maps to row segments no other tile contains.
pub struct DisjointSliceMut<'a, T> {
    ptr: SendPtr<T>,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

impl<'a, T: Send> DisjointSliceMut<'a, T> {
    /// Wraps `data` for disjoint parallel writes.
    pub fn new(data: &'a mut [T]) -> Self {
        DisjointSliceMut {
            len: data.len(),
            ptr: SendPtr(data.as_mut_ptr()),
            _marker: std::marker::PhantomData,
        }
    }

    /// Total length of the wrapped slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wrapped slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sub-slice `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// No two sub-slices alive at the same time (across all threads) may
    /// overlap, and `start + len` must not exceed [`DisjointSliceMut::len`].
    /// The bounds are asserted; the disjointness is the caller's contract.
    // `&self -> &mut` is the point of this type: many tasks hold shared
    // references to the wrapper and carve provably disjoint sub-slices,
    // which is exactly the aliasing obligation the `unsafe` contract
    // above pushes to the caller.
    #[allow(clippy::mut_from_ref)]
    #[allow(unsafe_code)]
    // SAFETY: see `# Safety` above — bounds are asserted here, and the
    // caller upholds the no-overlapping-sub-slices contract.
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        assert!(
            start <= self.len && len <= self.len - start,
            "sub-slice out of bounds"
        );
        // SAFETY: bounds checked above; the caller guarantees no aliasing
        // sub-slice is alive, and the wrapper's lifetime pins the unique
        // borrow of the underlying data.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.at(start), len) }
    }
}

/// Columns `c0..c1` of a row-major buffer, seen as one mutable row
/// segment per row — the strided view the in-place FFT column pass works
/// on.
///
/// A view owns its segments exclusively: [`ColumnBlockMut::new`] borrows
/// the whole buffer, and [`par_column_blocks`] hands each task a block of
/// columns no other task's block contains.
pub(crate) struct ColumnBlockMut<'a, T> {
    /// Element `(0, c0)`.
    ptr: *mut T,
    /// Row stride of the underlying buffer.
    width: usize,
    rows: usize,
    /// Segment length `c1 − c0`.
    cols: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

impl<'a, T> ColumnBlockMut<'a, T> {
    /// Columns `cols` of every row of `data`, a row-major buffer `width`
    /// elements wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or does not divide `data.len()`, or if
    /// `cols` is not a range inside `0..=width`.
    pub(crate) fn new(data: &'a mut [T], width: usize, cols: std::ops::Range<usize>) -> Self {
        assert!(
            width > 0 && data.len().is_multiple_of(width),
            "buffer is not a whole number of rows"
        );
        assert!(
            cols.start <= cols.end && cols.end <= width,
            "column range out of bounds"
        );
        ColumnBlockMut {
            ptr: data.as_mut_ptr().wrapping_add(cols.start),
            width,
            rows: data.len() / width,
            cols: cols.end - cols.start,
            _marker: std::marker::PhantomData,
        }
    }

    /// The view of `rows` segments of `cols` elements, the first at `ptr`
    /// and each `width` elements after the previous one.
    ///
    /// # Safety
    ///
    /// `cols <= width`, every segment must lie inside one live allocation
    /// for `'a`, and nothing else may access any segment element while
    /// the view is alive.
    #[allow(unsafe_code)]
    // SAFETY: see `# Safety` above — the caller upholds the bounds and the
    // exclusive-access contract the accessors rely on.
    unsafe fn from_raw_parts(ptr: *mut T, width: usize, rows: usize, cols: usize) -> Self {
        debug_assert!(cols <= width);
        ColumnBlockMut {
            ptr,
            width,
            rows,
            cols,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of rows (segments).
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Row `r`'s segment.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row out of bounds");
        // SAFETY: `r < rows` and `c0 + cols <= width` keep the segment
        // inside the underlying buffer; the view owns its segments
        // exclusively (see the type docs) and `&mut self` keeps this the
        // only live one.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr.add(r * self.width), self.cols)
        }
    }

    /// The segments of two distinct rows `i` and `j`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either row is out of bounds.
    pub(crate) fn row_pair_mut(&mut self, i: usize, j: usize) -> (&mut [T], &mut [T]) {
        assert!(
            i != j && i < self.rows && j < self.rows,
            "row pair out of bounds"
        );
        // SAFETY: as in `row_mut`, both segments lie inside the buffer and
        // belong to this view alone. Two distinct rows start `width`
        // elements apart or more, and a segment is at most `width` long,
        // so the two segments do not overlap.
        #[allow(unsafe_code)]
        unsafe {
            (
                std::slice::from_raw_parts_mut(self.ptr.add(i * self.width), self.cols),
                std::slice::from_raw_parts_mut(self.ptr.add(j * self.width), self.cols),
            )
        }
    }

    /// The segments of rows `r`, `r + stride`, `r + 2·stride` and
    /// `r + 3·stride`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or row `r + 3·stride` is out of bounds.
    pub(crate) fn row_quad_mut(&mut self, r: usize, stride: usize) -> [&mut [T]; 4] {
        let last = stride.checked_mul(3).and_then(|s| s.checked_add(r));
        assert!(
            stride > 0 && last.is_some_and(|l| l < self.rows),
            "row quad out of bounds"
        );
        let (ptr, width, cols) = (self.ptr, self.width, self.cols);
        // SAFETY: as in `row_pair_mut`: all four rows are below `rows`, so
        // their segments lie inside the buffer and belong to this view
        // alone; a nonzero stride makes the rows distinct, and segments of
        // distinct rows do not overlap.
        #[allow(unsafe_code)]
        [0, 1, 2, 3].map(|q| unsafe {
            std::slice::from_raw_parts_mut(ptr.add((r + q * stride) * width), cols)
        })
    }
}

/// Runs `f` over columns `0..cols` of a row-major buffer `width` elements
/// wide, split into contiguous column blocks with one task per block, all
/// in one region. Each task gets its block's first column and the
/// [`ColumnBlockMut`] of its own block.
///
/// The block layout follows the worker count, so `f` must treat every
/// column independently of its neighbours (as a column FFT does); results
/// are then bit-identical at any worker count. Runs inline on one block
/// spanning every column when only one worker is available.
///
/// # Panics
///
/// Panics as [`ColumnBlockMut::new`] does for `0..cols`. Panics propagate
/// from `f` after the region drains.
pub(crate) fn par_column_blocks<T, F>(data: &mut [T], width: usize, cols: usize, f: F)
where
    T: Send,
    F: Fn(usize, ColumnBlockMut<'_, T>) + Sync,
{
    let whole = ColumnBlockMut::new(data, width, 0..cols);
    let blocks = region_width(cols);
    if blocks <= 1 || whole.rows == 0 {
        f(0, whole);
        return;
    }
    let (base, rows) = (SendPtr(whole.ptr), whole.rows);
    run_region(blocks, blocks, &|b| {
        let (c0, c1) = (b * cols / blocks, (b + 1) * cols / blocks);
        // SAFETY: block `b` is claimed exactly once per region, and
        // distinct blocks cover disjoint column ranges of `0..cols`, so no
        // two tasks' views share an element. `data` stays mutably borrowed
        // (through `whole`) until `run_region` returns, after every task
        // has finished. `c0 < cols <= width` and `rows >= 1` keep
        // `base.at(c0)` inside row 0.
        #[allow(unsafe_code)]
        let view = unsafe { ColumnBlockMut::from_raw_parts(base.at(c0), width, rows, c1 - c0) };
        f(c0, view);
    });
}

/// Wrapper making a raw pointer `Send + Sync` so region tasks can write
/// disjoint slots of a shared buffer.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer offset by `i` elements. Going through a method
    /// keeps closures capturing the (Sync) wrapper, not the raw field.
    fn at(&self, i: usize) -> *mut T {
        // SAFETY: caller guarantees `i` is in bounds of the owning buffer.
        #[allow(unsafe_code)]
        unsafe {
            self.0.add(i)
        }
    }
}

#[allow(unsafe_code)]
// SAFETY: every use in this module writes through disjoint, exactly-once
// claimed offsets, and the owning buffer outlives the region.
unsafe impl<T: Send> Send for SendPtr<T> {}
#[allow(unsafe_code)]
// SAFETY: as above — the pointer is only dereferenced at disjoint offsets.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Maps `f` over `0..n` in parallel and collects the results in order.
///
/// Unlike the earlier scoped implementation this needs no `Default + Clone`
/// bound and allocates no per-element synchronization: results are written
/// straight into the output vector's slots. If `f` panics, the panic
/// resumes on the caller and the values produced by other iterations are
/// leaked (their destructors do not run) — acceptable for the numeric
/// buffers this workspace maps over.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = region_width(n);
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<T> = Vec::with_capacity(n);
    let base = SendPtr(out.as_mut_ptr());
    run_region(n, workers, &|i| {
        let value = f(i);
        // SAFETY: each index in `0..n < capacity` is claimed exactly once,
        // so each slot is written exactly once, and the buffer outlives the
        // region. Until `set_len` below the elements are not owned by the
        // Vec, hence the documented leak-on-panic.
        #[allow(unsafe_code)]
        unsafe {
            base.at(i).write(value);
        }
    });
    // SAFETY: all n slots are initialized — run_region returns only after
    // every index completed, and a panic would have propagated above.
    #[allow(unsafe_code)]
    unsafe {
        out.set_len(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn worker_shares_distributes_remainder() {
        assert_eq!(worker_shares(4, 3), vec![2, 1, 1]);
        assert_eq!(worker_shares(4, 2), vec![2, 2]);
        assert_eq!(worker_shares(7, 3), vec![3, 2, 2]);
        assert_eq!(worker_shares(4, 4), vec![1, 1, 1, 1]);
        // More slots than workers: everyone runs serially, nobody starves.
        assert_eq!(worker_shares(2, 5), vec![1, 1, 1, 1, 1]);
        // Degenerate inputs clamp instead of panicking.
        assert_eq!(worker_shares(0, 0), vec![1]);
        assert_eq!(worker_shares(8, 1), vec![8]);
    }

    #[test]
    fn worker_shares_sum_covers_pool_when_slots_divide() {
        for workers in 1..=16 {
            for slots in 1..=workers {
                let shares = worker_shares(workers, slots);
                assert_eq!(shares.len(), slots);
                assert_eq!(
                    shares.iter().sum::<usize>(),
                    workers,
                    "workers={workers} slots={slots}: no idle workers"
                );
                // Shares are monotonically non-increasing so slot 0 (the
                // first case claimed) gets the extra threads.
                assert!(shares.windows(2).all(|w| w[0] >= w[1]));
            }
        }
    }

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let mut data = vec![0u32; 1027];
        par_chunks_mut(&mut data, 64, |_idx, chunk| {
            for v in chunk.iter_mut() {
                *v += 1; // each element exactly once
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn par_chunks_mut_chunk_indices_are_correct() {
        let mut data = vec![0usize; 300];
        par_chunks_mut(&mut data, 100, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v = idx;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[150], 1);
        assert_eq!(data[299], 2);
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn par_chunks_mut_rejects_zero_chunk() {
        let mut data = vec![0u8; 4];
        par_chunks_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn par_index_claim_runs_each_index_once() {
        for grain in [1, 3, 16, 1000] {
            let count = AtomicU64::new(0);
            let sum = AtomicU64::new(0);
            par_index_claim(257, grain, |i| {
                count.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 257, "grain {grain}");
            assert_eq!(sum.load(Ordering::Relaxed), 256 * 257 / 2, "grain {grain}");
        }
    }

    #[test]
    fn par_index_claim_handles_zero_and_one() {
        for grain in [1, 4] {
            par_index_claim(0, grain, |_| panic!("must not run"));
            let hit = AtomicU64::new(0);
            par_index_claim(1, grain, |_| {
                hit.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hit.load(Ordering::Relaxed), 1, "grain {grain}");
        }
    }

    #[test]
    #[should_panic(expected = "grain must be positive")]
    fn par_index_claim_rejects_zero_grain() {
        par_index_claim(4, 0, |_| {});
    }

    #[test]
    fn disjoint_slice_mut_writes_disjoint_tiles() {
        let mut data = vec![0u32; 64];
        let shared = DisjointSliceMut::new(&mut data);
        assert_eq!(shared.len(), 64);
        assert!(!shared.is_empty());
        par_index_claim(8, 2, |i| {
            // SAFETY: each index owns the disjoint window [8i, 8i+8), and
            // every index is claimed exactly once per region.
            #[allow(unsafe_code)]
            let chunk = unsafe { shared.slice_mut(i * 8, 8) };
            for v in chunk.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 8) as u32 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "sub-slice out of bounds")]
    fn disjoint_slice_mut_checks_bounds() {
        let mut data = vec![0u8; 8];
        let shared = DisjointSliceMut::new(&mut data);
        // SAFETY: no other sub-slice is alive; the call panics on bounds.
        #[allow(unsafe_code)]
        let _ = unsafe { shared.slice_mut(4, 5) };
    }

    #[test]
    fn par_column_blocks_visits_each_column_of_the_range_once() {
        let (rows, width) = (5usize, 13usize);
        for cols in [0usize, 1, 2, 7, 13] {
            let mut data = vec![0u32; rows * width];
            par_column_blocks(&mut data, width, cols, |c0, mut block| {
                assert_eq!(block.rows(), rows);
                for r in 0..rows {
                    for (i, v) in block.row_mut(r).iter_mut().enumerate() {
                        // Each cell records its own column, once.
                        *v += (c0 + i) as u32 + 1;
                    }
                }
            });
            for (i, v) in data.iter().enumerate() {
                let c = i % width;
                let want = if c < cols { c as u32 + 1 } else { 0 };
                assert_eq!(*v, want, "cols {cols}: cell {i}");
            }
        }
    }

    #[test]
    fn column_block_row_pairs_are_the_two_rows() {
        let mut data: Vec<u32> = (0..24).collect();
        let mut block = ColumnBlockMut::new(&mut data, 6, 2..5);
        let (a, b) = block.row_pair_mut(3, 1);
        assert_eq!((&*a, &*b), (&[20, 21, 22][..], &[8, 9, 10][..]));
        a.swap_with_slice(b);
        assert_eq!(block.row_mut(1), &[20, 21, 22]);
        assert_eq!(&data[18..24], &[18, 19, 8, 9, 10, 23]);
    }

    #[test]
    #[should_panic(expected = "row pair out of bounds")]
    fn column_block_rejects_a_repeated_row() {
        let mut data = vec![0u8; 12];
        let mut block = ColumnBlockMut::new(&mut data, 4, 0..4);
        let _ = block.row_pair_mut(1, 1);
    }

    #[test]
    fn column_block_row_quads_are_the_four_strided_rows() {
        let mut data: Vec<u32> = (0..40).collect();
        let mut block = ColumnBlockMut::new(&mut data, 4, 1..3);
        // Ten rows: the quad may reach the last one.
        let [a, b, c, d] = block.row_quad_mut(0, 3);
        assert_eq!(
            [&*a, &*b, &*c, &*d],
            [&[1, 2][..], &[13, 14], &[25, 26], &[37, 38]]
        );
    }

    #[test]
    #[should_panic(expected = "row quad out of bounds")]
    fn column_block_rejects_a_row_quad_past_the_last_row() {
        let mut data = vec![0u8; 40];
        let mut block = ColumnBlockMut::new(&mut data, 4, 0..4);
        let _ = block.row_quad_mut(2, 3);
    }

    #[test]
    #[should_panic(expected = "row quad out of bounds")]
    fn column_block_rejects_a_zero_row_quad_stride() {
        let mut data = vec![0u8; 40];
        let mut block = ColumnBlockMut::new(&mut data, 4, 0..4);
        let _ = block.row_quad_mut(0, 0);
    }

    #[test]
    #[should_panic(expected = "column range out of bounds")]
    fn column_block_rejects_columns_past_the_width() {
        let mut data = vec![0u8; 12];
        let _ = ColumnBlockMut::new(&mut data, 4, 2..5);
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(257, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn par_map_without_default_bound() {
        // String: Send but the old `T: Default + Clone` path never cloned
        // correctly-ordered non-trivial values through slots this cheaply.
        let out = par_map(64, |i| format!("item-{i}"));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &format!("item-{i}"));
        }
    }

    #[test]
    fn worker_limit_is_scoped_and_restored() {
        let outer = worker_count();
        with_worker_limit(1, || {
            assert_eq!(super::effective_workers(), 1);
            with_worker_limit(5, || {
                assert_eq!(super::effective_workers(), outer.min(5));
            });
            assert_eq!(super::effective_workers(), 1);
        });
        assert_eq!(super::effective_workers(), outer);
    }

    #[test]
    fn pool_survives_a_panicking_region() {
        let result = std::panic::catch_unwind(|| {
            par_index_claim(64, 1, |i| {
                if i == 13 {
                    panic!("boom at 13");
                }
            });
        });
        let err = result.expect_err("panic must propagate to the caller");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom at 13"), "unexpected payload: {msg}");
        // The pool still works afterwards.
        let out = par_map(128, |i| i + 1);
        assert_eq!(out.iter().sum::<usize>(), (1..=128).sum::<usize>());
    }

    #[test]
    fn nested_regions_do_not_deadlock() {
        let out = par_map(8, |i| {
            let inner = par_map(16, move |j| i * 100 + j);
            inner.iter().sum::<usize>()
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (0..16).map(|j| i * 100 + j).sum::<usize>());
        }
    }
}
