//! Persistent-pool data-parallel helpers.
//!
//! The lithography pipeline is embarrassingly parallel across optical
//! kernels, focus stacks and circle tiles, and the optimizer calls into
//! these helpers thousands of times per run. Rather than spawn scoped threads on
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
//!    claiming, so uneven work balances out; the unit of work (one
//!    kernel's field, one focus stack, a batch of composition tiles) is
//!    large enough that the claim cost is noise.
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

/// Upper bound on pool size; a litho region holds one task per kernel or
/// per focus stack, so threads past a few dozen find nothing to claim.
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
/// regions at its share via [`with_worker_limit`]; [`par_map_coarse`]
/// runs that schedule. `4` workers over `3` slots yields `[2, 1, 1]`, not
/// the `[1, 1, 1]`-plus-idle-worker split a plain `workers / slots`
/// produces. Because inner regions are bit-identical at any worker limit,
/// the uneven shares never change results — only how fully the pool is
/// used.
pub fn worker_shares(workers: usize, slots: usize) -> Vec<usize> {
    let slots = slots.max(1);
    (0..slots).map(|i| slot_share(workers, slots, i)).collect()
}

/// Entry `i` of [`worker_shares`]`(workers, slots)`.
fn slot_share(workers: usize, slots: usize, i: usize) -> usize {
    let (workers, slots) = (workers.max(1), slots.max(1));
    (workers / slots + usize::from(i < workers % slots)).max(1)
}

/// The worker count [`par_map_coarse`] over `n` tasks, opened from this
/// thread, splits: the caller's own width under any [`with_worker_limit`]
/// cap, and `c = min(n, workers)` of its tasks run at once.
fn coarse_split(n: usize) -> (usize, usize) {
    let workers = effective_workers();
    (workers, workers.min(n).max(1))
}

/// The cap [`par_map_coarse`]`(n, …)`, opened from this thread, puts on
/// task `i`'s inner regions — for a caller that reserves pooled scratch
/// for those regions before opening it.
pub fn coarse_share(n: usize, i: usize) -> usize {
    let (workers, concurrent) = coarse_split(n);
    slot_share(workers, concurrent, i % concurrent)
}

/// Two-level scheduling: maps `f` over `0..n` coarse-grained tasks (eval
/// cases, chip tiles, a litho call's focus stacks) with [`par_map`],
/// capping task `i`'s inner regions at share `i mod c` of
/// [`worker_shares`]`(workers, c)`, where `workers` is the calling
/// thread's own width (so a task already capped by [`with_worker_limit`]
/// splits its cap, never the whole pool's) and `c = min(n, workers)`
/// tasks run at once. The share is keyed off the index, not the claiming
/// thread, so the assignment is timing-independent.
pub fn par_map_coarse<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (workers, concurrent) = coarse_split(n);
    par_map(n, |i| {
        with_worker_limit(slot_share(workers, concurrent, i % concurrent), || f(i))
    })
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
