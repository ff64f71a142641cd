//! Reusable buffer pools, so steady-state transforms and convolutions are
//! allocation-free.
//!
//! Every `Rfft2d` transform needs packed-row scratch (and
//! `Rfft2d::forward_re_into` a half-width grid), and every Hopkins kernel
//! evaluation in `cfaopc-litho` needs a full-size complex field — buffers
//! that would otherwise be heap-allocated per call, hundreds of thousands
//! of times per ILT run. A [`BufferPool`] keeps returned buffers on a
//! small shared stack and hands them back out, so after warm-up the hot
//! loop recycles the same few allocations. (`Fft2d` needs none: both of
//! its passes work in place on the caller's buffer.)
//!
//! Pools are cheap to clone (clones share the same stack, which is what a
//! cloned FFT plan wants) and safe to use from parallel regions: `take`
//! and `put` briefly lock the stack, which is noise next to the work done
//! on the buffers themselves.

use std::sync::{Arc, Mutex};

/// Buffers kept per pool; concurrency never exceeds the worker count, so a
/// small cap bounds memory without ever forcing reallocation in practice.
const MAX_POOLED: usize = 64;

/// A shared recycling stack of `Vec<T>` buffers.
pub struct BufferPool<T> {
    stack: Arc<Mutex<Vec<Vec<T>>>>,
}

impl<T> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        BufferPool {
            stack: Arc::clone(&self.stack),
        }
    }
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for BufferPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pooled = self.stack.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("BufferPool")
            .field("pooled", &pooled)
            .finish()
    }
}

impl<T> BufferPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool {
            stack: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Returns `buf` to the pool for reuse. Buffers beyond the pool cap are
    /// simply dropped.
    pub fn put(&self, buf: Vec<T>) {
        let mut stack = self.stack.lock().unwrap_or_else(|e| e.into_inner());
        if stack.len() < MAX_POOLED {
            stack.push(buf);
        }
    }

    /// Number of buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.stack.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl<T: Default + Clone> BufferPool<T> {
    /// Hands out a buffer of exactly `len` elements, recycling a parked one
    /// when possible. Contents are unspecified (whatever the previous user
    /// left, default-filled for fresh allocations) — callers are expected
    /// to overwrite every element, or use [`BufferPool::take_zeroed`].
    pub fn take(&self, len: usize) -> Vec<T> {
        let recycled = {
            let mut stack = self.stack.lock().unwrap_or_else(|e| e.into_inner());
            stack.pop()
        };
        match recycled {
            Some(mut buf) => {
                buf.resize(len, T::default());
                buf
            }
            None => vec![T::default(); len],
        }
    }

    /// Like [`BufferPool::take`], but every element is reset to `T::default()`.
    pub fn take_zeroed(&self, len: usize) -> Vec<T> {
        let mut buf = self.take(len);
        buf.fill(T::default());
        buf
    }

    /// Makes sure at least `count` buffers (capped at the pool's limit)
    /// are parked, so the next `count` overlapping takes all recycle. A
    /// no-op once the pool holds that many. Call it with
    /// [`crate::parallel::region_width`] before a region whose tasks each
    /// take one buffer: the pool then reaches its high-water mark on the
    /// first run rather than whenever enough tasks first overlap.
    pub fn reserve(&self, count: usize, len: usize) {
        let count = count.min(MAX_POOLED);
        if count == 0 || self.pooled() >= count {
            return;
        }
        // Hold one buffer while the other `count - 1` are reserved, then
        // park it too. Only `take`'s empty-pool path allocates, so the
        // pool keeps a single allocation site.
        let held = self.take(len);
        self.reserve(count - 1, len);
        self.put(held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles_allocation() {
        let pool: BufferPool<f64> = BufferPool::new();
        let buf = pool.take(256);
        let ptr = buf.as_ptr();
        pool.put(buf);
        assert_eq!(pool.pooled(), 1);
        let again = pool.take(256);
        assert_eq!(again.as_ptr(), ptr, "same allocation must be reused");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn take_zeroed_clears_previous_contents() {
        let pool: BufferPool<f64> = BufferPool::new();
        let mut buf = pool.take(16);
        buf.fill(7.5);
        pool.put(buf);
        let clean = pool.take_zeroed(16);
        assert!(clean.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn resize_handles_shape_changes() {
        let pool: BufferPool<u32> = BufferPool::new();
        pool.put(vec![9; 100]);
        let small = pool.take(10);
        assert_eq!(small.len(), 10);
        pool.put(small);
        let big = pool.take(50);
        assert_eq!(big.len(), 50);
    }

    #[test]
    fn reserve_tops_up_to_count_once() {
        let pool: BufferPool<f64> = BufferPool::new();
        pool.put(vec![1.0; 8]);
        pool.reserve(3, 8);
        assert_eq!(pool.pooled(), 3, "tops up the shortfall only");
        pool.reserve(2, 8);
        assert_eq!(pool.pooled(), 3, "never shrinks or over-fills");
        pool.reserve(MAX_POOLED + 5, 1);
        assert_eq!(pool.pooled(), MAX_POOLED, "capped like put");
    }

    #[test]
    fn clones_share_the_stack() {
        let a: BufferPool<u8> = BufferPool::new();
        let b = a.clone();
        b.put(vec![0; 8]);
        assert_eq!(a.pooled(), 1);
    }
}
