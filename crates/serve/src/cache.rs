//! Shared simulator cache: one [`LithoSimulator`] per optical setup.
//!
//! Building a simulator is the expensive part of a job — SOCS kernel
//! generation and FFT plan construction dwarf a small tile's optimizer
//! loop. The daemon therefore builds each `(size, kernel_count)` setup
//! once and hands every job an `Arc` to it. This is the ownership
//! refactor the service needs: the simulator is `&self`-based and
//! `Sync`, and its scratch comes from internal buffer pools whose
//! buffers are fully overwritten before use, so any number of
//! concurrently-running jobs can share one instance without perturbing
//! each other's results.

use cfaopc_litho::{LithoConfig, LithoError, LithoSimulator};
use std::sync::{Arc, Mutex};

/// Cache key: `(size, kernel_count)` — the two knobs that change the
/// optical setup.
type SetupKey = (usize, usize);

/// Keyed store of shared simulators. A `Vec` keyed by [`SetupKey`] —
/// lookup is a scan over a handful of optical setups, and iteration
/// order stays deterministic.
#[derive(Default)]
pub struct SimulatorCache {
    entries: Mutex<Vec<(SetupKey, Arc<LithoSimulator>)>>,
}

impl SimulatorCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared simulator for `(size, kernel_count)`, building it on
    /// first use.
    ///
    /// Construction happens *outside* the cache lock so a slow build
    /// (large grid) never blocks jobs running other setups; if two
    /// threads race to build the same key, the loser's instance is
    /// dropped and both get the winner's (both are deterministic
    /// functions of the config, so which one wins is unobservable).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError`] when `LithoConfig::validate` rejects the
    /// configuration (grid size not a power of two, zero kernels). No
    /// upper kernel bound is checked here: the protocol caps requests at
    /// [`MAX_KERNELS`](crate::protocol::MAX_KERNELS) before they reach
    /// the cache.
    pub fn get(&self, size: usize, kernel_count: usize) -> Result<Arc<LithoSimulator>, LithoError> {
        let key = (size, kernel_count);
        {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((_, sim)) = entries.iter().find(|(k, _)| *k == key) {
                return Ok(Arc::clone(sim));
            }
        }
        let built = Arc::new(LithoSimulator::new(LithoConfig {
            size,
            kernel_count,
            ..LithoConfig::default()
        })?);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, sim)) = entries.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(sim));
        }
        entries.push((key, Arc::clone(&built)));
        Ok(built)
    }

    /// Number of distinct optical setups built so far.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no simulator has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_the_same_instance() {
        let cache = SimulatorCache::new();
        let a = cache.get(64, 6).unwrap();
        let b = cache.get(64, 6).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache must share, not rebuild");
        assert_eq!(cache.len(), 1);
        let c = cache.get(64, 4).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalid_configs_error_and_cache_nothing() {
        let cache = SimulatorCache::new();
        assert!(cache.get(63, 6).is_err(), "non-power-of-two grid");
        assert!(cache.is_empty());
    }
}
