//! The PVM's locks and their order.
//!
//! Two tiers of locks guard the PVM:
//!
//! - the **state lock**, a [`DomainLock`] around
//!   [`crate::state::PvmState`]. It is the only lock on anything inside
//!   the state: cache descriptors, regions, history trees, the policy
//!   engine, the global map, the buddy allocator and frame metadata
//!   ([`chorus_hal::PhysicalMemory`]) and the MMU. Those are plain
//!   fields, reachable only through the guard (`PvmState` is `Send`
//!   but need not be `Sync`), so the compiler rejects any access that
//!   skips the lock. The frame *bytes* live in the lock-free
//!   [`chorus_hal::FrameStore`] plane and the fault fast path reads the
//!   lock-free translation cache; neither needs the state lock.
//! - per-cache **fault stripes** (plain mutexes on [`crate::Pvm`],
//!   hashed by cache key), the outer tier, taken only by the parallel
//!   hard-fault driver when `parallel_faults` is on.
//!
//! # Lock order
//!
//! ```text
//! fault stripe (at most one per thread, by cache-key hash)
//!   → state
//! ```
//!
//! Cross-lock waits never hold the state lock: the stub protocol
//! (`Blocked::WaitStub` + the condvar on the state lock) and mapper
//! upcalls both run with it released, exactly as the blocked-action
//! driver always did. A stripe holder may *wait* only on the state
//! lock, the 50 ms-bounded stub condvar, or a mapper upcall — never on
//! another stripe — so the hierarchy is acyclic.

use std::sync::Arc;

use crate::stats::{Counter, StatsRegistry};
use parking_lot::{Mutex, MutexGuard};

/// A mutex bumping an acquisition and a contention counter in the
/// shared registry on every lock (the state lock's wrapper).
pub(crate) struct DomainLock<T: ?Sized> {
    stats: Arc<StatsRegistry>,
    acqs: Counter,
    contended: Counter,
    inner: Mutex<T>,
}

impl<T> DomainLock<T> {
    /// Wraps `value` as a lock domain counting into `acqs`/`contended`.
    pub(crate) fn new(
        value: T,
        stats: Arc<StatsRegistry>,
        acqs: Counter,
        contended: Counter,
    ) -> DomainLock<T> {
        DomainLock {
            stats,
            acqs,
            contended,
            inner: Mutex::new(value),
        }
    }

    /// Locks the domain, counting the acquisition and (when the
    /// uncontended try-lock misses) the contention.
    #[inline]
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.stats.bump(self.acqs);
        match self.inner.try_lock() {
            Some(g) => g,
            None => {
                self.stats.bump(self.contended);
                self.inner.lock()
            }
        }
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for DomainLock<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DomainLock")
            .field("acqs", &self.acqs)
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_acquisitions_and_contention() {
        let stats = Arc::new(StatsRegistry::new());
        let l = Arc::new(DomainLock::new(
            0u64,
            stats.clone(),
            Counter::StateLockAcqs,
            Counter::StateLockContended,
        ));
        *l.lock() += 1;
        *l.lock() += 1;
        assert_eq!(stats.get(Counter::StateLockAcqs), 2);
        assert_eq!(stats.get(Counter::StateLockContended), 0, "uncontended");

        // Force one contended acquisition: hold the lock in a thread
        // until the main thread has registered its attempt.
        let held = l.lock();
        let l2 = l.clone();
        let t = std::thread::spawn(move || {
            *l2.lock() += 1;
        });
        // Give the spawned thread a moment to miss the try-lock. The
        // counter is monotone, so a lost race only weakens the assert
        // below into `>= 0`, never a failure.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        t.join().unwrap();
        assert_eq!(stats.get(Counter::StateLockAcqs), 4);
        assert_eq!(*l.lock(), 3);
    }
}
