//! PVM event counters: the atomic registry and its snapshot view.
//!
//! The registry ([`StatsRegistry`]) is one cache of atomic cells shared
//! by every counting site — the locked slow path, the lock-free fault
//! fast path and the tracer all bump the *same* cells, so no counter
//! can lose updates to a non-atomic read-modify-write and no
//! fold-at-snapshot step has to reconcile divergent copies.
//! [`PvmStats`] survives as the plain snapshot view the tests and
//! benches always consumed; [`PvmStats::delta`] subtracts an earlier
//! snapshot for before/after measurements.

use core::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident => $variant:ident,)*) => {
        /// Identifies one atomic counter cell of the [`StatsRegistry`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            /// The snapshot field name (stable report label).
            pub fn label(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($field),)*
                }
            }
        }

        /// Counters of notable PVM events, exposed for tests and benches.
        ///
        /// These complement the cost-model operation counts with events
        /// that are specific to the PVM's algorithms (history pushes,
        /// stub waits, zombie merges, ...). This is a point-in-time
        /// *snapshot* of the live [`StatsRegistry`]; take one with
        /// [`crate::Pvm::stats`].
        ///
        /// Five fields always read 0 and stay only so existing reports
        /// keep their columns: `shard_contention`, `phys_lock_acqs`,
        /// `phys_lock_contended`, `trans_lock_acqs` and
        /// `trans_lock_contended`. They counted the global-map shard
        /// locks and the phys/MMU locks, which no longer exist — the
        /// global map, the frame pool and the MMU are plain fields
        /// behind the state lock.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct PvmStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl PvmStats {
            /// Field-wise difference `self - earlier` (saturating), for
            /// before/after bench windows.
            pub fn delta(&self, earlier: &PvmStats) -> PvmStats {
                PvmStats {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                }
            }

            /// The value of one counter, by registry id.
            pub fn get(&self, c: Counter) -> u64 {
                match c {
                    $(Counter::$variant => self.$field,)*
                }
            }
        }

        impl StatsRegistry {
            /// Copies every cell into a plain snapshot. The `faults`
            /// field folds in the fast-path hits: a fast hit IS a
            /// handled fault the slow path never saw.
            pub fn snapshot(&self) -> PvmStats {
                let mut s = PvmStats {
                    $($field: self.get(Counter::$variant),)*
                };
                s.faults += s.fast_path_hits;
                s
            }
        }
    };
}

counters! {
    /// Page faults handled (§4.1.2 entry).
    faults => Faults,
    /// Faults resolved by allocating a zero-filled page.
    zero_fills => ZeroFills,
    /// Faults resolved by a `pullIn` upcall.
    pull_ins => PullIns,
    /// `pushOut` upcalls performed.
    push_outs => PushOuts,
    /// Write violations resolved by materializing a private copy
    /// (copy-on-write resolution, either technique).
    cow_copies => CowCopies,
    /// Originals preserved into a history object before a source write.
    history_pushes => HistoryPushes,
    /// Own read-only pages promoted to writable.
    promotes => Promotes,
    /// Working history objects created to preserve the tree shape
    /// invariant (§4.2.3).
    working_objects => WorkingObjects,
    /// Single-child zombie nodes merged into their child.
    zombie_merges => ZombieMerges,
    /// Times a thread blocked on a synchronization page stub.
    stub_waits => StubWaits,
    /// Pages evicted by the clock algorithm.
    evictions => Evictions,
    /// Frames transferred cache-to-cache by `move` without copying.
    moved_frames => MovedFrames,
    /// Per-virtual-page copy-on-write stubs created (§4.3).
    cow_stubs_created => CowStubsCreated,
    /// `getWriteAccess` upcalls performed.
    write_access_upcalls => WriteAccessUpcalls,
    /// Mapper upcalls re-driven after a transient failure.
    mapper_retries => MapperRetries,
    /// Mapper upcalls abandoned because the retry deadline expired.
    mapper_timeouts => MapperTimeouts,
    /// Caches quarantined after a permanent mapper failure.
    quarantined_caches => QuarantinedCaches,
    /// Emergency eviction passes run when fault recovery hit
    /// `OutOfMemory`.
    emergency_pageouts => EmergencyPageouts,
    /// Faults resolved by the lock-free resident translation cache
    /// without taking the state mutex.
    fast_path_hits => FastPathHits,
    /// Fast-path lookups that missed (stale generation, absent entry,
    /// or insufficient protection) and fell through to the slow path.
    fast_path_fallbacks => FastPathFallbacks,
    /// Always 0: the global map has no lock of its own (the state lock
    /// guards it).
    shard_contention => ShardContention,
    /// Full clock-hand sweeps completed while hunting an eviction
    /// victim (each pass over the whole ring counts once).
    clock_full_sweeps => ClockFullSweeps,
    /// Batched `pushOut` requests shipped to a mapper (each batch
    /// launders one run of contiguous dirty pages; `push_outs` counts
    /// the individual pages).
    push_out_batches => PushOutBatches,
    /// Batched `pushOut` requests that failed part-way and were split
    /// into per-page retries to avoid dirty-page loss.
    push_batch_splits => PushBatchSplits,
    /// Watermark-driven laundering passes run by the writeback daemon.
    launder_passes => LaunderPasses,
    /// Faults that landed on a page pre-fetched by the adaptive
    /// readahead window (sequential stream continuations).
    readahead_hits => ReadaheadHits,
    /// Times the adaptive readahead window grew (doubled) on a
    /// sequential stream.
    readahead_ramps => ReadaheadRamps,
    /// Asynchronous upcalls submitted to the completion engine
    /// (fire-and-collect readahead pulls and laundering pushes).
    async_submits => AsyncSubmits,
    /// Asynchronous completions delivered by the scheduler (each
    /// applies its deferred bookkeeping under the state lock).
    async_deliveries => AsyncDeliveries,
    /// Pending asynchronous pulls merged into an adjacent in-flight or
    /// queued request instead of submitting a new one.
    async_coalesced => AsyncCoalesced,
    /// Times a thread had to force-deliver the earliest in-flight
    /// completion to make progress (stub wait or frame exhaustion).
    async_inflight_stalls => AsyncInflightStalls,
    /// Completions delivered in a different order than their requests
    /// were submitted (the observable signature of the engine).
    async_out_of_order => AsyncOutOfOrder,
    /// In-flight upcalls cancelled by the deadline watchdog after their
    /// per-request deadline (derived from the retry policy) expired on
    /// the simulated clock.
    watchdog_cancels => WatchdogCancels,
    /// Mappers escalated to the `Suspected` state after repeated
    /// watchdog timeouts (degraded to the synchronous path with a
    /// shrunken in-flight cap, one step short of quarantine).
    suspected_mappers => SuspectedMappers,
    /// Faulting threads stalled by backpressure because the pending
    /// asynchronous pull queue was at its configured bound.
    throttle_stalls => ThrottleStalls,
    /// Contexts killed by the out-of-memory escalation path (frame
    /// exhaustion with no reclaim progress).
    oom_kills => OomKills,
    /// Pending (queued, never submitted) asynchronous pulls failed
    /// because their cache was quarantined while they waited; their
    /// stubs are cleared so waiters observe the poisoning instead of
    /// hanging.
    async_pending_failed => AsyncPendingFailed,
    /// Allocations that dipped into the emergency frame reserve (only
    /// pull-recovery and pageout work may draw from it).
    reserve_grants => ReserveGrants,
    /// Fully resident aligned runs promoted to a single large MMU
    /// mapping.
    large_promotions => LargePromotions,
    /// Large mappings demoted back to base pages (partial unmap,
    /// reprotect, eviction, quarantine, or context teardown).
    large_demotions => LargeDemotions,
    /// Contiguous pre-zeroed frame runs reserved from the buddy tier for
    /// a whole-large-page pull window.
    large_run_reserves => LargeRunReserves,
    /// Whole-large-page pull windows that fell back to per-frame
    /// allocation because no contiguous run was free.
    large_run_fallbacks => LargeRunFallbacks,
    /// Deterministic sim-time gauge samples recorded by the telemetry
    /// sampler (dimensional telemetry knob on; see [`crate::telemetry`]).
    telemetry_samples => TelemetrySamples,
    /// Acquisitions of the state lock, the one lock on every PVM
    /// structure (descriptors, global map, frame pool, MMU).
    state_lock_acqs => StateLockAcqs,
    /// State-lock acquisitions that were contended (the uncontended
    /// try-lock missed and the caller blocked).
    state_lock_contended => StateLockContended,
    /// Always 0: the frame pool has no lock of its own (the state lock
    /// guards it).
    phys_lock_acqs => PhysLockAcqs,
    /// Always 0 (see `phys_lock_acqs`).
    phys_lock_contended => PhysLockContended,
    /// Always 0: the MMU has no lock of its own (the state lock guards
    /// it).
    trans_lock_acqs => TransLockAcqs,
    /// Always 0 (see `trans_lock_acqs`).
    trans_lock_contended => TransLockContended,
    /// Per-cache fault-stripe acquisitions by the parallel hard-fault
    /// driver (`parallel_faults` knob on; disjoint caches hash to
    /// different stripes).
    cache_stripe_acqs => CacheStripeAcqs,
    /// Fault-stripe acquisitions that were contended (two faults raced
    /// on the same cache's stripe).
    cache_stripe_contended => CacheStripeContended,
    /// Victim-selection rounds requested from the replacement policy
    /// engine (demand allocation and the laundering daemon both count).
    policy_victim_requests => PolicyVictimRequests,
    /// Victims the policy engine actually produced (a request can come
    /// up empty when every candidate is pinned or cleaning).
    policy_victims => PolicyVictims,
    /// Candidate batches shipped to an external policy's segment
    /// manager through the `victimAdvice` upcall.
    policy_external_batches => PolicyExternalBatches,
    /// Candidate pages approved (still live) when external victim
    /// advice was applied.
    policy_external_approvals => PolicyExternalApprovals,
    /// Selections the external policy served from its internal
    /// fallback clock because advice was still in flight (or an entire
    /// approved batch had died by delivery time).
    policy_external_fallbacks => PolicyExternalFallbacks,
}

const N_COUNTERS: usize = Counter::ALL.len();

/// The live counter cells. One instance per [`crate::Pvm`], shared (via
/// `Arc`) with the translation cache, the global map and the tracer so
/// every bump lands in the same atomic cell regardless of which lock (if
/// any) the bumping path holds.
pub struct StatsRegistry {
    cells: [AtomicU64; N_COUNTERS],
}

impl Default for StatsRegistry {
    fn default() -> StatsRegistry {
        StatsRegistry::new()
    }
}

impl StatsRegistry {
    /// A zeroed registry.
    pub fn new() -> StatsRegistry {
        StatsRegistry {
            cells: core::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds one to a counter.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if n != 0 {
            self.cells[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Reads one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.cells[c as usize].load(Ordering::Relaxed)
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

impl core::fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StatsRegistry")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_snapshot_and_reset() {
        let r = StatsRegistry::new();
        r.bump(Counter::ZeroFills);
        r.add(Counter::MapperRetries, 3);
        let s = r.snapshot();
        assert_eq!(s.zero_fills, 1);
        assert_eq!(s.mapper_retries, 3);
        assert_eq!(s.get(Counter::MapperRetries), 3);
        r.reset();
        assert_eq!(r.snapshot(), PvmStats::default());
    }

    #[test]
    fn snapshot_folds_fast_hits_into_faults() {
        let r = StatsRegistry::new();
        r.add(Counter::Faults, 5);
        r.add(Counter::FastPathHits, 7);
        let s = r.snapshot();
        assert_eq!(s.faults, 12, "a fast hit IS a handled fault");
        assert_eq!(s.fast_path_hits, 7);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let r = StatsRegistry::new();
        r.add(Counter::Evictions, 2);
        let before = r.snapshot();
        r.add(Counter::Evictions, 3);
        r.bump(Counter::StubWaits);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.evictions, 3);
        assert_eq!(d.stub_waits, 1);
        assert_eq!(d.faults, 0);
    }

    #[test]
    fn counter_labels_match_snapshot_fields() {
        assert_eq!(Counter::FastPathHits.label(), "fast_path_hits");
        assert_eq!(Counter::ALL.len(), 56);
        assert_eq!(Counter::PolicyVictims.label(), "policy_victims");
        assert_eq!(Counter::TelemetrySamples.label(), "telemetry_samples");
        assert_eq!(Counter::StateLockAcqs.label(), "state_lock_acqs");
        assert_eq!(Counter::PhysLockContended.label(), "phys_lock_contended");
        assert_eq!(Counter::CacheStripeAcqs.label(), "cache_stripe_acqs");
        assert_eq!(Counter::LargePromotions.label(), "large_promotions");
        assert_eq!(Counter::WatchdogCancels.label(), "watchdog_cancels");
        assert_eq!(Counter::OomKills.label(), "oom_kills");
        assert_eq!(Counter::AsyncSubmits.label(), "async_submits");
        assert_eq!(Counter::PushOutBatches.label(), "push_out_batches");
    }

    #[test]
    fn concurrent_bumps_never_lose_updates() {
        let r = std::sync::Arc::new(StatsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        r.bump(Counter::FastPathHits);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.get(Counter::FastPathHits), 40_000);
    }
}
