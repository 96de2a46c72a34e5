//! The completion-based asynchronous upcall engine.
//!
//! With `PvmConfig::async_upcalls` set, readahead tail `pullIn`s and
//! watermark-laundering `pushOut`s become *fire-and-collect*: the mapper
//! protocol (including the retry/backoff budget) runs eagerly at submit
//! time with the state lock released, while the request's bookkeeping —
//! cost-model charges, stub clearing, `finish_clean`, quarantine and
//! counters — is deferred into a [`CompletionRecord`] scheduled on the
//! simulated clock. A record becomes *due* at `submit time + modelled
//! service time` (one `IpcOp` round trip plus per-page transfer, read
//! from the cost parameters without charging); the in-flight service
//! time therefore overlaps whatever the submitting thread does next,
//! which is exactly the latency the engine exists to hide.
//!
//! Delivery is deterministic: completions leave the queue in
//! `(due-time, request-id)` order — [`chorus_gmi::CompletionQueue`]'s
//! total order — so the same operation sequence produces bit-identical
//! counters and clock readings run-to-run. Ordinary delivery happens at
//! driver entry for every completion already due (no clock movement:
//! the simulated time was covered by intervening work, so the deferred
//! charges are applied with `count_only`). *Forced* delivery — a stub
//! waiter or a frame-starved allocation that cannot make progress any
//! other way — advances the clock to the record's due time first, which
//! models blocking until the in-flight transfer finishes.
//!
//! The in-flight table is capped per mapper (approximated per segment,
//! the finest mapper identity the PVM sees) at
//! `PvmConfig::max_inflight_upcalls`. Over-cap laundering pushes fall
//! back to the synchronous path; over-cap readahead pulls queue as
//! *pending* requests, and adjacent pending pulls of one cache coalesce
//! into a single elastic batch before submission.

use crate::keys::{CacheKey, PageKey};
use crate::state::PvmState;
use crate::stats::Counter;
use crate::telemetry::DimCounter;
use crate::trace::{TraceEvent, UpcallKind};
use chorus_gmi::{CompletionQueue, GmiError, Result, SegmentId};
use chorus_hal::{Access, FxHashMap, OpKind};
use std::collections::BTreeSet;

/// A submitted asynchronous upcall whose bookkeeping awaits delivery.
#[derive(Debug)]
pub(crate) struct CompletionRecord {
    /// Pull or push (never `GetWriteAccess`: write-access upcalls stay
    /// synchronous — a faulting writer cannot proceed without the
    /// answer, so there is no latency to hide).
    pub kind: UpcallKind,
    /// Target cache.
    pub cache: CacheKey,
    /// Its segment.
    pub segment: SegmentId,
    /// Page-aligned fragment offset.
    pub offset: u64,
    /// Fragment size in bytes.
    pub size: u64,
    /// For pushes: the run of pages left `cleaning` until delivery.
    pub pages: Vec<PageKey>,
    /// The mapper protocol's final result (retries already ran).
    pub result: Result<()>,
    /// Transient retries the protocol performed at submit time.
    pub retries: u64,
    /// Absolute simulated deadline: submit time plus the retry
    /// policy's per-upcall deadline (`u64::MAX` when deadlines are
    /// disabled). The watchdog cancels the request once the clock
    /// passes this while the record is still undelivered.
    pub deadline_ns: u64,
}

/// Simulated "never": the due time given to a request whose mapper
/// protocol timed out at submit — the reply will not arrive on its
/// own. One simulated hour: far beyond any workload's horizon but
/// finite, so a forced delivery advances the clock instead of
/// overflowing it. The watchdog cancels such requests at their
/// deadline; with the watchdog off, forcing one reproduces the
/// pre-watchdog stall (the observable hang in the ablation tests).
pub(crate) const HUNG_REPLY_NS: u64 = 3_600_000_000_000;

/// A readahead pull that could not be submitted (per-mapper cap):
/// queued, coalescible, submitted as in-flight slots free up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingPull {
    /// Target cache.
    pub cache: CacheKey,
    /// Its segment.
    pub segment: SegmentId,
    /// Page-aligned fragment offset.
    pub offset: u64,
    /// Fragment size in bytes.
    pub size: u64,
    /// Access mode of the originating fault.
    pub access: Access,
}

/// The engine's state, living inside the PVM's one state mutex so
/// submissions and deliveries serialize with every other attempt.
#[derive(Debug, Default)]
pub(crate) struct EngineState {
    /// Completions ordered by `(due_ns, request_id)`.
    pub queue: CompletionQueue<CompletionRecord>,
    /// Monotonic request-id source (ids start at 1).
    next_id: u64,
    /// Every in-flight request id (submitted, not yet delivered). The
    /// minimum surviving id below a delivered id is the out-of-order
    /// delivery signal.
    inflight_ids: BTreeSet<u64>,
    /// In-flight request count per segment (the per-mapper cap proxy).
    inflight_by_segment: FxHashMap<u64, u64>,
    /// Queued over-cap readahead pulls, in arrival order.
    pub pending_pulls: Vec<PendingPull>,
    /// Watchdog timeouts per segment since its last successful
    /// delivery; feeds the Suspected/quarantine escalation ladder.
    timeouts_by_segment: FxHashMap<u64, u32>,
    /// Segments whose mapper is currently Suspected: in-flight cap
    /// shrunk to 1 and demand pulls degraded to the synchronous path.
    suspected: BTreeSet<u64>,
}

impl EngineState {
    pub fn new() -> EngineState {
        EngineState {
            queue: CompletionQueue::new(),
            next_id: 1,
            inflight_ids: BTreeSet::new(),
            inflight_by_segment: FxHashMap::default(),
            pending_pulls: Vec::new(),
            timeouts_by_segment: FxHashMap::default(),
            suspected: BTreeSet::new(),
        }
    }

    /// True when `segment`'s mapper is under suspicion (repeated
    /// watchdog timeouts without a successful delivery in between).
    pub fn is_suspected(&self, segment: SegmentId) -> bool {
        self.suspected.contains(&segment.0)
    }

    /// The effective in-flight cap for `segment`: the configured cap,
    /// shrunk to 1 while the mapper is Suspected.
    pub fn cap_for(&self, segment: SegmentId, cap: u64) -> u64 {
        if self.is_suspected(segment) {
            1
        } else {
            cap
        }
    }

    /// Records one watchdog timeout against `segment`; returns the
    /// total observed since the last successful delivery.
    pub fn note_timeout(&mut self, segment: SegmentId) -> u32 {
        let n = self.timeouts_by_segment.entry(segment.0).or_insert(0);
        *n += 1;
        *n
    }

    /// Marks `segment` Suspected; returns true on the transition.
    pub fn mark_suspected(&mut self, segment: SegmentId) -> bool {
        self.suspected.insert(segment.0)
    }

    /// A successful delivery clears `segment`'s suspicion and timeout
    /// count: the mapper is demonstrably alive again.
    pub fn note_success(&mut self, segment: SegmentId) {
        self.timeouts_by_segment.remove(&segment.0);
        self.suspected.remove(&segment.0);
    }

    /// In-flight requests currently charged against `segment`'s cap.
    pub fn inflight_for(&self, segment: SegmentId) -> u64 {
        self.inflight_by_segment
            .get(&segment.0)
            .copied()
            .unwrap_or(0)
    }

    /// Total in-flight requests (all mappers).
    pub fn inflight(&self) -> u64 {
        self.inflight_ids.len() as u64
    }

    /// True when the engine still owes work: a queued completion, a
    /// request mid-execution, or a pending pull.
    pub fn has_work(&self) -> bool {
        !self.inflight_ids.is_empty() || !self.pending_pulls.is_empty()
    }

    /// Allocates a request id and enters it in the in-flight table.
    pub fn register(&mut self, segment: SegmentId) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.inflight_ids.insert(id);
        *self.inflight_by_segment.entry(segment.0).or_insert(0) += 1;
        id
    }

    /// Removes a delivered id; returns true when an older request is
    /// still in flight (this delivery overtook it).
    fn retire(&mut self, id: u64, segment: SegmentId) -> bool {
        self.inflight_ids.remove(&id);
        if let Some(n) = self.inflight_by_segment.get_mut(&segment.0) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.inflight_by_segment.remove(&segment.0);
            }
        }
        self.inflight_ids.first().is_some_and(|&oldest| oldest < id)
    }

    /// Queues a pull the cap rejected, coalescing it with an adjacent
    /// pending pull of the same cache into one elastic batch. Returns
    /// true when it merged.
    pub fn queue_pending_pull(&mut self, pull: PendingPull) -> bool {
        for p in &mut self.pending_pulls {
            if p.cache != pull.cache || p.segment != pull.segment {
                continue;
            }
            if p.offset + p.size == pull.offset {
                p.size += pull.size;
                return true;
            }
            if pull.offset + pull.size == p.offset {
                p.offset = pull.offset;
                p.size += pull.size;
                return true;
            }
        }
        self.pending_pulls.push(pull);
        false
    }

    /// Takes the first pending pull whose segment has a free in-flight
    /// slot under its effective cap (`cap`, shrunk to 1 when the
    /// mapper is Suspected).
    pub fn take_submittable_pending(&mut self, cap: u64) -> Option<PendingPull> {
        let idx = self
            .pending_pulls
            .iter()
            .position(|p| self.inflight_for(p.segment) < self.cap_for(p.segment, cap))?;
        Some(self.pending_pulls.remove(idx))
    }

    // ----- introspection (pvmtop) ------------------------------------------

    /// Segments currently Suspected, ascending.
    pub fn suspected_segments(&self) -> Vec<u64> {
        self.suspected.iter().copied().collect()
    }

    /// Watchdog timeouts per segment since its last successful
    /// delivery, ascending by segment id.
    pub fn timeout_counts(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<_> = self
            .timeouts_by_segment
            .iter()
            .map(|(&s, &n)| (s, n))
            .collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        v
    }

    /// In-flight request counts per segment, ascending by segment id.
    pub fn inflight_counts(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<_> = self
            .inflight_by_segment
            .iter()
            .map(|(&s, &n)| (s, n))
            .collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        v
    }
}

impl PvmState {
    /// The modelled service time of an asynchronous upcall covering
    /// `pages` pages: one mapper round trip plus the per-page transfer,
    /// read from the cost parameters *without* charging (the charge is
    /// deferred to delivery).
    pub(crate) fn upcall_service_ns(&self, pages: u64) -> u64 {
        let p = self.model.params();
        p.get(OpKind::IpcOp) + pages * p.get(OpKind::SegmentIoPage)
    }

    /// Applies one delivered completion's deferred bookkeeping under the
    /// state lock. `forced` means a waiter blocked until this transfer
    /// finished: the clock advances to the record's due time (ordinary
    /// pumped deliveries are already past it, and only count the ops).
    pub(crate) fn apply_completion(&mut self, due_ns: u64, id: u64, rec: CompletionRecord) {
        let now = self.model.now().nanos();
        if due_ns > now {
            self.model.advance_ns(due_ns - now);
        }
        let overtook = self.engine.retire(id, rec.segment);
        if overtook {
            self.stats.bump(Counter::AsyncOutOfOrder);
        }
        self.stats.bump(Counter::AsyncDeliveries);
        self.stats.add(Counter::MapperRetries, rec.retries);
        self.dim_mapper(rec.segment, DimCounter::Retries, rec.retries);
        let ps = self.ps();
        let pages = rec.size / ps;
        match rec.kind {
            UpcallKind::PullIn => {
                // Clear any stub the pull left behind: on success the
                // `fillUp`s already replaced them with real pages; on
                // failure this wakes every faulter asleep on one so it
                // re-drives its own (synchronous) pull.
                let mut cur = rec.offset;
                while cur < rec.offset + rec.size {
                    if self.is_sync_stub(rec.cache, cur) {
                        self.clear_slot(rec.cache, cur);
                    }
                    cur += ps;
                }
                if rec.result.is_ok() {
                    self.stats.bump(Counter::PullIns);
                    self.dim_io(rec.cache, rec.segment, DimCounter::PullIns, 1);
                    self.model.count_only(OpKind::IpcOp);
                    self.model.count_only_n(OpKind::SegmentIoPage, pages);
                }
            }
            UpcallKind::PushOut => {
                if rec.result.is_ok() {
                    self.model.count_only(OpKind::IpcOp);
                    self.model.count_only_n(OpKind::SegmentIoPage, pages);
                    self.stats.bump(Counter::PushOutBatches);
                    self.dim_io(
                        rec.cache,
                        rec.segment,
                        DimCounter::PushOuts,
                        rec.pages.len() as u64,
                    );
                    for &p in &rec.pages {
                        self.finish_clean(p, true);
                    }
                    self.grow_seg_len(rec.cache, rec.offset + rec.size);
                } else {
                    // The pages keep their dirty bits: no modified data
                    // is lost, the next laundering pass re-drives them.
                    for &p in &rec.pages {
                        self.finish_clean(p, false);
                    }
                }
            }
            UpcallKind::VictimAdvice => {
                // The advice round trip: the segment manager already
                // answered eagerly at submit; the masked candidate
                // batch waits in `rec.pages`. A cancelled/failed round
                // approves nothing but still releases the external
                // policy's in-flight latch so selection can re-request.
                if rec.result.is_ok() {
                    self.model.count_only(OpKind::IpcOp);
                    self.approve_external_victims(&rec.pages);
                } else {
                    self.approve_external_victims(&[]);
                }
            }
            UpcallKind::GetWriteAccess => unreachable!("write access is never asynchronous"),
        }
        match &rec.result {
            // A live reply exonerates a Suspected mapper.
            Ok(()) => self.engine.note_success(rec.segment),
            Err(e) => {
                if matches!(e, GmiError::MapperTimeout { .. }) {
                    self.count_timeout(rec.segment);
                }
                if !e.is_transient() {
                    self.quarantine_cache(rec.cache);
                }
            }
        }
        let inflight = self.engine.inflight();
        self.trace.event(|| TraceEvent::UpcallComplete {
            kind: rec.kind,
            outcome: crate::pvm::upcall_outcome(&rec.result),
            retries: rec.retries,
            inflight,
        });
    }

    /// Cancels one in-flight completion whose deadline expired: the
    /// request is failed as a mapper timeout through the ordinary
    /// delivery path (pull stubs are cleared so sleepers re-fault,
    /// push pages keep their dirty bits for relaundering — the
    /// existing transient taxonomy), and the timeout is scored against
    /// the mapper for the Suspected/quarantine escalation ladder. The
    /// record is applied at the *current* clock: a cancellation never
    /// advances simulated time to the hung due time.
    pub(crate) fn cancel_completion(&mut self, id: u64, mut rec: CompletionRecord) {
        let segment = rec.segment;
        let cache = rec.cache;
        self.stats.bump(Counter::WatchdogCancels);
        self.dim_mapper(segment, DimCounter::Cancels, 1);
        self.trace.event(|| TraceEvent::WatchdogCancel {
            kind: rec.kind,
            segment: segment.0,
        });
        rec.result = Err(GmiError::MapperTimeout { segment });
        let now = self.model.now().nanos();
        self.apply_completion(now, id, rec);
        let n = self.engine.note_timeout(segment);
        if n >= self.config.suspect_after_timeouts && self.engine.mark_suspected(segment) {
            self.stats.bump(Counter::SuspectedMappers);
            self.trace.event(|| TraceEvent::MapperSuspected {
                segment: segment.0,
                timeouts: n,
            });
        }
        if n >= self.config.quarantine_after_timeouts {
            self.quarantine_cache(cache);
        }
    }

    /// The deadline watchdog sweep: cancels every in-flight completion
    /// whose per-request deadline has expired on the simulated clock
    /// while its due time is still in the future (a record already due
    /// is delivered normally by the next pump). Runs at driver entry;
    /// returns the number of cancellations so the driver can wake stub
    /// sleepers whose stubs were just cleared.
    pub(crate) fn watchdog_sweep(&mut self) -> usize {
        if !self.config.async_upcalls
            || !self.config.upcall_watchdog
            || self.engine.queue.is_empty()
        {
            return 0;
        }
        let now = self.model.now().nanos();
        let expired: Vec<(u64, u64)> = self
            .engine
            .queue
            .iter()
            .filter(|(&(due, _), rec)| due > now && rec.deadline_ns <= now)
            .map(|(&k, _)| k)
            .collect();
        let n = expired.len();
        for (due, id) in expired {
            if let Some(rec) = self.engine.queue.remove(due, id) {
                self.cancel_completion(id, rec);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::CacheKey;
    use chorus_hal::Id;

    fn key() -> CacheKey {
        Id::from_raw_parts(0, 0)
    }

    #[test]
    fn register_and_retire_track_the_per_segment_cap() {
        let mut e = EngineState::new();
        let (s1, s2) = (SegmentId(1), SegmentId(2));
        let a = e.register(s1);
        let b = e.register(s1);
        let c = e.register(s2);
        assert_eq!(e.inflight_for(s1), 2);
        assert_eq!(e.inflight_for(s2), 1);
        assert_eq!(e.inflight(), 3);
        // Retiring b while a is still in flight is an overtake.
        assert!(e.retire(b, s1));
        assert!(!e.retire(a, s1));
        assert_eq!(e.inflight_for(s1), 0);
        assert!(!e.retire(c, s2));
        assert!(!e.has_work());
    }

    #[test]
    fn adjacent_pending_pulls_coalesce_into_one_batch() {
        let mut e = EngineState::new();
        let c = key();
        let seg = SegmentId(7);
        let mk = |offset: u64, size: u64| PendingPull {
            cache: c,
            segment: seg,
            offset,
            size,
            access: Access::Read,
        };
        assert!(!e.queue_pending_pull(mk(0x2000, 0x2000)));
        // Forward-adjacent: grows the tail.
        assert!(e.queue_pending_pull(mk(0x4000, 0x1000)));
        // Backward-adjacent: grows the head.
        assert!(e.queue_pending_pull(mk(0x1000, 0x1000)));
        // A gap does not coalesce.
        assert!(!e.queue_pending_pull(mk(0x9000, 0x1000)));
        assert_eq!(e.pending_pulls.len(), 2);
        assert_eq!(e.pending_pulls[0], mk(0x1000, 0x4000));
    }

    #[test]
    fn take_submittable_pending_respects_the_cap() {
        let mut e = EngineState::new();
        let c = key();
        let busy = SegmentId(1);
        let idle = SegmentId(2);
        e.register(busy);
        e.queue_pending_pull(PendingPull {
            cache: c,
            segment: busy,
            offset: 0,
            size: 0x2000,
            access: Access::Read,
        });
        e.queue_pending_pull(PendingPull {
            cache: c,
            segment: idle,
            offset: 0x8000,
            size: 0x2000,
            access: Access::Read,
        });
        // Cap 1: the busy mapper's pull must wait, the idle one goes.
        let p = e.take_submittable_pending(1).expect("idle pull");
        assert_eq!(p.segment, idle);
        assert!(e.take_submittable_pending(1).is_none());
        assert!(e.take_submittable_pending(2).is_some());
    }
}
