//! The public [`Pvm`] type: locking, the blocked-action driver, and the
//! [`Gmi`] trait implementation.
//!
//! Locking discipline: all state lives behind one mutex. Attempts run
//! under the lock and never sleep; when an attempt must wait (a page in
//! transit) or perform an upcall (`pullIn`, `pushOut`, `segmentCreate`,
//! `getWriteAccess`), it returns a [`Blocked`] action which the driver
//! performs with the lock *released*, then retries the attempt. This is
//! exactly the paper's synchronization-page-stub protocol (§4.1.2):
//! concurrent accesses to an in-transit fragment sleep until the transfer
//! completes.

use crate::config::PvmConfig;
use crate::descriptors::Slot;
use crate::domains::DomainLock;
use crate::engine::{CompletionRecord, PendingPull};
use crate::keys::{
    cache_key, ctx_key, pub_cache, pub_ctx, pub_region, region_key, CacheKey, CtxKey,
};
use crate::pvmtop::PvmTop;
use crate::state::{Attempt, Blocked, Outcome, PushOrigin, PvmState};
use crate::stats::{Counter, PvmStats, StatsRegistry};
use crate::telemetry::{Dim, DimCounter, Telemetry, TelemetrySample};
use crate::trace::{Phase, Resolution, TraceEvent, Tracer, UpcallKind, UpcallOutcome};
use chorus_gmi::{
    Access, CacheId, CacheIo, CopyMode, CtxId, Gmi, GmiError, PageGeometry, Prot, PullRequest,
    PushRequest, RegionId, RegionStatus, Result, SegmentId, SegmentManagerV2, VirtAddr,
};
use chorus_hal::{
    fx_hash_one, CostModel, CostParams, FrameStore, Mmu, PhysicalMemory, SoftMmu, TwoLevelMmu,
};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Set while this thread holds a per-cache fault stripe. A mapper
    /// that re-enters the GMI and faults again (on any cache) must not
    /// take a second stripe — one stripe per thread keeps the stripe
    /// tier trivially acyclic — so nested faults fall through to the
    /// classic unstriped driver.
    static HOLDS_STRIPE: core::cell::Cell<bool> = const { core::cell::Cell::new(false) };
}

/// Number of per-cache fault stripes of the parallel driver (a power
/// of two, so stripe selection is a mask).
const FAULT_STRIPES: usize = 16;

/// Which MMU back-end to instantiate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MmuChoice {
    /// Hash-table page tables (Sun-3-like).
    #[default]
    Soft,
    /// Explicit two-level page tables (PMMU/i386-like).
    TwoLevel,
}

/// Construction options for a [`Pvm`].
#[derive(Clone, Debug)]
pub struct PvmOptions {
    /// Page geometry (defaults to the paper's 8 KB pages).
    pub geometry: PageGeometry,
    /// Number of physical page frames to simulate.
    pub frames: u32,
    /// Per-operation simulated costs.
    pub cost: CostParams,
    /// MMU back-end.
    pub mmu: MmuChoice,
    /// PVM tunables.
    pub config: PvmConfig,
}

impl Default for PvmOptions {
    fn default() -> PvmOptions {
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 1024,
            cost: CostParams::zero(),
            mmu: MmuChoice::Soft,
            config: PvmConfig::default(),
        }
    }
}

/// The Paged Virtual memory Manager.
pub struct Pvm {
    /// The state lock (see [`crate::domains`] for the lock-order
    /// discipline): the only lock on everything inside `PvmState`.
    /// With `parallel_faults` on, the per-cache fault stripes sit above
    /// it.
    state: DomainLock<PvmState>,
    stub_cv: Condvar,
    seg_mgr: Arc<dyn SegmentManagerV2>,
    model: Arc<CostModel>,
    /// Page geometry, copied out so `geometry()` never takes the lock.
    geom: PageGeometry,
    /// The resident translation cache, shared with the locked state:
    /// `handle_fault` consults it *before* the mutex, the state updates
    /// it at every mapping install/revoke.
    fast: Arc<crate::fastpath::TranslationCache>,
    /// The counter registry, shared with the state, the translation
    /// cache and the global map; snapshots never take the lock.
    stats: Arc<StatsRegistry>,
    /// The event tracer (see [`crate::trace`]), shared with the state.
    trace: Arc<Tracer>,
    /// The dimensional telemetry registry (see [`crate::telemetry`]),
    /// shared with the state and the translation cache; table reads
    /// never take the state lock.
    telemetry: Arc<Telemetry>,
    /// Reentrancy guard for the watermark laundering pass: a laundering
    /// push that re-enters the driver (e.g. a mapper calling back into
    /// the GMI) must not start a second pass.
    laundering: AtomicBool,
    /// Reentrancy guard for draining the engine's pending pulls:
    /// executing a pending pull re-enters the driver through `fillUp`
    /// and must not start a nested drain.
    pumping: AtomicBool,
    /// Whether the parallel hard-fault machinery is engaged:
    /// `config.parallel_faults` and not `config.async_upcalls` (the
    /// completion engine is its own source of concurrency and keeps the
    /// classic driver). Immutable after construction.
    parallel: bool,
    /// Per-cache fault stripes (outermost lock tier of the parallel
    /// driver), hashed by cache key. Empty unless `parallel` is set.
    /// Plain mutexes — acquisition and contention are counted manually
    /// so the per-cache telemetry can ride the same bump.
    stripes: Box<[Mutex<()>]>,
    /// `stripes.len() - 1` (stripe count is a power of two).
    stripe_mask: u64,
    /// The lock-free frame byte plane, shared with the physical tier:
    /// the parallel `fillUp` writes pulled bytes into *landing frames*
    /// through it without holding the state lock.
    store: Arc<FrameStore>,
}

impl Pvm {
    /// Creates a PVM over a v2 segment manager
    /// ([`chorus_gmi::SegmentManagerV2`]) — the native front of the
    /// asynchronous upcall engine. Classic synchronous (v1) managers
    /// attach through [`chorus_gmi::SyncShim::wrap`], the only
    /// remaining v1 bridge.
    pub fn new(options: PvmOptions, seg_mgr: Arc<dyn SegmentManagerV2>) -> Pvm {
        let model = Arc::new(CostModel::new(options.cost.clone()));
        // With large pages on, the promotion threshold becomes the
        // geometry's large factor so the HAL tiers (buddy runs, large
        // TLB level) agree with the PVM on the run size.
        let geometry = if options.config.large_pages {
            options
                .geometry
                .with_large_factor(options.config.promote_threshold_pages)
        } else {
            options.geometry
        };
        let phys = PhysicalMemory::new(geometry, options.frames, model.clone());
        let store = phys.store();
        let mmu: Box<dyn Mmu> = match options.mmu {
            MmuChoice::Soft => Box::new(SoftMmu::new(geometry, model.clone())),
            MmuChoice::TwoLevel => Box::new(TwoLevelMmu::new(geometry, model.clone())),
        };
        // The completion engine is its own source of concurrency and
        // keeps the classic driver; the knob is inert (not invalid)
        // with the engine on.
        let parallel = options.config.parallel_faults && !options.config.async_upcalls;
        let n_stripes = if parallel { FAULT_STRIPES } else { 0 };
        let state = PvmState::new(geometry, phys, mmu, model.clone(), options.config);
        let fast = state.fast.clone();
        let stats = state.stats.clone();
        let trace = state.trace.clone();
        let telemetry = state.telemetry.clone();
        Pvm {
            state: DomainLock::new(
                state,
                stats.clone(),
                Counter::StateLockAcqs,
                Counter::StateLockContended,
            ),
            stub_cv: Condvar::new(),
            seg_mgr,
            model,
            geom: geometry,
            fast,
            stats,
            trace,
            telemetry,
            laundering: AtomicBool::new(false),
            pumping: AtomicBool::new(false),
            parallel,
            stripes: (0..n_stripes).map(|_| Mutex::new(())).collect(),
            stripe_mask: n_stripes.saturating_sub(1) as u64,
            store,
        }
    }

    /// The shared cost model (simulated clock + operation counts).
    pub fn cost_model(&self) -> Arc<CostModel> {
        self.model.clone()
    }

    /// Snapshot of the PVM event counters. Every counter — including
    /// the lock-free fast-path cells — lives in one atomic registry, so
    /// this never takes the state lock.
    pub fn stats(&self) -> PvmStats {
        self.stats.snapshot()
    }

    /// The live counter registry shared by every counting site.
    pub fn stats_registry(&self) -> Arc<StatsRegistry> {
        self.stats.clone()
    }

    /// The event tracer (disabled unless `PvmConfig::trace` enables it).
    pub fn tracer(&self) -> Arc<Tracer> {
        self.trace.clone()
    }

    /// The dimensional telemetry registry (inert unless
    /// `PvmConfig::telemetry` enables it). Table reads never take the
    /// state lock.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    /// Copies out the recorded sim-time gauge series, oldest first
    /// (empty unless `PvmConfig::telemetry` is on).
    pub fn telemetry_series(&self) -> Vec<TelemetrySample> {
        self.state.lock().series.samples()
    }

    /// Takes a gauge sample of the live state right now (not appended
    /// to the series; works with telemetry off).
    pub fn sample_now(&self) -> TelemetrySample {
        self.state.lock().live_sample()
    }

    /// The `pvmtop` introspection snapshot: top caches by fault/dirty
    /// heat, per-mapper health, per-phase latency percentiles, and the
    /// live gauges — one consistent picture under one lock acquisition.
    pub fn top(&self) -> PvmTop {
        crate::pvmtop::snapshot(&self.state.lock())
    }

    /// Resets the PVM event counters, the tracer's rings and
    /// histograms, and the telemetry tables and gauge series (the cost
    /// model has its own reset).
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.trace.reset();
        self.telemetry.reset();
        let mut guard = self.state.lock();
        guard.series.clear();
        guard.next_sample_ns = 0;
    }

    /// Number of live cache descriptors (including zombies and working
    /// objects) — used by tests and the ablation benches.
    pub fn cache_count(&self) -> usize {
        self.state.lock().caches.len()
    }

    /// Number of resident pages across all caches.
    pub fn resident_page_count(&self) -> usize {
        self.state.lock().pages.len()
    }

    /// Number of free physical frames.
    pub fn free_frames(&self) -> u32 {
        self.state.lock().phys.free_frames()
    }

    /// Physical memory statistics.
    pub fn mem_stats(&self) -> chorus_hal::MemStats {
        self.state.lock().phys.stats()
    }

    /// Hit/miss statistics of the MMU's large-page TLB, if the backing
    /// MMU has a large level (`None` otherwise).
    pub fn large_tlb_stats(&self) -> Option<chorus_hal::TlbStats> {
        self.state.lock().mmu.large_tlb_stats()
    }

    /// Number of currently installed large mappings.
    pub fn large_mapping_count(&self) -> usize {
        self.state.lock().large_maps.len()
    }

    /// Runs the structural invariant checker (also run automatically when
    /// `PvmConfig::check_invariants` is set).
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        self.state.lock().check_invariants();
    }

    // ----- the blocked-action driver ---------------------------------------

    pub(crate) fn state_for_dump(&self) -> parking_lot::MutexGuard<'_, PvmState> {
        self.state.lock()
    }

    pub(crate) fn run_pub<T>(&self, attempt: impl FnMut(&mut PvmState) -> Attempt<T>) -> Result<T> {
        self.run(attempt)
    }

    fn run<T>(&self, mut attempt: impl FnMut(&mut PvmState) -> Attempt<T>) -> Result<T> {
        let mut guard = self.state.lock();
        guard = self.pump_completions(guard);
        if guard.watchdog_sweep() > 0 {
            // Cancelled pulls cleared their stubs and freed in-flight
            // slots: wake sleepers so they re-fault, and feed queued
            // pending pulls into the freed slots.
            self.stub_cv.notify_all();
            guard = self.drain_pending(guard);
        }
        guard = self.maybe_launder(guard);
        // The deterministic gauge sampler rides every driver entry:
        // reads the simulated clock, never advances it.
        guard.maybe_sample();
        loop {
            match attempt(&mut guard)? {
                Outcome::Done(v) => {
                    if guard.config.check_invariants {
                        guard.check_invariants();
                    }
                    drop(guard);
                    // Wake anyone whose wait condition we may have
                    // satisfied (stub resolution, promotion, cleaning).
                    self.stub_cv.notify_all();
                    return Ok(v);
                }
                Outcome::Blocked(action) => {
                    guard = self.perform(guard, action)?;
                }
            }
        }
    }

    /// The deterministic "writeback daemon": when free frames fell below
    /// a non-zero `writeback_low_frames` watermark, launder
    /// (clean + evict) pages until the high watermark is reached, so the
    /// operation about to run — and the demand faults after it — find
    /// free or clean frames instead of stalling on a synchronous
    /// `pushOut`. Runs inline at every driver entry rather than on a
    /// free-running thread, so the same operation sequence always
    /// launders at the same simulated instants (the determinism rule).
    /// Laundering failures are swallowed: the daemon must never fail the
    /// operation that happened to trigger it (the pages simply stay
    /// dirty and the synchronous emergency path still applies).
    fn maybe_launder<'a>(
        &'a self,
        guard: parking_lot::MutexGuard<'a, PvmState>,
    ) -> parking_lot::MutexGuard<'a, PvmState> {
        let low = guard.config.writeback_low_frames;
        if low == 0 || guard.phys.free_frames() >= low {
            return guard;
        }
        if self.laundering.swap(true, Ordering::Acquire) {
            return guard;
        }
        let high = guard.config.writeback_high_frames.max(low);
        let mut guard = guard;
        guard.stats.bump(Counter::LaunderPasses);
        loop {
            match guard.launder_attempt(high) {
                Ok(Outcome::Done(())) => break,
                Ok(Outcome::Blocked(action)) => match self.perform(guard, action) {
                    Ok(g) => guard = g,
                    Err(_) => {
                        guard = self.state.lock();
                        break;
                    }
                },
                Err(_) => break,
            }
        }
        self.laundering.store(false, Ordering::Release);
        guard
    }

    /// Drives one mapper upcall under the retry policy: transient
    /// failures are re-driven up to `max_attempts` times with exponential
    /// backoff charged to the simulated clock, bounded by the per-upcall
    /// deadline (also in simulated time, so injected mapper delays count
    /// against it). Returns the final result and the number of retries
    /// performed. Must be called with the state lock released.
    fn upcall_with_retry(
        &self,
        segment: SegmentId,
        policy: chorus_gmi::RetryPolicy,
        mut upcall: impl FnMut() -> Result<()>,
    ) -> (Result<()>, u64) {
        let start = self.model.now().nanos();
        let past_deadline = |model: &CostModel| {
            policy.deadline_ns > 0
                && model.now().nanos().saturating_sub(start) >= policy.deadline_ns
        };
        let mut retries = 0u64;
        let result = loop {
            match upcall() {
                Ok(()) => break Ok(()),
                Err(e) if e.is_transient() => {
                    if past_deadline(&self.model) {
                        break Err(GmiError::MapperTimeout { segment });
                    }
                    if retries + 1 >= u64::from(policy.attempts()) {
                        break Err(e);
                    }
                    retries += 1;
                    self.model.charge(chorus_hal::OpKind::MapperRetry);
                    self.model.advance_ns(policy.backoff_ns(retries as u32));
                    if past_deadline(&self.model) {
                        break Err(GmiError::MapperTimeout { segment });
                    }
                }
                Err(e) => break Err(e),
            }
        };
        (result, retries)
    }

    /// The synchronous upcall bracket shared by every blocking upcall:
    /// drops the state lock, runs `call` (given the retry policy, it
    /// drives the mapper and returns the result plus the retries it
    /// spent) between an `UpcallStart`/`UpcallEnd` pair timed into the
    /// span's phase histogram, re-locks, and books the retries and a
    /// timeout against the global counters and the mapper's telemetry
    /// row. With no span the upcalls run untraced — the per-page split
    /// of a failed batch, which reports per page.
    fn upcall_sync<'a, T>(
        &'a self,
        guard: parking_lot::MutexGuard<'a, PvmState>,
        segment: SegmentId,
        span: Option<UpcallSpan>,
        call: impl FnOnce(chorus_gmi::RetryPolicy) -> (Result<T>, u64),
    ) -> (parking_lot::MutexGuard<'a, PvmState>, Result<T>, u64) {
        let policy = guard.config.retry;
        drop(guard);
        let t0 = span.and_then(|_| self.trace.phase_start());
        if let Some(s) = span {
            self.trace.event(|| TraceEvent::UpcallStart {
                kind: s.kind,
                segment: segment.0,
                offset: s.offset,
                size: s.size,
            });
        }
        let (res, retries) = call(policy);
        if let Some(s) = span {
            self.trace.event(|| TraceEvent::UpcallEnd {
                kind: s.kind,
                outcome: upcall_outcome(&res),
                retries,
            });
            self.trace.phase_end(s.phase, t0);
        }
        let guard = self.state.lock();
        guard.stats.add(Counter::MapperRetries, retries);
        guard.dim_mapper(segment, DimCounter::Retries, retries);
        if matches!(res, Err(GmiError::MapperTimeout { .. })) {
            guard.count_timeout(segment);
        }
        (guard, res, retries)
    }

    /// One `pushOut` round trip of a run of `pages` pages. A single page
    /// gets the full retry budget; a multi-page batch gets one shot, so
    /// a failed batch is split or relaundered rather than re-driving
    /// N-page transfers against a mapper that already dropped one.
    fn push_upcall(
        &self,
        policy: chorus_gmi::RetryPolicy,
        req: &PushRequest,
        pages: usize,
    ) -> (Result<()>, u64) {
        if pages == 1 {
            self.upcall_with_retry(req.segment, policy, || self.seg_mgr.submit_push(self, req))
        } else {
            (self.seg_mgr.submit_push(self, req), 0)
        }
    }

    // ----- the asynchronous upcall engine -----------------------------------

    /// Delivers every completion already due at the current simulated
    /// time (their service windows were covered by intervening work, so
    /// the deferred charges only count), then feeds pending pulls into
    /// freed in-flight slots. Runs at every driver entry; a no-op with
    /// the engine off.
    fn pump_completions<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
    ) -> parking_lot::MutexGuard<'a, PvmState> {
        if !guard.config.async_upcalls {
            return guard;
        }
        loop {
            let now = guard.model.now().nanos();
            let Some((due, id, rec)) = guard.engine.queue.pop_due(now) else {
                break;
            };
            guard.apply_completion(due, id, rec);
        }
        self.drain_pending(guard)
    }

    /// Force-delivers the earliest in-flight completion, advancing the
    /// simulated clock to its due time — a stub waiter or frame-starved
    /// allocation modelling a block until the transfer lands. Returns
    /// whether any progress was made (a delivery, or a pending pull
    /// submitted into a free slot).
    fn engine_force_one<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
        stall: bool,
    ) -> (parking_lot::MutexGuard<'a, PvmState>, bool) {
        if let Some((due, id, rec)) = guard.engine.queue.pop_earliest() {
            if stall {
                guard.stats.bump(Counter::AsyncInflightStalls);
            }
            if guard.config.upcall_watchdog && rec.deadline_ns < due {
                // The waiter would block until a due time past the
                // request's deadline (a hung reply). The unified wake
                // path: advance only to the deadline and cancel, so
                // the waiter observes the timeout and re-faults
                // instead of waiting out a reply that never comes.
                let now = guard.model.now().nanos();
                if rec.deadline_ns > now {
                    guard.model.advance_ns(rec.deadline_ns - now);
                }
                guard.cancel_completion(id, rec);
            } else {
                guard.apply_completion(due, id, rec);
            }
            guard = self.drain_pending(guard);
            return (guard, true);
        }
        let before = guard.engine.pending_pulls.len();
        guard = self.drain_pending(guard);
        let progressed = guard.engine.pending_pulls.len() < before;
        (guard, progressed)
    }

    /// Submits queued over-cap pulls while in-flight slots are free.
    /// Guarded against reentry: executing a pull re-enters the driver
    /// through `fillUp`, which pumps again.
    fn drain_pending<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
    ) -> parking_lot::MutexGuard<'a, PvmState> {
        if guard.engine.pending_pulls.is_empty() || self.pumping.swap(true, Ordering::Acquire) {
            return guard;
        }
        let cap = guard.config.max_inflight_upcalls.max(1);
        while let Some(p) = guard.engine.take_submittable_pending(cap) {
            guard = self.submit_async_pull(guard, p);
        }
        self.pumping.store(false, Ordering::Release);
        guard
    }

    /// Routes a readahead tail pull into the engine: submitted when the
    /// mapper has a free in-flight slot, queued (coalescing with an
    /// adjacent pending pull) otherwise.
    fn queue_async_pull<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
        pull: PendingPull,
    ) -> parking_lot::MutexGuard<'a, PvmState> {
        let cap = guard
            .engine
            .cap_for(pull.segment, guard.config.max_inflight_upcalls.max(1));
        if guard.engine.pending_pulls.is_empty() && guard.engine.inflight_for(pull.segment) < cap {
            return self.submit_async_pull(guard, pull);
        }
        if guard.engine.queue_pending_pull(pull) {
            guard.stats.bump(Counter::AsyncCoalesced);
        }
        guard
    }

    /// Submits one fire-and-collect upcall through the completion
    /// engine: registers `rec` in the in-flight table, runs `call` (given
    /// the retry policy and the record's pages) eagerly with the lock
    /// released — retries and backoff charge the clock as they would
    /// inline — and schedules the completion at `now +` the modelled
    /// service time of `units` pages or advised candidates. `rec`'s
    /// result, retries and deadline are filled in here. The deferred
    /// bookkeeping — charges, stub clearing, quarantine — runs at
    /// delivery.
    fn submit_async<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
        mut rec: CompletionRecord,
        units: u64,
        call: impl FnOnce(chorus_gmi::RetryPolicy, &mut Vec<crate::keys::PageKey>) -> (Result<()>, u64),
    ) -> parking_lot::MutexGuard<'a, PvmState> {
        let id = guard.engine.register(rec.segment);
        let inflight = guard.engine.inflight();
        guard.stats.bump(Counter::AsyncSubmits);
        guard.trace.event(|| TraceEvent::UpcallSubmit {
            kind: rec.kind,
            segment: rec.segment.0,
            offset: rec.offset,
            size: rec.size,
            inflight,
        });
        let policy = guard.config.retry;
        let service = guard.upcall_service_ns(units);
        // The per-upcall deadline runs from submission; 0 disables it.
        rec.deadline_ns = match policy.deadline_ns {
            0 => u64::MAX,
            d => guard.model.now().nanos().saturating_add(d),
        };
        drop(guard);
        (rec.result, rec.retries) = call(policy, &mut rec.pages);
        let mut guard = self.state.lock();
        // A protocol-level timeout means the reply is not coming on its
        // own: park the record at the hung-reply horizon instead of the
        // modelled service time, so the watchdog (or a forced delivery)
        // decides its fate. A push's pages stay `cleaning` until then,
        // and keep their dirty bits — no modified data is lost.
        let service = if matches!(rec.result, Err(GmiError::MapperTimeout { .. })) {
            crate::engine::HUNG_REPLY_NS
        } else {
            service
        };
        let due = guard.model.now().nanos() + service;
        guard.engine.queue.insert(due, id, rec);
        guard
    }

    /// Submits one asynchronous readahead pull (see [`Self::submit_async`]).
    fn submit_async_pull<'a>(
        &'a self,
        guard: parking_lot::MutexGuard<'a, PvmState>,
        pull: PendingPull,
    ) -> parking_lot::MutexGuard<'a, PvmState> {
        let req = PullRequest {
            cache: pub_cache(pull.cache),
            segment: pull.segment,
            offset: pull.offset,
            size: pull.size,
            access: pull.access,
        };
        let pages = pull.size / guard.ps();
        let rec = CompletionRecord {
            kind: UpcallKind::PullIn,
            cache: pull.cache,
            segment: pull.segment,
            offset: pull.offset,
            size: pull.size,
            pages: Vec::new(),
            result: Ok(()),
            retries: 0,
            deadline_ns: 0,
        };
        self.submit_async(guard, rec, pages, |policy, _| {
            self.upcall_with_retry(pull.segment, policy, || {
                self.seg_mgr.submit_pull(self, &req)
            })
        })
    }

    /// Force-delivers every outstanding asynchronous completion (and
    /// submits queued pending pulls), advancing the simulated clock as
    /// each transfer lands. Deterministic `(due, id)` order. Call at
    /// the end of a measurement window so the tables include all
    /// in-flight work; a no-op with the engine off or idle.
    pub fn drain_upcalls(&self) {
        loop {
            let guard = self.state.lock();
            if !guard.config.async_upcalls {
                return;
            }
            let (guard, progressed) = self.engine_force_one(guard, false);
            drop(guard);
            self.stub_cv.notify_all();
            if !progressed {
                return;
            }
        }
    }

    /// Performs a blocked action, re-acquiring the lock afterwards.
    fn perform<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
        action: Blocked,
    ) -> Result<parking_lot::MutexGuard<'a, PvmState>> {
        match action {
            Blocked::WaitStub => {
                // The stub may belong to an in-flight asynchronous
                // upcall, whose completion no other thread will deliver:
                // force the earliest one (advancing the clock to its due
                // time — this thread is blocked on the transfer) before
                // considering a sleep.
                if guard.config.async_upcalls {
                    let (g, progressed) = self.engine_force_one(guard, true);
                    guard = g;
                    if progressed {
                        return Ok(guard);
                    }
                }
                // Bounded wait: progress is re-checked on every wakeup,
                // and the timeout guards against lost notifications.
                let t0 = self.trace.phase_start();
                let span = self.trace.span("stub.sleep");
                let _ = self.stub_cv.wait_for(&mut guard, Duration::from_millis(50));
                drop(span);
                self.trace.phase_end(Phase::StubWait, t0);
                self.trace.event(|| TraceEvent::StubWake);
                Ok(guard)
            }
            Blocked::Throttled => {
                // Backpressure: the pending-pull queue is at its bound.
                // Force-deliver the earliest completion — freeing an
                // in-flight slot feeds a pending pull forward — so the
                // stall drains the queue instead of merely sleeping.
                guard.stats.bump(Counter::ThrottleStalls);
                let pending = guard.engine.pending_pulls.len() as u64;
                guard.trace.event(|| TraceEvent::Throttled { pending });
                let (mut guard, progressed) = self.engine_force_one(guard, true);
                if !progressed {
                    // Another thread is mid-submit on the outstanding
                    // request: yield briefly and retry.
                    let _ = self.stub_cv.wait_for(&mut guard, Duration::from_millis(5));
                }
                Ok(guard)
            }
            Blocked::AwaitCompletion => {
                // Frame allocation is starved but the engine owes work
                // whose delivery can free frames; force it, then retry.
                let (guard, progressed) = self.engine_force_one(guard, true);
                if progressed {
                    return Ok(guard);
                }
                // Another thread is mid-execution on the outstanding
                // request: yield briefly and retry.
                let mut guard = guard;
                let _ = self.stub_cv.wait_for(&mut guard, Duration::from_millis(5));
                Ok(guard)
            }
            Blocked::PullIn {
                cache,
                segment,
                offset,
                mut size,
                access,
            } => {
                // With the engine on, a clustered pull splits: the
                // faulting head page stays synchronous (the faulter
                // needs it now), the readahead tail becomes a
                // fire-and-collect asynchronous pull. The tail pages'
                // sync stubs are already placed; they clear at the
                // completion's delivery (or when `fillUp` lands data).
                let ps = guard.ps();
                // A Suspected mapper gets no asynchronous tail: the
                // whole clustered pull degrades to the synchronous path
                // until a successful delivery clears the suspicion.
                if guard.config.async_upcalls && size > ps && !guard.engine.is_suspected(segment) {
                    guard = self.queue_async_pull(
                        guard,
                        PendingPull {
                            cache,
                            segment,
                            offset: offset + ps,
                            size: size - ps,
                            access,
                        },
                    );
                    size = ps;
                }
                let req = PullRequest {
                    cache: pub_cache(cache),
                    segment,
                    offset,
                    size,
                    access,
                };
                let span = UpcallSpan {
                    kind: UpcallKind::PullIn,
                    offset,
                    size,
                    phase: Phase::PullIn,
                };
                let (mut guard, res, _) = self.upcall_sync(guard, segment, Some(span), |policy| {
                    self.upcall_with_retry(segment, policy, || self.seg_mgr.submit_pull(self, &req))
                });
                // The faulting page's sync stub survives only if the
                // mapper never delivered it. A delivered page may
                // already be gone again (another thread flushed or
                // evicted it before this re-lock); the retried attempt
                // then simply pulls it anew.
                let undelivered = guard.is_sync_stub(cache, offset);
                // Clear any stub of the pulled range the mapper left
                // unfilled — on failure this is also the waiter cleanup:
                // every faulter asleep on one of these stubs wakes,
                // retries, and reports its own error instead of hanging.
                let mut cur = offset;
                while cur < offset + size {
                    if guard.is_sync_stub(cache, cur) {
                        guard.clear_slot(cache, cur);
                    }
                    cur += ps;
                }
                // Return any contiguous-run frames the mapper did not
                // fill (short delivery or failure) to the buddy pool.
                guard.release_reservations(cache, offset, size);
                match res {
                    Ok(()) => {
                        guard.stats.bump(Counter::PullIns);
                        guard.dim_io(cache, segment, DimCounter::PullIns, 1);
                        // One mapper round trip plus per-page transfer.
                        guard.charge(chorus_hal::OpKind::IpcOp);
                        guard.charge_n(chorus_hal::OpKind::SegmentIoPage, size / ps);
                        if undelivered && guard.caches.contains(cache) {
                            // The mapper never delivered the faulting page.
                            drop(guard);
                            self.stub_cv.notify_all();
                            return Err(GmiError::SegmentIo {
                                segment,
                                cause: "pullIn returned without fillUp".into(),
                                transient: true,
                            });
                        }
                        Ok(guard)
                    }
                    Err(e) => {
                        if !e.is_transient() {
                            guard.quarantine_cache(cache);
                        }
                        drop(guard);
                        self.stub_cv.notify_all();
                        Err(e)
                    }
                }
            }
            Blocked::PushOut {
                cache,
                segment,
                offset,
                size,
                pages,
                origin,
            } => {
                // Daemon-origin laundering pushes are the engine's other
                // async source: nothing waits on them, so they become
                // fire-and-collect when the mapper has a free in-flight
                // slot (at the cap they degrade to the synchronous path
                // below, never to unbounded queueing of dirty runs). The
                // pages stay `cleaning` (write-protected) until the
                // completion delivers, so the bytes the mapper read at
                // submit time cannot be re-dirtied under it.
                let req = PushRequest {
                    cache: pub_cache(cache),
                    segment,
                    offset,
                    size,
                };
                let n = pages.len();
                if guard.config.async_upcalls && origin == PushOrigin::Daemon {
                    let cap = guard
                        .engine
                        .cap_for(segment, guard.config.max_inflight_upcalls.max(1));
                    if guard.engine.inflight_for(segment) < cap {
                        let rec = CompletionRecord {
                            kind: UpcallKind::PushOut,
                            cache,
                            segment,
                            offset,
                            size,
                            pages,
                            result: Ok(()),
                            retries: 0,
                            deadline_ns: 0,
                        };
                        return Ok(self.submit_async(guard, rec, n as u64, |policy, _| {
                            self.push_upcall(policy, &req, n)
                        }));
                    }
                }
                let ps = self.geom.page_size();
                // A demand-origin push is the faulting thread stalling on
                // a dirty eviction — the latency the writeback daemon
                // exists to remove; record it in its own histogram.
                let stall0 = if origin == PushOrigin::Demand {
                    self.trace.phase_start()
                } else {
                    None
                };
                let span = UpcallSpan {
                    kind: UpcallKind::PushOut,
                    offset,
                    size,
                    phase: Phase::PushOut,
                };
                let (mut guard, res, _) = self.upcall_sync(guard, segment, Some(span), |policy| {
                    self.push_upcall(policy, &req, n)
                });
                let first_err = match res {
                    Ok(()) => {
                        // One mapper round trip for the whole run, plus
                        // the per-page transfer — the request-count
                        // amortization that makes clustering pay.
                        guard.charge(chorus_hal::OpKind::IpcOp);
                        guard.charge_n(chorus_hal::OpKind::SegmentIoPage, size / ps);
                        guard.stats.bump(Counter::PushOutBatches);
                        guard.dim_io(cache, segment, DimCounter::PushOuts, n as u64);
                        for &p in &pages {
                            guard.finish_clean(p, true);
                        }
                        guard.grow_seg_len(cache, offset + size);
                        self.trace.phase_end(Phase::EvictStall, stall0);
                        return Ok(guard);
                    }
                    Err(e) => e,
                };
                if n == 1 {
                    // On failure the page keeps its dirty bit (`success:
                    // false`), so no modified data is lost: a later retry
                    // of the clean can still write it back.
                    guard.finish_clean(pages[0], false);
                    if !first_err.is_transient() {
                        guard.quarantine_cache(cache);
                    }
                    drop(guard);
                    self.stub_cv.notify_all();
                    self.trace.phase_end(Phase::EvictStall, stall0);
                    return Err(first_err);
                }
                // A multi-page batch failed (wholly, or part-way with a
                // truncated reply): split into per-page pushes, each with
                // its own retry budget, so one bad page cannot lose the
                // dirty data of its neighbours. Pages that died while the
                // lock was released (e.g. a concurrent invalidate) have
                // nothing left to write and are skipped.
                guard.stats.bump(Counter::PushBatchSplits);
                let mut outcomes: Vec<Option<Result<()>>> = Vec::with_capacity(n);
                let (mut guard, _, _) = self.upcall_sync(guard, segment, None, |policy| {
                    let mut retries = 0u64;
                    let mut dead_mapper = false;
                    for (i, &p) in pages.iter().enumerate() {
                        if dead_mapper {
                            outcomes.push(Some(Err(GmiError::SegmentIo {
                                segment,
                                cause: "batched pushOut aborted after permanent mapper failure"
                                    .into(),
                                transient: true,
                            })));
                            continue;
                        }
                        if !self.state.lock().pages.contains(p) {
                            outcomes.push(None);
                            continue;
                        }
                        let page_req = PushRequest {
                            offset: offset + i as u64 * ps,
                            size: ps,
                            ..req
                        };
                        let (r, rt) = self.push_upcall(policy, &page_req, 1);
                        retries += rt;
                        if r.as_ref().is_err_and(|e| !e.is_transient()) {
                            dead_mapper = true;
                        }
                        outcomes.push(Some(r));
                    }
                    (Ok(()), retries)
                });
                let mut err: Option<GmiError> = None;
                let mut quarantine = false;
                for (i, (&p, r)) in pages.iter().zip(outcomes).enumerate() {
                    match r {
                        None => {}
                        Some(Ok(())) => {
                            guard.charge(chorus_hal::OpKind::IpcOp);
                            guard.charge_n(chorus_hal::OpKind::SegmentIoPage, 1);
                            guard.dim_io(cache, segment, DimCounter::PushOuts, 1);
                            guard.finish_clean(p, true);
                            guard.grow_seg_len(cache, offset + (i as u64 + 1) * ps);
                        }
                        Some(Err(e)) => {
                            guard.finish_clean(p, false);
                            if matches!(e, GmiError::MapperTimeout { .. }) {
                                guard.count_timeout(segment);
                            }
                            if !e.is_transient() {
                                quarantine = true;
                            }
                            if err.is_none() {
                                err = Some(e);
                            }
                        }
                    }
                }
                if quarantine {
                    guard.quarantine_cache(cache);
                }
                self.trace.phase_end(Phase::EvictStall, stall0);
                match err {
                    None => Ok(guard),
                    Some(e) => {
                        drop(guard);
                        self.stub_cv.notify_all();
                        Err(e)
                    }
                }
            }
            Blocked::VictimAdvice { pages, idents } => {
                guard.stats.bump(Counter::PolicyExternalBatches);
                if pages.is_empty() {
                    guard.approve_external_victims(&[]);
                    return Ok(guard);
                }
                // Candidates are live here: selection returned this
                // action under the lock we still hold. They may die
                // while the advice round trip runs below;
                // `approve_external_victims` re-filters on return.
                let units = idents.len() as u64;
                if guard.config.async_upcalls {
                    // Fire-and-collect, like a laundering push: the
                    // mapper answers eagerly, the approval bookkeeping
                    // waits for the completion's due time. Selection
                    // falls back to the internal clock meanwhile, so
                    // allocation never stalls on the advisor.
                    let rec = CompletionRecord {
                        kind: UpcallKind::VictimAdvice,
                        cache: guard.page(pages[0]).cache,
                        segment: ADVICE_SEGMENT,
                        offset: 0,
                        size: 0,
                        pages,
                        result: Ok(()),
                        retries: 0,
                        deadline_ns: 0,
                    };
                    return Ok(self.submit_async(guard, rec, units, |_, pages| {
                        *pages = approved_victims(pages, &self.seg_mgr.advise_victims(&idents));
                        (Ok(()), 0)
                    }));
                }
                let span = UpcallSpan {
                    kind: UpcallKind::VictimAdvice,
                    offset: 0,
                    size: units,
                    phase: Phase::PushOut,
                };
                let (mut guard, verdicts, _) =
                    self.upcall_sync(guard, ADVICE_SEGMENT, Some(span), |_| {
                        (Ok(self.seg_mgr.advise_victims(&idents)), 0)
                    });
                // One advisory round trip on the wire.
                guard.charge(chorus_hal::OpKind::IpcOp);
                let approved = approved_victims(&pages, &verdicts.unwrap_or_default());
                guard.approve_external_victims(&approved);
                Ok(guard)
            }
            Blocked::NeedSegment { cache } => {
                drop(guard);
                let segment = self.seg_mgr.create_segment_v2(pub_cache(cache));
                let seg_len = self.seg_mgr.segment_len(segment);
                let mut guard = self.state.lock();
                if let Ok(c) = guard.cache_mut(cache) {
                    if c.segment.is_none() {
                        c.segment = Some(segment);
                        c.seg_len = seg_len;
                    }
                }
                Ok(guard)
            }
            Blocked::GetWriteAccess {
                cache: _,
                segment,
                offset,
                size,
                page,
            } => {
                let span = UpcallSpan {
                    kind: UpcallKind::GetWriteAccess,
                    offset,
                    size,
                    phase: Phase::GetWriteAccess,
                };
                let (mut guard, res, retries) =
                    self.upcall_sync(guard, segment, Some(span), |policy| {
                        self.upcall_with_retry(segment, policy, || {
                            self.seg_mgr.acquire_write_access(segment, offset, size)
                        })
                    });
                // Each retry is its own upcall on the wire.
                guard.stats.add(Counter::WriteAccessUpcalls, 1 + retries);
                // A write-access denial is a coherence decision, not a
                // mapper death: no quarantine.
                res?;
                if guard.pages.contains(page) {
                    guard.page_mut(page).seg_write_ok = true;
                }
                Ok(guard)
            }
        }
    }
}

// ----- CacheIo: the non-faulting Table 4 data-transfer downcalls ---------

impl CacheIo for Pvm {
    fn fill_up(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let key = cache_key(cache);
        let ps = {
            let guard = self.state.lock();
            guard.cache(key)?;
            guard.ps()
        };
        // Pages already landed by this delivery are pinned until the
        // whole delivery completes: the evictions that later pages'
        // frame allocations trigger must not take earlier pages of the
        // same window (a clustered pull would eat its own head and the
        // faulter would see "pullIn returned without fillUp"). The
        // last — and in the unclustered case only — page needs no pin:
        // nothing fills after it. Pins are dropped on every exit path.
        let mut pinned: Vec<crate::keys::PageKey> = Vec::new();
        let mut cur = 0u64;
        let result = loop {
            if cur >= data.len() as u64 {
                break Ok(());
            }
            let page_off = offset + cur;
            debug_assert!(
                page_off.is_multiple_of(ps),
                "fillUp chunks must start page-aligned"
            );
            let n = ps.min(data.len() as u64 - cur);
            let chunk = &data[cur as usize..(cur + n) as usize];
            // Parallel driver: land the bytes through the lock-free
            // frame plane, holding the state lock only to claim and
            // then publish the landing frame. When the claim would
            // block (frame pool dry), fall back to the classic
            // blocked-action driver, which knows how to evict.
            let landed = if self.parallel && self.fill_one_parallel(key, page_off, chunk)? {
                true
            } else {
                match self.run(|s| s.fill_up_page_attempt(key, page_off, chunk)) {
                    Ok(()) => true,
                    Err(e) => break Err(e),
                }
            };
            self.stub_cv.notify_all();
            cur += n;
            if landed && cur < data.len() as u64 {
                let mut guard = self.state.lock();
                if let Some(p) = guard.pin_resident(key, page_off) {
                    pinned.push(p);
                }
            }
        };
        if !pinned.is_empty() {
            let mut guard = self.state.lock();
            guard.unpin_pages(&pinned);
            drop(guard);
            self.stub_cv.notify_all();
        }
        result
    }

    fn copy_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = cache_key(cache);
        let guard = self.state.lock();
        guard.copy_back_locked(key, offset, buf)
    }

    fn copy_back_run(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<u64> {
        let key = cache_key(cache);
        let guard = self.state.lock();
        guard.copy_back_run_locked(key, offset, buf)
    }

    fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = cache_key(cache);
        let mut guard = self.state.lock();
        guard.copy_back_locked(key, offset, buf)?;
        // Remove the fragment from the cache, releasing the frames.
        let ps = guard.ps();
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let o = offset + cur;
            if let Some(Slot::Present(p)) = guard.slot(key, o) {
                if guard.page(p).stubs.is_empty() && guard.page(p).lock_count == 0 {
                    guard.free_page(p, crate::state::StubsTo::AlreadyHandled, true);
                }
            }
            cur += ps;
        }
        drop(guard);
        self.stub_cv.notify_all();
        Ok(())
    }
}

impl PvmState {
    /// One attempt of delivering one page of `fillUp` data.
    pub(crate) fn fill_up_page_attempt(
        &mut self,
        cache: crate::keys::CacheKey,
        page_off: u64,
        chunk: &[u8],
    ) -> Attempt<()> {
        if self.caches.get(cache).is_none() {
            // The cache died while the pull was in flight; drop the data.
            if self.gmap.get(cache, page_off) == Some(Slot::Sync) {
                self.gmap.remove(cache, page_off);
            }
            return crate::state::done(());
        }
        match self.slot(cache, page_off) {
            Some(Slot::Present(p)) => {
                // Data already resident (e.g. a concurrent fill): refresh
                // the bytes only if the page is clean.
                if !self.page(p).dirty {
                    let frame = self.page(p).frame;
                    let mut full = vec![0u8; self.ps() as usize];
                    full[..chunk.len()].copy_from_slice(chunk);
                    self.phys.write(frame, 0, &full);
                }
                crate::state::done(())
            }
            _ => {
                // A frame reserved for this pull window is consumed in
                // place: it is part of a contiguous pre-zeroed run, so
                // only the payload bytes need writing and the later
                // promotion check sees consecutive frame numbers.
                if let Some(frame) = self.reserved_frames.remove(&(cache, page_off)) {
                    self.phys.write(frame, 0, chunk);
                    if let Some(Slot::Cow(src)) = self.slot(cache, page_off) {
                        self.unthread_cow_stub(cache, page_off, src);
                    }
                    let writable = !self.has_history_covering(cache, page_off);
                    self.create_page(cache, page_off, frame, writable, false);
                    return crate::state::done(());
                }
                // Failing this allocation would strand the pulled data
                // and error the recovery; this is reclaim-critical work,
                // so it may draw from the emergency reserve, and it
                // degrades through an emergency eviction pass before
                // giving up.
                let alloc = match self.alloc_frame_reserved() {
                    Err(GmiError::OutOfMemory) if self.emergency_evict() > 0 => {
                        self.alloc_frame_reserved()
                    }
                    other => other,
                };
                let frame = match alloc? {
                    Outcome::Done(f) => f,
                    Outcome::Blocked(b) => return crate::state::blocked(b),
                };
                // Partial trailing chunks are zero-padded.
                self.phys.zero(frame);
                self.phys.write(frame, 0, chunk);
                if let Some(Slot::Cow(src)) = self.slot(cache, page_off) {
                    self.unthread_cow_stub(cache, page_off, src);
                }
                let writable = !self.has_history_covering(cache, page_off);
                self.create_page(cache, page_off, frame, writable, false);
                crate::state::done(())
            }
        }
    }

    /// Non-faulting read of resident data (`copyBack`).
    pub(crate) fn copy_back_locked(
        &self,
        cache: crate::keys::CacheKey,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        self.cache(cache)?;
        let ps = self.ps();
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let o = offset + cur;
            let page_off = self.geom.round_down(o);
            let in_page = (page_off + ps - o).min(buf.len() as u64 - cur);
            match self.gmap.get(cache, page_off) {
                Some(Slot::Present(p)) => {
                    let frame = self.page(p).frame;
                    self.phys.read(
                        frame,
                        o - page_off,
                        &mut buf[cur as usize..(cur + in_page) as usize],
                    );
                }
                _ => {
                    return Err(GmiError::OutOfRange {
                        offset: page_off,
                        size: ps,
                        what: "copyBack of non-resident data",
                    })
                }
            }
            cur += in_page;
        }
        Ok(())
    }

    /// Reads the longest fully-resident page-aligned prefix of
    /// `[offset, offset + buf.len())` into `buf`, returning its length
    /// in bytes. A batched `pushOut` uses this so a page that vanished
    /// mid-run (writeback racing an invalidate) shortens the reply
    /// instead of failing the whole batch.
    pub(crate) fn copy_back_run_locked(
        &self,
        cache: crate::keys::CacheKey,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<u64> {
        self.cache(cache)?;
        let ps = self.ps();
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let o = offset + cur;
            let page_off = self.geom.round_down(o);
            let in_page = (page_off + ps - o).min(buf.len() as u64 - cur);
            match self.gmap.get(cache, page_off) {
                Some(Slot::Present(p)) => {
                    let frame = self.page(p).frame;
                    self.phys.read(
                        frame,
                        o - page_off,
                        &mut buf[cur as usize..(cur + in_page) as usize],
                    );
                }
                _ if cur == 0 => {
                    return Err(GmiError::OutOfRange {
                        offset: page_off,
                        size: ps,
                        what: "copyBack of non-resident data",
                    })
                }
                _ => break,
            }
            cur += in_page;
        }
        Ok(cur)
    }

    /// Grows a cache's known segment length after a `pushOut` extended
    /// the segment to `end`. An unknown length stays unknown (it only
    /// disables the readahead clamp, never a pull).
    pub(crate) fn grow_seg_len(&mut self, cache: crate::keys::CacheKey, end: u64) {
        if let Some(c) = self.caches.get_mut(cache) {
            if let Some(len) = c.seg_len {
                if end > len {
                    c.seg_len = Some(end);
                }
            }
        }
    }
}

// ----- the GMI itself ------------------------------------------------------

impl Gmi for Pvm {
    fn cache_create(&self, segment: Option<SegmentId>) -> Result<CacheId> {
        // Ask the manager for the segment's length before taking the
        // lock; it clamps clustered pulls at segment end (`None` just
        // disables the clamp).
        let seg_len = segment.and_then(|s| self.seg_mgr.segment_len(s));
        let mut guard = self.state.lock();
        let key = guard.cache_create_locked(segment);
        if seg_len.is_some() {
            if let Ok(c) = guard.cache_mut(key) {
                c.seg_len = seg_len;
            }
        }
        Ok(pub_cache(key))
    }

    fn cache_destroy(&self, cache: CacheId) -> Result<()> {
        let key = cache_key(cache);
        self.run(|s| s.cache_destroy_attempt(key))
    }

    fn cache_copy_with(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
        mode: CopyMode,
    ) -> Result<()> {
        let (s, d) = (cache_key(src), cache_key(dst));
        let mut progress = 0u64;
        self.run(|st| {
            st.cache_copy_attempt(s, src_offset, d, dst_offset, size, mode, &mut progress)
        })
    }

    fn cache_move(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
    ) -> Result<()> {
        let (s, d) = (cache_key(src), cache_key(dst));
        let mut progress = 0u64;
        self.run(|st| st.cache_move_attempt(s, src_offset, d, dst_offset, size, &mut progress))
    }

    fn cache_read(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = cache_key(cache);
        let mut progress = 0u64;
        self.run(|s| s.cache_read_attempt(key, offset, buf, &mut progress))
    }

    fn cache_write(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let key = cache_key(cache);
        let mut progress = 0u64;
        self.run(|s| s.cache_write_attempt(key, offset, data, &mut progress))
    }

    fn context_create(&self) -> Result<CtxId> {
        let mut guard = self.state.lock();
        Ok(pub_ctx(guard.context_create_locked()))
    }

    fn context_destroy(&self, ctx: CtxId) -> Result<()> {
        let mut guard = self.state.lock();
        guard.context_destroy_locked(ctx_key(ctx))
    }

    fn context_switch(&self, ctx: CtxId) -> Result<()> {
        let mut guard = self.state.lock();
        guard.context_switch_locked(ctx_key(ctx))
    }

    fn region_list(&self, ctx: CtxId) -> Result<Vec<(RegionId, RegionStatus)>> {
        let guard = self.state.lock();
        let desc = guard.ctx(ctx_key(ctx))?;
        desc.regions
            .iter()
            .map(|&r| Ok((pub_region(r), guard.region_status_locked(r)?)))
            .collect()
    }

    fn find_region(&self, ctx: CtxId, va: VirtAddr) -> Result<RegionId> {
        let guard = self.state.lock();
        guard.find_region(ctx_key(ctx), va).map(pub_region)
    }

    fn region_create(
        &self,
        ctx: CtxId,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        cache: CacheId,
        offset: u64,
    ) -> Result<RegionId> {
        let mut guard = self.state.lock();
        guard
            .region_create_locked(ctx_key(ctx), addr, size, prot, cache_key(cache), offset)
            .map(pub_region)
    }

    fn region_split(&self, region: RegionId, offset: u64) -> Result<RegionId> {
        let mut guard = self.state.lock();
        guard
            .region_split_locked(region_key(region), offset)
            .map(pub_region)
    }

    fn region_set_protection(&self, region: RegionId, prot: Prot) -> Result<()> {
        let mut guard = self.state.lock();
        guard.region_set_protection_locked(region_key(region), prot)
    }

    fn region_lock_in_memory(&self, region: RegionId) -> Result<()> {
        let key = region_key(region);
        self.run(|s| s.region_lock_attempt(key))
    }

    fn region_unlock(&self, region: RegionId) -> Result<()> {
        let mut guard = self.state.lock();
        guard.region_unlock_locked(region_key(region))
    }

    fn region_status(&self, region: RegionId) -> Result<RegionStatus> {
        let guard = self.state.lock();
        guard.region_status_locked(region_key(region))
    }

    fn region_destroy(&self, region: RegionId) -> Result<()> {
        let mut guard = self.state.lock();
        guard.region_destroy_locked(region_key(region))
    }

    fn cache_flush(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        self.run(|s| s.flush_attempt(key, offset, size))
    }

    fn cache_sync(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        self.run(|s| s.sync_attempt(key, offset, size))
    }

    fn cache_invalidate(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        self.run(|s| s.invalidate_attempt(key, offset, size))
    }

    fn cache_set_protection(
        &self,
        cache: CacheId,
        offset: u64,
        size: u64,
        prot: Prot,
    ) -> Result<()> {
        let mut guard = self.state.lock();
        guard.cache_set_protection_locked(cache_key(cache), offset, size, prot)
    }

    fn cache_lock_in_memory(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        let mut pinned = 0u64;
        self.run(|s| s.cache_lock_attempt(key, offset, size, &mut pinned))
    }

    fn cache_unlock(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let mut guard = self.state.lock();
        guard.cache_unlock_locked(cache_key(cache), offset, size)
    }

    fn handle_fault(&self, ctx: CtxId, va: VirtAddr, access: Access) -> Result<()> {
        let key = ctx_key(ctx);
        // The fault-enter stamp is taken before the fast-path probe so
        // every handled fault — fast or slow — has exactly one
        // FaultEnter/FaultExit pair.
        let fstart = self.trace.fault_enter(key.index(), va.0, access);
        // Soft-fault fast path: a current-generation translation whose
        // installed protection already allows the access means the MMU
        // mapping is valid — the fault needs no state change at all, so
        // it completes without the state mutex (only one sharded read
        // lock). Anything else (miss, stale generation, COW, stub,
        // protection upgrade) falls through to the locked slow path,
        // which re-derives truth from the global map.
        if self.fast.lookup(key, self.geom.vpn(va), access) {
            self.model.charge(chorus_hal::OpKind::FaultEntry);
            self.trace.event(|| TraceEvent::FastPathHit {
                ctx: key.index(),
                va: va.0,
            });
            self.trace
                .fault_exit(fstart, key.index(), va.0, Resolution::FastPath);
            return Ok(());
        }
        if self.fast.enabled() {
            self.trace.event(|| TraceEvent::FastPathFallback {
                ctx: key.index(),
                va: va.0,
            });
        }
        // Parallel driver: resolve the faulting cache with a short
        // state-lock peek, then hold that cache's stripe across the
        // whole hard fault (pull upcall included) so faults on the same
        // cache serialize — visibly, in the stripe counters — while
        // faults on disjoint caches proceed concurrently. Any peek
        // failure (dead context, unmapped address) falls through to the
        // unstriped driver so error semantics stay identical.
        if self.parallel && !HOLDS_STRIPE.with(|f| f.get()) {
            if let Some(cache) = self.peek_fault_cache(key, va) {
                let _stripe = self.lock_stripe(cache);
                HOLDS_STRIPE.with(|f| f.set(true));
                let res = self.fault_slow(key, va, access, fstart);
                HOLDS_STRIPE.with(|f| f.set(false));
                return res;
            }
        }
        self.fault_slow(key, va, access, fstart)
    }

    fn vm_read(&self, ctx: CtxId, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.vm_access(ctx, va, Access::Read, AccessBuf::Read(buf))
    }

    fn vm_write(&self, ctx: CtxId, va: VirtAddr, buf: &[u8]) -> Result<()> {
        self.vm_access(ctx, va, Access::Write, AccessBuf::Write(buf))
    }

    fn geometry(&self) -> PageGeometry {
        self.geom
    }

    fn cache_resident_pages(&self, cache: CacheId) -> Result<u64> {
        let guard = self.state.lock();
        let key = cache_key(cache);
        let desc = guard.cache(key)?;
        Ok(desc
            .entries
            .iter()
            .filter(|&&o| matches!(guard.gmap.get(key, o), Some(Slot::Present(_))))
            .count() as u64)
    }
}

/// Sentinel segment id that carries `victimAdvice` completions through
/// the engine's in-flight table: advice is addressed to the manager as
/// a whole, not to any one segment, and no real segment ever gets this
/// id (segment ids are small sequential integers).
const ADVICE_SEGMENT: SegmentId = SegmentId(u64::MAX);

/// Applies a `victimAdvice` verdict mask to its candidate batch: a
/// candidate survives only where the mapper answered `true`; a short
/// reply vetoes the missing tail.
fn approved_victims(
    pages: &[crate::keys::PageKey],
    verdicts: &[bool],
) -> Vec<crate::keys::PageKey> {
    pages
        .iter()
        .zip(verdicts.iter().copied().chain(std::iter::repeat(false)))
        .filter_map(|(&p, ok)| ok.then_some(p))
        .collect()
}

/// What a synchronous upcall bracket traces beyond the segment: the
/// `UpcallStart` fields and the phase histogram the round trip lands in.
#[derive(Clone, Copy)]
struct UpcallSpan {
    kind: UpcallKind,
    offset: u64,
    size: u64,
    phase: Phase,
}

/// Maps an upcall's final result onto the traced outcome.
pub(crate) fn upcall_outcome<T>(res: &Result<T>) -> UpcallOutcome {
    match res {
        Ok(_) => UpcallOutcome::Ok,
        Err(GmiError::MapperTimeout { .. }) => UpcallOutcome::Timeout,
        Err(e) if e.is_transient() => UpcallOutcome::Transient,
        Err(_) => UpcallOutcome::Permanent,
    }
}

enum AccessBuf<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
}

impl Pvm {
    /// The locked slow half of `handle_fault`: the blocked-action
    /// driver looping `fault_attempt`, shared by the classic and the
    /// striped paths.
    fn fault_slow(
        &self,
        key: CtxKey,
        va: VirtAddr,
        access: Access,
        fstart: Option<u64>,
    ) -> Result<()> {
        let mut first = true;
        let res = self.run(|s| {
            let head = first;
            if head {
                first = false;
                s.stats.bump(Counter::Faults);
                s.charge(chorus_hal::OpKind::FaultEntry);
            }
            s.fault_attempt(key, va, access, head)
        });
        let resolution = *res.as_ref().unwrap_or(&Resolution::Failed);
        self.trace.fault_exit(fstart, key.index(), va.0, resolution);
        res.map(|_| ())
    }

    /// Resolves which cache backs a faulting address, under a short
    /// state-lock section. `None` (dead context, unmapped va) routes
    /// the fault to the unstriped driver, which re-derives and reports
    /// the error itself.
    fn peek_fault_cache(&self, ctx: CtxKey, va: VirtAddr) -> Option<CacheKey> {
        let guard = self.state.lock();
        let reg = guard.find_region(ctx, va).ok()?;
        guard.region(reg).ok().map(|r| r.cache)
    }

    /// Locks the fault stripe of one cache (outermost tier of the
    /// parallel lock order), counting acquisition and contention both
    /// globally and in the cache's telemetry family.
    fn lock_stripe(&self, cache: CacheKey) -> parking_lot::MutexGuard<'_, ()> {
        let m = &self.stripes[(fx_hash_one(&cache) & self.stripe_mask) as usize];
        self.stats.bump(Counter::CacheStripeAcqs);
        if self.telemetry.enabled() {
            self.telemetry
                .bump(Dim::Cache, u64::from(cache.index()), DimCounter::LockAcqs);
        }
        match m.try_lock() {
            Some(g) => g,
            None => {
                self.stats.bump(Counter::CacheStripeContended);
                if self.telemetry.enabled() {
                    self.telemetry.bump(
                        Dim::Cache,
                        u64::from(cache.index()),
                        DimCounter::LockContended,
                    );
                }
                m.lock()
            }
        }
    }

    /// One page of parallel `fillUp`: the landing-frame protocol. The
    /// frame is claimed under one state-lock section, filled through
    /// the lock-free byte plane with no lock held, and published under
    /// a second section — so the memcpy/zeroing (the expensive part of
    /// a hard fault's recovery) no longer serializes behind the state
    /// lock.
    ///
    /// Returns `Ok(true)` when the page was handled here; `Ok(false)`
    /// when claiming a frame would have to evict, routing this page to
    /// the classic blocked-action driver.
    fn fill_one_parallel(&self, cache: CacheKey, page_off: u64, chunk: &[u8]) -> Result<bool> {
        // --- state lock #1: classify, claim a landing frame ---
        let (frame, prezeroed) = {
            let mut guard = self.state.lock();
            if guard.caches.get(cache).is_none() {
                // The cache died while the pull was in flight; drop the
                // data.
                if guard.gmap.get(cache, page_off) == Some(Slot::Sync) {
                    guard.gmap.remove(cache, page_off);
                }
                return Ok(true);
            }
            if let Some(Slot::Present(p)) = guard.slot(cache, page_off) {
                // Data already resident (e.g. a concurrent fill):
                // refresh the bytes only if the page is clean — under
                // the lock, since a resident page is visible to every
                // other thread.
                if !guard.page(p).dirty {
                    let frame = guard.page(p).frame;
                    let mut full = vec![0u8; guard.ps() as usize];
                    full[..chunk.len()].copy_from_slice(chunk);
                    guard.phys.write(frame, 0, &full);
                }
                return Ok(true);
            }
            if let Some(frame) = guard.reserved_frames.remove(&(cache, page_off)) {
                // A pre-zeroed contiguous-run frame reserved for this
                // pull window is consumed in place.
                guard.landing.insert((cache, page_off), frame);
                (frame, true)
            } else {
                // Mirror `alloc_frame_reserved`'s uncontended path,
                // reserve-grant accounting included; a dry pool routes
                // to the classic driver, which knows how to evict.
                let reserve = guard.config.emergency_reserve_frames;
                let free = guard.phys.free_frames();
                if free == 0 {
                    return Ok(false);
                }
                if reserve > 0 && free <= reserve {
                    guard.stats.bump(Counter::ReserveGrants);
                }
                let frame = guard.phys.alloc().expect("free frame count lied");
                guard.landing.insert((cache, page_off), frame);
                (frame, false)
            }
        };
        // --- no lock: land the bytes ---
        // SAFETY: `frame` came out of the free pool (or the reservation
        // table) under the state lock and is recorded only in
        // `landing`, which no other path reads, maps or releases — this
        // thread is the frame's sole logical owner until state lock #2
        // threads it into a page descriptor, so the plane access cannot
        // race.
        unsafe {
            let dst = self.store.frame_mut(frame);
            dst[..chunk.len()].copy_from_slice(chunk);
            if !prezeroed {
                dst[chunk.len()..].fill(0);
            }
        }
        // --- state lock #2: publish ---
        let mut guard = self.state.lock();
        guard.landing.remove(&(cache, page_off));
        // Mirror the serial path's zero charge (`phys.write` charges
        // nothing). MemStats.zeroed is not bumped: the tail was zeroed
        // through the plane, not `phys.zero` — a documented drift of
        // the parallel fill.
        if !prezeroed {
            guard.charge(chorus_hal::OpKind::BzeroPage);
        }
        if guard.caches.get(cache).is_none() {
            // Quarantine/destroy raced the fill: drop the data.
            if guard.gmap.get(cache, page_off) == Some(Slot::Sync) {
                guard.gmap.remove(cache, page_off);
            }
            guard.phys.release(frame);
            return Ok(true);
        }
        if let Some(Slot::Present(_)) = guard.slot(cache, page_off) {
            // A concurrent fill landed first; drop our frame.
            guard.phys.release(frame);
            return Ok(true);
        }
        if let Some(Slot::Cow(src)) = guard.slot(cache, page_off) {
            guard.unthread_cow_stub(cache, page_off, src);
        }
        let writable = !guard.has_history_covering(cache, page_off);
        guard.create_page(cache, page_off, frame, writable, false);
        if guard.config.check_invariants {
            guard.check_invariants();
        }
        Ok(true)
    }

    /// The faulting user-access simulation loop: translate, fault,
    /// retry — crossing page (and region) boundaries as needed.
    fn vm_access(
        &self,
        ctx: CtxId,
        va: VirtAddr,
        access: Access,
        mut buf: AccessBuf<'_>,
    ) -> Result<()> {
        let key = ctx_key(ctx);
        let len = match &buf {
            AccessBuf::Read(b) => b.len(),
            AccessBuf::Write(b) => b.len(),
        } as u64;
        let ps = self.geometry().page_size();
        let mut cur = 0u64;
        while cur < len {
            let addr = VirtAddr(va.0 + cur);
            let page_rem = ps - (addr.0 % ps);
            let n = page_rem.min(len - cur) as usize;
            // Translate-or-fault loop for this chunk.
            let mut tries = 0;
            loop {
                let mut guard = self.state.lock();
                // An OOM-killed context reports the kill, not a bare
                // "no such context", so MIX can reap the process.
                guard.check_context_alive(key)?;
                let mmu_ctx = guard.ctx(key)?.mmu_ctx;
                let translated = guard.mmu.translate(mmu_ctx, addr, access, false);
                match translated {
                    Ok(pa) => {
                        match &mut buf {
                            AccessBuf::Read(b) => {
                                guard
                                    .phys
                                    .read_phys(pa, &mut b[cur as usize..cur as usize + n]);
                            }
                            AccessBuf::Write(b) => {
                                guard
                                    .phys
                                    .write_phys(pa, &b[cur as usize..cur as usize + n]);
                            }
                        }
                        break;
                    }
                    Err(_fault) => {
                        drop(guard);
                        self.handle_fault(ctx, addr, access)?;
                        tries += 1;
                        assert!(tries < 64, "fault livelock at {addr:?}");
                    }
                }
            }
            cur += n as u64;
        }
        Ok(())
    }
}
