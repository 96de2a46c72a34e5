//! Frame allocation with clock page replacement.
//!
//! The data management policy (page-out decisions) belongs to the memory
//! manager below the GMI (§3.3.3). When the frame pool is exhausted the
//! clock sweep picks a victim: clean victims are evicted inline; dirty
//! victims are first cleaned by a `pushOut` upcall (preceded, for
//! segment-less temporary caches, by a `segmentCreate` upcall — the
//! §5.1.2 lazy swap binding). Eviction keeps the cache's `owned` mark so
//! a later miss pulls the page back in.

use crate::descriptors::Slot;
use crate::keys::PageKey;
use crate::policy::{PolicyEngine, StateView};
use crate::state::{blocked, done, Attempt, Blocked, Outcome, PushOrigin, PvmState, StubsTo};
use crate::stats::Counter;
use crate::trace::TraceEvent;
use chorus_gmi::GmiError;
use chorus_hal::{FrameNo, OpKind};

/// Result of one victim-selection round against the policy engine.
enum Pick {
    /// A page to clean or evict right now.
    Victim(PageKey),
    /// The external policy wants the segment manager's advice on this
    /// candidate batch before anything is evicted (blocked action).
    Advice(Vec<PageKey>),
    /// Nothing evictable.
    None,
}

impl PvmState {
    /// Allocates a frame, running page replacement when the pool is dry.
    /// Ordinary allocations keep `emergency_reserve_frames` frames off
    /// limits so the reclaim machinery itself (laundering pushes need a
    /// frame to land pulled data) can always make progress.
    pub fn alloc_frame(&mut self) -> Attempt<FrameNo> {
        let floor = self.config.emergency_reserve_frames;
        self.alloc_frame_with_floor(floor)
    }

    /// Frame allocation for reclaim-critical work (`fillUp` delivering
    /// pulled data): may dip into the emergency reserve that ordinary
    /// faults cannot touch, closing the deadlock where freeing frames
    /// itself needs a frame.
    pub fn alloc_frame_reserved(&mut self) -> Attempt<FrameNo> {
        let reserve = self.config.emergency_reserve_frames;
        if reserve > 0 {
            let free = self.phys.free_frames();
            if free > 0 && free <= reserve {
                self.stats.bump(Counter::ReserveGrants);
            }
        }
        self.alloc_frame_with_floor(0)
    }

    /// The allocation loop: frames above `floor` are handed out freely;
    /// at or below it, page replacement runs (clean victims evicted
    /// inline, dirty ones cleaned via `pushOut`), and when replacement
    /// finds nothing the out-of-memory killer (if enabled) reclaims one
    /// victim context before the allocation finally fails.
    fn alloc_frame_with_floor(&mut self, floor: u32) -> Attempt<FrameNo> {
        let mut oom_killed_once = false;
        loop {
            if self.phys.free_frames() > floor {
                return done(self.phys.alloc().expect("free frame count lied"));
            }
            if self.config.enable_pageout {
                match self.select_victim() {
                    Pick::Victim(victim) => {
                        if self.page(victim).dirty {
                            match self.start_clean(victim, PushOrigin::Demand)? {
                                Outcome::Blocked(b) => return blocked(b),
                                Outcome::Done(()) => continue,
                            }
                        } else {
                            self.evict(victim);
                            continue;
                        }
                    }
                    Pick::Advice(pages) => {
                        return blocked(self.victim_advice_blocked(pages));
                    }
                    Pick::None => {
                        // No victim, but the completion engine owes work
                        // (e.g. every candidate is `cleaning` under an
                        // in-flight laundering push): delivering a
                        // completion makes those pages clean and
                        // evictable, so wait for one instead of reporting
                        // a premature OutOfMemory.
                        if self.config.async_upcalls && self.engine.has_work() {
                            return blocked(Blocked::AwaitCompletion);
                        }
                    }
                }
            }
            // Reclaim made no progress at all (or is disabled). Kill at
            // most one victim context per allocation attempt; if even
            // that frees nothing, the allocation fails.
            if self.config.oom_killer && !oom_killed_once {
                oom_killed_once = true;
                if self.oom_kill_victim() > 0 {
                    continue;
                }
            }
            return Err(GmiError::OutOfMemory);
        }
    }

    /// Allocates a frame while `keep` is guaranteed to stay resident:
    /// the inline eviction inside [`PvmState::alloc_frame`] must not pick
    /// the page whose contents the caller is about to copy.
    pub fn alloc_frame_keeping(&mut self, keep: PageKey) -> Attempt<FrameNo> {
        self.page_mut(keep).lock_count += 1;
        let result = self.alloc_frame();
        // The page may only disappear while the caller is blocked (lock
        // released); within this attempt it stayed pinned.
        if self.pages.contains(keep) {
            self.page_mut(keep).lock_count -= 1;
        }
        result
    }

    /// One victim-selection call into the policy engine (the default
    /// `Clock` policy reproduces the classic two-sweep clock, reference
    /// bit clearing and `ClockFullSweeps` accounting included). Every
    /// tracked entry is a live page (freed pages leave the policy
    /// eagerly), so no stale-key compaction is needed.
    fn select_victim(&mut self) -> Pick {
        self.stats.bump(Counter::PolicyVictimRequests);
        let mut engine = core::mem::replace(&mut self.policy, PolicyEngine::placeholder());
        let out = engine.select_victims(
            1,
            &mut StateView {
                pages: &mut self.pages,
                caches: &self.caches,
            },
        );
        self.policy = engine;
        // The clock's sweep bookkeeping, exactly as before the policy
        // split: `step / n` full sweeps on success, two on exhaustion,
        // a trace event whenever the count is positive.
        self.stats.add(Counter::ClockFullSweeps, out.full_sweeps);
        if out.full_sweeps > 0 {
            let sweeps = out.full_sweeps;
            self.trace.event(|| TraceEvent::ClockSweep { sweeps });
        }
        if out.external_fallback {
            self.stats.bump(Counter::PolicyExternalFallbacks);
        }
        if let Some(&victim) = out.victims.first() {
            self.stats.bump(Counter::PolicyVictims);
            if self.telemetry.enabled() {
                self.dim_cache(
                    self.page(victim).cache,
                    crate::telemetry::DimCounter::PolicyVictims,
                    1,
                );
            }
            return Pick::Victim(victim);
        }
        if let Some(pages) = out.need_advice {
            return Pick::Advice(pages);
        }
        Pick::None
    }

    /// Builds the blocked `victimAdvice` action for a candidate batch:
    /// resolves each page's public identity for the segment manager.
    fn victim_advice_blocked(&self, pages: Vec<PageKey>) -> Blocked {
        let idents = pages
            .iter()
            .map(|&p| {
                let d = self.page(p);
                (crate::keys::pub_cache(d.cache), d.offset)
            })
            .collect();
        Blocked::VictimAdvice { pages, idents }
    }

    /// Emergency eviction pass (fault-recovery degradation): evicts every
    /// clean, unpinned, non-cleaning resident page regardless of
    /// reference bits. Used when a `fillUp` delivering pulled data cannot
    /// allocate a frame — failing that allocation would strand the pull
    /// and wedge every faulter waiting on its stubs, so trading the whole
    /// clean working set for progress is the better degradation. Returns
    /// the number of frames freed.
    pub fn emergency_evict(&mut self) -> u64 {
        let candidates: Vec<PageKey> = self
            .policy
            .keys()
            .into_iter()
            .filter(|&k| {
                self.pages
                    .get(k)
                    .map(|p| !p.dirty && !p.cleaning && p.lock_count == 0)
                    .unwrap_or(false)
            })
            .collect();
        let mut freed = 0u64;
        for k in candidates {
            if !self.pages.contains(k) {
                continue;
            }
            self.evict(k);
            freed += 1;
        }
        if freed > 0 {
            self.stats.bump(Counter::EmergencyPageouts);
        }
        freed
    }

    /// Begins cleaning a dirty victim: gathers the surrounding run of
    /// contiguous dirty pages (up to `push_cluster_pages`), downgrades
    /// every run member's mappings so re-dirtying faults, marks them
    /// cleaning, and requests one batched `pushOut` upcall (or first a
    /// `segmentCreate` if the cache has no segment yet). `Done(())`
    /// means the victim's cache died and the page was simply evicted.
    fn start_clean(&mut self, victim: PageKey, origin: PushOrigin) -> Attempt<()> {
        let cache = self.page(victim).cache;
        let Some(desc) = self.caches.get(cache) else {
            // Orphaned page: its cache died; just evict.
            self.evict(victim);
            return done(());
        };
        let Some(segment) = desc.segment else {
            return blocked(Blocked::NeedSegment { cache });
        };
        let limit = self.config.push_cluster_pages.max(1);
        let (offset, pages) = self.gather_push_run(victim, limit);
        // Write-protect every mapping so a concurrent write faults and
        // waits for the cleaning to finish (`begin_cleaning` narrows the
        // fast-path entries in the same step so a racing writer cannot
        // satisfy its fault lock-free and dodge the synchronization).
        for &p in &pages {
            self.begin_cleaning(p);
        }
        let size = pages.len() as u64 * self.ps();
        blocked(Blocked::PushOut {
            cache,
            segment,
            offset,
            size,
            pages,
            origin,
        })
    }

    /// Extends a dirty victim into the longest run of pages contiguous
    /// in (cache, offset) that are resident, dirty, unpinned and not
    /// already being cleaned, capped at `limit` pages. Returns the run's
    /// start offset and its pages in offset order.
    fn gather_push_run(&self, victim: PageKey, limit: u64) -> (u64, Vec<PageKey>) {
        let ps = self.ps();
        let cache = self.page(victim).cache;
        let base = self.page(victim).offset;
        let mut start = base;
        let mut pages = vec![victim];
        // With large pages on, clamp the run to the victim's large page
        // so a batched push never straddles a promotion-granule boundary
        // — cleaning one run demotes at most one large mapping, and
        // writeback I/O stays huge-page aligned.
        let (lo_bound, hi_bound) = if self.config.large_pages {
            let lo = self.geom.round_down_large(base);
            (lo, lo + self.geom.large_page_size())
        } else {
            (0, u64::MAX)
        };
        let eligible = |o: u64| -> Option<PageKey> {
            match self.gmap.get(cache, o) {
                Some(Slot::Present(p)) => {
                    let page = self.page(p);
                    (page.dirty && !page.cleaning && page.lock_count == 0).then_some(p)
                }
                _ => None,
            }
        };
        while (pages.len() as u64) < limit && start >= ps && start - ps >= lo_bound {
            let Some(p) = eligible(start - ps) else { break };
            pages.insert(0, p);
            start -= ps;
        }
        let mut next = base + ps;
        while (pages.len() as u64) < limit && next + ps <= hi_bound {
            let Some(p) = eligible(next) else { break };
            pages.push(p);
            next += ps;
        }
        (start, pages)
    }

    /// One step of the watermark-driven laundering pass: while fewer
    /// than `high` frames are free, evict clean victims inline and hand
    /// dirty ones to [`PvmState::start_clean`] as daemon-origin batched
    /// pushes. `Done(())` means the pass is finished (watermark reached
    /// or no evictable victim remains); `Blocked` must be performed and
    /// the attempt retried, like any other blocked action.
    pub fn launder_attempt(&mut self, high: u32) -> Attempt<()> {
        loop {
            if self.phys.free_frames() >= high {
                return done(());
            }
            match self.select_victim() {
                Pick::Victim(victim) => {
                    if self.page(victim).dirty {
                        match self.start_clean(victim, PushOrigin::Daemon)? {
                            Outcome::Blocked(b) => return blocked(b),
                            Outcome::Done(()) => {}
                        }
                    } else {
                        self.evict(victim);
                    }
                }
                Pick::Advice(pages) => {
                    return blocked(self.victim_advice_blocked(pages));
                }
                Pick::None => return done(()),
            }
        }
    }

    /// Called by the driver after a successful `pushOut`: the page is
    /// clean and will be picked as a victim on the retry.
    pub fn finish_clean(&mut self, page: PageKey, success: bool) {
        if let Some(p) = self.pages.get_mut(page) {
            p.cleaning = false;
            if success {
                p.dirty = false;
                // Make it an immediate eviction candidate.
                p.ref_bit = false;
                self.policy.cleaned(page);
            }
            self.stats.add(Counter::PushOuts, success as u64);
        }
    }

    /// Evicts a clean resident page: unmap, re-point stubs at the
    /// segment location, drop the slot (ownership mark stays), release
    /// the frame.
    pub fn evict(&mut self, victim: PageKey) {
        debug_assert!(!self.page(victim).dirty, "evicting a dirty page");
        self.stats.bump(Counter::Evictions);
        self.dim_cache(
            self.page(victim).cache,
            crate::telemetry::DimCounter::Evictions,
            1,
        );
        self.trace.event(|| TraceEvent::Eviction {
            cache: self.page(victim).cache.index(),
            offset: self.page(victim).offset,
        });
        self.charge(OpKind::UnmapPage);
        self.free_page(victim, StubsTo::Loc, true);
    }

    /// True if (cache, off) currently holds a synchronization stub.
    pub fn is_sync_stub(&self, cache: crate::keys::CacheKey, off: u64) -> bool {
        matches!(self.gmap.get(cache, off), Some(Slot::Sync))
    }

    /// Resident and dirty page counts of a context's footprint: every
    /// resident page reachable through one of its regions' windows.
    /// Probes the global map directly (uncharged — pure accounting for
    /// the OOM score, never on the default path).
    fn context_footprint(&self, ctx: crate::keys::CtxKey) -> (u64, u64) {
        let mut resident = 0u64;
        let mut dirty = 0u64;
        let Some(desc) = self.contexts.get(ctx) else {
            return (0, 0);
        };
        for &r in &desc.regions {
            let Some(region) = self.regions.get(r) else {
                continue;
            };
            let Some(cache) = self.caches.get(region.cache) else {
                continue;
            };
            for &off in cache
                .entries
                .range(region.offset..region.offset + region.size)
            {
                if let Some(Slot::Present(p)) = self.gmap.get(region.cache, off) {
                    resident += 1;
                    dirty += self.page(p).dirty as u64;
                }
            }
        }
        (resident, dirty)
    }

    /// The out-of-memory killer: scores every context by footprint
    /// (resident + dirty pages) and recent fault activity, tears the
    /// worst victim down through the ordinary context-destroy path, and
    /// frees the reclaimable resident pages of caches that thereby lost
    /// their last user. Dirty contents die with the victim — that is
    /// the OOM contract — but pages other caches still depend on
    /// (copy-on-write stub sources) are left alone. Returns the number
    /// of frames returned to the pool. Deterministic: ties break toward
    /// the lowest arena index.
    pub fn oom_kill_victim(&mut self) -> u64 {
        let mut best: Option<(crate::keys::CtxKey, u64, u64, u64)> = None;
        for ctx in self.contexts.ids() {
            let (resident, dirty) = self.context_footprint(ctx);
            let faults = self.contexts.get(ctx).map(|c| c.recent_faults).unwrap_or(0);
            let score = (resident + dirty).max(faults);
            if best.map(|(_, _, _, s)| score > s).unwrap_or(true) {
                best = Some((ctx, resident, dirty, score));
            }
        }
        let Some((victim, resident, dirty, _)) = best else {
            return 0;
        };
        let free_before = self.phys.free_frames();
        // Caches the victim maps: once the context is gone they may
        // have no user left, making their resident pages freeable.
        let mut touched: Vec<crate::keys::CacheKey> = Vec::new();
        if let Some(desc) = self.contexts.get(victim) {
            for &r in &desc.regions.clone() {
                if let Some(region) = self.regions.get(r) {
                    if !touched.contains(&region.cache) {
                        touched.push(region.cache);
                    }
                }
            }
        }
        // Tear the address space down through the existing destroy path
        // (force-unlocks pinned regions, invalidates mappings, drops
        // the translation cache generation).
        let _ = self.context_destroy_locked(victim);
        for cache in touched {
            let Some(c) = self.caches.get(cache) else {
                continue;
            };
            if c.mapped_regions != 0 || c.internal || c.zombie || !c.children.is_empty() {
                // Still in use (another context, or history descendants
                // that may pull values from it): keep its pages.
                continue;
            }
            let offsets: Vec<u64> = c.entries.iter().copied().collect();
            for off in offsets {
                let Some(Slot::Present(p)) = self.gmap.get(cache, off) else {
                    continue;
                };
                let page = self.page(p);
                if page.lock_count == 0 && !page.cleaning && page.stubs.is_empty() {
                    self.free_page(p, StubsTo::AlreadyHandled, true);
                }
            }
        }
        self.stats.bump(Counter::OomKills);
        self.oom_killed.push(crate::keys::pub_ctx(victim));
        self.trace.event(|| TraceEvent::OomKill {
            ctx: victim.index(),
            resident,
            dirty,
        });
        (self.phys.free_frames() - free_before) as u64
    }
}
