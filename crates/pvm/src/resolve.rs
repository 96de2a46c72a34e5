//! Current-version resolution: the upward walk of the history tree.
//!
//! "Each cache contains the current version of its own pages. Pages not
//! present in some cache (cache misses) are found by looking upwards
//! (towards the root) in the tree" (§4.2.1). The walk also follows
//! per-virtual-page stub pointers (§4.3) and triggers `pullIn` for owned
//! but swapped-out data.

use crate::descriptors::{CowSource, Slot};
use crate::keys::{CacheKey, PageKey};
use crate::policy::ReadaheadKind;
use crate::state::{blocked, done, Attempt, Blocked, Outcome, PvmState};
use crate::stats::Counter;
use crate::trace::TraceEvent;
use chorus_gmi::GmiError;
use chorus_hal::{Access, OpKind};

/// The resolved current version of a (cache, offset) datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Version {
    /// A resident page holds the value (it may belong to the queried
    /// cache itself or to an ancestor / stub source).
    Page(PageKey),
    /// No cache on the path and no segment holds the value: the logical
    /// content is zeroes.
    Zero,
}

impl PvmState {
    /// Resolves the current logical version of offset `off` of `cache`.
    ///
    /// May request a `pullIn` (placing the synchronization stub first) or
    /// a wait on an in-transit page.
    pub fn resolve_version(
        &mut self,
        cache: CacheKey,
        off: u64,
        access: Access,
    ) -> Attempt<Version> {
        let mut depth = 0u32;
        let result = self.resolve_version_walk(cache, off, access, &mut depth);
        // Record the root-ward walk depth when the walk concluded (a
        // blocked walk re-runs and re-reports after the pull/wait).
        if let Ok(Outcome::Done(_)) = result {
            self.trace.event(|| TraceEvent::HistoryWalk {
                cache: cache.index(),
                offset: off,
                depth,
            });
        }
        result
    }

    fn resolve_version_walk(
        &mut self,
        cache: CacheKey,
        off: u64,
        access: Access,
        depth: &mut u32,
    ) -> Attempt<Version> {
        let mut x = cache;
        let mut o = off;
        // Cycle guard: a correct history tree is acyclic; bound the walk.
        let mut steps = self.caches.len() + 2;
        loop {
            if steps == 0 {
                panic!("history tree cycle detected at {x:?}+{o:#x}");
            }
            steps -= 1;
            self.charge(OpKind::HistoryOp);
            // The walk may land in a quarantined ancestor whose segment
            // data is unreachable; fail cleanly rather than pulling.
            self.check_not_poisoned(x)?;
            match self.slot(x, o) {
                Some(Slot::Present(p)) => return done(Version::Page(p)),
                Some(Slot::Sync) => return blocked(Blocked::WaitStub),
                Some(Slot::Cow(CowSource::Page(p))) => {
                    debug_assert!(self.pages.contains(p), "stub points at dead page");
                    return done(Version::Page(p));
                }
                Some(Slot::Cow(CowSource::Loc(c2, o2))) => {
                    *depth += 1;
                    x = c2;
                    o = o2;
                }
                Some(Slot::Cow(CowSource::Zero)) => return done(Version::Zero),
                None => {
                    let desc = self.cache(x)?;
                    if desc.owns(o) {
                        // Owned but not resident: the data lives on the
                        // segment. Place the synchronization page stub
                        // and ask for a pull (§4.1.2); with clustering
                        // enabled, adjacent owned-non-resident pages ride
                        // along under their own stubs (read-ahead).
                        let segment = desc.segment.ok_or(GmiError::InvalidArgument(
                            "owned page with neither residence nor segment",
                        ))?;
                        let ps = self.ps();
                        let window = self.pull_window(x, o)?;
                        let mut pages = 1u64;
                        while pages < window {
                            let next = o + pages * ps;
                            let desc = self.cache(x)?;
                            // Clamp at segment end: a fully-backed cache
                            // owns *every* offset, but the mapper has no
                            // data past the segment's known length, and a
                            // run crossing it would come back truncated.
                            if let Some(len) = desc.seg_len {
                                if next + ps > len {
                                    break;
                                }
                            }
                            // Stop at resident pages, in-transit stubs and
                            // COW stubs (all indexed in `entries`): pulling
                            // them again would be redundant mapper I/O.
                            if !desc.owns(next) || desc.entries.contains(&next) {
                                break;
                            }
                            pages += 1;
                        }
                        if self.config.policy.readahead == ReadaheadKind::Doubling {
                            let d = self.cache_mut(x)?;
                            d.ra_window = window;
                            d.ra_next = o + pages * ps;
                        }
                        // A synchronous pull covering exactly one
                        // large-aligned full run gets a contiguous
                        // pre-zeroed frame run reserved up front, so the
                        // delivered pages land physically contiguous and
                        // the run can be promoted. Async pulls skip this:
                        // completions interleave and the window may be
                        // re-split by coalescing.
                        if self.config.large_pages
                            && !self.config.async_upcalls
                            && pages == self.geom.large_factor()
                            && self.geom.is_large_aligned(o)
                        {
                            self.reserve_pull_run(x, o);
                        }
                        for k in 0..pages {
                            self.set_slot(x, o + k * ps, Slot::Sync);
                        }
                        return blocked(Blocked::PullIn {
                            cache: x,
                            segment,
                            offset: o,
                            size: pages * ps,
                            access,
                        });
                    }
                    match desc.parent_at(o) {
                        Some(frag) => {
                            *depth += 1;
                            o = frag.to_parent(o);
                            x = frag.parent;
                        }
                        None => return done(Version::Zero),
                    }
                }
            }
        }
    }

    /// The pull cluster window (in pages) for a miss of `cache` at
    /// `off`: the static `pull_cluster_pages` under
    /// [`ReadaheadKind::Fifo`]; under [`ReadaheadKind::Doubling`] the
    /// [`doubling_window`] rule decides from the cache's stream state.
    ///
    /// [`doubling_window`]: crate::policy::doubling_window
    fn pull_window(&mut self, cache: CacheKey, off: u64) -> chorus_gmi::Result<u64> {
        if self.config.policy.readahead == ReadaheadKind::Fifo {
            return Ok(self.config.pull_cluster_pages);
        }
        let base = self.config.pull_cluster_pages.max(1);
        let cap = self.config.readahead_max_pages.max(base);
        let (window, next) = {
            let d = self.cache(cache)?;
            (d.ra_window, d.ra_next)
        };
        let dec = crate::policy::doubling_window(&crate::policy::RaInput {
            offset: off,
            base,
            cap,
            window,
            next,
        });
        if dec.hit {
            self.stats.bump(Counter::ReadaheadHits);
            self.dim_cache(cache, crate::telemetry::DimCounter::ReadaheadHits, 1);
        }
        if dec.ramped {
            self.stats.bump(Counter::ReadaheadRamps);
        }
        Ok(dec.pages)
    }

    /// True if the fragment policy of `cache` at `off` is
    /// copy-on-reference (materialize a private page on first access).
    pub fn is_cor_at(&self, cache: CacheKey, off: u64) -> bool {
        self.caches
            .get(cache)
            .and_then(|c| c.parent_at(off))
            .map(|f| f.cor)
            .unwrap_or(false)
    }
}
