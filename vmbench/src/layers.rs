//! Timing decorators at the paper's layer boundaries.
//!
//! They wrap the repository's own traits from outside the program and
//! only add spans: every call is forwarded unchanged (default trait
//! methods included, so an implementation's override is never
//! bypassed). The determinism self-check proves it by comparing the
//! traced run's counters with the untraced run's.
//!
//! - [`Timed`] implements `Gmi`, so `Nucleus<Timed<Arc<Pvm>>>` and
//!   `ProcessManager<Timed<Arc<Pvm>>>` time every Nucleus→PVM call;
//! - [`TimedUpcalls`] wraps the PVM's `SegmentManagerV2` and hands the
//!   segment manager a `Timed` `CacheIo`, timing the `fill_up`/
//!   `copy_back` callbacks into the PVM under each upcall;
//! - [`TimedMapper`] wraps each mapper registered with the Nucleus
//!   segment manager.

use crate::trace::{self, span, span_r, Sp};
use chorus_gmi::{
    Access, CacheId, CacheIo, CopyMode, CtxId, Gmi, PageGeometry, Prot, PullRequest, PushRequest,
    RegionId, RegionStatus, Result, SegmentId, SegmentManagerV2, VirtAddr,
};
use chorus_nucleus::{Capability, Mapper};
use std::ops::Deref;
use std::sync::Arc;

/// A `Gmi`/`CacheIo` decorator timing every call into what `P` points
/// at: `Timed<Arc<Pvm>>` is the Nucleus's memory manager,
/// `Timed<&dyn CacheIo>` the callback interface a timed upcall hands
/// the segment manager.
pub struct Timed<P> {
    inner: P,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Timed<P> {
        Timed { inner }
    }
}

impl<P> CacheIo for Timed<P>
where
    P: Deref + Send + Sync,
    P::Target: CacheIo,
{
    fn fill_up(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        span_r(Sp::IoFillUp, || self.inner.fill_up(cache, offset, data))
    }

    fn copy_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        span_r(Sp::IoCopyBack, || self.inner.copy_back(cache, offset, buf))
    }

    fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        span_r(Sp::IoMoveBack, || self.inner.move_back(cache, offset, buf))
    }

    fn copy_back_run(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<u64> {
        span_r(Sp::IoCopyBackRun, || {
            self.inner.copy_back_run(cache, offset, buf)
        })
    }
}

impl<P> Gmi for Timed<P>
where
    P: Deref + Send + Sync,
    P::Target: Gmi,
{
    fn cache_create(&self, segment: Option<SegmentId>) -> Result<CacheId> {
        span_r(Sp::GmiCacheCreate, || self.inner.cache_create(segment))
    }

    fn cache_destroy(&self, cache: CacheId) -> Result<()> {
        span_r(Sp::GmiCacheDestroy, || self.inner.cache_destroy(cache))
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
        span_r(Sp::GmiCacheCopy, || {
            self.inner
                .cache_copy_with(src, src_offset, dst, dst_offset, size, mode)
        })
    }

    fn cache_copy(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
    ) -> Result<()> {
        span_r(Sp::GmiCacheCopy, || {
            self.inner
                .cache_copy(src, src_offset, dst, dst_offset, size)
        })
    }

    fn cache_read(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        span_r(Sp::GmiCacheRead, || {
            self.inner.cache_read(cache, offset, buf)
        })
    }

    fn cache_write(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        span_r(Sp::GmiCacheWrite, || {
            self.inner.cache_write(cache, offset, data)
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
        span_r(Sp::GmiCacheMove, || {
            self.inner
                .cache_move(src, src_offset, dst, dst_offset, size)
        })
    }

    fn context_create(&self) -> Result<CtxId> {
        span_r(Sp::GmiContextCreate, || self.inner.context_create())
    }

    fn context_destroy(&self, ctx: CtxId) -> Result<()> {
        span_r(Sp::GmiContextDestroy, || self.inner.context_destroy(ctx))
    }

    fn context_switch(&self, ctx: CtxId) -> Result<()> {
        span_r(Sp::GmiContextSwitch, || self.inner.context_switch(ctx))
    }

    fn region_list(&self, ctx: CtxId) -> Result<Vec<(RegionId, RegionStatus)>> {
        span_r(Sp::GmiRegionList, || self.inner.region_list(ctx))
    }

    fn find_region(&self, ctx: CtxId, va: VirtAddr) -> Result<RegionId> {
        span_r(Sp::GmiFindRegion, || self.inner.find_region(ctx, va))
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
        span_r(Sp::GmiRegionCreate, || {
            self.inner
                .region_create(ctx, addr, size, prot, cache, offset)
        })
    }

    fn region_split(&self, region: RegionId, offset: u64) -> Result<RegionId> {
        span_r(Sp::GmiRegionSplit, || {
            self.inner.region_split(region, offset)
        })
    }

    fn region_set_protection(&self, region: RegionId, prot: Prot) -> Result<()> {
        span_r(Sp::GmiRegionSetProtection, || {
            self.inner.region_set_protection(region, prot)
        })
    }

    fn region_lock_in_memory(&self, region: RegionId) -> Result<()> {
        span_r(Sp::GmiRegionLock, || {
            self.inner.region_lock_in_memory(region)
        })
    }

    fn region_unlock(&self, region: RegionId) -> Result<()> {
        span_r(Sp::GmiRegionUnlock, || self.inner.region_unlock(region))
    }

    fn region_status(&self, region: RegionId) -> Result<RegionStatus> {
        span_r(Sp::GmiRegionStatus, || self.inner.region_status(region))
    }

    fn region_destroy(&self, region: RegionId) -> Result<()> {
        span_r(Sp::GmiRegionDestroy, || self.inner.region_destroy(region))
    }

    fn cache_flush(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        span_r(Sp::GmiCacheFlush, || {
            self.inner.cache_flush(cache, offset, size)
        })
    }

    fn cache_sync(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        span_r(Sp::GmiCacheSync, || {
            self.inner.cache_sync(cache, offset, size)
        })
    }

    fn cache_invalidate(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        span_r(Sp::GmiCacheInvalidate, || {
            self.inner.cache_invalidate(cache, offset, size)
        })
    }

    fn cache_set_protection(
        &self,
        cache: CacheId,
        offset: u64,
        size: u64,
        prot: Prot,
    ) -> Result<()> {
        span_r(Sp::GmiCacheSetProtection, || {
            self.inner.cache_set_protection(cache, offset, size, prot)
        })
    }

    fn cache_lock_in_memory(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        span_r(Sp::GmiCacheLock, || {
            self.inner.cache_lock_in_memory(cache, offset, size)
        })
    }

    fn cache_unlock(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        span_r(Sp::GmiCacheUnlock, || {
            self.inner.cache_unlock(cache, offset, size)
        })
    }

    fn handle_fault(&self, ctx: CtxId, va: VirtAddr, access: Access) -> Result<()> {
        span_r(Sp::GmiHandleFault, || {
            self.inner.handle_fault(ctx, va, access)
        })
    }

    fn vm_read(&self, ctx: CtxId, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        span_r(Sp::GmiVmRead, || self.inner.vm_read(ctx, va, buf))
    }

    fn vm_write(&self, ctx: CtxId, va: VirtAddr, buf: &[u8]) -> Result<()> {
        span_r(Sp::GmiVmWrite, || self.inner.vm_write(ctx, va, buf))
    }

    fn geometry(&self) -> PageGeometry {
        span(Sp::GmiGeometry, || self.inner.geometry())
    }

    fn cache_resident_pages(&self, cache: CacheId) -> Result<u64> {
        span_r(Sp::GmiResidentPages, || {
            self.inner.cache_resident_pages(cache)
        })
    }
}

/// A `SegmentManagerV2` decorator timing every upcall.
pub struct TimedUpcalls {
    inner: Arc<dyn SegmentManagerV2>,
}

impl TimedUpcalls {
    pub fn new(inner: Arc<dyn SegmentManagerV2>) -> TimedUpcalls {
        TimedUpcalls { inner }
    }
}

impl SegmentManagerV2 for TimedUpcalls {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> Result<()> {
        span_r(Sp::UpPull, || self.inner.submit_pull(&Timed::new(io), req))
    }

    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> Result<()> {
        span_r(Sp::UpPush, || self.inner.submit_push(&Timed::new(io), req))
    }

    fn acquire_write_access(&self, segment: SegmentId, offset: u64, size: u64) -> Result<()> {
        span_r(Sp::UpWriteAccess, || {
            self.inner.acquire_write_access(segment, offset, size)
        })
    }

    fn create_segment_v2(&self, cache: CacheId) -> SegmentId {
        span(Sp::UpCreateSegment, || self.inner.create_segment_v2(cache))
    }

    fn segment_len(&self, segment: SegmentId) -> Option<u64> {
        span(Sp::UpSegmentLen, || self.inner.segment_len(segment))
    }

    fn advise_victims(&self, candidates: &[(CacheId, u64)]) -> Vec<bool> {
        span(Sp::UpAdviseVictims, || {
            self.inner.advise_victims(candidates)
        })
    }
}

/// A `Mapper` decorator timing every request and counting its bytes.
pub struct TimedMapper {
    inner: Arc<dyn Mapper>,
}

impl TimedMapper {
    pub fn new(inner: Arc<dyn Mapper>) -> TimedMapper {
        TimedMapper { inner }
    }
}

impl Mapper for TimedMapper {
    fn read(&self, cap: Capability, offset: u64, size: u64) -> Result<Vec<u8>> {
        let out = span_r(Sp::MapRead, || self.inner.read(cap, offset, size));
        if let Ok(data) = &out {
            trace::mapper_bytes(data.len() as u64, 0);
        }
        out
    }

    fn write(&self, cap: Capability, offset: u64, data: &[u8]) -> Result<()> {
        let out = span_r(Sp::MapWrite, || self.inner.write(cap, offset, data));
        if out.is_ok() {
            trace::mapper_bytes(0, data.len() as u64);
        }
        out
    }

    fn get_write_access(&self, cap: Capability, offset: u64, size: u64) -> Result<()> {
        span_r(Sp::MapWriteAccess, || {
            self.inner.get_write_access(cap, offset, size)
        })
    }

    fn size(&self, cap: Capability) -> Option<u64> {
        span(Sp::MapSize, || self.inner.size(cap))
    }

    fn allocate_temporary(&self) -> Result<Capability> {
        span_r(Sp::MapAllocTemporary, || self.inner.allocate_temporary())
    }
}
