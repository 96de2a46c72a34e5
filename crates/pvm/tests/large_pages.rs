//! Large-page promotion and demotion: a fully-resident aligned run gets
//! one large mapping; any slot change, reprotect, cleaning pass or unmap
//! inside the run demotes it; everything stays off (and bit-identical)
//! with the knobs off.

mod common;

use chorus_gmi::{Gmi, Prot, VirtAddr};
use chorus_pvm::Counter;
use common::*;
use std::sync::Arc;

/// Base pages per large page in these tests (kept tiny so a run is
/// cheap to fill).
const FACTOR: u64 = 4;
const LARGE: u64 = FACTOR * PS;

fn setup_large(
    frames: u32,
) -> (
    Arc<chorus_pvm::Pvm>,
    Arc<chorus_gmi::testing::MemSegmentManager>,
) {
    setup_with(frames, |o| {
        o.config.large_pages = true;
        o.config.promote_threshold_pages = FACTOR;
    })
}

#[test]
fn dense_writes_promote_an_aligned_run() {
    let (pvm, _mgr) = setup_large(64);
    let (ctx, _region, _cache) = anon_region(&pvm, 2 * FACTOR);
    for p in 0..2 * FACTOR {
        write(&pvm, ctx, 0x1_0000 + p * PS, &pattern(p as u8, PS as usize));
    }
    let stats = pvm.stats();
    assert!(
        stats.get(Counter::LargePromotions) >= 2,
        "two aligned fully-written runs should both promote, got {}",
        stats.get(Counter::LargePromotions)
    );
    assert!(pvm.large_mapping_count() >= 2);
    // Data still reads back correctly through the promoted mappings.
    for p in 0..2 * FACTOR {
        assert_eq!(
            read(&pvm, ctx, 0x1_0000 + p * PS, PS as usize),
            pattern(p as u8, PS as usize)
        );
    }
    pvm.check_invariants();
}

#[test]
fn cache_sync_demotes_via_cleaning() {
    let (pvm, _mgr) = setup_large(64);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(0x1_0000), LARGE, Prot::RW, cache, 0)
        .unwrap();
    for p in 0..FACTOR {
        write(&pvm, ctx, 0x1_0000 + p * PS, &pattern(7, PS as usize));
    }
    assert_eq!(pvm.large_mapping_count(), 1);
    // Cleaning write-protects the run's pages, which must drop the
    // (writable) large mapping first.
    pvm.cache_sync(cache, 0, LARGE).unwrap();
    assert_eq!(pvm.large_mapping_count(), 0);
    assert!(pvm.stats().get(Counter::LargeDemotions) >= 1);
    // The run re-promotes on the next dense write pass.
    for p in 0..FACTOR {
        write(&pvm, ctx, 0x1_0000 + p * PS, &pattern(9, PS as usize));
    }
    assert_eq!(pvm.large_mapping_count(), 1);
    pvm.check_invariants();
}

#[test]
fn region_destroy_demotes_and_context_destroy_drops_records() {
    let (pvm, _mgr) = setup_large(64);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let region = pvm
        .region_create(ctx, VirtAddr(0x1_0000), LARGE, Prot::RW, cache, 0)
        .unwrap();
    for p in 0..FACTOR {
        write(&pvm, ctx, 0x1_0000 + p * PS, &pattern(3, PS as usize));
    }
    assert_eq!(pvm.large_mapping_count(), 1);
    pvm.region_destroy(region).unwrap();
    assert_eq!(pvm.large_mapping_count(), 0);

    // Promote again in a second region, then kill the whole context.
    pvm.region_create(ctx, VirtAddr(0x4_0000), LARGE, Prot::RW, cache, 0)
        .unwrap();
    for p in 0..FACTOR {
        write(&pvm, ctx, 0x4_0000 + p * PS, &pattern(4, PS as usize));
    }
    assert_eq!(pvm.large_mapping_count(), 1);
    pvm.context_destroy(ctx).unwrap();
    assert_eq!(pvm.large_mapping_count(), 0);
    pvm.check_invariants();
}

#[test]
fn set_protection_demotes_promoted_run() {
    let (pvm, _mgr) = setup_large(64);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(0x1_0000), LARGE, Prot::RW, cache, 0)
        .unwrap();
    for p in 0..FACTOR {
        write(&pvm, ctx, 0x1_0000 + p * PS, &pattern(5, PS as usize));
    }
    assert_eq!(pvm.large_mapping_count(), 1);
    pvm.cache_set_protection(cache, 0, LARGE, Prot::READ)
        .unwrap();
    assert_eq!(
        pvm.large_mapping_count(),
        0,
        "protection revocation must demote the covering large mapping"
    );
    // Reads still work; the write right is really gone.
    let _ = read(&pvm, ctx, 0x1_0000, PS as usize);
    assert!(pvm
        .vm_write(ctx, VirtAddr(0x1_0000), &pattern(6, PS as usize))
        .is_err());
    pvm.check_invariants();
}

#[test]
fn eviction_under_pressure_demotes_cleanly() {
    // Pool far smaller than the working set: promoted runs are torn
    // apart by the clock as new faults arrive.
    let (pvm, _mgr) = setup_large(12);
    let (ctx, _region, _cache) = anon_region(&pvm, 8 * FACTOR);
    for p in 0..8 * FACTOR {
        write(&pvm, ctx, 0x1_0000 + p * PS, &pattern(p as u8, PS as usize));
    }
    for p in 0..8 * FACTOR {
        assert_eq!(
            read(&pvm, ctx, 0x1_0000 + p * PS, PS as usize),
            pattern(p as u8, PS as usize),
            "page {p} lost bytes across eviction of promoted runs"
        );
    }
    pvm.check_invariants();
}

#[test]
fn knobs_off_never_promotes() {
    let (pvm, _mgr) = setup(64);
    let (ctx, _region, _cache) = anon_region(&pvm, 2 * FACTOR);
    for p in 0..2 * FACTOR {
        write(&pvm, ctx, 0x1_0000 + p * PS, &pattern(p as u8, PS as usize));
    }
    assert_eq!(pvm.large_mapping_count(), 0);
    assert_eq!(pvm.stats().get(Counter::LargePromotions), 0);
    assert_eq!(pvm.stats().get(Counter::LargeRunReserves), 0);
    pvm.check_invariants();
}

#[test]
fn misaligned_region_never_promotes() {
    let (pvm, _mgr) = setup_large(64);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    // Region starts mid-large-page in the cache's offset space.
    pvm.region_create(ctx, VirtAddr(0x1_0000), 2 * LARGE, Prot::RW, cache, PS)
        .unwrap();
    for p in 0..2 * FACTOR {
        write(&pvm, ctx, 0x1_0000 + p * PS, &pattern(p as u8, PS as usize));
    }
    assert_eq!(
        pvm.stats().get(Counter::LargePromotions),
        0,
        "offset-misaligned backing must never promote"
    );
    pvm.check_invariants();
}

#[test]
fn pull_from_segment_reserves_contiguous_run_and_promotes() {
    let (pvm, mgr) = setup_with(64, |o| {
        o.config.large_pages = true;
        o.config.promote_threshold_pages = FACTOR;
        // Pull windows sized exactly to the large factor so the
        // reservation path (not just lucky contiguity) is exercised.
        o.config.pull_cluster_pages = FACTOR;
    });
    let mut data = Vec::with_capacity((2 * LARGE) as usize);
    for p in 0..2 * FACTOR {
        data.extend_from_slice(&pattern(p as u8, PS as usize));
    }
    let seg = mgr.create_segment(&data);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0x1_0000), 2 * LARGE, Prot::RW, cache, 0)
        .unwrap();
    for p in 0..2 * FACTOR {
        assert_eq!(
            read(&pvm, ctx, 0x1_0000 + p * PS, PS as usize),
            pattern(p as u8, PS as usize)
        );
    }
    let stats = pvm.stats();
    assert!(
        stats.get(Counter::LargeRunReserves) >= 1,
        "aligned full-window pulls should reserve contiguous runs"
    );
    assert!(
        stats.get(Counter::LargePromotions) >= 1,
        "pulled runs should promote (read-only large mapping)"
    );
    pvm.check_invariants();
}
