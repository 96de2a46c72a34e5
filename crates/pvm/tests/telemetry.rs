//! Dimensional-telemetry consistency: the gauges must equal the ground
//! truth the HAL and the completion engine report, the per-entity
//! counters must sum to the global cells they shadow, and the knob must
//! be free when off — same simulated clock, same stats, bit for bit.

mod common;

use chorus_gmi::{Gmi, Prot, VirtAddr};
use chorus_hal::CostParams;
use chorus_pvm::telemetry::Dim;
use chorus_pvm::{Pvm, PvmConfig};
use common::{pattern, read, setup_with, write, PS};
use std::sync::Arc;

/// A PVM with the telemetry knob and a real (Sun-3) cost model so the
/// sim-time sampler has a clock to ride.
fn telemetry_pvm(frames: u32, on: bool) -> Arc<Pvm> {
    let (pvm, _mgr) = setup_with(frames, |o| {
        o.cost = CostParams::sun3();
        o.config = PvmConfig::builder()
            .paging(|p| p.check_invariants(true))
            .telemetry(|t| t.telemetry(on).telemetry_sample_ns(100_000))
            .build()
            .expect("valid config");
    });
    pvm
}

/// Touch `pages` pages of a fresh anonymous region; returns the ids.
fn touch_region(pvm: &Pvm, base: u64, pages: u64) -> (chorus_gmi::CtxId, chorus_gmi::CacheId) {
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(base), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    for p in 0..pages {
        write(pvm, ctx, base + p * PS, &pattern(p as u8, 16));
    }
    (ctx, cache)
}

#[test]
fn free_frame_gauge_matches_hal_mem_stats() {
    let frames = 16u32;
    let pvm = telemetry_pvm(frames, true);
    touch_region(&pvm, 0x1_0000, 6);
    let sample = pvm.sample_now();
    let mem = pvm.mem_stats();
    assert_eq!(
        u64::from(sample.free_frames),
        u64::from(frames) - mem.in_use,
        "free-frame gauge vs hal MemStats"
    );
    assert_eq!(sample.free_frames, pvm.free_frames());
    // The buddy occupancy vector is the same pool viewed by order.
    let from_orders: u32 = sample
        .free_blocks_per_order
        .iter()
        .enumerate()
        .map(|(k, &n)| n << k)
        .sum();
    assert_eq!(from_orders, sample.free_frames);
}

#[test]
fn per_entity_fault_counters_sum_to_global() {
    let pvm = telemetry_pvm(64, true);
    let (_ctx_a, _cache_a) = touch_region(&pvm, 0x1_0000, 12);
    let (_ctx_b, _cache_b) = touch_region(&pvm, 0x80_0000, 3);
    let stats = pvm.stats();
    let telemetry = pvm.telemetry();
    // `PvmStats::faults` folds fast-path hits in; the dimensional rows
    // attribute slow-path faults only.
    let slow = stats.faults - stats.fast_path_hits;
    let by_cache: u64 = telemetry
        .table(Dim::Cache)
        .iter()
        .map(|(_, c)| c[chorus_pvm::DimCounter::Faults as usize])
        .sum();
    let by_ctx: u64 = telemetry
        .table(Dim::Context)
        .iter()
        .map(|(_, c)| c[chorus_pvm::DimCounter::Faults as usize])
        .sum();
    assert_eq!(by_ctx, slow, "context-dimension faults vs global");
    assert_eq!(
        by_cache, slow,
        "cache-dimension faults vs global (all resolved)"
    );
    // Fast-path hits live in the context dimension only.
    let fast_by_ctx: u64 = telemetry
        .table(Dim::Context)
        .iter()
        .map(|(_, c)| c[chorus_pvm::DimCounter::FastPathHits as usize])
        .sum();
    assert_eq!(fast_by_ctx, stats.fast_path_hits);
}

#[test]
fn inflight_gauge_matches_completion_table() {
    use chorus_gmi::testing::{MemSegmentManager, MemSegmentManagerV2};
    use chorus_hal::PageGeometry;
    use chorus_pvm::{MmuChoice, PvmOptions};
    // Async upcalls ride the completion engine only on the native-async
    // (v2) path, so this fixture bypasses the shim-mode common helper.
    let mgr = Arc::new(MemSegmentManager::new());
    let options = PvmOptions {
        geometry: PageGeometry::new(PS),
        frames: 8,
        cost: CostParams::sun3(),
        mmu: MmuChoice::Soft,
        config: PvmConfig::builder()
            .paging(|p| p.check_invariants(true).pull_cluster_pages(4))
            .telemetry(|t| t.telemetry(true))
            .r#async(|a| a.async_upcalls(true).max_inflight_upcalls(2))
            .build()
            .expect("valid config"),
    };
    let pvm = Arc::new(Pvm::new(
        options,
        Arc::new(MemSegmentManagerV2::new(mgr.clone())),
    ));
    let pages = 24u64;
    let content = pattern(7, (pages * PS) as usize);
    let seg = mgr.create_segment(&content);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    // Sweep under pressure: pulls and laundering pushes ride the
    // engine. With no watchdog cancels, the in-flight gauge must equal
    // submits minus deliveries at every client-visible instant.
    for p in 0..pages {
        let _ = read(&pvm, ctx, p * PS, 16);
        let s = pvm.stats();
        assert_eq!(
            pvm.sample_now().inflight_upcalls,
            s.async_submits - s.async_deliveries,
            "in-flight gauge vs completion-table population at page {p}"
        );
    }
    pvm.drain_upcalls();
    let s = pvm.stats();
    assert!(s.async_submits > 0, "engine never engaged");
    assert_eq!(s.async_submits, s.async_deliveries, "drained");
    assert_eq!(pvm.sample_now().inflight_upcalls, 0);
}

#[test]
fn sampler_rides_the_simulated_clock() {
    let pvm = telemetry_pvm(64, true);
    touch_region(&pvm, 0x1_0000, 24);
    let series = pvm.telemetry_series();
    assert!(!series.is_empty(), "sampler never fired");
    assert_eq!(series.len() as u64, pvm.stats().telemetry_samples);
    for w in series.windows(2) {
        assert!(
            w[0].sim_ns < w[1].sim_ns,
            "series must be strictly increasing"
        );
    }
}

#[test]
fn knob_off_is_free_and_bit_identical() {
    let run = |on: bool| {
        let pvm = telemetry_pvm(32, on);
        touch_region(&pvm, 0x1_0000, 16);
        let (_, cache_b) = touch_region(&pvm, 0x80_0000, 4);
        pvm.cache_destroy(cache_b).ok();
        (pvm.cost_model().now().nanos(), pvm.stats(), pvm.clone())
    };
    let (off_ns, off_stats, off_pvm) = run(false);
    let (on_ns, on_stats, _on_pvm) = run(true);
    assert_eq!(off_ns, on_ns, "telemetry must never advance the sim clock");
    assert_eq!(off_stats.faults, on_stats.faults);
    assert_eq!(off_stats.pull_ins, on_stats.pull_ins);
    assert_eq!(off_stats.push_outs, on_stats.push_outs);
    assert_eq!(off_stats.evictions, on_stats.evictions);
    assert_eq!(off_stats.zero_fills, on_stats.zero_fills);
    // Off: no rows, no samples.
    assert_eq!(off_stats.telemetry_samples, 0);
    assert!(off_pvm.telemetry_series().is_empty());
    for &d in Dim::ALL {
        assert!(
            off_pvm.telemetry().table(d).is_empty(),
            "{d:?} rows with knob off"
        );
    }
}

#[test]
fn pvmtop_ranks_the_hot_cache_first() {
    let pvm = telemetry_pvm(64, true);
    let (_, hot) = touch_region(&pvm, 0x1_0000, 14);
    let (_, cold) = touch_region(&pvm, 0x80_0000, 2);
    let top = pvm.top();
    let hottest = top.hottest_cache().expect("caches exist");
    assert_eq!(hottest.cache, hot, "hottest cache must rank first");
    assert!(hottest.faults > 0 && hottest.resident_pages > 0);
    let cold_row = top.caches.iter().find(|c| c.cache == cold).unwrap();
    assert!(hottest.faults > cold_row.faults);
    assert!(hottest.dirty_pages >= cold_row.dirty_pages);
    // Anonymous caches have no segment yet, so no mapper rows; the
    // phase table is present (empty without tracing) and the gauge
    // sample is coherent.
    assert_eq!(top.sample.sim_ns, top.sim_ns);
}

#[test]
fn reset_clears_dimensions_and_series() {
    let pvm = telemetry_pvm(32, true);
    touch_region(&pvm, 0x1_0000, 8);
    assert!(!pvm.telemetry().table(Dim::Cache).is_empty());
    pvm.reset_stats();
    assert_eq!(pvm.stats().faults, 0);
    assert_eq!(pvm.stats().telemetry_samples, 0);
    assert!(pvm.telemetry_series().is_empty());
    for &d in Dim::ALL {
        assert!(
            pvm.telemetry().table(d).is_empty(),
            "{d:?} rows after reset"
        );
    }
    // The sampler re-arms from zero: more work records fresh samples.
    touch_region(&pvm, 0x100_0000, 8);
    assert!(pvm.stats().telemetry_samples > 0);
}
