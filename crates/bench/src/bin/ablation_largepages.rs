//! Ablation: large pages over the buddy frame allocator (DESIGN.md §12)
//! under a dense sequential scan.
//!
//! A segment-backed region is read page by page, twice, with the frame
//! pool large enough to hold the whole working set. Pull windows are
//! sized to one large page (256 base pages) in both configurations, so
//! the mapper I/O is identical and the difference is pure mapping
//! mechanics:
//!
//! * knobs off, every page still takes one translation fault to get its
//!   own base mapping (`faults` ≈ working-set pages);
//! * knobs on, each aligned pull window lands in one contiguous
//!   pre-zeroed buddy run, the first fault of the run installs a large
//!   mapping on top, and the remaining 255 pages of the run — and the
//!   entire second scan — translate through it without faulting
//!   (`faults` ≈ windows), saving the per-fault entry and per-page map
//!   costs.
//!
//! The binary asserts the headline result (≥5x fewer faults and a
//! simulated-time win with large pages on) and re-runs one
//! configuration to assert bit-identical clocks and counters.
//!
//! Usage: `cargo run --release -p chorus-bench --bin ablation_largepages [--json] [--quick]`

use chorus_bench::{assert_deterministic, bench_args, json, PAGE};
use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{Gmi, Prot, SyncShim, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, TraceConfig};
use std::sync::Arc;

/// Base pages per large page (2 MiB at the Sun-3/60's 8 KiB pages).
const FACTOR: u64 = 256;

struct Shape {
    /// Working set in pages (a multiple of FACTOR; fits in the pool).
    ws_pages: u64,
    /// Sequential read scans (first faults everything in, second runs
    /// entirely from the installed mappings).
    scans: u64,
}

const FULL: Shape = Shape {
    ws_pages: 8192,
    scans: 2,
};
const QUICK: Shape = Shape {
    ws_pages: 2048,
    scans: 2,
};

struct Row {
    large_pages: bool,
    faults: u64,
    pull_upcalls: u64,
    promotions: u64,
    demotions: u64,
    run_reserves: u64,
    run_fallbacks: u64,
    large_tlb_hits: u64,
    large_tlb_misses: u64,
    sim_ms: f64,
}

fn run_config(shape: &Shape, large_pages: bool) -> Row {
    let mgr = Arc::new(MemSegmentManager::new());
    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 251) as u8)
        .collect();
    let seg = mgr.create_segment(&content);
    let frames = (shape.ws_pages + 512) as u32;
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames,
            cost: CostParams::sun3(),
            config: PvmConfig::builder()
                // Identical mapper I/O in both rows: one pull request
                // per large-page-sized window.
                .paging(|p| {
                    p.check_invariants(false)
                        .pull_cluster_pages(FACTOR)
                        .readahead_max_pages(FACTOR)
                })
                .large_pages(|l| l.large_pages(large_pages).promote_threshold_pages(FACTOR))
                .telemetry(|t| t.trace(TraceConfig::from_env()))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        SyncShim::wrap(mgr.clone()),
    );
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), shape.ws_pages * PAGE, Prot::RW, cache, 0)
        .unwrap();
    // Make the scanning context current so the per-size TLBs are live.
    pvm.context_switch(ctx).unwrap();
    let model = pvm.cost_model();
    let t0 = model.now();
    let mut buf = [0u8; 16];
    for _ in 0..shape.scans {
        for p in 0..shape.ws_pages {
            pvm.vm_read(ctx, VirtAddr(p * PAGE), &mut buf).unwrap();
            assert_eq!(buf[0], ((p * PAGE) % 251) as u8, "scan read wrong bytes");
        }
    }
    let sim_ms = model.now().since(t0).millis();
    let stats = pvm.stats();
    let tlb = pvm.large_tlb_stats();
    Row {
        large_pages,
        faults: stats.faults,
        pull_upcalls: stats.pull_ins,
        promotions: stats.large_promotions,
        demotions: stats.large_demotions,
        run_reserves: stats.large_run_reserves,
        run_fallbacks: stats.large_run_fallbacks,
        large_tlb_hits: tlb.as_ref().map_or(0, |t| t.hits),
        large_tlb_misses: tlb.as_ref().map_or(0, |t| t.misses),
        sim_ms,
    }
}

fn main() {
    let args = bench_args();
    let (emit_json, quick) = (args.json, args.quick);
    let shape = args.shape(&FULL, &QUICK);

    // Same seedless deterministic workload twice: the simulated clock
    // and every counter must agree bit for bit.
    assert_deterministic("large-page pipeline", || {
        let r = run_config(shape, true);
        (
            r.sim_ms.to_bits(),
            r.faults,
            r.promotions,
            r.run_reserves,
            r.large_tlb_hits,
        )
    });

    let off = run_config(shape, false);
    let on = run_config(shape, true);

    // The headline claims, asserted so regressions fail loudly.
    assert!(
        off.faults as f64 >= 5.0 * on.faults.max(1) as f64,
        "large pages must cut faults at least 5x on a dense scan: {} -> {}",
        off.faults,
        on.faults
    );
    assert!(
        on.sim_ms < off.sim_ms,
        "large pages must win simulated time on a dense scan: {} ms -> {} ms",
        off.sim_ms,
        on.sim_ms
    );
    assert_eq!(
        off.promotions + off.run_reserves,
        0,
        "knobs off must leave the large-page machinery untouched"
    );

    if emit_json {
        let rows = [&off, &on];
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .bool("large_pages", r.large_pages)
                .int("faults", r.faults)
                .int("pull_upcalls", r.pull_upcalls)
                .int("promotions", r.promotions)
                .int("demotions", r.demotions)
                .int("run_reserves", r.run_reserves)
                .int("run_fallbacks", r.run_fallbacks)
                .int("large_tlb_hits", r.large_tlb_hits)
                .int("large_tlb_misses", r.large_tlb_misses)
                .num("sim_ms", r.sim_ms)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("ablation_largepages")
                .int("ws_pages", shape.ws_pages)
                .int("scans", shape.scans)
                .int("factor", FACTOR)
                .bool("quick", quick)
                .num(
                    "fault_reduction",
                    off.faults as f64 / on.faults.max(1) as f64
                )
                .num("sim_speedup", off.sim_ms / on.sim_ms)
                .raw("rows", &json::array(encoded))
                .build()
        );
        return;
    }

    println!(
        "Large-page ablation: {} sequential read scans of a {}-page working set\n\
         ({} base pages per large page, pull windows of one large page in both rows)\n",
        shape.scans, shape.ws_pages, FACTOR
    );
    println!(
        "  large | faults | pulls | promo | demo | reserves | fallbacks | lTLB hit/miss | sim ms"
    );
    for r in [&off, &on] {
        println!(
            "  {:<5} | {:>6} | {:>5} | {:>5} | {:>4} | {:>8} | {:>9} | {:>6}/{:<6} | {:>9.1}",
            if r.large_pages { "on" } else { "off" },
            r.faults,
            r.pull_upcalls,
            r.promotions,
            r.demotions,
            r.run_reserves,
            r.run_fallbacks,
            r.large_tlb_hits,
            r.large_tlb_misses,
            r.sim_ms,
        );
    }
    println!(
        "\n  large pages on: {:.1}x fewer faults, {:.2}x sim-time speedup\n\
         \u{20} ({} contiguous runs reserved, {} promotions, {} buddy fallbacks)",
        off.faults as f64 / on.faults.max(1) as f64,
        off.sim_ms / on.sim_ms,
        on.run_reserves,
        on.promotions,
        on.run_fallbacks,
    );
}
