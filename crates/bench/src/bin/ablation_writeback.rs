//! Ablation: clustered asynchronous writeback — the pageout pipeline
//! (DESIGN.md §9) under a dirty-scan workload.
//!
//! A working set of dirty pages larger than the frame pool is rewritten
//! in repeated sequential scans, so page replacement runs continuously
//! and every victim is dirty. The grid varies the `pushOut` cluster
//! size and toggles the watermark-driven writeback daemon:
//!
//! * clustering amortizes the fixed per-request mapper overhead over a
//!   run of contiguous dirty pages (`pushout_upcalls` drops while
//!   `pages_cleaned` stays constant);
//! * the daemon launders dirty pages ahead of demand, so faulting
//!   threads stop paying synchronous `pushOut` latency (the
//!   `fault.evictStall` histogram empties out).
//!
//! Tracing is on explicitly (the stall histogram needs it); the
//! determinism rule says tracing never advances the simulated clock,
//! and a built-in self-check re-runs one configuration and asserts
//! byte-identical clocks and counters.
//!
//! Usage: `cargo run --release -p chorus-bench --bin ablation_writeback [--json] [--quick]`

use chorus_bench::{assert_deterministic, bench_args, json, PAGE};
use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{Gmi, Prot, SyncShim, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::trace::Phase;
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, TraceConfig};
use std::sync::Arc;

const FRAMES: u32 = 64;
const LOW: u32 = 16;
const HIGH: u32 = 32;
const CLUSTERS: [u64; 3] = [1, 4, 8];

struct Shape {
    /// Dirty working set in pages (> FRAMES, so replacement never stops).
    ws_pages: u64,
    /// Full sequential rewrite passes over the working set.
    scans: u64,
}

const FULL: Shape = Shape {
    ws_pages: 192,
    scans: 4,
};
const QUICK: Shape = Shape {
    ws_pages: 96,
    scans: 2,
};

struct Row {
    cluster: u64,
    daemon: bool,
    /// Successful `pushOut` mapper requests (batched or single).
    pushout_upcalls: u64,
    /// Dirty pages written back (each counts once per clean).
    pages_cleaned: u64,
    launder_passes: u64,
    /// Demand faults that stalled on a synchronous dirty eviction.
    evict_stalls: u64,
    evict_stall_p99_ns: u64,
    sim_ms: f64,
    faults: u64,
}

fn run_config(shape: &Shape, cluster: u64, daemon: bool) -> Row {
    let mgr = Arc::new(MemSegmentManager::new());
    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 239) as u8)
        .collect();
    let seg = mgr.create_segment(&content);
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: FRAMES,
            cost: CostParams::sun3(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(false).push_cluster_pages(cluster))
                .pressure(|pr| {
                    pr.writeback_low_frames(if daemon { LOW } else { 0 })
                        .writeback_high_frames(if daemon { HIGH } else { 0 })
                })
                .telemetry(|t| {
                    t.trace(TraceConfig {
                        enabled: true,
                        ..TraceConfig::default()
                    })
                })
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
    let model = pvm.cost_model();
    let t0 = model.now();
    for scan in 0..shape.scans {
        for p in 0..shape.ws_pages {
            let tag = [(scan as u8) ^ (p as u8); 16];
            pvm.vm_write(ctx, VirtAddr(p * PAGE), &tag).unwrap();
        }
    }
    let sim_ms = model.now().since(t0).millis();
    let stats = pvm.stats();
    let stall = pvm.tracer().histogram(Phase::EvictStall);
    Row {
        cluster,
        daemon,
        pushout_upcalls: stats.push_out_batches,
        pages_cleaned: stats.push_outs,
        launder_passes: stats.launder_passes,
        evict_stalls: stall.count(),
        evict_stall_p99_ns: stall.percentile(0.99),
        sim_ms,
        faults: stats.faults,
    }
}

fn main() {
    let args = bench_args();
    let (emit_json, quick) = (args.json, args.quick);
    let shape = args.shape(&FULL, &QUICK);

    // The simulated clock and every counter must agree bit for bit
    // across reruns (tracing is on in both).
    assert_deterministic("writeback pipeline", || {
        let r = run_config(shape, 4, true);
        (
            r.sim_ms.to_bits(),
            r.pushout_upcalls,
            r.pages_cleaned,
            r.evict_stalls,
            r.faults,
        )
    });

    let mut rows = Vec::new();
    for &daemon in &[false, true] {
        for &cluster in &CLUSTERS {
            rows.push(run_config(shape, cluster, daemon));
        }
    }

    if emit_json {
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .int("cluster", r.cluster)
                .bool("daemon", r.daemon)
                .int("pushout_upcalls", r.pushout_upcalls)
                .int("pages_cleaned", r.pages_cleaned)
                .int("launder_passes", r.launder_passes)
                .int("evict_stalls", r.evict_stalls)
                .int("evict_stall_p99_ns", r.evict_stall_p99_ns)
                .num("sim_ms", r.sim_ms)
                .int("faults", r.faults)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("ablation_writeback")
                .int("ws_pages", shape.ws_pages)
                .int("scans", shape.scans)
                .int("frames", u64::from(FRAMES))
                .bool("quick", quick)
                .raw("rows", &json::array(encoded))
                .build()
        );
        return;
    }

    println!(
        "Writeback ablation: {} sequential rewrite scans of a {}-page dirty\n\
         working set over {} frames (watermarks low={} high={} when the daemon is on)\n",
        shape.scans, shape.ws_pages, FRAMES, LOW, HIGH
    );
    println!(
        "  cluster | daemon | pushOut upcalls | pages cleaned | launder | evict stalls | stall p99 (ns) | sim ms"
    );
    for r in &rows {
        println!(
            "  {:>7} | {:<6} | {:>15} | {:>13} | {:>7} | {:>12} | {:>14} | {:>10.1}",
            r.cluster,
            if r.daemon { "on" } else { "off" },
            r.pushout_upcalls,
            r.pages_cleaned,
            r.launder_passes,
            r.evict_stalls,
            r.evict_stall_p99_ns,
            r.sim_ms,
        );
    }
    let base = rows
        .iter()
        .find(|r| r.cluster == 1 && !r.daemon)
        .expect("baseline row");
    let best = rows
        .iter()
        .find(|r| r.cluster == 8 && r.daemon)
        .expect("clustered+daemon row");
    println!(
        "\n  cluster=8 + daemon vs cluster=1 sync: {:.1}x fewer pushOut requests,\n\
         \u{20} demand evict stalls {} -> {} (p99 {} ns -> {} ns)",
        base.pushout_upcalls as f64 / best.pushout_upcalls.max(1) as f64,
        base.evict_stalls,
        best.evict_stalls,
        base.evict_stall_p99_ns,
        best.evict_stall_p99_ns,
    );
}
