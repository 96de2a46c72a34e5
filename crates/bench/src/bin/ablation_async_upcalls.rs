//! Ablation: the completion-based asynchronous upcall engine
//! (DESIGN.md §10) against the synchronous upcall baseline.
//!
//! A file-backed working set larger than the frame pool is rewritten in
//! sequential scans with read clustering and the writeback daemon on,
//! so the fault pipeline continuously issues multi-page `pullIn`s and
//! daemon-origin `pushOut`s. The grid toggles `async_upcalls` and
//! varies `max_inflight_upcalls`:
//!
//! * with the engine on, the tail of every clustered pull and every
//!   laundering push becomes a fire-and-collect request whose service
//!   time overlaps subsequent demand work, so both end-to-end simulated
//!   time and the demand-fault latency distribution improve;
//! * a deeper in-flight budget admits more overlap (until the workload
//!   runs out of independent requests), visible in `async_submits`
//!   versus `async_inflight_stalls`.
//!
//! The engine must stay deterministic: a built-in self-check re-runs
//! the async configuration and asserts bit-identical clocks and
//! counters, and the sync row is the knobs-off baseline whose numbers
//! must match the pre-engine code exactly.
//!
//! Usage: `cargo run --release -p chorus-bench --bin ablation_async_upcalls [--json] [--quick]`

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
const PULL_CLUSTER: u64 = 4;
const PUSH_CLUSTER: u64 = 8;
const INFLIGHT: [u64; 3] = [1, 4, 8];

struct Shape {
    /// Working set in pages (> FRAMES, so replacement never stops).
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
    engine: bool,
    max_inflight: u64,
    async_submits: u64,
    async_deliveries: u64,
    async_coalesced: u64,
    async_out_of_order: u64,
    inflight_stalls: u64,
    /// Demand faults stalled on a synchronous dirty eviction.
    evict_stalls: u64,
    fault_p99_ns: u64,
    sim_ms: f64,
    faults: u64,
}

fn run_config(shape: &Shape, engine: bool, max_inflight: u64) -> Row {
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
                .paging(|p| {
                    p.check_invariants(false)
                        .pull_cluster_pages(PULL_CLUSTER)
                        .readahead_max_pages(PULL_CLUSTER.max(8))
                        .push_cluster_pages(PUSH_CLUSTER)
                })
                .r#async(|a| a.async_upcalls(engine).max_inflight_upcalls(max_inflight))
                .pressure(|pr| pr.writeback_low_frames(LOW).writeback_high_frames(HIGH))
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
    // Retire whatever is still in flight so the end-to-end time pays
    // for every request (no free laundering at the finish line).
    pvm.drain_upcalls();
    let sim_ms = model.now().since(t0).millis();
    let stats = pvm.stats();
    let fault = pvm.tracer().histogram(Phase::FaultTotal);
    let stall = pvm.tracer().histogram(Phase::EvictStall);
    Row {
        engine,
        max_inflight,
        async_submits: stats.async_submits,
        async_deliveries: stats.async_deliveries,
        async_coalesced: stats.async_coalesced,
        async_out_of_order: stats.async_out_of_order,
        inflight_stalls: stats.async_inflight_stalls,
        evict_stalls: stall.count(),
        fault_p99_ns: fault.percentile(0.99),
        sim_ms,
        faults: stats.faults,
    }
}

fn main() {
    let args = bench_args();
    let (emit_json, quick) = (args.json, args.quick);
    let shape = args.shape(&FULL, &QUICK);

    // Same seedless deterministic workload twice with the engine on:
    // the simulated clock and every counter must agree bit for bit,
    // including the completion-delivery counters.
    assert_deterministic("completion engine", || {
        let r = run_config(shape, true, 4);
        (
            r.sim_ms.to_bits(),
            r.async_submits,
            r.async_deliveries,
            r.async_out_of_order,
            r.evict_stalls,
            r.faults,
        )
    });

    let mut rows = vec![run_config(shape, false, 1)];
    for &inflight in &INFLIGHT {
        rows.push(run_config(shape, true, inflight));
    }

    let sync = &rows[0];
    let best = rows[1..]
        .iter()
        .min_by(|a, b| a.sim_ms.total_cmp(&b.sim_ms))
        .expect("async rows");
    assert!(
        best.sim_ms < sync.sim_ms,
        "engine-on must beat the synchronous baseline: {} ms vs {} ms",
        best.sim_ms,
        sync.sim_ms
    );
    assert!(
        best.fault_p99_ns <= sync.fault_p99_ns,
        "engine-on must not worsen demand-fault p99: {} ns vs {} ns",
        best.fault_p99_ns,
        sync.fault_p99_ns
    );

    if emit_json {
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .bool("engine", r.engine)
                .int("max_inflight", r.max_inflight)
                .int("async_submits", r.async_submits)
                .int("async_deliveries", r.async_deliveries)
                .int("async_coalesced", r.async_coalesced)
                .int("async_out_of_order", r.async_out_of_order)
                .int("inflight_stalls", r.inflight_stalls)
                .int("evict_stalls", r.evict_stalls)
                .int("fault_p99_ns", r.fault_p99_ns)
                .num("sim_ms", r.sim_ms)
                .int("faults", r.faults)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("ablation_async_upcalls")
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
        "Async upcall ablation: {} sequential rewrite scans of a {}-page\n\
         working set over {} frames (pull cluster {}, push cluster {},\n\
         watermarks low={} high={})\n",
        shape.scans, shape.ws_pages, FRAMES, PULL_CLUSTER, PUSH_CLUSTER, LOW, HIGH
    );
    println!(
        "  engine | inflight | submits | delivered | coalesced | ooo | infl stalls | evict stalls | fault p99 (ns) | sim ms"
    );
    for r in &rows {
        println!(
            "  {:<6} | {:>8} | {:>7} | {:>9} | {:>9} | {:>3} | {:>11} | {:>12} | {:>14} | {:>10.1}",
            if r.engine { "on" } else { "off" },
            r.max_inflight,
            r.async_submits,
            r.async_deliveries,
            r.async_coalesced,
            r.async_out_of_order,
            r.inflight_stalls,
            r.evict_stalls,
            r.fault_p99_ns,
            r.sim_ms,
        );
    }
    println!(
        "\n  engine on (inflight={}) vs sync baseline: sim time {:.1} ms -> {:.1} ms \
         ({:.1}% better), fault p99 {} ns -> {} ns",
        best.max_inflight,
        sync.sim_ms,
        best.sim_ms,
        (1.0 - best.sim_ms / sync.sim_ms) * 100.0,
        sync.fault_p99_ns,
        best.fault_p99_ns,
    );
}
