//! Cross-crate fault-injection suite: the PVM driving the real Nucleus
//! segment manager over a [`FaultyMapper`].
//!
//! Mappers are independent actors (§5.1.1), so the memory manager must
//! treat every mapper reply as unreliable. These tests inject the full
//! failure taxonomy — transient errors, permanent death, slow replies,
//! truncated replies, crash-once — and assert the recovery protocol:
//! transient faults heal invisibly through retry, permanent faults
//! quarantine exactly the affected caches, blocked faulters always wake
//! with an error rather than deadlocking, and a failed pageout never
//! loses a dirty page that a later successful retry can write back.

use chorus_gmi::{Gmi, GmiError, Prot, RetryPolicy, SyncShim, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_nucleus::{
    FaultPlan, FaultyMapper, MemMapper, NucleusSegmentManager, PortName, SwapMapper,
};
use chorus_pvm::trace::{TraceEvent, UpcallOutcome};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, ReadaheadKind, TraceConfig};
use proptest::prelude::*;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const PS: u64 = 256;
const SEG_PAGES: u64 = 4;
const SEG_SIZE: usize = (PS * SEG_PAGES) as usize;

/// The full stack: PVM → NucleusSegmentManager → FaultyMapper(files) /
/// FaultyMapper(swap).
struct FaultStack {
    pvm: Arc<Pvm>,
    seg_mgr: Arc<NucleusSegmentManager>,
    files: Arc<MemMapper>,
    faulty_files: Arc<FaultyMapper>,
    swap: Arc<SwapMapper>,
    faulty_swap: Arc<FaultyMapper>,
}

fn stack(
    frames: u32,
    file_plan: FaultPlan,
    swap_plan: FaultPlan,
    tweak: impl FnOnce(&mut PvmConfig),
) -> FaultStack {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let faulty_files = Arc::new(FaultyMapper::new(files.clone(), file_plan));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    let faulty_swap = Arc::new(FaultyMapper::new(swap.clone(), swap_plan));
    seg_mgr.register_mapper(PortName(1), faulty_files.clone());
    seg_mgr.register_mapper(PortName(2), faulty_swap.clone());
    seg_mgr.set_default_mapper(PortName(2));
    // The whole fault-injection suite runs traced: recovery must be
    // byte-identical with observability on.
    let mut config = PvmConfig::builder()
        .paging(|p| p.check_invariants(true))
        .telemetry(|t| {
            t.trace(TraceConfig {
                enabled: true,
                ..TraceConfig::default()
            })
        })
        .build()
        .expect("valid config");
    tweak(&mut config);
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames,
            cost: CostParams::zero(),
            config,
            ..PvmOptions::default()
        },
        SyncShim::wrap(seg_mgr.clone()),
    ));
    faulty_files.attach_clock(pvm.cost_model());
    faulty_swap.attach_clock(pvm.cost_model());
    faulty_files.attach_tracer(pvm.tracer());
    faulty_swap.attach_tracer(pvm.tracer());
    FaultStack {
        pvm,
        seg_mgr,
        files,
        faulty_files,
        swap,
        faulty_swap,
    }
}

/// A tiny deterministic PRNG for workload scheduling (the mapper's own
/// fault schedule uses its independent seeded RNG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Runs a deterministic read/write workload over `n_segs` file-backed
/// segments under memory pressure, maintaining a byte oracle. Every
/// operation must succeed (the plan is expected to be heal-able), and
/// the final contents seen through the PVM must equal the oracle.
fn healing_workload(stack: &FaultStack, seed: u64, n_segs: usize, ops: usize) {
    let pvm = &stack.pvm;
    let mut oracle = Vec::new();
    let mut ctxs = Vec::new();
    let ctx = pvm.context_create().unwrap();
    for i in 0..n_segs {
        let init: Vec<u8> = (0..SEG_SIZE)
            .map(|k| (k as u8).wrapping_mul(7).wrapping_add(i as u8))
            .collect();
        let cap = stack.files.create_segment(&init);
        let seg = stack.seg_mgr.segment_for(cap);
        let cache = pvm.cache_create(Some(seg)).unwrap();
        let base = 0x10_0000 * (i as u64 + 1);
        pvm.region_create(ctx, VirtAddr(base), SEG_SIZE as u64, Prot::RW, cache, 0)
            .unwrap();
        oracle.push(init);
        ctxs.push(base);
    }
    let mut rng = Lcg(seed.wrapping_mul(2).wrapping_add(1));
    for _ in 0..ops {
        let i = (rng.next() as usize) % n_segs;
        let off = (rng.next() as usize) % (SEG_SIZE - 32);
        let len = 1 + (rng.next() as usize) % 31;
        let base = ctxs[i];
        if rng.next().is_multiple_of(3) {
            let byte = rng.next() as u8;
            let data: Vec<u8> = (0..len).map(|k| byte.wrapping_add(k as u8)).collect();
            pvm.vm_write(ctx, VirtAddr(base + off as u64), &data)
                .unwrap_or_else(|e| panic!("write seed={seed} off={off} len={len}: {e}"));
            oracle[i][off..off + len].copy_from_slice(&data);
        } else {
            let mut buf = vec![0u8; len];
            pvm.vm_read(ctx, VirtAddr(base + off as u64), &mut buf)
                .unwrap_or_else(|e| panic!("read seed={seed} off={off} len={len}: {e}"));
            assert_eq!(buf, &oracle[i][off..off + len], "seed={seed} diverged");
        }
    }
    // Full final comparison of every segment.
    for (i, base) in ctxs.iter().enumerate() {
        let mut got = vec![0u8; SEG_SIZE];
        pvm.vm_read(ctx, VirtAddr(*base), &mut got)
            .unwrap_or_else(|e| panic!("final read seed={seed} seg={i}: {e}"));
        assert_eq!(got, oracle[i], "seed={seed} segment {i} diverged");
    }
    pvm.check_invariants();
}

/// A plan mixing every heal-able fault kind, scheduled by `seed`.
fn healable_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        transient_per_mille: 150,
        permanent_per_mille: 0,
        delay_per_mille: 100,
        delay_ns: 20_000,
        truncate_per_mille: 100,
        crash_at_op: Some(seed % 17 + 3),
        hang_at_op: None,
    }
}

/// Retry policy generous enough that the ~250‰ effective per-attempt
/// fault rate of [`healable_plan`] cannot plausibly exhaust it
/// (0.25^10 ≈ 1e-6 per upcall; the schedule is deterministic, so the
/// seeds below are verified once and stay verified).
fn generous_retry(config: &mut PvmConfig) {
    config.retry = RetryPolicy {
        max_attempts: 10,
        ..RetryPolicy::default()
    };
}

#[test]
fn thirty_two_seeds_of_transient_faults_all_heal() {
    let mut total_retries = 0u64;
    let mut total_faults = 0usize;
    for seed in 0..32u64 {
        let s = stack(8, healable_plan(seed), healable_plan(!seed), generous_retry);
        healing_workload(&s, seed, 3, 40);
        total_retries += s.pvm.stats().mapper_retries;
        total_faults += s.faulty_files.take_log().len() + s.faulty_swap.take_log().len();
        assert_eq!(s.pvm.stats().quarantined_caches, 0, "seed={seed}");
    }
    assert!(
        total_faults > 100,
        "plans injected too little: {total_faults}"
    );
    assert!(total_retries > 50, "retries never fired: {total_retries}");
}

#[test]
fn permanent_failure_quarantines_only_the_affected_cache() {
    // File mapper dies permanently on its first operation; a second
    // clean mapper on another port is untouched.
    let dead_plan = FaultPlan {
        permanent_per_mille: 1000,
        ..FaultPlan::quiet(3)
    };
    let s = stack(16, dead_plan, FaultPlan::quiet(0), |_| {});
    let clean = Arc::new(MemMapper::new(PortName(7)));
    s.seg_mgr.register_mapper(PortName(7), clean.clone());

    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let bad_init = vec![0xAA; SEG_SIZE];
    let good_init: Vec<u8> = (0..SEG_SIZE).map(|k| k as u8).collect();
    let bad_seg = s.seg_mgr.segment_for(s.files.create_segment(&bad_init));
    let good_seg = s.seg_mgr.segment_for(clean.create_segment(&good_init));
    let bad_cache = pvm.cache_create(Some(bad_seg)).unwrap();
    let good_cache = pvm.cache_create(Some(good_seg)).unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x10_0000),
        SEG_SIZE as u64,
        Prot::RW,
        bad_cache,
        0,
    )
    .unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x20_0000),
        SEG_SIZE as u64,
        Prot::RW,
        good_cache,
        0,
    )
    .unwrap();

    let mut buf = [0u8; 16];
    // First touch: the permanent failure surfaces as MapperUnavailable.
    let err = pvm.vm_read(ctx, VirtAddr(0x10_0000), &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::MapperUnavailable { .. }), "{err}");
    // Thereafter the cache answers with its quarantine error.
    let err = pvm.vm_read(ctx, VirtAddr(0x10_0000), &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::CachePoisoned(_)), "{err}");
    let err = pvm.cache_read(bad_cache, 0, &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::CachePoisoned(_)), "{err}");
    assert_eq!(pvm.stats().quarantined_caches, 1);

    // The innocent cache is fully functional and correct.
    let mut got = vec![0u8; SEG_SIZE];
    pvm.vm_read(ctx, VirtAddr(0x20_0000), &mut got).unwrap();
    assert_eq!(got, good_init);

    // Recovery path: after the mapper "restarts", a *fresh* cache on the
    // same segment works again — quarantine is per-cache, not global.
    s.faulty_files.set_plan(FaultPlan::quiet(0));
    let fresh = pvm.cache_create(Some(bad_seg)).unwrap();
    pvm.cache_read(fresh, 0, &mut got).unwrap();
    assert_eq!(got, bad_init);
    pvm.check_invariants();
}

#[test]
fn concurrent_faulters_all_unblock_with_errors_not_deadlock() {
    // Every pull fails transiently and the policy gives up quickly: all
    // four faulters of the same page must return an error within the
    // watchdog window — none may deadlock on the cleared sync stub.
    let all_fail = FaultPlan {
        transient_per_mille: 1000,
        ..FaultPlan::quiet(11)
    };
    let s = stack(16, all_fail, FaultPlan::quiet(0), |c| {
        c.retry = RetryPolicy {
            max_attempts: 2,
            initial_backoff_ns: 1_000,
            ..RetryPolicy::default()
        };
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init = vec![0x42; SEG_SIZE];
    let seg = s.seg_mgr.segment_for(s.files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0), SEG_SIZE as u64, Prot::RW, cache, 0)
        .unwrap();

    let (tx, rx) = mpsc::channel();
    for _ in 0..4 {
        let pvm = Arc::clone(pvm);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut buf = [0u8; 8];
            let res = pvm.vm_read(ctx, VirtAddr(16), &mut buf);
            tx.send(res).unwrap();
        });
    }
    drop(tx);
    for _ in 0..4 {
        let res = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("faulter deadlocked");
        let err = res.expect_err("pull cannot succeed under this plan");
        assert!(
            matches!(
                err,
                GmiError::SegmentIo { .. } | GmiError::MapperTimeout { .. }
            ),
            "{err}"
        );
    }
    // The sync stubs were cleaned up: once the mapper heals, the very
    // same page is pulled successfully.
    s.faulty_files.set_plan(FaultPlan::quiet(0));
    let mut buf = [0u8; 8];
    pvm.vm_read(ctx, VirtAddr(16), &mut buf).unwrap();
    assert_eq!(buf, [0x42; 8]);
    pvm.check_invariants();
}

#[test]
fn slow_mapper_times_out_against_the_simulated_deadline() {
    // Each attempt burns 0.6 simulated seconds then fails transiently;
    // the 1-second deadline trips on the second attempt.
    let slow = FaultPlan {
        transient_per_mille: 1000,
        delay_per_mille: 1000,
        delay_ns: 600_000_000,
        ..FaultPlan::quiet(5)
    };
    let s = stack(16, slow, FaultPlan::quiet(0), |_| {});
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let seg = s
        .seg_mgr
        .segment_for(s.files.create_segment(&vec![1; SEG_SIZE]));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0), SEG_SIZE as u64, Prot::RW, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    let err = pvm.vm_read(ctx, VirtAddr(0), &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::MapperTimeout { .. }), "{err}");
    assert!(pvm.stats().mapper_timeouts >= 1);
    // Timeouts are transient: the cache is NOT quarantined.
    assert_eq!(pvm.stats().quarantined_caches, 0);
    s.faulty_files.set_plan(FaultPlan::quiet(0));
    pvm.vm_read(ctx, VirtAddr(0), &mut buf).unwrap();
    assert_eq!(buf, [1; 4]);
}

#[test]
fn failed_pageout_never_loses_a_dirty_page() {
    // The swap mapper rejects every write; a pageout forced by memory
    // pressure fails, the triggering fault returns the error, and the
    // dirty page stays dirty in memory. After the mapper heals, the
    // retried pageout writes the page back and nothing is lost.
    let bad_swap = FaultPlan {
        transient_per_mille: 1000,
        ..FaultPlan::quiet(9)
    };
    let s = stack(4, FaultPlan::quiet(0), bad_swap, |c| {
        c.retry = RetryPolicy::no_retry();
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let pages = 8u64;
    pvm.region_create(ctx, VirtAddr(0x10_0000), pages * PS, Prot::RW, cache, 0)
        .unwrap();

    // Dirty pages page-by-page until a pageout is forced and fails.
    let mut oracle = vec![Vec::new(); pages as usize];
    let mut failed = 0u64;
    for p in 0..pages {
        let data: Vec<u8> = (0..PS).map(|k| (p as u8) ^ (k as u8)).collect();
        match pvm.vm_write(ctx, VirtAddr(0x10_0000 + p * PS), &data) {
            Ok(()) => oracle[p as usize] = data,
            Err(e) => {
                assert!(e.is_transient(), "{e}");
                failed += 1;
            }
        }
    }
    assert!(failed > 0, "pressure never forced a failing pageout");
    assert_eq!(s.swap.swapped_out_bytes(), 0, "no write may have landed");

    // Heal the swap mapper; re-run the failed writes.
    s.faulty_swap.set_plan(FaultPlan::quiet(0));
    for p in 0..pages {
        if oracle[p as usize].is_empty() {
            let data: Vec<u8> = (0..PS).map(|k| (p as u8) ^ (k as u8)).collect();
            pvm.vm_write(ctx, VirtAddr(0x10_0000 + p * PS), &data)
                .unwrap();
            oracle[p as usize] = data;
        }
    }
    assert!(
        s.swap.swapped_out_bytes() > 0,
        "retried pageout must reach the swap mapper"
    );
    // Every page — including those whose earlier pageout failed — holds
    // exactly its oracle bytes.
    for p in 0..pages {
        let mut got = vec![0u8; PS as usize];
        pvm.vm_read(ctx, VirtAddr(0x10_0000 + p * PS), &mut got)
            .unwrap();
        assert_eq!(got, oracle[p as usize], "page {p} lost data");
    }
    pvm.check_invariants();
}

#[test]
fn emergency_pageout_rescues_fill_up_when_replacement_is_off() {
    // Page replacement disabled, two frames, three pages wanted: the
    // third pull's fillUp cannot allocate — failing it would strand the
    // pull, so the emergency pass trades the clean working set for
    // progress.
    let s = stack(2, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.enable_pageout = false;
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init: Vec<u8> = (0..SEG_SIZE).map(|k| k as u8).collect();
    let seg = s.seg_mgr.segment_for(s.files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0), SEG_SIZE as u64, Prot::READ, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    for p in 0..3u64 {
        pvm.vm_read(ctx, VirtAddr(p * PS), &mut buf).unwrap();
        assert_eq!(buf[0], (p * PS) as u8);
    }
    assert!(pvm.stats().emergency_pageouts >= 1);
    pvm.check_invariants();
}

#[test]
fn clustered_pull_clamps_at_segment_end() {
    // Regression: a fully-backed cache owns *every* offset, so an
    // unclamped 8-page cluster faulting at page 0 of a 4-page segment
    // would pull past the segment end — wasted mapper I/O and frames
    // full of sparse zeroes. With the clamp the run stops at the
    // segment's known length.
    let s = stack(16, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.pull_cluster_pages = 8;
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init: Vec<u8> = (0..SEG_SIZE).map(|k| k as u8).collect();
    let seg = s.seg_mgr.segment_for(s.files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    // The region is twice the segment, so offsets past the segment end
    // are addressable (and owned, the cache being fully backed).
    pvm.region_create(ctx, VirtAddr(0), 2 * SEG_SIZE as u64, Prot::READ, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    pvm.vm_read(ctx, VirtAddr(0), &mut buf).unwrap();
    assert_eq!(buf[0], 0);
    assert_eq!(pvm.stats().pull_ins, 1);
    // The last in-segment page rode along in the clamped cluster...
    pvm.vm_read(ctx, VirtAddr(3 * PS), &mut buf).unwrap();
    assert_eq!(
        pvm.stats().pull_ins,
        1,
        "page 3 must already be resident from the clustered pull"
    );
    // ...but the first page past the segment end did not.
    pvm.vm_read(ctx, VirtAddr(4 * PS), &mut buf).unwrap();
    assert_eq!(
        pvm.stats().pull_ins,
        2,
        "the cluster must stop at the segment end"
    );
    assert_eq!(buf, [0u8; 4], "data past the segment end is sparse zeroes");
    pvm.check_invariants();
}

#[test]
fn clustered_pull_stops_at_resident_pages() {
    // Regression: a cluster extending over an already-resident page (or
    // an in-transit stub) must stop rather than re-pull it.
    let s = stack(16, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.pull_cluster_pages = 8;
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init: Vec<u8> = (0..SEG_SIZE).map(|k| k as u8).collect();
    let seg = s.seg_mgr.segment_for(s.files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0), SEG_SIZE as u64, Prot::READ, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    // First fault at page 2: pulls pages 2..4 (clamped at segment end).
    pvm.vm_read(ctx, VirtAddr(2 * PS), &mut buf).unwrap();
    assert_eq!(pvm.stats().pull_ins, 1);
    // Fault at page 0: the cluster must stop at resident page 2.
    pvm.vm_read(ctx, VirtAddr(0), &mut buf).unwrap();
    assert_eq!(pvm.stats().pull_ins, 2);
    // Everything is now resident; no pull may fire again, and every
    // byte matches the segment.
    let mut got = vec![0u8; SEG_SIZE];
    pvm.vm_read(ctx, VirtAddr(0), &mut got).unwrap();
    assert_eq!(got, init);
    assert_eq!(pvm.stats().pull_ins, 2, "re-pulled a resident page");
    pvm.check_invariants();
}

#[test]
fn batched_writeback_faults_never_lose_dirty_pages() {
    // The full healing workload with clustering and the writeback
    // daemon on, under transient/truncate/crash fault sprinkling on
    // *writes* as well as reads: batched copyBacks fail mid-run, get
    // split and retried page by page, and the byte oracle proves no
    // dirty page is ever lost. Truncated writes land half the batch
    // before dying, so the idempotent-rewrite path is exercised too.
    let mut batches = 0u64;
    let mut splits = 0u64;
    for seed in 0..12u64 {
        let plan = FaultPlan {
            seed,
            transient_per_mille: 150,
            permanent_per_mille: 0,
            delay_per_mille: 0,
            delay_ns: 0,
            truncate_per_mille: 150,
            crash_at_op: Some(seed % 13 + 2),
            hang_at_op: None,
        };
        let s = stack(
            8,
            plan,
            FaultPlan {
                seed: !seed,
                ..plan
            },
            |c| {
                generous_retry(c);
                c.push_cluster_pages = 4;
                c.writeback_low_frames = 2;
                c.writeback_high_frames = 4;
            },
        );
        healing_workload(&s, seed, 3, 40);
        let stats = s.pvm.stats();
        batches += stats.push_out_batches;
        splits += stats.push_batch_splits;
        assert_eq!(stats.quarantined_caches, 0, "seed={seed}");
    }
    assert!(batches > 0, "clustered pushOut never fired");
    assert!(
        splits > 0,
        "no batch ever failed and split: faults too weak"
    );
}

#[test]
fn batched_pushout_permanent_death_quarantines_without_data_loss_elsewhere() {
    // The file mapper dies permanently right before a batched sync
    // pushOut: the split pass aborts on the first page, nothing partial
    // lands on the segment, the cache is quarantined exactly once, and
    // an unrelated cache on a clean mapper is untouched.
    let s = stack(16, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.push_cluster_pages = 4;
    });
    let clean = Arc::new(MemMapper::new(PortName(7)));
    s.seg_mgr.register_mapper(PortName(7), clean.clone());
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let init = vec![0x11u8; SEG_SIZE];
    let cap = s.files.create_segment(&init);
    let seg = s.seg_mgr.segment_for(cap);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x10_0000),
        SEG_SIZE as u64,
        Prot::RW,
        cache,
        0,
    )
    .unwrap();
    let good_init: Vec<u8> = (0..SEG_SIZE).map(|k| k as u8).collect();
    let good_seg = s.seg_mgr.segment_for(clean.create_segment(&good_init));
    let good_cache = pvm.cache_create(Some(good_seg)).unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x20_0000),
        SEG_SIZE as u64,
        Prot::RW,
        good_cache,
        0,
    )
    .unwrap();

    // Dirty all four pages while the mapper is healthy...
    for p in 0..SEG_PAGES {
        let data: Vec<u8> = (0..PS).map(|k| (p as u8) ^ (k as u8)).collect();
        pvm.vm_write(ctx, VirtAddr(0x10_0000 + p * PS), &data)
            .unwrap();
    }
    // ...then it dies, and the sync's 4-page batch fails, splits, and
    // aborts on the first per-page push.
    s.faulty_files.set_plan(FaultPlan {
        permanent_per_mille: 1000,
        ..FaultPlan::quiet(21)
    });
    let err = pvm.cache_sync(cache, 0, SEG_SIZE as u64).unwrap_err();
    assert!(matches!(err, GmiError::MapperUnavailable { .. }), "{err}");
    assert!(
        pvm.stats().push_batch_splits >= 1,
        "the multi-page batch must have split on failure"
    );
    assert_eq!(pvm.stats().quarantined_caches, 1);
    assert_eq!(
        s.files.segment_data(cap),
        init,
        "no partial write may land on the segment"
    );

    // The innocent cache on the clean mapper still works end to end.
    let tag: Vec<u8> = (0..PS).map(|k| 0xA5 ^ (k as u8)).collect();
    pvm.vm_write(ctx, VirtAddr(0x20_0000), &tag).unwrap();
    let mut got = vec![0u8; PS as usize];
    pvm.vm_read(ctx, VirtAddr(0x20_0000), &mut got).unwrap();
    assert_eq!(got, tag);
    pvm.check_invariants();
}

#[test]
fn adaptive_readahead_ramps_on_sequential_streams() {
    // A strictly sequential read over a long segment with adaptive
    // readahead: each miss landing where the previous cluster ended
    // doubles the window, so the pull count grows logarithmically, and
    // the ramp counters record the progression. A random re-access
    // resets the window (no ramp counters move for it).
    let long_pages = 32u64;
    let init: Vec<u8> = (0..long_pages * PS).map(|k| (k % 251) as u8).collect();
    let s = stack(64, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.pull_cluster_pages = 1;
        c.policy.readahead = ReadaheadKind::Doubling;
        c.readahead_max_pages = 8;
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let seg = s.seg_mgr.segment_for(s.files.create_segment(&init));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0), long_pages * PS, Prot::READ, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    for p in 0..long_pages {
        pvm.vm_read(ctx, VirtAddr(p * PS), &mut buf).unwrap();
        assert_eq!(buf[0], ((p * PS) % 251) as u8, "page {p}");
    }
    let stats = pvm.stats();
    // Windows 1,2,4,8,8,... cover 32 pages in 7 pulls; without
    // adaptation it would take 32.
    assert!(
        stats.pull_ins <= 8,
        "sequential stream did not ramp: {} pulls",
        stats.pull_ins
    );
    assert!(stats.readahead_hits >= 4, "{:?}", stats.readahead_hits);
    assert!(stats.readahead_ramps >= 3, "{:?}", stats.readahead_ramps);
    pvm.check_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Any seed, any heal-able fault mix: the stack stays oracle-exact.
    #[test]
    fn random_fault_schedules_agree_with_oracle(
        seed in any::<u64>(),
        transient in 0..150u32,
        truncate in 0..100u32,
        crash_at in 0..24u64,
    ) {
        let plan = FaultPlan {
            seed,
            transient_per_mille: transient,
            permanent_per_mille: 0,
            delay_per_mille: 80,
            delay_ns: 10_000,
            truncate_per_mille: truncate,
            crash_at_op: Some(crash_at),
            hang_at_op: None,
        };
        let s = stack(8, plan, FaultPlan { seed: !seed, ..plan }, generous_retry);
        healing_workload(&s, seed, 2, 30);
    }
}

// ----- trace correlation ---------------------------------------------------

/// Under an injected-fault plan, the trace stream must account for
/// every counted retry, timeout, quarantine and injected fault: each
/// `mapper_retries` increment has a matching `UpcallEnd{retries}`
/// record, and every fault the mapper logged appears as a
/// `mapper.inject` instant on the same timeline.
#[test]
fn injected_faults_and_retries_appear_in_the_trace() {
    let s = stack(8, healable_plan(9), healable_plan(!9), generous_retry);
    healing_workload(&s, 9, 3, 40);

    let tracer = s.pvm.tracer();
    assert_eq!(tracer.dropped(), 0, "ring overflow would skew the counts");
    let records = tracer.drain();
    let stats = s.pvm.stats();

    let injected_logged = s.faulty_files.take_log().len() + s.faulty_swap.take_log().len();
    let injected_traced = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::MapperFaultInjected { .. }))
        .count();
    assert_eq!(injected_traced, injected_logged);
    assert!(injected_traced > 0, "plan injected nothing");

    let retries_traced: u64 = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::UpcallEnd { retries, .. } => Some(retries),
            _ => None,
        })
        .sum();
    assert_eq!(retries_traced, stats.mapper_retries);
    assert!(retries_traced > 0, "retries never fired");

    let timeouts_traced = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::UpcallEnd {
                    outcome: UpcallOutcome::Timeout,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(timeouts_traced, stats.mapper_timeouts);

    let quarantines_traced = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Quarantine { .. }))
        .count() as u64;
    assert_eq!(quarantines_traced, stats.quarantined_caches);

    // Every upcall begins and ends exactly once.
    let starts = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::UpcallStart { .. }))
        .count();
    let ends = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::UpcallEnd { .. }))
        .count();
    assert_eq!(starts, ends, "unbalanced upcall start/end");

    // Successful pulls: one Ok pullIn end per counted pull_in.
    let pull_ok = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::UpcallEnd {
                    kind: chorus_pvm::trace::UpcallKind::PullIn,
                    outcome: UpcallOutcome::Ok,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(pull_ok, stats.pull_ins);
}

// ----- asynchronous upcall engine ------------------------------------------

/// Async knobs used by the engine fault tests: clustered pulls feed the
/// tail-split path and the laundering daemon feeds fire-and-collect
/// pushes, all through the completion scheduler.
fn async_knobs(c: &mut PvmConfig) {
    c.pull_cluster_pages = 4;
    c.readahead_max_pages = 8;
    c.push_cluster_pages = 4;
    c.writeback_low_frames = 2;
    c.writeback_high_frames = 4;
    c.async_upcalls = true;
    c.max_inflight_upcalls = 4;
}

#[test]
fn async_upcalls_heal_faults_without_dirty_page_loss() {
    // The healing workload under the completion engine with transient,
    // truncating and crash-once faults on both mappers: the byte oracle
    // proves no dirty page is lost while completions are in flight, and
    // draining retires every submission exactly once.
    for seed in 0..8u64 {
        let s = stack(8, healable_plan(seed), healable_plan(!seed), |c| {
            generous_retry(c);
            async_knobs(c);
        });
        healing_workload(&s, seed, 3, 40);
        s.pvm.drain_upcalls();
        let stats = s.pvm.stats();
        assert!(stats.async_submits > 0, "engine never engaged, seed={seed}");
        assert_eq!(
            stats.async_deliveries, stats.async_submits,
            "in-flight completion leaked, seed={seed}"
        );
        assert_eq!(stats.quarantined_caches, 0, "seed={seed}");
        s.pvm.check_invariants();
    }
}

/// Builds the OOO stack: real sun3 costs (the completion scheduler
/// orders by due time, which is degenerate under zero costs), an
/// anonymous working set and a laundering daemon that gathers one
/// 8-page batch and one single-page batch in the same pass.
fn ooo_stack() -> FaultStack {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    let faulty_files = Arc::new(FaultyMapper::new(files.clone(), FaultPlan::quiet(0)));
    let swap = Arc::new(SwapMapper::new(PortName(2)));
    let faulty_swap = Arc::new(FaultyMapper::new(swap.clone(), FaultPlan::quiet(0)));
    seg_mgr.register_mapper(PortName(1), faulty_files.clone());
    seg_mgr.register_mapper(PortName(2), faulty_swap.clone());
    seg_mgr.set_default_mapper(PortName(2));
    let config = PvmConfig::builder()
        .paging(|p| p.check_invariants(true).push_cluster_pages(8))
        .r#async(|a| a.async_upcalls(true).max_inflight_upcalls(4))
        .pressure(|pr| pr.writeback_low_frames(4).writeback_high_frames(6))
        .build()
        .expect("valid config");
    let pvm = Arc::new(Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames: 12,
            cost: CostParams::sun3(),
            config,
            ..PvmOptions::default()
        },
        SyncShim::wrap(seg_mgr.clone()),
    ));
    faulty_files.attach_clock(pvm.cost_model());
    faulty_swap.attach_clock(pvm.cost_model());
    FaultStack {
        pvm,
        seg_mgr,
        files,
        faulty_files,
        swap,
        faulty_swap,
    }
}

/// Dirties an 8-page contiguous run plus one disjoint page on an
/// anonymous cache, then triggers one laundering pass. The pass
/// submits the 8-page push first (long service time) and the 1-page
/// push second (short service time): the second, higher-id request
/// completes first. Returns (final sim time, stats).
fn ooo_run(s: &FaultStack) -> (u64, chorus_pvm::PvmStats) {
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let pages = 16u64;
    pvm.region_create(ctx, VirtAddr(0x10_0000), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    // Pages 0..8 form the batched run; page 10 is its own run.
    for p in (0..8).chain([10u64]) {
        let data: Vec<u8> = (0..PS).map(|k| (p as u8) ^ (k as u8)).collect();
        pvm.vm_write(ctx, VirtAddr(0x10_0000 + p * PS), &data)
            .unwrap();
    }
    // 9 of 12 frames used: the next hard fault enters below the low
    // watermark and runs the laundering pass that submits both pushes.
    let mut buf = [0u8; 4];
    pvm.vm_read(ctx, VirtAddr(0x10_0000 + 11 * PS), &mut buf)
        .unwrap();
    pvm.drain_upcalls();
    pvm.check_invariants();
    (pvm.cost_model().now().nanos(), pvm.stats())
}

#[test]
fn async_completions_deliver_out_of_order_and_deterministically() {
    let s = ooo_stack();
    let (t1, stats1) = ooo_run(&s);
    assert!(stats1.async_submits >= 2, "{stats1:?}");
    assert_eq!(stats1.async_deliveries, stats1.async_submits);
    assert!(
        stats1.async_out_of_order >= 1,
        "the short push never overtook the long batch: {stats1:?}"
    );
    // No dirty page was lost across the out-of-order deliveries.
    assert_eq!(s.swap.swapped_out_bytes(), 9 * PS, "{stats1:?}");

    // Bit-identical repeat: same stack build, same workload, same
    // simulated clock and the same counter table.
    let (t2, stats2) = ooo_run(&ooo_stack());
    assert_eq!(t1, t2, "simulated time diverged across identical runs");
    assert_eq!(stats1, stats2, "counters diverged across identical runs");
}

// ===== memory-pressure survival: watchdog, backpressure, OOM killer =====

/// One simulated hour: the horizon a hung (timed-out) asynchronous
/// upcall parks at when nobody cancels it.
const HOUR: u64 = 3_600_000_000_000;

/// A plan whose only fault is a hang: from upcall number `at` on, the
/// mapper wedges and every reply is a transient-looking `MapperTimeout`.
fn hang_plan(at: u64) -> FaultPlan {
    FaultPlan {
        seed: 1,
        transient_per_mille: 0,
        permanent_per_mille: 0,
        delay_per_mille: 0,
        delay_ns: 0,
        truncate_per_mille: 0,
        crash_at_op: None,
        hang_at_op: Some(at),
    }
}

/// The pressure-suite knobs: clustered async pulls without the
/// writeback daemon (so the only engine traffic is what the test
/// drives), readahead capped at the cluster size to keep pull
/// boundaries fixed.
fn pressure_knobs(c: &mut PvmConfig) {
    async_knobs(c);
    c.writeback_low_frames = 0;
    c.readahead_max_pages = 4;
}

fn file_region(
    s: &FaultStack,
    pages: u64,
    base: u64,
) -> (chorus_gmi::CtxId, chorus_gmi::CacheId, Vec<u8>) {
    let init: Vec<u8> = (0..pages * PS)
        .map(|k| (k as u8).wrapping_mul(7).wrapping_add(3))
        .collect();
    let cap = s.files.create_segment(&init);
    let seg = s.seg_mgr.segment_for(cap);
    let cache = s.pvm.cache_create(Some(seg)).unwrap();
    let ctx = s.pvm.context_create().unwrap();
    s.pvm
        .region_create(ctx, VirtAddr(base), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    (ctx, cache, init)
}

#[test]
fn watchdog_cancels_hung_pull_and_degrades_the_segment_to_sync() {
    let s = stack(16, hang_plan(0), FaultPlan::quiet(2), |c| {
        pressure_knobs(c);
        c.upcall_watchdog = true;
        c.suspect_after_timeouts = 1;
        c.quarantine_after_timeouts = 10;
    });
    let pvm = &s.pvm;
    let init: Vec<u8> = (0..SEG_SIZE)
        .map(|k| (k as u8).wrapping_mul(7).wrapping_add(3))
        .collect();
    let cap = s.files.create_segment(&init);
    let seg = s.seg_mgr.segment_for(cap);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    let base = 0x10_0000u64;
    pvm.region_create(ctx, VirtAddr(base), SEG_SIZE as u64, Prot::RW, cache, 0)
        .unwrap();

    // First fault: the clustered pull splits, the async tail wedges in
    // the hung mapper and parks in flight, the sync head times out
    // against the retry deadline and surfaces a transient error.
    let mut byte = [0u8; 1];
    let err = pvm.vm_read(ctx, VirtAddr(base), &mut byte).unwrap_err();
    assert!(matches!(err, GmiError::MapperTimeout { .. }), "{err}");
    assert!(s.faulty_files.is_wedged());

    // Heal the mapper, then let the watchdog rule on the parked pull:
    // it is cancelled at its deadline (about a simulated second), not
    // at the hung-reply horizon, and the segment becomes Suspected.
    s.faulty_files.set_plan(FaultPlan::quiet(2));
    pvm.drain_upcalls();
    let stats = pvm.stats();
    assert_eq!(stats.watchdog_cancels, 1, "{stats:?}");
    assert_eq!(stats.suspected_mappers, 1, "{stats:?}");
    assert_eq!(stats.quarantined_caches, 0, "{stats:?}");
    let t = pvm.cost_model().now().nanos();
    assert!(t < HOUR, "watchdog waited for the hung reply: {t} ns");

    // A Suspected segment degrades to the synchronous path, which is
    // slower but correct: the full content reads back.
    let mut got = vec![0u8; SEG_SIZE];
    pvm.vm_read(ctx, VirtAddr(base), &mut got).unwrap();
    assert_eq!(got, init);

    // No dirty page is lost across the recovery: overwrite the whole
    // segment and push it back through the degraded path.
    let new: Vec<u8> = (0..SEG_SIZE)
        .map(|k| (k as u8).wrapping_mul(13).wrapping_add(5))
        .collect();
    pvm.vm_write(ctx, VirtAddr(base), &new).unwrap();
    pvm.cache_sync(cache, 0, SEG_SIZE as u64).unwrap();
    assert_eq!(s.files.segment_data(cap), new, "dirty pages lost");
    pvm.check_invariants();
}

#[test]
fn watchdog_bounds_the_stall_where_the_bare_engine_waits_an_hour() {
    // Identical stacks, identical workload, one knob: with the watchdog
    // the hung pull is cancelled at its retry deadline; without it the
    // forced delivery must ride out the full hung-reply horizon.
    let run = |watchdog: bool| {
        let s = stack(16, hang_plan(0), FaultPlan::quiet(2), |c| {
            pressure_knobs(c);
            c.upcall_watchdog = watchdog;
        });
        let (ctx, _cache, _init) = file_region(&s, SEG_PAGES, 0x10_0000);
        let mut byte = [0u8; 1];
        let err = s
            .pvm
            .vm_read(ctx, VirtAddr(0x10_0000), &mut byte)
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        s.pvm.drain_upcalls();
        s.pvm.check_invariants();
        (s.pvm.cost_model().now().nanos(), s.pvm.stats())
    };
    let (t_on, stats_on) = run(true);
    let (t_off, stats_off) = run(false);
    assert!(t_on < HOUR, "watchdog run stalled: {t_on} ns");
    assert!(t_off >= HOUR, "bare run finished early: {t_off} ns");
    assert_eq!(stats_on.watchdog_cancels, 1, "{stats_on:?}");
    assert_eq!(stats_off.watchdog_cancels, 0, "{stats_off:?}");

    // The watchdog path is bit-deterministic.
    let (t_on2, stats_on2) = run(true);
    assert_eq!(t_on, t_on2, "simulated time diverged");
    assert_eq!(stats_on, stats_on2, "counters diverged");
}

#[test]
fn repeated_hangs_escalate_from_suspected_to_quarantine() {
    let s = stack(16, hang_plan(0), FaultPlan::quiet(2), |c| {
        pressure_knobs(c);
        c.upcall_watchdog = true;
        c.suspect_after_timeouts = 1;
        c.quarantine_after_timeouts = 1;
    });
    let pvm = &s.pvm;
    let (ctx, _cache, init) = file_region(&s, SEG_PAGES, 0x10_0000);
    let mut byte = [0u8; 1];
    let err = pvm
        .vm_read(ctx, VirtAddr(0x10_0000), &mut byte)
        .unwrap_err();
    assert!(err.is_transient(), "{err}");

    // The watchdog cancellation both suspects the segment and, at the
    // quarantine threshold, poisons the cache.
    pvm.drain_upcalls();
    let err = pvm
        .vm_read(ctx, VirtAddr(0x10_0000), &mut byte)
        .unwrap_err();
    assert!(matches!(err, GmiError::CachePoisoned(_)), "{err}");
    let stats = pvm.stats();
    assert_eq!(stats.watchdog_cancels, 1, "{stats:?}");
    assert_eq!(stats.suspected_mappers, 1, "{stats:?}");
    assert_eq!(stats.quarantined_caches, 1, "{stats:?}");

    // The quarantine is cache-level, the suspicion segment-level: a
    // fresh cache on the healed mapper works through the degraded
    // synchronous path.
    s.faulty_files.set_plan(FaultPlan::quiet(2));
    let cap2 = s.files.create_segment(&init);
    let seg2 = s.seg_mgr.segment_for(cap2);
    let cache2 = pvm.cache_create(Some(seg2)).unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x20_0000),
        SEG_SIZE as u64,
        Prot::RW,
        cache2,
        0,
    )
    .unwrap();
    let mut got = vec![0u8; SEG_SIZE];
    pvm.vm_read(ctx, VirtAddr(0x20_0000), &mut got).unwrap();
    assert_eq!(got, init);
    assert!(pvm.cost_model().now().nanos() < HOUR);
    pvm.check_invariants();
}

#[test]
fn quarantine_mid_flight_fails_coalesced_pending_pulls() {
    // Regression: a cache quarantined while one of its pulls is in
    // flight must fail the coalesced pulls queued behind that request
    // (clearing their stubs) rather than drop them, or a faulter on the
    // queued range sleeps on a stub that will never be filled.
    let s = stack(16, hang_plan(0), FaultPlan::quiet(2), |c| {
        pressure_knobs(c);
        c.max_inflight_upcalls = 1;
    });
    let pvm = &s.pvm;
    let (ctx, _cache, _init) = file_region(&s, 8, 0x10_0000);
    let base = 0x10_0000u64;

    // Fault page 0: the async tail (pages 1..4) wedges and parks in
    // flight; the sync head times out.
    let mut byte = [0u8; 1];
    let err = pvm.vm_read(ctx, VirtAddr(base), &mut byte).unwrap_err();
    assert!(err.is_transient(), "{err}");

    // The mapper now fails permanently (set_plan also un-wedges it).
    s.faulty_files.set_plan(FaultPlan {
        permanent_per_mille: 1000,
        ..FaultPlan::quiet(3)
    });

    // Fault page 4: its tail (pages 5..8) queues behind the parked
    // request (in-flight cap 1); the sync head's permanent failure
    // quarantines the cache mid-flight.
    let err = pvm
        .vm_read(ctx, VirtAddr(base + 4 * PS), &mut byte)
        .unwrap_err();
    assert!(!err.is_transient(), "{err}");

    // A faulter on the queued tail range observes the quarantine
    // promptly instead of sleeping behind the hung request.
    let err = pvm
        .vm_read(ctx, VirtAddr(base + 5 * PS), &mut byte)
        .unwrap_err();
    assert!(matches!(err, GmiError::CachePoisoned(_)), "{err}");
    let t = pvm.cost_model().now().nanos();
    assert!(t < HOUR, "faulter waited on the hung reply: {t} ns");
    let stats = pvm.stats();
    assert_eq!(stats.async_pending_failed, 1, "{stats:?}");
    assert_eq!(stats.quarantined_caches, 1, "{stats:?}");

    pvm.drain_upcalls();
    pvm.check_invariants();
}

#[test]
fn backpressure_throttles_faulters_at_the_pending_pull_bound() {
    let s = stack(16, hang_plan(0), FaultPlan::quiet(2), |c| {
        pressure_knobs(c);
        c.max_inflight_upcalls = 1;
        c.max_pending_pulls = 1;
        c.upcall_watchdog = true;
        c.suspect_after_timeouts = 10;
        c.quarantine_after_timeouts = 10;
    });
    let pvm = &s.pvm;
    let (ctx, _cache, init) = file_region(&s, 12, 0x10_0000);
    let base = 0x10_0000u64;
    let mut byte = [0u8; 1];

    // Saturate: one parked in-flight pull (pages 1..4), one pending
    // pull queued behind it (pages 5..8).
    let err = pvm.vm_read(ctx, VirtAddr(base), &mut byte).unwrap_err();
    assert!(err.is_transient(), "{err}");
    let err = pvm
        .vm_read(ctx, VirtAddr(base + 4 * PS), &mut byte)
        .unwrap_err();
    assert!(err.is_transient(), "{err}");

    // The third faulter hits the bound: it is throttled, and the stall
    // force-delivers (cancels) the parked request to drain the queue
    // forward rather than merely sleeping.
    let err = pvm
        .vm_read(ctx, VirtAddr(base + 8 * PS), &mut byte)
        .unwrap_err();
    assert!(err.is_transient(), "{err}");
    let stats = pvm.stats();
    assert_eq!(stats.throttle_stalls, 1, "{stats:?}");
    assert_eq!(stats.watchdog_cancels, 1, "{stats:?}");
    let t = pvm.cost_model().now().nanos();
    assert!(
        t < HOUR,
        "throttled faulter waited for the hung reply: {t} ns"
    );

    // Heal; the drained pipeline recovers and every byte reads back.
    s.faulty_files.set_plan(FaultPlan::quiet(2));
    pvm.drain_upcalls();
    let mut got = vec![0u8; (12 * PS) as usize];
    pvm.vm_read(ctx, VirtAddr(base), &mut got).unwrap();
    assert_eq!(got, init);
    assert!(pvm.cost_model().now().nanos() < HOUR);
    pvm.check_invariants();
}

#[test]
fn emergency_reserve_fences_ordinary_allocations_but_feeds_fill_up() {
    let s = stack(4, FaultPlan::quiet(1), FaultPlan::quiet(2), |c| {
        c.emergency_reserve_frames = 2;
    });
    let pvm = &s.pvm;
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(0x10_0000), 8 * PS, Prot::RW, cache, 0)
        .unwrap();
    // Ordinary (zero-fill) allocations never dip below the reserve:
    // page replacement runs early and squeezes the anonymous working
    // set into the unreserved frames.
    for p in 0..8u64 {
        pvm.vm_write(ctx, VirtAddr(0x10_0000 + p * PS), &[p as u8])
            .unwrap();
    }
    assert_eq!(
        pvm.free_frames(),
        2,
        "ordinary allocations breached the reserve"
    );

    // Reclaim-critical work -- `fillUp` landing pulled data -- may draw
    // from the reserve, closing the regress where freeing frames itself
    // needs a frame.
    let init: Vec<u8> = (0..PS as usize).map(|k| (k as u8) ^ 0x5A).collect();
    let cap = s.files.create_segment(&init);
    let seg = s.seg_mgr.segment_for(cap);
    let cache_f = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(0x20_0000), PS, Prot::READ, cache_f, 0)
        .unwrap();
    let mut got = vec![0u8; PS as usize];
    pvm.vm_read(ctx, VirtAddr(0x20_0000), &mut got).unwrap();
    assert_eq!(got, init);
    let stats = pvm.stats();
    assert!(stats.reserve_grants >= 1, "{stats:?}");
    assert!(pvm.free_frames() < 2, "fillUp did not use the reserve");
    pvm.check_invariants();
}

/// The OOM scenario: every frame pinned by two contexts (the victim
/// with six locked dirty pages, the survivor with two), then a third
/// context faults. Reclaim can make no progress, so the killer must
/// reclaim exactly one context -- the largest footprint.
fn oom_scenario() -> (u64, chorus_pvm::PvmStats, Vec<u8>) {
    let s = stack(8, FaultPlan::quiet(1), FaultPlan::quiet(2), |c| {
        c.oom_killer = true;
    });
    let pvm = &s.pvm;
    let ctx1 = pvm.context_create().unwrap();
    let cache1 = pvm.cache_create(None).unwrap();
    let r1 = pvm
        .region_create(ctx1, VirtAddr(0x10_0000), 6 * PS, Prot::RW, cache1, 0)
        .unwrap();
    pvm.region_lock_in_memory(r1).unwrap();

    let ctx2 = pvm.context_create().unwrap();
    let cache2 = pvm.cache_create(None).unwrap();
    let r2 = pvm
        .region_create(ctx2, VirtAddr(0x20_0000), 2 * PS, Prot::RW, cache2, 0)
        .unwrap();
    let keep: Vec<u8> = (0..2 * PS as usize)
        .map(|k| (k as u8).wrapping_mul(31).wrapping_add(7))
        .collect();
    pvm.vm_write(ctx2, VirtAddr(0x20_0000), &keep).unwrap();
    pvm.region_lock_in_memory(r2).unwrap();
    assert_eq!(pvm.free_frames(), 0, "setup must exhaust the pool");

    // Third context: a file-backed read needs a frame.
    let init: Vec<u8> = (0..PS as usize).map(|k| (k as u8) ^ 0x5A).collect();
    let cap = s.files.create_segment(&init);
    let seg = s.seg_mgr.segment_for(cap);
    let cache3 = pvm.cache_create(Some(seg)).unwrap();
    let ctx3 = pvm.context_create().unwrap();
    pvm.region_create(ctx3, VirtAddr(0x30_0000), PS, Prot::READ, cache3, 0)
        .unwrap();
    let mut got = vec![0u8; PS as usize];
    pvm.vm_read(ctx3, VirtAddr(0x30_0000), &mut got).unwrap();
    assert_eq!(got, init, "the fault that triggered the kill must complete");

    // The victim's handle reports the kill, not a bare missing context.
    let err = pvm
        .vm_read(ctx1, VirtAddr(0x10_0000), &mut [0u8; 1])
        .unwrap_err();
    assert!(
        matches!(err, GmiError::ContextKilled(id) if id == ctx1),
        "{err}"
    );

    // Differential check: the survivor's locked pages are untouched.
    let mut back = vec![0u8; keep.len()];
    pvm.vm_read(ctx2, VirtAddr(0x20_0000), &mut back).unwrap();
    assert_eq!(back, keep, "survivor's pages corrupted by the kill");
    let st = pvm.region_status(r2).unwrap();
    assert!(st.locked);
    assert_eq!(st.resident_pages, 2);
    pvm.check_invariants();
    (pvm.cost_model().now().nanos(), pvm.stats(), back)
}

#[test]
fn oom_killer_reclaims_exactly_one_deterministic_victim() {
    let (t1, stats1, back1) = oom_scenario();
    assert_eq!(stats1.oom_kills, 1, "{stats1:?}");
    // Bit-identical repeat: same victim, same clock, same counters.
    let (t2, stats2, back2) = oom_scenario();
    assert_eq!(t1, t2, "simulated time diverged across identical runs");
    assert_eq!(stats1, stats2, "counters diverged across identical runs");
    assert_eq!(back1, back2);
}
