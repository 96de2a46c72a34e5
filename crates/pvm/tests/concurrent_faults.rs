//! Multi-threaded fault stress: concurrent faulting, eviction, unmap
//! and cache control against one PVM instance, under a frame pool small
//! enough that page replacement runs continuously. Invariants are
//! checked after quiescing (they take the state lock, so checking every
//! op would serialize the very races under test), and a byte oracle
//! verifies that no write was lost and no read saw foreign data.

mod common;

use chorus_gmi::{Access, Gmi, GmiError, Prot, VirtAddr};
use common::*;
use std::sync::{Arc, Barrier};

const THREADS: usize = 4;
const PAGES_PER_THREAD: u64 = 8;
const ROUNDS: u8 = 30;

/// Each thread owns a disjoint page range of one shared cache, mapped
/// through its own context, and rewrites/rereads it while a chaos
/// thread syncs and flushes the cache and churns scratch regions. The
/// 24-frame pool is smaller than the 32-page working set, so faults,
/// evictions and pull-ins interleave constantly.
#[test]
fn threads_hammer_shared_cache_under_tiny_pool() {
    let (pvm, _mgr) = setup_with(24, |o| o.config.check_invariants = false);
    let cache = pvm.cache_create(None).unwrap();
    let total = THREADS as u64 * PAGES_PER_THREAD;
    let base = 0x1_0000u64;

    let ctxs: Vec<_> = (0..THREADS)
        .map(|_| {
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(base), total * PS, Prot::RW, cache, 0)
                .unwrap();
            ctx
        })
        .collect();

    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let mut handles = Vec::new();
    for (t, &ctx) in ctxs.iter().enumerate() {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let lo = base + t as u64 * PAGES_PER_THREAD * PS;
            for round in 0..ROUNDS {
                let tag = (t as u8) << 5 | round;
                for p in 0..PAGES_PER_THREAD {
                    write(&pvm, ctx, lo + p * PS, &pattern(tag, PS as usize));
                }
                for p in 0..PAGES_PER_THREAD {
                    assert_eq!(
                        read(&pvm, ctx, lo + p * PS, PS as usize),
                        pattern(tag, PS as usize),
                        "thread {t} page {p} round {round}: lost or foreign bytes"
                    );
                }
            }
        }));
    }

    // Chaos: cache sync/flush plus scratch region create/write/destroy,
    // all racing the faulting threads. Control operations may refuse
    // transiently (pages pinned mid-fault); only the workers' byte
    // oracle and the final invariant sweep define correctness.
    let chaos = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..u64::from(ROUNDS) * 4 {
                let _ = pvm.cache_sync(cache, 0, total * PS);
                if i % 3 == 0 {
                    let _ = pvm.cache_flush(cache, (i % total) * PS, PS);
                }
                let (ctx, region, scratch) = anon_region(&pvm, 2);
                write(&pvm, ctx, 0x1_0000, &pattern(0xEE, PS as usize));
                pvm.region_destroy(region).unwrap();
                pvm.cache_destroy(scratch).unwrap();
                pvm.context_destroy(ctx).unwrap();
            }
        })
    };

    for h in handles {
        h.join().expect("worker thread");
    }
    chaos.join().expect("chaos thread");

    pvm.check_invariants();

    // Final oracle: every partition still holds its last-round pattern,
    // readable through any context.
    for (t, &ctx) in ctxs.iter().enumerate() {
        let tag = (t as u8) << 5 | (ROUNDS - 1);
        let lo = base + t as u64 * PAGES_PER_THREAD * PS;
        for p in 0..PAGES_PER_THREAD {
            assert_eq!(
                read(&pvm, ctx, lo + p * PS, PS as usize),
                pattern(tag, PS as usize),
                "thread {t} page {p}: final bytes diverged"
            );
        }
    }
}

/// The writeback-vs-eviction race: the watermark daemon launders dirty
/// runs in clustered batches while worker threads rewrite those same
/// pages and a chaos thread flushes them mid-batch. A page can be
/// invalidated between the batched pushOut upcall and its copyBack
/// (the short-run protocol then retries the tail page by page), and a
/// page rewritten while its batch is in flight must come out of
/// `finish_clean` still dirty. The byte oracle is the referee: no
/// rewrite may be lost to a stale batch landing after it.
#[test]
fn clustered_writeback_races_flushes_without_losing_writes() {
    let (pvm, _mgr) = setup_with(24, |o| {
        o.config.check_invariants = false;
        o.config.push_cluster_pages = 4;
        o.config.writeback_low_frames = 8;
        o.config.writeback_high_frames = 12;
    });
    let cache = pvm.cache_create(None).unwrap();
    let total = THREADS as u64 * PAGES_PER_THREAD;
    let base = 0x1_0000u64;

    let ctxs: Vec<_> = (0..THREADS)
        .map(|_| {
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(base), total * PS, Prot::RW, cache, 0)
                .unwrap();
            ctx
        })
        .collect();

    // Deterministic pressure before the race: one thread dirties every
    // page of the 32-page working set through the 24-frame pool, so
    // free frames fall under the low watermark and the daemon wakes
    // however the racing threads interleave later.
    for (t, &ctx) in ctxs.iter().enumerate() {
        let lo = base + t as u64 * PAGES_PER_THREAD * PS;
        for p in 0..PAGES_PER_THREAD {
            write(
                &pvm,
                ctx,
                lo + p * PS,
                &pattern((t as u8) << 5, PS as usize),
            );
        }
    }

    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let mut handles = Vec::new();
    for (t, &ctx) in ctxs.iter().enumerate() {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let lo = base + t as u64 * PAGES_PER_THREAD * PS;
            for round in 0..ROUNDS {
                let tag = (t as u8) << 5 | round;
                for p in 0..PAGES_PER_THREAD {
                    write(&pvm, ctx, lo + p * PS, &pattern(tag, PS as usize));
                }
                for p in 0..PAGES_PER_THREAD {
                    assert_eq!(
                        read(&pvm, ctx, lo + p * PS, PS as usize),
                        pattern(tag, PS as usize),
                        "thread {t} page {p} round {round}: lost or foreign bytes"
                    );
                }
            }
        }));
    }

    // Chaos: flush pages out from under in-flight laundering batches.
    let chaos = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..u64::from(ROUNDS) * 8 {
                let _ = pvm.cache_flush(cache, (i % total) * PS, 2 * PS);
                if i % 5 == 0 {
                    let _ = pvm.cache_sync(cache, 0, total * PS);
                }
            }
        })
    };

    for h in handles {
        h.join().expect("worker thread");
    }
    chaos.join().expect("chaos thread");
    pvm.check_invariants();

    let stats = pvm.stats();
    assert!(
        stats.push_out_batches > 0,
        "clustered writeback never completed a batch"
    );
    assert!(
        stats.launder_passes > 0,
        "the watermark daemon never woke despite sustained pressure"
    );

    // Final oracle: every partition holds its last-round pattern.
    for (t, &ctx) in ctxs.iter().enumerate() {
        let tag = (t as u8) << 5 | (ROUNDS - 1);
        let lo = base + t as u64 * PAGES_PER_THREAD * PS;
        for p in 0..PAGES_PER_THREAD {
            assert_eq!(
                read(&pvm, ctx, lo + p * PS, PS as usize),
                pattern(tag, PS as usize),
                "thread {t} page {p}: final bytes diverged"
            );
        }
    }
}

/// The fast-path-vs-eviction race: one thread satisfies soft faults
/// lock-free on mapped pages while another keeps flushing the cache out
/// from under it. A hit may only happen while the MMU mapping is live
/// (flush removes the fast entries under the state mutex before the
/// mapping dies), so every lock-free answer is correct, and the faulter
/// must transparently re-pull flushed pages via the slow path.
#[test]
fn fast_path_survives_eviction_races() {
    let (pvm, mgr) = setup_with(12, |o| o.config.check_invariants = false);
    const PAGES: u64 = 4;
    let seg = mgr.create_segment(&pattern(7, (PAGES * PS) as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    let base = 0x2_0000u64;
    pvm.region_create(ctx, VirtAddr(base), PAGES * PS, Prot::READ, cache, 0)
        .unwrap();

    let barrier = Arc::new(Barrier::new(2));
    let faulter = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..4_000u64 {
                let va = VirtAddr(base + (i % PAGES) * PS);
                // vm_read maps the page if needed; the direct
                // handle_fault then exercises the lock-free check on a
                // (usually) mapped page.
                let mut b = [0u8; 2];
                pvm.vm_read(ctx, va, &mut b).unwrap();
                assert_eq!(
                    b[0],
                    7u8.wrapping_add((((i % PAGES) * PS) % 256) as u8),
                    "flushed page came back with wrong bytes"
                );
                pvm.handle_fault(ctx, va, Access::Read).unwrap();
            }
        })
    };
    let evictor = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..1_000u64 {
                // Flush may refuse while a pull pins the page; keep going.
                let _ = pvm.cache_flush(cache, (i % PAGES) * PS, PS);
            }
        })
    };
    faulter.join().expect("faulter");
    evictor.join().expect("evictor");

    let stats = pvm.stats();
    assert!(
        stats.fast_path_hits > 0,
        "the lock-free path never hit despite mapped re-faults"
    );
    assert!(
        stats.fast_path_fallbacks > 0,
        "flushes should force some slow-path faults"
    );
    pvm.check_invariants();
}

/// The promotion-vs-demotion race: worker threads densely rewrite
/// large-aligned runs (driving promotions) under a pool too small for
/// the combined working set (driving eviction-side demotions), while a
/// chaos thread syncs the cache (cleaning-side demotions) and re-reads
/// through the fast path. A stale large mapping would either satisfy a
/// write after its page moved (lost update) or translate to a recycled
/// frame (foreign bytes) — the byte oracle catches both, and the final
/// invariant sweep cross-checks every surviving promotion record
/// against the global map and the MMU.
#[test]
fn promotion_races_eviction_and_cleaning() {
    const FACTOR: u64 = 4;
    const RUNS_PER_THREAD: u64 = 2;
    let (pvm, _mgr) = setup_with(24, |o| {
        o.config.check_invariants = false;
        o.config.large_pages = true;
        o.config.promote_threshold_pages = FACTOR;
    });
    let cache = pvm.cache_create(None).unwrap();
    let pages_per_thread = RUNS_PER_THREAD * FACTOR;
    let total = THREADS as u64 * pages_per_thread;
    let base = 0x1_0000u64;

    let ctxs: Vec<_> = (0..THREADS)
        .map(|_| {
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(base), total * PS, Prot::RW, cache, 0)
                .unwrap();
            ctx
        })
        .collect();

    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let mut handles = Vec::new();
    for (t, &ctx) in ctxs.iter().enumerate() {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let lo = base + t as u64 * pages_per_thread * PS;
            for round in 0..ROUNDS {
                let tag = (t as u8) << 5 | round;
                // Dense sequential pass over whole aligned runs: each
                // completed run is a promotion candidate.
                for p in 0..pages_per_thread {
                    write(&pvm, ctx, lo + p * PS, &pattern(tag, PS as usize));
                }
                for p in 0..pages_per_thread {
                    assert_eq!(
                        read(&pvm, ctx, lo + p * PS, PS as usize),
                        pattern(tag, PS as usize),
                        "thread {t} page {p} round {round}: stale large mapping leaked bytes"
                    );
                }
            }
        }));
    }

    // Chaos: cleaning passes demote promoted runs mid-write, flushes
    // tear whole runs out, forcing re-pull + re-promotion.
    let chaos = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..u64::from(ROUNDS) * 6 {
                let _ = pvm.cache_sync(cache, 0, total * PS);
                if i % 4 == 0 {
                    let _ = pvm.cache_flush(cache, (i % total) * PS, FACTOR * PS);
                }
            }
        })
    };

    for h in handles {
        h.join().expect("worker thread");
    }
    chaos.join().expect("chaos thread");
    pvm.check_invariants();

    let stats = pvm.stats();
    assert!(
        stats.large_promotions > 0,
        "dense aligned rewrites never promoted a run"
    );
    assert!(
        stats.large_demotions > 0,
        "sustained sync/flush/eviction pressure never demoted a run"
    );

    // Final oracle: every partition holds its last-round pattern.
    for (t, &ctx) in ctxs.iter().enumerate() {
        let tag = (t as u8) << 5 | (ROUNDS - 1);
        let lo = base + t as u64 * pages_per_thread * PS;
        for p in 0..pages_per_thread {
            assert_eq!(
                read(&pvm, ctx, lo + p * PS, PS as usize),
                pattern(tag, PS as usize),
                "thread {t} page {p}: final bytes diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// `parallel_faults` knob-on: the striped driver under cross-domain races.
// Each test builds its PVM with the knob on, so hard faults on disjoint
// caches take per-cache fault stripes and the parallel landing protocol
// fills frames off the state lock. The byte oracles are unchanged from
// the knob-off tests above: the decomposition must be invisible except
// in the lock counters.
// ---------------------------------------------------------------------

/// Concurrent hard faults on disjoint caches through the striped
/// driver: every thread owns its own file-backed cache and pulls a cold
/// working set while the others do the same. The stripes must engage
/// (one acquisition per striped hard fault), the pulls must land, and
/// every byte must come from the faulting thread's own segment.
#[test]
fn parallel_hard_faults_on_disjoint_caches() {
    const PAGES: u64 = 16;
    let (pvm, mgr) = setup_with(PAGES as u32 * THREADS as u32 + 8, |o| {
        o.config.check_invariants = false;
        o.config.parallel_faults = true;
    });
    let base = 0x4_0000u64;
    let mut ctxs = Vec::new();
    for t in 0..THREADS {
        let seg = mgr.create_segment(&pattern(0x40 | t as u8, (PAGES * PS) as usize));
        let cache = pvm.cache_create(Some(seg)).unwrap();
        let ctx = pvm.context_create().unwrap();
        pvm.region_create(ctx, VirtAddr(base), PAGES * PS, Prot::READ, cache, 0)
            .unwrap();
        ctxs.push(ctx);
    }

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = ctxs
        .iter()
        .enumerate()
        .map(|(t, &ctx)| {
            let pvm = Arc::clone(&pvm);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let want = pattern(0x40 | t as u8, (PAGES * PS) as usize);
                for p in 0..PAGES {
                    assert_eq!(
                        read(&pvm, ctx, base + p * PS, PS as usize),
                        want[(p * PS) as usize..((p + 1) * PS) as usize],
                        "thread {t} page {p}: foreign bytes through the striped driver"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("faulting thread");
    }

    let stats = pvm.stats();
    assert!(
        stats.cache_stripe_acqs >= THREADS as u64 * PAGES,
        "striped driver never engaged: {} stripe acquisitions",
        stats.cache_stripe_acqs
    );
    assert!(stats.pull_ins > 0, "cold reads must pull from the mappers");
    pvm.check_invariants();
}

/// Striped hard faults vs eviction: two caches' working sets overcommit
/// a tiny pool, so every round's re-faults race page replacement
/// stealing frames from the *other* cache (stripe held on one cache,
/// victim pages on another — the cross-domain case the lock order must
/// survive). A chaos thread flushes pages out from under both.
#[test]
fn parallel_faults_race_eviction_across_caches() {
    const WORKERS: usize = 2;
    const PAGES: u64 = 8;
    const SPINS: u8 = 20;
    let (pvm, mgr) = setup_with(12, |o| {
        o.config.check_invariants = false;
        o.config.parallel_faults = true;
    });
    let base = 0x1_0000u64;
    // Segment-backed caches: eviction pushes dirty pages to the mapper
    // and the re-fault pulls them back, so `pull_ins` witnesses the
    // evict/re-pull cycle (anonymous caches never pull).
    let setups: Vec<_> = (0..WORKERS)
        .map(|_| {
            let seg = mgr.create_segment(&vec![0u8; (PAGES * PS) as usize]);
            let cache = pvm.cache_create(Some(seg)).unwrap();
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(base), PAGES * PS, Prot::RW, cache, 0)
                .unwrap();
            (ctx, cache)
        })
        .collect();

    let barrier = Arc::new(Barrier::new(WORKERS + 1));
    let mut handles = Vec::new();
    for (t, &(ctx, _)) in setups.iter().enumerate() {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for round in 0..SPINS {
                let tag = (t as u8) << 5 | round;
                for p in 0..PAGES {
                    write(&pvm, ctx, base + p * PS, &pattern(tag, PS as usize));
                }
                for p in 0..PAGES {
                    assert_eq!(
                        read(&pvm, ctx, base + p * PS, PS as usize),
                        pattern(tag, PS as usize),
                        "thread {t} page {p} round {round}: eviction lost a write"
                    );
                }
            }
        }));
    }
    let chaos = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        let caches: Vec<_> = setups.iter().map(|&(_, c)| c).collect();
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..u64::from(SPINS) * 6 {
                let cache = caches[(i % caches.len() as u64) as usize];
                let _ = pvm.cache_flush(cache, (i % PAGES) * PS, PS);
                if i % 5 == 0 {
                    let _ = pvm.cache_sync(cache, 0, PAGES * PS);
                }
            }
        })
    };
    for h in handles {
        h.join().expect("worker thread");
    }
    chaos.join().expect("chaos thread");

    let stats = pvm.stats();
    assert!(stats.cache_stripe_acqs > 0, "striped driver never engaged");
    assert!(
        stats.pull_ins > 0,
        "an overcommitted pool must evict and re-pull"
    );
    pvm.check_invariants();

    // Final oracle: each cache holds its thread's last-round pattern.
    for (t, &(ctx, _)) in setups.iter().enumerate() {
        let tag = (t as u8) << 5 | (SPINS - 1);
        for p in 0..PAGES {
            assert_eq!(
                read(&pvm, ctx, base + p * PS, PS as usize),
                pattern(tag, PS as usize),
                "thread {t} page {p}: final bytes diverged"
            );
        }
    }
}

/// Striped hard faults vs the OOM killer: two locked contexts pin the
/// whole pool, then two threads hard-fault concurrently on disjoint
/// file-backed caches. Reclaim cannot progress, so the killer must
/// reclaim the largest locked footprint mid-fault — while both faulting
/// threads hold their cache stripes — and both faults must then
/// complete with correct bytes.
#[test]
fn parallel_faults_race_oom_kill() {
    let (pvm, mgr) = setup_with(8, |o| {
        o.config.check_invariants = false;
        o.config.parallel_faults = true;
        o.config.oom_killer = true;
    });

    // Victim: six locked dirty pages. Survivor: two locked pages whose
    // bytes must come through the kill untouched.
    let victim = pvm.context_create().unwrap();
    let vcache = pvm.cache_create(None).unwrap();
    let vr = pvm
        .region_create(victim, VirtAddr(0x10_0000), 6 * PS, Prot::RW, vcache, 0)
        .unwrap();
    write(&pvm, victim, 0x10_0000, &pattern(0xA1, 6 * PS as usize));
    pvm.region_lock_in_memory(vr).unwrap();

    let survivor = pvm.context_create().unwrap();
    let scache = pvm.cache_create(None).unwrap();
    let sr = pvm
        .region_create(survivor, VirtAddr(0x20_0000), 2 * PS, Prot::RW, scache, 0)
        .unwrap();
    let keep = pattern(0xB2, 2 * PS as usize);
    write(&pvm, survivor, 0x20_0000, &keep);
    pvm.region_lock_in_memory(sr).unwrap();
    assert_eq!(pvm.free_frames(), 0, "setup must exhaust the pool");

    // Two concurrent hard faults on disjoint caches, each needing a
    // frame only a kill can free.
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = (0..2u8)
        .map(|t| {
            let seg = mgr.create_segment(&pattern(0xC0 | t, PS as usize));
            let cache = pvm.cache_create(Some(seg)).unwrap();
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(0x30_0000), PS, Prot::READ, cache, 0)
                .unwrap();
            let pvm = Arc::clone(&pvm);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                assert_eq!(
                    read(&pvm, ctx, 0x30_0000, PS as usize),
                    pattern(0xC0 | t, PS as usize),
                    "the fault that triggered the kill must complete correctly"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().expect("faulting thread");
    }

    let stats = pvm.stats();
    assert!(stats.oom_kills >= 1, "{stats:?}");
    assert!(stats.cache_stripe_acqs > 0, "striped driver never engaged");
    let err = pvm
        .vm_read(victim, VirtAddr(0x10_0000), &mut [0u8; 1])
        .unwrap_err();
    assert!(
        matches!(err, GmiError::ContextKilled(id) if id == victim),
        "{err}"
    );
    let mut back = vec![0u8; keep.len()];
    pvm.vm_read(survivor, VirtAddr(0x20_0000), &mut back)
        .unwrap();
    assert_eq!(back, keep, "survivor's locked pages corrupted by the kill");
    pvm.check_invariants();
}

/// Striped hard faults vs large-page promotion and demotion: two
/// threads on disjoint caches densely rewrite aligned runs (driving
/// promotions through the buddy allocator's reserved-run path of the
/// parallel fill) under a pool too small for both working sets
/// (eviction-side demotions), while a chaos thread syncs and flushes
/// (cleaning-side demotions). A stale large mapping surviving a
/// demotion would leak foreign bytes across caches.
#[test]
fn parallel_faults_race_promotion_and_demotion() {
    const WORKERS: usize = 2;
    const FACTOR: u64 = 4;
    const RUNS_PER_WORKER: u64 = 2;
    const SPINS: u8 = 20;
    let pages = RUNS_PER_WORKER * FACTOR;
    let (pvm, _mgr) = setup_with(12, |o| {
        o.config.check_invariants = false;
        o.config.parallel_faults = true;
        o.config.large_pages = true;
        o.config.promote_threshold_pages = FACTOR;
    });
    let base = 0x1_0000u64;
    let setups: Vec<_> = (0..WORKERS)
        .map(|_| {
            let cache = pvm.cache_create(None).unwrap();
            let ctx = pvm.context_create().unwrap();
            pvm.region_create(ctx, VirtAddr(base), pages * PS, Prot::RW, cache, 0)
                .unwrap();
            (ctx, cache)
        })
        .collect();

    let barrier = Arc::new(Barrier::new(WORKERS + 1));
    let mut handles = Vec::new();
    for (t, &(ctx, _)) in setups.iter().enumerate() {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for round in 0..SPINS {
                let tag = (t as u8) << 5 | round;
                for p in 0..pages {
                    write(&pvm, ctx, base + p * PS, &pattern(tag, PS as usize));
                }
                for p in 0..pages {
                    assert_eq!(
                        read(&pvm, ctx, base + p * PS, PS as usize),
                        pattern(tag, PS as usize),
                        "thread {t} page {p} round {round}: stale large mapping leaked bytes"
                    );
                }
            }
        }));
    }
    let chaos = {
        let pvm = Arc::clone(&pvm);
        let barrier = Arc::clone(&barrier);
        let caches: Vec<_> = setups.iter().map(|&(_, c)| c).collect();
        std::thread::spawn(move || {
            barrier.wait();
            for i in 0..u64::from(SPINS) * 4 {
                let cache = caches[(i % caches.len() as u64) as usize];
                let _ = pvm.cache_sync(cache, 0, pages * PS);
                if i % 4 == 0 {
                    let _ = pvm.cache_flush(cache, (i % pages) * PS, FACTOR * PS);
                }
            }
        })
    };
    for h in handles {
        h.join().expect("worker thread");
    }
    chaos.join().expect("chaos thread");

    let stats = pvm.stats();
    assert!(stats.cache_stripe_acqs > 0, "striped driver never engaged");
    assert!(
        stats.large_promotions > 0,
        "dense aligned rewrites never promoted a run"
    );
    assert!(
        stats.large_demotions > 0,
        "sync/flush/eviction pressure never demoted a run"
    );
    pvm.check_invariants();

    // Final oracle: each cache holds its thread's last-round pattern.
    for (t, &(ctx, _)) in setups.iter().enumerate() {
        let tag = (t as u8) << 5 | (SPINS - 1);
        for p in 0..pages {
            assert_eq!(
                read(&pvm, ctx, base + p * PS, PS as usize),
                pattern(tag, PS as usize),
                "thread {t} page {p}: final bytes diverged"
            );
        }
    }
}
