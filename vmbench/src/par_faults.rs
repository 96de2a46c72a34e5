//! `parallel_faults`: two closed-loop threads faulting their own files.
//!
//! Each thread has its own actor and its own 256-page file segment
//! mapped read-only, with frames for both. One unit op is one thread's
//! round: hard-fault every page (`handle_fault`, then pullIn), check
//! the pulled bytes, make 16 soft re-fault passes, and end with
//! `cache_invalidate`. It is the only workload where the fault fast
//! path, the shared counters, the lock domains and the gmap shards are
//! contended; there is no pageout and no history work. Runs must be
//! long: sub-second runs of this pattern are bimodal.

use crate::gen::{Digest, Rng};
use crate::run::{Client, Outcome, Setup};
use crate::world::{Front, World};
use chorus_gmi::{Access, CacheId, CtxId, Prot, VirtAddr};
use std::sync::Arc;
use std::time::Instant;

pub const FRAMES: u32 = 1024;
pub const THREADS: usize = 2;
const PAGE: u64 = 8192;
const SEG_PAGES: u64 = 256;
const SOFT_PASSES: usize = 16;
const ORDERS: usize = 4;
const EXTRA_CHECKS: u64 = 64;
const BASE: VirtAddr = VirtAddr(1 << 32);

/// One thread's generated inputs: page orders for its rounds and the
/// `(page, word)` checks made after each hard-fault pass — every page
/// once, plus a seeded number of extra checks on random pages.
fn orders(seed: u64, t: usize) -> (Vec<Vec<u32>>, Vec<(u32, u16)>) {
    let mut rng = Rng::new(seed, 0x30 + t as u64);
    let orders = (0..ORDERS)
        .map(|_| {
            let mut o: Vec<u32> = (0..SEG_PAGES as u32).collect();
            rng.shuffle(&mut o);
            o
        })
        .collect();
    let extra = rng.below(EXTRA_CHECKS + 1);
    let pages: Vec<u64> = (0..SEG_PAGES)
        .chain((0..extra).map(|_| rng.below(SEG_PAGES)))
        .collect();
    let checks = pages
        .into_iter()
        .map(|p| (p as u32, rng.below(PAGE / 8) as u16))
        .collect();
    (orders, checks)
}

pub fn input_digest(seed: u64) -> u64 {
    let mut d = Digest::new();
    for t in 0..THREADS {
        let (orders, checks) = orders(seed, t);
        for p in orders.iter().flatten() {
            d.word(u64::from(*p));
        }
        for (p, w) in checks {
            d.word(u64::from(p) << 16 | u64::from(w));
        }
    }
    d.0
}

struct Faulter<G: Front> {
    gmi: Arc<G>,
    ctx: CtxId,
    cache: CacheId,
    orders: Vec<Vec<u32>>,
    checks: Vec<(u32, u16)>,
    content: Vec<u8>,
}

pub fn setup<G: Front>(seed: u64) -> Setup<G> {
    let world = World::<G>::new(FRAMES);
    let mut gen_ns = 0;
    let mut clients: Vec<Box<dyn crate::run::Client>> = Vec::new();
    for t in 0..THREADS {
        let g0 = Instant::now();
        let (orders, checks) = orders(seed, t);
        gen_ns += g0.elapsed().as_nanos() as u64;
        let mut content = vec![0u8; (SEG_PAGES * PAGE) as usize];
        Rng::new(seed, 0x40 + t as u64).fill(&mut content);
        let cap = world.files.create_segment(&content);
        let nucleus = &world.nucleus;
        let actor = nucleus.actor_create().expect("create a faulting actor");
        let region = nucleus
            .rgn_map(actor, BASE, SEG_PAGES * PAGE, Prot::READ, cap, 0)
            .expect("map the file read-only");
        let gmi = nucleus.gmi().clone();
        let cache = gmi.region_status(region).expect("region status").cache;
        clients.push(Box::new(Faulter {
            ctx: nucleus.ctx(actor).expect("actor context"),
            gmi,
            cache,
            orders,
            checks,
            content,
        }));
    }
    Setup {
        world,
        clients,
        gen_ns,
        gen_ops: (THREADS * ORDERS) as u64,
    }
}

impl<G: Front> Faulter<G> {
    fn va(page: u32) -> VirtAddr {
        VirtAddr(BASE.0 + u64::from(page) * PAGE)
    }

    fn round(&self, i: u64) -> Result<Outcome, String> {
        let order = &self.orders[i as usize % ORDERS];
        let fault = |p: u32| {
            self.gmi
                .handle_fault(self.ctx, Self::va(p), Access::Read)
                .map_err(|e| format!("handle_fault: {e}"))
        };
        for &p in order {
            fault(p)?;
        }
        let mut out = Outcome::Ok;
        for &(p, w) in &self.checks {
            let off = p as usize * PAGE as usize + usize::from(w) * 8;
            let mut got = [0u8; 8];
            self.gmi
                .vm_read(self.ctx, VirtAddr(BASE.0 + off as u64), &mut got)
                .map_err(|e| format!("vm_read: {e}"))?;
            if got[..] != self.content[off..off + 8] {
                out = Outcome::Wrong(format!("pulled bytes of page {p}"));
            }
        }
        for _ in 0..SOFT_PASSES {
            for &p in order {
                fault(p)?;
            }
        }
        self.gmi
            .cache_invalidate(self.cache, 0, SEG_PAGES * PAGE)
            .map_err(|e| format!("cache_invalidate: {e}"))?;
        Ok(out)
    }
}

impl<G: Front> Client for Faulter<G> {
    fn op(&mut self, i: u64) -> Outcome {
        self.round(i).unwrap_or_else(Outcome::Error)
    }

    fn written_bytes(&self) -> u64 {
        0
    }
}
