//! Structural invariant checking and history-tree dumps.
//!
//! The checker validates every cross-structure invariant of Figure 2 and
//! §4.2 after mutating operations (when enabled); the dumps drive the
//! `figure3` bench binary and the worked examples.

use crate::descriptors::{CowSource, Slot};
use crate::keys::pub_cache;
use crate::pvm::Pvm;
use crate::state::PvmState;
use chorus_gmi::{CacheId, SegmentId};
use core::fmt;

impl PvmState {
    pub(crate) fn check_invariants_if_enabled(&self) {
        if self.config.check_invariants {
            self.check_invariants();
        }
    }

    /// Validates all structural invariants; panics on violation.
    pub(crate) fn check_invariants(&self) {
        self.check_global_map();
        self.check_caches();
        self.check_pages();
        self.check_regions();
        self.check_mapping_index();
        self.check_frames();
        self.check_clock_ring();
        self.check_fast_path();
        self.check_large_maps();
    }

    fn check_global_map(&self) {
        for ((cache, off), slot) in self.gmap.slots() {
            let c = self
                .caches
                .get(cache)
                .unwrap_or_else(|| panic!("global slot for dead cache {cache:?}"));
            assert!(
                c.entries.contains(&off),
                "slot ({cache:?},{off:#x}) missing from entry index"
            );
            match slot {
                Slot::Present(p) => {
                    let page = self.pages.get(p).expect("Present slot with dead page");
                    assert_eq!(page.cache, cache, "page back pointer mismatch");
                    assert_eq!(page.offset, off, "page offset mismatch");
                }
                Slot::Sync => {}
                Slot::Cow(CowSource::Page(p)) => {
                    let src = self.pages.get(p).expect("Cow stub points at dead page");
                    assert!(
                        src.stubs.contains(&(cache, off)),
                        "stub ({cache:?},{off:#x}) not threaded on source page"
                    );
                }
                Slot::Cow(CowSource::Loc(c2, o2)) => {
                    assert!(
                        self.gmap.loc_stub_registered(c2, o2, (cache, off)),
                        "loc stub ({cache:?},{off:#x}) not registered at ({c2:?},{o2:#x})"
                    );
                }
                Slot::Cow(CowSource::Zero) => {}
            }
        }
        for (cache, c) in self.caches.iter() {
            for &off in &c.entries {
                assert!(
                    self.gmap.get(cache, off).is_some(),
                    "entry index ({cache:?},{off:#x}) without global slot"
                );
            }
        }
        for ((c, o), list) in self.gmap.loc_stubs() {
            assert!(!list.is_empty(), "empty loc-stub list at ({c:?},{o:#x})");
            for &(dc, doff) in list {
                assert_eq!(
                    self.gmap.get(dc, doff),
                    Some(Slot::Cow(CowSource::Loc(c, o))),
                    "stale loc-stub registration"
                );
            }
        }
        for (cache, _) in self.caches.iter() {
            let scanned = self.gmap.loc_stubs().any(|((c, _), _)| c == cache);
            assert_eq!(
                self.gmap.has_loc_stubs_from(cache),
                scanned,
                "has_loc_stubs_from({cache:?}) disagrees with a full scan"
            );
        }
        let indexed: usize = self.caches.iter().map(|(_, c)| c.entries.len()).sum();
        assert_eq!(
            self.gmap.len(),
            indexed,
            "global map size != sum of cache entry indexes"
        );
    }

    /// Policy/pages bijection: every resident page is tracked by the
    /// replacement policy engine and every tracked key is a live page.
    fn check_clock_ring(&self) {
        assert_eq!(
            self.policy.tracked(),
            self.pages.len(),
            "policy tracked size != live pages"
        );
        for k in self.policy.keys() {
            assert!(self.pages.contains(k), "dead page key in policy engine");
        }
        for (k, _) in self.pages.iter() {
            assert!(
                self.policy.contains(k),
                "live page {k:?} missing from policy engine"
            );
        }
    }

    /// Every *current-generation* fast-path entry must mirror a live MMU
    /// mapping to the same frame with at least its recorded protection —
    /// the property that makes a lock-free hit safe.
    fn check_fast_path(&self) {
        for ((ctx, vpn), e) in self.fast.snapshot() {
            let Some(cd) = self.contexts.get(ctx) else {
                panic!("fast-path entry for dead context {ctx:?}");
            };
            let Some((frame, prot)) = self.mmu.query(cd.mmu_ctx, vpn) else {
                panic!("fast-path entry ({ctx:?},{vpn:?}) without MMU mapping");
            };
            assert_eq!(e.frame, frame, "fast-path frame mismatch at {vpn:?}");
            assert_eq!(
                prot.intersect(e.prot),
                e.prot,
                "fast-path entry wider than MMU protection at {vpn:?}"
            );
        }
    }

    fn check_caches(&self) {
        for (key, c) in self.caches.iter() {
            // Fragments sorted and non-overlapping.
            for w in c.parents.windows(2) {
                assert!(
                    w[0].child_end() <= w[1].child_off,
                    "{key:?}: overlapping or unsorted parent fragments"
                );
            }
            for f in &c.parents {
                assert!(f.size > 0, "{key:?}: zero-size fragment");
                let p = self
                    .caches
                    .get(f.parent)
                    .unwrap_or_else(|| panic!("{key:?}: fragment to dead parent {:?}", f.parent));
                let refs = p.children.iter().filter(|&&ch| ch == key).count();
                let frags = c.parents.iter().filter(|g| g.parent == f.parent).count();
                assert_eq!(
                    refs, frags,
                    "{key:?}: child-list count mismatch with parent {:?}",
                    f.parent
                );
            }
            if let Some(h) = c.history {
                let hist = self
                    .caches
                    .get(h)
                    .unwrap_or_else(|| panic!("{key:?}: dead history object {h:?}"));
                assert!(
                    hist.parents.iter().any(|f| f.parent == key),
                    "{key:?}: history {h:?} has no fragment from it"
                );
            }
            // Offset-level termination: the cache graph may be cyclic at
            // cache granularity (copying data back into an ancestor is
            // legal), but every *resolution walk* must terminate because
            // overwrite re-pointing removes in-range back edges. Probe
            // each fragment at its boundaries.
            for f in &c.parents {
                for probe in [f.child_off, f.child_end().saturating_sub(1)] {
                    let mut x = key;
                    let mut o = probe;
                    let bound = self.caches.len() * 4 + 4;
                    let mut steps = 0;
                    loop {
                        steps += 1;
                        assert!(
                            steps <= bound,
                            "{key:?}@{probe:#x}: non-terminating resolution walk"
                        );
                        let Some(cd) = self.caches.get(x) else { break };
                        // A present or owned slot terminates the walk.
                        if cd.owns(o) || cd.entries.contains(&o) {
                            break;
                        }
                        match cd.parent_at(o) {
                            Some(g) => {
                                o = g.to_parent(o);
                                x = g.parent;
                            }
                            None => break,
                        }
                    }
                }
            }
        }
    }

    fn check_pages(&self) {
        for (key, p) in self.pages.iter() {
            assert_eq!(
                self.gmap.get(p.cache, p.offset),
                Some(Slot::Present(key)),
                "page {key:?} not indexed in the global map"
            );
            assert_eq!(
                self.frame_owner.get(&p.frame.0),
                Some(&key),
                "frame owner mismatch"
            );
            for &(dc, doff) in &p.stubs {
                assert_eq!(
                    self.gmap.get(dc, doff),
                    Some(Slot::Cow(CowSource::Page(key))),
                    "threaded stub not pointing back at page {key:?}"
                );
            }
            for m in &p.mappings {
                let ctx = self.contexts.get(m.ctx).expect("mapping into dead context");
                let entry = self.mmu.query(ctx.mmu_ctx, m.vpn);
                assert_eq!(
                    entry.map(|(f, _)| f),
                    Some(p.frame),
                    "MMU entry mismatch for mapping of page {key:?}"
                );
            }
            if self.caches.get(p.cache).map(|c| c.owns(p.offset)) == Some(false) {
                panic!("page {key:?} resident but not owned by its cache");
            }
        }
    }

    fn check_regions(&self) {
        for (ck, c) in self.contexts.iter() {
            let mut last_end = 0u64;
            for &r in &c.regions {
                let rd = self.regions.get(r).expect("context lists dead region");
                assert_eq!(rd.ctx, ck, "region context back pointer");
                assert!(
                    rd.addr.0 >= last_end,
                    "{ck:?}: regions unsorted or overlapping"
                );
                last_end = rd.end().0;
            }
        }
        for (rk, r) in self.regions.iter() {
            assert!(
                self.caches.contains(r.cache),
                "region {rk:?} maps dead cache"
            );
            let ctx = self.contexts.get(r.ctx).expect("region in dead context");
            assert!(
                ctx.regions.contains(&rk),
                "region {rk:?} missing from its context list"
            );
        }
        for (ck, c) in self.caches.iter() {
            let mapped = self.regions.iter().filter(|(_, r)| r.cache == ck).count() as u32;
            assert_eq!(
                c.mapped_regions, mapped,
                "{ck:?}: mapped_regions count drift"
            );
        }
    }

    /// Each context's vpn index is exactly the inverse of the pages'
    /// mapping lists, and covers every base mapping its MMU context
    /// holds.
    fn check_mapping_index(&self) {
        let mut listed = 0usize;
        for (key, p) in self.pages.iter() {
            for m in &p.mappings {
                let ctx = self.contexts.get(m.ctx).expect("mapping into dead context");
                assert_eq!(
                    ctx.mapped.get(&m.vpn),
                    Some(&key),
                    "mapping ({:?},{:?}) of page {key:?} missing from the vpn index",
                    m.ctx,
                    m.vpn
                );
                listed += 1;
            }
        }
        let mut indexed = 0usize;
        for (ck, c) in self.contexts.iter() {
            assert_eq!(
                self.mmu.mapped_count(c.mmu_ctx),
                c.mapped.len(),
                "{ck:?}: MMU mapped_count != vpn index size"
            );
            indexed += c.mapped.len();
        }
        assert_eq!(listed, indexed, "vpn index holds mappings no page lists");
    }

    fn check_frames(&self) {
        assert_eq!(
            self.phys.stats().in_use as usize,
            self.pages.len() + self.reserved_frames.len() + self.landing.len(),
            "allocated frames != live pages + reserved pull frames + landing frames"
        );
        assert_eq!(
            self.frame_owner.len(),
            self.pages.len(),
            "frame_owner index drift"
        );
        for (&f, &p) in &self.frame_owner {
            assert!(
                self.phys.is_allocated(chorus_hal::FrameNo(f)),
                "frame_owner lists unallocated frame {f}"
            );
            assert!(self.pages.contains(p), "frame_owner lists dead page");
        }
        for (&(cache, off), &f) in &self.reserved_frames {
            assert!(
                self.phys.is_allocated(f),
                "reserved frame {} for ({cache:?},{off:#x}) not allocated",
                f.0
            );
            assert!(
                !self.frame_owner.contains_key(&f.0),
                "reserved frame {} already owned by a page",
                f.0
            );
        }
        for (&(cache, off), &f) in &self.landing {
            assert!(
                self.phys.is_allocated(f),
                "landing frame {} for ({cache:?},{off:#x}) not allocated",
                f.0
            );
            assert!(
                !self.frame_owner.contains_key(&f.0),
                "landing frame {} already owned by a page",
                f.0
            );
        }
    }

    /// Every promotion record must describe a live, fully resident,
    /// physically contiguous run whose large MMU mapping is installed.
    fn check_large_maps(&self) {
        let factor = self.geom.large_factor();
        let ps = self.geom.page_size();
        for rec in &self.large_maps {
            let ctx = self
                .contexts
                .get(rec.ctx)
                .unwrap_or_else(|| panic!("large map for dead context {:?}", rec.ctx));
            assert!(
                self.mmu.has_large_mapping(ctx.mmu_ctx, rec.lvpn),
                "promotion record without MMU large mapping at lvpn {}",
                rec.lvpn.0
            );
            for k in 0..factor {
                let off = rec.offset + k * ps;
                let Some(crate::descriptors::Slot::Present(p)) = self.gmap.get(rec.cache, off)
                else {
                    panic!(
                        "promoted run ({:?},{:#x}) page {k} not resident",
                        rec.cache, rec.offset
                    );
                };
                assert_eq!(
                    u64::from(self.pages.get(p).expect("promoted page dead").frame.0),
                    u64::from(rec.base_frame.0) + k,
                    "promoted run ({:?},{:#x}) not physically contiguous at page {k}",
                    rec.cache,
                    rec.offset
                );
            }
        }
    }
}

/// The state of one page slot in a dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotDump {
    /// A resident page: (writable, dirty).
    Page {
        /// May be modified in place.
        writable: bool,
        /// Modified relative to the segment.
        dirty: bool,
    },
    /// A synchronization stub.
    Sync,
    /// A per-page copy-on-write stub.
    CowStub,
}

/// Dump of one cache for inspection and rendering.
#[derive(Clone, Debug)]
pub struct CacheDump {
    /// Public id.
    pub id: CacheId,
    /// Bound segment, if any.
    pub segment: Option<SegmentId>,
    /// A working object or zombie internal node.
    pub internal: bool,
    /// Destroyed but kept for descendants.
    pub zombie: bool,
    /// The history object.
    pub history: Option<CacheId>,
    /// Parent fragments: (child_off, size, parent, parent_off, cor).
    pub parents: Vec<(u64, u64, CacheId, u64, bool)>,
    /// Resident slots: (offset, state).
    pub slots: Vec<(u64, SlotDump)>,
}

/// Dump of every cache in the PVM.
#[derive(Clone, Debug, Default)]
pub struct TreeDump {
    /// One entry per live cache.
    pub caches: Vec<CacheDump>,
}

impl TreeDump {
    /// Looks a cache up by id.
    pub fn cache(&self, id: CacheId) -> Option<&CacheDump> {
        self.caches.iter().find(|c| c.id == id)
    }
}

impl fmt::Display for TreeDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.caches {
            let kind = match (c.internal, c.zombie) {
                (true, _) => " [working/internal]",
                (false, true) => " [zombie]",
                _ => "",
            };
            writeln!(f, "{:?}{kind}", c.id)?;
            if let Some(h) = c.history {
                writeln!(f, "  history -> {h:?}")?;
            }
            for &(co, size, parent, po, cor) in &c.parents {
                let sz = if size == u64::MAX {
                    "ALL".to_string()
                } else {
                    format!("{size:#x}")
                };
                let kind = if cor { "cor" } else { "cow" };
                writeln!(f, "  [{co:#x}+{sz}] <-{kind}- {parent:?}@{po:#x}")?;
            }
            for &(off, slot) in &c.slots {
                match slot {
                    SlotDump::Page { writable, dirty } => writeln!(
                        f,
                        "  page @{off:#x} {}{}",
                        if writable { "rw" } else { "ro" },
                        if dirty { " dirty" } else { "" }
                    )?,
                    SlotDump::Sync => writeln!(f, "  sync-stub @{off:#x}")?,
                    SlotDump::CowStub => writeln!(f, "  cow-stub @{off:#x}")?,
                }
            }
        }
        Ok(())
    }
}

impl Pvm {
    /// Dumps the full cache graph (history trees, stubs, residency).
    pub fn dump_caches(&self) -> TreeDump {
        let guard = self.state_for_dump();
        let mut out = TreeDump::default();
        for (key, c) in guard.caches.iter() {
            let mut slots = Vec::new();
            for &off in &c.entries {
                let slot = match guard.gmap.get(key, off) {
                    Some(Slot::Present(p)) => {
                        let page = guard.page(p);
                        SlotDump::Page {
                            writable: page.writable,
                            dirty: page.dirty,
                        }
                    }
                    Some(Slot::Sync) => SlotDump::Sync,
                    Some(Slot::Cow(_)) => SlotDump::CowStub,
                    None => continue,
                };
                slots.push((off, slot));
            }
            out.caches.push(CacheDump {
                id: pub_cache(key),
                segment: c.segment,
                internal: c.internal,
                zombie: c.zombie,
                history: c.history.map(pub_cache),
                parents: c
                    .parents
                    .iter()
                    .map(|f| {
                        (
                            f.child_off,
                            f.size,
                            pub_cache(f.parent),
                            f.parent_off,
                            f.cor,
                        )
                    })
                    .collect(),
                slots,
            });
        }
        out
    }

    /// Raw byte read of a cache's logical contents (test/debug helper
    /// mirroring `Gmi::cache_read`-style access).
    pub fn read_logical(
        &self,
        cache: CacheId,
        offset: u64,
        len: usize,
    ) -> chorus_gmi::Result<Vec<u8>> {
        let key = crate::keys::cache_key(cache);
        let mut buf = vec![0u8; len];
        let mut progress = 0u64;
        self.run_pub(|s| s.cache_read_attempt(key, offset, &mut buf, &mut progress))?;
        Ok(buf)
    }

    /// Raw byte write into a cache (test/debug helper).
    pub fn write_logical(
        &self,
        cache: CacheId,
        offset: u64,
        data: &[u8],
    ) -> chorus_gmi::Result<()> {
        let key = crate::keys::cache_key(cache);
        let mut progress = 0u64;
        self.run_pub(|s| s.cache_write_attempt(key, offset, data, &mut progress))
    }
}
