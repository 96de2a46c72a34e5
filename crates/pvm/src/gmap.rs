//! The global map (§4.1.1) and location-stub index.
//!
//! The paper's global map hashes every page slot by its cache and
//! offset. It is one plain table: it lives inside
//! [`crate::state::PvmState`], so the state lock is its only lock and
//! the compiler rejects any access that does not go through the state
//! guard. The lock-free fault fast path never reads it; it consults the
//! translation cache ([`crate::fastpath`]) instead.
//!
//! The location-stub index is ordered by (source cache, offset), so
//! the cache-liveness question "does any location of this cache still
//! have threaded stubs?" is one range probe, not a scan of every stub.

use crate::descriptors::Slot;
use crate::keys::CacheKey;
use chorus_hal::FxHashMap;
use std::collections::BTreeMap;

/// A (cache, offset) location.
type Loc = (CacheKey, u64);

/// The global map: the `(cache, offset) → Slot` table plus the
/// location-stub index.
#[derive(Default)]
pub(crate) struct GlobalMap {
    slots: FxHashMap<Loc, Slot>,
    /// Per-page stubs whose source page is not resident, keyed by the
    /// source location. Lists are never empty: the last unthread
    /// removes the key.
    loc_stubs: BTreeMap<Loc, Vec<Loc>>,
}

impl GlobalMap {
    // ----- slot table -------------------------------------------------------

    /// Looks up the slot at (cache, offset).
    pub fn get(&self, cache: CacheKey, off: u64) -> Option<Slot> {
        self.slots.get(&(cache, off)).copied()
    }

    /// Installs a slot, returning the previous one.
    pub fn insert(&mut self, cache: CacheKey, off: u64, slot: Slot) -> Option<Slot> {
        self.slots.insert((cache, off), slot)
    }

    /// Removes the slot at (cache, offset), returning it.
    pub fn remove(&mut self, cache: CacheKey, off: u64) -> Option<Slot> {
        self.slots.remove(&(cache, off))
    }

    /// Number of live slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Every (key, slot) pair, for the invariant checker.
    pub fn slots(&self) -> impl Iterator<Item = (Loc, Slot)> + '_ {
        self.slots.iter().map(|(&k, &v)| (k, v))
    }

    // ----- location-stub index ----------------------------------------------

    /// Threads a per-page stub (dst cache, dst offset) onto the source
    /// location (cache, offset).
    pub fn push_loc_stub(&mut self, cache: CacheKey, off: u64, dst: Loc) {
        self.loc_stubs.entry((cache, off)).or_default().push(dst);
    }

    /// Takes (and removes) every stub waiting on (cache, offset).
    pub fn take_loc_stubs(&mut self, cache: CacheKey, off: u64) -> Vec<Loc> {
        self.loc_stubs.remove(&(cache, off)).unwrap_or_default()
    }

    /// Unthreads one stub (dc, doff) from the list at (cache, offset).
    /// Returns true if the list existed and is now empty (and removed).
    pub fn unthread_loc_stub(
        &mut self,
        cache: CacheKey,
        off: u64,
        dc: CacheKey,
        doff: u64,
    ) -> bool {
        let key = (cache, off);
        if let Some(list) = self.loc_stubs.get_mut(&key) {
            list.retain(|&(c, o)| !(c == dc && o == doff));
            if list.is_empty() {
                self.loc_stubs.remove(&key);
                return true;
            }
        }
        false
    }

    /// True if exactly `dst` is threaded on (cache, offset) — invariant
    /// checking only.
    pub fn loc_stub_registered(&self, cache: CacheKey, off: u64, dst: Loc) -> bool {
        self.loc_stubs
            .get(&(cache, off))
            .is_some_and(|l| l.contains(&dst))
    }

    /// True if any stub is threaded on (cache, offset).
    pub fn has_loc_stubs_at(&self, cache: CacheKey, off: u64) -> bool {
        self.loc_stubs.contains_key(&(cache, off))
    }

    /// True if any location anywhere in `cache` still has threaded stubs
    /// (cache-liveness check): one probe of the ordered index.
    pub fn has_loc_stubs_from(&self, cache: CacheKey) -> bool {
        self.loc_stubs
            .range((cache, 0)..=(cache, u64::MAX))
            .next()
            .is_some()
    }

    /// The whole stub index, in (source cache, offset) order.
    pub fn loc_stubs(&self) -> impl Iterator<Item = (Loc, &[Loc])> + '_ {
        self.loc_stubs.iter().map(|(&k, v)| (k, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;

    fn keys(n: u32) -> Vec<CacheKey> {
        (0..n).map(|i| Id::from_raw_parts(i, 1)).collect()
    }

    #[test]
    fn slots_roundtrip() {
        let mut m = GlobalMap::default();
        let ks = keys(3);
        for (i, &c) in ks.iter().enumerate() {
            for o in 0..64u64 {
                m.insert(c, o * 8192, Slot::Cow(crate::descriptors::CowSource::Zero));
                assert!(m.get(c, o * 8192).is_some(), "key {i}/{o}");
            }
        }
        assert_eq!(m.len(), 3 * 64);
        for &c in &ks {
            for o in 0..64u64 {
                assert!(m.remove(c, o * 8192).is_some());
            }
        }
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn loc_stub_threading() {
        let mut m = GlobalMap::default();
        let ks = keys(2);
        let (src, dst) = (ks[0], ks[1]);
        m.push_loc_stub(src, 0, (dst, 8192));
        m.push_loc_stub(src, 0, (dst, 16384));
        assert!(m.has_loc_stubs_at(src, 0));
        assert!(m.has_loc_stubs_from(src));
        assert!(!m.unthread_loc_stub(src, 0, dst, 8192), "one stub remains");
        assert!(m.unthread_loc_stub(src, 0, dst, 16384), "now emptied");
        assert!(!m.has_loc_stubs_from(src));
        m.push_loc_stub(src, 8192, (dst, 0));
        assert_eq!(m.take_loc_stubs(src, 8192), vec![(dst, 0)]);
        assert!(m.take_loc_stubs(src, 8192).is_empty());
    }

    #[test]
    fn has_loc_stubs_from_probes_only_its_cache() {
        let mut m = GlobalMap::default();
        let ks = keys(3);
        // Stubs threaded on the neighbours (in key order) of ks[1],
        // including at the extreme offsets, must not make ks[1] live.
        m.push_loc_stub(ks[0], u64::MAX, (ks[2], 0));
        m.push_loc_stub(ks[2], 0, (ks[0], 0));
        assert!(!m.has_loc_stubs_from(ks[1]));
        m.push_loc_stub(ks[1], u64::MAX, (ks[2], 8192));
        assert!(m.has_loc_stubs_from(ks[1]));
    }
}
