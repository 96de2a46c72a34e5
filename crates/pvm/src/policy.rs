//! Pluggable replacement and readahead policies.
//!
//! The paper's machine-independent PVM is generic over *mechanism*; this
//! module makes it generic over *policy* as well. Eviction candidates
//! flow through a `ReplacementPolicy` (the clock ring, LRU lists,
//! WSClock, an ARC-style adaptive pair, or an external advisor driven
//! over the upcall protocol), and pull-cluster sizing is either the
//! static cluster ([`ReadaheadKind::Fifo`]) or the `doubling_window`
//! rule ([`ReadaheadKind::Doubling`]). The default `Clock` + `Fifo` pair
//! reproduces the pre-policy behaviour bit for bit: same sweep order,
//! same `ClockFullSweeps` accounting, same static pull window.
//!
//! Locking: every policy structure lives *inside* `PvmState` and is
//! only touched under the state lock — mutable page state is reached
//! through the `PolicyView` the caller passes in, which borrows the
//! page arena under the same state-lock section.

use crate::clock::ClockRing;
use crate::descriptors::{CacheDesc, PageDesc};
use crate::keys::PageKey;
use chorus_hal::{Arena, FxHashMap};
use std::collections::VecDeque;

// ----- public configuration ------------------------------------------------

/// Which replacement policy drives victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// The classic two-sweep clock over one resident ring (default).
    Clock,
    /// LRU via active/inactive lists with lazy demotion.
    Lru,
    /// WSClock: a clock sweep that only takes pages outside the working
    /// set (older than `wsclock_tau` virtual ticks), falling back to the
    /// oldest candidate when everything is in the working set.
    WsClock,
    /// ARC-style adaptive split between a recency list and a frequency
    /// list, steered by ghost hits.
    Arc,
    /// Victim selection delegated to the segment manager through the
    /// upcall protocol (batched; rides the async completion engine when
    /// `async_upcalls` is on, with an inner clock as the in-flight
    /// fallback).
    External,
}

impl ReplacementKind {
    /// Stable lower-case label (bench JSON, pvmtop).
    pub fn label(self) -> &'static str {
        match self {
            ReplacementKind::Clock => "clock",
            ReplacementKind::Lru => "lru",
            ReplacementKind::WsClock => "wsclock",
            ReplacementKind::Arc => "arc",
            ReplacementKind::External => "external",
        }
    }

    /// Every built-in kind, in the order benches race them.
    pub const ALL: [ReplacementKind; 5] = [
        ReplacementKind::Clock,
        ReplacementKind::Lru,
        ReplacementKind::WsClock,
        ReplacementKind::Arc,
        ReplacementKind::External,
    ];

    /// Parses a [`Self::label`] back into a kind.
    pub fn parse(s: &str) -> Option<ReplacementKind> {
        ReplacementKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Which readahead policy sizes clustered pulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadaheadKind {
    /// Sequential streams double the window up to the cap, and the
    /// per-cache stream state (`ReadaheadHits`, `ReadaheadRamps`) is
    /// tracked.
    Doubling,
    /// Fixed window: always the static cluster base, with no stream
    /// tracking (default).
    Fifo,
}

impl ReadaheadKind {
    /// Stable lower-case label (bench JSON, pvmtop).
    pub fn label(self) -> &'static str {
        match self {
            ReadaheadKind::Doubling => "doubling",
            ReadaheadKind::Fifo => "fifo",
        }
    }

    /// Parses a [`Self::label`] back into a kind.
    pub fn parse(s: &str) -> Option<ReadaheadKind> {
        [ReadaheadKind::Doubling, ReadaheadKind::Fifo]
            .into_iter()
            .find(|k| k.label() == s)
    }
}

/// The policy section of [`crate::PvmConfig`]: which replacement and
/// readahead policies run, selectable per segment (each override gets
/// its own policy instance, so distinct segment managers age their
/// pages independently).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct PolicyConfig {
    /// Replacement policy for every page not covered by an override.
    pub replacement: ReplacementKind,
    /// Readahead policy (global: the window state is per cache already).
    pub readahead: ReadaheadKind,
    /// Per-segment replacement overrides: pages of a cache backed by
    /// segment `.0` are tracked by their own instance of `.1`.
    pub segment_overrides: Vec<(u64, ReplacementKind)>,
    /// WSClock working-set horizon in virtual ticks (touches + sweeps).
    pub wsclock_tau: u64,
    /// Candidate batch size for [`ReplacementKind::External`] advice
    /// upcalls.
    pub external_batch: u64,
}

impl Default for PolicyConfig {
    fn default() -> PolicyConfig {
        PolicyConfig {
            replacement: ReplacementKind::Clock,
            readahead: ReadaheadKind::Fifo,
            segment_overrides: Vec::new(),
            wsclock_tau: 2,
            external_batch: 8,
        }
    }
}

// ----- trait contracts -----------------------------------------------------

/// The page identity a policy may remember across residencies (page
/// *keys* die at eviction; the (cache, offset) pair is stable, which is
/// what ARC's ghost lists need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PageIdent {
    pub cache: u32,
    pub offset: u64,
}

/// Read/write access to the per-page state a policy may consult during
/// victim selection. Implemented over the page arena by the caller; all
/// methods expect live keys (policies must not retain dead keys).
pub(crate) trait PolicyView {
    /// Pinned (`lock_count > 0`) or mid-cleaning: never a victim.
    fn pinned_or_cleaning(&self, key: PageKey) -> bool;
    /// The hardware reference bit.
    fn referenced(&self, key: PageKey) -> bool;
    /// Clears the reference bit (the clock sweep's first pass).
    fn clear_referenced(&mut self, key: PageKey);
    /// Dirty page of a quarantined cache: cannot be cleaned, so not a
    /// victim (clean pages of quarantined caches still are).
    fn dirty_unpushable(&self, key: PageKey) -> bool;
}

/// The result of one victim-selection call.
#[derive(Debug, Default)]
pub(crate) struct SelectOutcome {
    /// Chosen victims, best first (empty: nothing evictable now).
    pub victims: Vec<PageKey>,
    /// Clock-style full-sweep count for `ClockFullSweeps` accounting:
    /// `step / n` when a victim was found, 2 on an exhausted sweep, 0
    /// from non-clock policies and empty rings. The caller adds this to
    /// the counter and emits a `ClockSweep` trace event when positive —
    /// exactly the pre-policy bookkeeping.
    pub full_sweeps: u64,
    /// An external policy wants an advice upcall over these candidates.
    pub need_advice: Option<Vec<PageKey>>,
    /// An external policy fell back to its inner clock because advice
    /// is still in flight (counted as `PolicyExternalFallbacks`).
    pub external_fallback: bool,
}

/// A replacement policy: tracks residency, observes touches and cleans,
/// and selects eviction victims in batches.
pub(crate) trait ReplacementPolicy: Send {
    /// Which kind this instance is.
    fn kind(&self) -> ReplacementKind;
    /// A page became resident.
    fn insert(&mut self, key: PageKey, ident: PageIdent);
    /// A resident page is going away (eviction, invalidate, destroy).
    fn remove(&mut self, key: PageKey, ident: PageIdent);
    /// A page was (re)mapped — the policy's use signal.
    fn touch(&mut self, key: PageKey);
    /// A laundering push finished for the page (it is clean now).
    fn cleaned(&mut self, _key: PageKey) {}
    /// Number of tracked pages.
    fn len(&self) -> usize;
    /// Whether `key` is tracked.
    fn contains(&self, key: PageKey) -> bool;
    /// Snapshot of tracked keys in policy order (emergency eviction,
    /// invariant checks).
    fn keys(&self) -> Vec<PageKey>;
    /// Selects up to `want` victims.
    fn select_victims(&mut self, want: usize, view: &mut dyn PolicyView) -> SelectOutcome;
    /// Delivers the approved subset of a previously requested advice
    /// batch (empty slice: the request failed or was cancelled — clear
    /// the in-flight flag and fall back).
    fn approve_victims(&mut self, _pages: &[PageKey]) {}
}

// ----- readahead ------------------------------------------------------------

/// Input to one readahead-window decision.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RaInput {
    /// The missing page offset.
    pub offset: u64,
    /// The static cluster base (`pull_cluster_pages`, min 1).
    pub base: u64,
    /// The window cap (`readahead_max_pages`, min `base`).
    pub cap: u64,
    /// The cache's previously granted window (0 = not yet ramped).
    pub window: u64,
    /// Where the cache's previous clustered pull ended (0 = none).
    pub next: u64,
}

/// One readahead-window decision. The caller does the counter
/// bookkeeping (`ReadaheadHits`/`ReadaheadRamps` and the cache
/// dimension) so the rule stays side-effect free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RaDecision {
    /// Granted window in pages.
    pub pages: u64,
    /// The miss continued a sequential stream.
    pub hit: bool,
    /// The window actually grew.
    pub ramped: bool,
}

/// The doubling readahead rule behind [`ReadaheadKind::Doubling`]: a
/// miss landing exactly where the cache's previous clustered pull ended
/// doubles the previous window up to the cap; any other miss gets the
/// static base.
pub(crate) fn doubling_window(inp: &RaInput) -> RaDecision {
    if inp.next != 0 && inp.offset == inp.next {
        let prev = if inp.window == 0 {
            inp.base
        } else {
            inp.window
        };
        let grown = prev.saturating_mul(2).min(inp.cap);
        RaDecision {
            pages: grown,
            hit: true,
            ramped: grown > prev,
        }
    } else {
        RaDecision {
            pages: inp.base,
            hit: false,
            ramped: false,
        }
    }
}

// ----- Clock ---------------------------------------------------------------

/// The classic two-sweep clock (default; bit-identical to the
/// pre-policy `select_victim`).
#[derive(Default)]
pub(crate) struct Clock {
    ring: ClockRing,
}

impl Clock {
    /// The shared sweep: up to two full revolutions, clearing reference
    /// bits on the first. Collects up to `want` victims.
    fn sweep(&mut self, want: usize, view: &mut dyn PolicyView, out: &mut SelectOutcome) {
        if self.ring.is_empty() {
            return;
        }
        let n = self.ring.len();
        for step in 0..(2 * n) {
            let key = self.ring.advance().expect("ring emptied mid-sweep");
            if view.pinned_or_cleaning(key) {
                continue;
            }
            if view.referenced(key) {
                view.clear_referenced(key);
                continue;
            }
            if view.dirty_unpushable(key) {
                continue;
            }
            out.victims.push(key);
            if out.victims.len() >= want {
                out.full_sweeps = (step / n) as u64;
                return;
            }
        }
        out.full_sweeps = 2;
    }
}

impl ReplacementPolicy for Clock {
    fn kind(&self) -> ReplacementKind {
        ReplacementKind::Clock
    }

    fn insert(&mut self, key: PageKey, _ident: PageIdent) {
        self.ring.insert(key);
    }

    fn remove(&mut self, key: PageKey, _ident: PageIdent) {
        self.ring.remove(key);
    }

    fn touch(&mut self, _key: PageKey) {
        // The reference bit on the page descriptor is the clock's use
        // signal; `map_page` sets it already.
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    fn contains(&self, key: PageKey) -> bool {
        self.ring.contains(key)
    }

    fn keys(&self) -> Vec<PageKey> {
        self.ring.iter().collect()
    }

    fn select_victims(&mut self, want: usize, view: &mut dyn PolicyView) -> SelectOutcome {
        let mut out = SelectOutcome::default();
        self.sweep(want, view, &mut out);
        out
    }
}

// ----- LRU -----------------------------------------------------------------

/// Entry state in the LRU map. `gen` invalidates stale deque entries
/// (touch re-queues instead of splicing, classic lazy deletion).
#[derive(Debug, Clone, Copy)]
struct LruSlot {
    gen: u64,
    active: bool,
}

/// LRU via active/inactive lists: new pages enter the inactive list,
/// touched pages promote to the active list, victims come from the
/// inactive head (oldest first); when the inactive list runs dry the
/// oldest half of the active list demotes.
#[derive(Default)]
pub(crate) struct Lru {
    map: FxHashMap<PageKey, LruSlot>,
    active: VecDeque<(PageKey, u64)>,
    inactive: VecDeque<(PageKey, u64)>,
    active_live: usize,
    inactive_live: usize,
    next_gen: u64,
}

impl Lru {
    fn bump_gen(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen
    }

    /// Is a deque entry the current home of its key?
    fn current(&self, key: PageKey, gen: u64, active: bool) -> bool {
        self.map
            .get(&key)
            .map(|s| s.gen == gen && s.active == active)
            .unwrap_or(false)
    }

    /// Demotes up to half the active list (at least one entry) into the
    /// inactive list.
    fn refill_inactive(&mut self) {
        let quota = (self.active_live / 2).max(1);
        let mut moved = 0;
        while moved < quota {
            let Some((key, gen)) = self.active.pop_front() else {
                break;
            };
            if !self.current(key, gen, true) {
                continue; // stale
            }
            let g = self.bump_gen();
            self.map.insert(
                key,
                LruSlot {
                    gen: g,
                    active: false,
                },
            );
            self.inactive.push_back((key, g));
            self.active_live -= 1;
            self.inactive_live += 1;
            moved += 1;
        }
    }

    /// Drops stale entries when a deque grows far past its live count.
    fn maybe_compact(&mut self) {
        if self.inactive.len() > 2 * self.inactive_live + 8 {
            let map = &self.map;
            self.inactive.retain(|&(k, g)| {
                map.get(&k)
                    .map(|s| s.gen == g && !s.active)
                    .unwrap_or(false)
            });
        }
        if self.active.len() > 2 * self.active_live + 8 {
            let map = &self.map;
            self.active
                .retain(|&(k, g)| map.get(&k).map(|s| s.gen == g && s.active).unwrap_or(false));
        }
    }
}

impl ReplacementPolicy for Lru {
    fn kind(&self) -> ReplacementKind {
        ReplacementKind::Lru
    }

    fn insert(&mut self, key: PageKey, _ident: PageIdent) {
        if self.map.contains_key(&key) {
            return;
        }
        let g = self.bump_gen();
        self.map.insert(
            key,
            LruSlot {
                gen: g,
                active: false,
            },
        );
        self.inactive.push_back((key, g));
        self.inactive_live += 1;
    }

    fn remove(&mut self, key: PageKey, _ident: PageIdent) {
        if let Some(slot) = self.map.remove(&key) {
            if slot.active {
                self.active_live -= 1;
            } else {
                self.inactive_live -= 1;
            }
        }
    }

    fn touch(&mut self, key: PageKey) {
        let Some(&slot) = self.map.get(&key) else {
            return;
        };
        let g = self.bump_gen();
        self.map.insert(
            key,
            LruSlot {
                gen: g,
                active: true,
            },
        );
        self.active.push_back((key, g));
        if !slot.active {
            self.inactive_live -= 1;
            self.active_live += 1;
        }
        self.maybe_compact();
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: PageKey) -> bool {
        self.map.contains_key(&key)
    }

    fn keys(&self) -> Vec<PageKey> {
        // Inactive (oldest first), then active: eviction-preference order.
        let mut out = Vec::with_capacity(self.map.len());
        for &(k, g) in &self.inactive {
            if self.current(k, g, false) {
                out.push(k);
            }
        }
        for &(k, g) in &self.active {
            if self.current(k, g, true) {
                out.push(k);
            }
        }
        out
    }

    fn select_victims(&mut self, want: usize, view: &mut dyn PolicyView) -> SelectOutcome {
        let mut out = SelectOutcome::default();
        let mut rotations = 0usize;
        // A fruitless full revolution of the inactive list means every
        // entry is pinned or just-referenced; an in-flight pull window
        // can pin the *entire* inactive remnant, so giving up there
        // would force the caller into emergency eviction. Demote fresh
        // candidates from the active list instead and keep looking.
        let mut fruitless = 0usize;
        // Two logical revolutions, like the clock: one may be spent
        // clearing reference bits, the second must find victims.
        let max_rotations = 2 * self.map.len() + 2;
        while out.victims.len() < want {
            if self.inactive_live == 0 {
                if self.active_live == 0 {
                    break;
                }
                self.refill_inactive();
                fruitless = 0;
                continue;
            }
            let Some((key, gen)) = self.inactive.pop_front() else {
                // Live count says there are entries but the deque is
                // empty: stale-count bug guard; bail deterministically.
                self.inactive_live = 0;
                continue;
            };
            if !self.current(key, gen, false) {
                continue; // stale
            }
            let rotate = if view.pinned_or_cleaning(key) || view.dirty_unpushable(key) {
                // Not evictable now: rotate to the back (bounded).
                true
            } else if view.referenced(key) {
                // Second chance: a page used since the last pass — or
                // freshly created (the bit starts set, which keeps an
                // in-flight pull window from eating its own pages) —
                // gets one rotation of grace.
                view.clear_referenced(key);
                true
            } else {
                false
            };
            if rotate {
                self.inactive.push_back((key, gen));
                rotations += 1;
                if rotations > max_rotations {
                    break;
                }
                fruitless += 1;
                if fruitless >= self.inactive_live && self.active_live > 0 {
                    self.refill_inactive();
                    fruitless = 0;
                }
                continue;
            }
            // Victim. It stays resident (the caller may only clean it),
            // so keep tracking it at the back of the queue.
            let g = self.bump_gen();
            self.map.insert(
                key,
                LruSlot {
                    gen: g,
                    active: false,
                },
            );
            self.inactive.push_back((key, g));
            out.victims.push(key);
            fruitless = 0;
        }
        self.maybe_compact();
        out
    }
}

// ----- WSClock -------------------------------------------------------------

/// WSClock: a clock sweep that prefers pages outside the working set —
/// older than `tau` virtual ticks since last use — and falls back to
/// the oldest unreferenced candidate when the whole ring is inside it.
pub(crate) struct WsClock {
    ring: ClockRing,
    last_use: FxHashMap<PageKey, u64>,
    now: u64,
    tau: u64,
}

impl WsClock {
    pub fn new(tau: u64) -> WsClock {
        WsClock {
            ring: ClockRing::new(),
            last_use: FxHashMap::default(),
            now: 0,
            tau: tau.max(1),
        }
    }
}

impl ReplacementPolicy for WsClock {
    fn kind(&self) -> ReplacementKind {
        ReplacementKind::WsClock
    }

    fn insert(&mut self, key: PageKey, _ident: PageIdent) {
        self.ring.insert(key);
        self.last_use.insert(key, self.now);
    }

    fn remove(&mut self, key: PageKey, _ident: PageIdent) {
        self.ring.remove(key);
        self.last_use.remove(&key);
    }

    fn touch(&mut self, key: PageKey) {
        self.now += 1;
        if let Some(t) = self.last_use.get_mut(&key) {
            *t = self.now;
        }
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    fn contains(&self, key: PageKey) -> bool {
        self.ring.contains(key)
    }

    fn keys(&self) -> Vec<PageKey> {
        self.ring.iter().collect()
    }

    fn select_victims(&mut self, want: usize, view: &mut dyn PolicyView) -> SelectOutcome {
        let mut out = SelectOutcome::default();
        if self.ring.is_empty() {
            return out;
        }
        self.now += 1;
        let n = self.ring.len();
        // Oldest unreferenced evictable candidate, as the fallback when
        // every candidate is inside the working set.
        let mut fallback: Option<(PageKey, u64)> = None;
        for step in 0..(2 * n) {
            let key = self.ring.advance().expect("ring emptied mid-sweep");
            if view.pinned_or_cleaning(key) {
                continue;
            }
            if view.referenced(key) {
                view.clear_referenced(key);
                if let Some(t) = self.last_use.get_mut(&key) {
                    *t = self.now;
                }
                continue;
            }
            if view.dirty_unpushable(key) {
                continue;
            }
            let last = self.last_use.get(&key).copied().unwrap_or(0);
            if self.now.saturating_sub(last) >= self.tau {
                out.victims.push(key);
                if out.victims.len() >= want {
                    out.full_sweeps = (step / n) as u64;
                    return out;
                }
                continue;
            }
            if fallback.map(|(_, t)| last < t).unwrap_or(true) {
                fallback = Some((key, last));
            }
        }
        if out.victims.len() < want {
            if let Some((key, _)) = fallback {
                if !out.victims.contains(&key) {
                    out.victims.push(key);
                }
            }
        }
        out.full_sweeps = 2;
        out
    }
}

// ----- ARC-style -----------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ArcSlot {
    gen: u64,
    /// false: recency list (T1); true: frequency list (T2).
    freq: bool,
    ident: PageIdent,
}

/// ARC-style adaptive replacement: a recency list T1 and a frequency
/// list T2 whose balance point `p` is steered by hits in the ghost
/// lists B1/B2 (identities of recently evicted pages). Ghosts are keyed
/// by (cache, offset) — page keys die at eviction but the datum's
/// identity is stable across re-pulls.
#[derive(Default)]
pub(crate) struct ArcPolicy {
    map: FxHashMap<PageKey, ArcSlot>,
    t1: VecDeque<(PageKey, u64)>,
    t2: VecDeque<(PageKey, u64)>,
    t1_live: usize,
    t2_live: usize,
    b1: VecDeque<PageIdent>,
    b2: VecDeque<PageIdent>,
    /// Target size of T1 (the adaptation parameter).
    p: usize,
    next_gen: u64,
}

impl ArcPolicy {
    fn bump_gen(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen
    }

    fn ghost_cap(&self) -> usize {
        (self.t1_live + self.t2_live).max(8)
    }

    fn trim_ghosts(&mut self) {
        let cap = self.ghost_cap();
        while self.b1.len() > cap {
            self.b1.pop_front();
        }
        while self.b2.len() > cap {
            self.b2.pop_front();
        }
    }

    fn current(&self, key: PageKey, gen: u64, freq: bool) -> bool {
        self.map
            .get(&key)
            .map(|s| s.gen == gen && s.freq == freq)
            .unwrap_or(false)
    }

    /// Pops one evictable victim off one list, oldest first, rotating
    /// blocked candidates to the back (bounded by the list's length).
    fn pick_from(&mut self, freq: bool, view: &mut dyn PolicyView) -> Option<PageKey> {
        let mut rotations = 0usize;
        // Two revolutions, like the clock: one may be spent clearing
        // reference bits, the second must find a victim.
        let max_rotations = 2 * if freq { self.t2.len() } else { self.t1.len() } + 2;
        loop {
            let deque = if freq { &mut self.t2 } else { &mut self.t1 };
            let (key, gen) = deque.pop_front()?;
            if !self.current(key, gen, freq) {
                continue;
            }
            if view.pinned_or_cleaning(key) || view.dirty_unpushable(key) {
                let deque = if freq { &mut self.t2 } else { &mut self.t1 };
                deque.push_back((key, gen));
                rotations += 1;
                if rotations > max_rotations {
                    return None;
                }
                continue;
            }
            if view.referenced(key) {
                // Second chance: a page used since the last pass — or
                // freshly created (the bit starts set, which keeps an
                // in-flight pull window from eating its own pages) —
                // rotates once instead of dying.
                view.clear_referenced(key);
                let deque = if freq { &mut self.t2 } else { &mut self.t1 };
                deque.push_back((key, gen));
                rotations += 1;
                if rotations > max_rotations {
                    return None;
                }
                continue;
            }
            // Victim stays resident until the caller evicts it; keep it
            // tracked at the back.
            let g = self.bump_gen();
            let ident = self.map.get(&key).expect("current entry has a slot").ident;
            self.map.insert(
                key,
                ArcSlot {
                    gen: g,
                    freq,
                    ident,
                },
            );
            let deque = if freq { &mut self.t2 } else { &mut self.t1 };
            deque.push_back((key, g));
            return Some(key);
        }
    }
}

impl ReplacementPolicy for ArcPolicy {
    fn kind(&self) -> ReplacementKind {
        ReplacementKind::Arc
    }

    fn insert(&mut self, key: PageKey, ident: PageIdent) {
        if self.map.contains_key(&key) {
            return;
        }
        // Ghost hits steer the balance point: a B1 hit means T1 was too
        // small (grow it), a B2 hit the reverse.
        let in_b1 = self.b1.contains(&ident);
        let in_b2 = !in_b1 && self.b2.contains(&ident);
        let freq = if in_b1 {
            self.b1.retain(|&g| g != ident);
            self.p = (self.p + 1).min(self.t1_live + self.t2_live + 1);
            true
        } else if in_b2 {
            self.b2.retain(|&g| g != ident);
            self.p = self.p.saturating_sub(1);
            true
        } else {
            false
        };
        let g = self.bump_gen();
        self.map.insert(
            key,
            ArcSlot {
                gen: g,
                freq,
                ident,
            },
        );
        if freq {
            self.t2.push_back((key, g));
            self.t2_live += 1;
        } else {
            self.t1.push_back((key, g));
            self.t1_live += 1;
        }
    }

    fn remove(&mut self, key: PageKey, ident: PageIdent) {
        if let Some(slot) = self.map.remove(&key) {
            // Any departure becomes a ghost of its list, so a re-pull of
            // the same datum registers as a ghost hit.
            if slot.freq {
                self.t2_live -= 1;
                self.b2.push_back(ident);
            } else {
                self.t1_live -= 1;
                self.b1.push_back(ident);
            }
            self.trim_ghosts();
        }
    }

    fn touch(&mut self, key: PageKey) {
        let Some(&slot) = self.map.get(&key) else {
            return;
        };
        // A touched T1 page graduates to T2; a T2 touch refreshes.
        let g = self.bump_gen();
        self.map.insert(
            key,
            ArcSlot {
                gen: g,
                freq: true,
                ident: slot.ident,
            },
        );
        self.t2.push_back((key, g));
        if !slot.freq {
            self.t1_live -= 1;
            self.t2_live += 1;
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: PageKey) -> bool {
        self.map.contains_key(&key)
    }

    fn keys(&self) -> Vec<PageKey> {
        let mut out = Vec::with_capacity(self.map.len());
        for &(k, g) in &self.t1 {
            if self.current(k, g, false) {
                out.push(k);
            }
        }
        for &(k, g) in &self.t2 {
            if self.current(k, g, true) {
                out.push(k);
            }
        }
        out
    }

    fn select_victims(&mut self, want: usize, view: &mut dyn PolicyView) -> SelectOutcome {
        let mut out = SelectOutcome::default();
        while out.victims.len() < want {
            // Prefer the list over target: T1 over `p`, else T2.
            let prefer_t1 = self.t1_live > self.p;
            let pick = if prefer_t1 {
                self.pick_from(false, view)
                    .or_else(|| self.pick_from(true, view))
            } else {
                self.pick_from(true, view)
                    .or_else(|| self.pick_from(false, view))
            };
            match pick {
                Some(k) if !out.victims.contains(&k) => out.victims.push(k),
                _ => break,
            }
        }
        out
    }
}

// ----- External ------------------------------------------------------------

/// Victim selection delegated to the segment manager: candidate batches
/// go out as `victimAdvice` upcalls (async: queued on the completion
/// engine; sync: performed inline by the driver), approved victims come
/// back through [`ReplacementPolicy::approve_victims`]. While advice is
/// in flight the inner clock keeps the machine making progress.
pub(crate) struct ExternalPolicy {
    inner: Clock,
    approved: VecDeque<PageKey>,
    inflight: bool,
    batch: usize,
}

impl ExternalPolicy {
    pub fn new(batch: u64) -> ExternalPolicy {
        ExternalPolicy {
            inner: Clock::default(),
            approved: VecDeque::new(),
            inflight: false,
            batch: batch.max(1) as usize,
        }
    }
}

impl ReplacementPolicy for ExternalPolicy {
    fn kind(&self) -> ReplacementKind {
        ReplacementKind::External
    }

    fn insert(&mut self, key: PageKey, ident: PageIdent) {
        self.inner.insert(key, ident);
    }

    fn remove(&mut self, key: PageKey, ident: PageIdent) {
        self.inner.remove(key, ident);
    }

    fn touch(&mut self, key: PageKey) {
        self.inner.touch(key);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, key: PageKey) -> bool {
        self.inner.contains(key)
    }

    fn keys(&self) -> Vec<PageKey> {
        self.inner.keys()
    }

    fn select_victims(&mut self, want: usize, view: &mut dyn PolicyView) -> SelectOutcome {
        let mut out = SelectOutcome::default();
        // 1. Drain previously approved victims that are still evictable.
        while out.victims.len() < want {
            let Some(key) = self.approved.pop_front() else {
                break;
            };
            if self.inner.contains(key)
                && !view.pinned_or_cleaning(key)
                && !view.dirty_unpushable(key)
            {
                out.victims.push(key);
            }
        }
        if !out.victims.is_empty() {
            return out;
        }
        // 2. No approvals on hand: request a fresh advice batch.
        if !self.inflight {
            let mut scan = SelectOutcome::default();
            self.inner.sweep(self.batch, view, &mut scan);
            if !scan.victims.is_empty() {
                self.inflight = true;
                out.need_advice = Some(scan.victims);
                return out;
            }
            // Nothing evictable at all.
            out.full_sweeps = scan.full_sweeps;
            return out;
        }
        // 3. Advice in flight (async): fall back to the inner clock so
        // allocation never stalls on the advisor.
        self.inner.sweep(want, view, &mut out);
        out.external_fallback = !out.victims.is_empty();
        out
    }

    fn approve_victims(&mut self, pages: &[PageKey]) {
        self.inflight = false;
        self.approved.extend(pages.iter().copied());
    }
}

// ----- the engine ----------------------------------------------------------

/// The per-`PvmState` policy engine: one replacement instance for the
/// default kind plus one per segment override and a routing table. With
/// the default configuration this is exactly one `Clock` — zero-overhead
/// routing (slot 0).
pub(crate) struct PolicyEngine {
    slots: Vec<Box<dyn ReplacementPolicy>>,
    /// Segment id → slot index (empty with no overrides).
    by_segment: FxHashMap<u64, usize>,
    /// Page → slot index; only maintained with more than one slot.
    page_slot: FxHashMap<PageKey, usize>,
    /// Rotating start slot for victim selection (always 0 with one slot).
    cursor: usize,
}

fn make_replacement(kind: ReplacementKind, cfg: &PolicyConfig) -> Box<dyn ReplacementPolicy> {
    match kind {
        ReplacementKind::Clock => Box::new(Clock::default()),
        ReplacementKind::Lru => Box::new(Lru::default()),
        ReplacementKind::WsClock => Box::new(WsClock::new(cfg.wsclock_tau)),
        ReplacementKind::Arc => Box::new(ArcPolicy::default()),
        ReplacementKind::External => Box::new(ExternalPolicy::new(cfg.external_batch)),
    }
}

impl PolicyEngine {
    pub fn new(cfg: &PolicyConfig) -> PolicyEngine {
        let mut slots = vec![make_replacement(cfg.replacement, cfg)];
        let mut by_segment = FxHashMap::default();
        for &(seg, kind) in &cfg.segment_overrides {
            by_segment.insert(seg, slots.len());
            slots.push(make_replacement(kind, cfg));
        }
        PolicyEngine {
            slots,
            by_segment,
            page_slot: FxHashMap::default(),
            cursor: 0,
        }
    }

    /// A zero-allocation stand-in used while the real engine is
    /// temporarily moved out of `PvmState` for a selection call.
    pub fn placeholder() -> PolicyEngine {
        PolicyEngine {
            slots: Vec::new(),
            by_segment: FxHashMap::default(),
            page_slot: FxHashMap::default(),
            cursor: 0,
        }
    }

    /// The replacement kind of the default slot (pvmtop, bench labels).
    pub fn default_kind(&self) -> ReplacementKind {
        self.slots[0].kind()
    }

    /// How many per-segment replacement overrides are routing pages.
    pub fn override_count(&self) -> usize {
        self.by_segment.len()
    }

    fn route(&self, segment: Option<u64>) -> usize {
        if self.slots.len() == 1 {
            return 0;
        }
        segment
            .and_then(|s| self.by_segment.get(&s).copied())
            .unwrap_or(0)
    }

    fn slot_of(&self, key: PageKey) -> usize {
        if self.slots.len() == 1 {
            0
        } else {
            self.page_slot.get(&key).copied().unwrap_or(0)
        }
    }

    /// A page became resident; `segment` routes it to its policy.
    pub fn insert(&mut self, key: PageKey, ident: PageIdent, segment: Option<u64>) {
        let idx = self.route(segment);
        if self.slots.len() > 1 {
            self.page_slot.insert(key, idx);
        }
        self.slots[idx].insert(key, ident);
    }

    /// A resident page is going away.
    pub fn remove(&mut self, key: PageKey, ident: PageIdent) {
        let idx = self.slot_of(key);
        self.slots[idx].remove(key, ident);
        if self.slots.len() > 1 {
            self.page_slot.remove(&key);
        }
    }

    /// A page was (re)mapped.
    pub fn touch(&mut self, key: PageKey) {
        let idx = self.slot_of(key);
        self.slots[idx].touch(key);
    }

    /// A laundering push finished for the page.
    pub fn cleaned(&mut self, key: PageKey) {
        let idx = self.slot_of(key);
        self.slots[idx].cleaned(key);
    }

    /// Total tracked pages across every slot.
    pub fn tracked(&self) -> usize {
        self.slots.iter().map(|s| s.len()).sum()
    }

    /// Whether any slot tracks `key`.
    pub fn contains(&self, key: PageKey) -> bool {
        self.slots[self.slot_of(key)].contains(key)
    }

    /// Snapshot of every tracked key, slot by slot in policy order.
    pub fn keys(&self) -> Vec<PageKey> {
        let mut out = Vec::with_capacity(self.tracked());
        for s in &self.slots {
            out.extend(s.keys());
        }
        out
    }

    /// Selects up to `want` victims, asking slots round-robin from a
    /// rotating cursor (with one slot: always slot 0, bit-identical to
    /// the single clock).
    pub fn select_victims(&mut self, want: usize, view: &mut dyn PolicyView) -> SelectOutcome {
        let n = self.slots.len();
        let start = self.cursor % n;
        self.cursor = (self.cursor + 1) % n;
        let mut merged = SelectOutcome::default();
        for i in 0..n {
            let idx = (start + i) % n;
            let out = self.slots[idx].select_victims(want, view);
            merged.full_sweeps += out.full_sweeps;
            merged.external_fallback |= out.external_fallback;
            if !out.victims.is_empty() {
                merged.victims = out.victims;
                return merged;
            }
            if out.need_advice.is_some() {
                merged.need_advice = out.need_advice;
                return merged;
            }
        }
        merged
    }

    /// Delivers approved external victims to every slot (non-external
    /// slots ignore it).
    pub fn approve_victims(&mut self, pages: &[PageKey]) {
        for s in &mut self.slots {
            s.approve_victims(pages);
        }
    }
}

/// The [`PolicyView`] over the live page arena, built by the caller
/// under the state lock. Lookups expect live keys: policies drop dead
/// keys eagerly (`remove`) or filter through their own membership maps.
pub(crate) struct StateView<'a> {
    pub pages: &'a mut Arena<PageDesc>,
    pub caches: &'a Arena<CacheDesc>,
}

impl PolicyView for StateView<'_> {
    fn pinned_or_cleaning(&self, key: PageKey) -> bool {
        let p = self.pages.get(key).expect("dead key in policy");
        p.lock_count > 0 || p.cleaning
    }

    fn referenced(&self, key: PageKey) -> bool {
        self.pages.get(key).expect("dead key in policy").ref_bit
    }

    fn clear_referenced(&mut self, key: PageKey) {
        self.pages.get_mut(key).expect("dead key in policy").ref_bit = false;
    }

    fn dirty_unpushable(&self, key: PageKey) -> bool {
        let p = self.pages.get(key).expect("dead key in policy");
        p.dirty
            && self
                .caches
                .get(p.cache)
                .map(|c| c.poisoned)
                .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;

    fn k(i: u32) -> PageKey {
        Id::from_raw_parts(i, 1)
    }

    fn ident(i: u32) -> PageIdent {
        PageIdent {
            cache: 0,
            offset: u64::from(i) * 0x1000,
        }
    }

    /// A free-standing view for policy unit tests.
    #[derive(Default)]
    struct TestView {
        referenced: std::collections::BTreeSet<u32>,
        pinned: std::collections::BTreeSet<u32>,
    }

    impl PolicyView for TestView {
        fn pinned_or_cleaning(&self, key: PageKey) -> bool {
            self.pinned.contains(&key.index())
        }
        fn referenced(&self, key: PageKey) -> bool {
            self.referenced.contains(&key.index())
        }
        fn clear_referenced(&mut self, key: PageKey) {
            self.referenced.remove(&key.index());
        }
        fn dirty_unpushable(&self, _key: PageKey) -> bool {
            false
        }
    }

    #[test]
    fn clock_two_sweep_semantics() {
        let mut c = Clock::default();
        let mut view = TestView::default();
        for i in 0..4 {
            c.insert(k(i), ident(i));
            view.referenced.insert(i);
        }
        // Everything referenced: first sweep clears, second finds the
        // first candidate — one full sweep on the books.
        let out = c.select_victims(1, &mut view);
        assert_eq!(out.victims.len(), 1);
        assert_eq!(out.full_sweeps, 1);
        assert!(view.referenced.is_empty(), "first sweep cleared ref bits");
        // Nothing referenced now: immediate victim, zero full sweeps.
        let out = c.select_victims(1, &mut view);
        assert_eq!(out.full_sweeps, 0);
        // All pinned: exhausted sweep reports two revolutions.
        for i in 0..4 {
            view.pinned.insert(i);
        }
        let out = c.select_victims(1, &mut view);
        assert!(out.victims.is_empty());
        assert_eq!(out.full_sweeps, 2);
        // Empty ring: silent none.
        let mut empty = Clock::default();
        let out = empty.select_victims(1, &mut view);
        assert!(out.victims.is_empty());
        assert_eq!(out.full_sweeps, 0);
    }

    #[test]
    fn lru_evicts_oldest_unprotected() {
        let mut l = Lru::default();
        let mut view = TestView::default();
        for i in 0..4 {
            l.insert(k(i), ident(i));
        }
        l.touch(k(0)); // 0 promotes to active
        let out = l.select_victims(1, &mut view);
        assert_eq!(out.victims, vec![k(1)], "oldest inactive page goes first");
        // Pin 2: selection skips to 3.
        view.pinned.insert(2);
        let out = l.select_victims(1, &mut view);
        assert_eq!(out.victims, vec![k(3)]);
        // Evict the whole inactive list for real; only 0 (active)
        // remains, so the next selection must demote it first.
        l.remove(k(1), ident(1));
        l.remove(k(2), ident(2));
        l.remove(k(3), ident(3));
        let out = l.select_victims(1, &mut view);
        assert_eq!(out.victims, vec![k(0)], "active list demotes when dry");
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn wsclock_prefers_outside_working_set() {
        let mut w = WsClock::new(3);
        let mut view = TestView::default();
        for i in 0..3 {
            w.insert(k(i), ident(i));
        }
        // Touch 0 and 1 repeatedly; 2 ages out.
        for _ in 0..4 {
            w.touch(k(0));
            w.touch(k(1));
        }
        let out = w.select_victims(1, &mut view);
        assert_eq!(out.victims, vec![k(2)], "stale page leaves first");
        // Everything fresh: the oldest candidate is the fallback.
        let mut w = WsClock::new(1000);
        for i in 0..3 {
            w.insert(k(i), ident(i));
        }
        w.touch(k(0));
        w.touch(k(2));
        let out = w.select_victims(1, &mut view);
        assert_eq!(out.victims, vec![k(1)], "oldest fallback inside tau");
    }

    #[test]
    fn arc_ghost_hit_promotes_to_frequency_list() {
        let mut a = ArcPolicy::default();
        let mut view = TestView::default();
        for i in 0..3 {
            a.insert(k(i), ident(i));
        }
        assert_eq!(a.t1_live, 3);
        // Evict 0 (leaves a B1 ghost), then re-insert the same datum
        // under a new key: it must land in T2 and grow p.
        a.remove(k(0), ident(0));
        assert_eq!(a.b1.len(), 1);
        a.insert(k(10), ident(0));
        assert_eq!(a.t2_live, 1, "ghost hit goes to the frequency list");
        assert_eq!(a.p, 1);
        // Touch graduates T1 → T2.
        a.touch(k(1));
        assert_eq!(a.t2_live, 2);
        let out = a.select_victims(1, &mut view);
        assert_eq!(out.victims.len(), 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn external_requests_advice_then_drains_approvals() {
        let mut e = ExternalPolicy::new(2);
        let mut view = TestView::default();
        for i in 0..4 {
            e.insert(k(i), ident(i));
        }
        // First call: no approvals, not in flight → advice request.
        let out = e.select_victims(1, &mut view);
        assert!(out.victims.is_empty());
        let cands = out.need_advice.expect("requests an advice batch");
        assert_eq!(cands.len(), 2, "batch size respected");
        // In flight: falls back to the inner clock.
        let out = e.select_victims(1, &mut view);
        assert_eq!(out.victims.len(), 1);
        assert!(out.external_fallback);
        // Approval delivery: approved victims drain first.
        e.approve_victims(&cands);
        let out = e.select_victims(1, &mut view);
        assert_eq!(out.victims, vec![cands[0]]);
        assert!(!out.external_fallback);
    }

    #[test]
    fn engine_routes_by_segment_override() {
        let cfg = PolicyConfig {
            segment_overrides: vec![(7, ReplacementKind::Lru)],
            ..PolicyConfig::default()
        };
        let mut eng = PolicyEngine::new(&cfg);
        eng.insert(k(0), ident(0), None);
        eng.insert(k(1), ident(1), Some(7));
        eng.insert(k(2), ident(2), Some(9));
        assert_eq!(eng.tracked(), 3);
        assert!(eng.contains(k(0)) && eng.contains(k(1)) && eng.contains(k(2)));
        eng.remove(k(1), ident(1));
        assert_eq!(eng.tracked(), 2);
        assert!(!eng.contains(k(1)));
        let mut view = TestView::default();
        let out = eng.select_victims(1, &mut view);
        assert_eq!(out.victims.len(), 1);
    }

    #[test]
    fn doubling_window_arithmetic() {
        // Cold miss: base.
        let dec = doubling_window(&RaInput {
            offset: 0x3000,
            base: 2,
            cap: 16,
            window: 0,
            next: 0,
        });
        assert_eq!((dec.pages, dec.hit, dec.ramped), (2, false, false));
        // Stream hit: double from the previous window.
        let dec = doubling_window(&RaInput {
            offset: 0x5000,
            base: 2,
            cap: 16,
            window: 4,
            next: 0x5000,
        });
        assert_eq!((dec.pages, dec.hit, dec.ramped), (8, true, true));
        // Capped: hit without ramp.
        let dec = doubling_window(&RaInput {
            offset: 0x5000,
            base: 2,
            cap: 8,
            window: 8,
            next: 0x5000,
        });
        assert_eq!((dec.pages, dec.hit, dec.ramped), (8, true, false));
    }
}
