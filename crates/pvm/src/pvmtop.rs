//! `pvmtop`: a point-in-time introspection snapshot of a live PVM.
//!
//! Where [`crate::PvmStats`] answers "how much work happened" and the
//! tracer answers "in what order", `pvmtop` answers the operator's
//! question: *which* cache is hot, *which* mapper is sick, and where
//! the latency went. It folds three sources into one [`PvmTop`] value:
//!
//! - the dimensional telemetry registry ([`crate::telemetry`]) for
//!   per-cache and per-mapper counters (requires `telemetry(true)`;
//!   with the knob off the counters read as zero and only the live
//!   gauges below carry signal);
//! - a walk of the live descriptor arenas for resident/dirty footprints
//!   and mapper health states (always available);
//! - the per-phase latency histograms for p50/p99/p999 (populated when
//!   tracing is on).
//!
//! Everything here is pure observation: no call charges the cost
//! model, so taking a snapshot never perturbs the simulated clock —
//! the same determinism rule the tracer enforces.

use crate::state::PvmState;
use crate::telemetry::{Dim, DimCounter, TelemetrySample};
use crate::trace::{HistogramSnapshot, Phase};
use chorus_gmi::{CacheId, SegmentId};
use std::collections::BTreeMap;

/// Per-cache heat row: dimensional counters plus the live footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHeat {
    /// Public id of the cache.
    pub cache: CacheId,
    /// Raw arena index (the id used in trace events and telemetry rows).
    pub index: u32,
    /// Slow-path faults attributed to this cache.
    pub faults: u64,
    /// `pullIn` requests completed for this cache.
    pub pull_ins: u64,
    /// Pages pushed out for this cache.
    pub push_outs: u64,
    /// Pages evicted from this cache by the clock.
    pub evictions: u64,
    /// Victims the replacement policy engine picked from this cache.
    pub policy_victims: u64,
    /// Sequential-stream readahead window hits.
    pub readahead_hits: u64,
    /// Fault-stripe acquisitions for this cache (`parallel_faults`).
    pub lock_acqs: u64,
    /// Fault-stripe acquisitions that had to block — the cache's
    /// "lock heat".
    pub lock_contended: u64,
    /// Resident pages right now.
    pub resident_pages: u64,
    /// Dirty resident pages right now.
    pub dirty_pages: u64,
    /// Quarantined after a permanent mapper failure.
    pub poisoned: bool,
}

/// Operator-facing health state of one mapper (segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapperState {
    /// Serving upcalls normally.
    Healthy,
    /// Escalated by the deadline watchdog after repeated timeouts:
    /// in-flight cap shrunk, degraded to the synchronous path.
    Suspected,
    /// A cache backed by this segment was poisoned after a permanent
    /// failure.
    Quarantined,
}

impl MapperState {
    /// Stable label for exports.
    pub fn label(self) -> &'static str {
        match self {
            MapperState::Healthy => "Healthy",
            MapperState::Suspected => "Suspected",
            MapperState::Quarantined => "Quarantined",
        }
    }
}

/// Per-mapper health row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapperHealth {
    /// The segment this mapper backs.
    pub segment: SegmentId,
    /// Health state (worst applicable wins).
    pub state: MapperState,
    /// Asynchronous upcalls in flight right now.
    pub inflight: u64,
    /// Watchdog deadline misses observed so far (the escalation count).
    pub deadline_misses: u32,
    /// `pullIn` requests completed.
    pub pull_ins: u64,
    /// Pages pushed out.
    pub push_outs: u64,
    /// Transient retries performed against this mapper.
    pub retries: u64,
    /// Upcalls that concluded with a deadline timeout.
    pub timeouts: u64,
    /// In-flight upcalls cancelled by the watchdog.
    pub cancels: u64,
}

/// Per-phase latency row derived from the tracer's histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseLatency {
    /// Stable phase label (`fault.total`, `upcall.pullIn`, ...).
    pub phase: &'static str,
    /// Samples recorded.
    pub samples: u64,
    /// Median upper bound (ns, log2-bucket granularity).
    pub p50_ns: u64,
    /// 99th-percentile upper bound (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile upper bound (ns).
    pub p999_ns: u64,
    /// Largest sample (ns).
    pub max_ns: u64,
}

impl PhaseLatency {
    fn from_snapshot(phase: Phase, s: &HistogramSnapshot) -> PhaseLatency {
        PhaseLatency {
            phase: phase.label(),
            samples: s.count(),
            p50_ns: s.percentile(0.50),
            p99_ns: s.percentile(0.99),
            p999_ns: s.percentile(0.999),
            max_ns: s.max,
        }
    }
}

/// One lock domain's global acquisition/contention totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainHeat {
    /// Stable domain label (`state` or `stripe`).
    pub domain: &'static str,
    /// Total acquisitions.
    pub acqs: u64,
    /// Acquisitions that missed the uncontended try-lock.
    pub contended: u64,
}

/// The replacement/readahead policy engine's identity and decision
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyHeat {
    /// Label of the default replacement policy (`clock`, `lru`,
    /// `wsclock`, `arc`, `external`).
    pub replacement: &'static str,
    /// Label of the readahead policy (`doubling`, `fifo`).
    pub readahead: &'static str,
    /// Per-segment replacement overrides in effect.
    pub segment_overrides: u64,
    /// Victim-selection rounds requested.
    pub victim_requests: u64,
    /// Victims actually produced.
    pub victims: u64,
    /// `victimAdvice` batches shipped to the external policy's manager.
    pub external_batches: u64,
    /// Candidates approved when advice was applied.
    pub external_approvals: u64,
    /// Selections served from the internal fallback clock while advice
    /// was in flight.
    pub external_fallbacks: u64,
}

/// The full `pvmtop` snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvmTop {
    /// Simulated time of the snapshot.
    pub sim_ns: u64,
    /// Caches hottest-first: faults desc, then dirty pages desc, then
    /// arena index asc (a deterministic total order).
    pub caches: Vec<CacheHeat>,
    /// Mappers in ascending segment order.
    pub mappers: Vec<MapperHealth>,
    /// Per-phase latency rows in [`Phase::ALL`] order.
    pub phases: Vec<PhaseLatency>,
    /// The live gauge sample taken with the snapshot.
    pub sample: TelemetrySample,
    /// Per-domain lock heat (the state lock, then the fault stripes).
    pub lock_domains: Vec<DomainHeat>,
    /// The policy engine's identity and decision counters.
    pub policy: PolicyHeat,
}

impl PvmTop {
    /// The hottest cache, if any cache exists.
    pub fn hottest_cache(&self) -> Option<&CacheHeat> {
        self.caches.first()
    }

    /// The health row of `segment`, if known.
    pub fn mapper(&self, segment: SegmentId) -> Option<&MapperHealth> {
        self.mappers.iter().find(|m| m.segment == segment)
    }
}

/// Builds a snapshot from the locked state. Pure observation — charges
/// nothing to the cost model.
pub(crate) fn snapshot(state: &PvmState) -> PvmTop {
    // Footprints: one walk of the page arena, accumulated per cache.
    let mut resident: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (_, page) in state.pages.iter() {
        let e = resident.entry(page.cache.index()).or_insert((0, 0));
        e.0 += 1;
        if page.dirty {
            e.1 += 1;
        }
    }

    let dim = |d: Dim, id: u64, c: DimCounter| state.telemetry.get(d, id, c);

    let mut caches: Vec<CacheHeat> = state
        .caches
        .iter()
        .map(|(key, desc)| {
            let idx = key.index();
            let id = u64::from(idx);
            let (res, dirty) = resident.get(&idx).copied().unwrap_or((0, 0));
            CacheHeat {
                cache: crate::keys::pub_cache(key),
                index: idx,
                faults: dim(Dim::Cache, id, DimCounter::Faults),
                pull_ins: dim(Dim::Cache, id, DimCounter::PullIns),
                push_outs: dim(Dim::Cache, id, DimCounter::PushOuts),
                evictions: dim(Dim::Cache, id, DimCounter::Evictions),
                policy_victims: dim(Dim::Cache, id, DimCounter::PolicyVictims),
                readahead_hits: dim(Dim::Cache, id, DimCounter::ReadaheadHits),
                lock_acqs: dim(Dim::Cache, id, DimCounter::LockAcqs),
                lock_contended: dim(Dim::Cache, id, DimCounter::LockContended),
                resident_pages: res,
                dirty_pages: dirty,
                poisoned: desc.poisoned,
            }
        })
        .collect();
    caches.sort_by(|a, b| {
        b.faults
            .cmp(&a.faults)
            .then(b.dirty_pages.cmp(&a.dirty_pages))
            .then(a.index.cmp(&b.index))
    });

    // The mapper universe: every segment a live cache names, plus every
    // segment the completion engine has ever dealt with, plus every
    // segment the telemetry registry recorded traffic for (a poisoned
    // cache may already be gone while its mapper's history remains).
    let mut segments: std::collections::BTreeSet<u64> = state
        .caches
        .iter()
        .filter_map(|(_, c)| c.segment.map(|s| s.0))
        .collect();
    segments.extend(state.engine.inflight_counts().iter().map(|&(s, _)| s));
    segments.extend(state.engine.timeout_counts().iter().map(|&(s, _)| s));
    segments.extend(state.engine.suspected_segments());
    segments.extend(state.telemetry.table(Dim::Mapper).iter().map(|&(s, _)| s));

    let inflight: BTreeMap<u64, u64> = state.engine.inflight_counts().into_iter().collect();
    let misses: BTreeMap<u64, u32> = state.engine.timeout_counts().into_iter().collect();
    let mappers = segments
        .into_iter()
        .map(|seg| {
            let segment = SegmentId(seg);
            let quarantined = state
                .caches
                .iter()
                .any(|(_, c)| c.poisoned && c.segment == Some(segment));
            let state_ = if quarantined {
                MapperState::Quarantined
            } else if state.engine.is_suspected(segment) {
                MapperState::Suspected
            } else {
                MapperState::Healthy
            };
            MapperHealth {
                segment,
                state: state_,
                inflight: inflight.get(&seg).copied().unwrap_or(0),
                deadline_misses: misses.get(&seg).copied().unwrap_or(0),
                pull_ins: dim(Dim::Mapper, seg, DimCounter::PullIns),
                push_outs: dim(Dim::Mapper, seg, DimCounter::PushOuts),
                retries: dim(Dim::Mapper, seg, DimCounter::Retries),
                timeouts: dim(Dim::Mapper, seg, DimCounter::Timeouts),
                cancels: dim(Dim::Mapper, seg, DimCounter::Cancels),
            }
        })
        .collect();

    let phases = Phase::ALL
        .iter()
        .map(|&p| PhaseLatency::from_snapshot(p, &state.trace.histogram(p)))
        .collect();

    let heat = |domain, acqs, contended| DomainHeat {
        domain,
        acqs: state.stats.get(acqs),
        contended: state.stats.get(contended),
    };
    use crate::stats::Counter as C;
    let lock_domains = vec![
        heat("state", C::StateLockAcqs, C::StateLockContended),
        heat("stripe", C::CacheStripeAcqs, C::CacheStripeContended),
    ];

    let policy = PolicyHeat {
        replacement: state.policy.default_kind().label(),
        readahead: state.config.policy.readahead.label(),
        segment_overrides: state.policy.override_count() as u64,
        victim_requests: state.stats.get(C::PolicyVictimRequests),
        victims: state.stats.get(C::PolicyVictims),
        external_batches: state.stats.get(C::PolicyExternalBatches),
        external_approvals: state.stats.get(C::PolicyExternalApprovals),
        external_fallbacks: state.stats.get(C::PolicyExternalFallbacks),
    };

    PvmTop {
        sim_ns: state.model.now().nanos(),
        caches,
        mappers,
        phases,
        sample: state.live_sample(),
        lock_domains,
        policy,
    }
}

/// Renders a snapshot as the classic three-section `top` text: top-N
/// caches by heat, mapper health, and per-phase latency.
pub fn render(top: &PvmTop, n: usize) -> String {
    let mut out = String::new();
    let s = &top.sample;
    out.push_str(&format!(
        "pvmtop  sim={} ns  free={} frames (reserve {})  inflight={}  \
         pending={}  ring={} pages  gmap={} slots\n",
        top.sim_ns,
        s.free_frames,
        s.reserve_free,
        s.inflight_upcalls,
        s.pending_pulls,
        s.clock_ring_pages,
        s.gmap_slots,
    ));
    if !top.lock_domains.is_empty() {
        out.push_str("        lock heat (contended/acqs):");
        for d in &top.lock_domains {
            out.push_str(&format!(" {} {}/{}", d.domain, d.contended, d.acqs));
        }
        out.push('\n');
    }
    let pol = &top.policy;
    out.push_str(&format!(
        "        policy: {} (+{} overrides)  readahead={}  victims {}/{} req  \
         external {}/{} appr  fallbacks {}\n",
        pol.replacement,
        pol.segment_overrides,
        pol.readahead,
        pol.victims,
        pol.victim_requests,
        pol.external_approvals,
        pol.external_batches,
        pol.external_fallbacks,
    ));

    out.push_str(&format!(
        "\n  {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8}  {}\n",
        "CACHE",
        "FAULTS",
        "PULLS",
        "PUSHES",
        "EVICT",
        "PVICT",
        "RAHIT",
        "LOCKHEAT",
        "RES",
        "DIRTY",
        "FLAGS"
    ));
    for c in top.caches.iter().take(n.max(1)) {
        out.push_str(&format!(
            "  {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8}  {}\n",
            c.index,
            c.faults,
            c.pull_ins,
            c.push_outs,
            c.evictions,
            c.policy_victims,
            c.readahead_hits,
            format!("{}/{}", c.lock_contended, c.lock_acqs),
            c.resident_pages,
            c.dirty_pages,
            if c.poisoned { "POISONED" } else { "-" },
        ));
    }
    if top.caches.len() > n {
        out.push_str(&format!("  ... {} more caches\n", top.caches.len() - n));
    }

    out.push_str(&format!(
        "\n  {:>7} {:<11} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "MAPPER", "STATE", "INFLIGHT", "MISSES", "PULLS", "PUSHES", "RETRIES", "TIMEOUT", "CANCELS"
    ));
    for m in &top.mappers {
        out.push_str(&format!(
            "  {:>7} {:<11} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            m.segment.0,
            m.state.label(),
            m.inflight,
            m.deadline_misses,
            m.pull_ins,
            m.push_outs,
            m.retries,
            m.timeouts,
            m.cancels,
        ));
    }

    out.push_str(&format!(
        "\n  {:<22} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
        "PHASE", "SAMPLES", "P50(ns)", "P99(ns)", "P999(ns)", "MAX(ns)"
    ));
    for p in &top.phases {
        if p.samples == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<22} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
            p.phase, p.samples, p.p50_ns, p.p99_ns, p.p999_ns, p.max_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heat(index: u32, faults: u64, dirty: u64) -> CacheHeat {
        CacheHeat {
            cache: CacheId::pack(index, 0),
            index,
            faults,
            pull_ins: 0,
            push_outs: 0,
            evictions: 0,
            policy_victims: 0,
            readahead_hits: 0,
            lock_acqs: 0,
            lock_contended: 0,
            resident_pages: dirty,
            dirty_pages: dirty,
            poisoned: false,
        }
    }

    #[test]
    fn mapper_state_labels_are_stable() {
        assert_eq!(MapperState::Healthy.label(), "Healthy");
        assert_eq!(MapperState::Suspected.label(), "Suspected");
        assert_eq!(MapperState::Quarantined.label(), "Quarantined");
    }

    #[test]
    fn render_truncates_to_top_n() {
        let top = PvmTop {
            sim_ns: 42,
            caches: vec![heat(0, 9, 1), heat(1, 5, 0), heat(2, 1, 0)],
            mappers: Vec::new(),
            phases: Vec::new(),
            sample: TelemetrySample {
                sim_ns: 42,
                free_frames: 7,
                free_blocks_per_order: vec![1, 1],
                inflight_upcalls: 0,
                pending_pulls: 0,
                clock_ring_pages: 0,
                gmap_slots: 0,
                reserve_free: 4,
            },
            lock_domains: vec![
                DomainHeat {
                    domain: "state",
                    acqs: 12,
                    contended: 3,
                },
                DomainHeat {
                    domain: "stripe",
                    acqs: 4,
                    contended: 1,
                },
            ],
            policy: PolicyHeat {
                replacement: "clock",
                readahead: "doubling",
                segment_overrides: 0,
                victim_requests: 3,
                victims: 2,
                external_batches: 0,
                external_approvals: 0,
                external_fallbacks: 0,
            },
        };
        let text = render(&top, 2);
        assert!(text.contains("pvmtop  sim=42 ns"));
        assert!(text.contains("policy: clock (+0 overrides)  readahead=doubling  victims 2/3 req"));
        assert!(text.contains("PVICT"));
        assert!(text.contains("... 1 more caches"));
        assert!(text.contains("lock heat (contended/acqs): state 3/12 stripe 1/4"));
        assert!(text.contains("LOCKHEAT"));
        // Render keeps the caller's hottest-first order: cache 0 (9
        // faults) appears before cache 1 (5 faults), cache 2 is cut.
        let row0 = text.find("      0        9").expect("cache 0 row");
        let row1 = text.find("      1        5").expect("cache 1 row");
        assert!(row0 < row1);
    }
}
