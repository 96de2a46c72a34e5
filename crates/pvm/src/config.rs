//! PVM tunables.
//!
//! [`PvmConfig`] stays a flat, public struct (literal mutation keeps
//! working), but the validating [`PvmConfig::builder`] now exposes the
//! knobs through *grouped sections* — [`paging`](PvmConfigBuilder::paging),
//! [`async`](PvmConfigBuilder::r#async), [`pressure`](PvmConfigBuilder::pressure),
//! [`large_pages`](PvmConfigBuilder::large_pages),
//! [`telemetry`](PvmConfigBuilder::telemetry) and
//! [`policy`](PvmConfigBuilder::policy) — so related knobs are set
//! together and cross-field invariants read next to the fields they
//! constrain.
//!
//! Every field is an independent choice. Values that would only restate
//! another field are derived instead (the watermark laundering pass runs
//! exactly when `writeback_low_frames > 0`; `large_pages` reserves
//! contiguous buddy runs), and values no configuration varies are
//! constants next to the code that uses them.

use crate::policy::{PolicyConfig, ReadaheadKind, ReplacementKind};
use crate::trace::TraceConfig;
use chorus_gmi::RetryPolicy;

/// Configuration of a [`crate::Pvm`] instance.
///
/// Construct via [`PvmConfig::default`] followed by field mutation, or
/// through the validating [`PvmConfig::builder`]. The struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream literals.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct PvmConfig {
    /// Enable clock page replacement when the frame pool runs dry. When
    /// disabled, exhaustion returns `GmiError::OutOfMemory` immediately
    /// (useful for deterministic tests).
    pub enable_pageout: bool,
    /// Run the full structural invariant checker after every mutating
    /// operation. Expensive; defaults to on only in debug builds.
    pub check_invariants: bool,
    /// Read-ahead: a `pullIn` may cover up to this many contiguous
    /// owned-but-non-resident pages in one upcall (§3.3.3: "The MM may
    /// unilaterally decide to cache a fragment of data"). 1 disables
    /// clustering. The [`ReadaheadKind::Doubling`] policy ramps the
    /// window from this base.
    pub pull_cluster_pages: u64,
    /// Retry policy for mapper upcalls (`pullIn`, `pushOut`,
    /// `getWriteAccess`): transient failures are retried with exponential
    /// backoff charged to the simulated clock. `RetryPolicy::no_retry()`
    /// restores fail-fast semantics.
    pub retry: RetryPolicy,
    /// Consult the lock-free resident translation cache before taking
    /// the state mutex on a fault. Soft faults (resident page, non-COW,
    /// non-stub, access already allowed) then complete without the big
    /// lock. Disable for single-lock ablation runs.
    pub fast_path: bool,
    /// Event tracing (see [`crate::trace`]). Disabled by default; when
    /// disabled every trace point is one relaxed atomic load, and when
    /// enabled the simulated clock is untouched, so the evaluation
    /// tables are bit-identical either way.
    pub trace: TraceConfig,
    /// Write-back clustering: a `pushOut` may cover up to this many
    /// contiguous dirty resident pages of the same cache in one batched
    /// upcall (one request overhead per run, symmetric to
    /// [`PvmConfig::pull_cluster_pages`]). 1 disables clustering.
    pub push_cluster_pages: u64,
    /// Low free-frame watermark of the laundering pass: whenever an
    /// operation enters the PVM with fewer free frames than this, a
    /// deterministic pageout pass cleans and evicts pages until
    /// [`PvmConfig::writeback_high_frames`] frames are free, so demand
    /// faults almost never block on a synchronous `pushOut`. 0 (the
    /// default) turns the pass off.
    pub writeback_low_frames: u32,
    /// High free-frame watermark at which the laundering pass stops.
    pub writeback_high_frames: u32,
    /// Ceiling of the [`ReadaheadKind::Doubling`] window, in pages.
    pub readahead_max_pages: u64,
    /// Completion-based asynchronous upcalls: readahead tail `pullIn`s
    /// and watermark-laundering `pushOut`s become fire-and-collect
    /// requests tracked in a per-mapper in-flight table and delivered
    /// by a deterministic completion scheduler in (due-time,
    /// request-id) order. Off by default: every upcall then completes
    /// synchronously inside the blocked-action driver and the
    /// evaluation tables are bit-identical to the pre-engine code.
    pub async_upcalls: bool,
    /// Maximum outstanding asynchronous upcalls per mapper. Further
    /// submissions fall back to the synchronous path (pushes) or queue
    /// as pending coalescible requests (pulls). Must be at least 1.
    pub max_inflight_upcalls: u64,
    /// Deadline watchdog over the asynchronous in-flight table: every
    /// driver entry sweeps the completion queue on the simulated clock
    /// and cancels requests whose per-request deadline (submit time +
    /// [`RetryPolicy::deadline_ns`]) has expired, failing them through
    /// the existing transient taxonomy (`MapperTimeout`) so pull stubs
    /// are cleared and push pages stay dirty for relaundering. Off by
    /// default: hung requests then park in the queue until force-
    /// delivered, reproducing the pre-watchdog stall behaviour.
    pub upcall_watchdog: bool,
    /// Watchdog timeouts after which a mapper is escalated to the
    /// `Suspected` state: its in-flight cap shrinks to 1 and demand
    /// pulls stop splitting an asynchronous readahead tail (fully
    /// synchronous path). A successful delivery clears the suspicion.
    pub suspect_after_timeouts: u32,
    /// Watchdog timeouts after which the affected cache is quarantined
    /// outright (the full `CachePoisoned` escalation). Must be at least
    /// [`PvmConfig::suspect_after_timeouts`].
    pub quarantine_after_timeouts: u32,
    /// Backpressure bound on the pending asynchronous pull queue: a
    /// faulting thread entering the slow path while this many pulls are
    /// queued (not yet submitted) blocks on `Blocked::Throttled`,
    /// force-draining completions instead of growing the queue without
    /// bound. 0 disables throttling.
    pub max_pending_pulls: u64,
    /// Emergency frame reserve: ordinary allocations launder/evict
    /// until this many frames stay free, while pull-recovery (`fillUp`)
    /// allocations may draw the reserve down to zero. Closes the
    /// frame-exhaustion deadlock where laundering itself needs a frame.
    /// 0 disables the reserve.
    pub emergency_reserve_frames: u32,
    /// Out-of-memory escalation: when the frame pool is dry and a full
    /// clock sweep finds no victim (and the completion engine has no
    /// deliverable work), score contexts by resident+dirty footprint
    /// and recent fault count, tear down the worst victim through the
    /// normal context-destroy path, and reclaim its frames. Accesses
    /// through the dead handle then report `ContextKilled`. Off by
    /// default: exhaustion returns `OutOfMemory` as before.
    pub oom_killer: bool,
    /// Large-page promotion over contiguous buddy runs: a synchronous
    /// pull window that covers a whole aligned large page reserves one
    /// contiguous pre-zeroed frame run (`alloc_run_zeroed`), and a fully
    /// resident, aligned, uniformly protected run of
    /// [`PvmConfig::promote_threshold_pages`] base pages backed by
    /// contiguous frames is additionally mapped by a single large MMU
    /// entry, so subsequent accesses anywhere in the run translate
    /// without faulting. Any per-page mutation (unmap, reprotect, evict,
    /// quarantine) demotes the large mapping first. Off by default:
    /// frames are then handed out one at a time.
    pub large_pages: bool,
    /// Base pages per large page (the promotion granule). Must be a
    /// power of two of at least 2. 256 matches the 2 MiB class over the
    /// paper's 8 KiB pages.
    pub promote_threshold_pages: u64,
    /// Dimensional telemetry (see [`crate::telemetry`]): per-cache,
    /// per-context and per-mapper counter families bumped at the same
    /// sites that feed the global [`crate::StatsRegistry`] cells, plus
    /// the deterministic sim-time gauge sampler behind
    /// [`PvmConfig::telemetry_sample_ns`]. Off by default: every
    /// dimensional site is then one relaxed atomic load, no sample is
    /// ever taken, and the evaluation tables are bit-identical. When
    /// on, no telemetry path touches the simulated clock — it reads
    /// `now()` but never advances it.
    pub telemetry: bool,
    /// Cadence of the deterministic gauge sampler, in *simulated*
    /// nanoseconds (no wall clock is ever consulted): at most one
    /// [`crate::TelemetrySample`] is recorded per driver entry, aligned
    /// to multiples of this period on the simulated clock. Must be at
    /// least 1 when [`PvmConfig::telemetry`] is on.
    pub telemetry_sample_ns: u64,
    /// Parallel hard-fault engine: 16 per-cache fault stripes above the
    /// state lock, so hard faults to *disjoint* caches pull and fill
    /// concurrently — the faulting thread holds only its cache's stripe
    /// across the pull, and `fillUp` copies the delivered bytes into
    /// landing frames outside every lock. Off by default: all work then
    /// funnels through the classic single state mutex and the
    /// evaluation tables are bit-identical. The striped driver engages only when
    /// [`PvmConfig::async_upcalls`] is off (the completion engine has
    /// its own source of concurrency); the knob is inert, not invalid,
    /// with the engine on.
    ///
    /// Setting the `CHORUS_PARALLEL_FAULTS` environment variable to
    /// anything but `0` or the empty string flips the *default* to on,
    /// so whole existing test suites can be swept knob-on
    /// (`CHORUS_PARALLEL_FAULTS=1 cargo test`) without editing every
    /// config literal. Explicit assignments and builder calls still
    /// win over the environment.
    pub parallel_faults: bool,
    /// Replacement and readahead policy selection: which
    /// `ReplacementPolicy` runs victim selection — globally and per
    /// segment override — and whether the pull window stays at
    /// [`PvmConfig::pull_cluster_pages`] ([`ReadaheadKind::Fifo`]) or
    /// doubles on sequential streams ([`ReadaheadKind::Doubling`]). The
    /// defaults (`Clock` + `Fifo`) reproduce the classic clock sweep and
    /// the static pull cluster bit-identically.
    pub policy: PolicyConfig,
}

impl Default for PvmConfig {
    fn default() -> PvmConfig {
        PvmConfig {
            enable_pageout: true,
            check_invariants: cfg!(debug_assertions),
            pull_cluster_pages: 1,
            retry: RetryPolicy::default(),
            fast_path: true,
            trace: TraceConfig::default(),
            push_cluster_pages: 1,
            writeback_low_frames: 0,
            writeback_high_frames: 0,
            readahead_max_pages: 8,
            async_upcalls: false,
            max_inflight_upcalls: 4,
            upcall_watchdog: false,
            suspect_after_timeouts: 2,
            quarantine_after_timeouts: 4,
            max_pending_pulls: 0,
            emergency_reserve_frames: 0,
            oom_killer: false,
            large_pages: false,
            promote_threshold_pages: 256,
            telemetry: false,
            telemetry_sample_ns: 1_000_000,
            parallel_faults: parallel_faults_env(),
            policy: PolicyConfig::default(),
        }
    }
}

/// Environment override for the [`PvmConfig::parallel_faults`] default:
/// `CHORUS_PARALLEL_FAULTS` set to anything but `0`/empty turns the
/// knob on for every default-constructed config, enabling knob-on
/// sweeps of unmodified test suites.
fn parallel_faults_env() -> bool {
    std::env::var_os("CHORUS_PARALLEL_FAULTS").is_some_and(|v| !v.is_empty() && v != "0")
}

impl PvmConfig {
    /// Starts a validating [`PvmConfigBuilder`] seeded with the
    /// defaults.
    pub fn builder() -> PvmConfigBuilder {
        PvmConfigBuilder {
            config: PvmConfig::default(),
        }
    }
}

/// Builder for [`PvmConfig`] enforcing cross-field invariants that a
/// plain struct literal cannot: watermark ordering, non-zero cluster
/// sizes, readahead ceiling at least the base cluster, a positive
/// in-flight budget, and well-formed policy overrides.
///
/// Knobs are set through grouped sections, each a closure over a
/// section proxy:
///
/// ```
/// # use chorus_pvm::PvmConfig;
/// let config = PvmConfig::builder()
///     .paging(|p| p.pull_cluster_pages(4).readahead_max_pages(16))
///     .pressure(|p| p.writeback_low_frames(4).writeback_high_frames(8))
///     .policy(|p| p.replacement(chorus_pvm::ReplacementKind::Lru))
///     .build()
///     .unwrap();
/// assert_eq!(config.pull_cluster_pages, 4);
/// ```
#[derive(Clone, Debug)]
pub struct PvmConfigBuilder {
    config: PvmConfig,
}

/// Generates `#[must_use]` setters over a wrapped [`PvmConfig`]; used
/// by every builder section proxy.
macro_rules! setters {
    ($($(#[$meta:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$meta])*
            #[must_use]
            pub fn $name(mut self, value: $ty) -> Self {
                self.cfg.$name = value;
                self
            }
        )*
    };
}

/// The `paging` section: core replacement/readahead mechanics and the
/// fault fast paths.
#[derive(Debug)]
pub struct PagingSection {
    cfg: PvmConfig,
}

impl PagingSection {
    setters! {
        /// See [`PvmConfig::enable_pageout`].
        enable_pageout: bool,
        /// See [`PvmConfig::check_invariants`].
        check_invariants: bool,
        /// See [`PvmConfig::pull_cluster_pages`].
        pull_cluster_pages: u64,
        /// See [`PvmConfig::push_cluster_pages`].
        push_cluster_pages: u64,
        /// See [`PvmConfig::readahead_max_pages`].
        readahead_max_pages: u64,
        /// See [`PvmConfig::fast_path`].
        fast_path: bool,
        /// See [`PvmConfig::parallel_faults`].
        parallel_faults: bool,
    }
}

/// The `async` section: the completion engine, mapper retry/health
/// escalation and the deadline watchdog.
#[derive(Debug)]
pub struct AsyncSection {
    cfg: PvmConfig,
}

impl AsyncSection {
    setters! {
        /// See [`PvmConfig::async_upcalls`].
        async_upcalls: bool,
        /// See [`PvmConfig::max_inflight_upcalls`].
        max_inflight_upcalls: u64,
        /// See [`PvmConfig::upcall_watchdog`].
        upcall_watchdog: bool,
        /// See [`PvmConfig::suspect_after_timeouts`].
        suspect_after_timeouts: u32,
        /// See [`PvmConfig::quarantine_after_timeouts`].
        quarantine_after_timeouts: u32,
        /// See [`PvmConfig::retry`].
        retry: RetryPolicy,
    }
}

/// The `pressure` section: the memory-pressure survival layer —
/// laundering watermarks, backpressure, reserves and the OOM killer.
#[derive(Debug)]
pub struct PressureSection {
    cfg: PvmConfig,
}

impl PressureSection {
    setters! {
        /// See [`PvmConfig::writeback_low_frames`].
        writeback_low_frames: u32,
        /// See [`PvmConfig::writeback_high_frames`].
        writeback_high_frames: u32,
        /// See [`PvmConfig::max_pending_pulls`].
        max_pending_pulls: u64,
        /// See [`PvmConfig::emergency_reserve_frames`].
        emergency_reserve_frames: u32,
        /// See [`PvmConfig::oom_killer`].
        oom_killer: bool,
    }
}

/// The `large_pages` section: the buddy contiguous-run tier and
/// large-page promotion over it.
#[derive(Debug)]
pub struct LargePagesSection {
    cfg: PvmConfig,
}

impl LargePagesSection {
    setters! {
        /// See [`PvmConfig::large_pages`].
        large_pages: bool,
        /// See [`PvmConfig::promote_threshold_pages`].
        promote_threshold_pages: u64,
    }
}

/// The `telemetry` section: dimensional counter families, the gauge
/// sampler and event tracing.
#[derive(Debug)]
pub struct TelemetrySection {
    cfg: PvmConfig,
}

impl TelemetrySection {
    setters! {
        /// See [`PvmConfig::telemetry`].
        telemetry: bool,
        /// See [`PvmConfig::telemetry_sample_ns`].
        telemetry_sample_ns: u64,
        /// See [`PvmConfig::trace`].
        trace: TraceConfig,
    }
}

/// The `policy` section: replacement/readahead policy selection (see
/// [`crate::policy`]), per-segment overrides and the external-policy
/// batch size.
#[derive(Debug)]
pub struct PolicySection {
    cfg: PvmConfig,
}

impl PolicySection {
    /// Default replacement policy for every segment manager without an
    /// override. See [`PolicyConfig::replacement`].
    #[must_use]
    pub fn replacement(mut self, kind: ReplacementKind) -> Self {
        self.cfg.policy.replacement = kind;
        self
    }

    /// Readahead window policy. See [`PolicyConfig::readahead`].
    #[must_use]
    pub fn readahead(mut self, kind: ReadaheadKind) -> Self {
        self.cfg.policy.readahead = kind;
        self
    }

    /// Routes pages of the segment manager that registered `segment`
    /// to their own instance of `kind` instead of the default
    /// replacement policy. See [`PolicyConfig::segment_overrides`].
    #[must_use]
    pub fn segment_override(mut self, segment: u64, kind: ReplacementKind) -> Self {
        self.cfg.policy.segment_overrides.push((segment, kind));
        self
    }

    /// WSClock working-set age threshold τ, in victim-selection rounds.
    /// See [`PolicyConfig::wsclock_tau`].
    #[must_use]
    pub fn wsclock_tau(mut self, tau: u64) -> Self {
        self.cfg.policy.wsclock_tau = tau;
        self
    }

    /// Candidate batch size per external-policy `victimAdvice` upcall.
    /// See [`PolicyConfig::external_batch`].
    #[must_use]
    pub fn external_batch(mut self, batch: u64) -> Self {
        self.cfg.policy.external_batch = batch;
        self
    }
}

macro_rules! sections {
    ($($(#[$meta:meta])* $name:ident: $proxy:ident,)*) => {
        $(
            $(#[$meta])*
            #[must_use]
            pub fn $name(mut self, f: impl FnOnce($proxy) -> $proxy) -> Self {
                self.config = f($proxy { cfg: self.config }).cfg;
                self
            }
        )*
    };
}

impl PvmConfigBuilder {
    sections! {
        /// Core paging mechanics: clustering, readahead window bounds,
        /// fast paths. See [`PagingSection`].
        paging: PagingSection,
        /// The asynchronous upcall engine and mapper-health
        /// escalation. See [`AsyncSection`].
        r#async: AsyncSection,
        /// Memory-pressure survival: laundering watermarks,
        /// backpressure, reserves, OOM killer. See [`PressureSection`].
        pressure: PressureSection,
        /// Buddy contiguous runs and large-page promotion. See
        /// [`LargePagesSection`].
        large_pages: LargePagesSection,
        /// Dimensional telemetry, gauge sampling and tracing. See
        /// [`TelemetrySection`].
        telemetry: TelemetrySection,
        /// Replacement/readahead policy selection. See
        /// [`PolicySection`].
        policy: PolicySection,
    }

    /// Validates the assembled configuration.
    ///
    /// # Errors
    ///
    /// Returns [`chorus_gmi::GmiError::Unsupported`] naming the violated
    /// invariant: zero cluster/in-flight sizes, inverted
    /// writeback watermarks, or a readahead ceiling below the base
    /// pull cluster.
    pub fn build(self) -> chorus_gmi::Result<PvmConfig> {
        let c = &self.config;
        if c.pull_cluster_pages < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "pull_cluster_pages must be at least 1",
            ));
        }
        if c.push_cluster_pages < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "push_cluster_pages must be at least 1",
            ));
        }
        if c.writeback_low_frames > c.writeback_high_frames {
            return Err(chorus_gmi::GmiError::Unsupported(
                "writeback_low_frames must not exceed writeback_high_frames",
            ));
        }
        if c.readahead_max_pages < c.pull_cluster_pages {
            return Err(chorus_gmi::GmiError::Unsupported(
                "readahead_max_pages must be at least pull_cluster_pages",
            ));
        }
        if c.max_inflight_upcalls < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "max_inflight_upcalls must be at least 1",
            ));
        }
        if c.suspect_after_timeouts < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "suspect_after_timeouts must be at least 1",
            ));
        }
        if c.quarantine_after_timeouts < c.suspect_after_timeouts {
            return Err(chorus_gmi::GmiError::Unsupported(
                "quarantine_after_timeouts must be at least suspect_after_timeouts",
            ));
        }
        if !c.promote_threshold_pages.is_power_of_two() || c.promote_threshold_pages < 2 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "promote_threshold_pages must be a power of two >= 2",
            ));
        }
        if c.telemetry && c.telemetry_sample_ns < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "telemetry_sample_ns must be at least 1 when telemetry is on",
            ));
        }
        if c.policy.wsclock_tau < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "policy.wsclock_tau must be at least 1",
            ));
        }
        if c.policy.external_batch < 1 {
            return Err(chorus_gmi::GmiError::Unsupported(
                "policy.external_batch must be at least 1",
            ));
        }
        for (i, &(seg, _)) in c.policy.segment_overrides.iter().enumerate() {
            if c.policy.segment_overrides[..i]
                .iter()
                .any(|&(s, _)| s == seg)
            {
                return Err(chorus_gmi::GmiError::Unsupported(
                    "policy.segment_overrides names a segment twice",
                ));
            }
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_ipc_boundary() {
        let c = PvmConfig::default();
        // 8 pages * 8 KB = 64 KB, the paper's IPC message limit.
        assert_eq!(crate::copy::PER_PAGE_MAX_PAGES * 8192, 64 * 1024);
        assert!(c.enable_pageout);
        assert_eq!(c.pull_cluster_pages, 1, "clustering is opt-in");
        assert!(c.retry.max_attempts > 1, "transient faults heal by default");
        assert!(c.fast_path, "soft-fault fast path is on by default");
        assert!(!c.trace.enabled, "tracing is opt-in");
        assert!(!c.trace.wall_clock, "wall stamps are opt-in");
        assert_eq!(c.push_cluster_pages, 1, "write clustering is opt-in");
        assert_eq!(c.writeback_low_frames, 0, "laundering is opt-in");
        assert_eq!(c.writeback_high_frames, 0);
        assert_eq!(c.readahead_max_pages, 8);
        assert!(!c.async_upcalls, "the completion engine is opt-in");
        assert!(c.max_inflight_upcalls >= 1);
        assert!(!c.upcall_watchdog, "the deadline watchdog is opt-in");
        assert_eq!(c.suspect_after_timeouts, 2);
        assert_eq!(c.quarantine_after_timeouts, 4);
        assert_eq!(c.max_pending_pulls, 0, "backpressure is opt-in");
        assert_eq!(c.emergency_reserve_frames, 0, "the reserve is opt-in");
        assert!(!c.oom_killer, "the OOM killer is opt-in");
        assert!(!c.large_pages, "large pages are opt-in");
        assert_eq!(
            c.promote_threshold_pages * 8192,
            2 * 1024 * 1024,
            "the default granule is the 2 MiB class over 8 KiB pages"
        );
        assert!(!c.telemetry, "dimensional telemetry is opt-in");
        assert_eq!(c.telemetry_sample_ns, 1_000_000, "1 ms sim cadence");
        if std::env::var_os("CHORUS_PARALLEL_FAULTS").is_none() {
            assert!(!c.parallel_faults, "parallel hard faults are opt-in");
        }
        assert_eq!(
            c.policy.replacement,
            ReplacementKind::Clock,
            "the default replacement policy is the classic clock"
        );
        assert_eq!(
            c.policy.readahead,
            ReadaheadKind::Fifo,
            "the default pull window is the static cluster"
        );
        assert!(c.policy.segment_overrides.is_empty());
    }

    #[test]
    fn builder_accepts_defaults_and_valid_tweaks() {
        let c = PvmConfig::builder()
            .paging(|p| {
                p.pull_cluster_pages(4)
                    .readahead_max_pages(16)
                    .parallel_faults(true)
            })
            .pressure(|p| {
                p.writeback_low_frames(4)
                    .writeback_high_frames(8)
                    .max_pending_pulls(16)
                    .emergency_reserve_frames(2)
                    .oom_killer(true)
            })
            .r#async(|a| {
                a.async_upcalls(true)
                    .max_inflight_upcalls(2)
                    .upcall_watchdog(true)
                    .suspect_after_timeouts(1)
                    .quarantine_after_timeouts(3)
            })
            .telemetry(|t| t.telemetry(true).telemetry_sample_ns(500_000))
            .build()
            .expect("valid config");
        assert_eq!(c.pull_cluster_pages, 4);
        assert!(c.async_upcalls);
        assert_eq!(c.max_inflight_upcalls, 2);
        assert!(c.upcall_watchdog);
        assert_eq!(c.quarantine_after_timeouts, 3);
        assert_eq!(c.max_pending_pulls, 16);
        assert!(c.oom_killer);
        assert!(c.telemetry);
        assert_eq!(c.telemetry_sample_ns, 500_000);
        assert!(
            c.parallel_faults,
            "parallel_faults composes with the async engine (inert, not invalid)"
        );
    }

    #[test]
    fn policy_section_selects_and_routes() {
        let c = PvmConfig::builder()
            .policy(|p| {
                p.replacement(ReplacementKind::Lru)
                    .readahead(ReadaheadKind::Doubling)
                    .segment_override(7, ReplacementKind::WsClock)
                    .wsclock_tau(3)
                    .external_batch(4)
            })
            .build()
            .expect("valid policy config");
        assert_eq!(c.policy.replacement, ReplacementKind::Lru);
        assert_eq!(c.policy.readahead, ReadaheadKind::Doubling);
        assert_eq!(
            c.policy.segment_overrides,
            vec![(7, ReplacementKind::WsClock)]
        );
        assert_eq!(c.policy.wsclock_tau, 3);
        assert_eq!(c.policy.external_batch, 4);
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        let paging_err =
            |f: fn(PagingSection) -> PagingSection| PvmConfig::builder().paging(f).build().is_err();
        assert!(paging_err(|p| p.pull_cluster_pages(0)));
        assert!(paging_err(|p| p.push_cluster_pages(0)));
        assert!(paging_err(|p| p
            .pull_cluster_pages(8)
            .readahead_max_pages(4)));
        assert!(PvmConfig::builder()
            .pressure(|p| p.writeback_low_frames(8).writeback_high_frames(4))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .r#async(|a| a.max_inflight_upcalls(0))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .r#async(|a| a.suspect_after_timeouts(0))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .r#async(|a| a.suspect_after_timeouts(5).quarantine_after_timeouts(2))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .large_pages(|l| l.promote_threshold_pages(48))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .large_pages(|l| l.promote_threshold_pages(1))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .telemetry(|t| t.telemetry(true).telemetry_sample_ns(0))
            .build()
            .is_err());
        assert!(
            PvmConfig::builder()
                .telemetry(|t| t.telemetry_sample_ns(0))
                .build()
                .is_ok(),
            "a zero cadence is only rejected once telemetry is on"
        );
        assert!(PvmConfig::builder()
            .policy(|p| p.wsclock_tau(0))
            .build()
            .is_err());
        assert!(PvmConfig::builder()
            .policy(|p| p.external_batch(0))
            .build()
            .is_err());
        assert!(
            PvmConfig::builder()
                .policy(|p| {
                    p.segment_override(3, ReplacementKind::Lru)
                        .segment_override(3, ReplacementKind::Arc)
                })
                .build()
                .is_err(),
            "duplicate per-segment overrides are ambiguous"
        );
        let c = PvmConfig::builder()
            .large_pages(|l| l.large_pages(true).promote_threshold_pages(16))
            .build()
            .expect("valid large-page config");
        assert!(c.large_pages);
        assert_eq!(c.promote_threshold_pages, 16);
    }
}
