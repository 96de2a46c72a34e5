//! In-memory span recording for the traced run.
//!
//! Every call the benchmark's decorators (see `layers.rs`) wrap becomes
//! a span: name, start, end, parent span and the unit-op id as request
//! id. Recording is per thread (no shared cache line on the hot path);
//! threads hand their recorder back when they finish and the runner
//! merges them. Aggregates (count, self time, errors, duration
//! histogram) cover every span; raw rows are kept for the first
//! `MAX_ROWS` spans per thread and written out as a chrome://tracing
//! file at exit.

use crate::hist::Hist;
use std::cell::RefCell;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// The repository layers a span can belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `chorus-mix` ProcessManager and the Nucleus code under it.
    Mix,
    /// Everything behind the `Gmi` trait, including the `CacheIo`
    /// callbacks a segment manager makes into the PVM.
    Pvm,
    /// The GMI upcall interface (`SegmentManagerV2` over the Nucleus
    /// segment manager).
    Upcall,
    /// Nucleus mappers.
    Mapper,
}

macro_rules! spans {
    ($($variant:ident => $name:literal, $layer:ident;)*) => {
        /// A span name: one wrapped entry point.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Sp {
            $($variant,)*
        }

        impl Sp {
            pub const ALL: &'static [Sp] = &[$(Sp::$variant,)*];

            pub fn name(self) -> &'static str {
                match self {
                    $(Sp::$variant => $name,)*
                }
            }

            pub fn layer(self) -> Layer {
                match self {
                    $(Sp::$variant => Layer::$layer,)*
                }
            }
        }
    };
}

spans! {
    MixSpawn => "mix.spawn", Mix;
    MixFork => "mix.fork", Mix;
    MixExec => "mix.exec", Mix;
    MixExit => "mix.exit", Mix;
    MixWait => "mix.wait", Mix;
    MixPipeWrite => "mix.pipe_write", Mix;
    MixPipeRead => "mix.pipe_read", Mix;
    MixReadMem => "mix.read_mem", Mix;
    MixWriteMem => "mix.write_mem", Mix;
    IoFillUp => "io.fill_up", Pvm;
    IoCopyBack => "io.copy_back", Pvm;
    IoMoveBack => "io.move_back", Pvm;
    IoCopyBackRun => "io.copy_back_run", Pvm;
    GmiCacheCreate => "gmi.cache_create", Pvm;
    GmiCacheDestroy => "gmi.cache_destroy", Pvm;
    GmiCacheCopy => "gmi.cache_copy", Pvm;
    GmiCacheRead => "gmi.cache_read", Pvm;
    GmiCacheWrite => "gmi.cache_write", Pvm;
    GmiCacheMove => "gmi.cache_move", Pvm;
    GmiContextCreate => "gmi.context_create", Pvm;
    GmiContextDestroy => "gmi.context_destroy", Pvm;
    GmiContextSwitch => "gmi.context_switch", Pvm;
    GmiRegionList => "gmi.region_list", Pvm;
    GmiFindRegion => "gmi.find_region", Pvm;
    GmiRegionCreate => "gmi.region_create", Pvm;
    GmiRegionSplit => "gmi.region_split", Pvm;
    GmiRegionSetProtection => "gmi.region_set_protection", Pvm;
    GmiRegionLock => "gmi.region_lock_in_memory", Pvm;
    GmiRegionUnlock => "gmi.region_unlock", Pvm;
    GmiRegionStatus => "gmi.region_status", Pvm;
    GmiRegionDestroy => "gmi.region_destroy", Pvm;
    GmiCacheFlush => "gmi.cache_flush", Pvm;
    GmiCacheSync => "gmi.cache_sync", Pvm;
    GmiCacheInvalidate => "gmi.cache_invalidate", Pvm;
    GmiCacheSetProtection => "gmi.cache_set_protection", Pvm;
    GmiCacheLock => "gmi.cache_lock_in_memory", Pvm;
    GmiCacheUnlock => "gmi.cache_unlock", Pvm;
    GmiHandleFault => "gmi.handle_fault", Pvm;
    GmiVmRead => "gmi.vm_read", Pvm;
    GmiVmWrite => "gmi.vm_write", Pvm;
    GmiGeometry => "gmi.geometry", Pvm;
    GmiResidentPages => "gmi.cache_resident_pages", Pvm;
    UpPull => "upcall.pull", Upcall;
    UpPush => "upcall.push", Upcall;
    UpWriteAccess => "upcall.write_access", Upcall;
    UpCreateSegment => "upcall.create_segment", Upcall;
    UpSegmentLen => "upcall.segment_len", Upcall;
    UpAdviseVictims => "upcall.advise_victims", Upcall;
    MapRead => "mapper.read", Mapper;
    MapWrite => "mapper.write", Mapper;
    MapWriteAccess => "mapper.get_write_access", Mapper;
    MapSize => "mapper.size", Mapper;
    MapAllocTemporary => "mapper.allocate_temporary", Mapper;
}

impl Sp {
    /// A call from the Nucleus into the PVM (the `CacheIo` callbacks
    /// come from the segment manager instead).
    pub fn is_gmi_call(self) -> bool {
        self.layer() == Layer::Pvm && !self.name().starts_with("io.")
    }
}

/// Raw rows kept per thread for the span file.
pub const MAX_ROWS: usize = 50_000;

const NO_PARENT: u32 = u32::MAX;

/// Aggregate of every span of one name.
#[derive(Clone, Default)]
pub struct Agg {
    pub count: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    pub errors: u64,
    pub hist: Hist,
}

struct Frame {
    sp: Sp,
    start: u64,
    child_ns: u64,
    upcalled: bool,
    row: u32,
}

struct Row {
    sp: Sp,
    start: u64,
    end: u64,
    parent: u32,
    op: u64,
}

/// One thread's recording (or, after [`Rec::merge`], several).
pub struct Rec {
    pub aggs: Vec<Agg>,
    /// `gmi.handle_fault` spans with an upcall under them.
    pub hard_faults: Hist,
    /// `gmi.handle_fault` spans resolved without an upcall.
    pub soft_faults: Hist,
    pub mapper_read_bytes: u64,
    pub mapper_write_bytes: u64,
    stack: Vec<Frame>,
    rows: Vec<(u32, Row)>,
    pub dropped_rows: u64,
    op: u64,
    tid: u32,
}

impl Default for Rec {
    fn default() -> Rec {
        Rec {
            aggs: vec![Agg::default(); Sp::ALL.len()],
            hard_faults: Hist::new(),
            soft_faults: Hist::new(),
            mapper_read_bytes: 0,
            mapper_write_bytes: 0,
            stack: Vec::new(),
            rows: Vec::new(),
            dropped_rows: 0,
            op: 0,
            tid: 0,
        }
    }
}

thread_local! {
    static REC: RefCell<Rec> = RefCell::new(Rec::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts a fresh recording on this thread, tagged `tid`.
pub fn reset_thread(tid: u32) {
    REC.with(|r| {
        *r.borrow_mut() = Rec {
            tid,
            ..Rec::default()
        }
    });
}

/// Takes this thread's recording, leaving an empty one.
pub fn take_thread() -> Rec {
    REC.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Sets the request id that new spans on this thread carry.
pub fn set_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Adds mapper payload bytes to this thread's recording.
pub fn mapper_bytes(read: u64, written: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.mapper_read_bytes += read;
        r.mapper_write_bytes += written;
    });
}

fn enter(sp: Sp) {
    let start = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.stack.last().map_or(NO_PARENT, |f| f.row);
        let row = if r.rows.len() < MAX_ROWS {
            let row = Row {
                sp,
                start,
                end: start,
                parent,
                op: r.op,
            };
            let tid = r.tid;
            r.rows.push((tid, row));
            (r.rows.len() - 1) as u32
        } else {
            r.dropped_rows += 1;
            NO_PARENT
        };
        r.stack.push(Frame {
            sp,
            start,
            child_ns: 0,
            upcalled: false,
            row,
        });
    });
}

fn exit(failed: bool) {
    let end = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let f = r.stack.pop().expect("span exit without enter");
        let dur = end.saturating_sub(f.start);
        if f.row != NO_PARENT {
            r.rows[f.row as usize].1.end = end;
        }
        let upcalled = f.upcalled || f.sp.layer() == Layer::Upcall;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += dur;
            parent.upcalled |= upcalled;
        }
        if f.sp == Sp::GmiHandleFault {
            if upcalled {
                r.hard_faults.record(dur);
            } else {
                r.soft_faults.record(dur);
            }
        }
        let agg = &mut r.aggs[f.sp as usize];
        agg.count += 1;
        agg.self_ns += dur.saturating_sub(f.child_ns);
        agg.errors += u64::from(failed);
        agg.hist.record(dur);
    });
}

/// Runs `f` inside a span.
#[inline]
pub fn span<R>(sp: Sp, f: impl FnOnce() -> R) -> R {
    enter(sp);
    let out = f();
    exit(false);
    out
}

/// Runs a fallible `f` inside a span, counting `Err` results.
#[inline]
pub fn span_r<T, E>(sp: Sp, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    enter(sp);
    let out = f();
    exit(out.is_err());
    out
}

impl Rec {
    pub fn agg(&self, sp: Sp) -> &Agg {
        &self.aggs[sp as usize]
    }

    /// Self time of every span of `layer`, in ns.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        Sp::ALL
            .iter()
            .filter(|sp| sp.layer() == layer)
            .map(|&sp| self.agg(sp).self_ns)
            .sum()
    }

    /// One duration histogram over several span names.
    pub fn hist_of(&self, sps: &[Sp]) -> Hist {
        let mut h = Hist::new();
        for &sp in sps {
            h.merge(&self.agg(sp).hist);
        }
        h
    }

    pub fn merge(&mut self, other: Rec) {
        for (a, b) in self.aggs.iter_mut().zip(&other.aggs) {
            a.count += b.count;
            a.self_ns += b.self_ns;
            a.errors += b.errors;
            a.hist.merge(&b.hist);
        }
        self.hard_faults.merge(&other.hard_faults);
        self.soft_faults.merge(&other.soft_faults);
        self.mapper_read_bytes += other.mapper_read_bytes;
        self.mapper_write_bytes += other.mapper_write_bytes;
        self.dropped_rows += other.dropped_rows;
        // Parent links index the owning thread's rows; keep them
        // resolvable by storing each row with its thread's base offset.
        let base = self.rows.len() as u32;
        self.rows
            .extend(other.rows.into_iter().map(|(tid, mut row)| {
                if row.parent != NO_PARENT {
                    row.parent += base;
                }
                (tid, row)
            }));
    }

    /// Writes the raw spans as chrome://tracing JSON ("X" events; `id`
    /// is the row index, `parent` the parent's row index or -1, `req`
    /// the unit-op id).
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, (tid, row)) in self.rows.iter().enumerate() {
            let parent = if row.parent == NO_PARENT {
                -1
            } else {
                i64::from(row.parent)
            };
            writeln!(
                w,
                "{}{{\"name\":\"{}\",\"cat\":\"{:?}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                if i == 0 { "" } else { "," },
                row.sp.name(),
                row.sp.layer(),
                tid,
                row.start as f64 / 1e3,
                row.end.saturating_sub(row.start) as f64 / 1e3,
                i,
                parent,
                row.op,
            )?;
        }
        writeln!(
            w,
            "],\"otherData\":{{\"dropped_rows\":{}}}}}",
            self.dropped_rows
        )?;
        w.flush()
    }
}

/// Runs `f` inside a span when `on` (a `Front::TRACED` constant, so the
/// untraced build compiles the branch away).
#[inline]
pub fn when<R>(on: bool, sp: Sp, f: impl FnOnce() -> R) -> R {
    if on {
        span(sp, f)
    } else {
        f()
    }
}
