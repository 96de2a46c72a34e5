//! End-to-end and per-layer benchmark of the PVM through MIX and the
//! Nucleus. See `README.md` next to this crate for the workloads, the
//! metrics and why each was chosen.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path vmbench/Cargo.toml -- \
//!     --workload <unix_fork_pipe|zipf_file_rw|parallel_faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the untraced stack and prints the end-to-end
//! metrics; `--trace 1` measures the same workload untraced and then
//! with the timing decorators in place, prints the per-layer metrics
//! and writes the spans to `vmbench/out/`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod fork_pipe;
mod gen;
mod hist;
mod layers;
mod par_faults;
mod run;
mod trace;
mod world;
mod zipf_file;

use chorus_hal::OpKind;
use chorus_pvm::Pvm;
use layers::Timed;
use run::{run, Length, Run, Setup};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use trace::{Layer, Sp};
use world::Snap;

/// A measured window is cut short once it has taken this many times
/// its share of `--seconds` in wall time, so a much slower build still
/// ends in time.
const MAX_STRETCH: f64 = 2.5;

/// Extra set-ups per run beyond the ones the measured runs need, half
/// before the runs and half after them, so they sample the host at
/// both ends of the run; the reported `setup_s` is the median over all
/// of them.
const EXTRA_SETUPS: usize = 26;

struct Spec {
    name: &'static str,
    /// Unmeasured ops per client before the window opens (fills memory
    /// and the live-process set).
    warmup: u64,
    /// Ops per client in each fixed-length determinism run.
    check_ops: u64,
    /// Ops per client per `--seconds` in the measured window: about
    /// what this host did per second at the time the benchmark was
    /// written, so the window's length in ops is fixed by `--seconds`
    /// and its length in wall time is about `--seconds`.
    nominal_ops_per_s: u64,
    digest: fn(u64) -> u64,
    plain: fn(u64) -> Setup<Pvm>,
    traced: fn(u64) -> Setup<Timed<Arc<Pvm>>>,
}

const SPECS: &[Spec] = &[
    Spec {
        name: "unix_fork_pipe",
        warmup: 64,
        check_ops: 2_000,
        nominal_ops_per_s: 19_000,
        digest: fork_pipe::input_digest,
        plain: fork_pipe::setup::<Pvm>,
        traced: fork_pipe::setup::<Timed<Arc<Pvm>>>,
    },
    Spec {
        name: "zipf_file_rw",
        warmup: 20_000,
        check_ops: 100_000,
        nominal_ops_per_s: 470_000,
        digest: zipf_file::input_digest,
        plain: zipf_file::setup::<Pvm>,
        traced: zipf_file::setup::<Timed<Arc<Pvm>>>,
    },
    Spec {
        name: "parallel_faults",
        warmup: 2,
        check_ops: 20,
        nominal_ops_per_s: 250,
        digest: par_faults::input_digest,
        plain: par_faults::setup::<Pvm>,
        traced: par_faults::setup::<Timed<Arc<Pvm>>>,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Refuses set-ups in which "the default config" would not mean
/// `PvmConfig::builder().build()` of a release build.
fn config_guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing a debug build: check_invariants defaults on there; use --release".into(),
        );
    }
    for var in ["CHORUS_PARALLEL_FAULTS", "CHORUS_TRACE"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "refusing to run with {var} set: it changes the default PvmConfig"
            ));
        }
    }
    Ok(())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Counters that depend on how two threads interleave, so they are
/// left out of the determinism comparison.
const INTERLEAVING_COUNTERS: &[&str] = &[
    "stub_waits",
    "shard_contention",
    "state_lock_contended",
    "phys_lock_contended",
    "trans_lock_contended",
    "cache_stripe_contended",
];

/// The outputs a same-seed run must reproduce exactly: the simulated
/// clock, the failure counts, every PVM counter (less the interleaving
/// ones), every hal op count and the frame statistics.
fn fingerprint(r: &Run) -> Vec<(String, u64)> {
    let e = &r.end;
    let mut fp = vec![
        ("sim_ns".to_string(), e.sim_ns),
        ("failed".into(), r.warm.failed() + r.tally.failed()),
        ("stale".into(), r.warm.stale + r.tally.stale),
        ("wrong".into(), r.warm.wrong + r.tally.wrong),
        ("mem.allocs".into(), e.mem.allocs),
        ("mem.zeroed_bytes".into(), e.mem.zeroed_bytes),
        ("mem.copied".into(), e.mem.copied),
    ];
    for &c in chorus_pvm::Counter::ALL {
        if !INTERLEAVING_COUNTERS.contains(&c.label()) {
            fp.push((format!("pvm.{}", c.label()), e.stats.get(c)));
        }
    }
    for (op, n) in OpKind::ALL.iter().zip(&e.hal) {
        fp.push((format!("hal.{}", op.label()), *n));
    }
    fp
}

/// The self-checks every run makes; each failure is one line.
struct Checks(Vec<String>);

impl Checks {
    fn same(&mut self, what: &str, a: &Run, b: &Run) {
        let diffs: Vec<String> = fingerprint(a)
            .into_iter()
            .zip(fingerprint(b))
            .filter(|(x, y)| x.1 != y.1)
            .map(|(x, y)| format!("{} {} vs {}", x.0, x.1, y.1))
            .collect();
        if !diffs.is_empty() {
            self.0.push(format!("{what}: {}", diffs.join(", ")));
        }
    }

    fn explained(&mut self, what: &str, s: &Snap) {
        let explained = s.explained_sim_ns();
        if explained != s.sim_ns {
            self.0.push(format!(
                "{what}: simulated clock {} ns, op counts x cost params explain {explained} ns",
                s.sim_ns
            ));
        }
    }

    fn outputs(&mut self, what: &str, r: &Run) {
        for t in [&r.warm, &r.tally] {
            if t.wrong + t.errors > 0 {
                self.0.push(format!(
                    "{what}: {} wrong outputs, {} errors; first: {}",
                    t.wrong,
                    t.errors,
                    t.first_problem.as_deref().unwrap_or("?")
                ));
            }
        }
    }
}

/// The mean of the middle half of `v` (the interquartile mean): as
/// robust to outliers as a median, less coarse on few samples.
fn interquartile_mean(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// End-to-end metrics of an untraced timed run. Rates and latency
/// percentiles are interquartile means over the window's slices, so a
/// burst of interference on the host moves one slice, not the result;
/// a window too short for four slices is taken whole.
fn e2e_metrics(r: &Run, setup_s: f64) -> Result<Vec<Metric>, String> {
    let ops = r.ops as f64;
    let (ops_per_s, faults_per_s, op_p50_us, op_p99_us) = if r.slices.len() >= 4 {
        let per_slice = |f: &dyn Fn(&run::Slice) -> f64| {
            let mut v: Vec<f64> = r.slices.iter().map(f).collect();
            interquartile_mean(&mut v)
        };
        (
            per_slice(&|s| s.ops as f64 / run::SLICE_S),
            per_slice(&|s| s.faults as f64 / run::SLICE_S),
            per_slice(&|s| s.lat.quantile(0.5) / 1e3),
            per_slice(&|s| s.lat.quantile(0.99) / 1e3),
        )
    } else {
        (
            ops / r.wall_s,
            r.delta.stats.faults as f64 / r.wall_s,
            r.lat.quantile(0.5) / 1e3,
            r.lat.quantile(0.99) / 1e3,
        )
    };
    Ok(vec![
        m("setup_s", setup_s, "s"),
        m("ops_per_s", ops_per_s, "1/s"),
        m("op_p50_us", op_p50_us, "us"),
        m("op_p99_us", op_p99_us, "us"),
        m("faults_per_s", faults_per_s, "1/s"),
        m("sim_ms_per_op", r.delta.sim_ns as f64 / 1e6 / ops, "ms"),
        m(
            "ok_op_share",
            ratio((r.tally.attempted() - r.tally.failed()) as f64, ops),
            "ratio",
        ),
        m("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ])
}

fn layer_metrics(t: &Run, untraced: &Run) -> Vec<Metric> {
    let ops = t.ops as f64;
    let (s, rec) = (&t.delta.stats, &t.rec);
    let per_op = |n: u64| n as f64 / ops;
    let hal = |op: OpKind| per_op(t.delta.hal(op));
    let p50_us = |sps: &[Sp]| rec.hist_of(sps).quantile(0.5) / 1e3;
    let self_us = |layer: Layer| per_op(rec.layer_self_ns(layer)) / 1e3;
    let errors = |layer: Layer| {
        per_op(
            Sp::ALL
                .iter()
                .filter(|sp| sp.layer() == layer)
                .map(|&sp| rec.agg(sp).errors)
                .sum(),
        )
    };
    let gmi_calls: u64 = Sp::ALL
        .iter()
        .filter(|sp| sp.is_gmi_call())
        .map(|&sp| rec.agg(sp).count)
        .sum();
    let vm_access = rec.hist_of(&[Sp::GmiVmRead, Sp::GmiVmWrite]);
    let pulls = rec.hist_of(&[Sp::UpPull]);
    let region_ops = [
        Sp::GmiRegionCreate,
        Sp::GmiRegionDestroy,
        Sp::GmiRegionSplit,
        Sp::GmiRegionSetProtection,
        Sp::GmiRegionLock,
        Sp::GmiRegionUnlock,
    ];
    vec![
        m("pvm.soft_fault_ns", rec.soft_faults.quantile(0.5), "ns"),
        m("pvm.hard_fault_ns", rec.hard_faults.quantile(0.5), "ns"),
        m(
            "pvm.fast_path_hit_ratio",
            ratio(s.fast_path_hits as f64, s.faults as f64),
            "ratio",
        ),
        m(
            "pvm.state_lock_contended_ratio",
            ratio(s.state_lock_contended as f64, s.state_lock_acqs as f64),
            "ratio",
        ),
        m(
            "pvm.phys_lock_contended_ratio",
            ratio(s.phys_lock_contended as f64, s.phys_lock_acqs as f64),
            "ratio",
        ),
        m(
            "pvm.trans_lock_contended_ratio",
            ratio(s.trans_lock_contended as f64, s.trans_lock_acqs as f64),
            "ratio",
        ),
        m(
            "pvm.shard_contention",
            per_op(s.shard_contention),
            "count/op",
        ),
        m("pvm.stub_waits", per_op(s.stub_waits), "count/op"),
        m("pvm.cache_copy_p50_us", p50_us(&[Sp::GmiCacheCopy]), "us"),
        m("pvm.cache_move_p50_us", p50_us(&[Sp::GmiCacheMove]), "us"),
        m("pvm.region_op_p50_us", p50_us(&region_ops), "us"),
        m("pvm.cow_copies_per_op", per_op(s.cow_copies), "count/op"),
        m(
            "pvm.history_pushes_per_op",
            per_op(s.history_pushes),
            "count/op",
        ),
        m(
            "pvm.working_objects_per_op",
            per_op(s.working_objects),
            "count/op",
        ),
        m(
            "pvm.zombie_merges_per_op",
            per_op(s.zombie_merges),
            "count/op",
        ),
        m(
            "pvm.cow_stubs_per_op",
            per_op(s.cow_stubs_created),
            "count/op",
        ),
        m("hal.history_op_per_op", hal(OpKind::HistoryOp), "count/op"),
        m("hal.bcopy_per_op", hal(OpKind::BcopyPage), "count/op"),
        m("pvm.vm_access_p50_ns", vm_access.quantile(0.5), "ns"),
        m("pvm.vm_access_p99_ns", vm_access.quantile(0.99), "ns"),
        m("pvm.evictions_per_op", per_op(s.evictions), "count/op"),
        m(
            "pvm.policy_victims_per_op",
            per_op(s.policy_victims),
            "count/op",
        ),
        m(
            "pvm.clock_full_sweeps",
            per_op(s.clock_full_sweeps),
            "count/op",
        ),
        m(
            "pvm.emergency_pageouts",
            per_op(s.emergency_pageouts),
            "count/op",
        ),
        m(
            "upcall.pulls_per_op",
            per_op(rec.agg(Sp::UpPull).count),
            "count/op",
        ),
        m(
            "upcall.pushes_per_op",
            per_op(rec.agg(Sp::UpPush).count),
            "count/op",
        ),
        m(
            "mapper.write_amplification",
            ratio(rec.mapper_write_bytes as f64, t.written_bytes as f64),
            "ratio",
        ),
        m("upcall.pull_p50_us", pulls.quantile(0.5) / 1e3, "us"),
        m("upcall.pull_p99_us", pulls.quantile(0.99) / 1e3, "us"),
        m("upcall.push_p50_us", p50_us(&[Sp::UpPush]), "us"),
        m("upcall.fill_up_p50_us", p50_us(&[Sp::IoFillUp]), "us"),
        m(
            "upcall.copy_back_p50_us",
            p50_us(&[Sp::IoCopyBack, Sp::IoCopyBackRun, Sp::IoMoveBack]),
            "us",
        ),
        m("upcall.self_us_per_op", self_us(Layer::Upcall), "us/op"),
        m("mapper.read_p50_us", p50_us(&[Sp::MapRead]), "us"),
        m("mapper.write_p50_us", p50_us(&[Sp::MapWrite]), "us"),
        m(
            "mapper.bytes_read_per_op",
            per_op(rec.mapper_read_bytes),
            "B/op",
        ),
        m("mapper.self_us_per_op", self_us(Layer::Mapper), "us/op"),
        m("mix.fork_p50_us", p50_us(&[Sp::MixFork]), "us"),
        m("mix.exec_p50_us", p50_us(&[Sp::MixExec]), "us"),
        m("mix.exit_p50_us", p50_us(&[Sp::MixExit]), "us"),
        m("mix.pipe_write_p50_us", p50_us(&[Sp::MixPipeWrite]), "us"),
        m("mix.pipe_read_p50_us", p50_us(&[Sp::MixPipeRead]), "us"),
        m("mix.self_us_per_op", self_us(Layer::Mix), "us/op"),
        m("pvm.self_us_per_op", self_us(Layer::Pvm), "us/op"),
        m("pvm.calls_per_op", per_op(gmi_calls), "count/op"),
        m("pvm.faults_per_op", per_op(s.faults), "count/op"),
        m(
            "hal.frame_alloc_per_op",
            hal(OpKind::FrameAlloc),
            "count/op",
        ),
        m("hal.bzero_per_op", hal(OpKind::BzeroPage), "count/op"),
        m("hal.map_page_per_op", hal(OpKind::MapPage), "count/op"),
        m("hal.unmap_page_per_op", hal(OpKind::UnmapPage), "count/op"),
        m(
            "hal.protect_page_per_op",
            hal(OpKind::ProtectPage),
            "count/op",
        ),
        m("hal.tlb_flush_per_op", hal(OpKind::TlbFlush), "count/op"),
        m("hal.tlb_miss_per_op", hal(OpKind::TlbMiss), "count/op"),
        m(
            "hal.global_map_op_per_op",
            hal(OpKind::GlobalMapOp),
            "count/op",
        ),
        m(
            "hal.segment_io_page_per_op",
            hal(OpKind::SegmentIoPage),
            "count/op",
        ),
        m("hal.ipc_op_per_op", hal(OpKind::IpcOp), "count/op"),
        m(
            "hal.zeroed_bytes_per_op",
            per_op(t.delta.mem.zeroed_bytes),
            "B/op",
        ),
        m("pvm.mapper_retries", per_op(s.mapper_retries), "count/op"),
        m("upcall.errors", errors(Layer::Upcall), "count/op"),
        m("mapper.errors", errors(Layer::Mapper), "count/op"),
        m("mix.pipe_read_stale", per_op(t.tally.stale), "count/op"),
        m(
            "bench.trace_overhead",
            ratio(ops / t.wall_s, untraced.ops as f64 / untraced.wall_s),
            "ratio",
        ),
        m(
            "bench.generator_ns_per_op",
            ratio(t.gen_ns as f64, t.gen_ops as f64),
            "ns",
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let code = match real_main() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("vmbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    config_guard()?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            format!(
                "unknown workload {:?}; expected one of {names:?}",
                args.workload
            )
        })?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"host\":{{\"nproc\":{nproc},\"rustc\":{},\"profile\":\"release\",\"seed\":{},\"workload\":\"{}\",\"seconds\":{},\"trace\":{},\"config\":\"PvmConfig::builder().build()\",\"cost\":\"CostParams::sun3()\"}}}}",
        json_str(env!("VMBENCH_RUSTC")),
        args.seed,
        spec.name,
        args.seconds,
        u8::from(args.trace),
    );

    /// Builds a site, adding its set-up time to `setup_s`.
    fn built<T>(setup_s: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        setup_s.push(t0.elapsed().as_secs_f64());
        out
    }
    let mut setup_s = Vec::new();
    for _ in 0..EXTRA_SETUPS / 2 {
        drop(built(&mut setup_s, || (spec.plain)(args.seed)));
    }

    let mut checks = Checks(Vec::new());
    if (spec.digest)(args.seed) == (spec.digest)(args.seed.wrapping_add(1)) {
        checks
            .0
            .push("a different seed generated the same inputs".into());
    }
    let fixed = Length::Ops(spec.check_ops);
    let a = run(
        built(&mut setup_s, || (spec.plain)(args.seed)),
        spec.warmup,
        fixed,
    );
    let b = if args.trace {
        run(
            built(&mut setup_s, || (spec.traced)(args.seed)),
            spec.warmup,
            fixed,
        )
    } else {
        run(
            built(&mut setup_s, || (spec.plain)(args.seed)),
            spec.warmup,
            fixed,
        )
    };
    checks.same(
        if args.trace {
            "traced vs untraced run, same seed"
        } else {
            "two runs, same seed"
        },
        &a,
        &b,
    );
    // With --trace 1 the untraced and the traced window share the time.
    let share = if args.trace { 0.5 } else { 1.0 };
    let window_s = args.seconds * share;
    let window = Length::Work {
        ops: (window_s * spec.nominal_ops_per_s as f64).ceil() as u64,
        max_s: MAX_STRETCH * window_s,
    };
    let measured = run(
        built(&mut setup_s, || (spec.plain)(args.seed)),
        spec.warmup,
        window,
    );
    let traced = args.trace.then(|| {
        run(
            built(&mut setup_s, || (spec.traced)(args.seed)),
            spec.warmup,
            window,
        )
    });
    for _ in 0..EXTRA_SETUPS / 2 {
        drop(built(&mut setup_s, || (spec.plain)(args.seed)));
    }
    for (what, r) in [
        ("first fixed run", &a),
        ("second fixed run", &b),
        ("measured run", &measured),
    ]
    .into_iter()
    .chain(traced.as_ref().map(|t| ("traced run", t)))
    {
        checks.explained(what, &r.end);
        checks.outputs(what, r);
    }

    let (result, metrics) = match &traced {
        None => (&measured, e2e_metrics(&measured, median(&mut setup_s))?),
        Some(t) => {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{}.json", spec.name, args.seed));
            t.rec
                .write_chrome_trace(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!(
                "spans: {} ({} rows not kept)",
                path.display(),
                t.rec.dropped_rows
            );
            (t, layer_metrics(t, &measured))
        }
    };

    println!(
        "{}: {} unit ops in {:.3} s wall ({} latency samples), {} failed ({} stale pipe reads); failed_op_share {}",
        spec.name,
        result.ops,
        result.wall_s,
        result.lat.count(),
        result.tally.failed(),
        result.tally.stale,
        ratio(result.tally.failed() as f64, result.ops as f64),
    );
    println!(
        "slice ops/s: {:?}",
        result
            .slices
            .iter()
            .map(|s| (s.ops as f64 / run::SLICE_S) as u64)
            .collect::<Vec<_>>()
    );
    if result.cut_short {
        println!(
            "note: the measured window hit its wall-time limit ({} s) before its last op",
            MAX_STRETCH * window_s
        );
    }
    for c in &checks.0 {
        println!("CHECK FAILED: {c}");
    }
    for mt in &metrics {
        println!("  {:<34} {:>16.6} {}", mt.name, mt.value, mt.unit);
    }
    let mut json = String::new();
    for (i, mt) in metrics.iter().enumerate() {
        if !mt.value.is_finite() {
            return Err(format!("metric {} is not finite", mt.name));
        }
        let _ = write!(
            json,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            mt.name,
            mt.value,
            mt.unit
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        checks.0.is_empty(),
        result.ops,
        result.tally.failed(),
    );
    Ok(())
}
