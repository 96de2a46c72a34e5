//! The closed-loop runner: each client thread issues its next unit op
//! only when the previous one has returned.

use crate::hist::Hist;
use crate::trace::{self, Rec};
use crate::world::{Front, Snap, World};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// How one unit op ended.
pub enum Outcome {
    Ok,
    /// The shell's mapped pipe buffer still shows the message it read
    /// before: the known stale pipe-read defect, counted, never worked
    /// around.
    StalePipeRead,
    /// Any other wrong output.
    Wrong(String),
    /// A call failed that the workload never expects to fail.
    Error(String),
}

/// A closed-loop client: one thread's share of a workload.
pub trait Client: Send {
    /// Runs unit op `i` (ops are numbered from 0 across warm-up and
    /// measurement, so a fixed seed fixes the whole sequence).
    fn op(&mut self, i: u64) -> Outcome;

    /// Bytes the workload has written into memory so far.
    fn written_bytes(&self) -> u64;
}

/// A built site plus its clients and what generating the inputs cost.
pub struct Setup<G: Front> {
    pub world: World<G>,
    pub clients: Vec<Box<dyn Client>>,
    pub gen_ns: u64,
    pub gen_ops: u64,
}

#[derive(Default, Clone)]
pub struct Tally {
    pub ok: u64,
    pub stale: u64,
    pub wrong: u64,
    pub errors: u64,
    pub first_problem: Option<String>,
}

impl Tally {
    fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Ok => self.ok += 1,
            Outcome::StalePipeRead => self.stale += 1,
            Outcome::Wrong(m) => {
                self.wrong += 1;
                self.first_problem
                    .get_or_insert(format!("wrong output: {m}"));
            }
            Outcome::Error(m) => {
                self.errors += 1;
                self.first_problem.get_or_insert(format!("error: {m}"));
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    pub fn failed(&self) -> u64 {
        self.stale + self.wrong + self.errors
    }

    fn merge(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.stale += o.stale;
        self.wrong += o.wrong;
        self.errors += o.errors;
        if self.first_problem.is_none() {
            self.first_problem = o.first_problem.clone();
        }
    }
}

/// Length of one slice of a timed window, in seconds.
pub const SLICE_S: f64 = 1.0;

/// What happened in one slice of a timed window.
#[derive(Default)]
pub struct Slice {
    /// Unit ops completed in the slice (all clients).
    pub ops: u64,
    /// `stats().faults` taken during the slice.
    pub faults: u64,
    /// Wall latency of the ops completed in the slice.
    pub lat: Hist,
}

#[derive(Clone, Copy)]
pub enum Length {
    /// Exactly this many unit ops per client.
    Ops(u64),
    /// This many unit ops per client, cut short only if the window
    /// runs past `max_s` wall seconds (so a much slower build still
    /// ends in time). A fixed amount of work makes the op and failure
    /// counts of a seed the same on every run, however fast the host.
    Work { ops: u64, max_s: f64 },
}

pub struct Run {
    pub ops: u64,
    pub wall_s: f64,
    /// Wall latency of every measured unit op, in ns.
    pub lat: Hist,
    /// The measured window cut into [`SLICE_S`] slices (full slices
    /// only), so rates and medians can be taken per slice.
    pub slices: Vec<Slice>,
    /// Counters over the measured window.
    pub delta: Snap,
    /// Counters at the end (since the site was built).
    pub end: Snap,
    pub tally: Tally,
    /// A client stopped at the wall-time limit before its last op.
    pub cut_short: bool,
    /// Outcomes of the warm-up ops (checked, not measured).
    pub warm: Tally,
    pub written_bytes: u64,
    /// Merged spans of the measured window (empty when untraced).
    pub rec: Rec,
    /// Wall ns spent generating the inputs, and how many it generated.
    pub gen_ns: u64,
    pub gen_ops: u64,
}

/// Runs `warmup` unmeasured ops per client, then measures `len`.
pub fn run<G: Front>(setup: Setup<G>, warmup: u64, len: Length) -> Run {
    let Setup {
        world,
        clients,
        gen_ns,
        gen_ops,
    } = setup;
    let barrier = Barrier::new(clients.len());
    let start: Mutex<Option<(Snap, Instant)>> = Mutex::new(None);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(tid, mut client)| {
                let (world, barrier, start) = (&world, &barrier, &start);
                s.spawn(move || {
                    let mut warm = Tally::default();
                    for i in 0..warmup {
                        warm.add(client.op(i));
                    }
                    let written0 = client.written_bytes();
                    trace::reset_thread(tid as u32);
                    if barrier.wait().is_leader() {
                        *start.lock().expect("no thread panics holding it") =
                            Some((world.snapshot(), Instant::now()));
                    }
                    barrier.wait();
                    let t0 = start
                        .lock()
                        .expect("no thread panics holding it")
                        .as_ref()
                        .expect("leader set it")
                        .1;
                    let mut lat = Hist::new();
                    let mut slices: Vec<Slice> = Vec::new();
                    // Client 0 samples the fault counter at each slice
                    // boundary it crosses.
                    let mut fault_marks = vec![world.pvm.stats().faults];
                    let mut tally = Tally::default();
                    let mut prev = Instant::now();
                    let mut i = warmup;
                    loop {
                        let done = match len {
                            Length::Ops(n) => i - warmup >= n,
                            Length::Work { ops, max_s } => {
                                i - warmup >= ops || (prev - t0).as_secs_f64() >= max_s
                            }
                        };
                        if done {
                            break;
                        }
                        trace::set_op(((tid as u64) << 48) | i);
                        let outcome = client.op(i);
                        let now = Instant::now();
                        let ns = (now - prev).as_nanos() as u64;
                        lat.record(ns);
                        let k = ((now - t0).as_secs_f64() / SLICE_S) as usize;
                        if slices.len() <= k {
                            slices.resize_with(k + 1, Slice::default);
                            if tid == 0 {
                                let faults = world.pvm.stats().faults;
                                fault_marks.resize(k + 1, faults);
                            }
                        }
                        slices[k].ops += 1;
                        slices[k].lat.record(ns);
                        prev = now;
                        tally.add(outcome);
                        i += 1;
                    }
                    if tid == 0 {
                        for (k, s) in slices.iter_mut().enumerate() {
                            s.faults = fault_marks.get(k + 1).map_or(0, |end| end - fault_marks[k]);
                        }
                    }
                    let written = client.written_bytes() - written0;
                    let cut_short = matches!(len, Length::Work { ops, .. } if i - warmup < ops);
                    (
                        cut_short,
                        lat,
                        slices,
                        tally,
                        warm,
                        prev - t0,
                        written,
                        trace::take_thread(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = world.snapshot();
    let (start_snap, _) = start
        .into_inner()
        .expect("no thread panics holding it")
        .expect("leader set it");
    let mut out = Run {
        ops: 0,
        wall_s: 0.0,
        lat: Hist::new(),
        slices: Vec::new(),
        delta: end.delta(&start_snap),
        end,
        tally: Tally::default(),
        cut_short: false,
        warm: Tally::default(),
        written_bytes: 0,
        rec: Rec::default(),
        gen_ns,
        gen_ops,
    };
    // Only slices every client saw to the end are full.
    let shortest = results
        .iter()
        .map(|r| r.5.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let full = match len {
        Length::Work { .. } => (shortest / SLICE_S) as usize,
        Length::Ops(_) => 0,
    };
    out.slices.resize_with(full, Slice::default);
    for (cut_short, lat, slices, tally, warm, elapsed, written, rec) in results {
        out.cut_short |= cut_short;
        for (acc, s) in out.slices.iter_mut().zip(slices) {
            acc.ops += s.ops;
            acc.faults += s.faults;
            acc.lat.merge(&s.lat);
        }
        out.ops += tally.attempted();
        out.wall_s = out.wall_s.max(elapsed.as_secs_f64());
        out.lat.merge(&lat);
        out.tally.merge(&tally);
        out.warm.merge(&warm);
        out.written_bytes += written;
        out.rec.merge(rec);
    }
    out
}
