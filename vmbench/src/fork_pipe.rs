//! `unix_fork_pipe`: a MIX shell forking, exec'ing and piping (the
//! paper's motivating Unix workload, §5.1.5).
//!
//! One client, 16 MiB of frames; the working set (about 200 pages)
//! fits, so nearly all work is history/COW/per-page copy, region ops
//! and IPC, with almost no paging. One unit op is one cycle:
//!
//! 1. the shell checks and dirties its data page and one heap page;
//! 2. it forks — from the shell, or in 1 of 4 cycles from a live child
//!    so history trees get deep;
//! 3. the child COW-writes 4 heap pages (2 of them the message) and
//!    `pipe_write`s 2 pages to the shell;
//! 4. half the children `exec` one of 16 programs chosen by Zipf(0.9)
//!    (segment caching, text pulls); the others stay forked;
//! 5. at most 8 children stay live: the oldest is checked, exits and is
//!    reaped;
//! 6. the shell `pipe_read`s into a fixed buffer it maps and checks the
//!    message. A buffer page that still shows what the shell read from
//!    it in the previous cycle is the known stale pipe-read defect (the
//!    mapped buffer keeps an earlier message): it is counted as a
//!    failed op and kept visible, never worked around.

use crate::gen::{Digest, Rng, Zipf};
use crate::run::{Client, Outcome, Setup};
use crate::trace::{when, Sp};
use crate::world::{Front, World};
use chorus_gmi::VirtAddr;
use chorus_mix::{Pid, ProcessManager, ProgramStore};
use chorus_nucleus::PortName;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const FRAMES: u32 = 2048;
const PAGE: u64 = 8192;
const PROGRAMS: usize = 16;
const PROGRAM_ZIPF: f64 = 0.9;
const MAX_LIVE: usize = 8;
/// Heap pages tracked by the model: 0..2 the message, 2..16 child
/// scratch, 16..32 shell scratch.
const MODEL_PAGES: usize = 32;
const MSG_PAGES: u64 = 2;
/// The shell's pipe buffer, in heap pages.
const BUF_PAGE: u64 = 128;
const SIG: usize = 64;
const INPUTS: usize = 1 << 14;

#[derive(Clone, Copy)]
struct CycleIn {
    from_child: bool,
    pick: u32,
    cow: [u8; 2],
    exec: Option<u8>,
    shell_page: u8,
}

fn inputs(seed: u64) -> Vec<CycleIn> {
    let mut rng = Rng::new(seed, 0xF0);
    let zipf = Zipf::new(PROGRAMS, PROGRAM_ZIPF);
    (0..INPUTS)
        .map(|_| CycleIn {
            from_child: rng.chance(1, 4),
            pick: rng.next_u64() as u32,
            cow: [2 + rng.below(14) as u8, 2 + rng.below(14) as u8],
            exec: rng.chance(1, 2).then(|| zipf.sample(&mut rng) as u8),
            shell_page: 16 + rng.below(16) as u8,
        })
        .collect()
}

pub fn input_digest(seed: u64) -> u64 {
    let mut d = Digest::new();
    for c in inputs(seed) {
        d.word(u64::from(c.from_child) | u64::from(c.pick) << 8);
        d.word(u64::from(c.cow[0]) | u64::from(c.cow[1]) << 8 | u64::from(c.shell_page) << 16);
        d.word(c.exec.map_or(u64::MAX, u64::from));
    }
    d.0
}

type Sig = [u8; SIG];

fn sig(v: u64) -> Sig {
    let mut s = [0u8; SIG];
    for chunk in s.chunks_mut(8) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
    s
}

/// What the benchmark expects each process to read back.
#[derive(Clone)]
struct ProcModel {
    pid: Pid,
    parent: Option<Pid>,
    data: Sig,
    heap: [Sig; MODEL_PAGES],
}

struct Image {
    name: String,
    text: Sig,
    data: Sig,
}

struct ForkPipe<G: Front> {
    pm: ProcessManager<G>,
    pipe: PortName,
    images: Vec<Image>,
    inputs: Vec<CycleIn>,
    seed: u64,
    shell: ProcModel,
    live: VecDeque<ProcModel>,
    /// What the shell last read from each buffer page.
    buf_seen: [Option<Sig>; MSG_PAGES as usize],
    written: u64,
}

pub fn setup<G: Front>(seed: u64) -> Setup<G> {
    let world = World::<G>::new(FRAMES);
    let g0 = Instant::now();
    let inputs = inputs(seed);
    let mut rng = Rng::new(seed, 0xF1);
    let mut images_raw = Vec::new();
    for k in 0..PROGRAMS {
        let mut text = vec![0u8; (1 + k % 4) * PAGE as usize];
        let mut data = vec![0u8; (1 + k % 2) * PAGE as usize];
        rng.fill(&mut text);
        rng.fill(&mut data);
        images_raw.push((format!("p{k:02}"), text, data));
    }
    let gen_ns = g0.elapsed().as_nanos() as u64;
    let store = Arc::new(ProgramStore::new(world.files.clone(), PAGE));
    let images = images_raw
        .into_iter()
        .map(|(name, text, data)| {
            store.register(&name, &text, &data);
            Image {
                name,
                text: text[..SIG]
                    .try_into()
                    .expect("images are at least one page"),
                data: data[..SIG]
                    .try_into()
                    .expect("images are at least one page"),
            }
        })
        .collect();
    let sh_data = sig(seed ^ 0x5348);
    store.register("sh", b"#!sh", &sh_data);
    let pm = ProcessManager::new(world.nucleus.clone(), store);
    let shell = pm.spawn("sh").expect("spawn the shell");
    let pipe = pm.pipe();
    let client = ForkPipe {
        pm,
        pipe,
        images,
        inputs,
        seed,
        shell: ProcModel {
            pid: shell,
            parent: None,
            data: sh_data,
            heap: [[0; SIG]; MODEL_PAGES],
        },
        live: VecDeque::new(),
        buf_seen: [None; MSG_PAGES as usize],
        written: 0,
    };
    Setup {
        world,
        clients: vec![Box::new(client)],
        gen_ns,
        gen_ops: INPUTS as u64,
    }
}

/// Escalates an outcome: errors over wrong outputs over stale reads.
fn worse(a: Outcome, b: Outcome) -> Outcome {
    let rank = |o: &Outcome| match o {
        Outcome::Ok => 0,
        Outcome::StalePipeRead => 1,
        Outcome::Wrong(_) => 2,
        Outcome::Error(_) => 3,
    };
    if rank(&b) > rank(&a) {
        b
    } else {
        a
    }
}

impl<G: Front> ForkPipe<G> {
    fn heap(&self, page: u64) -> VirtAddr {
        VirtAddr(self.pm.heap_base().0 + page * PAGE)
    }

    fn write(&mut self, pid: Pid, va: VirtAddr, s: &Sig) -> Result<(), String> {
        self.written += SIG as u64;
        when(G::TRACED, Sp::MixWriteMem, || self.pm.write_mem(pid, va, s))
            .map_err(|e| format!("write_mem: {e}"))
    }

    fn check(&self, pid: Pid, va: VirtAddr, want: &Sig, what: &str) -> Result<Outcome, String> {
        let mut got = [0u8; SIG];
        when(G::TRACED, Sp::MixReadMem, || {
            self.pm.read_mem(pid, va, &mut got)
        })
        .map_err(|e| format!("read_mem: {e}"))?;
        Ok(if &got == want {
            Outcome::Ok
        } else {
            Outcome::Wrong(format!("{what} of {pid:?}"))
        })
    }

    /// Checks a process's data page and tracked heap pages.
    fn check_private(&self, m: &ProcModel, pages: &[usize]) -> Result<Outcome, String> {
        let mut out = self.check(m.pid, self.pm.data_base(), &m.data, "data page")?;
        for &p in pages {
            out = worse(
                out,
                self.check(m.pid, self.heap(p as u64), &m.heap[p], "heap page")?,
            );
        }
        Ok(out)
    }

    fn cycle(&mut self, i: u64) -> Result<Outcome, String> {
        let c = self.inputs[i as usize % self.inputs.len()];
        let mut v = Rng::new(self.seed, i.wrapping_add(0x100));
        let (shell_sig, heap_sig, msg, scratch) = (
            sig(v.next_u64()),
            sig(v.next_u64()),
            sig(v.next_u64()),
            sig(v.next_u64()),
        );
        let sh = self.shell.pid;

        // 1. The shell checks, then dirties, its data page and a heap page.
        let sp = c.shell_page as usize;
        let mut out = self.check_private(&self.shell.clone(), &[sp])?;
        self.write(sh, self.pm.data_base(), &shell_sig)?;
        self.write(sh, self.heap(sp as u64), &heap_sig)?;
        self.shell.data = shell_sig;
        self.shell.heap[sp] = heap_sig;

        // 2. Fork from the shell or from a live child.
        let parent = if c.from_child && !self.live.is_empty() {
            self.live[c.pick as usize % self.live.len()].clone()
        } else {
            self.shell.clone()
        };
        let pid = when(G::TRACED, Sp::MixFork, || self.pm.fork(parent.pid))
            .map_err(|e| format!("fork: {e}"))?;
        let mut child = ProcModel {
            pid,
            parent: Some(parent.pid),
            ..parent
        };
        out = worse(out, self.check_private(&child, &[0])?);

        // 3. COW-write 4 heap pages; send the 2 message pages.
        for p in 0..MSG_PAGES as usize {
            self.write(pid, self.heap(p as u64), &msg)?;
            child.heap[p] = msg;
        }
        for p in c.cow {
            self.write(pid, self.heap(u64::from(p)), &scratch)?;
            child.heap[p as usize] = scratch;
        }
        when(G::TRACED, Sp::MixPipeWrite, || {
            self.pm
                .pipe_write(pid, self.pipe, self.heap(0), MSG_PAGES * PAGE)
        })
        .map_err(|e| format!("pipe_write: {e}"))?;

        // 4. Half the children exec a program.
        if let Some(k) = c.exec {
            let image = &self.images[k as usize];
            when(G::TRACED, Sp::MixExec, || self.pm.exec(pid, &image.name))
                .map_err(|e| format!("exec: {e}"))?;
            child.data = image.data;
            child.heap = [[0; SIG]; MODEL_PAGES];
            out = worse(
                out,
                self.check(pid, self.pm.text_base(), &image.text, "text page")?,
            );
        }
        self.live.push_back(child);

        // 5. The oldest child beyond the limit is checked, exits, is reaped.
        if self.live.len() > MAX_LIVE {
            let old = self.live.pop_front().expect("over the limit");
            out = worse(out, self.check_private(&old, &[0, 1])?);
            when(G::TRACED, Sp::MixExit, || self.pm.exit(old.pid, 0))
                .map_err(|e| format!("exit: {e}"))?;
            if let Some(parent) = old.parent {
                let reaped = when(G::TRACED, Sp::MixWait, || self.pm.wait(parent));
                if reaped != Some((old.pid, 0)) {
                    out = worse(out, Outcome::Wrong(format!("wait({parent:?})")));
                }
            }
            for m in &mut self.live {
                if m.parent == Some(old.pid) {
                    m.parent = None;
                }
            }
        }

        // 6. The shell reads the message into its mapped buffer.
        let len = when(G::TRACED, Sp::MixPipeRead, || {
            self.pm.pipe_read(
                sh,
                self.pipe,
                self.heap(BUF_PAGE),
                MSG_PAGES * PAGE,
                Duration::ZERO,
            )
        })
        .map_err(|e| format!("pipe_read: {e}"))?;
        if len != MSG_PAGES * PAGE {
            return Ok(worse(
                out,
                Outcome::Wrong(format!("pipe_read length {len}")),
            ));
        }
        for p in 0..MSG_PAGES as usize {
            let mut got = [0u8; SIG];
            when(G::TRACED, Sp::MixReadMem, || {
                self.pm
                    .read_mem(sh, self.heap(BUF_PAGE + p as u64), &mut got)
            })
            .map_err(|e| format!("read_mem: {e}"))?;
            if got != msg {
                out = worse(
                    out,
                    if self.buf_seen[p] == Some(got) {
                        Outcome::StalePipeRead
                    } else {
                        Outcome::Wrong("pipe payload".into())
                    },
                );
            }
            self.buf_seen[p] = Some(got);
        }
        Ok(out)
    }
}

impl<G: Front> Client for ForkPipe<G> {
    fn op(&mut self, i: u64) -> Outcome {
        self.cycle(i).unwrap_or_else(Outcome::Error)
    }

    fn written_bytes(&self) -> u64 {
        self.written
    }
}
