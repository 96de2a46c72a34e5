//! `zipf_file_rw`: skewed 8-byte reads and writes over a mapped file
//! four times larger than memory.
//!
//! One client. A 4096-page (32 MiB) file segment is `rgn_map`ped RW
//! over 1024 frames (8 MiB). Accesses are Zipf(0.99) over pages
//! scattered through the file, 70 % reads and 30 % writes, every read
//! checked against a shadow copy. This runs pageout and the replacement
//! policy, pullIn/pushOut upcalls, the mappers, frame zeroing and MMU
//! map/unmap, with almost no history work; writes next to reads make a
//! gain for clean reads that costs dirty writeback show.

use crate::gen::{Digest, Rng, Zipf};
use crate::run::{Client, Outcome, Setup};
use crate::trace::{when, Sp};
use crate::world::{Front, World};
use chorus_gmi::{Prot, VirtAddr};
use chorus_nucleus::{Actor, Nucleus};
use std::sync::Arc;
use std::time::Instant;

pub const FRAMES: u32 = 1024;
const PAGE: u64 = 8192;
const FILE_PAGES: u64 = 4096;
const ZIPF_S: f64 = 0.99;
const WRITE_PERCENT: u64 = 30;
const BASE: VirtAddr = VirtAddr(1 << 32);
/// Length of the generated access stream; ops cycle through it.
const STREAM: usize = 1 << 19;

#[derive(Clone, Copy)]
struct Access {
    page: u32,
    word: u16,
    write: bool,
    value: u64,
}

fn stream(seed: u64) -> Vec<Access> {
    let mut rng = Rng::new(seed, 0x21);
    let mut scatter: Vec<u32> = (0..FILE_PAGES as u32).collect();
    rng.shuffle(&mut scatter);
    let zipf = Zipf::new(FILE_PAGES as usize, ZIPF_S);
    (0..STREAM)
        .map(|_| Access {
            page: scatter[zipf.sample(&mut rng)],
            word: rng.below(PAGE / 8) as u16,
            write: rng.chance(WRITE_PERCENT, 100),
            value: rng.next_u64(),
        })
        .collect()
}

pub fn input_digest(seed: u64) -> u64 {
    let mut d = Digest::new();
    for a in stream(seed).iter().take(1 << 12) {
        d.word(u64::from(a.page) | u64::from(a.word) << 32 | u64::from(a.write) << 48);
        d.word(a.value);
    }
    d.0
}

struct ZipfFile<G: Front> {
    nucleus: Arc<Nucleus<G>>,
    actor: Actor,
    stream: Vec<Access>,
    shadow: Vec<u8>,
    written: u64,
}

pub fn setup<G: Front>(seed: u64) -> Setup<G> {
    let world = World::<G>::new(FRAMES);
    let g0 = Instant::now();
    let stream = stream(seed);
    let gen_ns = g0.elapsed().as_nanos() as u64;
    let mut shadow = vec![0u8; (FILE_PAGES * PAGE) as usize];
    Rng::new(seed, 0x22).fill(&mut shadow);
    let cap = world.files.create_segment(&shadow);
    let nucleus = world.nucleus.clone();
    let actor = nucleus.actor_create().expect("create the client actor");
    nucleus
        .rgn_map(actor, BASE, FILE_PAGES * PAGE, Prot::RW, cap, 0)
        .expect("map the file");
    let client = ZipfFile {
        nucleus,
        actor,
        stream,
        shadow,
        written: 0,
    };
    Setup {
        world,
        clients: vec![Box::new(client)],
        gen_ns,
        gen_ops: STREAM as u64,
    }
}

impl<G: Front> Client for ZipfFile<G> {
    fn op(&mut self, i: u64) -> Outcome {
        let a = self.stream[i as usize % STREAM];
        let off = u64::from(a.page) * PAGE + u64::from(a.word) * 8;
        let va = VirtAddr(BASE.0 + off);
        let at = off as usize..off as usize + 8;
        if a.write {
            // Fold in the op number so later passes over the stream
            // write new values.
            let bytes = (a.value ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes();
            self.written += 8;
            match when(G::TRACED, Sp::MixWriteMem, || {
                self.nucleus.write_mem(self.actor, va, &bytes)
            }) {
                Ok(()) => {
                    self.shadow[at].copy_from_slice(&bytes);
                    Outcome::Ok
                }
                Err(e) => Outcome::Error(format!("write_mem: {e}")),
            }
        } else {
            let mut got = [0u8; 8];
            match when(G::TRACED, Sp::MixReadMem, || {
                self.nucleus.read_mem(self.actor, va, &mut got)
            }) {
                Ok(()) if got[..] == self.shadow[at] => Outcome::Ok,
                Ok(()) => Outcome::Wrong(format!("read at file offset {off:#x}")),
                Err(e) => Outcome::Error(format!("read_mem: {e}")),
            }
        }
    }

    fn written_bytes(&self) -> u64 {
        self.written
    }
}
