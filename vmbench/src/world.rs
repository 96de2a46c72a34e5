//! One simulated Chorus site: file and swap mappers, the Nucleus
//! segment manager, a PVM with the default `PvmConfig` on the
//! calibrated Sun-3/60 cost model, and the Nucleus above it.
//!
//! `World<Pvm>` is the untraced stack. `World<Timed<Arc<Pvm>>>` is the same
//! stack with the timing decorators inserted at every layer boundary.

use crate::layers::{Timed, TimedMapper, TimedUpcalls};
use chorus_gmi::{Gmi, SegmentManagerV2, SyncShim};
use chorus_hal::{CostParams, MemStats, OpKind, PageGeometry};
use chorus_nucleus::{Mapper, MemMapper, Nucleus, NucleusSegmentManager, PortName, SwapMapper};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, PvmStats};
use std::sync::Arc;

/// The memory-manager front the Nucleus is built over.
pub trait Front: Gmi + Sized + 'static {
    const TRACED: bool;
    fn front(pvm: Arc<Pvm>) -> Arc<Self>;
}

impl Front for Pvm {
    const TRACED: bool = false;
    fn front(pvm: Arc<Pvm>) -> Arc<Pvm> {
        pvm
    }
}

impl Front for Timed<Arc<Pvm>> {
    const TRACED: bool = true;
    fn front(pvm: Arc<Pvm>) -> Arc<Timed<Arc<Pvm>>> {
        Arc::new(Timed::new(pvm))
    }
}

pub const FILE_PORT: PortName = PortName(1);
pub const SWAP_PORT: PortName = PortName(2);
/// Transit-segment slots of the Nucleus (64 KB each).
const TRANSIT_SLOTS: usize = 8;

pub struct World<G: Front> {
    pub pvm: Arc<Pvm>,
    pub nucleus: Arc<Nucleus<G>>,
    pub files: Arc<MemMapper>,
}

impl<G: Front> World<G> {
    pub fn new(frames: u32) -> World<G> {
        let seg_mgr = Arc::new(NucleusSegmentManager::new());
        let files = Arc::new(MemMapper::new(FILE_PORT));
        let swap = Arc::new(SwapMapper::new(SWAP_PORT));
        let wrap = |m: Arc<dyn Mapper>| -> Arc<dyn Mapper> {
            if G::TRACED {
                Arc::new(TimedMapper::new(m))
            } else {
                m
            }
        };
        seg_mgr.register_mapper(FILE_PORT, wrap(files.clone()));
        seg_mgr.register_mapper(SWAP_PORT, wrap(swap));
        seg_mgr.set_default_mapper(SWAP_PORT);
        let mut upcalls: Arc<dyn SegmentManagerV2> = SyncShim::wrap(seg_mgr.clone());
        if G::TRACED {
            upcalls = Arc::new(TimedUpcalls::new(upcalls));
        }
        let pvm = Arc::new(Pvm::new(
            PvmOptions {
                geometry: PageGeometry::sun3(),
                frames,
                cost: CostParams::sun3(),
                config: PvmConfig::builder()
                    .build()
                    .expect("the default config validates"),
                ..PvmOptions::default()
            },
            upcalls,
        ));
        let nucleus = Arc::new(Nucleus::new(G::front(pvm.clone()), seg_mgr, TRANSIT_SLOTS));
        World {
            pvm,
            nucleus,
            files,
        }
    }

    pub fn snapshot(&self) -> Snap {
        let model = self.pvm.cost_model();
        Snap {
            stats: self.pvm.stats(),
            mem: self.pvm.mem_stats(),
            hal: OpKind::ALL.iter().map(|&op| model.count(op)).collect(),
            sim_ns: model.now().nanos(),
        }
    }
}

/// The public counters of one site at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct Snap {
    pub stats: PvmStats,
    pub mem: MemStats,
    /// `CostModel::count` for every `OpKind::ALL` entry.
    pub hal: Vec<u64>,
    pub sim_ns: u64,
}

impl Snap {
    pub fn delta(&self, earlier: &Snap) -> Snap {
        Snap {
            stats: self.stats.delta(&earlier.stats),
            mem: MemStats {
                in_use: self.mem.in_use,
                peak: self.mem.peak,
                allocs: self.mem.allocs - earlier.mem.allocs,
                frees: self.mem.frees - earlier.mem.frees,
                zeroed: self.mem.zeroed - earlier.mem.zeroed,
                zeroed_bytes: self.mem.zeroed_bytes - earlier.mem.zeroed_bytes,
                copied: self.mem.copied - earlier.mem.copied,
                splits: self.mem.splits - earlier.mem.splits,
                merges: self.mem.merges - earlier.mem.merges,
            },
            hal: self
                .hal
                .iter()
                .zip(&earlier.hal)
                .map(|(a, b)| a - b)
                .collect(),
            sim_ns: self.sim_ns - earlier.sim_ns,
        }
    }

    pub fn hal(&self, op: OpKind) -> u64 {
        self.hal[OpKind::ALL
            .iter()
            .position(|&o| o == op)
            .expect("every OpKind is in ALL")]
    }

    /// Simulated time the Σ of op counts × Sun-3/60 costs accounts for.
    pub fn explained_sim_ns(&self) -> u64 {
        let params = CostParams::sun3();
        OpKind::ALL
            .iter()
            .zip(&self.hal)
            .map(|(&op, &n)| params.get(op) * n)
            .sum()
    }
}
