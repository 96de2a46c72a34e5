//! The PVM must pass the generic GMI conformance suite.

use chorus_gmi::conformance::{self, Fixture};
use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::SyncShim;
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions};
use std::sync::Arc;

#[test]
fn pvm_passes_gmi_conformance() {
    conformance::run(|| {
        let mgr = Arc::new(MemSegmentManager::new());
        let gmi = Arc::new(Pvm::new(
            PvmOptions {
                geometry: PageGeometry::new(256),
                frames: 128,
                cost: CostParams::zero(),
                config: PvmConfig::builder()
                    .paging(|p| p.check_invariants(true))
                    .build()
                    .expect("valid config"),
                ..PvmOptions::default()
            },
            SyncShim::wrap(mgr.clone()),
        ));
        Fixture { gmi, mgr }
    });
}

#[test]
fn pvm_passes_gmi_conformance_under_pressure() {
    // A small pool: the same contract must hold with constant pageout.
    conformance::run(|| {
        let mgr = Arc::new(MemSegmentManager::new());
        let gmi = Arc::new(Pvm::new(
            PvmOptions {
                geometry: PageGeometry::new(256),
                frames: 6,
                cost: CostParams::zero(),
                config: PvmConfig::builder()
                    .paging(|p| p.check_invariants(true))
                    .build()
                    .expect("valid config"),
                ..PvmOptions::default()
            },
            SyncShim::wrap(mgr.clone()),
        ));
        Fixture { gmi, mgr }
    });
}

#[test]
fn pvm_passes_gmi_conformance_through_v2() {
    use chorus_gmi::conformance::V2Mode;
    use chorus_gmi::testing::MemSegmentManagerV2;

    conformance::run_v2(|mode| {
        let mgr = Arc::new(MemSegmentManager::new());
        // Knobs that actually put traffic through the completion
        // engine in the native mode: clustered pulls split their tail
        // into asynchronous submissions and the laundering daemon
        // issues fire-and-collect pushes.
        let config = PvmConfig::builder()
            .paging(|p| {
                p.check_invariants(true)
                    .pull_cluster_pages(4)
                    .readahead_max_pages(8)
                    .push_cluster_pages(4)
            })
            .pressure(|p| p.writeback_low_frames(4).writeback_high_frames(8))
            .r#async(|a| {
                a.async_upcalls(mode == V2Mode::NativeAsync)
                    .max_inflight_upcalls(2)
            })
            .build()
            .expect("valid config");
        let options = PvmOptions {
            geometry: PageGeometry::new(256),
            frames: 16,
            cost: CostParams::zero(),
            config,
            ..PvmOptions::default()
        };
        let gmi = Arc::new(match mode {
            V2Mode::Shim => Pvm::new(options, SyncShim::wrap(mgr.clone())),
            V2Mode::NativeAsync => {
                Pvm::new(options, Arc::new(MemSegmentManagerV2::new(mgr.clone())))
            }
        });
        Fixture { gmi, mgr }
    });
}
