//! Ablation: the policy engine (DESIGN.md §14) — every built-in
//! replacement policy plus the FIFO readahead baseline, raced across
//! three scenarios:
//!
//! * `scale` — repeated sequential read scans of a working set three
//!   times the frame pool: the classic sequential-flood case where
//!   recency protection cannot help and clustered readahead dominates
//!   (the only scenario that races the readahead selection);
//! * `writeback` — dirty rewrite scans with the writeback daemon and
//!   `pushOut` clustering on: victim choice decides how often the
//!   pageout pipeline runs against dirty pages;
//! * `pressure` — a hot set rewritten every round while a cold stream
//!   sweeps through the remaining frames: policies that track reuse
//!   (LRU, WSClock, ARC) keep the hot set resident and fault less.
//!
//! Every combination self-checks its bytes against the generating
//! pattern, and a config that never mentions the policy section is
//! asserted bit-identical to an explicit clock + fifo selection — the
//! redesign must not move the paper's tables.
//!
//! Usage: `cargo run --release -p chorus-bench --bin ablation_policies [--json] [--quick]`

use chorus_bench::{assert_deterministic, bench_args, json, pvm_world_config, World, PAGE};
use chorus_gmi::{Gmi, Prot, VirtAddr};
use chorus_pvm::{Pvm, PvmConfig, ReadaheadKind, ReplacementKind};

const FRAMES: u32 = 64;

struct Shape {
    /// Working set in pages (3x the frame pool, so replacement runs).
    ws_pages: u64,
    /// Sequential passes in the scale and writeback scenarios.
    scans: u64,
    /// Hot pages rewritten every pressure round (fits in the pool).
    hot_pages: u64,
    /// Hot-rewrite + cold-stream rounds in the pressure scenario.
    rounds: u64,
}

const FULL: Shape = Shape {
    ws_pages: 192,
    scans: 4,
    hot_pages: 24,
    rounds: 6,
};
const QUICK: Shape = Shape {
    ws_pages: 96,
    scans: 2,
    hot_pages: 16,
    rounds: 3,
};

/// One policy combination under race.
#[derive(Clone, Copy)]
struct Combo {
    replacement: ReplacementKind,
    readahead: ReadaheadKind,
}

/// Every replacement policy under doubling readahead, plus the
/// FIFO-readahead baseline on the default replacement.
fn combos() -> Vec<Combo> {
    let mut v: Vec<Combo> = ReplacementKind::ALL
        .into_iter()
        .map(|replacement| Combo {
            replacement,
            readahead: ReadaheadKind::Doubling,
        })
        .collect();
    v.push(Combo {
        replacement: ReplacementKind::Clock,
        readahead: ReadaheadKind::Fifo,
    });
    v
}

struct Row {
    scenario: &'static str,
    replacement: &'static str,
    readahead: &'static str,
    faults: u64,
    pull_ins: u64,
    evictions: u64,
    victim_requests: u64,
    victims: u64,
    external_batches: u64,
    external_fallbacks: u64,
    sim_ms: f64,
}

impl Row {
    fn fingerprint(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.sim_ms.to_bits(),
            self.faults,
            self.pull_ins,
            self.victim_requests,
            self.victims,
        )
    }
}

/// Per-scenario paging/pressure knobs, shared across every combo so
/// the only raced variable is the policy section.
#[derive(Clone, Copy)]
struct Knobs {
    /// Clustered pulls with this base window, raced between the
    /// combo's readahead policies (0 = plain demand paging with the
    /// default static window, whatever the combo's readahead label).
    ra_cluster: u64,
    /// `pushOut` clustering + the watermark writeback daemon.
    writeback: bool,
}

/// Builds the raced world. `combo: None` builds the control config that
/// never touches the policy section (the defaults must behave
/// identically to an explicit clock + fifo selection).
fn world(combo: Option<Combo>, knobs: Knobs) -> World<Pvm> {
    let config = PvmConfig::builder()
        .paging(|p| {
            let p = p.check_invariants(false);
            let p = if knobs.ra_cluster > 0 {
                p.pull_cluster_pages(knobs.ra_cluster)
                    .readahead_max_pages(8)
            } else {
                p
            };
            if knobs.writeback {
                p.push_cluster_pages(8)
            } else {
                p
            }
        })
        .pressure(|pr| {
            if knobs.writeback {
                pr.writeback_low_frames(16).writeback_high_frames(32)
            } else {
                pr
            }
        })
        .policy(|p| match combo {
            Some(c) if knobs.ra_cluster > 0 => p.replacement(c.replacement).readahead(c.readahead),
            Some(c) => p.replacement(c.replacement),
            None => p,
        })
        .build()
        .expect("valid config");
    pvm_world_config(FRAMES, config)
}

fn finish(w: &World<Pvm>, scenario: &'static str, combo: Option<Combo>, sim_ms: f64) -> Row {
    let stats = w.gmi.stats();
    let c = combo.unwrap_or(Combo {
        replacement: ReplacementKind::Clock,
        readahead: ReadaheadKind::Fifo,
    });
    Row {
        scenario,
        replacement: c.replacement.label(),
        readahead: c.readahead.label(),
        faults: stats.faults,
        pull_ins: stats.pull_ins,
        evictions: stats.evictions,
        victim_requests: stats.policy_victim_requests,
        victims: stats.policy_victims,
        external_batches: stats.policy_external_batches,
        external_fallbacks: stats.policy_external_fallbacks,
        sim_ms,
    }
}

/// Sequential read scans: the working set floods the pool `scans`
/// times; pulls cluster, so the doubling-vs-fifo race shows in
/// `pull_ins`.
fn run_scale(shape: &Shape, combo: Option<Combo>) -> Row {
    let w = world(
        combo,
        Knobs {
            ra_cluster: 2,
            writeback: false,
        },
    );
    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 241) as u8)
        .collect();
    let seg = w.mgr.create_segment(&content);
    let cache = w.gmi.cache_create(Some(seg)).unwrap();
    let ctx = w.gmi.context_create().unwrap();
    w.gmi
        .region_create(
            ctx,
            VirtAddr(0),
            shape.ws_pages * PAGE,
            Prot::READ,
            cache,
            0,
        )
        .unwrap();
    let t0 = w.model.now();
    let mut buf = [0u8; 16];
    for _ in 0..shape.scans {
        for p in 0..shape.ws_pages {
            w.gmi.vm_read(ctx, VirtAddr(p * PAGE), &mut buf).unwrap();
            assert_eq!(buf[0], ((p * PAGE) % 241) as u8, "scan read wrong bytes");
        }
    }
    finish(&w, "scale", combo, w.model.now().since(t0).millis())
}

/// Dirty rewrite scans with the pageout pipeline on: every victim is
/// dirty, so the policy's choices feed straight into `pushOut` batches.
fn run_writeback(shape: &Shape, combo: Option<Combo>) -> Row {
    let w = world(
        combo,
        Knobs {
            ra_cluster: 0,
            writeback: true,
        },
    );
    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 239) as u8)
        .collect();
    let seg = w.mgr.create_segment(&content);
    let cache = w.gmi.cache_create(Some(seg)).unwrap();
    let ctx = w.gmi.context_create().unwrap();
    w.gmi
        .region_create(ctx, VirtAddr(0), shape.ws_pages * PAGE, Prot::RW, cache, 0)
        .unwrap();
    let t0 = w.model.now();
    for scan in 0..shape.scans {
        for p in 0..shape.ws_pages {
            let tag = [(scan as u8) ^ (p as u8); 16];
            w.gmi.vm_write(ctx, VirtAddr(p * PAGE), &tag).unwrap();
        }
    }
    // Read-back self-check: the last scan's tags must survive however
    // aggressively the raced policy paged them out and back in.
    let last = shape.scans - 1;
    let mut buf = [0u8; 16];
    for p in 0..shape.ws_pages {
        w.gmi.vm_read(ctx, VirtAddr(p * PAGE), &mut buf).unwrap();
        assert_eq!(buf[0], (last as u8) ^ (p as u8), "dirty page lost");
    }
    finish(&w, "writeback", combo, w.model.now().since(t0).millis())
}

/// Hot/cold skew: the hot set is rewritten every round while a cold
/// stream walks the rest of the working set. Reuse-tracking policies
/// keep the hot pages resident across rounds.
fn run_pressure(shape: &Shape, combo: Option<Combo>) -> Row {
    let w = world(
        combo,
        Knobs {
            ra_cluster: 0,
            writeback: false,
        },
    );
    let content: Vec<u8> = (0..shape.ws_pages * PAGE)
        .map(|i| (i % 233) as u8)
        .collect();
    let seg = w.mgr.create_segment(&content);
    let cache = w.gmi.cache_create(Some(seg)).unwrap();
    let ctx = w.gmi.context_create().unwrap();
    w.gmi
        .region_create(ctx, VirtAddr(0), shape.ws_pages * PAGE, Prot::RW, cache, 0)
        .unwrap();
    let cold_pages = shape.ws_pages - shape.hot_pages;
    let t0 = w.model.now();
    let mut buf = [0u8; 8];
    for round in 0..shape.rounds {
        for p in 0..shape.hot_pages {
            let tag = [(round as u8).wrapping_add(p as u8); 8];
            w.gmi.vm_write(ctx, VirtAddr(p * PAGE), &tag).unwrap();
        }
        // One cold chunk per round, striding the tail of the region.
        let chunk = cold_pages / shape.rounds;
        for k in 0..chunk {
            let p = shape.hot_pages + round * chunk + k;
            w.gmi.vm_read(ctx, VirtAddr(p * PAGE), &mut buf).unwrap();
            assert_eq!(buf[0], ((p * PAGE) % 233) as u8, "cold read wrong bytes");
        }
    }
    finish(&w, "pressure", combo, w.model.now().since(t0).millis())
}

fn main() {
    let args = bench_args();
    let (emit_json, quick) = (args.json, args.quick);
    let shape = args.shape(&FULL, &QUICK);

    // Determinism self-check, once per combination on the writeback
    // scenario (the one verify.sh smokes): re-running a policy must
    // reproduce the simulated clock and every counter bit for bit.
    for combo in combos() {
        assert_deterministic(
            &format!(
                "policy {}/{} writeback",
                combo.replacement.label(),
                combo.readahead.label()
            ),
            || run_writeback(shape, Some(combo)).fingerprint(),
        );
    }

    // Bit-identity of the defaults: a config that never names the
    // policy section must match an explicit clock + fifo selection in
    // every scenario — the trait refactor moved no numbers.
    for (name, run) in [
        ("scale", run_scale as fn(&Shape, Option<Combo>) -> Row),
        ("writeback", run_writeback),
        ("pressure", run_pressure),
    ] {
        let control = run(shape, None);
        let explicit = run(
            shape,
            Some(Combo {
                replacement: ReplacementKind::Clock,
                readahead: ReadaheadKind::Fifo,
            }),
        );
        assert_eq!(
            control.fingerprint(),
            explicit.fingerprint(),
            "default config must be bit-identical to explicit clock+fifo in {name}"
        );
    }

    let mut rows = Vec::new();
    for combo in combos() {
        rows.push(run_scale(shape, Some(combo)));
        rows.push(run_writeback(shape, Some(combo)));
        rows.push(run_pressure(shape, Some(combo)));
    }

    // Headline cross-checks, asserted so regressions fail loudly.
    for r in &rows {
        assert!(
            r.evictions > 0,
            "{}/{}: no replacement ran",
            r.scenario,
            r.replacement
        );
        assert!(
            r.victims >= r.evictions,
            "{}/{}: evictions bypassed the policy engine",
            r.scenario,
            r.replacement
        );
        if r.replacement == "external" {
            assert!(
                r.external_batches > 0,
                "{}: external policy never consulted the segment manager",
                r.scenario
            );
        } else {
            assert_eq!(
                r.external_batches, 0,
                "{}/{}: built-in policy shipped advice batches",
                r.scenario, r.replacement
            );
        }
    }
    // The reuse-tracking policies must beat the sequential-flood
    // baseline on the hot/cold scenario they exist for.
    let pressure_faults = |label: &str| {
        rows.iter()
            .find(|r| {
                r.scenario == "pressure" && r.replacement == label && r.readahead == "doubling"
            })
            .map(|r| r.faults)
            .expect("pressure row")
    };
    let clock = pressure_faults("clock");
    for tracking in ["lru", "wsclock", "arc"] {
        assert!(
            pressure_faults(tracking) <= clock,
            "{tracking} must not fault more than clock on the hot/cold scenario"
        );
    }

    if emit_json {
        let encoded = rows.iter().map(|r| {
            json::Obj::new()
                .str("scenario", r.scenario)
                .str("replacement", r.replacement)
                .str("readahead", r.readahead)
                .int("faults", r.faults)
                .int("pull_ins", r.pull_ins)
                .int("evictions", r.evictions)
                .int("victim_requests", r.victim_requests)
                .int("victims", r.victims)
                .int("external_batches", r.external_batches)
                .int("external_fallbacks", r.external_fallbacks)
                .num("sim_ms", r.sim_ms)
                .build()
        });
        println!(
            "{}",
            json::Obj::bench("ablation_policies")
                .int("ws_pages", shape.ws_pages)
                .int("scans", shape.scans)
                .int("hot_pages", shape.hot_pages)
                .int("rounds", shape.rounds)
                .int("frames", u64::from(FRAMES))
                .bool("quick", quick)
                .raw("rows", &json::array(encoded))
                .build()
        );
        return;
    }

    println!(
        "Policy ablation: {} replacement policies (+ fifo readahead baseline)\n\
         raced over {} frames; scale/writeback = {} scans of {} pages,\n\
         pressure = {} rounds of {} hot pages + cold stream\n",
        ReplacementKind::ALL.len(),
        FRAMES,
        shape.scans,
        shape.ws_pages,
        shape.rounds,
        shape.hot_pages,
    );
    println!(
        "  scenario  | policy   | rahead   | faults | pulls | evict | victims (req) | ext batch/fb | sim ms"
    );
    for r in &rows {
        println!(
            "  {:<9} | {:<8} | {:<8} | {:>6} | {:>5} | {:>5} | {:>6} ({:>4}) | {:>5}/{:<5} | {:>8.1}",
            r.scenario,
            r.replacement,
            r.readahead,
            r.faults,
            r.pull_ins,
            r.evictions,
            r.victims,
            r.victim_requests,
            r.external_batches,
            r.external_fallbacks,
            r.sim_ms,
        );
    }
    let best = rows
        .iter()
        .filter(|r| r.scenario == "pressure")
        .min_by_key(|r| r.faults)
        .expect("pressure rows");
    println!(
        "\n  hot/cold winner: {} ({} faults vs clock's {})",
        best.replacement, best.faults, clock
    );
}
