//! Micro-benchmarks of the hot paths: the event queue, the paging fault
//! path, the datacenter placement path, and the control plane's decision
//! layer (the controller database and the slot map behind every grant).
//!
//! These pin the perf trajectory at a finer grain than the end-to-end
//! `zombieland-cli bench` grids — a regression in `pick_host` or the
//! fault list shows up here even when trace generation dominates the
//! wall clock of a full figure. The controller benches run at 24, 400 and
//! 12,583 hosts (the paper's fleet), so a decision whose cost grows with
//! fleet size shows up as a spread between the three.
//!
//! Run: `cargo bench -p zombieland-bench --bench hotpath`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use zombieland_bench::experiments;
use zombieland_core::db::CtrlDb;
use zombieland_core::manager::PoolKind;
use zombieland_core::{Rack, RackConfig, ServerId};
use zombieland_energy::MachineProfile;
use zombieland_hypervisor::engine::{self, Backing, EngineConfig};
use zombieland_mem::buffer::{BufferId, SlotMap, BUFF_SIZE};
use zombieland_rdma::Fabric;
use zombieland_simcore::{Bytes, EventQueue, Pages, SimTime};
use zombieland_simulator::{simulate, PolicyKind, SimConfig};
use zombieland_workloads::DataCaching;

/// Schedule + drain cost of the simulator's event spine. The scheduled
/// pattern mimics a trace burst: mostly-ascending times with ties, so
/// the sift distance matches what `simulate()` sees, not a sorted or
/// adversarial feed.
fn bench_event_queue(c: &mut Criterion) {
    const N: u64 = 4_096;
    c.bench_function("event_queue_schedule_pop_4k", |b| {
        let mut q = EventQueue::with_capacity(N as usize);
        b.iter(|| {
            for i in 0..N {
                let at = SimTime::from_nanos((i / 3) * 1_000);
                q.schedule(at, i as u32);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc += e as u64;
            }
            black_box(acc)
        })
    });
}

/// The paging fault path end-to-end: page-table walk, victim selection
/// on the intrusive fault list, and RDMA demote/fetch against a rack
/// pool. Dominated by the dense handle table and `GfnSet` operations.
fn bench_fault_path(c: &mut Criterion) {
    c.bench_function("fault_path_20k_ops_data_caching", |b| {
        b.iter(|| {
            let mut rack = Rack::new(RackConfig::default());
            let ids = rack.server_ids();
            rack.goto_zombie(ids[1]).unwrap();
            let user = ids[0];
            rack.alloc_ext(user, Bytes::mib(64)).unwrap();
            let mut w = DataCaching::new(Pages::new(16_384), 7);
            let cfg = EngineConfig::ram_ext(Bytes::mib(80), Bytes::mib(32));
            black_box(
                engine::run_ops(
                    &mut w,
                    &cfg,
                    Backing::Rack {
                        rack: &mut rack,
                        user,
                        pool: PoolKind::Ext,
                    },
                    20_000,
                )
                .unwrap(),
            )
        })
    });
}

/// The batched fault path against its per-page reference, on the same
/// workload and geometry: the spread between these two is exactly what
/// run coalescing, chunked access pulls and deferred obs flushes buy
/// (`RunStats` are pinned byte-identical by `batching_equivalence`).
fn bench_batched_fault_path(c: &mut Criterion) {
    let run = |batched: bool| {
        let mut rack = Rack::new(RackConfig::default());
        let ids = rack.server_ids();
        rack.goto_zombie(ids[1]).unwrap();
        let user = ids[0];
        rack.alloc_ext(user, Bytes::mib(64)).unwrap();
        let mut w = DataCaching::new(Pages::new(16_384), 7);
        let cfg = EngineConfig::ram_ext(Bytes::mib(80), Bytes::mib(32));
        let backing = Backing::Rack {
            rack: &mut rack,
            user,
            pool: PoolKind::Ext,
        };
        if batched {
            engine::run_ops(&mut w, &cfg, backing, 20_000).unwrap()
        } else {
            engine::run_ops_reference(&mut w, &cfg, backing, 20_000).unwrap()
        }
    };
    c.bench_function("fault_path_batched_20k_ops", |b| {
        b.iter(|| black_box(run(true)))
    });
    c.bench_function("fault_path_reference_20k_ops", |b| {
        b.iter(|| black_box(run(false)))
    });
}

/// One consolidation round in steady state, isolated from arrivals: the
/// incremental path re-keys only dirty hosts and early-exits the
/// used-ordered walk, so a mostly-idle round should cost O(changed),
/// not O(active). A full simulate() call over a consolidation-heavy
/// fleet keeps the measurement honest about the surrounding event loop.
fn bench_incremental_consolidation(c: &mut Criterion) {
    let trace = experiments::fig10_trace(120, 1, 11);
    c.bench_function("consolidation_neat_120_servers_1d", |b| {
        let cfg = SimConfig {
            racks: 6,
            ..SimConfig::new(PolicyKind::Neat, MachineProfile::hp())
        };
        b.iter(|| black_box(simulate(&trace, &cfg)))
    });
    c.bench_function("consolidation_zombiestack_120_servers_1d", |b| {
        let cfg = SimConfig {
            racks: 6,
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        };
        b.iter(|| black_box(simulate(&trace, &cfg)))
    });
}

/// The placement path: a small ZombieStack fleet simulation, where the
/// per-event cost is `pick_host`/`wake_one`/`consolidate` over the
/// ordered host indexes rather than full-fleet scans.
fn bench_placement_path(c: &mut Criterion) {
    let trace = experiments::fig10_trace(24, 1, 11);
    c.bench_function("placement_zombiestack_24_servers_1d", |b| {
        let cfg = SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp());
        b.iter(|| black_box(simulate(&trace, &cfg)))
    });
    c.bench_function("placement_oasis_24_servers_1d", |b| {
        let cfg = SimConfig::new(PolicyKind::Oasis, MachineProfile::hp());
        b.iter(|| black_box(simulate(&trace, &cfg)))
    });
}

/// Fleet sizes for the controller benches: the daemon's default rack
/// neighbourhood, a mid-size pool and the paper's 12,583-server fleet.
const CTRL_FLEETS: [u32; 3] = [24, 400, 12_583];

/// A controller database shaped like a booted `zombied`: every third host
/// is a zombie lending 16 buffers, every other host lends 4 actively.
fn ctrl_db(hosts: u32) -> CtrlDb {
    let mut fabric = Fabric::new();
    let node = fabric.attach();
    // The database never dereferences MR keys; one serves every row.
    let mr = fabric.register(node, BUFF_SIZE).unwrap();
    let mut db = CtrlDb::new();
    for h in 0..hosts {
        let host = ServerId::new(h);
        db.register_host(host);
        let (n, zombie) = if h % 3 == 1 { (16, true) } else { (4, false) };
        db.lend(host, &vec![mr; n], zombie).unwrap();
    }
    db
}

/// One `GS_alloc_swap` decision of 4 buffers (256 MiB), released again so
/// every iteration sees the same pool, and one `GS_get_lru_zombie`.
fn bench_ctrl_db(c: &mut Criterion) {
    for hosts in CTRL_FLEETS {
        let mut db = ctrl_db(hosts);
        let user = ServerId::new(0);
        c.bench_function(&format!("ctrl_db_allocate_{hosts}_hosts"), |b| {
            b.iter(|| {
                let got = db.allocate(user, 4, false).unwrap();
                let ids: Vec<BufferId> = got.iter().map(|r| r.id).collect();
                db.release(user, &ids).unwrap();
                black_box(ids)
            })
        });
        c.bench_function(&format!("ctrl_db_lru_zombie_{hosts}_hosts"), |b| {
            b.iter(|| black_box(db.get_lru_zombie()))
        });
    }
}

/// What a user's agent builds per granted buffer: its slot map, and the
/// first page placed in it.
fn bench_slotmap_grant(c: &mut Criterion) {
    c.bench_function("slotmap_grant", |b| {
        b.iter(|| {
            let mut slots = SlotMap::new(black_box(BufferId::new(7)));
            black_box(slots.take());
            slots
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_fault_path,
    bench_batched_fault_path,
    bench_incremental_consolidation,
    bench_placement_path,
    bench_ctrl_db,
    bench_slotmap_grant
);
criterion_main!(benches);
