//! End-to-end: a workload driven by the hypervisor engine, paging over
//! a rack down to RDMA verbs.

use zombieland::core::manager::PoolKind;
use zombieland::core::RackConfig;
use zombieland::hypervisor::engine::{self, Backing, EngineConfig};
use zombieland::simcore::{Bytes, SimDuration};
use zombieland::workloads::DataCaching;

/// The full data path under an engine-driven workload across the rack the
/// examples use, ending with clean teardown.
#[test]
fn engine_workload_over_rack_is_leak_free() {
    let mut rack = zombieland::core::Rack::new(RackConfig::default());
    let ids = rack.server_ids();
    let (user, zombie) = (ids[0], ids[1]);
    rack.goto_zombie(zombie).unwrap();
    let free_before = rack.db().free_buffers();
    let alloc = rack.alloc_ext(user, Bytes::mib(256)).unwrap();

    let mut w = DataCaching::new(Bytes::mib(96).pages(), 5);
    let cfg = EngineConfig::ram_ext(Bytes::mib(128), Bytes::mib(48));
    let stats = engine::run(
        &mut w,
        &cfg,
        Backing::Rack {
            rack: &mut rack,
            user,
            pool: PoolKind::Ext,
        },
    )
    .unwrap();
    assert!(stats.remote_faults > 0, "workload actually paged");
    assert!(stats.exec_time > SimDuration::ZERO);

    // Teardown: no live pages, buffers releasable, pool restored.
    assert_eq!(rack.manager(user).live_pages(), 0);
    rack.release(user, &alloc.buffers).unwrap();
    assert_eq!(rack.db().free_buffers(), free_before);

    // The zombie wakes into a clean state.
    let wake = rack.wake(zombie, None).unwrap();
    assert_eq!(wake.revoked, 0, "nothing left allocated");
    assert_eq!(rack.db().free_buffers(), 0);
}

/// Cross-layer traffic accounting: every byte the engine paged shows up
/// on the zombie's NIC as inbound one-sided traffic.
#[test]
fn paging_traffic_lands_on_the_zombie_nic() {
    let mut rack = zombieland::core::Rack::new(RackConfig::default());
    let ids = rack.server_ids();
    let (user, zombie) = (ids[0], ids[1]);
    rack.goto_zombie(zombie).unwrap();
    rack.alloc_ext(user, Bytes::mib(256)).unwrap();
    let znode = zombieland::rdma::NodeId::new(2 + zombie.get());
    let before = rack.fabric().stats(znode).unwrap();

    let mut w = DataCaching::new(Bytes::mib(64).pages(), 6);
    let cfg = EngineConfig::ram_ext(Bytes::mib(96), Bytes::mib(24));
    let stats = engine::run(
        &mut w,
        &cfg,
        Backing::Rack {
            rack: &mut rack,
            user,
            pool: PoolKind::Ext,
        },
    )
    .unwrap();

    let after = rack.fabric().stats(znode).unwrap();
    let inbound_pages =
        (after.inbound_bytes - before.inbound_bytes).get() / zombieland::simcore::PAGE_SIZE;
    // Demotion writes + promotion reads, minus the clean-demotion
    // optimization, all land on the zombie.
    assert!(
        inbound_pages >= stats.remote_faults,
        "inbound {inbound_pages} >= faults {}",
        stats.remote_faults
    );
    assert_eq!(after.outbound_ops, before.outbound_ops, "zombie CPU idle");
}
