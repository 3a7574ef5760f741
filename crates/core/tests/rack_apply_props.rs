//! Property tests: seeded control-plane op streams driven through
//! `Rack::apply` keep the rack's three views of lent memory in step —
//! the controller database, each server's lent list, and the fabric's
//! registered regions — and never leak an MR past its reclaim.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use zombieland_core::manager::PoolKind;
use zombieland_core::protocol::RackOp;
use zombieland_core::{Rack, RackConfig, ServerId};
use zombieland_mem::buffer::BufferId;
use zombieland_rdma::MrKey;
use zombieland_simcore::Bytes;

const SERVERS: u32 = 5;

fn ops() -> impl Strategy<Value = Vec<RackOp>> {
    let host = || (0..SERVERS + 1).prop_map(ServerId::new);
    prop::collection::vec(
        prop_oneof![
            (host(), 1u64..8).prop_map(|(host, buffers)| RackOp::GotoZombie { host, buffers }),
            host().prop_map(|host| RackOp::AsGetFreeMem { host }),
            (host(), 0u64..8).prop_map(|(host, nb_buffers)| RackOp::Reclaim { host, nb_buffers }),
            (host(), 64u64..512).prop_map(|(user, mib)| RackOp::AllocExt {
                user,
                mem_size: Bytes::mib(mib),
            }),
            (host(), 64u64..1024).prop_map(|(user, mib)| RackOp::AllocSwap {
                user,
                mem_size: Bytes::mib(mib),
            }),
            // Small id space: lists hit granted buffers, repeat ids, and
            // name buffers that were never lent.
            (
                host(),
                prop::collection::vec((0u64..48).prop_map(BufferId::new), 0..4)
            )
                .prop_map(|(user, buff_ids)| RackOp::UsReclaim { user, buff_ids }),
            Just(RackOp::GetLruZombie),
        ],
        1..80,
    )
}

/// Every buffer the controller database knows, with its MR.
fn db_buffers(rack: &Rack) -> BTreeMap<BufferId, MrKey> {
    (0..SERVERS)
        .flat_map(|h| rack.db().buffers_of_host(ServerId::new(h)))
        .map(|r| (r.id, r.mr))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apply_keeps_db_lent_lists_and_fabric_in_step(ops in ops()) {
        // 1 GiB lendable per server (16 buffers), as `zombied` boots.
        let defaults = RackConfig::default();
        let mut rack = Rack::new(RackConfig {
            servers: SERVERS,
            ram_per_server: Bytes::gib(1) + defaults.system_reserved,
            ..defaults
        });
        for op in &ops {
            let before = db_buffers(&rack);
            let response = rack.apply(op);
            prop_assert_eq!(response.decision, op.server_time());
            let after = db_buffers(&rack);

            // The database's lent set is the union of the lent lists,
            // MR for MR, and each MR is registered to its lender.
            let mut lent = BTreeMap::new();
            for h in 0..SERVERS {
                let s = ServerId::new(h);
                let node = rack.node(s).unwrap();
                for &(id, mr) in rack.lent(s).unwrap() {
                    prop_assert_eq!(rack.db().record(id).unwrap().host, s);
                    prop_assert_eq!(rack.fabric().mr_owner(mr), Ok(node));
                    prop_assert!(lent.insert(id, mr).is_none(), "{:?} lent twice", id);
                }
            }
            prop_assert_eq!(&lent, &after);
            prop_assert_eq!(rack.db().len(), after.len());

            // A buffer that left the database (a reclaim) took its MR
            // with it.
            for (id, mr) in &before {
                if !after.contains_key(id) {
                    prop_assert!(rack.fabric().mr_owner(*mr).is_err(), "{:?} leaked {:?}", id, mr);
                }
            }

            // Each agent holds exactly the buffers the database says its
            // server uses.
            for h in 0..SERVERS {
                let s = ServerId::new(h);
                let db_view: BTreeSet<BufferId> =
                    rack.db().buffers_of_user(s).iter().map(|r| r.id).collect();
                let mgr = rack.manager(s);
                let agent_view: BTreeSet<BufferId> = [PoolKind::Ext, PoolKind::Swap]
                    .into_iter()
                    .flat_map(|pool| mgr.granted_buffers(pool))
                    .map(|r| r.id)
                    .collect();
                prop_assert_eq!(db_view, agent_view);
            }
        }
    }
}
