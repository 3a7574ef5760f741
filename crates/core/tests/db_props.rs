//! Property tests: the controller database keeps its invariants under
//! arbitrary operation sequences, stays deterministic (the mirroring
//! precondition), and answers every call exactly as the plain scan over
//! all rows does ([`ScanDb`], the reference kept here).

use std::collections::BTreeMap;

use proptest::prelude::*;
use zombieland_core::db::{BufferKind, BufferRecord, CtrlDb, DbError, ReclaimPlan};
use zombieland_core::ServerId;
use zombieland_mem::buffer::{BufferId, BUFF_SIZE};
use zombieland_rdma::{Fabric, MrKey};
use zombieland_simcore::Bytes;

const HOSTS: u32 = 5;

#[derive(Clone, Debug)]
enum Op {
    Lend { host: u32, n: u8, zombie: bool },
    Alloc { user: u32, nb: u8, guaranteed: bool },
    ReleaseSome { user: u32 },
    Reclaim { host: u32, nb: u8 },
    Wake { host: u32 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..HOSTS), (1u8..6), any::<bool>()).prop_map(|(host, n, zombie)| Op::Lend {
                host,
                n,
                zombie
            }),
            ((0..HOSTS), (1u8..8), any::<bool>()).prop_map(|(user, nb, guaranteed)| Op::Alloc {
                user,
                nb,
                guaranteed
            }),
            (0..HOSTS).prop_map(|user| Op::ReleaseSome { user }),
            ((0..HOSTS), (1u8..6)).prop_map(|(host, nb)| Op::Reclaim { host, nb }),
            (0..HOSTS).prop_map(|host| Op::Wake { host }),
        ],
        1..60,
    )
}

/// Applies one op; returns whether it mutated the DB (errors are fine —
/// they must just be the *right* errors).
fn apply(db: &mut CtrlDb, fabric: &mut Fabric, node: zombieland_rdma::NodeId, op: &Op) {
    match op {
        Op::Lend { host, n, zombie } => {
            let mrs: Vec<_> = (0..*n)
                .map(|_| fabric.register(node, Bytes::mib(64)).unwrap())
                .collect();
            db.lend(ServerId::new(*host), &mrs, *zombie).unwrap();
        }
        Op::Alloc {
            user,
            nb,
            guaranteed,
        } => match db.allocate(ServerId::new(*user), *nb as u64, *guaranteed) {
            Ok(recs) => {
                if *guaranteed {
                    assert_eq!(recs.len(), *nb as usize);
                }
            }
            Err(DbError::AdmissionDenied {
                requested,
                available,
            }) => {
                assert!(*guaranteed);
                assert!(available < requested);
            }
            Err(e) => panic!("unexpected {e}"),
        },
        Op::ReleaseSome { user } => {
            let mine: Vec<BufferId> = db
                .buffers_of_user(ServerId::new(*user))
                .iter()
                .take(2)
                .map(|r| r.id)
                .collect();
            if !mine.is_empty() {
                db.release(ServerId::new(*user), &mine).unwrap();
            }
        }
        Op::Reclaim { host, nb } => {
            let plan = db.reclaim(ServerId::new(*host), *nb as u64).unwrap();
            // Free buffers are always preferred: revocations happen only
            // when the request exceeded the host's free lent buffers.
            let _ = plan;
        }
        Op::Wake { host } => {
            db.mark_awake(ServerId::new(*host)).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_arbitrary_ops(ops in ops()) {
        let mut fabric = Fabric::new();
        let node = fabric.attach();
        let mut db = CtrlDb::new();
        for h in 0..HOSTS {
            db.register_host(ServerId::new(h));
        }
        for op in &ops {
            apply(&mut db, &mut fabric, node, op);

            // Invariant 1: free count equals rows without a user.
            let mut free = 0u64;
            let mut per_user: std::collections::BTreeMap<u32, u64> = Default::default();
            for h in 0..HOSTS {
                for rec in db.buffers_of_host(ServerId::new(h)) {
                    prop_assert_eq!(rec.host, ServerId::new(h));
                    match rec.user {
                        None => free += 1,
                        Some(u) => {
                            // Invariant 2: nobody "remotely" uses their own
                            // host's memory.
                            prop_assert_ne!(u, rec.host);
                            *per_user.entry(u.get()).or_default() += 1;
                        }
                    }
                    // Invariant 3: zombie hosts serve zombie-kind buffers.
                    let expected = if db.is_zombie(rec.host) {
                        zombieland_core::db::BufferKind::Zombie
                    } else {
                        zombieland_core::db::BufferKind::Active
                    };
                    prop_assert_eq!(rec.kind, expected);
                }
            }
            prop_assert_eq!(free, db.free_buffers());
            // Invariant 4: per-user views agree with row scans.
            for (u, count) in per_user {
                prop_assert_eq!(
                    db.buffers_of_user(ServerId::new(u)).len() as u64,
                    count
                );
            }
        }
    }

    #[test]
    fn replay_determinism(ops in ops()) {
        // The same op sequence produces byte-identical databases — the
        // property the HA mirroring relies on.
        let run = |ops: &[Op]| {
            let mut fabric = Fabric::new();
            let node = fabric.attach();
            let mut db = CtrlDb::new();
            for h in 0..HOSTS {
                db.register_host(ServerId::new(h));
            }
            for op in ops {
                apply(&mut db, &mut fabric, node, op);
            }
            db
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }

    #[test]
    fn reclaim_conserves_buffers(lent in 1u8..12, allocated in 0u8..12, take in 1u8..14) {
        let mut fabric = Fabric::new();
        let node = fabric.attach();
        let mut db = CtrlDb::new();
        db.register_host(ServerId::new(0));
        db.register_host(ServerId::new(1));
        let mrs: Vec<_> = (0..lent)
            .map(|_| fabric.register(node, Bytes::mib(64)).unwrap())
            .collect();
        db.lend(ServerId::new(1), &mrs, true).unwrap();
        let _ = db.allocate(ServerId::new(0), allocated as u64, false);
        let before = db.len();
        let plan = db.reclaim(ServerId::new(1), take as u64).unwrap();
        let reclaimed = plan.returned_free.len() + plan.revoked.len();
        prop_assert_eq!(reclaimed, (take as usize).min(lent as usize));
        prop_assert_eq!(db.len(), before - reclaimed);
        // Free buffers are consumed before any revocation.
        if !plan.revoked.is_empty() {
            prop_assert_eq!(db.free_buffers(), 0);
        }
    }
}

/// The reference database: no index, every decision a scan over the
/// rows — the algorithm the indexed [`CtrlDb`] must reproduce.
#[derive(Default)]
struct ScanDb {
    buffers: BTreeMap<BufferId, BufferRecord>,
    hosts: BTreeMap<ServerId, (bool, Vec<BufferId>)>,
    next_id: u64,
}

impl ScanDb {
    fn register_host(&mut self, host: ServerId) {
        self.hosts.entry(host).or_default();
    }

    fn lend(
        &mut self,
        host: ServerId,
        mrs: &[MrKey],
        zombie: bool,
    ) -> Result<Vec<BufferId>, DbError> {
        let zombie = self.hosts.get(&host).ok_or(DbError::UnknownHost(host))?.0 || zombie;
        let kind = if zombie {
            BufferKind::Zombie
        } else {
            BufferKind::Active
        };
        let mut ids = Vec::new();
        for &mr in mrs {
            let id = BufferId::new(self.next_id);
            self.next_id += 1;
            self.buffers.insert(
                id,
                BufferRecord {
                    id,
                    host,
                    mr,
                    size: BUFF_SIZE,
                    kind,
                    user: None,
                },
            );
            ids.push(id);
        }
        let (is_zombie, lent) = self.hosts.get_mut(&host).unwrap();
        lent.extend(&ids);
        if zombie {
            *is_zombie = true;
            for b in lent.iter() {
                self.buffers.get_mut(b).unwrap().kind = BufferKind::Zombie;
            }
        }
        Ok(ids)
    }

    fn mark_awake(&mut self, host: ServerId) -> Result<(), DbError> {
        let (is_zombie, lent) = self
            .hosts
            .get_mut(&host)
            .ok_or(DbError::UnknownHost(host))?;
        *is_zombie = false;
        for b in lent.iter() {
            self.buffers.get_mut(b).unwrap().kind = BufferKind::Active;
        }
        Ok(())
    }

    fn is_zombie(&self, host: ServerId) -> bool {
        self.hosts.get(&host).is_some_and(|h| h.0)
    }

    fn zombie_count(&self) -> u64 {
        self.hosts.values().filter(|h| h.0).count() as u64
    }

    fn free_buffers(&self) -> u64 {
        self.buffers.values().filter(|b| b.user.is_none()).count() as u64
    }

    fn allocate(
        &mut self,
        user: ServerId,
        nb: u64,
        guaranteed: bool,
    ) -> Result<Vec<BufferRecord>, DbError> {
        let available = self.free_buffers();
        if guaranteed && available < nb {
            return Err(DbError::AdmissionDenied {
                requested: nb,
                available,
            });
        }
        // Every other host's free buffers in lend order, per tier.
        let mut tiers: [Vec<Vec<BufferId>>; 2] = Default::default();
        for (&host, (is_zombie, lent)) in &self.hosts {
            let free: Vec<BufferId> = lent
                .iter()
                .copied()
                .filter(|b| self.buffers[b].user.is_none())
                .collect();
            if host != user && !free.is_empty() {
                tiers[usize::from(!is_zombie)].push(free);
            }
        }
        let mut picked = Vec::new();
        for group in &mut tiers {
            // Round-robin, each visit popping the host's last free buffer.
            let mut idx = 0;
            while (picked.len() as u64) < nb && !group.is_empty() {
                idx %= group.len();
                match group[idx].pop() {
                    Some(b) => {
                        picked.push(b);
                        idx += 1;
                    }
                    None => {
                        group.remove(idx);
                    }
                }
            }
        }
        if guaranteed && (picked.len() as u64) < nb {
            return Err(DbError::AdmissionDenied {
                requested: nb,
                available: picked.len() as u64,
            });
        }
        Ok(picked
            .into_iter()
            .map(|b| {
                let rec = self.buffers.get_mut(&b).unwrap();
                rec.user = Some(user);
                *rec
            })
            .collect())
    }

    fn release(&mut self, user: ServerId, ids: &[BufferId]) -> Result<(), DbError> {
        for id in ids {
            let rec = self.buffers.get(id).ok_or(DbError::UnknownBuffer(*id))?;
            if rec.user != Some(user) {
                return Err(DbError::NotTheUser(*id, user));
            }
        }
        for id in ids {
            self.buffers.get_mut(id).unwrap().user = None;
        }
        Ok(())
    }

    fn reclaim(&mut self, host: ServerId, nb: u64) -> Result<ReclaimPlan, DbError> {
        let lent = self
            .hosts
            .get(&host)
            .ok_or(DbError::UnknownHost(host))?
            .1
            .clone();
        let mut plan = ReclaimPlan::default();
        for &b in &lent {
            if plan.returned_free.len() as u64 == nb {
                break;
            }
            if self.buffers[&b].user.is_none() {
                plan.returned_free.push(b);
            }
        }
        for &b in &lent {
            if (plan.returned_free.len() + plan.revoked.len()) as u64 == nb {
                break;
            }
            if let Some(user) = self.buffers[&b].user {
                plan.revoked.push((user, b));
            }
        }
        for b in plan.all_buffers().collect::<Vec<_>>() {
            self.buffers.remove(&b);
        }
        self.hosts
            .get_mut(&host)
            .unwrap()
            .1
            .retain(|b| self.buffers.contains_key(b));
        Ok(plan)
    }

    fn get_lru_zombie(&self) -> Option<ServerId> {
        self.hosts
            .iter()
            .filter(|(_, (is_zombie, _))| *is_zombie)
            .map(|(&host, (_, lent))| {
                (
                    lent.iter()
                        .filter(|b| self.buffers[b].user.is_some())
                        .count(),
                    host,
                )
            })
            .min()
            .map(|(_, host)| host)
    }

    fn buffers_of_user(&self, user: ServerId) -> Vec<BufferRecord> {
        self.buffers
            .values()
            .filter(|b| b.user == Some(user))
            .copied()
            .collect()
    }

    fn buffers_of_host(&self, host: ServerId) -> Vec<BufferRecord> {
        self.hosts
            .get(&host)
            .map(|(_, lent)| lent.iter().map(|b| self.buffers[b]).collect())
            .unwrap_or_default()
    }
}

/// Enough hosts, and large enough requests, that a stripe runs several
/// rounds and leaves hosts behind as they empty.
const REF_HOSTS: u32 = 12;

#[derive(Clone, Debug)]
enum RefOp {
    Lend {
        host: u32,
        n: u8,
        zombie: bool,
    },
    Alloc {
        user: u32,
        nb: u8,
        guaranteed: bool,
    },
    /// Release up to `take` of the user's buffers from `skip` on, listing
    /// the first one twice when `repeat` (a `US_reclaim` may).
    Release {
        user: u32,
        skip: u8,
        take: u8,
        repeat: bool,
    },
    /// Release arbitrary ids on a user's behalf (mostly typed errors).
    ReleaseAny {
        user: u32,
        id: u16,
    },
    Reclaim {
        host: u32,
        nb: u8,
    },
    Wake {
        host: u32,
    },
}

fn ref_ops() -> impl Strategy<Value = Vec<RefOp>> {
    prop::collection::vec(
        prop_oneof![
            ((0..REF_HOSTS + 1), (0u8..9), any::<bool>())
                .prop_map(|(host, n, zombie)| RefOp::Lend { host, n, zombie }),
            ((0..REF_HOSTS + 1), (0u8..41), any::<bool>()).prop_map(|(user, nb, guaranteed)| {
                RefOp::Alloc {
                    user,
                    nb,
                    guaranteed,
                }
            }),
            ((0..REF_HOSTS), (0u8..6), (1u8..12), any::<bool>()).prop_map(
                |(user, skip, take, repeat)| RefOp::Release {
                    user,
                    skip,
                    take,
                    repeat
                }
            ),
            ((0..REF_HOSTS), (0u16..400)).prop_map(|(user, id)| RefOp::ReleaseAny { user, id }),
            ((0..REF_HOSTS + 1), (0u8..12)).prop_map(|(host, nb)| RefOp::Reclaim { host, nb }),
            (0..REF_HOSTS + 1).prop_map(|host| RefOp::Wake { host }),
        ],
        1..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_db_matches_the_scan_reference(ops in ref_ops()) {
        let mut fabric = Fabric::new();
        let node = fabric.attach();
        let mut db = CtrlDb::new();
        let mut reference = ScanDb::default();
        // Host `REF_HOSTS` is never registered: its calls must fail alike.
        for h in 0..REF_HOSTS {
            db.register_host(ServerId::new(h));
            reference.register_host(ServerId::new(h));
        }
        for op in &ops {
            match *op {
                RefOp::Lend { host, n, zombie } => {
                    let mrs: Vec<_> = (0..n)
                        .map(|_| fabric.register(node, Bytes::mib(64)).unwrap())
                        .collect();
                    let host = ServerId::new(host);
                    prop_assert_eq!(db.lend(host, &mrs, zombie), reference.lend(host, &mrs, zombie));
                }
                RefOp::Alloc { user, nb, guaranteed } => {
                    let user = ServerId::new(user);
                    let nb = u64::from(nb);
                    prop_assert_eq!(
                        db.allocate(user, nb, guaranteed),
                        reference.allocate(user, nb, guaranteed)
                    );
                }
                RefOp::Release { user, skip, take, repeat } => {
                    let user = ServerId::new(user);
                    let mut ids: Vec<BufferId> = reference
                        .buffers_of_user(user)
                        .iter()
                        .skip(usize::from(skip))
                        .take(usize::from(take))
                        .map(|r| r.id)
                        .collect();
                    if repeat && !ids.is_empty() {
                        ids.push(ids[0]);
                    }
                    prop_assert_eq!(db.release(user, &ids), reference.release(user, &ids));
                }
                RefOp::ReleaseAny { user, id } => {
                    let user = ServerId::new(user);
                    let ids = [BufferId::new(u64::from(id))];
                    prop_assert_eq!(db.release(user, &ids), reference.release(user, &ids));
                }
                RefOp::Reclaim { host, nb } => {
                    let host = ServerId::new(host);
                    prop_assert_eq!(
                        db.reclaim(host, u64::from(nb)),
                        reference.reclaim(host, u64::from(nb))
                    );
                }
                RefOp::Wake { host } => {
                    let host = ServerId::new(host);
                    prop_assert_eq!(db.mark_awake(host), reference.mark_awake(host));
                }
            }

            prop_assert_eq!(db.get_lru_zombie(), reference.get_lru_zombie());
            prop_assert_eq!(db.free_buffers(), reference.free_buffers());
            prop_assert_eq!(db.zombie_count(), reference.zombie_count());
            prop_assert_eq!(db.len(), reference.buffers.len());
            for h in 0..=REF_HOSTS {
                let h = ServerId::new(h);
                prop_assert_eq!(db.is_zombie(h), reference.is_zombie(h));
                prop_assert_eq!(db.buffers_of_user(h), reference.buffers_of_user(h));
                prop_assert_eq!(db.buffers_of_host(h), reference.buffers_of_host(h));
            }
        }
    }
}
