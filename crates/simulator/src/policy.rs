//! Policy extension points and the static registry.
//!
//! The simulator's mechanics (host accounting, the remote pool, the
//! two-phase evacuation protocol) live in [`crate::dc`]; everything a
//! *policy* decides goes through two trait objects:
//!
//! - [`PlacementPolicy`] — can an active host admit an arriving VM, and
//!   which host to wake when none can.
//! - [`ConsolidationPolicy`] — whether/how periodic consolidation runs:
//!   the migration feasibility rule, what an emptied host becomes (S3 or
//!   Sz) and whether idle zombies demote.
//!
//! This module is the one home of the paper's §5 rules (Nova placement,
//! Neat consolidation, the Oasis baseline); each paper number is a named
//! constant below. The admission arithmetic — epsilons, evaluation
//! order — is pinned bit for bit by `tests/policy_conformance.rs` and
//! `tests/golden_report.rs`.
//!
//! Policies register in [`REGISTRY`] under a CLI key; [`lookup`]
//! resolves names case-insensitively, which is how `--policy` and
//! `--list-policies` see them. Adding a policy means implementing the
//! traits and appending a [`PolicySpec`] — no simulator edits.

use core::fmt;

/// Hosts below this actual CPU utilization are underloaded: Neat's
/// evacuation candidates and Oasis's parking hosts (the paper's 20 %).
pub const UNDERLOAD_THRESHOLD: f64 = 0.20;

/// Minimum share of an arriving VM's booked memory that ZombieStack
/// placement serves locally: the 50 % rule of §5.1/§6.3.
pub const MIN_LOCAL_FRACTION: f64 = 0.5;

/// Minimum share of a migrating VM's working set that ZombieStack
/// consolidation keeps local on the target: the 30 %-of-WSS rule (§5.2).
pub const MIN_LOCAL_WSS_FRACTION: f64 = 0.30;

/// ZombieStack's cap on a host's actual CPU use after admitting or
/// receiving a VM (usage-aware packing).
pub const USAGE_CAP: f64 = 0.85;

/// ZombieStack's cap on a host's booked CPU: a bounded overcommit over
/// one server.
pub const BOOKING_OVERCOMMIT: f64 = 1.3;

/// Vanilla Neat's booked-CPU fill cap for migration targets.
pub const NEAT_FILL_CAP: f64 = 0.90;

/// Power of an Oasis memory server relative to a regular server's
/// maximum ("about 40 % ... as stated in the original paper").
pub const MEMORY_SERVER_POWER: f64 = 0.40;

/// A candidate host's load, precomputed by the simulator for admission
/// checks. Capacities are normalized to "one server" = 1.0 on both axes.
#[derive(Clone, Copy, Debug)]
pub struct HostLoad {
    /// Booked CPU of resident VMs.
    pub cpu_booked: f64,
    /// Actual CPU utilization.
    pub cpu_used: f64,
    /// Free local memory after the hypervisor reserve,
    /// `(capacity − mem_local).max(0)`.
    pub free_local: f64,
}

/// Which host to wake when placement fails on every active host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakePreference {
    /// The first (lowest-index) sleeping or zombie host.
    FirstSleeping,
    /// The zombie lending the least remote memory (`GS_get_lru_zombie`),
    /// falling back to the first sleeping host.
    IdleZombieFirst,
}

/// Placement-side policy decisions.
pub trait PlacementPolicy: Send + Sync + fmt::Debug {
    /// Whether `host` can admit an arriving VM booking `cpu`/`mem` with
    /// actual usage `cpu_used`, given `pool` free remote memory in the
    /// host's rack. Returns the local memory share the VM would take, or
    /// `None` to reject.
    fn admit(&self, host: &HostLoad, cpu: f64, cpu_used: f64, mem: f64, pool: f64) -> Option<f64>;

    /// Whether placement consumes the rack-local remote pool (drives the
    /// per-scan pool snapshot; policies without remote memory skip it).
    fn uses_remote_pool(&self) -> bool {
        false
    }

    /// Which non-active host to wake when no active host fits.
    fn wake_preference(&self) -> WakePreference {
        WakePreference::FirstSleeping
    }
}

/// Consolidation-side policy decisions.
pub trait ConsolidationPolicy: Send + Sync + fmt::Debug {
    /// Whether periodic consolidation runs at all (the AlwaysOn baseline
    /// and the NoConsolidate toy say no).
    fn enabled(&self) -> bool {
        true
    }

    /// Whether idle VMs' cold memory parks on memory servers before the
    /// evacuation pass (Oasis partial migration).
    fn parks_idle_memory(&self) -> bool {
        false
    }

    /// What an emptied host becomes: `true` → Sz (its memory joins the
    /// rack pool), `false` → S3.
    fn evacuates_to_zombie(&self) -> bool {
        false
    }

    /// Whether zombies serving nothing demote to S3 when the free pool
    /// holds generous headroom (§4.4).
    fn demotes_idle_zombies(&self) -> bool {
        false
    }

    /// The memory footprint a migrating VM must re-place: `booked` is its
    /// booking, `local` its current local share (`None` if untracked).
    /// Vanilla consolidators move the local share; ZombieStack re-places
    /// the full booking (the 30 %-of-WSS rule re-splits it).
    fn migration_footprint(&self, booked: f64, local: Option<f64>) -> f64 {
        local.unwrap_or(booked)
    }

    /// Whether `host` can receive the migrating VM `vm`. `pool` is the
    /// free remote pool of the host's rack.
    fn accepts_migration(&self, host: &HostLoad, vm: &MigrantVm, pool: f64) -> bool;
}

/// A migrating VM's demand, as judged by
/// [`ConsolidationPolicy::accepts_migration`].
#[derive(Clone, Copy, Debug)]
pub struct MigrantVm {
    /// Booked CPU share.
    pub cpu_booked: f64,
    /// Actual CPU utilization.
    pub cpu_used: f64,
    /// Memory footprint to re-place on the target (already filtered
    /// through [`ConsolidationPolicy::migration_footprint`]).
    pub mem: f64,
    /// Estimated working-set size (the 30 %-of-WSS rule's input).
    pub wss: f64,
}

// ---------------------------------------------------------------------
// Implementations.
// ---------------------------------------------------------------------

/// Vanilla Nova placement: the full booking must fit locally.
#[derive(Debug)]
pub struct FullBookingPlacement;

impl PlacementPolicy for FullBookingPlacement {
    fn admit(&self, h: &HostLoad, cpu: f64, _cpu_used: f64, mem: f64, _pool: f64) -> Option<f64> {
        if h.cpu_booked + cpu > 1.0 + 1e-9 || h.free_local + 1e-9 < mem {
            None
        } else {
            Some(mem)
        }
    }
}

/// ZombieStack placement: usage-aware CPU admission with a bounded
/// booking overcommit, the 50 % local rule, remote share from the rack
/// pool.
#[derive(Debug)]
pub struct ZombieStackPlacement;

impl PlacementPolicy for ZombieStackPlacement {
    fn admit(&self, h: &HostLoad, cpu: f64, cpu_used: f64, mem: f64, pool: f64) -> Option<f64> {
        // Usage-aware CPU admission with a bounded booking overcommit,
        // mirroring the consolidation rule, so that arrivals can land on
        // usage-packed hosts instead of waking zombies.
        if h.cpu_used + cpu_used > USAGE_CAP + 1e-9
            || h.cpu_booked + cpu > BOOKING_OVERCOMMIT + 1e-9
        {
            return None;
        }
        let local = mem.min(h.free_local);
        if local + 1e-9 < MIN_LOCAL_FRACTION * mem {
            return None;
        }
        if mem - local > pool + 1e-9 {
            return None;
        }
        Some(local)
    }

    fn uses_remote_pool(&self) -> bool {
        true
    }

    fn wake_preference(&self) -> WakePreference {
        WakePreference::IdleZombieFirst
    }
}

/// Consolidation disabled (AlwaysOn baseline, NoConsolidate toy).
#[derive(Debug)]
pub struct DisabledConsolidation;

impl ConsolidationPolicy for DisabledConsolidation {
    fn enabled(&self) -> bool {
        false
    }

    fn accepts_migration(&self, _host: &HostLoad, _vm: &MigrantVm, _pool: f64) -> bool {
        false
    }
}

/// Vanilla Neat consolidation: full-booking migration targets, emptied
/// hosts suspend to S3.
#[derive(Debug)]
pub struct VanillaNeatConsolidation {
    /// Oasis layers partial migration on top of the same planner.
    parks: bool,
}

impl ConsolidationPolicy for VanillaNeatConsolidation {
    fn parks_idle_memory(&self) -> bool {
        self.parks
    }

    fn accepts_migration(&self, h: &HostLoad, vm: &MigrantVm, _pool: f64) -> bool {
        h.cpu_booked + vm.cpu_booked <= NEAT_FILL_CAP + 1e-9 && h.free_local + 1e-9 >= vm.mem
    }
}

/// ZombieStack consolidation: the 30 %-of-WSS rule, usage-based CPU
/// packing, emptied hosts enter Sz, idle zombies demote to S3.
#[derive(Debug)]
pub struct ZombieStackConsolidation;

impl ConsolidationPolicy for ZombieStackConsolidation {
    fn evacuates_to_zombie(&self) -> bool {
        true
    }

    fn demotes_idle_zombies(&self) -> bool {
        true
    }

    fn migration_footprint(&self, booked: f64, _local: Option<f64>) -> f64 {
        // The 30 %-of-WSS rule re-splits the whole booking on the target.
        booked
    }

    fn accepts_migration(&self, h: &HostLoad, vm: &MigrantVm, pool: f64) -> bool {
        // Usage-based CPU packing with a bounded booking overcommit.
        if h.cpu_used + vm.cpu_used > USAGE_CAP + 1e-9
            || h.cpu_booked + vm.cpu_booked > BOOKING_OVERCOMMIT + 1e-9
        {
            return false;
        }
        // The 30 %-of-WSS rule; the remote pool takes the rest.
        let local = vm.mem.min(h.free_local);
        local + 1e-9 >= MIN_LOCAL_WSS_FRACTION * vm.wss && (vm.mem - local) <= pool + 1e-9
    }
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

/// One registered policy: its CLI key, figure label and the two
/// strategy objects the simulation loop calls through.
pub struct PolicySpec {
    /// CLI name (lowercase; `--policy <key>` and [`lookup`]).
    pub key: &'static str,
    /// Figure/report label ([`crate::SimReport::policy`]).
    pub label: &'static str,
    /// One-line description for `--list-policies`.
    pub summary: &'static str,
    /// Placement-side decisions.
    pub placement: &'static dyn PlacementPolicy,
    /// Consolidation-side decisions.
    pub consolidation: &'static dyn ConsolidationPolicy,
}

impl fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicySpec")
            .field("key", &self.key)
            .finish()
    }
}

static FULL_BOOKING: FullBookingPlacement = FullBookingPlacement;
static ZOMBIE_PLACEMENT: ZombieStackPlacement = ZombieStackPlacement;
static DISABLED: DisabledConsolidation = DisabledConsolidation;
static VANILLA_NEAT: VanillaNeatConsolidation = VanillaNeatConsolidation { parks: false };
static OASIS_NEAT: VanillaNeatConsolidation = VanillaNeatConsolidation { parks: true };
static ZOMBIE_CONSOLIDATION: ZombieStackConsolidation = ZombieStackConsolidation;

/// The AlwaysOn baseline.
pub static ALWAYS_ON: PolicySpec = PolicySpec {
    key: "alwayson",
    label: "AlwaysOn",
    summary: "no power management; the savings baseline",
    placement: &FULL_BOOKING,
    consolidation: &DISABLED,
};

/// Vanilla OpenStack Neat.
pub static NEAT: PolicySpec = PolicySpec {
    key: "neat",
    label: "Neat",
    summary: "vanilla Neat consolidation; emptied hosts suspend to S3",
    placement: &FULL_BOOKING,
    consolidation: &VANILLA_NEAT,
};

/// Oasis hybrid consolidation.
pub static OASIS: PolicySpec = PolicySpec {
    key: "oasis",
    label: "Oasis",
    summary: "Neat plus partial migration of idle VMs onto memory servers",
    placement: &FULL_BOOKING,
    consolidation: &OASIS_NEAT,
};

/// The paper's system.
pub static ZOMBIE_STACK: PolicySpec = PolicySpec {
    key: "zombiestack",
    label: "ZombieStack",
    summary: "50% local placement, 30%-of-WSS consolidation, Sz zombies lend the rack pool",
    placement: &ZOMBIE_PLACEMENT,
    consolidation: &ZOMBIE_CONSOLIDATION,
};

/// A toy policy demonstrating registry extension: AlwaysOn's mechanics
/// under its own name (placement without consolidation).
pub static NO_CONSOLIDATE: PolicySpec = PolicySpec {
    key: "noconsolidate",
    label: "NoConsolidate",
    summary: "toy: vanilla placement with consolidation switched off",
    placement: &FULL_BOOKING,
    consolidation: &DISABLED,
};

/// Every registered policy, in listing order (paper policies first).
pub static REGISTRY: [&PolicySpec; 5] = [&ALWAYS_ON, &NEAT, &OASIS, &ZOMBIE_STACK, &NO_CONSOLIDATE];

/// Resolves a policy by CLI key or figure label, case-insensitively.
pub fn lookup(name: &str) -> Option<&'static PolicySpec> {
    REGISTRY
        .iter()
        .copied()
        .find(|s| s.key.eq_ignore_ascii_case(name) || s.label.eq_ignore_ascii_case(name))
}

/// The resource-management policies of the paper's evaluation, as a
/// closed enum for call sites that enumerate them (Fig. 10 grids,
/// tests). Each maps onto its registry entry via [`PolicyKind::spec`];
/// policies outside the paper (like [`NO_CONSOLIDATE`]) exist only in
/// the registry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// No power management (baseline).
    AlwaysOn,
    /// Vanilla Neat consolidation (S3 suspends).
    Neat,
    /// Oasis hybrid consolidation (partial migration + memory servers).
    Oasis,
    /// The paper's system.
    ZombieStack,
}

impl PolicyKind {
    /// The registry entry implementing this policy.
    pub fn spec(self) -> &'static PolicySpec {
        match self {
            PolicyKind::AlwaysOn => &ALWAYS_ON,
            PolicyKind::Neat => &NEAT,
            PolicyKind::Oasis => &OASIS,
            PolicyKind::ZombieStack => &ZOMBIE_STACK,
        }
    }

    /// Figure label.
    pub fn name(self) -> &'static str {
        self.spec().label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_keys_are_unique_and_lowercase() {
        for (i, s) in REGISTRY.iter().enumerate() {
            assert_eq!(s.key, s.key.to_ascii_lowercase(), "{}", s.key);
            for other in &REGISTRY[i + 1..] {
                assert_ne!(s.key, other.key);
                assert_ne!(s.label, other.label);
            }
        }
    }

    #[test]
    fn lookup_is_case_insensitive_over_key_and_label() {
        assert!(std::ptr::eq(lookup("zombiestack").unwrap(), &ZOMBIE_STACK));
        assert!(std::ptr::eq(lookup("ZombieStack").unwrap(), &ZOMBIE_STACK));
        assert!(std::ptr::eq(lookup("ALWAYSON").unwrap(), &ALWAYS_ON));
        assert!(std::ptr::eq(
            lookup("NoConsolidate").unwrap(),
            &NO_CONSOLIDATE
        ));
        assert!(lookup("nosuchpolicy").is_none());
    }

    #[test]
    fn every_kind_resolves_to_its_registry_entry() {
        for kind in [
            PolicyKind::AlwaysOn,
            PolicyKind::Neat,
            PolicyKind::Oasis,
            PolicyKind::ZombieStack,
        ] {
            let spec = kind.spec();
            assert!(std::ptr::eq(lookup(spec.key).unwrap(), spec));
            assert_eq!(kind.name(), spec.label);
        }
    }

    #[test]
    fn paper_policy_shape() {
        assert!(!ALWAYS_ON.consolidation.enabled());
        assert!(!NO_CONSOLIDATE.consolidation.enabled());
        assert!(NEAT.consolidation.enabled());
        assert!(OASIS.consolidation.parks_idle_memory());
        assert!(!NEAT.consolidation.parks_idle_memory());
        assert!(ZOMBIE_STACK.consolidation.evacuates_to_zombie());
        assert!(ZOMBIE_STACK.consolidation.demotes_idle_zombies());
        assert!(ZOMBIE_STACK.placement.uses_remote_pool());
        assert_eq!(
            ZOMBIE_STACK.placement.wake_preference(),
            WakePreference::IdleZombieFirst
        );
        assert_eq!(
            NEAT.placement.wake_preference(),
            WakePreference::FirstSleeping
        );
    }

    fn host(cpu_booked: f64, cpu_used: f64, free_local: f64) -> HostLoad {
        HostLoad {
            cpu_booked,
            cpu_used,
            free_local,
        }
    }

    fn migrant(cpu_booked: f64, cpu_used: f64, mem: f64, wss: f64) -> MigrantVm {
        MigrantVm {
            cpu_booked,
            cpu_used,
            mem,
            wss,
        }
    }

    #[test]
    fn placement_keeps_the_fifty_percent_local_rule() {
        let zs = ZOMBIE_STACK.placement;
        // 0.3 free locally for a 0.5 booking: vanilla needs all of it
        // local, ZombieStack takes 0.3 local (>= 50 %) + 0.2 remote.
        let h = host(0.0, 0.0, 0.3);
        assert_eq!(NEAT.placement.admit(&h, 0.2, 0.1, 0.5, 10.0), None);
        let local = zs.admit(&h, 0.2, 0.1, 0.5, 10.0).unwrap();
        assert!((local - 0.3).abs() < 1e-12);
        // Only 0.2 free: below the 0.25 the rule demands.
        assert_eq!(zs.admit(&host(0.0, 0.0, 0.2), 0.1, 0.05, 0.5, 10.0), None);
        // Local memory is preferred whenever it covers the booking.
        assert_eq!(
            zs.admit(&host(0.0, 0.0, 0.8), 0.1, 0.05, 0.5, 0.0),
            Some(0.5)
        );
    }

    #[test]
    fn placement_remote_share_comes_from_the_rack_pool() {
        let zs = ZOMBIE_STACK.placement;
        let h = host(0.0, 0.0, 0.3);
        // The remote share is 0.2: a 0.1 pool cannot cover it.
        assert_eq!(zs.admit(&h, 0.1, 0.05, 0.5, 0.1), None);
        assert!(zs.admit(&h, 0.1, 0.05, 0.5, 0.2).is_some());
    }

    #[test]
    fn placement_usage_and_booking_caps_both_reject() {
        let zs = ZOMBIE_STACK.placement;
        // Booked CPU may overcommit one server up to BOOKING_OVERCOMMIT.
        assert!(zs.admit(&host(1.1, 0.5, 1.0), 0.2, 0.1, 0.1, 0.0).is_some());
        assert_eq!(zs.admit(&host(1.2, 0.5, 1.0), 0.2, 0.1, 0.1, 0.0), None);
        // Actual usage may not pass USAGE_CAP, whatever the booking.
        assert_eq!(zs.admit(&host(0.2, 0.8, 1.0), 0.1, 0.1, 0.1, 0.0), None);
        assert!(zs.admit(&host(0.2, 0.7, 1.0), 0.1, 0.1, 0.1, 0.0).is_some());
        // Vanilla never overcommits the booking.
        assert_eq!(
            NEAT.placement
                .admit(&host(0.9, 0.1, 1.0), 0.2, 0.1, 0.1, 0.0),
            None
        );
    }

    #[test]
    fn consolidation_keeps_the_thirty_percent_of_wss_rule() {
        let zs = ZOMBIE_STACK.consolidation;
        // Target with 0.2 free; the VM books 0.5 and its WSS is 0.4.
        let target = host(0.4, 0.3, 0.2);
        let vm = migrant(0.2, 0.16, 0.5, 0.4);
        // Vanilla needs the whole 0.5 free: rejected.
        assert!(!NEAT.consolidation.accepts_migration(&target, &vm, 10.0));
        // ZombieStack needs 0.3 x 0.4 = 0.12 local: accepted...
        assert!(zs.accepts_migration(&target, &vm, 10.0));
        // ...unless the pool cannot take the 0.3 overflow...
        assert!(!zs.accepts_migration(&target, &vm, 0.1));
        // ...or the target cannot keep 30 % of the WSS local.
        assert!(!zs.accepts_migration(&host(0.4, 0.3, 0.1), &vm, 10.0));
        // The usage and booking caps apply as in placement.
        assert!(!zs.accepts_migration(&host(0.4, 0.7, 0.2), &vm, 10.0));
        assert!(!zs.accepts_migration(&host(1.2, 0.3, 0.2), &vm, 10.0));
    }

    #[test]
    fn vanilla_migration_needs_the_full_booking_within_the_fill_cap() {
        let neat = NEAT.consolidation;
        let vm = migrant(0.2, 0.16, 0.5, 0.4);
        assert!(neat.accepts_migration(&host(0.7, 0.5, 0.5), &vm, 0.0));
        // Booked CPU past NEAT_FILL_CAP.
        assert!(!neat.accepts_migration(&host(0.75, 0.5, 0.5), &vm, 0.0));
        // Not all of the footprint fits locally; the pool does not help.
        assert!(!neat.accepts_migration(&host(0.7, 0.5, 0.4), &vm, 10.0));
        // Oasis shares the rule; the disabled consolidator takes nothing.
        assert!(OASIS
            .consolidation
            .accepts_migration(&host(0.7, 0.5, 0.5), &vm, 0.0));
        assert!(!ALWAYS_ON
            .consolidation
            .accepts_migration(&host(0.0, 0.0, 1.0), &vm, 10.0));
    }

    #[test]
    fn migration_footprint_rules() {
        // Vanilla moves the tracked local share; ZombieStack re-places
        // the full booking.
        assert_eq!(NEAT.consolidation.migration_footprint(2.0, Some(0.5)), 0.5);
        assert_eq!(NEAT.consolidation.migration_footprint(2.0, None), 2.0);
        assert_eq!(
            ZOMBIE_STACK
                .consolidation
                .migration_footprint(2.0, Some(0.5)),
            2.0
        );
    }
}
