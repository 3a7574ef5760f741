//! The daemon's cluster model: what `zombied` answers requests *about*.
//!
//! A [`ClusterModel`] is a [`Rack`] of `servers` hosts — the simulated
//! RDMA fabric, the HA controller pair and one remote-memory-manager
//! agent per server — and every request is answered by [`Rack::apply`],
//! the same controller step the in-process experiments drive. The model
//! adds only what a daemon needs around it:
//!
//! - a deterministic boot: a short [`zombieland_simulator`] run under the
//!   ZombieStack policy decides how many hosts start as zombies, so the
//!   daemon comes up with a realistic lending pool instead of an empty
//!   database;
//! - a sim-clock: every applied operation advances it by the op's
//!   [`RackOp::server_time`], heartbeats the primary controller, and runs
//!   the secondary's monitor — so a crashed primary
//!   (`--fail-primary-after`) is detected and failed over *between*
//!   requests, mid-stream, exactly the transparent-HA story §4.1–4.2
//!   tells;
//! - the STATS overlay ([`ClusterModel::observe_into`]).

use zombieland_core::codec::RackResponse;
use zombieland_core::protocol::RackOp;
use zombieland_core::{Rack, RackConfig, ServerId};
use zombieland_energy::MachineProfile;
use zombieland_mem::buffer::BUFF_SIZE;
use zombieland_simcore::{Bytes, SimDuration, SimTime};
use zombieland_simulator::{simulate, PolicyKind, SimConfig};
use zombieland_trace::{ClusterTrace, TraceConfig};

/// How a [`ClusterModel`] boots.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Hosts in the rack.
    pub servers: u32,
    /// Boot seed: same seed, same model, same responses.
    pub seed: u64,
    /// Lendable memory per host (free RAM it can serve remotely).
    pub lendable: Bytes,
    /// Crash the primary controller after this many applied ops (the
    /// secondary takes over via heartbeat timeout).
    pub fail_primary_after: Option<u64>,
}

impl ModelConfig {
    /// A rack of `servers` hosts seeded with `seed`, 1 GiB lendable
    /// each, no injected crash.
    pub fn new(servers: u32, seed: u64) -> Self {
        ModelConfig {
            servers: servers.max(2),
            seed,
            lendable: Bytes::gib(1),
            fail_primary_after: None,
        }
    }
}

/// Heartbeat timeout: ops advance the clock by tens of microseconds, so
/// a crashed primary is declared dead within a handful of requests.
const HEARTBEAT_TIMEOUT: SimDuration = SimDuration::from_micros(100);

/// The daemon's world.
pub struct ClusterModel {
    rack: Rack,
    clock: SimTime,
    ops_applied: u64,
    heartbeats: u64,
    fail_primary_after: Option<u64>,
    primary_crashed: bool,
    initial_zombies: u64,
}

impl ClusterModel {
    /// Boots a model: runs a short deterministic simulation to pick the
    /// initial zombie population, then builds the rack and lends the
    /// zombies' memory into the pool.
    pub fn boot(cfg: ModelConfig) -> ClusterModel {
        let trace = ClusterTrace::generate(TraceConfig {
            servers: cfg.servers,
            duration: SimDuration::from_hours(6),
            seed: cfg.seed,
            mem_cpu_ratio: 1.0,
            avg_utilization: 0.25,
        });
        let sim_cfg = SimConfig {
            sample_interval: Some(SimDuration::from_hours(1)),
            ..SimConfig::new(PolicyKind::ZombieStack, MachineProfile::hp())
        };
        let report = simulate(&trace, &sim_cfg);
        let zombies = report
            .timeline
            .last()
            .map(|s| s.counts[1])
            .unwrap_or(0)
            .clamp(1, cfg.servers as u64 - 1);

        // Each host can lend exactly `lendable`: its RAM is that plus
        // the system reserve. The rack prices the backend the boot
        // simulation ran under (the installed scenario's `backend` key).
        let defaults = RackConfig::default();
        let mut rack = Rack::new(RackConfig {
            servers: cfg.servers,
            ram_per_server: cfg.lendable + defaults.system_reserved,
            heartbeat_timeout: HEARTBEAT_TIMEOUT,
            backend: sim_cfg.backend,
            ..defaults
        });
        // Seed the pool: the simulated zombie count, spread evenly over
        // the rack, each lending everything it has.
        let stride = (cfg.servers as u64 / zombies).max(1);
        for z in 0..zombies {
            let host = ServerId::new(((z * stride) % cfg.servers as u64) as u32);
            rack.apply(&RackOp::GotoZombie {
                host,
                buffers: u64::MAX,
            });
        }
        ClusterModel {
            rack,
            clock: SimTime::ZERO,
            ops_applied: 0,
            heartbeats: 0,
            fail_primary_after: cfg.fail_primary_after,
            primary_crashed: false,
            initial_zombies: zombies,
        }
    }

    /// Hosts that booted as zombies (decided by the boot simulation).
    pub fn initial_zombies(&self) -> u64 {
        self.initial_zombies
    }

    /// Free buffers currently in the controller database.
    pub fn free_buffers(&self) -> u64 {
        self.rack.db().free_buffers()
    }

    /// Controller failovers so far.
    pub fn failovers(&self) -> u32 {
        self.rack.failovers()
    }

    /// Writes the model's current state into a scrape registry: lifetime
    /// counters (ops, heartbeats, failovers) and point-in-time gauges
    /// (pool pressure, zombie population, HA liveness, the model clock).
    /// Called with the model lock held, on the merged scrape copy — the
    /// per-connection telemetry shards never see these names, so gauges
    /// reflect *now* rather than an average of past scrapes.
    pub fn observe_into(&self, reg: &mut zombieland_obs::MetricRegistry) {
        let db = self.rack.db();
        reg.counter_add("zombied.ops_applied", self.ops_applied);
        reg.counter_add("zombied.ha.heartbeats", self.heartbeats);
        reg.counter_add("zombied.ha.failovers", self.rack.failovers() as u64);
        reg.gauge_set(
            "zombied.ha.primary_alive",
            u64::from(self.rack.primary_alive()),
        );
        reg.gauge_set("zombied.pool.free_buffers", db.free_buffers());
        reg.gauge_set("zombied.pool.zombies", db.zombie_count());
        reg.gauge_set(
            "zombied.pool.lent_bytes",
            (BUFF_SIZE * self.rack.stats().lent_buffers).get(),
        );
        // One flag gauge per registered backend (the registry is static,
        // and `gauge_set` needs `&'static str` names): exactly one is 1.
        let backend = self.rack.config().backend.key;
        reg.gauge_set("zombied.backend.rdma", u64::from(backend == "rdma"));
        reg.gauge_set("zombied.backend.cxl", u64::from(backend == "cxl"));
        reg.gauge_set("zombied.clock_ns", self.clock.as_nanos());
    }

    /// Applies one control-plane operation, advancing the model clock and
    /// the HA machinery, and returns the wire response.
    pub fn apply(&mut self, op: &RackOp) -> RackResponse {
        self.ops_applied += 1;
        if self.fail_primary_after == Some(self.ops_applied) {
            self.rack.crash_primary();
            self.primary_crashed = true;
        }
        self.clock += op.server_time();
        if !self.primary_crashed {
            self.rack.heartbeat(self.clock);
            self.heartbeats += 1;
        }
        self.rack.check_failover(self.clock);
        self.rack.apply(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zombieland_core::codec::{ErrorFrame, ResponseBody};
    use zombieland_mem::buffer::BufferId;

    fn model() -> ClusterModel {
        ClusterModel::boot(ModelConfig::new(8, 11))
    }

    #[test]
    fn boot_is_deterministic_and_seeds_zombies() {
        let a = model();
        let b = model();
        assert_eq!(a.initial_zombies(), b.initial_zombies());
        assert_eq!(a.free_buffers(), b.free_buffers());
        assert!(a.initial_zombies() >= 1);
        assert!(a.free_buffers() > 0, "boot must lend something");
    }

    #[test]
    fn seven_ops_answer_with_matching_bodies() {
        let mut m = model();
        let free_before = m.free_buffers();

        let r = m.apply(&RackOp::AllocExt {
            user: ServerId::new(1),
            mem_size: Bytes::mib(128),
        });
        let ResponseBody::Granted { buffers } = &r.body else {
            panic!("alloc_ext answered {r:?}");
        };
        assert_eq!(buffers.len(), 2);
        assert!(buffers.iter().all(|d| d.zombie));
        assert_eq!(m.free_buffers(), free_before - 2);
        let granted: Vec<BufferId> = buffers.iter().map(|d| d.id).collect();

        let r = m.apply(&RackOp::AllocSwap {
            user: ServerId::new(1),
            mem_size: Bytes::mib(64),
        });
        assert!(matches!(&r.body, ResponseBody::Granted { buffers } if buffers.len() == 1));

        let r = m.apply(&RackOp::GetLruZombie);
        let ResponseBody::LruZombie { host: Some(_) } = r.body else {
            panic!("no zombie in a freshly booted rack: {r:?}");
        };

        let r = m.apply(&RackOp::UsReclaim {
            user: ServerId::new(1),
            buff_ids: granted,
        });
        assert!(matches!(r.body, ResponseBody::Revoked { .. }), "{r:?}");

        // Host 7 is never an initial zombie under the even-spread boot
        // (the spread never reaches the last host), so it still has its
        // full lendable budget.
        let r = m.apply(&RackOp::GotoZombie {
            host: ServerId::new(7),
            buffers: 4,
        });
        assert!(matches!(&r.body, ResponseBody::Lent { buffers } if buffers.len() == 4));

        let r = m.apply(&RackOp::AsGetFreeMem {
            host: ServerId::new(7),
        });
        assert!(matches!(r.body, ResponseBody::Lent { .. }), "{r:?}");

        let r = m.apply(&RackOp::Reclaim {
            host: ServerId::new(7),
            nb_buffers: 2,
        });
        let ResponseBody::Reclaimed {
            returned_free,
            revoked,
        } = &r.body
        else {
            panic!("reclaim answered {r:?}");
        };
        assert_eq!(returned_free.len() + revoked.len(), 2);

        // Decision latency is the op's modeled server time, always.
        let op = RackOp::GetLruZombie;
        assert_eq!(m.apply(&op).decision, op.server_time());
    }

    #[test]
    fn stats_overlay_reports_backend_and_lent_bytes() {
        let m = model();
        let mut reg = zombieland_obs::MetricRegistry::default();
        m.observe_into(&mut reg);
        // The default scenario runs the paper's rdma backend.
        assert_eq!(reg.gauge("zombied.backend.rdma").map(|g| g.max), Some(1));
        assert_eq!(reg.gauge("zombied.backend.cxl").map(|g| g.max), Some(0));
        let lent = reg.gauge("zombied.pool.lent_bytes").map(|g| g.max);
        assert!(
            lent.unwrap() > 0,
            "boot lends the zombies' memory: {lent:?}"
        );
        // Reclaiming shrinks the lent-bytes gauge.
        let mut m = model();
        m.apply(&RackOp::Reclaim {
            host: ServerId::new(0),
            nb_buffers: 1,
        });
        let mut after = zombieland_obs::MetricRegistry::default();
        m.observe_into(&mut after);
        assert!(after.gauge("zombied.pool.lent_bytes").unwrap().max < lent.unwrap());
    }

    #[test]
    fn unknown_host_and_admission_errors_are_typed() {
        let mut m = model();
        let r = m.apply(&RackOp::GotoZombie {
            host: ServerId::new(999),
            buffers: 1,
        });
        assert_eq!(
            r.body,
            ResponseBody::Error(ErrorFrame::UnknownHost(ServerId::new(999)))
        );
        let r = m.apply(&RackOp::AllocExt {
            user: ServerId::new(0),
            mem_size: Bytes::gib(100),
        });
        assert!(
            matches!(
                r.body,
                ResponseBody::Error(ErrorFrame::AdmissionDenied { .. })
            ),
            "{r:?}"
        );
    }

    #[test]
    fn primary_crash_fails_over_mid_stream_and_service_continues() {
        let mut m = ClusterModel::boot(ModelConfig {
            fail_primary_after: Some(3),
            ..ModelConfig::new(8, 11)
        });
        let mut bodies = Vec::new();
        for _ in 0..16 {
            bodies.push(m.apply(&RackOp::GetLruZombie).body);
        }
        assert_eq!(m.failovers(), 1, "secondary must have taken over");
        // Every answer, before and after the failover, is well-formed and
        // identical (reads of mirrored state).
        assert!(bodies.iter().all(|b| *b == bodies[0]));

        // Mutations keep working against the promoted secondary.
        let r = m.apply(&RackOp::AllocSwap {
            user: ServerId::new(2),
            mem_size: Bytes::mib(64),
        });
        assert!(matches!(r.body, ResponseBody::Granted { .. }), "{r:?}");
    }
}
