//! The `paging` workload: RAM Ext on the §6.1 testbed rack.
//!
//! One zombie serves the rack's Ext pool; two guests with the
//! benchmark's own access streams (one read-mostly, one write-heavy, so
//! dirty write-backs sit beside demand fetches) run under FIFO, Clock
//! and Mixed at 20, 30 and 40 % local memory — Fig. 8's cells where
//! remote faults dominate. One pass runs all eighteen cells through
//! `zombieland_hypervisor::engine::run_ops`, each against a freshly
//! built rack. The simulator and the daemon are not involved.

use std::sync::Arc;
use std::time::Instant;

use zombieland_core::manager::PoolKind;
use zombieland_core::{Rack, RackConfig, ServerId};
use zombieland_hypervisor::engine::{self, Backing};
use zombieland_hypervisor::{EngineConfig, Policy, RunStats};
use zombieland_obs::{observe, profile, ObsLevel};
use zombieland_simcore::{Bytes, DetRng, Pages, SimDuration, Zipf};
use zombieland_trace::json::Value;
use zombieland_workloads::{Access, Workload};

use crate::pins;
use crate::report::{self, median, mix_seed, Metric, Outcome, Tally};
use crate::spans::Local;
use crate::{Ctx, PassKind};

/// Guest working set in pages (32 MiB); the VM reserves 7/6 of it, the
/// paper's 7 GiB : 6 GiB geometry.
const WSS_PAGES: u64 = 8_192;
/// Accesses each guest issues per cell.
const ACCESSES: usize = 100_000;
/// Local memory as a percentage of the VM's reservation.
const LOCAL_PCTS: [u64; 3] = [20, 30, 40];
const POLICIES: [(Policy, &str); 3] = [
    (Policy::Fifo, "fifo"),
    (Policy::Clock, "clock"),
    (Policy::MIXED_DEFAULT, "mixed"),
];

/// A guest's access pattern.
#[derive(Clone, Copy)]
pub struct Guest {
    pub name: &'static str,
    /// Modeled CPU work per access.
    cost_ns: u64,
    /// Percent of accesses that write.
    write_pct: u64,
}

pub const GUESTS: [Guest; 2] = [
    // Skewed lookups over an index, rarely writing (elasticsearch-like).
    Guest {
        name: "read-mostly",
        cost_ns: 200,
        write_pct: 4,
    },
    // Scans that rewrite what they read (spark-sql-like).
    Guest {
        name: "write-heavy",
        cost_ns: 100,
        write_pct: 55,
    },
];

/// Generates one guest's access stream from `seed`.
fn generate(guest: &Guest, seed: u64) -> Arc<[Access]> {
    let mut rng = DetRng::new(seed);
    let mut out = Vec::with_capacity(ACCESSES);
    if guest.write_pct < 10 {
        let zipf = Zipf::new(WSS_PAGES, 0.9);
        for _ in 0..ACCESSES {
            let page = zipf.sample(&mut rng);
            out.push(Access {
                page,
                write: rng.below(100) < guest.write_pct,
            });
        }
    } else {
        let mut cursor = rng.below(WSS_PAGES);
        for _ in 0..ACCESSES {
            let page = if rng.below(100) < 60 {
                cursor = (cursor + 1) % WSS_PAGES;
                cursor
            } else {
                rng.below(WSS_PAGES)
            };
            out.push(Access {
                page,
                write: rng.below(100) < guest.write_pct,
            });
        }
    }
    out.into()
}

/// Replays a pre-generated stream, so `run_ops` time is the engine's
/// alone.
#[derive(Clone)]
struct Replay {
    guest: Guest,
    accesses: Arc<[Access]>,
    pos: usize,
}

impl Workload for Replay {
    fn name(&self) -> &'static str {
        self.guest.name
    }

    fn wss(&self) -> Pages {
        Pages::new(WSS_PAGES)
    }

    fn base_op_cost(&self) -> SimDuration {
        SimDuration::from_nanos(self.guest.cost_ns)
    }

    fn next_access(&mut self) -> Access {
        let a = self.accesses[self.pos % self.accesses.len()];
        self.pos += 1;
        a
    }

    fn fill(&mut self, buf: &mut [Access]) {
        for slot in buf {
            *slot = self.next_access();
        }
    }

    fn suggested_ops(&self) -> u64 {
        self.accesses.len() as u64
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }
}

/// One cell of the grid.
struct Cell {
    guest: usize,
    policy: usize,
    pct: u64,
}

fn cells() -> Vec<Cell> {
    let mut v = Vec::new();
    for guest in 0..GUESTS.len() {
        for policy in 0..POLICIES.len() {
            for &pct in &LOCAL_PCTS {
                v.push(Cell { guest, policy, pct });
            }
        }
    }
    v
}

fn cell_name(c: &Cell) -> String {
    format!(
        "{}/{}/{}%",
        GUESTS[c.guest].name, POLICIES[c.policy].1, c.pct
    )
}

fn reserved() -> Bytes {
    Pages::new(WSS_PAGES * 7 / 6).bytes()
}

fn local_of(pct: u64) -> Bytes {
    reserved().mul_f64(pct as f64 / 100.0)
}

/// The testbed rack with one zombie, and `remote` bytes of Ext granted
/// to the user server.
fn build_rack(remote: Bytes) -> (Rack, ServerId) {
    let mut rack = Rack::new(RackConfig::default());
    let ids = rack.server_ids();
    let (user, zombie) = (ids[0], ids[1]);
    rack.goto_zombie(zombie)
        .expect("a fresh server can become a zombie");
    rack.alloc_ext(user, remote)
        .expect("one zombie covers the guest's remote share");
    (rack, user)
}

/// The `RunStats` fields a cell pins.
pub fn fingerprint(s: &RunStats) -> [u64; 6] {
    [
        s.exec_time.as_nanos(),
        s.remote_faults,
        s.minor_faults,
        s.demotions,
        s.clean_demotions,
        s.pages_dirtied,
    ]
}

#[derive(Default)]
struct Pass {
    setup_s: f64,
    run_s: f64,
    rack_setup_s: f64,
    cell_s: Vec<f64>,
    stats: Vec<RunStats>,
    rdma_reads: u64,
    rdma_batches: u64,
    hv_setup_s: f64,
    fault_batch_s: f64,
    kind: PassKind,
    rss_mib: f64,
}

fn run_pass(ctx: &Ctx, sp: &mut Local, traced: bool) -> Pass {
    let mut pass = Pass::default();
    if traced {
        profile::reset();
        profile::set_enabled(true);
    }
    let t = Instant::now();
    let streams: Vec<Arc<[Access]>> = sp.span("bench.guest_generate", || {
        GUESTS
            .iter()
            .enumerate()
            .map(|(i, g)| generate(g, mix_seed(ctx.seed, 0x9a6e + i as u64)))
            .collect()
    });
    let cells = cells();
    let mut racks = Vec::with_capacity(cells.len());
    for c in &cells {
        let t = Instant::now();
        let remote = reserved().saturating_sub(local_of(c.pct));
        racks.push(sp.span("core.rack_setup", || build_rack(remote)));
        pass.rack_setup_s += t.elapsed().as_secs_f64();
    }
    pass.setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (i, (c, (mut rack, user))) in cells.iter().zip(racks).enumerate() {
        let mut guest = Replay {
            guest: GUESTS[c.guest],
            accesses: Arc::clone(&streams[c.guest]),
            pos: 0,
        };
        let cfg = EngineConfig {
            policy: POLICIES[c.policy].0,
            seed: mix_seed(ctx.seed, i as u64),
            ..EngineConfig::ram_ext(reserved(), local_of(c.pct))
        };
        let level = if traced {
            ObsLevel::Summary
        } else {
            ObsLevel::Off
        };
        let tc = Instant::now();
        let (stats, obs) = sp.span("hypervisor.run_ops", || {
            observe(level, || {
                engine::run_ops(
                    &mut guest,
                    &cfg,
                    Backing::Rack {
                        rack: &mut rack,
                        user,
                        pool: PoolKind::Ext,
                    },
                    ACCESSES as u64,
                )
            })
        });
        pass.cell_s.push(tc.elapsed().as_secs_f64());
        pass.rdma_reads += obs.metrics.counter("rdma.reads");
        pass.rdma_batches += obs.metrics.counter("rdma.read_batches");
        // A failed run is an operation failure; keep a default record so
        // the cell still compares (and fails) against its pin.
        pass.stats.push(stats.unwrap_or_default());
        sp.span("bench.rack_drop", || drop(rack));
    }
    pass.run_s = t.elapsed().as_secs_f64();
    if traced {
        profile::set_enabled(false);
        for p in profile::snapshot() {
            let s = p.wall_ns as f64 / 1e9;
            match p.phase {
                profile::Phase::HvSetup => pass.hv_setup_s += s,
                profile::Phase::FaultBatch => pass.fault_batch_s += s,
                _ => {}
            }
        }
    }
    pass
}

/// Checks one pass: every cell against its pin (default seed) or the
/// seed-independent rules, and against the first pass.
fn check(ctx: &Ctx, pass: &Pass, first: Option<&Pass>, tally: &mut Tally) {
    for (i, (c, s)) in cells().iter().zip(&pass.stats).enumerate() {
        let got = fingerprint(s);
        let mut bad = Vec::new();
        if s.ops != ACCESSES as u64 {
            bad.push(format!("ran {} of {} accesses", s.ops, ACCESSES));
        }
        if s.remote_faults == 0 {
            bad.push("no remote faults below 50% local".into());
        }
        if let Some(first) = first {
            if got != fingerprint(&first.stats[i]) {
                bad.push(format!("differs from the first pass: {got:?}"));
            }
        } else if ctx.pinned && got != pins::PAGING[i] {
            bad.push(format!("pin {:?}, got {got:?}", pins::PAGING[i]));
        }
        tally.record(1, u64::from(!bad.is_empty()), || {
            format!("paging {}: {}", cell_name(c), bad.join("; "))
        });
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut sp = ctx.tracer.local(0);
    let root = sp.open("bench.paging", 0);
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    while ctx.more_passes(passes.len(), started) {
        let (mut pass, kind, rss) = ctx.pass(&mut sp, passes.len(), |sp, traced| {
            run_pass(ctx, sp, traced)
        });
        pass.kind = kind;
        pass.rss_mib = rss;
        check(ctx, &pass, passes.first(), &mut tally);
        if ctx.print_pins && passes.is_empty() {
            for s in &pass.stats {
                eprintln!("    {:?},", fingerprint(s));
            }
        }
        passes.push(pass);
    }
    sp.close(root);
    drop(sp);

    let accesses_per_pass = (cells().len() * ACCESSES) as f64;
    let untraced: Vec<&Pass> = passes
        .iter()
        .filter(|p| p.kind == PassKind::Untraced)
        .collect();
    let traced: Vec<&Pass> = passes
        .iter()
        .filter(|p| p.kind == PassKind::Traced)
        .collect();
    let per_pass_us: Vec<Vec<f64>> = untraced
        .iter()
        .map(|p| p.cell_s.iter().map(|s| s * 1e6).collect())
        .collect();
    let call_us: Vec<f64> = per_pass_us.iter().flatten().copied().collect();
    let mut metrics = Vec::new();
    if !ctx.tracer.on() {
        let setup: Vec<f64> = untraced.iter().map(|p| p.setup_s).collect();
        let rss: Vec<f64> = untraced.iter().map(|p| p.rss_mib).collect();
        metrics = report::end_to_end(
            &setup,
            report::latency_best(std::slice::from_ref(&per_pass_us)),
            &rss,
        );
    } else {
        let last = traced.last().expect("a traced run has traced passes");
        let col = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(|p| f(p)).collect::<Vec<f64>>();
        let run_ops = col(&|p| p.cell_s.iter().sum());
        let remote: u64 = last.stats.iter().map(|s| s.remote_faults).sum();
        let demotions: u64 = last.stats.iter().map(|s| s.demotions).sum();
        let clean: u64 = last.stats.iter().map(|s| s.clean_demotions).sum();
        metrics.push(Metric::median_of("hypervisor.run_ops_s", &run_ops, "s"));
        metrics.push(
            Metric::measured(
                "hypervisor.ns_per_access",
                median(&run_ops) * 1e9 / accesses_per_pass,
                "ns",
            )
            .with_samples(run_ops.len()),
        );
        metrics.push(Metric::median_of(
            "hypervisor.fault_batch_self_s",
            &col(&|p| p.fault_batch_s),
            "s",
        ));
        metrics.push(Metric::median_of(
            "hypervisor.setup_self_s",
            &col(&|p| p.hv_setup_s),
            "s",
        ));
        metrics.push(Metric::modeled(
            "hypervisor.remote_faults",
            remote as f64,
            "count",
        ));
        metrics.push(Metric::modeled(
            "hypervisor.demotions",
            demotions as f64,
            "count",
        ));
        metrics.push(Metric::modeled(
            "hypervisor.dirty_demotion_ratio",
            (demotions - clean) as f64 / demotions.max(1) as f64,
            "ratio",
        ));
        metrics.push(Metric::modeled(
            "rdma.reads",
            last.rdma_reads as f64,
            "count",
        ));
        metrics.push(Metric::modeled(
            "rdma.reads_per_batch",
            last.rdma_reads as f64 / last.rdma_batches.max(1) as f64,
            "ratio",
        ));
        metrics.push(Metric::median_of(
            "core.rack_setup_s",
            &col(&|p| p.rack_setup_s),
            "s",
        ));
        let on = col(&|p| p.setup_s + p.run_s);
        let off: Vec<f64> = untraced.iter().map(|p| p.setup_s + p.run_s).collect();
        metrics.push(report::overhead(&on, &off));
    }
    let params = vec![
        ("wss_pages".to_string(), Value::UInt(WSS_PAGES)),
        (
            "accesses_per_cell".to_string(),
            Value::UInt(ACCESSES as u64),
        ),
        ("cells".to_string(), Value::UInt(cells().len() as u64)),
        ("passes".to_string(), Value::UInt(passes.len() as u64)),
        (
            "pass_run_s".to_string(),
            Value::Array(passes.iter().map(|p| Value::Float(p.run_s)).collect()),
        ),
    ];
    let rate: Vec<f64> = untraced
        .iter()
        .map(|p| accesses_per_pass / p.cell_s.iter().sum::<f64>())
        .collect();
    Outcome {
        tally,
        metrics,
        params,
        ungated: report::ungated(Metric::median_of("", &rate, "1/s"), &call_us),
    }
}
