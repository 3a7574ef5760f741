//! The `fleet` workload: the datacenter simulator on a Google-shaped
//! trace.
//!
//! One seeded trace of 42 racks × 40 hosts (the paper's rack); 42 racks
//! give the default sharding two shards. One pass is three `simulate`
//! calls: AlwaysOn and ZombieStack on the original trace, and ZombieStack
//! on the `modified()` (memory = 2 × CPU) trace. AlwaysOn bypasses
//! consolidation, wake-ups and the remote pool; the modified trace drives
//! them far harder than the original.
//!
//! The timed calls run with a thread budget of 1, so the two shards are
//! scanned inline and merged. With a budget of `nproc` the scan rounds run
//! on the simulator's worker crew in lock-step, and on a small shared host
//! that made every call both slower and far less steady: each round waits
//! for a thread on the other CPU. The traced passes therefore add a fourth
//! call, the modified trace on the crew with a budget of `nproc`, which
//! must reproduce the inline call's report exactly and gives the crew's
//! own cost (`simulator.shard_round_self_s`, `simulator.crew_speedup`).

use std::time::Instant;

use zombieland_energy::MachineProfile;
use zombieland_obs::{observe, profile, ObsLevel};
use zombieland_simcore::{with_thread_budget, SimDuration};
use zombieland_simulator::{simulate, PolicyKind, SimConfig, SimReport};
use zombieland_trace::json::Value;
use zombieland_trace::{ClusterTrace, TraceConfig};

use crate::pins;
use crate::report::{self, Metric, Outcome, Tally};
use crate::{Ctx, PassKind};

const RACKS: u32 = 42;
const HOSTS_PER_RACK: u32 = 40;
/// Trace length in hours.
const HOURS: u64 = 1;
/// Set-ups before each pass; `setup_s` is the median over all of them.
const SETUPS_PER_PASS: usize = 3;

/// The three timed calls of a pass: label, policy, modified trace.
const CALLS: [(&str, PolicyKind, bool); 3] = [
    ("alwayson", PolicyKind::AlwaysOn, false),
    ("zombiestack", PolicyKind::ZombieStack, false),
    ("zombiestack_modified", PolicyKind::ZombieStack, true),
];

/// The call the traced passes repeat on the crew.
const CREW_CALL: usize = 2;

const SIM_SPANS: [&str; 3] = [
    "simulator.simulate.alwayson",
    "simulator.simulate.zombiestack",
    "simulator.simulate.zombiestack_modified",
];

/// The simulator's profile phases this workload reports, by metric
/// name.
const PHASES: [(profile::Phase, &str); 6] = [
    (profile::Phase::SimSetup, "setup"),
    (profile::Phase::Arrivals, "arrivals"),
    (profile::Phase::Departures, "departures"),
    (profile::Phase::Consolidation, "consolidation"),
    (profile::Phase::WakeUps, "wakeups"),
    (profile::Phase::ShardRound, "shard_round"),
];

/// The `SimReport` fields a call pins: energy bits, migrations,
/// wake-ups, events, dropped arrivals.
pub fn fingerprint(r: &SimReport) -> [u64; 5] {
    [
        r.energy.get().to_bits(),
        r.migrations,
        r.wakeups,
        r.events,
        r.dropped,
    ]
}

fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        servers: RACKS * HOSTS_PER_RACK,
        duration: SimDuration::from_hours(HOURS),
        seed,
        mem_cpu_ratio: 1.0,
        avg_utilization: 0.6,
    }
}

fn sim_config(policy: PolicyKind) -> SimConfig {
    let mut cfg = SimConfig::new(policy, MachineProfile::hp());
    cfg.racks = RACKS;
    cfg.shards = zombieland_core::scenario::current().shards_for(RACKS);
    cfg
}

/// Per-phase self time of one call, in seconds.
type PhaseTimes = [f64; PHASES.len()];

struct Call {
    secs: f64,
    report: SimReport,
    phases: PhaseTimes,
}

struct Pass {
    kind: PassKind,
    calls: Vec<Call>,
    /// The modified trace again, on the crew (traced passes only).
    crew: Option<Call>,
    rss_mib: f64,
}

impl Pass {
    fn secs(&self) -> f64 {
        self.calls.iter().map(|c| c.secs).sum()
    }

    fn events(&self) -> u64 {
        self.calls.iter().map(|c| c.report.events).sum()
    }
}

fn run_call(trace: &ClusterTrace, call: usize, traced: bool, budget: usize) -> Call {
    let (_, policy, _) = CALLS[call];
    let cfg = sim_config(policy);
    if traced {
        profile::reset();
        profile::set_enabled(true);
    }
    let level = if traced {
        ObsLevel::Summary
    } else {
        ObsLevel::Off
    };
    let t = Instant::now();
    let (report, _) = with_thread_budget(budget, || observe(level, || simulate(trace, &cfg)));
    let secs = t.elapsed().as_secs_f64();
    let mut phases = [0.0; PHASES.len()];
    if traced {
        profile::set_enabled(false);
        for s in profile::snapshot() {
            if let Some(i) = PHASES.iter().position(|(p, _)| *p == s.phase) {
                phases[i] = s.wall_ns as f64 / 1e9;
            }
        }
    }
    Call {
        secs,
        report,
        phases,
    }
}

/// Checks one call's report: its pin on the default seed, the
/// seed-independent rules on any seed, and equality with the first pass.
fn check(
    ctx: &Ctx,
    call: usize,
    r: &SimReport,
    events: u64,
    first: Option<&SimReport>,
    tally: &mut Tally,
) {
    let (label, policy, _) = CALLS[call];
    let got = fingerprint(r);
    let mut bad = Vec::new();
    if r.events != events {
        bad.push(format!("{} events for a trace of {events}", r.events));
    }
    if policy == PolicyKind::AlwaysOn && (r.migrations != 0 || r.wakeups != 0) {
        bad.push("AlwaysOn migrated or woke hosts".into());
    }
    match first {
        Some(f) if f != r => bad.push(format!("differs from the first pass: {got:?}")),
        Some(_) => {}
        None if ctx.pinned && got != pins::FLEET[call] => {
            bad.push(format!("pin {:?}, got {got:?}", pins::FLEET[call]))
        }
        None => {}
    }
    tally.record(1, u64::from(!bad.is_empty()), || {
        format!("fleet {label}: {}", bad.join("; "))
    });
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut sp = ctx.tracer.local(0);
    let root = sp.open("bench.fleet", 0);
    let mut tally = Tally::default();

    // Set-up: generate the trace, sort its replay order, derive the
    // modified trace. Repeated before every pass, so `setup_s` is a
    // median over set-ups spread across the whole run.
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut set_up = |sp: &mut crate::spans::Local| {
        let mut traces = None;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let trace = sp.span("trace.generate", || {
                ClusterTrace::generate(trace_config(ctx.seed))
            });
            generate.push(t.elapsed().as_secs_f64());
            sp.span("trace.event_order", || trace.event_order());
            let modified = sp.span("trace.modified", || trace.modified());
            setup.push(t.elapsed().as_secs_f64());
            traces = Some((trace, modified));
        }
        traces.expect("SETUPS_PER_PASS > 0")
    };

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut events = 0;
    while ctx.more_passes(passes.len(), started) {
        let (trace, modified) = set_up(&mut sp);
        events = trace.events_len() as u64;
        let ((calls, crew), kind, rss_mib) = ctx.pass(&mut sp, passes.len(), |sp, traced| {
            let calls = CALLS
                .iter()
                .enumerate()
                .map(|(i, &(_, _, is_modified))| {
                    let tr = if is_modified { &modified } else { &trace };
                    sp.span(SIM_SPANS[i], || run_call(tr, i, traced, 1))
                })
                .collect::<Vec<Call>>();
            let crew = traced.then(|| {
                sp.span("simulator.simulate.crew", || {
                    run_call(&modified, CREW_CALL, true, ctx.nproc)
                })
            });
            (calls, crew)
        });
        for (i, c) in calls.iter().enumerate() {
            let first = passes.first().map(|p| &p.calls[i].report);
            check(ctx, i, &c.report, events, first, &mut tally);
            if ctx.print_pins && first.is_none() {
                eprintln!("    {:?},", fingerprint(&c.report));
            }
        }
        if let Some(c) = &crew {
            let same = c.report == calls[CREW_CALL].report;
            tally.record(1, u64::from(!same), || {
                format!(
                    "fleet crew: differs from the inline call: {:?}",
                    fingerprint(&c.report)
                )
            });
        }
        passes.push(Pass {
            kind,
            calls,
            crew,
            rss_mib,
        });
    }
    sp.close(root);
    drop(sp);

    let mut metrics = Vec::new();
    let plain: Vec<&Pass> = passes
        .iter()
        .filter(|p| p.kind == PassKind::Untraced)
        .collect();
    let call_us: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.calls.iter().map(|c| c.secs * 1e6))
        .collect();
    if !ctx.tracer.on() {
        let per_pass_us: Vec<Vec<f64>> = plain
            .iter()
            .map(|p| p.calls.iter().map(|c| c.secs * 1e6).collect())
            .collect();
        let rss: Vec<f64> = plain.iter().map(|p| p.rss_mib).collect();
        metrics = report::end_to_end(
            &setup,
            report::latency_best(std::slice::from_ref(&per_pass_us)),
            &rss,
        );
    } else {
        let traced: Vec<&Pass> = passes
            .iter()
            .filter(|p| p.kind == PassKind::Traced)
            .collect();
        metrics.push(Metric::median_of("trace.generate_s", &generate, "s"));
        for (i, (label, _, _)) in CALLS.iter().enumerate() {
            let secs: Vec<f64> = traced.iter().map(|p| p.calls[i].secs).collect();
            metrics.push(Metric::median_of(
                format!("simulator.simulate_s.{label}"),
                &secs,
                "s",
            ));
        }
        let per_event: Vec<f64> = traced
            .iter()
            .map(|p| p.secs() * 1e9 / p.events() as f64)
            .collect();
        metrics.push(Metric::median_of(
            "simulator.ns_per_event",
            &per_event,
            "ns",
        ));
        for (k, (phase, name)) in PHASES.iter().enumerate() {
            // Only the crew call runs shard rounds.
            let per_pass: Vec<f64> = traced
                .iter()
                .map(|p| match phase {
                    profile::Phase::ShardRound => p.crew.as_ref().map_or(0.0, |c| c.phases[k]),
                    _ => p.calls.iter().map(|c| c.phases[k]).sum(),
                })
                .collect();
            metrics.push(Metric::median_of(
                format!("simulator.{name}_self_s"),
                &per_pass,
                "s",
            ));
        }
        let crew: Vec<(f64, f64)> = traced
            .iter()
            .filter_map(|p| p.crew.as_ref().map(|c| (p.calls[CREW_CALL].secs, c.secs)))
            .collect();
        metrics.push(Metric::median_of(
            "simulator.simulate_s.crew",
            &crew.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            "s",
        ));
        metrics.push(Metric::median_of(
            "simulator.crew_speedup",
            &crew
                .iter()
                .map(|&(inline, c)| inline / c)
                .collect::<Vec<_>>(),
            "ratio",
        ));
        for (k, name) in [(3, "consolidation"), (4, "wakeups")] {
            let on_alwayson: Vec<f64> = traced.iter().map(|p| p.calls[0].phases[k]).collect();
            metrics.push(Metric::median_of(
                format!("simulator.alwayson_{name}_self_s"),
                &on_alwayson,
                "s",
            ));
        }
        let last = traced.last().expect("a traced run has traced passes");
        let sum = |f: &dyn Fn(&Call) -> u64| last.calls.iter().map(f).sum::<u64>() as f64;
        metrics.push(Metric::modeled(
            "simulator.events",
            sum(&|c| c.report.events),
            "count",
        ));
        metrics.push(Metric::modeled(
            "simulator.migrations",
            sum(&|c| c.report.migrations),
            "count",
        ));
        metrics.push(Metric::modeled(
            "simulator.wakeups",
            sum(&|c| c.report.wakeups),
            "count",
        ));
        let peak = last
            .calls
            .iter()
            .map(|c| c.report.peak_queue)
            .max()
            .unwrap_or(0);
        metrics.push(Metric::modeled(
            "simulator.peak_queue",
            peak as f64,
            "count",
        ));
        // Each task arrives once; an arrival no host could take on the
        // normal path was overcommitted or dropped.
        let fallback = sum(&|c| c.report.overcommitted + c.report.dropped);
        metrics.push(Metric::modeled(
            "simulator.placement_fallback_ratio",
            fallback / (sum(&|c| c.report.events) / 2.0).max(1.0),
            "ratio",
        ));
        let on: Vec<f64> = traced.iter().map(|p| p.secs()).collect();
        let off: Vec<f64> = plain.iter().map(|p| p.secs()).collect();
        metrics.push(report::overhead(&on, &off));
    }
    let params = vec![
        (
            "hosts".to_string(),
            Value::UInt((RACKS * HOSTS_PER_RACK) as u64),
        ),
        ("racks".to_string(), Value::UInt(RACKS as u64)),
        (
            "shards".to_string(),
            Value::UInt(zombieland_core::scenario::current().shards_for(RACKS) as u64),
        ),
        ("hours".to_string(), Value::UInt(HOURS)),
        ("events_per_call".to_string(), Value::UInt(events)),
        ("passes".to_string(), Value::UInt(passes.len() as u64)),
        (
            "pass_call_s".to_string(),
            Value::Array(
                passes
                    .iter()
                    .map(|p| Value::Array(p.calls.iter().map(|c| Value::Float(c.secs)).collect()))
                    .collect(),
            ),
        ),
    ];
    let rate: Vec<f64> = plain.iter().map(|p| p.events() as f64 / p.secs()).collect();
    Outcome {
        tally,
        metrics,
        params,
        ungated: report::ungated(Metric::median_of("", &rate, "1/s"), &call_us),
    }
}
