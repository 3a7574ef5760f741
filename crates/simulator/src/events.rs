//! The event loop: streaming trace replay, consolidation ticks,
//! timeline sampling.
//!
//! The loop never materializes the trace's event list. It pulls
//! chronologically ordered events from [`ClusterTrace::event_stream`] in
//! fixed-size chunks and merges the single self-rescheduling
//! consolidation tick into the stream by comparison: the tick fires
//! whenever it is strictly earlier than the next trace event, and trace
//! events win ties. That is exactly the order the old materialized queue
//! produced — events were scheduled before the tick, so its FIFO
//! tie-break fired them first at equal instants — which keeps every
//! report byte-identical while holding resident event storage at
//! [`EVENT_CHUNK`] entries instead of the full 29-day list.

use zombieland_obs::profile;
use zombieland_simcore::SimTime;
use zombieland_trace::google::{ClusterTrace, EventKind};

use crate::dc::Dc;
use crate::report::{SimReport, TimelineSample};
use crate::SimConfig;

/// Events pulled from the stream per refill. Small enough that the
/// buffer is megabytes at most (the full-scale trace would need
/// gigabytes materialized), large enough to amortize refill overhead.
pub const EVENT_CHUNK: usize = 1 << 16;

/// Fires one consolidation tick at `now` and returns the next tick
/// time, if it falls within the trace.
fn tick(
    dc: &mut Dc,
    trace: &ClusterTrace,
    cfg: &SimConfig,
    now: SimTime,
    end: SimTime,
    next_sample: &mut SimTime,
) -> Option<SimTime> {
    dc.advance(now);
    if cfg.policy.consolidation.enabled() {
        let _span = profile::span(profile::Phase::Consolidation);
        dc.consolidate(trace);
    }
    if let Some(every) = cfg.sample_interval {
        if *next_sample <= now {
            let _span = profile::span(profile::Phase::Sampling);
            dc.report.timeline.push(TimelineSample {
                at: now,
                counts: dc.state_counts,
                power: dc.total_power,
            });
            let mw = (dc.total_power.get() * 1000.0).round() as u64;
            zombieland_obs::sink::gauge_set("sim.power_mw", mw);
            zombieland_obs::trace_event!(now, "simulator", "sample",
                "active" => dc.state_counts[0],
                "zombie" => dc.state_counts[1],
                "sleeping" => dc.state_counts[2],
                "power_mw" => mw);
            *next_sample = now + every;
        }
    }
    let next = now + cfg.consolidation_interval;
    (next <= end).then_some(next)
}

/// Runs one policy over a trace.
///
/// # Panics
///
/// Panics if `cfg` is invalid (see [`SimConfig::validate`]) — a zero
/// `racks` would silently corrupt the run and a zero
/// `consolidation_interval` would never finish, so both are rejected
/// up front instead of clamped at each use site.
pub fn simulate(trace: &ClusterTrace, cfg: &SimConfig) -> SimReport {
    if let Err(e) = cfg.validate() {
        panic!("invalid SimConfig: {e}");
    }
    let setup = profile::span(profile::Phase::SimSetup);
    let mut dc = Dc::new(trace, cfg);
    let end = SimTime::ZERO + trace.config().duration;
    let mut stream = trace.event_stream();
    let mut buf = Vec::with_capacity(EVENT_CHUNK.min(trace.events_len()));
    let first_tick = SimTime::ZERO + cfg.consolidation_interval;
    let mut next_tick = (first_tick <= end).then_some(first_tick);
    drop(setup);

    let mut next_sample = SimTime::ZERO;
    let mut processed = 0u64;
    let mut peak_queue = 0u64;
    loop {
        buf.clear();
        buf.extend(stream.by_ref().take(EVENT_CHUNK));
        if buf.is_empty() {
            break;
        }
        // The streaming-memory contract: no more than one chunk of the
        // trace is ever resident (+1 for the in-flight tick). Checked
        // under ZL_VALIDATE so a regression to full materialization
        // trips loudly instead of silently re-growing the footprint.
        if dc.validate_on {
            assert!(buf.len() <= EVENT_CHUNK, "event buffer exceeds one chunk");
        }
        peak_queue = peak_queue.max(buf.len() as u64 + 1);
        for &(at, kind, task) in &buf {
            while let Some(t) = next_tick {
                if t >= at {
                    break;
                }
                next_tick = tick(&mut dc, trace, cfg, t, end, &mut next_sample);
            }
            dc.advance(at);
            match kind {
                EventKind::Arrive => {
                    let _span = profile::span(profile::Phase::Arrivals);
                    dc.arrive(trace, task);
                }
                EventKind::Depart => {
                    let _span = profile::span(profile::Phase::Departures);
                    dc.depart(trace, task);
                }
            }
            processed += 1;
        }
    }
    // Ticks scheduled past the last trace event still fire (state
    // transitions and samples continue to the end of the trace).
    while let Some(t) = next_tick {
        next_tick = tick(&mut dc, trace, cfg, t, end, &mut next_sample);
    }
    dc.advance(end);
    dc.report.energy = dc.energy;
    dc.report.events = processed;
    dc.report.peak_queue = peak_queue;
    if zombieland_obs::sink::metrics_enabled() {
        let r = &dc.report;
        zombieland_obs::sink::gauge_set("sim.energy_mj", (r.energy.get() * 1000.0).round() as u64);
        zombieland_obs::sink::counter_add("sim.runs", 1);
        zombieland_obs::trace_event!(dc.last, "simulator", "run_done",
            "policy" => r.policy,
            "energy_mj" => (r.energy.get() * 1000.0).round() as u64,
            "migrations" => r.migrations,
            "wakeups" => r.wakeups,
            "dropped" => r.dropped,
            "overcommitted" => r.overcommitted);
    }
    dc.report
}
