//! Live telemetry: sharded registries merged on scrape, plus a
//! Prometheus-style text exposition encoder and parser.
//!
//! The deterministic metric registry ([`crate::metrics`]) captures one
//! *run* and is exported after the run exits. A serving process —
//! `zombied` — needs the opposite: metrics that accumulate *while*
//! requests are in flight and can be read at any moment without
//! stopping the world. [`Telemetry`] provides that as a fixed set of
//! shards, each a [`MetricRegistry`] behind its own mutex. Every
//! connection (or worker thread) takes a [`TelemetryHandle`] bound to
//! one shard — round-robin over the shard set — so concurrent recorders
//! almost never contend, and a scrape merges all shards through the
//! existing order-independent [`MetricRegistry::merge`].
//!
//! Telemetry is **wall-clock-side** state: it lives next to sockets and
//! threads, never inside the simulation. The deterministic sim-time
//! registry and its byte-identical export contracts are untouched —
//! nothing here is reachable from an `observe` scope.
//!
//! [`expose`] renders a registry as Prometheus-style text (`# TYPE`
//! lines, one sample per line, stable sort order, std-only);
//! [`parse_exposition`] reads that text back into a [`Snapshot`] so
//! clients like `zlctl top` can diff consecutive scrapes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{Histogram, MetricRegistry, HIST_BUCKETS};

/// Default shard count for a serving process: enough that a handful of
/// connection threads rarely share a shard, small enough that a scrape
/// stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// A set of independently lockable metric shards.
pub struct Telemetry {
    shards: Vec<Mutex<MetricRegistry>>,
    next: AtomicUsize,
}

impl Telemetry {
    /// Creates a telemetry set with `shards` shards (at least one).
    pub fn new(shards: usize) -> Telemetry {
        Telemetry {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(MetricRegistry::new()))
                .collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Hands out a recorder bound to the next shard (round-robin), so
    /// per-connection recorders spread across the shard set.
    pub fn handle(self: &Arc<Self>) -> TelemetryHandle {
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        TelemetryHandle {
            telemetry: Arc::clone(self),
            shard,
        }
    }

    /// Merges every shard into one registry. Shard merge order is
    /// irrelevant ([`MetricRegistry::merge`] is commutative), so a
    /// scrape taken while other threads record is a valid point-in-time
    /// aggregate: each shard is locked once, counters only grow.
    pub fn scrape(&self) -> MetricRegistry {
        let mut merged = MetricRegistry::new();
        for shard in &self.shards {
            merged.merge(&shard.lock().expect("telemetry shard lock"));
        }
        merged
    }
}

/// A recorder bound to one shard of a [`Telemetry`] set.
pub struct TelemetryHandle {
    telemetry: Arc<Telemetry>,
    shard: usize,
}

impl TelemetryHandle {
    /// Runs `f` with the shard's registry locked — use to record a batch
    /// of related samples under one lock acquisition.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricRegistry) -> R) -> R {
        f(&mut self.telemetry.shards[self.shard]
            .lock()
            .expect("telemetry shard lock"))
    }

    /// Adds `v` to a counter on this handle's shard.
    pub fn counter_add(&self, name: &'static str, v: u64) {
        self.with(|reg| reg.counter_add(name, v));
    }

    /// Records a gauge sample on this handle's shard.
    pub fn gauge_set(&self, name: &'static str, v: u64) {
        self.with(|reg| reg.gauge_set(name, v));
    }

    /// Records a histogram sample on this handle's shard.
    pub fn hist_record(&self, name: &'static str, v: u64) {
        self.with(|reg| reg.hist_record(name, v));
    }

    /// The telemetry set this handle records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }
}

/// A wall-clock stopwatch for *measured* service times, as opposed to
/// the modeled sim-time durations a response carries. Serving code takes
/// its timestamps here so the host clock stays inside this module.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Wall-clock nanoseconds since [`Stopwatch::start`] (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Maps a metric name to its exposition spelling: `[a-zA-Z0-9_:]` pass
/// through, everything else (the registry's `.` separators) becomes `_`.
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Formats a gauge value: integral means print as an integer, otherwise
/// three decimals — stable, locale-free output.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Renders a registry as Prometheus-style exposition text.
///
/// Families appear counters-first, then gauges, then histograms, each
/// block alphabetical (the registry's `BTreeMap` order) — so two scrapes
/// of the same state are byte-identical. Counters and gauges are one
/// sample each (gauges expose the mean of their recorded samples);
/// histograms expose cumulative `_bucket{le="..."}` lines at the log₂
/// bucket upper edges, a `+Inf` bucket, `_sum` and `_count`.
pub fn expose(reg: &MetricRegistry) -> String {
    let mut out = String::new();
    for (name, v) in reg.counters() {
        let n = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, g) in reg.gauges() {
        let n = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", fmt_value(g.mean()));
    }
    for (name, h) in reg.histograms() {
        let n = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let top = HIST_BUCKETS - h.buckets.iter().rev().take_while(|&&c| c == 0).count();
        let mut cum = 0u64;
        for (i, &c) in h.buckets[..top].iter().enumerate() {
            cum += c;
            let le = ((1u128 << i) - 1) as u64;
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out
}

/// A histogram read back from exposition text: cumulative counts at the
/// emitted bucket edges (the `+Inf` bucket is folded into `count`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// `(upper_edge, cumulative_count)` in emission order.
    pub cum: Vec<(u64, u64)>,
    /// Sum of all samples.
    pub sum: u64,
    /// Total samples.
    pub count: u64,
}

impl HistSnapshot {
    /// The `q`-quantile resolved to its bucket's upper edge (`None` when
    /// empty) — the same resolution [`Histogram::quantile`] gives.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        for &(le, cum) in &self.cum {
            if cum >= rank {
                return Some(le);
            }
        }
        Some(u64::MAX)
    }

    /// The samples recorded since `prev` (an earlier scrape of the same
    /// histogram): cumulative counts subtract edge-wise. For an edge
    /// above `prev`'s highest emitted bucket, `prev`'s cumulative count
    /// is its total (a CDF saturates), not zero — otherwise old samples
    /// would reappear in the delta at every higher edge.
    pub fn since(&self, prev: &HistSnapshot) -> HistSnapshot {
        let before: BTreeMap<u64, u64> = prev.cum.iter().copied().collect();
        let at = |le: u64| before.range(..=le).next_back().map_or(0, |(_, &c)| c);
        let mut cum = Vec::with_capacity(self.cum.len());
        for &(le, c) in &self.cum {
            cum.push((le, c.saturating_sub(at(le))));
        }
        HistSnapshot {
            cum,
            sum: self.sum.wrapping_sub(prev.sum),
            count: self.count.saturating_sub(prev.count),
        }
    }
}

/// One parsed scrape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter samples by exposition name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge samples by exposition name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by exposition (family) name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Sum of every counter whose exposition name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }
}

/// Parses exposition text (the [`expose`] format) back into a
/// [`Snapshot`]. Unknown or malformed lines are errors — a scrape is
/// machine-generated, so anything unexpected means a damaged transport.
pub fn parse_exposition(text: &str) -> Result<Snapshot, String> {
    let mut snap = Snapshot::default();
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        let err = |what: &str| format!("line {}: {what}: {line:?}", ln + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next(), it.next());
            match (name, kind) {
                (Some(n), Some(k)) => {
                    kinds.insert(n.to_string(), k.to_string());
                }
                _ => return Err(err("malformed TYPE line")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // A HELP or comment line: ignorable by spec.
        }
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("sample without a value"))?;
        if let Some((family, rest)) = key.split_once("_bucket{le=\"") {
            let le_str = rest
                .strip_suffix("\"}")
                .ok_or_else(|| err("malformed bucket label"))?;
            let cum: u64 = value.parse().map_err(|_| err("bad bucket count"))?;
            let hist = snap.histograms.entry(family.to_string()).or_default();
            if le_str == "+Inf" {
                hist.count = hist.count.max(cum);
            } else {
                let le: u64 = le_str.parse().map_err(|_| err("bad bucket edge"))?;
                hist.cum.push((le, cum));
            }
            continue;
        }
        if let Some(family) = key.strip_suffix("_sum") {
            if kinds.get(family).map(String::as_str) == Some("histogram") {
                snap.histograms.entry(family.to_string()).or_default().sum =
                    value.parse().map_err(|_| err("bad histogram sum"))?;
                continue;
            }
        }
        if let Some(family) = key.strip_suffix("_count") {
            if kinds.get(family).map(String::as_str) == Some("histogram") {
                snap.histograms.entry(family.to_string()).or_default().count =
                    value.parse().map_err(|_| err("bad histogram count"))?;
                continue;
            }
        }
        match kinds.get(key).map(String::as_str) {
            Some("counter") => {
                snap.counters.insert(
                    key.to_string(),
                    value.parse().map_err(|_| err("bad counter value"))?,
                );
            }
            Some("gauge") => {
                snap.gauges.insert(
                    key.to_string(),
                    value.parse().map_err(|_| err("bad gauge value"))?,
                );
            }
            Some(_) | None => return Err(err("sample without a TYPE declaration")),
        }
    }
    Ok(snap)
}

/// Converts an in-process [`Histogram`] to the snapshot form (test and
/// tooling convenience — what [`parse_exposition`] would yield).
pub fn hist_snapshot(h: &Histogram) -> HistSnapshot {
    let top = HIST_BUCKETS - h.buckets.iter().rev().take_while(|&&c| c == 0).count();
    let mut cum = Vec::with_capacity(top);
    let mut running = 0u64;
    for (i, &c) in h.buckets[..top].iter().enumerate() {
        running += c;
        cum.push((((1u128 << i) - 1) as u64, running));
    }
    HistSnapshot {
        cum,
        sum: h.sum,
        count: h.count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricRegistry {
        let mut r = MetricRegistry::new();
        r.counter_add("zombied.op.gs_alloc_ext", 3);
        r.counter_add("zombied.op.gs_reclaim", 2);
        r.gauge_set("zombied.pool.free_buffers", 40);
        r.gauge_set("zombied.pool.free_buffers", 41);
        for v in [0, 1, 900, 900, 1_000_000] {
            r.hist_record("zombied.decision_ns", v);
        }
        r
    }

    #[test]
    fn exposition_is_stable_and_typed() {
        let text = expose(&sample_registry());
        assert_eq!(text, expose(&sample_registry()), "byte-stable");
        assert!(text.contains("# TYPE zombied_op_gs_alloc_ext counter"));
        assert!(text.contains("zombied_op_gs_alloc_ext 3"));
        assert!(text.contains("# TYPE zombied_pool_free_buffers gauge"));
        assert!(text.contains("zombied_pool_free_buffers 40.5"));
        assert!(text.contains("# TYPE zombied_decision_ns histogram"));
        assert!(text.contains("zombied_decision_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("zombied_decision_ns_count 5"));
        // Counter block precedes gauges precedes histograms.
        let c = text.find("counter").unwrap();
        let g = text.find("gauge").unwrap();
        let h = text.find("histogram").unwrap();
        assert!(c < g && g < h);
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let reg = sample_registry();
        let snap = parse_exposition(&expose(&reg)).unwrap();
        assert_eq!(snap.counters["zombied_op_gs_alloc_ext"], 3);
        assert_eq!(snap.counter_sum("zombied_op_"), 5);
        assert_eq!(snap.gauges["zombied_pool_free_buffers"], 40.5);
        let h = &snap.histograms["zombied_decision_ns"];
        assert_eq!(h.count, 5);
        assert_eq!(
            h.quantile(0.5),
            reg.histogram("zombied.decision_ns").unwrap().quantile(0.5)
        );
        assert_eq!(
            h.quantile(0.99),
            reg.histogram("zombied.decision_ns").unwrap().quantile(0.99)
        );
        assert_eq!(
            h,
            &hist_snapshot(reg.histogram("zombied.decision_ns").unwrap())
        );
    }

    #[test]
    fn parser_rejects_damage() {
        assert!(parse_exposition("no_type_line 4").is_err());
        assert!(parse_exposition("# TYPE x counter\nx notanumber").is_err());
        assert!(parse_exposition("# TYPE x histogram\nx_bucket{le=\"oops\"} 1").is_err());
        assert!(parse_exposition("").is_ok());
    }

    #[test]
    fn hist_delta_isolates_new_samples() {
        let mut reg = MetricRegistry::new();
        // First window: 10 fast samples.
        for _ in 0..10 {
            reg.hist_record("x", 100);
        }
        let first = hist_snapshot(reg.histogram("x").unwrap());
        for _ in 0..5 {
            reg.hist_record("x", 1_000_000);
        }
        let second = hist_snapshot(reg.histogram("x").unwrap());
        let delta = second.since(&first);
        assert_eq!(delta.count, 5);
        // Every sample in the window is slow; the window's p50 must be
        // the slow edge even though the all-time p50 is still fast.
        assert_eq!(delta.quantile(0.5), Some((1u64 << 20) - 1));
        assert_eq!(second.quantile(0.5), Some(127));
    }

    #[test]
    fn sharded_scrape_merges_like_a_single_registry() {
        let t = Arc::new(Telemetry::new(4));
        let handles: Vec<TelemetryHandle> = (0..8).map(|_| t.handle()).collect();
        for (i, h) in handles.iter().enumerate() {
            h.counter_add("ops", 1);
            h.hist_record("lat", (i as u64 + 1) * 100);
        }
        let merged = t.scrape();
        assert_eq!(merged.counter("ops"), 8);
        assert_eq!(merged.histogram("lat").unwrap().count, 8);
        // Scrape again: nothing double-counts, scrape is a read.
        assert_eq!(t.scrape().counter("ops"), 8);
    }

    #[test]
    fn concurrent_recording_with_scrapes_keeps_counters_monotone() {
        let t = Arc::new(Telemetry::new(DEFAULT_SHARDS));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = t.handle();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        h.counter_add("ops", 1);
                    }
                });
            }
            let mut last = 0;
            for _ in 0..50 {
                let now = t.scrape().counter("ops");
                assert!(now >= last, "counter went backwards: {last} -> {now}");
                last = now;
            }
        });
        assert_eq!(t.scrape().counter("ops"), 4_000);
    }
}
