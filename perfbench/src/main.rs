//! `zlbench`: the repository benchmark.
//!
//! ```text
//! zlbench --workload <fleet|paging|ctrl-rack|ctrl-fleet> --seed <n>
//!         --seconds <s> --trace <0|1> [--out FILE] [--print-pins]
//! ```
//!
//! Each workload drives one program of the repository through its
//! public functions: the fleet simulator, the hypervisor paging engine,
//! or a live `zombied` over a Unix socket. With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it records a span
//! around every call into a layer and reports the per-layer metrics.
//! Every number is labelled as measured host time or modeled sim time.
//! The last line of standard output is the JSON summary
//! `{"correct", "attempted", "failed", "metrics"}`; `--out` also writes a
//! detailed record (spreads, sample counts, the layer table, failures).

mod ctrl;
mod fleet;
mod paging;
mod pins;
mod report;
mod spans;

use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use zombieland_trace::json::Value;

use report::{Metric, Outcome};
use spans::Tracer;

/// The seed the pinned outputs belong to. Any other seed runs the same
/// workloads with only the seed-independent checks.
pub const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 4] = ["fleet", "paging", "ctrl-rack", "ctrl-fleet"];

/// End-to-end metrics, in `BENCHMARK.json` order; every untraced run
/// reports all of them. What one unit of work is depends on the
/// workload: a simulated trace event (`fleet`), a guest access
/// (`paging`) or a control-plane request (`ctrl-*`) for the throughput;
/// one call into the program for the latencies: a `simulate` call, a
/// `run_ops` call, or a request's round trip over the socket.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_best_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A traced run reports
/// all of them; a layer its workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.generate_s", "s"),
    ("simulator.simulate_s.alwayson", "s"),
    ("simulator.simulate_s.zombiestack", "s"),
    ("simulator.simulate_s.zombiestack_modified", "s"),
    ("simulator.simulate_s.crew", "s"),
    ("simulator.crew_speedup", "ratio"),
    ("simulator.ns_per_event", "ns"),
    ("simulator.setup_self_s", "s"),
    ("simulator.arrivals_self_s", "s"),
    ("simulator.departures_self_s", "s"),
    ("simulator.consolidation_self_s", "s"),
    ("simulator.wakeups_self_s", "s"),
    ("simulator.shard_round_self_s", "s"),
    ("simulator.alwayson_consolidation_self_s", "s"),
    ("simulator.alwayson_wakeups_self_s", "s"),
    ("simulator.events", "count"),
    ("simulator.migrations", "count"),
    ("simulator.wakeups", "count"),
    ("simulator.peak_queue", "count"),
    ("simulator.placement_fallback_ratio", "ratio"),
    ("hypervisor.run_ops_s", "s"),
    ("hypervisor.ns_per_access", "ns"),
    ("hypervisor.fault_batch_self_s", "s"),
    ("hypervisor.setup_self_s", "s"),
    ("hypervisor.remote_faults", "count"),
    ("hypervisor.demotions", "count"),
    ("hypervisor.dirty_demotion_ratio", "ratio"),
    ("rdma.reads", "count"),
    ("rdma.reads_per_batch", "ratio"),
    ("core.rack_setup_s", "s"),
    ("core.codec_encode_ns", "ns"),
    ("core.codec_decode_ns", "ns"),
    ("core.codec_encode_response_ns", "ns"),
    ("core.codec_decode_response_ns", "ns"),
    ("daemon.boot_s", "s"),
    ("daemon.apply_ns.gs_alloc_swap.p50", "ns"),
    ("daemon.apply_ns.gs_alloc_swap.p99", "ns"),
    ("daemon.apply_ns.gs_alloc_ext.p50", "ns"),
    ("daemon.apply_ns.gs_alloc_ext.p99", "ns"),
    ("daemon.apply_ns.gs_goto_zombie.p50", "ns"),
    ("daemon.apply_ns.gs_goto_zombie.p99", "ns"),
    ("daemon.apply_ns.gs_reclaim.p50", "ns"),
    ("daemon.apply_ns.gs_reclaim.p99", "ns"),
    ("daemon.apply_ns.as_get_free_mem.p50", "ns"),
    ("daemon.apply_ns.as_get_free_mem.p99", "ns"),
    ("daemon.apply_ns.gs_get_lru_zombie.p50", "ns"),
    ("daemon.apply_ns.gs_get_lru_zombie.p99", "ns"),
    ("daemon.apply_ns.us_reclaim.p50", "ns"),
    ("daemon.apply_ns.us_reclaim.p99", "ns"),
    ("daemon.framing_ns", "ns"),
    ("daemon.transport_ns", "ns"),
    ("daemon.typed_error_ratio", "ratio"),
    ("daemon.pool_free_buffers", "count"),
    ("daemon.pool_zombies", "count"),
    ("daemon.client_send_self_ns", "ns"),
    ("daemon.client_recv_self_ns", "ns"),
    ("bench.throughput_per_s", "1/s"),
    ("bench.call_p50_us", "us"),
    ("bench.call_p99_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.uncovered_pct", "%"),
    ("bench.traced_wall_s", "s"),
    ("bench.wall_s", "s"),
    ("bench.spans", "count"),
];

/// Spans that only group others: a traced pass and the in-process block
/// of a traced ctrl run. Their self time, with the root's, is the traced
/// wall time no layer span covers.
const WRAPPERS: [&str; 2] = ["bench.pass", "bench.in_process"];
/// The span around a pass whose calls are not traced.
const UNTRACED_PASS: &str = "bench.untraced_pass";

/// What a pass is for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PassKind {
    /// The first pass of a run: checked, never timed.
    #[default]
    Warmup,
    /// Timed with tracing off.
    Untraced,
    /// Timed with spans, profile phases and counters on.
    Traced,
}

/// What every workload needs from the command line.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Arc<Tracer>,
    /// Whether `seed` is the one the pins belong to.
    pub pinned: bool,
    pub print_pins: bool,
    pub nproc: usize,
    pub out_dir: PathBuf,
    /// Set when some pass could not reset the peak resident set, so
    /// `peak_rss_mib` is the process's lifetime peak.
    pub rss_lifetime: Cell<bool>,
}

impl Ctx {
    /// Passes a run makes at least, whatever `--seconds` says: the
    /// warm-up, then enough for a median, and in a traced run at least two
    /// untraced and two traced passes to price the tracing.
    pub fn min_passes(&self) -> usize {
        if self.tracer.on() {
            5
        } else {
            4
        }
    }

    /// Whether pass `done` should run, `started` being when the first
    /// one did.
    pub fn more_passes(&self, done: usize, started: Instant) -> bool {
        done < self.min_passes() || started.elapsed().as_secs_f64() < self.seconds
    }

    /// Runs pass `i` through `f(recorder, traced)` and returns its result
    /// with its kind and its peak resident set in MiB.
    ///
    /// Pass 0 warms caches and lazily built state up and is left out of
    /// every timing. After it a traced run alternates untraced and traced
    /// passes, so the pair gives `obs.trace_overhead_pct`. Every pass sits
    /// in a span of its own, so an untraced pass of a traced run still
    /// counts as covered wall time; spans inside it are recorded only when
    /// it is traced.
    pub fn pass<T>(
        &self,
        sp: &mut spans::Local,
        i: usize,
        f: impl FnOnce(&mut spans::Local, bool) -> T,
    ) -> (T, PassKind, f64) {
        let kind = match i {
            0 => PassKind::Warmup,
            _ if self.tracer.on() && i.is_multiple_of(2) => PassKind::Traced,
            _ => PassKind::Untraced,
        };
        let traced = kind == PassKind::Traced;
        let span = sp.open(if traced { WRAPPERS[0] } else { UNTRACED_PASS }, 0);
        sp.set_enabled(traced);
        if !report::reset_peak_rss() {
            self.rss_lifetime.set(true);
        }
        let out = f(sp, traced);
        let rss = report::peak_rss_mib();
        sp.set_enabled(true);
        sp.close(span);
        (out, kind, rss)
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut print_pins = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|k| **k == w)
                        .ok_or(format!("unknown workload {w:?}; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, got {t:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--print-pins" => print_pins = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
        print_pins,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zlbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = args
        .out
        .as_ref()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        pinned: args.seed == DEFAULT_SEED,
        print_pins: args.print_pins,
        nproc: zombieland_simcore::available_jobs(),
        out_dir,
        rss_lifetime: Cell::new(false),
    };
    let started = Instant::now();
    let mut outcome = match ctx.workload {
        "fleet" => fleet::run(&ctx),
        "paging" => paging::run(&ctx),
        "ctrl-rack" => ctrl::run(&ctx, ctrl::RACK),
        "ctrl-fleet" => ctrl::run(&ctx, ctrl::FLEET),
        _ => unreachable!("parse_args only accepts known workloads"),
    };
    let wall_s = started.elapsed().as_secs_f64();
    if ctx.rss_lifetime.get() {
        eprintln!("zlbench: {}", report::LIFETIME_RSS);
        for m in &mut outcome.metrics {
            if m.name == "peak_rss_mib" {
                m.note = Some(report::LIFETIME_RSS);
            }
        }
    }

    let mut layers = Value::Null;
    if ctx.tracer.on() {
        let ungated = std::mem::take(&mut outcome.ungated);
        outcome.metrics.extend(ungated);
        let spans = ctx.tracer.take();
        let (table, extra) = layer_table(&spans, wall_s);
        layers = table;
        outcome.metrics.extend(extra);
        let path = ctx
            .out_dir
            .join(format!("spans-{}-s{}.csv", ctx.workload, ctx.seed));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = spans::write_csv(&path, &spans) {
            eprintln!("zlbench: writing {}: {e}", path.display());
        }
    }
    let declared = if ctx.tracer.on() {
        PER_LAYER
    } else {
        END_TO_END
    };
    if let Err(e) = conform(&mut outcome.metrics, declared, ctx.tracer.on()) {
        eprintln!("zlbench: {e}");
        return ExitCode::FAILURE;
    }

    emit(&ctx, &args, &outcome, layers, wall_s);
    ExitCode::SUCCESS
}

/// Puts `metrics` in the declared order and checks them against the
/// declaration: same names, same units. With `fill`, a declared metric
/// the workload did not produce — a layer it never calls — reads 0.
fn conform(
    metrics: &mut Vec<Metric>,
    declared: &'static [(&'static str, &'static str)],
    fill: bool,
) -> Result<(), String> {
    for m in metrics.iter() {
        match declared.iter().find(|(n, _)| *n == m.name) {
            None => return Err(format!("metric {} is not declared", m.name)),
            Some((_, unit)) if *unit != m.unit => {
                return Err(format!(
                    "metric {} has unit {}, declared {unit}",
                    m.name, m.unit
                ))
            }
            Some(_) => {}
        }
    }
    for &(name, unit) in declared {
        if !metrics.iter().any(|m| m.name == name) {
            if !fill {
                return Err(format!("metric {name} was not measured"));
            }
            metrics.push(Metric {
                kind: report::Kind::NotRun,
                ..Metric::measured(name, 0.0, unit).with_samples(0)
            });
        }
    }
    metrics.sort_by_key(|m| declared.iter().position(|(n, _)| *n == m.name));
    Ok(())
}

/// Per-layer self times from the span set, plus the coverage metrics.
fn layer_table(spans: &[spans::Span], wall_s: f64) -> (Value, Vec<Metric>) {
    let times = spans::self_times(spans);
    let roots: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.name)
        .collect();
    let root_ns: u64 = roots.iter().map(|n| times[n].total_ns).sum();
    // Untraced passes are not looked into; coverage is judged on the
    // rest of the wall time.
    let untraced_ns = times.get(UNTRACED_PASS).map_or(0, |t| t.total_ns);
    let traced_ns = root_ns.saturating_sub(untraced_ns).max(1);
    let uncovered_ns: u64 = times
        .iter()
        .filter(|(n, _)| roots.contains(*n) || WRAPPERS.contains(n))
        .map(|(_, t)| t.self_ns)
        .sum();
    let mut rows = Vec::new();
    for (name, t) in &times {
        rows.push(Value::Object(vec![
            ("span".into(), Value::Str((*name).into())),
            ("count".into(), Value::UInt(t.count)),
            ("total_s".into(), Value::Float(t.total_ns as f64 / 1e9)),
            ("self_s".into(), Value::Float(t.self_ns as f64 / 1e9)),
            (
                "self_share_of_traced".into(),
                Value::Float(t.self_ns as f64 / traced_ns as f64),
            ),
        ]));
    }
    let metrics = vec![
        Metric::measured(
            "obs.uncovered_pct",
            uncovered_ns as f64 / traced_ns as f64 * 100.0,
            "%",
        ),
        Metric::measured("bench.traced_wall_s", traced_ns as f64 / 1e9, "s"),
        Metric::measured("bench.wall_s", wall_s, "s"),
        Metric::modeled("bench.spans", spans.len() as f64, "count"),
    ];
    (Value::Array(rows), metrics)
}

/// What an end-to-end metric measures on one workload, by the name the
/// workload's own documents use for it.
fn alias(workload: &str, metric: &str) -> Option<&'static str> {
    let ctrl = workload.starts_with("ctrl");
    Some(match (metric, workload) {
        ("bench.throughput_per_s", "fleet") => "sim_events_per_s",
        ("bench.throughput_per_s", "paging") => "paging_accesses_per_s",
        ("bench.throughput_per_s", _) if ctrl => "ctrl_rps",
        ("latency_best_us", _) if ctrl => "ctrl_rtt_best_us",
        ("bench.call_p50_us", _) if ctrl => "ctrl_rtt_p50_us",
        ("bench.call_p99_us", _) if ctrl => "ctrl_rtt_p99_us",
        ("latency_best_us", "fleet") => "simulate_call_best_us",
        ("bench.call_p50_us", "fleet") => "simulate_call_p50_us",
        ("bench.call_p99_us", "fleet") => "simulate_call_p99_us",
        ("latency_best_us", "paging") => "run_ops_call_best_us",
        ("bench.call_p50_us", "paging") => "run_ops_call_p50_us",
        ("bench.call_p99_us", "paging") => "run_ops_call_p99_us",
        _ => return None,
    })
}

fn emit(ctx: &Ctx, args: &Args, outcome: &Outcome, layers: Value, wall_s: f64) {
    let t = &outcome.tally;
    for note in &t.notes {
        println!("FAILED {note}");
    }
    let gated = outcome.metrics.iter().map(|m| (m, ""));
    for (m, note) in gated.chain(outcome.ungated.iter().map(|m| (m, "; not gated"))) {
        let mut spread = m
            .spread
            .map(|s| format!(", iqr/median {:.1}%", s * 100.0))
            .unwrap_or_default();
        if let Some(med) = m.median {
            spread += &format!(", median {med:.4}");
        }
        if let Some(n) = m.note {
            spread += &format!("; {n}");
        }
        let name = match alias(ctx.workload, &m.name) {
            Some(a) => format!("{a} ({})", m.name),
            None => m.name.clone(),
        };
        println!(
            "{:<44} {:>16.4} {:<6} [{}; n={}{}{}]",
            name,
            m.value,
            m.unit,
            m.kind.label(),
            m.samples,
            spread,
            note
        );
    }
    let correct = t.failed == 0;
    if let Some(path) = &args.out {
        let record = Value::Object(vec![
            ("workload".into(), Value::Str(ctx.workload.into())),
            ("seed".into(), Value::UInt(ctx.seed)),
            ("pinned".into(), Value::Bool(ctx.pinned)),
            ("trace".into(), Value::Bool(ctx.tracer.on())),
            ("seconds".into(), Value::Float(ctx.seconds)),
            ("wall_s".into(), Value::Float(wall_s)),
            ("nproc".into(), Value::UInt(ctx.nproc as u64)),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(t.attempted)),
            ("failed".into(), Value::UInt(t.failed)),
            (
                "failures".into(),
                Value::Array(t.notes.iter().map(|n| Value::Str(n.clone())).collect()),
            ),
            ("params".into(), Value::Object(outcome.params.clone())),
            (
                "metrics".into(),
                Value::Object(
                    outcome
                        .metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
            (
                "ungated".into(),
                Value::Object(
                    outcome
                        .ungated
                        .iter()
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
            ("layers".into(), layers),
        ]);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, record.pretty()) {
            eprintln!("zlbench: writing {}: {e}", path.display());
        }
    }
    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(t.attempted)),
        ("failed".into(), Value::UInt(t.failed)),
        (
            "metrics".into(),
            Value::Object(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Value::Object(vec![
                                ("value".into(), Value::Float(m.value)),
                                ("unit".into(), Value::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", summary.compact());
}

#[cfg(test)]
mod tests {
    use super::*;
    use zombieland_trace::json;

    fn declared(bench: &Value, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |k| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key} entry field {k}: {other:?}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let bench = json::parse(text).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&bench, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&bench, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = bench
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("workload name {other:?}"),
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn conform_orders_fills_and_rejects() {
        let mut ms = vec![Metric::measured("b", 1.0, "s")];
        conform(&mut ms, &[("a", "s"), ("b", "s")], true).unwrap();
        assert_eq!(
            ms.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert_eq!(ms[0].value, 0.0);
        let mut ms = vec![Metric::measured("b", 1.0, "s")];
        assert!(conform(&mut ms, &[("a", "s"), ("b", "s")], false).is_err());
        let mut ms = vec![Metric::measured("c", 1.0, "s")];
        assert!(conform(&mut ms, &[("c", "ns")], true).is_err());
    }
}
