//! The `ctrl-rack` and `ctrl-fleet` workloads: a live `zombied`.
//!
//! Each round boots a fresh `ClusterModel`, binds a `Daemon` on a Unix
//! socket in the output directory, and sends a fixed number of requests
//! from `nproc` client connections, closed loop, one request
//! outstanding on each. Throughput decays as the controller database
//! fills, so a round is a fixed request count, never a fixed duration;
//! rounds repeat until `--seconds` have passed. The request mix is the
//! replay's seven-op mix: 45 % allocations, 15 % goto-zombie, 15 %
//! reclaim, 25 % queries and user reclaims. Rounds cycle through
//! [`VARIANTS`] stream sets drawn from the seed, so each set is sent
//! several times per run.
//!
//! The traced run adds the in-process layer costs: the first stream set
//! replayed through `ClusterModel::apply` on a fresh model, the codec
//! over the stream's requests and responses, and framing on an
//! in-memory buffer. Whatever the round trip costs beyond those is the
//! socket, thread and mutex share (`daemon.transport_ns`).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

use zombieland_core::codec::{
    decode, decode_response, encode, encode_response, ErrorFrame, RackResponse, ResponseBody,
};
use zombieland_core::protocol::RackOp;
use zombieland_core::ServerId;
use zombieland_daemon::client::ZlClient;
use zombieland_daemon::framing::{read_frame, write_frame};
use zombieland_daemon::model::{ClusterModel, ModelConfig};
use zombieland_daemon::server::Daemon;
use zombieland_daemon::Endpoint;
use zombieland_mem::buffer::BufferId;
use zombieland_obs::profile;
use zombieland_obs::telemetry::parse_exposition;
use zombieland_simcore::{Bytes, DetRng};
use zombieland_trace::json::Value;

use crate::report::{self, median, mix_seed, percentile, Metric, Outcome, Tally};
use crate::spans::Local;
use crate::{Ctx, PassKind};

/// A control-plane workload's size.
#[derive(Clone, Copy)]
pub struct Scale {
    /// The workload's root span.
    pub span: &'static str,
    pub servers: u32,
    /// Requests per round, across all clients.
    pub requests: u64,
}

/// One paper rack: the controller database is tiny, so a request pays
/// mostly for framing, codec, the connection thread and the model lock.
pub const RACK: Scale = Scale {
    span: "bench.ctrl-rack",
    servers: 40,
    requests: 12_000,
};

/// A fleet-sized controller: the database's decision scans dominate,
/// and boot runs a 6-hour fleet simulation.
pub const FLEET: Scale = Scale {
    span: "bench.ctrl-fleet",
    servers: 2_000,
    requests: 1_500,
};

/// The daemon boots the same cluster on every seed; `--seed` varies the
/// request streams. The boot seed decides the initial zombie population
/// and so the database size every request scans.
const BOOT_SEED: u64 = 11;

/// The seven ops, in metric-name order.
const OPS: [&str; 7] = [
    "gs_alloc_swap",
    "gs_alloc_ext",
    "gs_goto_zombie",
    "gs_reclaim",
    "as_get_free_mem",
    "gs_get_lru_zombie",
    "us_reclaim",
];

fn op_index(op: &RackOp) -> usize {
    match op {
        RackOp::AllocSwap { .. } => 0,
        RackOp::AllocExt { .. } => 1,
        RackOp::GotoZombie { .. } => 2,
        RackOp::Reclaim { .. } => 3,
        RackOp::AsGetFreeMem { .. } => 4,
        RackOp::GetLruZombie => 5,
        RackOp::UsReclaim { .. } => 6,
    }
}

/// One request of the mix: the generator of `zombied`'s own replay
/// client (`daemon::replay`), copied exactly because it is private there.
fn gen_op(rng: &mut DetRng, servers: u32) -> RackOp {
    let host = ServerId::new(rng.below(servers as u64) as u32);
    match rng.below(100) {
        0..=24 => RackOp::AllocSwap {
            user: host,
            mem_size: Bytes::mib(rng.range(64, 512)),
        },
        25..=44 => RackOp::AllocExt {
            user: host,
            mem_size: Bytes::mib(rng.range(64, 256)),
        },
        45..=59 => RackOp::GotoZombie {
            host,
            buffers: rng.range(1, 8),
        },
        60..=74 => RackOp::Reclaim {
            host,
            nb_buffers: rng.range(1, 8),
        },
        75..=84 => RackOp::AsGetFreeMem { host },
        85..=92 => RackOp::GetLruZombie,
        _ => RackOp::UsReclaim {
            user: host,
            buff_ids: (0..rng.below(4))
                .map(|_| BufferId::new(rng.below(4096)))
                .collect(),
        },
    }
}

/// Op-stream sets a run cycles through, one per round. What a stream
/// costs the fleet-sized controller depends on the state it drives the
/// database into, which varies by about a fifth from one stream set to
/// the next; a run over several sets varies less from seed to seed.
const VARIANTS: usize = 4;

/// Per-client op streams of stream set `variant`: `requests` split over
/// `clients`, each stream seeded from the run's seed.
fn gen_streams(seed: u64, variant: usize, scale: Scale, clients: usize) -> Vec<Vec<RackOp>> {
    let seed = mix_seed(seed, 0x5e7 + variant as u64);
    (0..clients)
        .map(|c| {
            let share = scale.requests / clients as u64
                + u64::from((c as u64) < scale.requests % clients as u64);
            let mut rng = DetRng::new(mix_seed(seed, 0xc7 + c as u64));
            (0..share)
                .map(|_| gen_op(&mut rng, scale.servers))
                .collect()
        })
        .collect()
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    /// Requests in the client's stream.
    ops: usize,
    /// Round trip of each answered request, in stream order.
    rtt_ns: Vec<f64>,
    send_ns: Vec<f64>,
    recv_ns: Vec<f64>,
    answered: u64,
    typed_errors: u64,
    bad_requests: u64,
    /// Requests with no well-formed answer.
    lost: u64,
    first_error: Option<String>,
}

fn client_loop(
    endpoint: &Endpoint,
    ops: &[RackOp],
    barrier: &Barrier,
    sp: &mut Local,
    req_base: u64,
) -> ClientLog {
    let mut log = ClientLog {
        ops: ops.len(),
        ..ClientLog::default()
    };
    let connected = ZlClient::connect(endpoint);
    barrier.wait();
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            log.lost = ops.len() as u64;
            log.first_error = Some(format!("connect: {e}"));
            return log;
        }
    };
    for (i, op) in ops.iter().enumerate() {
        let req = req_base + i as u64;
        let t = Instant::now();
        let whole = sp.open("daemon.client.request", req);
        let s = sp.open("daemon.client.send", req);
        let sent = client.send(op).and_then(|()| client.flush());
        let send_ns = sp.close(s);
        let r = sp.open("daemon.client.recv", req);
        let answer = sent.and_then(|()| client.recv());
        let recv_ns = sp.close(r);
        sp.close(whole);
        let rtt = t.elapsed().as_nanos() as f64;
        match answer {
            Ok(resp) => {
                log.answered += 1;
                log.rtt_ns.push(rtt);
                if sp.enabled() {
                    log.send_ns.push(send_ns as f64);
                    log.recv_ns.push(recv_ns as f64);
                }
                match resp.body {
                    ResponseBody::Error(ErrorFrame::BadRequest { .. }) => log.bad_requests += 1,
                    ResponseBody::Error(_) => log.typed_errors += 1,
                    _ => {}
                }
            }
            Err(e) => {
                // The connection is no longer in step: every request
                // from here on goes unanswered.
                log.lost += (ops.len() - i) as u64;
                log.first_error = Some(e.to_string());
                break;
            }
        }
    }
    log
}

#[derive(Default)]
struct Round {
    kind: PassKind,
    /// The stream set the round sent.
    variant: usize,
    setup_s: f64,
    boot_s: f64,
    serve_s: f64,
    sent: u64,
    clients: Vec<ClientLog>,
    op_counter_sum: Option<u64>,
    free_buffers: f64,
    zombies: f64,
    boot_phases: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    rss_mib: f64,
}

impl Round {
    fn sum(&self, f: impl Fn(&ClientLog) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }
}

fn socket_path(ctx: &Ctx, round: usize) -> PathBuf {
    ctx.out_dir
        .join(format!("zl-{}-{round}.sock", std::process::id()))
}

fn run_round(ctx: &Ctx, scale: Scale, round: usize, sp: &mut Local, traced: bool) -> Round {
    let mut out = Round::default();
    let t = Instant::now();
    out.variant = round % VARIANTS;
    let streams = sp.span("bench.op_generate", || {
        gen_streams(ctx.seed, out.variant, scale, ctx.nproc)
    });
    out.sent = streams.iter().map(|s| s.len() as u64).sum();
    if traced {
        profile::reset();
        profile::set_enabled(true);
    }
    let tb = Instant::now();
    let model = sp.span("daemon.boot", || {
        ClusterModel::boot(ModelConfig::new(scale.servers, BOOT_SEED))
    });
    out.boot_s = tb.elapsed().as_secs_f64();
    if traced {
        profile::set_enabled(false);
        for s in profile::snapshot() {
            out.boot_phases
                .insert(s.phase.name(), s.wall_ns as f64 / 1e9);
        }
    }
    let path = socket_path(ctx, round);
    let _ = std::fs::remove_file(&path);
    let endpoint = Endpoint::Unix(path.clone());
    let daemon = match sp.span("daemon.bind", || Daemon::bind(&endpoint, model)) {
        Ok(d) => d,
        Err(e) => {
            out.notes.push(format!("bind {}: {e}", path.display()));
            return out;
        }
    };
    let server = std::thread::spawn(move || daemon.run());
    out.setup_s = t.elapsed().as_secs_f64();

    let serve = sp.open("daemon.serve", 0);
    let parent = sp.current();
    let barrier = Barrier::new(streams.len() + 1);
    let mut serve_t = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let (endpoint, barrier) = (&endpoint, &barrier);
                let mut local = ctx.tracer.local(parent);
                local.set_enabled(traced);
                let base = ((round as u64) << 40) | ((c as u64) << 32) | 1;
                s.spawn(move || client_loop(endpoint, ops, barrier, &mut local, base))
            })
            .collect();
        barrier.wait();
        serve_t = Instant::now();
        out.clients = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
    });
    out.serve_s = serve_t.elapsed().as_secs_f64();
    sp.close(serve);

    // STATS: the op counters must sum to exactly the requests sent.
    let scrape = sp.span("daemon.stats_scrape", || {
        let mut c = ZlClient::connect(&endpoint).map_err(|e| e.to_string())?;
        let text = c.stats().map_err(|e| e.to_string())?;
        let snap = parse_exposition(&text)?;
        Ok::<_, String>((c, snap))
    });
    match scrape {
        Ok((mut c, snap)) => {
            out.op_counter_sum = Some(snap.counter_sum("zombied_op_"));
            out.free_buffers = snap
                .gauges
                .get("zombied_pool_free_buffers")
                .copied()
                .unwrap_or(0.0);
            out.zombies = snap
                .gauges
                .get("zombied_pool_zombies")
                .copied()
                .unwrap_or(0.0);
            if let Err(e) = sp.span("daemon.shutdown", || c.shutdown_server()) {
                out.notes.push(format!("shutdown: {e}"));
            }
        }
        Err(e) => out.notes.push(format!("stats scrape: {e}")),
    }
    match server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.notes.push(format!("daemon: {e}")),
        Err(_) => out.notes.push("daemon thread panicked".into()),
    }
    let _ = std::fs::remove_file(&path);
    out
}

fn check(round: &Round, index: usize, tally: &mut Tally) {
    let lost = round.sum(|c| c.lost);
    let bad = round.sum(|c| c.bad_requests);
    let mut failed = lost + bad;
    let mut why = Vec::new();
    if lost > 0 {
        let first = round.clients.iter().find_map(|c| c.first_error.clone());
        why.push(format!("{lost} unanswered ({})", first.unwrap_or_default()));
    }
    if bad > 0 {
        why.push(format!("{bad} BadRequest answers"));
    }
    match round.op_counter_sum {
        Some(sum) if sum == round.sent => {}
        Some(sum) => {
            failed += sum.abs_diff(round.sent);
            why.push(format!(
                "STATS op counters sum to {sum}, {} sent",
                round.sent
            ));
        }
        None => {
            failed = round.sent;
            why.extend(round.notes.iter().cloned());
        }
    }
    if failed == 0 && !round.notes.is_empty() {
        failed = 1;
        why.extend(round.notes.iter().cloned());
    }
    tally.record(round.sent, failed.min(round.sent.max(1)), || {
        format!("round {index}: {}", why.join("; "))
    });
}

/// In-process layer costs over one round's op stream (traced run only).
struct Layers {
    boot_s: f64,
    apply_ns: Vec<Vec<f64>>,
    apply_all_ns: Vec<f64>,
    codec_ns: [f64; 4],
    framing_ns: f64,
}

const CODEC_REPS: usize = 5;

fn in_process(ctx: &Ctx, scale: Scale, sp: &mut Local) -> Layers {
    let streams = sp.span("bench.op_generate", || {
        gen_streams(ctx.seed, 0, scale, ctx.nproc)
    });
    // Interleave the client streams round-robin, as the daemon would see
    // them with every client in step.
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let ops: Vec<&RackOp> = (0..longest)
        .flat_map(|i| streams.iter().filter_map(move |s| s.get(i)))
        .collect();
    let t = Instant::now();
    let mut model = sp.span("daemon.boot", || {
        ClusterModel::boot(ModelConfig::new(scale.servers, BOOT_SEED))
    });
    let boot_s = t.elapsed().as_secs_f64();
    let mut apply_ns = vec![Vec::new(); OPS.len()];
    let mut apply_all_ns = Vec::with_capacity(ops.len());
    let mut responses: Vec<RackResponse> = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let s = sp.open("daemon.model.apply", i as u64 + 1);
        let resp = model.apply(op);
        sp.close(s);
        let ns = t.elapsed().as_nanos() as f64;
        apply_ns[op_index(op)].push(ns);
        apply_all_ns.push(ns);
        responses.push(resp);
    }
    drop(model);

    // Codec and framing: whole-stream loops, per-op cost = loop time /
    // ops, median over repetitions.
    let n = ops.len().max(1) as f64;
    let mut reps: [Vec<f64>; 4] = Default::default();
    let mut framing = Vec::new();
    for _ in 0..CODEC_REPS {
        let t = Instant::now();
        let requests: Vec<Vec<u8>> = sp.span("core.codec.encode", || {
            ops.iter().map(|op| encode(op)).collect()
        });
        reps[0].push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        let decoded = sp.span("core.codec.decode", || {
            requests.iter().filter(|b| decode(b).is_ok()).count()
        });
        reps[1].push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        let answers: Vec<Vec<u8>> = sp.span("core.codec.encode_response", || {
            responses.iter().map(encode_response).collect()
        });
        reps[2].push(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        let answered = sp.span("core.codec.decode_response", || {
            answers
                .iter()
                .filter(|b| decode_response(b).is_ok())
                .count()
        });
        reps[3].push(t.elapsed().as_nanos() as f64 / n);
        std::hint::black_box((decoded, answered));

        let mut buf = Vec::with_capacity(1 << 20);
        let t = Instant::now();
        let frames = sp.span("daemon.framing", || {
            let mut frames = 0usize;
            for (req, resp) in requests.iter().zip(&answers) {
                buf.clear();
                write_frame(&mut buf, req).expect("in-memory write");
                write_frame(&mut buf, resp).expect("in-memory write");
                let mut r = &buf[..];
                while let Ok(Some(p)) = read_frame(&mut r) {
                    frames += p.len();
                }
            }
            frames
        });
        framing.push(t.elapsed().as_nanos() as f64 / n);
        std::hint::black_box(frames);
    }
    Layers {
        boot_s,
        apply_ns,
        apply_all_ns,
        codec_ns: [
            median(&reps[0]),
            median(&reps[1]),
            median(&reps[2]),
            median(&reps[3]),
        ],
        framing_ns: median(&framing),
    }
}

pub fn run(ctx: &Ctx, scale: Scale) -> Outcome {
    let _ = std::fs::create_dir_all(&ctx.out_dir);
    let mut sp = ctx.tracer.local(0);
    let root = sp.open(scale.span, 0);
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while ctx.more_passes(rounds.len(), started) {
        let i = rounds.len();
        let (mut round, kind, rss) = ctx.pass(&mut sp, i, |sp, traced| {
            run_round(ctx, scale, i, sp, traced)
        });
        round.kind = kind;
        round.rss_mib = rss;
        check(&round, i, &mut tally);
        rounds.push(round);
    }
    let layers = ctx.tracer.on().then(|| {
        let s = sp.open(crate::WRAPPERS[1], 0);
        let layers = in_process(ctx, scale, &mut sp);
        sp.close(s);
        layers
    });
    sp.close(root);
    drop(sp);

    let plain: Vec<&Round> = rounds
        .iter()
        .filter(|r| r.kind == PassKind::Untraced)
        .collect();
    let rtts: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.clients.iter().flat_map(|c| c.rtt_ns.iter().copied()))
        .collect();
    let us: Vec<f64> = rtts.iter().map(|ns| ns / 1e3).collect();
    let rps: Vec<f64> = plain
        .iter()
        .filter(|r| r.serve_s > 0.0)
        .map(|r| r.sent as f64 / r.serve_s)
        .collect();
    let mut metrics = Vec::new();
    if let Some(layers) = layers {
        let traced: Vec<&Round> = rounds
            .iter()
            .filter(|r| r.kind == PassKind::Traced)
            .collect();
        let mut boots: Vec<f64> = rounds.iter().map(|r| r.boot_s).collect();
        boots.push(layers.boot_s);
        metrics.push(Metric::median_of("daemon.boot_s", &boots, "s"));
        for (k, name) in OPS.iter().enumerate() {
            let xs = &layers.apply_ns[k];
            metrics.push(Metric::median_of(
                format!("daemon.apply_ns.{name}.p50"),
                xs,
                "ns",
            ));
            metrics.push(
                Metric::measured(
                    format!("daemon.apply_ns.{name}.p99"),
                    percentile(xs, 99.0),
                    "ns",
                )
                .with_samples(xs.len()),
            );
        }
        let names = ["encode", "decode", "encode_response", "decode_response"];
        for (name, ns) in names.iter().zip(layers.codec_ns) {
            metrics.push(
                Metric::measured(format!("core.codec_{name}_ns"), ns, "ns")
                    .with_samples(CODEC_REPS),
            );
        }
        metrics.push(
            Metric::measured("daemon.framing_ns", layers.framing_ns, "ns").with_samples(CODEC_REPS),
        );
        let in_process =
            median(&layers.apply_all_ns) + layers.codec_ns.iter().sum::<f64>() + layers.framing_ns;
        metrics.push(
            Metric::measured("daemon.transport_ns", median(&rtts) - in_process, "ns")
                .with_samples(rtts.len()),
        );
        let answered: u64 = rounds.iter().map(|r| r.sum(|c| c.answered)).sum();
        let typed: u64 = rounds.iter().map(|r| r.sum(|c| c.typed_errors)).sum();
        metrics.push(Metric::measured(
            "daemon.typed_error_ratio",
            typed as f64 / answered.max(1) as f64,
            "ratio",
        ));
        let last = rounds.last().expect("at least one round");
        metrics.push(Metric::modeled(
            "daemon.pool_free_buffers",
            last.free_buffers,
            "count",
        ));
        metrics.push(Metric::modeled(
            "daemon.pool_zombies",
            last.zombies,
            "count",
        ));
        let send: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.clients.iter().flat_map(|c| c.send_ns.iter().copied()))
            .collect();
        let recv: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.clients.iter().flat_map(|c| c.recv_ns.iter().copied()))
            .collect();
        metrics.push(Metric::median_of("daemon.client_send_self_ns", &send, "ns"));
        metrics.push(Metric::median_of("daemon.client_recv_self_ns", &recv, "ns"));
        for (phase, name) in [
            ("sim_setup", "setup"),
            ("arrivals", "arrivals"),
            ("departures", "departures"),
            ("consolidation", "consolidation"),
            ("wake_ups", "wakeups"),
            ("shard_round", "shard_round"),
        ] {
            let xs: Vec<f64> = traced
                .iter()
                .map(|r| r.boot_phases.get(phase).copied().unwrap_or(0.0))
                .collect();
            metrics.push(Metric::median_of(
                format!("simulator.{name}_self_s"),
                &xs,
                "s",
            ));
        }
        let on: Vec<f64> = traced.iter().map(|r| r.setup_s + r.serve_s).collect();
        let off: Vec<f64> = plain.iter().map(|r| r.setup_s + r.serve_s).collect();
        metrics.push(report::overhead(&on, &off));
    } else {
        // Every round over one stream set sends the same requests to an
        // identically booted daemon, so request `i` of client `c` is one
        // call repeated once per such round. An unanswered request reads
        // infinity in that round.
        let rtt_us = |r: &&Round| -> Vec<f64> {
            r.clients
                .iter()
                .flat_map(|c| {
                    let lost = c.ops - c.rtt_ns.len();
                    c.rtt_ns
                        .iter()
                        .map(|ns| ns / 1e3)
                        .chain(std::iter::repeat_n(f64::INFINITY, lost))
                })
                .collect()
        };
        let by_variant: Vec<Vec<Vec<f64>>> = (0..VARIANTS)
            .map(|v| {
                plain
                    .iter()
                    .filter(|r| r.variant == v)
                    .map(rtt_us)
                    .collect()
            })
            .collect();
        let setup: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        let rss: Vec<f64> = plain.iter().map(|r| r.rss_mib).collect();
        metrics = report::end_to_end(&setup, report::latency_best(&by_variant), &rss);
    }
    let params = vec![
        ("servers".to_string(), Value::UInt(scale.servers as u64)),
        (
            "requests_per_round".to_string(),
            Value::UInt(scale.requests),
        ),
        ("clients".to_string(), Value::UInt(ctx.nproc as u64)),
        ("rounds".to_string(), Value::UInt(rounds.len() as u64)),
        (
            "round_rps".to_string(),
            Value::Array(
                rounds
                    .iter()
                    .map(|r| Value::Float(r.sent as f64 / r.serve_s))
                    .collect(),
            ),
        ),
        (
            "round_rtt_p50_us".to_string(),
            Value::Array(
                rounds
                    .iter()
                    .map(|r| {
                        let rtts: Vec<f64> = r
                            .clients
                            .iter()
                            .flat_map(|c| c.rtt_ns.iter().copied())
                            .collect();
                        Value::Float(median(&rtts) / 1e3)
                    })
                    .collect(),
            ),
        ),
        (
            "transport".to_string(),
            Value::Str("unix socket, closed loop, 1 outstanding per client".into()),
        ),
    ];
    Outcome {
        tally,
        metrics,
        params,
        ungated: report::ungated(Metric::median_of("", &rps, "1/s"), &us),
    }
}
