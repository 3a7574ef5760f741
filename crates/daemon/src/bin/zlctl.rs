//! `zlctl` — one control-plane request per invocation.
//!
//! ```text
//! zlctl --connect ENDPOINT goto-zombie HOST NB
//! zlctl --connect ENDPOINT reclaim HOST NB
//! zlctl --connect ENDPOINT us-reclaim USER [ID ...]
//! zlctl --connect ENDPOINT alloc-ext USER MIB
//! zlctl --connect ENDPOINT alloc-swap USER MIB
//! zlctl --connect ENDPOINT free-mem HOST
//! zlctl --connect ENDPOINT lru-zombie
//! zlctl --connect ENDPOINT stats
//! zlctl --connect ENDPOINT top [--interval-ms N] [--frames N]
//! zlctl --connect ENDPOINT shutdown
//! ```
//!
//! `stats` prints one raw exposition scrape. `top` re-scrapes on an
//! interval and prints one *delta* row per frame — req/s, error rate and
//! latency quantiles over the window, not since daemon start: `p50_us`/
//! `p99_us` are the modeled decision time, `svc_p50_us`/`svc_p99_us` the
//! measured service time.
//!
//! Exit status: 0 for any well-formed server answer — *including* a typed
//! error frame (the request was served; the answer happens to be "no").
//! 1 for transport or codec failures, 2 for usage errors.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use zombieland_core::codec::ResponseBody;
use zombieland_core::protocol::RackOp;
use zombieland_core::ServerId;
use zombieland_daemon::client::ZlClient;
use zombieland_daemon::Endpoint;
use zombieland_mem::buffer::BufferId;
use zombieland_obs::telemetry::{parse_exposition, Snapshot};
use zombieland_simcore::Bytes;

fn usage() -> ExitCode {
    eprintln!(
        "usage: zlctl --connect ENDPOINT <command>\n  \
         goto-zombie HOST NB | reclaim HOST NB | us-reclaim USER [ID ...]\n  \
         alloc-ext USER MIB | alloc-swap USER MIB | free-mem HOST\n  \
         lru-zombie | stats | top [--interval-ms N] [--frames N] | shutdown\n\
         ENDPOINT: tcp:HOST:PORT or unix:PATH"
    );
    ExitCode::from(2)
}

fn parse_op(cmd: &str, rest: &[String]) -> Result<RackOp, String> {
    let id = |s: &String| -> Result<ServerId, String> {
        s.parse::<u32>()
            .map(ServerId::new)
            .map_err(|_| format!("bad server id {s:?}"))
    };
    let num = |s: &String| -> Result<u64, String> {
        s.parse::<u64>().map_err(|_| format!("bad number {s:?}"))
    };
    match (cmd, rest) {
        ("goto-zombie", [host, nb]) => Ok(RackOp::GotoZombie {
            host: id(host)?,
            buffers: num(nb)?,
        }),
        ("reclaim", [host, nb]) => Ok(RackOp::Reclaim {
            host: id(host)?,
            nb_buffers: num(nb)?,
        }),
        ("us-reclaim", [user, ids @ ..]) => Ok(RackOp::UsReclaim {
            user: id(user)?,
            buff_ids: ids
                .iter()
                .map(|s| num(s).map(BufferId::new))
                .collect::<Result<_, _>>()?,
        }),
        ("alloc-ext", [user, mib]) => Ok(RackOp::AllocExt {
            user: id(user)?,
            mem_size: Bytes::mib(num(mib)?),
        }),
        ("alloc-swap", [user, mib]) => Ok(RackOp::AllocSwap {
            user: id(user)?,
            mem_size: Bytes::mib(num(mib)?),
        }),
        ("free-mem", [host]) => Ok(RackOp::AsGetFreeMem { host: id(host)? }),
        ("lru-zombie", []) => Ok(RackOp::GetLruZombie),
        _ => Err(format!("bad arguments for {cmd:?}")),
    }
}

fn print_response(decision_ns: u64, body: &ResponseBody) {
    print!("decision {:.1} us  ", decision_ns as f64 / 1_000.0);
    match body {
        ResponseBody::Lent { buffers } => {
            println!(
                "lent {} buffer(s): {:?}",
                buffers.len(),
                buffers.iter().map(|b| b.get()).collect::<Vec<_>>()
            );
        }
        ResponseBody::Reclaimed {
            returned_free,
            revoked,
        } => {
            println!(
                "reclaimed {} free + {} revoked",
                returned_free.len(),
                revoked.len()
            );
        }
        ResponseBody::Revoked {
            relocated,
            fell_back,
        } => {
            println!("revoked: {relocated} page(s) relocated, {fell_back} fell back to backup");
        }
        ResponseBody::Granted { buffers } => {
            println!("granted {} buffer(s):", buffers.len());
            for d in buffers {
                println!(
                    "  buffer {} on srv:{} (mr {}, {} MiB, {})",
                    d.id.get(),
                    d.host.get(),
                    d.mr_key,
                    d.size.get() >> 20,
                    if d.zombie { "zombie" } else { "active" }
                );
            }
        }
        ResponseBody::LruZombie { host } => match host {
            Some(h) => println!("lru zombie: srv:{}", h.get()),
            None => println!("lru zombie: none"),
        },
        ResponseBody::Error(e) => println!("error: {e}"),
    }
}

/// One `top` delta row computed from two consecutive scrapes.
fn top_row(elapsed: Duration, prev: &Snapshot, cur: &Snapshot) -> String {
    let secs = elapsed.as_secs_f64().max(1e-9);
    let ops = cur.counter_sum("zombied_op_") - prev.counter_sum("zombied_op_");
    let errs = cur.counters.get("zombied_resp_error").copied().unwrap_or(0)
        - prev
            .counters
            .get("zombied_resp_error")
            .copied()
            .unwrap_or(0);
    let err_pct = if ops == 0 {
        0.0
    } else {
        100.0 * errs as f64 / ops as f64
    };
    // A histogram's p50/p99 over the window, in µs.
    let window = |name: &str| {
        let (p50, p99) = match (cur.histograms.get(name), prev.histograms.get(name)) {
            (Some(now), Some(before)) => {
                let d = now.since(before);
                (d.quantile(0.5), d.quantile(0.99))
            }
            (Some(now), None) => (now.quantile(0.5), now.quantile(0.99)),
            _ => (None, None),
        };
        let us = |q: Option<u64>| q.map_or("-".to_string(), |ns| format!("{:.1}", ns as f64 / 1e3));
        (us(p50), us(p99))
    };
    let (p50, p99) = window("zombied_decision_ns");
    let (svc_p50, svc_p99) = window("zombied_service_ns");
    let gauge = |name: &str| {
        cur.gauges
            .get(name)
            .map_or("-".to_string(), |v| format!("{v:.0}"))
    };
    format!(
        "{:>8.1} {:>9.0} {:>7.2} {:>9} {:>9} {:>10} {:>10} {:>8} {:>8}",
        secs,
        ops as f64 / secs,
        err_pct,
        p50,
        p99,
        svc_p50,
        svc_p99,
        gauge("zombied_pool_zombies"),
        gauge("zombied_pool_free_buffers"),
    )
}

/// `zlctl top`: re-scrape every `interval` and print a delta row per
/// window. `frames == 0` runs until the connection drops (or ^C).
fn run_top(client: &mut ZlClient, interval: Duration, frames: u64) -> Result<(), String> {
    let scrape = |client: &mut ZlClient| -> Result<Snapshot, String> {
        let text = client.stats().map_err(|e| e.to_string())?;
        parse_exposition(&text).map_err(|e| format!("bad exposition: {e}"))
    };
    println!(
        "{:>8} {:>9} {:>7} {:>9} {:>9} {:>10} {:>10} {:>8} {:>8}",
        "window_s",
        "req/s",
        "err%",
        "p50_us",
        "p99_us",
        "svc_p50_us",
        "svc_p99_us",
        "zombies",
        "free"
    );
    let mut prev = scrape(client)?;
    let mut last = Instant::now();
    let mut printed = 0u64;
    while frames == 0 || printed < frames {
        std::thread::sleep(interval);
        let cur = scrape(client)?;
        let now = Instant::now();
        println!("{}", top_row(now.duration_since(last), &prev, &cur));
        (prev, last) = (cur, now);
        printed += 1;
    }
    Ok(())
}

/// Parses `top`'s optional flags.
fn top_flags(rest: &[String]) -> Result<(Duration, u64), String> {
    let mut interval = Duration::from_millis(1_000);
    let mut frames = 0u64;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse::<u64>()
            .map_err(|_| format!("bad value for {flag}"))?;
        match flag.as_str() {
            "--interval-ms" => interval = Duration::from_millis(value.max(1)),
            "--frames" => frames = value,
            _ => return Err(format!("unknown top flag {flag:?}")),
        }
    }
    Ok((interval, frames))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(pos) = args.iter().position(|a| a == "--connect") else {
        return usage();
    };
    let Some(endpoint) = args.get(pos + 1) else {
        eprintln!("error: --connect needs a value");
        return usage();
    };
    let endpoint = match Endpoint::parse(endpoint) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let mut rest: Vec<String> = args;
    rest.drain(pos..=pos + 1);
    let Some(cmd) = rest.first().cloned() else {
        return usage();
    };

    let mut client = match ZlClient::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {endpoint}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if cmd == "stats" {
        return match client.stats() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if cmd == "top" {
        let (interval, frames) = match top_flags(&rest[1..]) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
        return match run_top(&mut client, interval, frames) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if cmd == "shutdown" {
        return match client.shutdown_server() {
            Ok(()) => {
                println!("daemon acknowledged shutdown");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let op = match parse_op(&cmd, &rest[1..]) {
        Ok(op) => op,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match client.call(&op) {
        Ok(resp) => {
            print_response(resp.decision.as_nanos(), &resp.body);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
