//! `zombied`: serving the §4.3–4.4 control plane over a real socket.
//!
//! Everything below `crates/daemon` existed as libraries — the wire
//! functions ([`zombieland_core::protocol::RackOp`]), their encoding
//! ([`zombieland_core::codec`]), the controller database and its HA
//! mirror — but nothing listened. This crate is the serving layer:
//!
//! - [`framing`] — length-prefixed frames over any byte stream.
//! - [`model`] — [`model::ClusterModel`], the daemon's world: a
//!   [`zombieland_core::Rack`] whose `apply` answers every request,
//!   booted deterministically from a seed via a short simulator run,
//!   plus the sim clock that drives controller heartbeats.
//! - [`server`] — [`server::Daemon`], a thread-per-connection server
//!   over TCP or (on Unix) a Unix-domain socket.
//! - [`client`] — [`client::ZlClient`], the thin client library behind
//!   the `zlctl` binary and the replay harness.
//! - [`replay`] — the seeded load harness behind `zombieland replay`:
//!   N client threads fire a deterministic request stream and aggregate
//!   decision latency into the [`zombieland_obs`] metric registry.
//!
//! Binaries: `zombied` (the daemon) and `zlctl` (one request per
//! invocation, human-readable answer).

use std::fmt;

pub mod client;
pub mod framing;
pub mod model;
pub mod replay;
pub mod server;

/// Where a daemon listens / a client connects.
///
/// Parsed from `tcp:HOST:PORT` (port 0 = ephemeral) or `unix:PATH`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address, e.g. `127.0.0.1:7070`.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl Endpoint {
    /// Parses an endpoint string.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp endpoint needs HOST:PORT".into());
            }
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        if let Some(path) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                if path.is_empty() {
                    return Err("unix endpoint needs a path".into());
                }
                return Ok(Endpoint::Unix(path.into()));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("unix sockets unavailable on this platform".into());
            }
        }
        Err(format!(
            "endpoint {s:?} must start with \"tcp:\" or \"unix:\""
        ))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:0"),
            Ok(Endpoint::Tcp("127.0.0.1:0".into()))
        );
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("127.0.0.1:0").is_err());
        #[cfg(unix)]
        {
            let ep = Endpoint::parse("unix:/tmp/z.sock").unwrap();
            assert_eq!(ep.to_string(), "unix:/tmp/z.sock");
        }
    }
}
