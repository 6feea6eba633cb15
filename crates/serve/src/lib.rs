//! # focal-serve — a batch/streaming carbon-query service
//!
//! The serving layer that turns FOCAL's suite-oriented deterministic
//! engine into an interactive query service: clients send scenario
//! queries (the `focal-scenario` TOML DSL as the wire payload) as
//! newline-delimited JSON — over stdin/stdout or TCP — and get back
//! one response line per request carrying the evaluation digest,
//! provenance (canonical scenario digest, Monte-Carlo seed, git
//! revision) and optionally the rendered output itself.
//!
//! The module split mirrors the request path:
//!
//! * [`json`] — dependency-free JSON parsing/escaping for the wire;
//! * [`proto`] — the envelope grammar ([`proto::parse_line`]) and
//!   response rendering ([`proto::render_ok`], [`proto::render_err`]);
//! * [`cache`] — the two-level (source text → canonical digest)
//!   evaluation cache whose hits are byte-identical to cold runs;
//! * [`load`] — overload limits ([`load::Limits`]), the shared server
//!   gauges/drain state ([`load::ServerState`]) and the shedding
//!   policy they implement;
//! * [`chaos`] — short-read/short-write stream adapters driven by
//!   `focal_engine::fault` plans;
//! * [`service`] — [`service::ServeCore`], the transport-independent
//!   handler that coalesces requests into deterministic engine
//!   fan-outs with per-request fault isolation;
//! * [`server`] — the stdin/stdout and TCP transports.
//!
//! Two binaries ship with the crate: `focal-serve` (the server) and
//! `focal-loadgen` (a corpus-replaying load generator emitting
//! BENCH.json throughput/latency records). See DESIGN.md §15 for the
//! protocol grammar and determinism guarantees, §16 for overload and
//! shutdown semantics, the `serve` CI job for the byte-diff harness
//! that holds serve output identical across `FOCAL_THREADS=1` vs `4`
//! and cache on/off, and the `serve-chaos` job for the fault-injection
//! soak.

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod json;
pub mod load;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{CacheStats, CachedEval, ServeCache};
pub use chaos::{ChaosReader, ChaosWriter};
pub use focal_report::detect_git_rev;
pub use load::{ConnCtx, Limits, ServerState};
pub use proto::{
    parse_line, render_err, render_ok, ErrorKind, PingInfo, Provenance, Query, Request,
    RequestError, MAX_BATCH,
};
pub use server::{serve_stream, serve_stream_ctx, serve_tcp, TcpOptions};
pub use service::{ServeCore, ServeOptions, ServeStats};
