#![warn(missing_docs)]

//! `pmg-serve`: a persistent solver daemon over the multigrid stack.
//!
//! Setting up a multigrid hierarchy (classify → MIS → Delaunay remesh →
//! `R A Rᵀ` → smoother factorization) costs far more than one solve, so
//! a process that answers one request and exits wastes almost all of
//! its work. This crate keeps the hierarchy **warm**: a daemon listens
//! on a Unix and/or TCP socket, caches built hierarchies by
//! mesh/options fingerprint (LRU under a byte budget), and answers each
//! solve request with one [`prometheus::Prometheus::solve`] on the warm
//! hierarchy, one request at a time in arrival order.
//!
//! The load-bearing invariant is **bitwise transparency**: whatever the
//! daemon does to a request — cache-hit it, queue it behind seven
//! strangers or a warm-up — the solution bits returned are exactly what
//! a standalone offline solve of that system produces.
//!
//! Architecture (one dispatcher owns all solvers; see [`batch`]):
//!
//! ```text
//!   clients ── unix/tcp ──► conn threads ── bounded queue ──► dispatcher
//!                            (frame/parse)    (admission:        (warm cache,
//!                                             full = busy)        one solve per turn)
//! ```
//!
//! The protocol, cache keying, dispatch order, and backpressure
//! behaviour are documented in `docs/server.md`; the `serve/*`
//! telemetry schema in `docs/telemetry.md`.

pub mod batch;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{
    hierarchy_bytes, ingest_cache_key, ingest_options, sharded_bytes, solver_cache_key, CacheStats,
    ShardedWarm, WarmCache, WarmSolver,
};
pub use client::{Client, ClientError};
pub use protocol::{
    IngestReply, IngestRequest, ProblemSpec, Request, Response, SolveReply, SolveTarget, StatsReply,
};
pub use server::{serve, ServeConfig, ServerHandle};
