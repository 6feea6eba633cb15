//! # focal-engine — deterministic parallel evaluation for FOCAL
//!
//! FOCAL's evaluation is embarrassingly parallel: 9 figures, 18 findings,
//! α sweeps over hundreds of grid points, and Monte-Carlo samplers that
//! draw thousands of NCF values per design point. This crate provides the
//! one thing all of those need and `std` alone does not give: a
//! **dependency-free scoped-thread work-stealing pool whose results are
//! bit-identical regardless of thread count**.
//!
//! ## The determinism contract
//!
//! Every operation splits its work into *chunks* with a thread-count
//! independent geometry and evaluates them in whatever order the
//! scheduler reaches them, each chunk **writing its own slice of one
//! output buffer**: nothing is merged, so where and when a chunk ran
//! cannot change where its result lands. Because chunk geometry and
//! per-chunk computation are independent of how many workers ran, the
//! output of [`Engine::try_par_map`], [`Engine::try_par_map_isolated`]
//! and [`Engine::try_par_chunk_map_into`] is a pure function of the
//! inputs — `FOCAL_THREADS=1`, `=2` and `=64` produce the same bytes.
//! Randomized workloads keep the contract by deriving each chunk's
//! generator from [`chunk_seed`]`(seed, chunk_index)` rather than sharing
//! one sequential stream.
//!
//! With one thread (or one chunk) every operation takes the exact serial
//! code path: no worker threads are spawned, no queues are built, no
//! clock is read, and the chunk loop runs inline on the caller's thread.
//!
//! ## Scheduling: inline first, helpers after a budget
//!
//! FOCAL's evaluations take microseconds, so a thread spawn usually costs
//! more than the fan-out it would split. Every operation therefore runs
//! its chunks on the calling thread, in index order, and only once it has
//! run for [`SPAWN_BUDGET`] does it spawn `threads − 1` scoped helpers
//! for the chunks left, with the caller working alongside them. The
//! worker count is an upper bound: short fan-outs use one thread at any
//! `FOCAL_THREADS`, and long ones (a million Monte-Carlo samples) spread
//! over the workers. Where a chunk runs never changes what it computes
//! or where its result lands.
//!
//! ## The fault-tolerance contract
//!
//! Every chunk runs inside [`std::panic::catch_unwind`], so a panicking
//! chunk *poisons that chunk* instead of tearing down the pool or the
//! process. Every operation reports a failure one way: it returns
//! `Err(`[`ChunkError`]`)` naming the **lowest failing chunk index**, its
//! derived seed and the panic payload — the same error at every thread
//! count, extending the determinism contract to failures.
//! [`Engine::try_par_map_isolated`] goes one step further and confines a
//! panic to its own item's slot. Worker threads always join, so an
//! engine remains fully usable after a poisoned run.
//!
//! The [`fault`] module adds a deterministic fault-injection hook
//! ([`FaultPlan`], spec grammar `<kind>@<site>[:conn<N>][:<index>][:<millis>ms]`)
//! that raises synthetic faults through this exact machinery. A plan is
//! part of the engine value ([`Engine::with_faults`], with the site set
//! by [`Engine::at_site`]), never process-wide state, so concurrent
//! engines — parallel tests, server connections — cannot observe each
//! other's faults. The reproduction suite's `--inject` flag uses it to
//! prove the isolation end to end, and `focal-serve --inject` extends
//! the same plans into the serving layer (request panics, injected
//! latency, short reads/writes keyed by connection and request index).
//!
//! ## Thread-count selection
//!
//! [`Engine::from_env`] honours the `FOCAL_THREADS` environment variable
//! (any positive integer) and falls back to
//! [`std::thread::available_parallelism`]. [`Engine::with_threads`] pins
//! the count explicitly — the differential tests use this to compare
//! 1-, 2- and 7-thread runs inside one process.
//!
//! ## Example
//!
//! ```
//! use focal_engine::Engine;
//!
//! let xs: Vec<u64> = (0..10_000).collect();
//! let serial = Engine::serial().try_par_map(0, &xs, |&x| x * x);
//! let parallel = Engine::with_threads(7).try_par_map(0, &xs, |&x| x * x);
//! assert_eq!(serial, parallel);
//! assert_eq!(serial.map(|squares| squares[3]), Ok(9));
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod fault;
mod pool;

pub use fault::{ChunkError, FaultKind, FaultPlan};
pub use pool::{chunk_count, chunk_seed, Engine, PAR_MAP_CHUNKS, SPAWN_BUDGET, THREADS_ENV};
