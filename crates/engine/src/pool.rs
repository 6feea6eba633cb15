//! The scoped-thread work-stealing pool behind [`Engine`].
//!
//! Scheduling: a fan-out first runs chunks on the calling thread, in
//! index order. Only once it has run for [`SPAWN_BUDGET`] does it split
//! the remaining chunk indices into one contiguous [`StealRange`] per
//! worker, spawn `threads − 1` scoped helpers and take worker 0's range
//! itself. A worker pops chunks from the *front* of its own range; when
//! the range drains it steals a chunk from the *back* of the most loaded
//! victim's range. Both ends are manipulated with a single packed
//! compare-and-swap, so the scheduler is lock-free and never blocks a
//! worker that still has work. No queue ever *gains* chunks, so one full
//! empty scan is a correct termination proof.
//!
//! Determinism does not depend on any of this: every chunk's result is
//! tagged with its chunk index and the caller-visible output is assembled
//! in index order after the scope joins.

use crate::fault::{self, ChunkError, FaultPlan};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Environment variable selecting the worker count (any positive integer).
pub const THREADS_ENV: &str = "FOCAL_THREADS";

/// Chunk-count target for [`Engine::par_map`]'s internal geometry.
///
/// The chunk size is derived from the item count **only** (never the
/// thread count), so chunk indices — and therefore any [`ChunkError`]'s
/// `chunk_index` — mean the same thing at every `FOCAL_THREADS`. 64
/// chunks load-balance well past the worker counts FOCAL targets while
/// keeping per-chunk overhead negligible.
pub const PAR_MAP_CHUNKS: usize = 64;

/// How long a fan-out runs its chunks on the calling thread before it
/// hands the rest to helper threads.
///
/// FOCAL's evaluations take microseconds, so most fan-outs finish before
/// a helper thread could start. Measured on a shared 2-vCPU x86-64 VM
/// with about one effective core: an empty 30-item `par_map` took ≈90 µs
/// at 2 threads when every fan-out spawned, against ≈3 µs at 1; a suite
/// run makes 12 fan-outs whose median is 9 µs and whose longest is
/// 0.26 ms at the median. In 500 quiet runs one fan-out passed 1 ms
/// (3.8 ms) and with two CPU-bound processes competing 8 of 400 runs did
/// (4.4 ms at most); none reached 5 ms. Wall-clock time counts time the
/// host steals, so a stalled fan-out may still cross the budget, at the
/// cost of one spawn. Fan-outs that outlast it, such as the Monte-Carlo
/// draws of `suite --samples 1048576`, still spread over the workers.
/// DESIGN.md §9 has the measurements.
pub const SPAWN_BUDGET: Duration = Duration::from_millis(5);

/// Most chunks a fan-out runs between two reads of the clock while it
/// is inside [`SPAWN_BUDGET`]. A read costs ≈50 ns on the VM above, as
/// much as many whole chunks; a suite run's crossovers stage, hundreds
/// of such chunks, took ≈40 µs longer when every chunk read it.
const CLOCK_STRIDE: usize = 16;

/// A contiguous range of chunk indices `[start, end)` packed into one
/// `AtomicU64` (`start` in the high 32 bits), so owner pops and thief
/// steals are single CAS operations.
struct StealRange {
    bits: AtomicU64,
}

#[inline]
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

#[inline]
fn unpack(bits: u64) -> (u32, u32) {
    ((bits >> 32) as u32, bits as u32)
}

impl StealRange {
    fn new(start: u32, end: u32) -> Self {
        StealRange {
            bits: AtomicU64::new(pack(start, end)),
        }
    }

    /// Number of chunks currently queued (racy snapshot, used only for
    /// victim selection).
    fn len(&self) -> u32 {
        let (s, e) = unpack(self.bits.load(Ordering::Relaxed));
        e.saturating_sub(s)
    }

    /// Pops the front chunk (owner side).
    fn pop_front(&self) -> Option<u32> {
        let mut cur = self.bits.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            match self.bits.compare_exchange_weak(
                cur,
                pack(s + 1, e),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(s),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Steals the back chunk (thief side).
    fn steal_back(&self) -> Option<u32> {
        let mut cur = self.bits.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            match self.bits.compare_exchange_weak(
                cur,
                pack(s, e - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(e - 1),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Derives the RNG seed for one chunk of a randomized workload.
///
/// The scheme is deliberately the simplest thing that satisfies the
/// determinism policy (DESIGN.md §9): `seed + chunk_index`, wrapping.
/// Downstream generators (the vendored `StdRng`) expand the seed through
/// SplitMix64, so adjacent seeds yield statistically independent streams.
#[inline]
#[must_use]
pub fn chunk_seed(seed: u64, chunk_index: usize) -> u64 {
    seed.wrapping_add(chunk_index as u64)
}

/// Number of chunks a workload of `items` elements splits into at a given
/// `chunk_size` (the last chunk may be short). Returns 0 for an empty
/// workload.
#[inline]
#[must_use]
pub fn chunk_count(items: usize, chunk_size: usize) -> usize {
    debug_assert!(chunk_size > 0, "chunk_size must be positive");
    items.div_ceil(chunk_size.max(1))
}

/// A deterministic parallel evaluation engine: a worker count plus the
/// scheduling policy described in the crate docs, and the fault plan
/// (if any) its operations inject.
///
/// `Engine` is a cheap `Copy` value. An operation runs on the calling
/// thread until it outlasts [`SPAWN_BUDGET`]; only then does it spawn
/// scoped helper threads, which join before it returns. There is no
/// persistent pool to manage or shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    threads: usize,
    faults: Option<&'static FaultPlan>,
    site: Option<&'static str>,
    /// [`SPAWN_BUDGET`] for every engine a caller can build; this
    /// module's tests lower it to drive the helper path.
    budget: Duration,
}

impl Engine {
    /// The single-threaded engine: every operation takes the exact serial
    /// code path (no threads are spawned).
    #[must_use]
    pub fn serial() -> Engine {
        Engine::with_threads(1)
    }

    /// An engine with an explicit worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Engine {
        Engine {
            threads: threads.max(1),
            faults: None,
            site: None,
            budget: SPAWN_BUDGET,
        }
    }

    /// This engine carrying `faults` (`None` removes any plan). Plans
    /// are `'static` ([`FaultPlan::leak`]) so the engine stays `Copy`.
    #[must_use]
    pub fn with_faults(self, faults: Option<&'static FaultPlan>) -> Engine {
        Engine { faults, ..self }
    }

    /// This engine labelled with injection site `site` (the suite uses
    /// stage names): a chunk-panic plan fires only at its own site.
    #[must_use]
    pub fn at_site(self, site: &'static str) -> Engine {
        Engine {
            site: Some(site),
            ..self
        }
    }

    /// The fault plan this engine carries, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&'static FaultPlan> {
        self.faults
    }

    /// The injected fault description if this engine's plan panics
    /// `chunk` at this engine's site.
    #[inline]
    fn injected_chunk_fault(&self, chunk: usize) -> Option<String> {
        self.faults?.injected_chunk_fault(self.site?, chunk)
    }

    /// Reads the worker count from `FOCAL_THREADS`, falling back to
    /// [`std::thread::available_parallelism`] when the variable is unset
    /// or not a positive integer.
    #[must_use]
    pub fn from_env() -> Engine {
        let configured = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        match configured {
            Some(n) => Engine::with_threads(n),
            None => {
                Engine::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
            }
        }
    }

    /// The worker count this engine runs with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0), f(1), …, f(n_chunks − 1)` and returns the results
    /// **in chunk-index order**, regardless of the order the scheduler
    /// executed them in. This is the primitive everything else builds on;
    /// use it directly when each chunk needs its index (e.g. to derive a
    /// per-chunk RNG via [`chunk_seed`]).
    ///
    /// Chunks run under the same per-chunk isolation as
    /// [`Engine::try_par_chunk_map`]; if a chunk panics, the panic resumes
    /// on the calling thread with a [`ChunkError`] payload naming the
    /// lowest failing chunk (downcastable by an outer
    /// [`std::panic::catch_unwind`]) instead of tearing down the pool.
    ///
    /// Chunks run on the calling thread, in index order, until the call
    /// outlasts [`SPAWN_BUDGET`]; with one worker or at most one chunk
    /// they all do.
    pub fn par_chunk_map<R, F>(&self, n_chunks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        match self.try_par_chunk_map(0, n_chunks, f) {
            Ok(v) => v,
            // Propagate as a panic carrying the structured error — an
            // outer catch_unwind can downcast to ChunkError. resume_unwind
            // does not re-run the panic hook, so the original panic's
            // backtrace (already printed when it first fired) is not
            // duplicated.
            Err(e) => std::panic::resume_unwind(Box::new(e)),
        }
    }

    /// Fallible [`Engine::par_chunk_map`]: every chunk runs inside
    /// [`std::panic::catch_unwind`], so a panicking chunk *poisons* that
    /// chunk instead of unwinding through the worker pool. On failure the
    /// returned [`ChunkError`] names the **lowest failing chunk index**
    /// (with its [`chunk_seed`]-derived seed and stringified payload),
    /// which makes the error thread-count invariant: whichever chunk
    /// happens to fail *first in time*, the reported chunk is the same at
    /// `FOCAL_THREADS=1` and `=64`.
    ///
    /// Failure short-circuits deterministically: once a chunk at index
    /// `i` fails, chunks with indices above the current lowest failure
    /// are skipped (their results could never be observed), while every
    /// chunk *below* it still runs — so a lower-indexed failure is never
    /// missed. Worker threads always join; the engine is fully reusable
    /// after a poisoned run.
    ///
    /// `seed` is threaded into the error for reproduction only (it is the
    /// base the failing chunk's RNG seed is derived from); pass 0 for
    /// non-randomized workloads.
    ///
    /// # Errors
    ///
    /// Returns the [`ChunkError`] of the lowest failing chunk if any
    /// chunk panics or this engine's fault plan targets one.
    pub fn try_par_chunk_map<R, F>(
        &self,
        seed: u64,
        n_chunks: usize,
        f: F,
    ) -> Result<Vec<R>, ChunkError>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        enum Outcome<R> {
            Done(R),
            Poisoned(ChunkError),
            Skipped,
        }

        let first_fail = AtomicUsize::new(usize::MAX);
        let outcomes = self.schedule(n_chunks, &first_fail, |c| {
            if c > first_fail.load(Ordering::Acquire) {
                return Outcome::Skipped;
            }
            if let Some(payload) = self.injected_chunk_fault(c) {
                first_fail.fetch_min(c, Ordering::AcqRel);
                return Outcome::Poisoned(ChunkError {
                    chunk_index: c,
                    chunk_seed: chunk_seed(seed, c),
                    payload,
                });
            }
            // AssertUnwindSafe: on unwind every chunk result is discarded
            // and only the ChunkError escapes, so no closure state in a
            // broken intermediate state is ever observed by the caller.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(c))) {
                Ok(v) => Outcome::Done(v),
                Err(p) => {
                    first_fail.fetch_min(c, Ordering::AcqRel);
                    Outcome::Poisoned(ChunkError {
                        chunk_index: c,
                        chunk_seed: chunk_seed(seed, c),
                        payload: fault::payload_to_string(p.as_ref()),
                    })
                }
            }
        });

        let mut out = Vec::with_capacity(n_chunks);
        for (i, o) in outcomes.into_iter().enumerate() {
            match o {
                Outcome::Done(v) => out.push(v),
                Outcome::Poisoned(e) => return Err(e),
                // A chunk is only skipped when a *lower-indexed* chunk
                // recorded a failure, so an in-order scan always hits
                // that Poisoned entry first. Surface a structured error
                // anyway rather than trusting the invariant blindly.
                Outcome::Skipped => {
                    return Err(ChunkError {
                        chunk_index: i,
                        chunk_seed: chunk_seed(seed, i),
                        payload: "chunk skipped without a recorded failure \
                                  (scheduler invariant violated)"
                            .to_string(),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Chunked map that writes results **directly into one preallocated
    /// output buffer** instead of returning per-chunk `Vec`s for the
    /// caller to concatenate — the zero-copy sibling of
    /// [`Engine::try_par_chunk_map`] for kernels that produce a dense
    /// `Vec<R>` of `total` items.
    ///
    /// The item space `0..total` is cut into chunks of `chunk_size`
    /// (the last may be short), and chunks are handed to workers in
    /// *work units* of `group` consecutive chunks: `f(c0, slice)`
    /// receives the index of the unit's first chunk and the mutable
    /// output slice covering items `c0 * chunk_size ..` for the whole
    /// unit. Batch kernels use `group > 1` to process several chunk
    /// streams in lockstep; `group == 1` degenerates to one chunk per
    /// call. The output is always in logical item order — the unit
    /// decomposition is invisible in the result, so the buffer is
    /// identical at every thread count and every `group`ing for a
    /// per-chunk-deterministic `f`.
    ///
    /// Fault semantics match [`Engine::try_par_chunk_map`] at *chunk*
    /// granularity even though scheduling is per unit: before a unit's
    /// kernel runs, every chunk in the unit is checked against the
    /// engine's fault plan in ascending order, so an injected fault reports
    /// its exact `chunk_index` / [`chunk_seed`]. A genuine panic in `f`
    /// cannot be attributed more precisely than the unit that raised it
    /// and is deterministically reported against the unit's first chunk
    /// `c0`. Once a failure at chunk `i` is recorded, units whose first
    /// chunk lies above the current lowest failure are skipped; the
    /// lowest-indexed failure wins, as before. (One corner is coarser
    /// than the per-chunk API: a genuine panic in an *earlier* chunk of
    /// the same unit as a *later* injected fault reports the injected
    /// chunk, because injection checks run before the unit's kernel.)
    ///
    /// `fill` initializes the buffer; on success every item has been
    /// overwritten by `f` (units cover `0..total` exactly).
    ///
    /// # Errors
    ///
    /// Returns the [`ChunkError`] of the lowest failing chunk if `f`
    /// panics in any unit or the engine's fault plan targets a chunk.
    pub fn try_par_chunk_map_into<R, F>(
        &self,
        seed: u64,
        total: usize,
        chunk_size: usize,
        group: usize,
        fill: R,
        f: F,
    ) -> Result<Vec<R>, ChunkError>
    where
        R: Clone + Send,
        F: Fn(usize, &mut [R]) + Sync,
    {
        enum Outcome {
            Done,
            Poisoned(ChunkError),
            Skipped,
        }

        let chunk_size = chunk_size.max(1);
        let group = group.max(1);
        let n_chunks = chunk_count(total, chunk_size);
        let unit_size = chunk_size * group;
        let n_units = chunk_count(total, unit_size);
        let mut out = vec![fill; total];

        let first_fail = AtomicUsize::new(usize::MAX);
        // One mutable slice per unit, handed out exactly once. A Mutex per
        // slot (taken once, never contended) lets disjoint &mut slices
        // cross the Sync closure boundary without unsafe aliasing claims.
        let slots: Vec<Mutex<Option<&mut [R]>>> = out
            .chunks_mut(unit_size)
            .map(|s| Mutex::new(Some(s)))
            .collect();
        let outcomes = self.schedule(n_units, &first_fail, |u| {
            let c0 = u * group;
            if c0 > first_fail.load(Ordering::Acquire) {
                return Outcome::Skipped;
            }
            let c_end = (c0 + group).min(n_chunks);
            // Ascending per-chunk injection check: exact chunk attribution.
            for c in c0..c_end {
                if let Some(payload) = self.injected_chunk_fault(c) {
                    first_fail.fetch_min(c, Ordering::AcqRel);
                    return Outcome::Poisoned(ChunkError {
                        chunk_index: c,
                        chunk_seed: chunk_seed(seed, c),
                        payload,
                    });
                }
            }
            let slice = slots
                .get(u)
                .and_then(|s| s.lock().unwrap_or_else(PoisonError::into_inner).take());
            let Some(slice) = slice else {
                // Unreachable (each unit is scheduled exactly once); report
                // structurally rather than trusting the invariant blindly.
                first_fail.fetch_min(c0, Ordering::AcqRel);
                return Outcome::Poisoned(ChunkError {
                    chunk_index: c0,
                    chunk_seed: chunk_seed(seed, c0),
                    payload: "output slot for unit already taken \
                              (scheduler invariant violated)"
                        .to_string(),
                });
            };
            // AssertUnwindSafe: on unwind the whole output buffer is
            // discarded and only the ChunkError escapes, so a partially
            // written slice is never observed by the caller.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(c0, slice))) {
                Ok(()) => Outcome::Done,
                Err(p) => {
                    first_fail.fetch_min(c0, Ordering::AcqRel);
                    Outcome::Poisoned(ChunkError {
                        chunk_index: c0,
                        chunk_seed: chunk_seed(seed, c0),
                        payload: fault::payload_to_string(p.as_ref()),
                    })
                }
            }
        });
        drop(slots);

        for (u, o) in outcomes.into_iter().enumerate() {
            match o {
                Outcome::Done => {}
                Outcome::Poisoned(e) => return Err(e),
                Outcome::Skipped => {
                    let c0 = u * group;
                    return Err(ChunkError {
                        chunk_index: c0,
                        chunk_seed: chunk_seed(seed, c0),
                        payload: "unit skipped without a recorded failure \
                                  (scheduler invariant violated)"
                            .to_string(),
                    });
                }
            }
        }
        Ok(out)
    }

    /// The scheduling core: evaluates `f` over `0..n_chunks` and returns
    /// results in chunk-index order. `f` must not unwind (the public
    /// entry points wrap it in per-chunk isolation first).
    ///
    /// Chunks run on the calling thread, in index order, until the call
    /// has run for this engine's budget (checked every 1 to
    /// [`CLOCK_STRIDE`] chunks). The chunks left then go to
    /// `threads − 1` scoped helpers, with the caller working alongside
    /// them. `first_fail` is the caller's lowest recorded failure
    /// (`usize::MAX` while none): once a chunk has failed, every chunk
    /// left would only report itself skipped, so they stay inline.
    fn schedule<R, F>(&self, n_chunks: usize, first_fail: &AtomicUsize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        // The packed scheduler indexes chunks with u32; workloads beyond
        // 2^32 chunks are out of scope (that is ≥ 2^32 items) — fall back
        // to the serial path rather than mis-schedule.
        if self.threads == 1 || n_chunks <= 1 || n_chunks > u32::MAX as usize {
            return (0..n_chunks).map(f).collect();
        }

        // A clock read costs about as much as a small chunk, so the clock
        // is read before chunk 0 and then after as many chunks as would
        // fill half the budget left at the pace so far (1 to
        // CLOCK_STRIDE): small chunks pay one read per CLOCK_STRIDE, and
        // a fan-out passes the budget by about one chunk.
        let started = Instant::now();
        let mut out = Vec::with_capacity(n_chunks);
        let mut next_read = 0;
        while out.len() < n_chunks {
            let done = out.len();
            if done == next_read {
                let spent = started.elapsed();
                if spent < self.budget {
                    let left = (self.budget - spent).as_nanos();
                    let fit = left * done as u128 / (2 * spent.as_nanos()).max(1);
                    next_read = done + fit.clamp(1, CLOCK_STRIDE as u128) as usize;
                } else if first_fail.load(Ordering::Acquire) == usize::MAX {
                    break;
                } else {
                    // A chunk failed: the rest are only skipped, here.
                    next_read = n_chunks;
                }
            }
            out.push(f(done));
        }
        let done = out.len();
        let workers = self.threads.min(n_chunks - done);
        if workers <= 1 {
            out.extend((done..n_chunks).map(f));
            return out;
        }

        let per = (n_chunks - done) / workers;
        let extra = (n_chunks - done) % workers;
        // Partition the remaining chunks into one contiguous range per
        // worker (the first `extra` workers take one more chunk).
        let mut start = done as u32;
        let queues: Vec<StealRange> = (0..workers)
            .map(|w| {
                let len = per + usize::from(w < extra);
                let end = start + len as u32;
                let q = StealRange::new(start, end);
                start = end;
                q
            })
            .collect();

        let work = |me: usize| {
            let mut local: Vec<(u32, R)> = Vec::new();
            loop {
                // Drain our own range from the front…
                if let Some(i) = queues.get(me).and_then(StealRange::pop_front) {
                    local.push((i, f(i as usize)));
                    continue;
                }
                // …then steal single chunks from the back of the most
                // loaded victim. Queues never refill, so a fully empty
                // scan means all work is done or in flight elsewhere.
                let victim = queues
                    .iter()
                    .enumerate()
                    .filter(|&(v, q)| v != me && q.len() > 0)
                    .max_by_key(|&(_, q)| q.len())
                    .map(|(v, _)| v);
                match victim
                    .and_then(|v| queues.get(v))
                    .and_then(StealRange::steal_back)
                {
                    Some(i) => local.push((i, f(i as usize))),
                    None => return local,
                }
            }
        };
        let mut pairs = std::thread::scope(|scope| {
            let work = &work;
            let helpers: Vec<_> = (1..workers)
                .map(|me| scope.spawn(move || work(me)))
                .collect();
            // The caller is worker 0 rather than idling until the join.
            let mut pairs = work(0);
            for helper in helpers {
                match helper.join() {
                    Ok(local) => pairs.extend(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            pairs
        });
        // Deterministic merge: chunk-index order, independent of which
        // worker computed what when, appended after the inline prefix.
        pairs.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(
            pairs.len() == n_chunks - done
                && pairs
                    .iter()
                    .enumerate()
                    .all(|(i, &(c, _))| done + i == c as usize),
            "scheduler must evaluate every chunk exactly once"
        );
        out.extend(pairs.into_iter().map(|(_, r)| r));
        out
    }

    /// Maps `f` over `items`, preserving item order in the output.
    ///
    /// Chunk geometry is internal and derived from the item count **only**
    /// (see [`PAR_MAP_CHUNKS`]): since `f` is applied per item and the
    /// output is the in-order concatenation of the chunks, the result is
    /// identical for every thread count by construction — and so is the
    /// chunk index a failing item is reported under.
    ///
    /// Panics in `f` propagate like [`Engine::par_chunk_map`]: a single
    /// resumed panic with a [`ChunkError`] payload naming the lowest
    /// failing chunk.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.try_par_map(0, items, f) {
            Ok(v) => v,
            Err(e) => std::panic::resume_unwind(Box::new(e)),
        }
    }

    /// Fallible [`Engine::par_map`]: isolates per-chunk panics and
    /// injected faults exactly like [`Engine::try_par_chunk_map`]. The
    /// chunk an item belongs to is `item_index / ceil(len / 64)`, fixed by
    /// the item count alone, so a reported `chunk_index` identifies the
    /// same slice of items at every thread count.
    ///
    /// # Errors
    ///
    /// Returns the [`ChunkError`] of the lowest failing chunk if `f`
    /// panics for any item or the engine's fault plan targets a chunk.
    pub fn try_par_map<T, R, F>(&self, seed: u64, items: &[T], f: F) -> Result<Vec<R>, ChunkError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let chunk_size = items.len().div_ceil(PAR_MAP_CHUNKS).max(1);
        let n_chunks = chunk_count(items.len(), chunk_size);
        let chunks: Vec<Vec<R>> = self.try_par_chunk_map(seed, n_chunks, |c| {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(items.len());
            items
                .get(lo..hi)
                .unwrap_or_default()
                .iter()
                .map(&f)
                .collect()
        })?;
        let mut out = Vec::with_capacity(items.len());
        for chunk in chunks {
            out.extend(chunk);
        }
        Ok(out)
    }

    /// [`Engine::try_par_map`] with **per-item** fault isolation: every
    /// item runs inside its own [`std::panic::catch_unwind`], so a
    /// panicking item poisons *only its own slot* instead of the whole
    /// map. The serving layer uses this so one poisoned query in a
    /// coalesced batch degrades only itself.
    ///
    /// The returned vector is in item order; a failing item's slot holds
    /// a [`ChunkError`] whose `chunk_index` is the **item index** (and
    /// whose seed is [`chunk_seed`]`(seed, item_index)`), which makes
    /// per-item diagnostics thread-count invariant — the same item fails
    /// with the same error at `FOCAL_THREADS=1` and `=64`. Chunk geometry
    /// and merge order are those of [`Engine::try_par_map`].
    ///
    /// # Errors
    ///
    /// The outer `Result` fails only when the engine's
    /// [`FaultPlan`] targets a chunk of this call (genuine
    /// panics never escape the per-item isolation); the error names the
    /// lowest injected chunk, exactly like [`Engine::try_par_chunk_map`].
    pub fn try_par_map_isolated<T, R, F>(
        &self,
        seed: u64,
        items: &[T],
        f: F,
    ) -> Result<Vec<Result<R, ChunkError>>, ChunkError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let chunk_size = items.len().div_ceil(PAR_MAP_CHUNKS).max(1);
        let n_chunks = chunk_count(items.len(), chunk_size);
        let chunks: Vec<Vec<Result<R, ChunkError>>> =
            self.try_par_chunk_map(seed, n_chunks, |c| {
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                items
                    .get(lo..hi)
                    .unwrap_or_default()
                    .iter()
                    .enumerate()
                    .map(|(offset, item)| {
                        // AssertUnwindSafe: a poisoned item contributes only
                        // its ChunkError; its partial state is never observed.
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))).map_err(
                            |p| {
                                let item_index = lo + offset;
                                ChunkError {
                                    chunk_index: item_index,
                                    chunk_seed: chunk_seed(seed, item_index),
                                    payload: fault::payload_to_string(p.as_ref()),
                                }
                            },
                        )
                    })
                    .collect()
            })?;
        let mut out = Vec::with_capacity(items.len());
        for chunk in chunks {
            out.extend(chunk);
        }
        Ok(out)
    }

    /// Chunked deterministic reduction: folds each chunk of `chunk_size`
    /// items with `fold` (starting from `init()`), then merges the chunk
    /// accumulators **in chunk order** with `merge`.
    ///
    /// The reduction tree has the same shape at every thread count —
    /// including one, where the chunk loop runs inline — so results are
    /// bit-identical even for non-associative floating-point operations.
    /// For associative `fold`/`merge` pairs the result equals the plain
    /// serial fold (the engine's property tests pin this).
    ///
    /// `chunk_size` is part of the reduction's *semantics* (it fixes the
    /// float evaluation order), which is why it is an explicit parameter
    /// rather than a per-engine heuristic.
    ///
    /// Panics in `fold` propagate like [`Engine::par_chunk_map`]: a single
    /// resumed panic with a [`ChunkError`] payload naming the lowest
    /// failing chunk.
    pub fn par_reduce<T, A, I, F, M>(
        &self,
        items: &[T],
        chunk_size: usize,
        init: I,
        fold: F,
        merge: M,
    ) -> A
    where
        T: Sync,
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(A, &T) -> A + Sync,
        M: Fn(A, A) -> A,
    {
        match self.try_par_reduce(0, items, chunk_size, init, fold, merge) {
            Ok(a) => a,
            Err(e) => std::panic::resume_unwind(Box::new(e)),
        }
    }

    /// Fallible [`Engine::par_reduce`]: isolates per-chunk panics and
    /// injected faults exactly like [`Engine::try_par_chunk_map`].
    /// The merge phase runs on the calling thread only after every chunk
    /// folded successfully.
    ///
    /// # Errors
    ///
    /// Returns the [`ChunkError`] of the lowest failing chunk if `fold`
    /// panics in any chunk or the engine's fault plan targets one.
    pub fn try_par_reduce<T, A, I, F, M>(
        &self,
        seed: u64,
        items: &[T],
        chunk_size: usize,
        init: I,
        fold: F,
        merge: M,
    ) -> Result<A, ChunkError>
    where
        T: Sync,
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(A, &T) -> A + Sync,
        M: Fn(A, A) -> A,
    {
        let chunk_size = chunk_size.max(1);
        let n_chunks = chunk_count(items.len(), chunk_size);
        let accs: Vec<A> = self.try_par_chunk_map(seed, n_chunks, |c| {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(items.len());
            items
                .get(lo..hi)
                .unwrap_or_default()
                .iter()
                .fold(init(), &fold)
        })?;
        let mut accs = accs.into_iter();
        let first = accs.next().unwrap_or_else(&init);
        Ok(accs.fold(first, merge))
    }
}

impl Default for Engine {
    /// Same as [`Engine::from_env`].
    fn default() -> Self {
        Engine::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    /// `e` with a zero budget: every fan-out of more than one chunk goes
    /// straight to the helper path.
    fn eager(e: Engine) -> Engine {
        Engine {
            budget: Duration::ZERO,
            ..e
        }
    }

    /// The engine at `threads` as callers build it, and its [`eager`]
    /// twin, so each assertion covers the inline and the helper path.
    fn engines(threads: usize) -> [Engine; 2] {
        let e = Engine::with_threads(threads);
        [e, eager(e)]
    }

    #[test]
    fn pack_unpack_round_trips() {
        for (s, e) in [(0, 0), (0, 1), (7, 9), (u32::MAX - 1, u32::MAX)] {
            assert_eq!(unpack(pack(s, e)), (s, e));
        }
    }

    #[test]
    fn steal_range_pops_and_steals_disjointly() {
        let q = StealRange::new(0, 5);
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop_front(), Some(0));
        assert_eq!(q.steal_back(), Some(4));
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.steal_back(), Some(3));
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.steal_back(), None);
    }

    #[test]
    fn chunk_seed_is_additive() {
        assert_eq!(chunk_seed(42, 0), 42);
        assert_eq!(chunk_seed(42, 3), 45);
        assert_eq!(chunk_seed(u64::MAX, 1), 0); // wraps, never panics
    }

    #[test]
    fn chunk_count_covers_all_items() {
        assert_eq!(chunk_count(0, 8), 0);
        assert_eq!(chunk_count(1, 8), 1);
        assert_eq!(chunk_count(8, 8), 1);
        assert_eq!(chunk_count(9, 8), 2);
    }

    #[test]
    fn threads_clamped_to_at_least_one() {
        assert_eq!(Engine::with_threads(0).threads(), 1);
        assert_eq!(Engine::serial().threads(), 1);
        assert!(Engine::from_env().threads() >= 1);
    }

    #[test]
    fn par_chunk_map_returns_chunk_order() {
        for threads in [1, 2, 3, 8] {
            for e in engines(threads) {
                let got = e.par_chunk_map(23, |c| c * 10);
                let want: Vec<usize> = (0..23).map(|c| c * 10).collect();
                assert_eq!(got, want, "{e:?}");
            }
        }
    }

    #[test]
    fn par_chunk_map_runs_every_chunk_exactly_once() {
        for e in engines(5) {
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            e.par_chunk_map(97, |c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{e:?}");
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<i64> = (0..1000).collect();
        let want: Vec<i64> = items.iter().map(|x| x * 3 - 1).collect();
        for threads in [1, 2, 7, 16] {
            for e in engines(threads) {
                assert_eq!(e.par_map(&items, |x| x * 3 - 1), want, "{e:?}");
            }
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        for e in engines(4) {
            assert_eq!(e.par_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
            assert_eq!(e.par_map(&[9u8], |&x| x + 1), vec![10]);
        }
    }

    #[test]
    fn par_reduce_merges_in_chunk_order() {
        // String concatenation is associative but *not* commutative, so
        // any out-of-order merge scrambles the result.
        let items: Vec<String> = (0..50).map(|i| format!("{i},")).collect();
        let want: String = items.concat();
        for threads in [1, 2, 7] {
            for e in engines(threads) {
                let got = e.par_reduce(&items, 4, String::new, |acc, s| acc + s, |a, b| a + &b);
                assert_eq!(got, want, "{e:?}");
            }
        }
    }

    #[test]
    fn par_reduce_float_sums_are_bit_identical_across_threads() {
        let items: Vec<f64> = (0..10_001).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let reduce =
            |e: Engine| e.par_reduce(&items, 128, || 0.0f64, |acc, &x| acc + x, |a, b| a + b);
        let t1 = reduce(Engine::serial());
        for threads in [2, 3, 7, 13] {
            for e in engines(threads) {
                assert_eq!(t1.to_bits(), reduce(e).to_bits(), "{e:?}");
            }
        }
    }

    #[test]
    fn par_reduce_of_empty_input_is_init() {
        for e in engines(3) {
            let got = e.par_reduce(&[] as &[u64], 8, || 17u64, |acc, &x| acc + x, |a, b| a + b);
            assert_eq!(got, 17, "{e:?}");
        }
    }

    /// Marker for deliberate test panics; the filtering hook below keeps
    /// them out of test output while leaving real panics visible.
    const POISON: &str = "focal-test-poison";

    /// Installs (once, process-wide) a panic hook that stays silent for
    /// this module's deliberate panics and defers to the default hook for
    /// everything else.
    fn quiet_deliberate_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                if !msg.contains(POISON) {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn try_par_chunk_map_reports_lowest_failing_chunk_at_every_thread_count() {
        quiet_deliberate_panics();
        let failing = [3usize, 11, 17];
        let mut reference: Option<ChunkError> = None;
        for threads in [1, 2, 7, 16] {
            for e in engines(threads) {
                let err = e
                    .try_par_chunk_map(100, 23, |c| {
                        if failing.contains(&c) {
                            panic!("{POISON} chunk {c}");
                        }
                        c
                    })
                    .unwrap_err();
                assert_eq!(err.chunk_index, 3, "{e:?}");
                assert_eq!(err.chunk_seed, chunk_seed(100, 3), "{e:?}");
                assert!(err.payload.contains(POISON), "{e:?}");
                match &reference {
                    None => reference = Some(err),
                    Some(r) => assert_eq!(*r, err, "{e:?}: error not invariant"),
                }
            }
        }
    }

    #[test]
    fn engine_is_reusable_after_a_poisoned_run() {
        quiet_deliberate_panics();
        for e in engines(4) {
            for round in 0..3 {
                let err = e
                    .try_par_chunk_map(0, 16, |c| {
                        if c == 5 {
                            panic!("{POISON} round {round}");
                        }
                        c * 2
                    })
                    .unwrap_err();
                assert_eq!(err.chunk_index, 5, "{e:?}");
                // The very same engine still computes clean runs correctly.
                let ok = e.par_chunk_map(16, |c| c * 2);
                assert_eq!(ok, (0..16).map(|c| c * 2).collect::<Vec<_>>(), "{e:?}");
            }
        }
    }

    #[test]
    fn infallible_ops_resume_with_a_downcastable_chunk_error() {
        quiet_deliberate_panics();
        for e in engines(3) {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.par_chunk_map(10, |c| {
                    if c == 7 {
                        panic!("{POISON} deep");
                    }
                    c
                })
            }))
            .unwrap_err();
            let err = caught
                .downcast_ref::<ChunkError>()
                .expect("payload should be the structured ChunkError");
            assert_eq!(err.chunk_index, 7, "{e:?}");
            assert_eq!(err.chunk_seed, chunk_seed(0, 7), "{e:?}");
        }
    }

    #[test]
    fn try_par_map_chunk_geometry_is_item_count_only() {
        quiet_deliberate_panics();
        // 1000 items → chunk_size 16 → failing item 500 is in chunk 31
        // regardless of thread count.
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 7, 32] {
            for e in engines(threads) {
                let err = e
                    .try_par_map(0, &items, |&x| {
                        if x == 500 {
                            panic!("{POISON} item {x}");
                        }
                        x
                    })
                    .unwrap_err();
                assert_eq!(err.chunk_index, 500 / 16, "{e:?}");
            }
        }
    }

    #[test]
    fn try_par_map_succeeds_like_par_map() {
        let items: Vec<i64> = (0..777).collect();
        let want: Vec<i64> = items.iter().map(|x| x + 1).collect();
        for threads in [1, 2, 7] {
            for e in engines(threads) {
                assert_eq!(e.try_par_map(0, &items, |x| x + 1).unwrap(), want, "{e:?}");
            }
        }
    }

    #[test]
    fn try_par_map_isolated_confines_panic_to_its_item() {
        quiet_deliberate_panics();
        let items: Vec<usize> = (0..300).collect();
        for threads in [1, 2, 4, 7] {
            for e in engines(threads) {
                let slots = e
                    .try_par_map_isolated(5, &items, |&x| {
                        if x == 123 {
                            panic!("{POISON} item {x}");
                        }
                        x * 2
                    })
                    .unwrap();
                assert_eq!(slots.len(), items.len(), "{e:?}");
                for (i, slot) in slots.iter().enumerate() {
                    if i == 123 {
                        let err = slot.as_ref().unwrap_err();
                        // The error's chunk_index is the *item* index, and its
                        // seed is derived from it — both thread-count-invariant.
                        assert_eq!(err.chunk_index, 123, "{e:?}");
                        assert_eq!(err.chunk_seed, chunk_seed(5, 123), "{e:?}");
                        assert!(err.payload.contains("item 123"), "{e:?}");
                    } else {
                        assert_eq!(slot.as_ref().unwrap(), &(i * 2), "{e:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn try_par_map_isolated_all_ok_matches_par_map() {
        let items: Vec<i64> = (0..500).collect();
        let want: Vec<i64> = items.iter().map(|x| x * 7).collect();
        for threads in [1, 3, 8] {
            for e in engines(threads) {
                let got: Vec<i64> = e
                    .try_par_map_isolated(0, &items, |x| x * 7)
                    .unwrap()
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect();
                assert_eq!(got, want, "{e:?}");
            }
        }
    }

    #[test]
    fn try_par_reduce_isolates_fold_panics() {
        quiet_deliberate_panics();
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 7] {
            for e in engines(threads) {
                let err = e
                    .try_par_reduce(
                        9,
                        &items,
                        8,
                        || 0u64,
                        |acc, &x| {
                            if x == 42 {
                                panic!("{POISON} fold");
                            }
                            acc + x
                        },
                        |a, b| a + b,
                    )
                    .unwrap_err();
                // Item 42 lives in chunk 42 / 8 = 5.
                assert_eq!(err.chunk_index, 5, "{e:?}");
                assert_eq!(err.chunk_seed, chunk_seed(9, 5), "{e:?}");
            }
        }
    }

    /// Reference kernel for the `_into` tests: item i gets `c * 1000 + k`
    /// where `c` is its chunk and `k` its offset within the chunk.
    fn fill_unit(chunk_size: usize, c0: usize, slice: &mut [usize]) {
        for (j, v) in slice.iter_mut().enumerate() {
            *v = (c0 + j / chunk_size) * 1000 + j % chunk_size;
        }
    }

    #[test]
    fn try_par_chunk_map_into_writes_logical_order_at_every_thread_count() {
        // 10 chunks of 8 with a short tail, grouped 3 chunks per unit
        // (last unit short too).
        let total = 9 * 8 + 5;
        let want: Vec<usize> = (0..total).map(|i| (i / 8) * 1000 + i % 8).collect();
        for threads in [1, 2, 3, 7] {
            for e in engines(threads) {
                let got = e
                    .try_par_chunk_map_into(0, total, 8, 3, usize::MAX, |c0, s| fill_unit(8, c0, s))
                    .unwrap();
                assert_eq!(got, want, "{e:?}");
            }
        }
    }

    #[test]
    fn try_par_chunk_map_into_handles_degenerate_shapes() {
        for e in engines(4) {
            // Empty workload: no units, empty output.
            let empty = e
                .try_par_chunk_map_into(0, 0, 8, 3, 0usize, |_, _| unreachable!())
                .unwrap();
            assert!(empty.is_empty());
            // Single short chunk, group larger than the chunk count.
            let got = e
                .try_par_chunk_map_into(0, 5, 8, 4, 0usize, |c0, s| fill_unit(8, c0, s))
                .unwrap();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn try_par_chunk_map_into_panic_reports_units_first_chunk() {
        quiet_deliberate_panics();
        // 12 chunks, group 4 → units {0..4}, {4..8}, {8..12}. A panic
        // while unit 1 runs is attributed to its first chunk, 4.
        for threads in [1, 2, 7] {
            for e in engines(threads) {
                let err = e
                    .try_par_chunk_map_into(9, 12 * 8, 8, 4, 0usize, |c0, s| {
                        if c0 == 4 {
                            panic!("{POISON} unit at {c0}");
                        }
                        fill_unit(8, c0, s);
                    })
                    .unwrap_err();
                assert_eq!(err.chunk_index, 4, "{e:?}");
                assert_eq!(err.chunk_seed, chunk_seed(9, 4), "{e:?}");
                assert!(err.payload.contains(POISON), "{e:?}");
            }
        }
    }

    /// An engine carrying a leaked `panic@<site>:<chunk>` plan, at `site`.
    fn faulted(threads: usize, spec: &str, site: &'static str) -> Engine {
        let plan = FaultPlan::parse(spec).unwrap().leak();
        Engine::with_threads(threads)
            .with_faults(Some(plan))
            .at_site(site)
    }

    #[test]
    fn try_par_chunk_map_into_injected_fault_names_exact_chunk_inside_unit() {
        // Chunk 6 sits in the middle of unit {4..8}: the injection check
        // must attribute it to chunk 6, not the unit's first chunk 4.
        let e = faulted(3, "panic@into-test:6", "into-test");
        for e in [e, eager(e)] {
            let err = e
                .try_par_chunk_map_into(7, 12 * 8, 8, 4, 0usize, |c0, s| fill_unit(8, c0, s))
                .unwrap_err();
            assert_eq!(err.chunk_index, 6, "{e:?}");
            assert_eq!(err.chunk_seed, chunk_seed(7, 6), "{e:?}");
            assert!(err.payload.contains("injected fault: panic@into-test:6"));
        }
    }

    #[test]
    fn engine_is_reusable_after_a_poisoned_into_run() {
        quiet_deliberate_panics();
        for e in engines(4) {
            let err = e
                .try_par_chunk_map_into(0, 16 * 4, 4, 2, 0usize, |c0, s| {
                    if c0 == 6 {
                        panic!("{POISON} into");
                    }
                    fill_unit(4, c0, s);
                })
                .unwrap_err();
            assert_eq!(err.chunk_index, 6, "{e:?}");
            let want: Vec<usize> = (0..16 * 4).map(|i| (i / 4) * 1000 + i % 4).collect();
            let ok = e
                .try_par_chunk_map_into(0, 16 * 4, 4, 2, 0usize, |c0, s| fill_unit(4, c0, s))
                .unwrap();
            assert_eq!(ok, want, "{e:?}");
        }
    }

    #[test]
    fn injected_chunk_faults_surface_as_chunk_errors() {
        let engine = faulted(3, "panic@unit-test:4", "unit-test");
        for engine in [engine, eager(engine)] {
            let err = engine.try_par_chunk_map(7, 10, |c| c).unwrap_err();
            assert_eq!(err.chunk_index, 4, "{engine:?}");
            assert_eq!(err.chunk_seed, chunk_seed(7, 4), "{engine:?}");
            assert!(err.payload.contains("injected fault: panic@unit-test:4"));
            // The plan fires only at its own site and only on the engine
            // that carries it.
            for other in [engine.at_site("other"), engine.with_faults(None)] {
                assert!(other.try_par_chunk_map(7, 10, |c| c).is_ok(), "{other:?}");
            }
        }
    }

    #[test]
    fn a_max_budget_runs_every_chunk_on_the_calling_thread() {
        let e = Engine {
            budget: Duration::MAX,
            ..Engine::with_threads(4)
        };
        let me = std::thread::current().id();
        let ran = e.par_chunk_map(100, |_| std::thread::current().id());
        assert!(ran.iter().all(|&t| t == me));
    }

    #[test]
    fn past_the_budget_the_caller_works_beside_threads_minus_one_helpers() {
        // Each chunk waits (up to a timeout) until all three have started,
        // so the three run at once: chunk 0 heads the caller's own range,
        // and each helper is busy with its own chunk until then.
        let started = AtomicUsize::new(0);
        let ran = eager(Engine::with_threads(3)).par_chunk_map(3, |_| {
            started.fetch_add(1, Ordering::AcqRel);
            let waiting = Instant::now();
            while started.load(Ordering::Acquire) < 3 && waiting.elapsed() < Duration::from_secs(10)
            {
                std::hint::spin_loop();
            }
            std::thread::current().id()
        });
        assert_eq!(ran[0], std::thread::current().id());
        assert!(
            ran[1] != ran[0] && ran[2] != ran[0] && ran[1] != ran[2],
            "{ran:?}"
        );
    }

    #[test]
    fn a_recorded_failure_keeps_the_remaining_chunks_inline() {
        // Past the budget, with a failure already recorded: the chunks
        // left would only be skipped, so no helper is spawned for them.
        let failed = AtomicUsize::new(0);
        let me = std::thread::current().id();
        let ran = eager(Engine::with_threads(4))
            .schedule(50, &failed, |c| (c, std::thread::current().id()));
        assert_eq!(ran.len(), 50);
        assert!(ran.iter().enumerate().all(|(i, &(c, t))| i == c && t == me));
    }

    proptest! {
        /// Whatever the budget and the worker count, and wherever a failing
        /// chunk falls — in the inline prefix or in the helpers' remainder
        /// — a fan-out returns exactly what the serial engine returns, and
        /// runs each chunk up to the lowest failure exactly once.
        #[test]
        fn every_budget_and_split_matches_the_serial_run(
            budget_pick in 0usize..3,
            threads_pick in 0usize..4,
            n_chunks in 0usize..=200,
            split_frac in 0.0f64..=1.0,
            fail_pick in 0usize..3,
            fail_frac in 0.0f64..1.0,
        ) {
            quiet_deliberate_panics();
            let budget = [Duration::ZERO, Duration::from_micros(20), Duration::MAX][budget_pick];
            let threads = [1, 2, 3, 7][threads_pick];
            // Chunks below `split` run inline: the chunk before it spins
            // past the budget (the other chunks are far quicker than it),
            // so the split falls at the first clock read after it.
            let split = match budget_pick {
                0 => 0,
                1 => (split_frac * n_chunks as f64) as usize,
                _ => n_chunks,
            };
            let pick = |lo: usize, hi: usize| lo + (fail_frac * (hi - lo) as f64) as usize;
            let failing = match fail_pick {
                1 if split > 0 => Some(pick(0, split)),
                2 if split < n_chunks => Some(pick(split, n_chunks)),
                _ => None,
            };
            let runs: Vec<AtomicUsize> = (0..n_chunks).map(|_| AtomicUsize::new(0)).collect();
            let chunk = |c: usize| {
                runs[c].fetch_add(1, Ordering::Relaxed);
                if c + 1 == split && budget_pick == 1 {
                    let spun = Instant::now();
                    while spun.elapsed() <= budget {
                        std::hint::spin_loop();
                    }
                }
                if Some(c) == failing {
                    panic!("{POISON} chunk {c}");
                }
                c * 3 + 1
            };
            let e = Engine {
                budget,
                ..Engine::with_threads(threads)
            };
            let got = e.try_par_chunk_map(11, n_chunks, chunk);
            let counts: Vec<usize> = runs.iter().map(|r| r.swap(0, Ordering::Relaxed)).collect();
            prop_assert_eq!(got, Engine::serial().try_par_chunk_map(11, n_chunks, chunk));
            let must_run = failing.map_or(n_chunks, |f| f + 1);
            prop_assert!(counts.iter().take(must_run).all(|&n| n == 1), "{counts:?}");
            prop_assert!(counts.iter().all(|&n| n <= 1), "{counts:?}");
        }
    }

    #[test]
    fn from_env_parses_focal_threads() {
        // Env mutation is process-global; this test is the only place the
        // engine crate touches the variable, and it restores the prior
        // state before returning.
        let prior = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Engine::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(Engine::from_env().threads() >= 1);
        std::env::set_var(THREADS_ENV, "0");
        assert!(Engine::from_env().threads() >= 1);
        match prior {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }
}
