//! The scoped-thread work-stealing pool behind [`Engine`].
//!
//! Every fan-out cuts one output buffer into *work units* of one or more
//! chunks. Scheduling: a fan-out first runs units on the calling thread,
//! in index order. Only once it has run for [`SPAWN_BUDGET`] does it split
//! the remaining unit indices into one contiguous [`StealRange`] per
//! worker, spawn `threads − 1` scoped helpers and take worker 0's range
//! itself. A worker pops units from the *front* of its own range; when
//! the range drains it steals a unit from the *back* of the most loaded
//! victim's range. Both ends are manipulated with a single packed
//! compare-and-swap, so the scheduler is lock-free and never blocks a
//! worker that still has work. No queue ever *gains* units, so one full
//! empty scan is a correct termination proof.
//!
//! Determinism does not depend on any of this: every work unit writes
//! its own disjoint slice of one output buffer, so where and when a unit
//! runs never changes where its result lands, and nothing is merged.

use crate::fault::{self, ChunkError, FaultPlan};
use std::panic::AssertUnwindSafe;
use std::slice::ChunksMut;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Environment variable selecting the worker count (any positive integer).
pub const THREADS_ENV: &str = "FOCAL_THREADS";

/// Chunk-count target for the internal geometry of [`Engine::try_par_map`]
/// and [`Engine::try_par_map_isolated`].
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
/// with about one effective core: an empty 30-item `par_map` (now
/// [`Engine::try_par_map`]) took ≈90 µs at 2 threads when every fan-out
/// spawned, against ≈3 µs at 1; a suite run makes 12 fan-outs whose
/// median is 9 µs and whose longest is 0.26 ms at the median. In 500 quiet runs one fan-out passed 1 ms
/// (3.8 ms) and with two CPU-bound processes competing 8 of 400 runs did
/// (4.4 ms at most); none reached 5 ms. Wall-clock time counts time the
/// host steals, so a stalled fan-out may still cross the budget, at the
/// cost of one spawn. Fan-outs that outlast it, such as the Monte-Carlo
/// draws of `suite --samples 1048576`, still spread over the workers.
/// DESIGN.md §9 has the measurements.
pub const SPAWN_BUDGET: Duration = Duration::from_millis(5);

/// Most work units a fan-out runs between two reads of the clock while
/// it is inside [`SPAWN_BUDGET`]. A read costs ≈50 ns on the VM above, as
/// much as many whole units; a suite run's crossovers stage, hundreds
/// of such units, took ≈40 µs longer when every unit read it.
const CLOCK_STRIDE: usize = 16;

/// A contiguous range of unit indices `[start, end)` packed into one
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

    /// Number of units currently queued (racy snapshot, used only for
    /// victim selection).
    fn len(&self) -> u32 {
        let (s, e) = unpack(self.bits.load(Ordering::Relaxed));
        e.saturating_sub(s)
    }

    /// Pops the front unit (owner side).
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

    /// Steals the back unit (thief side).
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

    /// Maps `f` over `items`, preserving item order in the output.
    ///
    /// Chunk geometry is internal and derived from the item count **only**
    /// (see [`PAR_MAP_CHUNKS`]): item `i` belongs to chunk
    /// `i / ceil(len / 64)`, so the output and the chunk a failing item is
    /// reported under are the same at every thread count. Each chunk
    /// writes its items straight into the output.
    ///
    /// # Errors
    ///
    /// Returns the [`ChunkError`] of the lowest failing chunk if `f`
    /// panics for any item or the engine's fault plan targets a chunk
    /// (see [`Engine::try_par_chunk_map_into`]).
    pub fn try_par_map<T, R, F>(&self, seed: u64, items: &[T], f: F) -> Result<Vec<R>, ChunkError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_items(seed, items, |_, item| f(item))
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
    /// is that of [`Engine::try_par_map`].
    ///
    /// # Errors
    ///
    /// The outer `Result` fails only when the engine's
    /// [`FaultPlan`] targets a chunk of this call (genuine
    /// panics never escape the per-item isolation); the error names the
    /// lowest injected chunk, exactly like [`Engine::try_par_map`].
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
        self.map_items(seed, items, |i, item| {
            // AssertUnwindSafe: a poisoned item contributes only its
            // ChunkError; its partial state is never observed.
            std::panic::catch_unwind(AssertUnwindSafe(|| f(item)))
                .map_err(|p| chunk_error(seed, i, fault::payload_to_string(p.as_ref())))
        })
    }

    /// Chunked map that writes results **directly into one preallocated
    /// output buffer** of `total` items, initialized with `fill`.
    ///
    /// The item space `0..total` is cut into chunks of `chunk_size`
    /// (the last may be short), and chunks are handed to workers in
    /// *work units* of `group` consecutive chunks: `f(c0, slice)`
    /// receives the index of the unit's first chunk and the mutable
    /// output slice covering items `c0 * chunk_size ..` for the whole
    /// unit. Batch kernels use `group > 1` to process several chunk
    /// streams in lockstep; `group == 1` degenerates to one chunk per
    /// call, and `chunk_size == 1` makes chunk index equal item index.
    /// The output is always in logical item order — the unit
    /// decomposition is invisible in the result, so the buffer is
    /// identical at every thread count and every `group`ing for a
    /// per-chunk-deterministic `f`. On success every item has been
    /// overwritten by `f` (units cover `0..total` exactly).
    ///
    /// Every unit runs inside [`std::panic::catch_unwind`], so a
    /// panicking unit *poisons* its chunk instead of unwinding through
    /// the workers. Before a unit's kernel runs, every chunk in the unit
    /// is checked against the engine's fault plan in ascending order, so
    /// an injected fault reports its exact `chunk_index` /
    /// [`chunk_seed`]. A genuine panic in `f` cannot be attributed more
    /// precisely than the unit that raised it and is reported against
    /// the unit's first chunk `c0`. (So a genuine panic in an *earlier*
    /// chunk of the same unit as a *later* injected fault reports the
    /// injected chunk.)
    ///
    /// The reported failure is the **lowest failing chunk**, which makes
    /// the error thread-count invariant: whichever chunk happens to fail
    /// *first in time*, the reported chunk is the same at
    /// `FOCAL_THREADS=1` and `=64`. Once a failure is recorded, units
    /// whose first chunk lies above the lowest failure so far are
    /// skipped (their results could never be observed), while every
    /// unit below it still runs, so a lower failure is never missed.
    /// Worker threads always join; the engine is fully reusable after a
    /// poisoned run.
    ///
    /// `seed` is threaded into the error for reproduction only (it is the
    /// base the failing chunk's RNG seed is derived from); pass 0 for
    /// non-randomized workloads.
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
        let mut out = vec![fill; total];
        self.fill_units(seed, &mut out, chunk_size, group, f)?;
        Ok(out)
    }

    /// The item maps' shared body: `f(index, item)` for every item,
    /// written chunk by chunk (geometry per [`PAR_MAP_CHUNKS`]) into one
    /// slot per item.
    fn map_items<T, R, F>(&self, seed: u64, items: &[T], f: F) -> Result<Vec<R>, ChunkError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let chunk_size = items.len().div_ceil(PAR_MAP_CHUNKS).max(1);
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        self.fill_units(seed, &mut slots, chunk_size, 1, |c, out| {
            let lo = c * chunk_size;
            let chunk = items.get(lo..).unwrap_or_default();
            for ((i, item), slot) in (lo..).zip(chunk).zip(out) {
                *slot = Some(f(i, item));
            }
        })?;
        // Every unit ran and wrote all its slots; report a gap
        // structurally rather than trusting that blindly.
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.ok_or(i))
            .collect::<Result<Vec<R>, usize>>()
            .map_err(|i| {
                let payload = "item left unwritten (scheduler invariant violated)";
                chunk_error(seed, i / chunk_size, payload.to_string())
            })
    }

    /// The one fan-out core: cuts `out` into work units of `group` chunks
    /// of `chunk_size` items and runs `f(c0, unit)` once per unit, where
    /// `c0` is the unit's first chunk and `unit` its own slice of `out`,
    /// under the isolation and lowest-failure rules documented on
    /// [`Engine::try_par_chunk_map_into`]. The lowest failing chunk's
    /// error is kept by a minimum, so nothing is collected or merged.
    fn fill_units<R, F>(
        &self,
        seed: u64,
        out: &mut [R],
        chunk_size: usize,
        group: usize,
        f: F,
    ) -> Result<(), ChunkError>
    where
        R: Send,
        F: Fn(usize, &mut [R]) + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let group = group.max(1);
        let n_chunks = chunk_count(out.len(), chunk_size);
        let first_fail = AtomicUsize::new(usize::MAX);
        let error: Mutex<Option<ChunkError>> = Mutex::new(None);
        let fail = |c: usize, payload: String| {
            first_fail.fetch_min(c, Ordering::AcqRel);
            let mut kept = error.lock().unwrap_or_else(PoisonError::into_inner);
            if kept.as_ref().map_or(true, |e| c < e.chunk_index) {
                *kept = Some(chunk_error(seed, c, payload));
            }
        };
        let units = out.chunks_mut(chunk_size * group);
        let broken = self.schedule(units, &first_fail, |u, unit| {
            let c0 = u * group;
            if c0 > first_fail.load(Ordering::Acquire) {
                return;
            }
            // Ascending per-chunk injection check: exact chunk attribution.
            let injected = (c0..(c0 + group).min(n_chunks))
                .find_map(|c| Some((c, self.injected_chunk_fault(c)?)));
            if let Some((c, payload)) = injected {
                return fail(c, payload);
            }
            // AssertUnwindSafe: on unwind only the ChunkError escapes; the
            // caller never sees the partly written buffer.
            if let Err(p) = std::panic::catch_unwind(AssertUnwindSafe(|| f(c0, unit))) {
                fail(c0, fault::payload_to_string(p.as_ref()));
            }
        });
        if let Some(u) = broken {
            let payload = "unit's output slice taken twice or never (scheduler invariant violated)";
            fail(u * group, payload.to_string());
        }
        error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .map_or(Ok(()), Err)
    }

    /// The scheduler: runs `run(u, unit)` exactly once for each unit `u`
    /// of `units`. `run` must not unwind ([`Engine::fill_units`] isolates
    /// each unit first).
    ///
    /// Units run on the calling thread, in index order, until the call
    /// has run for this engine's budget (checked every 1 to
    /// [`CLOCK_STRIDE`] units). The units left then go to `threads − 1`
    /// scoped helpers, with the caller working alongside them; each of
    /// those slices waits behind its own lock, taken once. `first_fail`
    /// is the caller's lowest recorded failure (`usize::MAX` while none):
    /// once a unit has failed, every unit left would only be skipped, so
    /// they stay inline. Returns the lowest unit whose slice was taken
    /// twice or never, which a correct scheduler never does.
    fn schedule<R, F>(
        &self,
        mut units: ChunksMut<'_, R>,
        first_fail: &AtomicUsize,
        run: F,
    ) -> Option<usize>
    where
        R: Send,
        F: Fn(usize, &mut [R]) + Sync,
    {
        let n_units = units.len();
        // The packed scheduler indexes units with u32; workloads beyond
        // 2^32 units are out of scope (that is ≥ 2^32 items) — fall back
        // to the serial path rather than mis-schedule.
        if self.threads == 1 || n_units <= 1 || n_units > u32::MAX as usize {
            units.enumerate().for_each(|(u, unit)| run(u, unit));
            return None;
        }

        // A clock read costs about as much as a small unit, so the clock
        // is read before unit 0 and then after as many units as would
        // fill half the budget left at the pace so far (1 to
        // CLOCK_STRIDE): small units pay one read per CLOCK_STRIDE, and
        // a fan-out passes the budget by about one unit.
        let started = Instant::now();
        let (mut done, mut next_read) = (0, 0);
        while done < n_units {
            if done == next_read {
                let spent = started.elapsed();
                if spent < self.budget {
                    let left = (self.budget - spent).as_nanos();
                    let fit = left * done as u128 / (2 * spent.as_nanos()).max(1);
                    next_read = done + fit.clamp(1, CLOCK_STRIDE as u128) as usize;
                } else if first_fail.load(Ordering::Acquire) == usize::MAX {
                    break;
                } else {
                    // A unit failed: the rest are only skipped, here.
                    next_read = n_units;
                }
            }
            if let Some(unit) = units.next() {
                run(done, unit);
            }
            done += 1;
        }
        let workers = self.threads.min(n_units - done);
        if workers <= 1 {
            (done..).zip(units).for_each(|(u, unit)| run(u, unit));
            return None;
        }

        // One lock per remaining slice (taken once, never contended) lets
        // disjoint `&mut` slices reach the helpers without unsafe
        // aliasing claims.
        let slots: Vec<Mutex<Option<&mut [R]>>> = units.map(|s| Mutex::new(Some(s))).collect();
        let per = (n_units - done) / workers;
        let extra = (n_units - done) % workers;
        // Partition the remaining units into one contiguous range per
        // worker (the first `extra` workers take one more unit).
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

        let broken = AtomicUsize::new(usize::MAX);
        let claim = |u: u32| {
            let u = u as usize;
            let slot = u.checked_sub(done).and_then(|i| slots.get(i));
            match slot.and_then(|s| s.lock().unwrap_or_else(PoisonError::into_inner).take()) {
                Some(unit) => run(u, unit),
                None => {
                    broken.fetch_min(u, Ordering::AcqRel);
                }
            }
        };
        let work = |me: usize| loop {
            // Drain our own range from the front…
            if let Some(u) = queues.get(me).and_then(StealRange::pop_front) {
                claim(u);
                continue;
            }
            // …then steal single units from the back of the most loaded
            // victim. Queues never refill, so a fully empty scan means all
            // work is done or in flight elsewhere.
            let victim = queues
                .iter()
                .enumerate()
                .filter(|&(v, q)| v != me && q.len() > 0)
                .max_by_key(|&(_, q)| q.len())
                .map(|(_, q)| q);
            match victim.and_then(StealRange::steal_back) {
                Some(u) => claim(u),
                None => return,
            }
        };
        std::thread::scope(|scope| {
            let work = &work;
            for me in 1..workers {
                scope.spawn(move || work(me));
            }
            // The caller is worker 0 rather than idling until the join.
            work(0);
        });
        let unclaimed = slots
            .iter()
            .position(|s| s.lock().unwrap_or_else(PoisonError::into_inner).is_some());
        if let Some(i) = unclaimed {
            broken.fetch_min(done + i, Ordering::AcqRel);
        }
        Some(broken.into_inner()).filter(|&u| u != usize::MAX)
    }
}

/// The [`ChunkError`] of chunk `chunk` in a fan-out seeded with `seed`.
fn chunk_error(seed: u64, chunk: usize, payload: String) -> ChunkError {
    ChunkError {
        chunk_index: chunk,
        chunk_seed: chunk_seed(seed, chunk),
        payload,
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
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;

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

    /// `f(0), …, f(n − 1)` through [`Engine::try_par_chunk_map_into`] as
    /// `n` one-item chunks, so chunk index and item index coincide.
    fn chunk_map<R: Clone + Send>(
        e: Engine,
        seed: u64,
        n: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Result<Vec<R>, ChunkError> {
        let slots = e.try_par_chunk_map_into(seed, n, 1, 1, None, |c, out| out.fill(Some(f(c))))?;
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every chunk wrote its item"))
            .collect())
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
                let got = chunk_map(e, 0, 23, |c| c * 10).unwrap();
                let want: Vec<usize> = (0..23).map(|c| c * 10).collect();
                assert_eq!(got, want, "{e:?}");
            }
        }
    }

    #[test]
    fn par_chunk_map_runs_every_chunk_exactly_once() {
        for e in engines(5) {
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            chunk_map(e, 0, 97, |c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{e:?}");
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<i64> = (0..1000).collect();
        let want: Vec<i64> = items.iter().map(|x| x * 3 - 1).collect();
        for threads in [1, 2, 7, 16] {
            for e in engines(threads) {
                assert_eq!(
                    e.try_par_map(0, &items, |x| x * 3 - 1).unwrap(),
                    want,
                    "{e:?}"
                );
            }
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        for e in engines(4) {
            assert_eq!(
                e.try_par_map(0, &[] as &[u8], |&x| x).unwrap(),
                Vec::<u8>::new()
            );
            assert_eq!(e.try_par_map(0, &[9u8], |&x| x + 1).unwrap(), vec![10]);
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
                if !msg.contains(POISON) && !info.payload().is::<FailedSignal>() {
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
                let err = chunk_map(e, 100, 23, |c| {
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
                let err = chunk_map(e, 0, 16, |c| {
                    if c == 5 {
                        panic!("{POISON} round {round}");
                    }
                    c * 2
                })
                .unwrap_err();
                assert_eq!(err.chunk_index, 5, "{e:?}");
                // The very same engine still computes clean runs correctly.
                let ok = chunk_map(e, 0, 16, |c| c * 2).unwrap();
                assert_eq!(ok, (0..16).map(|c| c * 2).collect::<Vec<_>>(), "{e:?}");
            }
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
            let err = chunk_map(engine, 7, 10, |c| c).unwrap_err();
            assert_eq!(err.chunk_index, 4, "{engine:?}");
            assert_eq!(err.chunk_seed, chunk_seed(7, 4), "{engine:?}");
            assert!(err.payload.contains("injected fault: panic@unit-test:4"));
            // The plan fires only at its own site and only on the engine
            // that carries it.
            for other in [engine.at_site("other"), engine.with_faults(None)] {
                assert!(chunk_map(other, 7, 10, |c| c).is_ok(), "{other:?}");
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
        let ran = chunk_map(e, 0, 100, |_| std::thread::current().id()).unwrap();
        assert!(ran.iter().all(|&t| t == me));
    }

    #[test]
    fn past_the_budget_the_caller_works_beside_threads_minus_one_helpers() {
        // Each chunk waits (up to a timeout) until all three have started,
        // so the three run at once: chunk 0 heads the caller's own range,
        // and each helper is busy with its own chunk until then.
        let started = AtomicUsize::new(0);
        let ran = chunk_map(eager(Engine::with_threads(3)), 0, 3, |_| {
            started.fetch_add(1, Ordering::AcqRel);
            let waiting = Instant::now();
            while started.load(Ordering::Acquire) < 3 && waiting.elapsed() < Duration::from_secs(10)
            {
                std::hint::spin_loop();
            }
            std::thread::current().id()
        })
        .unwrap();
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
        let mut ran = vec![None; 50];
        let broken = eager(Engine::with_threads(4)).schedule(ran.chunks_mut(1), &failed, |c, s| {
            s.fill(Some((c, std::thread::current().id())));
        });
        assert_eq!(broken, None);
        assert!(ran.iter().enumerate().all(|(i, &r)| r == Some((i, me))));
    }

    /// A panic payload that raises its flag when dropped: the engine
    /// drops a caught payload once it has recorded that failure.
    struct FailedSignal(Arc<AtomicBool>);

    impl Drop for FailedSignal {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    #[test]
    fn a_lower_failure_replaces_a_higher_one_recorded_first() {
        quiet_deliberate_panics();
        // Past a zero budget, chunk 0 heads the caller's range and chunk 1
        // the helper's. Chunk 1 fails first; chunk 0 waits (up to a
        // timeout) until that failure is recorded, then fails too.
        let e = eager(Engine::with_threads(2));
        let failed = Arc::new(AtomicBool::new(false));
        let err = e
            .try_par_chunk_map_into(3, 2, 1, 1, 0usize, |c, _| {
                if c == 1 {
                    std::panic::panic_any(FailedSignal(Arc::clone(&failed)));
                }
                let waiting = Instant::now();
                while !failed.load(Ordering::Acquire) && waiting.elapsed() < Duration::from_secs(10)
                {
                    std::hint::spin_loop();
                }
                panic!("{POISON} chunk {c}");
            })
            .unwrap_err();
        assert!(failed.load(Ordering::Acquire), "chunk 1 never failed");
        assert_eq!(err.chunk_index, 0);
        assert_eq!(err.chunk_seed, chunk_seed(3, 0));
        assert!(err.payload.contains(POISON), "{err}");
    }

    proptest! {
        /// Whatever the budget, the worker count and the unit shape, and
        /// wherever a failing unit falls — in the inline prefix or in the
        /// helpers' remainder — a fan-out returns exactly what the serial
        /// engine returns, and runs each unit up to the lowest failure
        /// exactly once.
        #[test]
        fn every_budget_and_split_matches_the_serial_run(
            budget_pick in 0usize..3,
            threads_pick in 0usize..4,
            n_chunks in 0usize..=200,
            chunk_size in 1usize..=5,
            short_tail in 0usize..5,
            group in 1usize..=8,
            split_frac in 0.0f64..=1.0,
            fail_pick in 0usize..3,
            fail_frac in 0.0f64..1.0,
        ) {
            quiet_deliberate_panics();
            let budget = [Duration::ZERO, Duration::from_micros(20), Duration::MAX][budget_pick];
            let threads = [1, 2, 3, 7][threads_pick];
            // `n_chunks` chunks, the last one possibly short.
            let total = (n_chunks * chunk_size).saturating_sub(short_tail % chunk_size);
            let n_units = chunk_count(n_chunks, group);
            // Units below `split` run inline: the unit before it spins
            // past the budget (the other units are far quicker than it),
            // so the split falls at the first clock read after it.
            let split = match budget_pick {
                0 => 0,
                1 => (split_frac * n_units as f64) as usize,
                _ => n_units,
            };
            let pick = |lo: usize, hi: usize| lo + (fail_frac * (hi - lo) as f64) as usize;
            let failing = match fail_pick {
                1 if split > 0 => Some(pick(0, split)),
                2 if split < n_units => Some(pick(split, n_units)),
                _ => None,
            };
            let runs: Vec<AtomicUsize> = (0..n_units).map(|_| AtomicUsize::new(0)).collect();
            let unit = |c0: usize, s: &mut [usize]| {
                let u = c0 / group;
                runs[u].fetch_add(1, Ordering::Relaxed);
                if u + 1 == split && budget_pick == 1 {
                    let spun = Instant::now();
                    while spun.elapsed() <= budget {
                        std::hint::spin_loop();
                    }
                }
                if Some(u) == failing {
                    panic!("{POISON} unit {u}");
                }
                fill_unit(chunk_size, c0, s);
            };
            let e = Engine {
                budget,
                ..Engine::with_threads(threads)
            };
            let got = e.try_par_chunk_map_into(11, total, chunk_size, group, usize::MAX, unit);
            let counts: Vec<usize> = runs.iter().map(|r| r.swap(0, Ordering::Relaxed)).collect();
            let want =
                Engine::serial().try_par_chunk_map_into(11, total, chunk_size, group, usize::MAX, unit);
            prop_assert_eq!(got, want);
            let must_run = failing.map_or(n_units, |f| f + 1);
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
