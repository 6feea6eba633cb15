//! Property tests for the engine's scheduling invariants: whatever the
//! item count, chunk size and thread count, every item is processed
//! exactly once and in order.

use focal_engine::{chunk_count, chunk_seed, Engine};
use proptest::prelude::*;

proptest! {
    /// `try_par_map` is the identity on indices: no item is lost,
    /// duplicated or reordered at any thread count.
    #[test]
    fn par_map_never_loses_or_duplicates_items(
        n in 0usize..2000,
        threads in 1usize..12,
    ) {
        let items: Vec<usize> = (0..n).collect();
        let engine = Engine::with_threads(threads);
        let mapped = engine.try_par_map(0, &items, |&x| x).expect("nothing fails");
        prop_assert_eq!(mapped, items);
    }

    /// One-item chunks through `try_par_chunk_map_into` visit each chunk
    /// index exactly once and land in chunk order, for arbitrary chunk
    /// counts and threads.
    #[test]
    fn par_chunk_map_covers_each_chunk_exactly_once(
        n_chunks in 0usize..300,
        threads in 1usize..12,
    ) {
        let engine = Engine::with_threads(threads);
        let visited = engine
            .try_par_chunk_map_into(0, n_chunks, 1, 1, usize::MAX, |c, out| out.fill(c))
            .expect("nothing fails");
        let expected: Vec<usize> = (0..n_chunks).collect();
        prop_assert_eq!(visited, expected);
    }

    /// Chunk geometry is a pure function of item count and chunk size:
    /// every item index lands in exactly one chunk, and the last chunk is
    /// never empty.
    #[test]
    fn chunk_geometry_partitions_the_items(
        items in 0usize..100_000,
        chunk_size in 1usize..5000,
    ) {
        let n = chunk_count(items, chunk_size);
        prop_assert!(n * chunk_size >= items, "chunks must cover all items");
        if items > 0 {
            prop_assert!((n - 1) * chunk_size < items, "last chunk must be non-empty");
        } else {
            prop_assert_eq!(n, 0);
        }
    }

    /// Chunk seeds are distinct for distinct chunks of one run (no seed
    /// collision within any realistic chunk count).
    #[test]
    fn chunk_seeds_are_distinct_within_a_run(
        seed in any::<u64>(),
        a in 0usize..1_000_000,
        b in 0usize..1_000_000,
    ) {
        if a != b {
            prop_assert_ne!(chunk_seed(seed, a), chunk_seed(seed, b));
        }
    }
}
