//! Property tests for the fault-tolerance contract: whichever chunks
//! panic and however many worker threads are racing, the reported
//! [`ChunkError`] is bit-identical to the serial run's — lowest failing
//! chunk index, matching chunk seed, matching payload — and the engine
//! is fully reusable afterwards (no poisoned locks, no leaked workers).

use focal_engine::{chunk_seed, ChunkError, Engine};
use proptest::prelude::*;
use std::sync::Once;

/// Marker embedded in every deliberate test panic so the filtered hook
/// below can tell them apart from real failures.
const POISON: &str = "focal-test-poison";

/// Silences the default panic hook for deliberate poison panics only;
/// genuine assertion failures still print normally.
fn quiet_deliberate_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(POISON))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(POISON));
            if !quiet {
                default(info);
            }
        }));
    });
}

proptest! {
    /// The reported failure is thread-count invariant: for any set of
    /// failing chunks, every thread count reports the same (lowest)
    /// failing chunk with the same seed and payload.
    #[test]
    fn chunk_errors_are_bit_identical_across_thread_counts(
        n_chunks in 1usize..120,
        seed in any::<u64>(),
        fail_a in 0usize..120,
        fail_b in 0usize..120,
    ) {
        quiet_deliberate_panics();
        let failing = [fail_a % n_chunks, fail_b % n_chunks];
        let run = |threads: usize| -> Result<Vec<usize>, ChunkError> {
            Engine::with_threads(threads).try_par_chunk_map_into(seed, n_chunks, 1, 1, 0, |c, out| {
                if failing.contains(&c) {
                    panic!("{POISON} chunk {c}");
                }
                out.fill(c);
            })
        };
        let expected_chunk = *failing.iter().min().expect("non-empty");
        let reference = run(1).expect_err("a chunk always fails");
        prop_assert_eq!(reference.chunk_index, expected_chunk);
        prop_assert_eq!(reference.chunk_seed, chunk_seed(seed, expected_chunk));
        prop_assert!(reference.payload.contains(POISON));
        for threads in [2usize, 7] {
            let err = run(threads).expect_err("a chunk always fails");
            prop_assert_eq!(&err, &reference, "{} threads", threads);
        }
    }

    /// A poisoned run leaves no residue: the same engine value runs a
    /// clean workload to completion immediately afterwards, at any
    /// thread count.
    #[test]
    fn engine_survives_poisoned_runs_back_to_back(
        n_chunks in 1usize..80,
        failing in 0usize..80,
        threads in 1usize..12,
    ) {
        quiet_deliberate_panics();
        let failing = failing % n_chunks;
        let engine = Engine::with_threads(threads);
        let err = engine
            .try_par_chunk_map_into(3, n_chunks, 1, 1, 0, |c, out| {
                if c == failing {
                    panic!("{POISON}");
                }
                out.fill(c);
            })
            .expect_err("chunk always fails");
        prop_assert_eq!(err.chunk_index, failing);
        let clean = engine
            .try_par_chunk_map_into(3, n_chunks, 1, 1, 0, |c, out| out.fill(c))
            .expect("clean run");
        let expected: Vec<usize> = (0..n_chunks).collect();
        prop_assert_eq!(clean, expected);
    }
}
