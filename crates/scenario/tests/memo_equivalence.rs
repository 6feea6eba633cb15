//! Memo-on vs memo-off equivalence over the entire shipped scenario
//! corpus: every twin must produce byte-identical output bytes and
//! digests whether or not a sweep memo is threaded through the batch,
//! at more than one thread count, and regardless of how warm the memo
//! already is.

use focal_core::SweepMemo;
use focal_engine::Engine;
use focal_scenario::{evaluate_all_on, evaluate_all_with, load_dir};
use std::path::Path;

fn shipped_scenarios() -> Vec<focal_scenario::CompiledScenario> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/scenarios");
    load_dir(&dir).expect("shipped scenario corpus loads")
}

#[test]
fn memo_batch_output_is_byte_identical_across_corpus_and_threads() {
    let scenarios = shipped_scenarios();
    assert!(
        scenarios.len() >= 28,
        "corpus shrank to {}",
        scenarios.len()
    );
    let serial = Engine::serial();
    let baseline = evaluate_all_on(&serial, &scenarios).expect("unmemoized batch runs");

    let mut memo = SweepMemo::new();
    for engine in [Engine::serial(), Engine::with_threads(3)] {
        // The second engine pass reuses the memo warmed by the first, so
        // this also checks that warm hits reproduce the exact bytes.
        let memoized =
            evaluate_all_with(&engine, &scenarios, Some(&mut memo)).expect("memoized batch runs");
        assert_eq!(memoized.len(), baseline.len());
        for ((id_a, a), (id_b, b)) in baseline.iter().zip(&memoized) {
            assert_eq!(id_a, id_b, "batch order changed under memoization");
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.to_bytes(), b.to_bytes(), "bytes diverge for {id_a}");
                    assert_eq!(
                        a.digest_entry(),
                        b.digest_entry(),
                        "digest diverges for {id_a}"
                    );
                }
                (a, b) => panic!("result shape diverges for {id_a}: {a:?} vs {b:?}"),
            }
        }
    }
    // The corpus contains a robustness twin, so the warmed second pass
    // must have answered its Monte-Carlo experiments from the cache.
    let stats = memo.stats();
    assert!(stats.mc.hits > 0, "no MC hits across two passes: {stats:?}");
}
