//! A fault plan travels in the `Engine` value that carries it: two
//! engines running at the same time on two threads never observe each
//! other's plan, however their chunks interleave.

use focal_engine::{Engine, FaultPlan};

/// Rounds per engine: enough for the two threads' operations to overlap
/// many times over.
const ITERATIONS: u64 = 300;

#[test]
fn concurrent_engines_never_see_each_others_fault_plan() {
    let plan = FaultPlan::parse("panic@race:4").expect("valid spec").leak();
    let faulted = Engine::with_threads(2)
        .with_faults(Some(plan))
        .at_site("race");
    // Same site and thread count, no plan: only the plan may fault.
    let clean = Engine::with_threads(2).at_site("race");

    std::thread::scope(|scope| {
        let faulted_run = scope.spawn(move || {
            for i in 0..ITERATIONS {
                let err = faulted
                    .try_par_chunk_map_into(i, 16, 1, 1, 0, |c, out| out.fill(c))
                    .expect_err("chunk 4 carries an injected panic");
                assert_eq!(err.chunk_index, 4, "iteration {i}");
                assert!(err.payload.contains("panic@race:4"), "{err}");
            }
        });
        let clean_run = scope.spawn(move || {
            for i in 0..ITERATIONS {
                let chunks = clean
                    .try_par_chunk_map_into(i, 16, 1, 1, 0, |c, out| out.fill(c))
                    .unwrap_or_else(|e| panic!("clean engine failed at iteration {i}: {e}"));
                assert_eq!(chunks, (0..16).collect::<Vec<usize>>());
            }
        });
        faulted_run.join().expect("faulted engine thread");
        clean_run.join().expect("clean engine thread");
    });
}
