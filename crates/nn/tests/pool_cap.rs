//! Regression test for the dispatch chunk-count cap.
//!
//! The crew's claim word packs the chunk cursor into its low byte, and a
//! dispatch is hard-capped at exactly `MAX_CHUNKS = 64` chunks. This test
//! pins the cap boundary: a dispatch at exactly 64 chunks must claim and
//! execute every chunk exactly once (the last chunk included), and job
//! counts far above the cap must still partition exactly.
//!
//! Lives in its own integration-test binary because it overrides the
//! process-wide thread cap via `set_max_threads`, which would race the pool
//! unit tests if run in the same process.

use ganopc_nn::pool::{self, DisjointMut};

#[test]
fn dispatch_at_exactly_64_chunks_covers_every_range_once() {
    // Ask for one chunk per job at the cap: plan_threads(64) == 64 when the
    // thread cap allows it, which exercises the full width of the claim
    // cursor, first chunk through last.
    pool::set_max_threads(Some(64));
    let mut visits = vec![0u32; 64];
    {
        let view = DisjointMut::new(&mut visits);
        pool::run_chunks(64, |range| {
            for i in range {
                // SAFETY: `range`s from run_chunks partition 0..64, so each
                // index is covered by exactly one live view.
                unsafe { *view.index_mut(i) += 1 };
            }
        });
    }
    assert_eq!(visits, vec![1u32; 64], "every chunk must execute exactly once at the 64-chunk cap");

    // Far more jobs than the cap: chunk planning must clamp to 64 chunks
    // while still partitioning the full index space exactly once.
    let total = 64 * 7 + 13;
    let mut wide = vec![0u32; total];
    {
        let view = DisjointMut::new(&mut wide);
        pool::run_chunks(total, |range| {
            for i in range {
                // SAFETY: disjoint ranges, as above.
                unsafe { *view.index_mut(i) += 1 };
            }
        });
    }
    assert_eq!(wide, vec![1u32; total], "jobs beyond the cap must still partition exactly");
    pool::set_max_threads(None);
}
