//! Integration tests for the persistent work-crew.
//!
//! These run in their own process because they toggle the process-wide
//! `set_max_threads` override and deliberately panic inside pool jobs;
//! neither should interleave with the library's unit tests.

use ganopc_nn::pool::{self, DisjointMut};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

/// Serializes the tests in this binary: both toggle the process-wide
/// `set_max_threads` override, so they must not interleave.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `inspect(j)` then writes `j * 2` into slot `j` of a fresh vector,
/// one `run_chunks` dispatch over `0..total`.
fn doubled(total: usize, inspect: impl Fn(usize) + Sync) -> Vec<usize> {
    let mut out = vec![0usize; total];
    let view = DisjointMut::new(&mut out);
    pool::run_chunks(total, |range| {
        for j in range {
            inspect(j);
            // SAFETY: run_chunks ranges partition 0..total, so each index is
            // covered by exactly one live view.
            unsafe { *view.index_mut(j) = j * 2 };
        }
    });
    out
}

/// Sequential dispatches must reuse the same parked workers instead of
/// spawning a fresh crew per call: across many runs the set of distinct
/// non-caller thread ids stays bounded by the worker cap, and the crew's
/// own head-count never exceeds it either.
#[test]
fn workers_persist_across_dispatches() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    pool::set_max_threads(Some(4));
    let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let caller = std::thread::current().id();
    for _ in 0..10 {
        // Enough jobs that every worker has work waiting when it wakes.
        let out = doubled(64, |_| {
            let id = std::thread::current().id();
            if id != caller {
                ids.lock().unwrap().insert(id);
            }
        });
        assert_eq!(out, (0..64).map(|j| j * 2).collect::<Vec<_>>());
    }
    let distinct = ids.lock().unwrap().len();
    assert!(
        distinct <= 3,
        "expected at most 3 persistent workers at cap 4, saw {distinct} distinct thread ids"
    );
    assert!(
        pool::crew_workers() <= 3,
        "crew spawned {} workers for a cap of 4 (caller participates)",
        pool::crew_workers()
    );
    pool::set_max_threads(None);
}

/// A panicking job propagates to the dispatching caller, and the crew
/// survives: subsequent dispatches on the same pool complete normally
/// with correct results.
#[test]
fn panicking_job_does_not_poison_the_crew() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    pool::set_max_threads(Some(4));
    let caught =
        catch_unwind(AssertUnwindSafe(|| doubled(16, |j| assert!(j != 9, "job nine exploded"))));
    assert!(caught.is_err(), "panic in a pool job must reach the caller");

    // The crew must still be fully functional afterwards.
    for _ in 0..3 {
        let out = doubled(32, |_| {});
        assert_eq!(out, (0..32).map(|j| j * 2).collect::<Vec<_>>());
        let hits = AtomicUsize::new(0);
        pool::run_chunks(33, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 33);
    }
    pool::set_max_threads(None);
}
