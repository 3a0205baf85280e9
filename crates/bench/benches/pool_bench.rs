//! Criterion bench B7: worker-pool dispatch overhead.
//!
//! Eight trivial jobs at four threads measure pure hand-off cost — the work
//! itself is a few nanoseconds, so the timings are dominated by how the jobs
//! reach the workers. The `crew_*` row goes through the persistent work-crew
//! (parked workers, shared job descriptor, atomic chunk claims); the
//! `scoped_spawn` row replicates the pre-crew pool, which spawned and joined
//! fresh scoped threads on every call.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ganopc_nn::pool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The pre-crew dispatch path: split the job vector into per-thread batches,
/// spawn a scoped thread per batch, join in order. Kept here as the baseline
/// the persistent crew is measured against.
fn scoped_spawn_run<J, R, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let batch = total.div_ceil(threads);
    let mut batches: Vec<Vec<J>> = Vec::new();
    let mut it = jobs.into_iter();
    loop {
        let b: Vec<J> = it.by_ref().take(batch).collect();
        if b.is_empty() {
            break;
        }
        batches.push(b);
    }
    let fref = &f;
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|b| s.spawn(move |_| b.into_iter().map(fref).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(total);
        for h in handles {
            out.extend(h.join().expect("worker panicked"));
        }
        out
    })
    .expect("scope")
}

fn bench_pool_dispatch(c: &mut Criterion) {
    pool::set_max_threads(Some(4));
    // Spawn the crew before timing so the crew row measures steady-state
    // dispatch, not one-time thread creation.
    pool::run_chunks(8, |r| {
        black_box(r.len());
    });

    let mut group = c.benchmark_group("pool_dispatch");
    group.sample_size(60);
    group.bench_function("crew_run_chunks_8jobs_4t", |b| {
        b.iter(|| {
            let acc = AtomicUsize::new(0);
            pool::run_chunks(8, |r| {
                acc.fetch_add(r.start + r.len(), Ordering::Relaxed);
            });
            black_box(acc.into_inner())
        })
    });
    group.bench_function("scoped_spawn_8jobs_4t", |b| {
        b.iter(|| {
            let jobs: Vec<usize> = (0..8).collect();
            black_box(scoped_spawn_run(jobs, 4, |j| j.wrapping_mul(3)))
        })
    });
    group.finish();
    pool::set_max_threads(None);
}

criterion_group!(benches, bench_pool_dispatch);
criterion_main!(benches);
