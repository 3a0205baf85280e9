//! Allocation-regression guard for the zero-allocation engine.
//!
//! After a warmup that sizes every persistent buffer (layer scratch, the
//! Sequential tape, optimizer moments, loss-gradient buffers, the trainer's
//! own scratch), steady-state `GanTrainer::train_step` and
//! `Generator::infer_into` must perform **zero** heap allocations. A counting
//! global allocator makes any regression an immediate test failure rather
//! than a slow perf drift.
//!
//! The guarantee now covers the parallel path too: the persistent work-crew
//! dispatches through a shared job descriptor and atomic chunk claims, with
//! no job or result vectors, so after a warmup that spawns the crew and
//! sizes per-worker scratch a 4-thread steady state is also allocation-free.
//! This is the single test in this binary because both the allocator counter
//! and the thread override are process-wide.
//!
//! The obs instrumentation (span timers, counters, trace rings) is active
//! on every measured path and is itself covered by a dedicated block: the
//! zero-allocation guarantee holds *with metrics recording enabled*.
//!
//! The litho hot path (the fused three-dose gradient, the single-dose
//! gradient and the aerial image) is held to the same rule at one and four
//! threads, on a 32-px and a 128-px frame. This counts every heap
//! allocation, not only arena freelist misses, so growth of the FFT scratch
//! buffers that the arena hands out is caught too.
//!
//! The ILT descent loop is held to "allocates nothing per iteration": two
//! `IltEngine::optimize` runs that differ only in their iteration count
//! must make the same number of allocations.

use ganopc_core::{Discriminator, GanTrainer, Generator, OpcDataset, TrainConfig};
use ganopc_ilt::{IltConfig, IltEngine};
use ganopc_litho::{Field, LithoModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_training_and_inference_allocate_nothing() {
    ganopc_nn::pool::set_max_threads(Some(1));

    let dataset = OpcDataset::synthesize(32, 4, IltConfig::fast(), 42).unwrap();
    let (targets, refs) = dataset.batch(&[0, 1, 2, 3]);

    // Training steady state: two warmup steps size every buffer (the second
    // catches anything lazily grown on first reuse), then three measured
    // steps must not touch the allocator.
    let generator = Generator::new(32, 4, 1);
    let discriminator = Discriminator::new(32, 4, 2);
    let mut trainer = GanTrainer::new(generator, discriminator, TrainConfig::fast());
    for _ in 0..2 {
        trainer.train_step(&targets, &refs);
    }
    let before = allocations();
    for _ in 0..3 {
        trainer.train_step(&targets, &refs);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "train_step allocated {delta} times after warmup");

    // Batched inference fast path.
    let mut g = Generator::new(32, 4, 3);
    let mut out = ganopc_nn::Tensor::zeros(&[1]);
    for _ in 0..2 {
        g.infer_into(&targets, &mut out);
    }
    let before = allocations();
    for _ in 0..3 {
        g.infer_into(&targets, &mut out);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "infer_into allocated {delta} times after warmup");

    // Parallel steady state: the work-crew hands chunks out through the
    // shared descriptor, so beyond the warmup (which spawns the workers and
    // sizes their thread-local scratch) a 4-way dispatch allocates nothing
    // either.
    ganopc_nn::pool::set_max_threads(Some(4));
    for _ in 0..2 {
        trainer.train_step(&targets, &refs);
    }
    let before = allocations();
    for _ in 0..3 {
        trainer.train_step(&targets, &refs);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "train_step allocated {delta} times after warmup at 4 threads");

    for _ in 0..2 {
        g.infer_into(&targets, &mut out);
    }
    let before = allocations();
    for _ in 0..3 {
        g.infer_into(&targets, &mut out);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "infer_into allocated {delta} times after warmup at 4 threads");

    // Litho hot path at 1 and 4 threads on a small and a cache-resident frame.
    for size in [32, 128] {
        let model = LithoModel::iccad2013_like(size).unwrap();
        for threads in [1, 4] {
            ganopc_nn::pool::set_max_threads(Some(threads));
            litho_steady_state_allocates_nothing(&model, threads);
        }
    }

    // ILT descent: per-run setup and result allocations only, so 8 and 24
    // iterations must cost the same number of allocations.
    ganopc_nn::pool::set_max_threads(Some(1));
    let short = ilt_run_allocations(8);
    let long = ilt_run_allocations(24);
    assert_eq!(short, long, "ILT allocations grew with the iteration count");

    // Metrics recording itself is allocation-free: counters, span guards,
    // and trace pushes write fixed static slots. Every measured loop above
    // already ran with the train/infer spans and pool counters recording;
    // this block pins the obs primitives directly so a future change that
    // buys convenience with a heap allocation fails here by name.
    use ganopc_obs as obs;
    let before = allocations();
    for i in 0..64 {
        let sp = obs::span(obs::Span::TrainStep);
        obs::counter_add(obs::Counter::TrainSteps, 1);
        obs::trace_push(obs::Trace::IltLoss, i as f64);
        drop(sp);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "obs recording allocated {delta} times");

    ganopc_nn::pool::set_max_threads(None);
}

/// Warms `model` up on every litho entry point the ILT loop and the flow
/// use, then asserts that three more rounds allocate nothing.
fn litho_steady_state_allocates_nothing(model: &LithoModel, threads: usize) {
    let (h, w) = model.shape();
    let target = Field::from_vec(
        h,
        w,
        (0..h * w).map(|i| if (i / w) % 8 < 4 && (i % w) % 6 < 3 { 1.0 } else { 0.0 }).collect(),
    );
    let mask = target.map(|t| 0.2 + 0.6 * t);
    let delta = model.dose_delta();
    let doses = [1.0 - delta, 1.0, 1.0 + delta];
    let mut grad = vec![0.0f32; h * w];
    let mut aerial = vec![0.0f32; h * w];
    let round = |grad: &mut [f32], aerial: &mut [f32]| {
        model.gradient_doses_into(&mask, &target, &doses, grad).unwrap();
        model.gradient_into(&mask, &target, 1.0, grad).unwrap();
        model.aerial_image_into(&mask, aerial).unwrap();
    };
    for _ in 0..2 {
        round(&mut grad, &mut aerial);
    }
    let before = allocations();
    for _ in 0..3 {
        round(&mut grad, &mut aerial);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "{h}-px litho hot path allocated {delta} times at {threads} threads");
}

/// Allocations made by one warm `IltEngine::optimize` run of exactly
/// `iterations` descent steps on a 32-px frame.
fn ilt_run_allocations(iterations: usize) -> u64 {
    let model = LithoModel::iccad2013_like(32).unwrap();
    let mut target = Field::zeros(32, 32);
    for y in 8..24 {
        for x in 12..20 {
            target.set(y, x, 1.0);
        }
    }
    // The patience window (24) is never filled, so the convergence test
    // cannot stop either run early.
    let config = IltConfig { max_iterations: iterations, ..IltConfig::fast() };
    let mut engine = IltEngine::new(model, config);
    // Warm-up run: sizes the litho arena and the per-thread field slots.
    engine.optimize(&target).unwrap();
    let before = allocations();
    let result = engine.optimize(&target).unwrap();
    let delta = allocations() - before;
    assert_eq!(result.iterations, iterations, "ILT stopped early");
    delta
}
