//! Deltas of the program's existing exact counters, read through
//! `ganopc_obs::MetricsSnapshot::capture()` around measured calls.

use ganopc_obs::MetricsSnapshot;

/// Exact event counts over some set of measured calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `LithoModel::gradient_into` evaluations.
    pub gradient_calls: u64,
    /// `LithoModel::aerial_image_into` evaluations.
    pub aerial_calls: u64,
    /// ILT runs started.
    pub ilt_runs: u64,
    /// ILT iterations across those runs.
    pub ilt_iterations: u64,
    /// Parallel dispatches through the worker crew.
    pub dispatches: u64,
    /// Chunks the dispatching thread ran itself.
    pub chunks_inline: u64,
    /// Chunks claimed by crew workers.
    pub chunks_workers: u64,
    /// Parked crew workers woken by a dispatch.
    pub wakes: u64,
}

impl Counts {
    /// Reads the counters now.
    pub fn capture() -> Self {
        let s = MetricsSnapshot::capture();
        Counts {
            gradient_calls: s.counter("litho_gradient_calls"),
            aerial_calls: s.counter("litho_aerial_calls"),
            ilt_runs: s.counter("ilt_runs"),
            ilt_iterations: s.counter("ilt_iterations"),
            dispatches: s.counter("pool_dispatches"),
            chunks_inline: s.counter("pool_chunks_inline"),
            chunks_workers: s.worker_claims.iter().sum(),
            wakes: s.counter("pool_worker_wakes"),
        }
    }

    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            gradient_calls: self.gradient_calls - earlier.gradient_calls,
            aerial_calls: self.aerial_calls - earlier.aerial_calls,
            ilt_runs: self.ilt_runs - earlier.ilt_runs,
            ilt_iterations: self.ilt_iterations - earlier.ilt_iterations,
            dispatches: self.dispatches - earlier.dispatches,
            chunks_inline: self.chunks_inline - earlier.chunks_inline,
            chunks_workers: self.chunks_workers - earlier.chunks_workers,
            wakes: self.wakes - earlier.wakes,
        }
    }

    /// Field-wise accumulation.
    pub fn add(&mut self, other: &Counts) {
        self.gradient_calls += other.gradient_calls;
        self.aerial_calls += other.aerial_calls;
        self.ilt_runs += other.ilt_runs;
        self.ilt_iterations += other.ilt_iterations;
        self.dispatches += other.dispatches;
        self.chunks_inline += other.chunks_inline;
        self.chunks_workers += other.chunks_workers;
        self.wakes += other.wakes;
    }
}
