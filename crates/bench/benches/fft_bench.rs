//! Criterion bench B1: 2-D FFT throughput across clip-relevant sizes, plus
//! the packed-half-spectrum real path head-to-head against the complex path
//! and its inverse on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ganopc_fft::{Complex, Direction, Fft2d, RealFft2d};

fn bench_fft2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft2d_forward");
    group.sample_size(20);
    for size in [64usize, 128, 256, 512, 1024] {
        let plan = Fft2d::new(size, size).unwrap();
        let data: Vec<Complex> =
            (0..size * size).map(|i| Complex::new((i as f32 * 0.37).sin(), 0.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let mut buf = data.clone();
                plan.transform(&mut buf, Direction::Forward).unwrap();
                buf
            })
        });
    }
    group.finish();
}

/// Real input through the full complex plan vs the packed `h × (w/2+1)`
/// Hermitian half-spectrum plan — the transform that carries the litho hot
/// path. Buffers are preallocated so the numbers isolate transform cost.
fn bench_rfft_vs_complex(c: &mut Criterion) {
    let mut group = c.benchmark_group("rfft_vs_complex");
    group.sample_size(20);
    for size in [128usize, 256, 512, 1024] {
        let real: Vec<f32> = (0..size * size).map(|i| (i as f32 * 0.37).sin()).collect();

        let cplan = Fft2d::new(size, size).unwrap();
        let mut cbuf = vec![Complex::ZERO; size * size];
        group.bench_with_input(BenchmarkId::new("complex", size), &size, |b, _| {
            b.iter(|| {
                for (dst, &src) in cbuf.iter_mut().zip(&real) {
                    *dst = Complex::new(src, 0.0);
                }
                cplan.transform(&mut cbuf, Direction::Forward).unwrap();
                cbuf.last().copied()
            })
        });

        let rplan = RealFft2d::new(size, size).unwrap();
        let mut half = vec![Complex::ZERO; rplan.spectrum_len()];
        let mut scratch = Vec::new();
        group.bench_with_input(BenchmarkId::new("rfft", size), &size, |b, _| {
            b.iter(|| {
                rplan.forward(&real, &mut half, &mut scratch).unwrap();
                half.last().copied()
            })
        });
    }
    group.finish();
}

/// The packed half-spectrum inverse (c2r) — litho runs as many of these as
/// forward transforms. `inverse` consumes its input, so each iteration first
/// restores the spectrum from a saved copy (a memcpy of `h·(w/2+1)` values,
/// a few percent of the transform).
fn bench_rfft_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("rfft_inverse");
    group.sample_size(20);
    for size in [128usize, 256, 512, 1024] {
        let plan = RealFft2d::new(size, size).unwrap();
        let real: Vec<f32> = (0..size * size).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut spectrum = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        plan.forward(&real, &mut spectrum, &mut scratch).unwrap();
        let mut work = spectrum.clone();
        let mut out = vec![0.0f32; size * size];
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                work.copy_from_slice(&spectrum);
                plan.inverse(&mut work, &mut out, &mut scratch).unwrap();
                out.last().copied()
            })
        });
    }
    group.finish();
}

fn bench_roundtrip(c: &mut Criterion) {
    let plan = Fft2d::new(128, 128).unwrap();
    let data: Vec<Complex> =
        (0..128 * 128).map(|i| Complex::new((i as f32 * 0.11).cos(), 0.0)).collect();
    c.bench_function("fft2d_roundtrip_128", |b| {
        b.iter(|| {
            let mut buf = data.clone();
            plan.transform(&mut buf, Direction::Forward).unwrap();
            plan.transform(&mut buf, Direction::Inverse).unwrap();
            buf
        })
    });
}

criterion_group!(benches, bench_fft2d, bench_rfft_vs_complex, bench_rfft_inverse, bench_roundtrip);
criterion_main!(benches);
