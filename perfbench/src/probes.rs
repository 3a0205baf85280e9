//! Layer probes: single calls into one layer's public entry point, timed
//! from outside on the workload's own inputs and sizes, after its timed
//! section.

use crate::stats::median;
use crate::workloads::Spec;
use ganopc_core::{Discriminator, Generator};
use ganopc_fft::{Complex, RealFft2d};
use ganopc_litho::{Field, LithoModel};
use ganopc_nn::{gemm, pool, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Wall time one probe may spend on repetitions, seconds.
const PROBE_BUDGET_S: f64 = 0.4;

/// Median seconds per call of `f`: one warm-up call, then as many calls as
/// fit the budget (at least 5, at most 4000).
pub fn median_call_s(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let first = t0.elapsed().as_secs_f64().max(1e-7);
    let reps = ((PROBE_BUDGET_S / first) as usize).clamp(5, 4000);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).unwrap_or(first)
}

/// Real-FFT timings at the litho frame.
#[derive(Debug, Clone, Copy)]
pub struct FftProbe {
    /// Forward (r2c) seconds per transform.
    pub r2c_s: f64,
    /// Inverse (c2r) seconds per transform.
    pub c2r_s: f64,
    /// Nominal real-FFT flop count `2.5·N·log2 N`, `N = h·w`.
    pub flops: f64,
}

/// Times `RealFft2d::forward` and `inverse` on `image`.
///
/// # Errors
///
/// Propagates planning or size errors.
pub fn fft(image: &Field) -> Result<FftProbe, String> {
    let (h, w) = image.shape();
    let plan = RealFft2d::new(h, w).map_err(|e| format!("fft plan: {e}"))?;
    let mut spectrum = vec![Complex::ZERO; plan.spectrum_len()];
    let mut scratch = Vec::new();
    plan.forward(image.as_slice(), &mut spectrum, &mut scratch).map_err(|e| format!("r2c: {e}"))?;
    let r2c_s = median_call_s(|| {
        let r = plan.forward(black_box(image.as_slice()), &mut spectrum, &mut scratch);
        black_box(r.is_ok());
    });
    // The inverse consumes its input, so each call gets a fresh copy; only
    // the transform is timed.
    let mut work = spectrum.clone();
    let mut real = vec![0.0f32; h * w];
    let mut samples = Vec::new();
    let budget = Instant::now();
    while samples.len() < 5
        || (budget.elapsed().as_secs_f64() < PROBE_BUDGET_S && samples.len() < 4000)
    {
        work.copy_from_slice(&spectrum);
        let t = Instant::now();
        let r = plan.inverse(&mut work, &mut real, &mut scratch);
        samples.push(t.elapsed().as_secs_f64());
        r.map_err(|e| format!("c2r: {e}"))?;
        black_box(&real);
    }
    let n = (h * w) as f64;
    Ok(FftProbe { r2c_s, c2r_s: median(&samples).unwrap_or(0.0), flops: 2.5 * n * n.log2() })
}

/// Litho-model timings on one target.
#[derive(Debug, Clone, Copy)]
pub struct LithoProbe {
    /// `gradient_into` seconds per call.
    pub gradient_s: f64,
    /// `aerial_image_into` seconds per call.
    pub aerial_s: f64,
}

/// Times the Eq. (14) gradient and the aerial image on `target`.
///
/// # Errors
///
/// Propagates shape errors.
pub fn litho(model: &LithoModel, target: &Field) -> Result<LithoProbe, String> {
    let mut buf = vec![0.0f32; target.len()];
    model.gradient_into(target, target, 1.0, &mut buf).map_err(|e| format!("gradient: {e}"))?;
    let gradient_s = median_call_s(|| {
        black_box(model.gradient_into(target, target, 1.0, &mut buf).is_ok());
    });
    let aerial_s = median_call_s(|| {
        black_box(model.aerial_image_into(target, &mut buf).is_ok());
    });
    Ok(LithoProbe { gradient_s, aerial_s })
}

/// Network-leg timings at the workload's network scale.
#[derive(Debug, Clone, Copy)]
pub struct NnProbe {
    /// Generator inference, batch 1.
    pub infer_s: f64,
    /// Generator training-mode forward, one batch.
    pub g_forward_s: f64,
    /// Generator backward (input gradient discarded), one batch.
    pub g_backward_s: f64,
    /// Discriminator pair forward, one batch.
    pub d_forward_s: f64,
    /// Discriminator pair backward with mask gradient, one batch.
    pub d_backward_s: f64,
    /// GEMM rate at the generator's largest im2col product, flop/s.
    pub gemm_flops_per_s: f64,
    /// That product's `(m, k, n)`.
    pub gemm_shape: (usize, usize, usize),
}

/// Pools `targets` to the network size and stacks `batch` of them
/// (cycling) into `[batch, 1, net, net]`.
pub fn net_batch(targets: &[Field], net: usize, batch: usize) -> Tensor {
    let mut data = Vec::with_capacity(batch * net * net);
    for i in 0..batch {
        let t = &targets[i % targets.len()];
        let factor = t.shape().0 / net;
        let pooled = if factor > 1 { t.avg_pool(factor) } else { t.clone() };
        data.extend_from_slice(pooled.as_slice());
    }
    Tensor::from_vec(&[batch, 1, net, net], data)
}

/// `(m, k, n)` of the generator encoder convolution with the largest
/// im2col matrix (`k·n`): `m` output channels, `k = in·4·4`, `n` output
/// pixels.
pub fn largest_im2col(net: usize, base: usize) -> (usize, usize, usize) {
    let stages = (net.trailing_zeros() - 2) as usize;
    let (mut cin, mut cout, mut size) = (1usize, base, net);
    let mut best = (0, 0, 0);
    for _ in 0..stages {
        size /= 2;
        let shape = (cout, cin * 16, size * size);
        if shape.1 * shape.2 > best.1 * best.2 {
            best = shape;
        }
        cin = cout;
        cout = (cout * 2).min(128);
    }
    best
}

/// Times the generator and discriminator legs and the GEMM.
pub fn nn(spec: &Spec, weight_seed: u64, targets: &[Field]) -> NnProbe {
    let (net, base, batch) = (spec.net_size, spec.base_channels, spec.batch);
    let mut g = Generator::new(net, base, weight_seed);
    let mut d = Discriminator::new(net, base, weight_seed ^ 1);
    let x = net_batch(targets, net, batch);
    let x1 = net_batch(targets, net, 1);
    let (mut masks, mut probs, mut grad_masks, mut out) =
        (Tensor::zeros(&[1]), Tensor::zeros(&[1]), Tensor::zeros(&[1]), Tensor::zeros(&[1]));
    let grad_probs = Tensor::filled(&[batch, 1], 0.1);
    g.forward_into(&x, &mut masks, true);
    d.forward_pair_into(&x, &masks, &mut probs, true);
    d.backward_pair_into(&grad_probs, &mut grad_masks);
    g.backward_discard(&grad_masks);

    let infer_s = median_call_s(|| g.infer_into(&x1, &mut out));
    let g_forward_s = median_call_s(|| g.forward_into(&x, &mut masks, true));
    let g_backward_s = median_call_s(|| g.backward_discard(&grad_masks));
    let d_forward_s = median_call_s(|| d.forward_pair_into(&x, &masks, &mut probs, true));
    let d_backward_s = median_call_s(|| d.backward_pair_into(&grad_probs, &mut grad_masks));

    let (m, k, n) = largest_im2col(net, base);
    let a: Vec<f32> = (0..m * k).map(|i| ((i % 13) as f32 - 6.0) / 7.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i % 11) as f32 - 5.0) / 5.0).collect();
    let mut c = vec![0.0f32; m * n];
    let gemm_s = median_call_s(|| {
        gemm::matmul_into(&mut c, black_box(&a), black_box(&b), m, k, n);
        black_box(&c);
    });
    NnProbe {
        infer_s,
        g_forward_s,
        g_backward_s,
        d_forward_s,
        d_backward_s,
        gemm_flops_per_s: 2.0 * (m * k * n) as f64 / gemm_s,
        gemm_shape: (m, k, n),
    }
}

/// Seconds per empty `pool::run_chunks` dispatch over one chunk per crew
/// thread.
pub fn dispatch_s() -> f64 {
    const BATCH: usize = 100;
    let threads = pool::max_threads();
    let per_batch = median_call_s(|| {
        for _ in 0..BATCH {
            pool::run_chunks(threads, |r| {
                black_box(r);
            });
        }
    });
    per_batch / BATCH as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_im2col_of_the_generators() {
        // 64 px, base 8: encoder convs 1→8 (32²), 8→16 (16²), 16→32 (8²),
        // 32→64 (4²); the 8→16 layer unfolds the largest 128×256 matrix.
        assert_eq!(largest_im2col(64, 8), (16, 128, 256));
        assert_eq!(largest_im2col(64, 16), (32, 256, 256));
    }

    #[test]
    fn probe_takes_a_median() {
        let mut calls = 0;
        let s = median_call_s(|| calls += 1);
        assert!(s >= 0.0 && calls >= 6);
    }
}
