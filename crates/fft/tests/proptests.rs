//! Property-based tests for the spectral engine.
//!
//! The FFT and real-FFT paths are checked against a naive O(N²) DFT written
//! in f64, over randomized power-of-two sizes up to 1024 and randomized
//! rectangular shapes, including the Hermitian-packing boundary columns.

use ganopc_fft::{spectrum, Complex, Direction, Fft1d, Fft2d, RealFft2d};
use proptest::prelude::*;

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-8.0f32..8.0, -8.0f32..8.0), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

/// Random power-of-two length in `2..=1024` with matching complex data.
fn sized_complex_vec() -> impl Strategy<Value = Vec<Complex>> {
    (1u32..=10).prop_flat_map(|log| complex_vec(1usize << log))
}

/// Random power-of-two rectangle (h in 1..=32, w in 2..=64) with real data.
fn sized_real_image() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (0u32..=5, 1u32..=6).prop_flat_map(|(hlog, wlog)| {
        let (h, w) = (1usize << hlog, 1usize << wlog);
        prop::collection::vec(-4.0f32..4.0, h * w).prop_map(move |img| (h, w, img))
    })
}

/// Cyclic convolution of a real field with a real kernel through the litho
/// model's path: one r2c, `mul_into` with the kernel's real half-spectrum,
/// one c2r.
fn cyclic_filter(field: &[f32], kernel: &spectrum::KernelSpectrum) -> Vec<f32> {
    let plan = RealFft2d::new(kernel.height(), kernel.width()).unwrap();
    let mut scratch = Vec::new();
    let mut half = vec![Complex::ZERO; plan.spectrum_len()];
    plan.forward(field, &mut half, &mut scratch).unwrap();
    let mut prod = vec![Complex::ZERO; plan.spectrum_len()];
    spectrum::mul_into(&mut prod, &half, kernel.re_spectrum().unwrap());
    let mut out = vec![0.0f32; plan.real_len()];
    plan.inverse(&mut prod, &mut out, &mut scratch).unwrap();
    out
}

/// Naive O(N²) DFT in f64 — the reference implementation.
fn naive_dft(input: &[Complex], dir: Direction) -> Vec<Complex> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0f64,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let (mut re, mut im) = (0.0f64, 0.0f64);
        for (j, &x) in input.iter().enumerate() {
            let theta = sign * 2.0 * std::f64::consts::PI * (k * j % n) as f64 / n as f64;
            let (s, c) = theta.sin_cos();
            re += x.re as f64 * c - x.im as f64 * s;
            im += x.re as f64 * s + x.im as f64 * c;
        }
        if matches!(dir, Direction::Inverse) {
            re /= n as f64;
            im /= n as f64;
        }
        *o = Complex::new(re as f32, im as f32);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planned radix-4/2 engine agrees with the naive O(N²) DFT at every
    /// power-of-two size in 2..=1024, both directions.
    #[test]
    fn fft1d_matches_naive_dft(data in sized_complex_vec(), inverse in 0u32..2) {
        let n = data.len();
        let dir = if inverse == 1 { Direction::Inverse } else { Direction::Forward };
        let plan = Fft1d::new(n).unwrap();
        let mut got = data.clone();
        plan.transform(&mut got, dir).unwrap();
        let expect = naive_dft(&data, dir);
        // Error scales with the magnitude flowing into each bin.
        let scale: f32 = data.iter().map(|c| c.abs()).sum::<f32>().max(1.0);
        let tol = 1e-6 * scale * (n as f32).log2().max(1.0) + 1e-4;
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((g.re - e.re).abs() < tol, "n={n} {dir:?}: {g:?} vs {e:?}");
            prop_assert!((g.im - e.im).abs() < tol, "n={n} {dir:?}: {g:?} vs {e:?}");
        }
    }

    /// 1-D roundtrip is the identity.
    #[test]
    fn fft1d_roundtrip(data in sized_complex_vec()) {
        let plan = Fft1d::new(data.len()).unwrap();
        let mut buf = data.clone();
        plan.transform(&mut buf, Direction::Forward).unwrap();
        plan.transform(&mut buf, Direction::Inverse).unwrap();
        for (a, b) in buf.iter().zip(&data) {
            prop_assert!((a.re - b.re).abs() < 1e-2);
            prop_assert!((a.im - b.im).abs() < 1e-2);
        }
    }

    /// Linearity: FFT(αx + βy) == αFFT(x) + βFFT(y).
    #[test]
    fn fft1d_linearity(
        x in complex_vec(32),
        y in complex_vec(32),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
    ) {
        let plan = Fft1d::new(32).unwrap();
        let mut fx = x.clone();
        let mut fy = y.clone();
        let mut fz: Vec<Complex> = x
            .iter()
            .zip(&y)
            .map(|(&a, &b)| a.scale(alpha) + b.scale(beta))
            .collect();
        plan.transform(&mut fx, Direction::Forward).unwrap();
        plan.transform(&mut fy, Direction::Forward).unwrap();
        plan.transform(&mut fz, Direction::Forward).unwrap();
        for i in 0..32 {
            let expect = fx[i].scale(alpha) + fy[i].scale(beta);
            prop_assert!((fz[i].re - expect.re).abs() < 0.05);
            prop_assert!((fz[i].im - expect.im).abs() < 0.05);
        }
    }

    /// Cyclic time shift multiplies the spectrum by a phase, preserving
    /// magnitudes.
    #[test]
    fn fft1d_shift_preserves_magnitudes(data in complex_vec(32), shift in 0usize..32) {
        let plan = Fft1d::new(32).unwrap();
        let mut original = data.clone();
        let mut shifted: Vec<Complex> = (0..32).map(|i| data[(i + shift) % 32]).collect();
        plan.transform(&mut original, Direction::Forward).unwrap();
        plan.transform(&mut shifted, Direction::Forward).unwrap();
        for (a, b) in original.iter().zip(&shifted) {
            prop_assert!((a.abs() - b.abs()).abs() < 1e-2 * a.abs().max(1.0));
        }
    }

    /// Packed half-spectrum path vs the full complex path: every stored bin
    /// of the real FFT must match the complex transform of the same image,
    /// on randomized rectangular shapes.
    #[test]
    fn rfft_matches_full_complex_path((h, w, img) in sized_real_image()) {
        let rplan = RealFft2d::new(h, w).unwrap();
        let cplan = Fft2d::new(h, w).unwrap();
        let mut half = vec![Complex::ZERO; rplan.spectrum_len()];
        let mut scratch = Vec::new();
        rplan.forward(&img, &mut half, &mut scratch).unwrap();
        let mut full: Vec<Complex> = img.iter().map(|&r| Complex::from_real(r)).collect();
        cplan.transform(&mut full, Direction::Forward).unwrap();
        let hw = rplan.half_width();
        let scale: f32 = img.iter().map(|v| v.abs()).sum::<f32>().max(1.0);
        let tol = 1e-6 * scale * ((h * w) as f32).log2().max(1.0) + 1e-4;
        for ky in 0..h {
            for kx in 0..hw {
                let g = half[ky * hw + kx];
                let e = full[ky * w + kx];
                prop_assert!((g.re - e.re).abs() < tol, "{h}x{w} ({ky},{kx}): {g:?} vs {e:?}");
                prop_assert!((g.im - e.im).abs() < tol, "{h}x{w} ({ky},{kx}): {g:?} vs {e:?}");
            }
        }
    }

    /// The DC and Nyquist columns of the packed half-spectrum are
    /// self-conjugate along ky — the Hermitian-packing boundary invariant.
    #[test]
    fn rfft_boundary_columns_self_conjugate((h, w, img) in sized_real_image()) {
        let plan = RealFft2d::new(h, w).unwrap();
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        plan.forward(&img, &mut half, &mut scratch).unwrap();
        let hw = plan.half_width();
        let scale: f32 = img.iter().map(|v| v.abs()).sum::<f32>().max(1.0);
        let tol = 1e-5 * scale + 1e-4;
        for b in [0, w / 2] {
            for ky in 0..h {
                let a = half[ky * hw + b];
                let c = half[((h - ky) % h) * hw + b].conj();
                prop_assert!((a.re - c.re).abs() < tol && (a.im - c.im).abs() < tol,
                    "{h}x{w} col {b} row {ky}: {a:?} vs {c:?}");
            }
        }
    }

    /// Real roundtrip through the packed half-spectrum is the identity.
    #[test]
    fn rfft_roundtrip((h, w, img) in sized_real_image()) {
        let plan = RealFft2d::new(h, w).unwrap();
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut out = vec![0.0f32; h * w];
        let mut scratch = Vec::new();
        plan.forward(&img, &mut half, &mut scratch).unwrap();
        plan.inverse(&mut half, &mut out, &mut scratch).unwrap();
        for (a, b) in out.iter().zip(&img) {
            prop_assert!((a - b).abs() < 1e-3, "{h}x{w}");
        }
    }

    /// Adjoint identity ⟨Fx, Y⟩ = ⟨x, AᵀY⟩ for arbitrary packed Y.
    #[test]
    fn rfft_adjoint_identity((h, w, img) in sized_real_image(), seed in 0u64..1024) {
        let plan = RealFft2d::new(h, w).unwrap();
        let mut fx = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        plan.forward(&img, &mut fx, &mut scratch).unwrap();
        let mut y: Vec<Complex> = (0..plan.spectrum_len())
            .map(|i| {
                let v = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                Complex::new(
                    ((v >> 33) & 0xff) as f32 / 128.0 - 1.0,
                    ((v >> 41) & 0xff) as f32 / 128.0 - 1.0,
                )
            })
            .collect();
        let lhs: f64 = fx.iter().zip(&y)
            .map(|(a, b)| (a.re as f64) * (b.re as f64) + (a.im as f64) * (b.im as f64))
            .sum();
        let mut ay = vec![0.0f32; h * w];
        plan.adjoint(&mut y, &mut ay, &mut scratch).unwrap();
        let rhs: f64 = img.iter().zip(&ay).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() < 1e-3 * scale, "{h}x{w}: {lhs} vs {rhs}");
    }

    /// 2-D convolution theorem: spatial cyclic convolution equals
    /// pointwise spectral multiplication (through the half-spectrum path).
    #[test]
    fn convolution_commutes(field in prop::collection::vec(0.0f32..1.0, 64)) {
        let mut kernel = vec![Complex::ZERO; 9];
        kernel[1] = Complex::new(0.5, 0.0);
        kernel[4] = Complex::new(1.0, 0.0);
        kernel[7] = Complex::new(0.5, 0.0);
        let ks = spectrum::KernelSpectrum::new(&kernel, 3, 8, 8).unwrap();
        let out = cyclic_filter(&field, &ks);
        // Direct spatial check on a couple of positions.
        for (y, x) in [(3usize, 3usize), (0, 0), (7, 5)] {
            let up = field[((y + 7) % 8) * 8 + x];
            let mid = field[y * 8 + x];
            let down = field[((y + 1) % 8) * 8 + x];
            let expect = 0.5 * up + mid + 0.5 * down;
            let got = out[y * 8 + x];
            prop_assert!((got - expect).abs() < 1e-3, "at ({y},{x}): {got} vs {expect}");
        }
    }

    /// DC bin equals the sum of samples, on both spectrum layouts.
    #[test]
    fn dc_bin_is_sum(field in prop::collection::vec(-4.0f32..4.0, 64)) {
        let plan = Fft2d::new(8, 8).unwrap();
        let mut spec: Vec<Complex> = field.iter().map(|&r| Complex::from_real(r)).collect();
        plan.transform(&mut spec, Direction::Forward).unwrap();
        let sum: f32 = field.iter().sum();
        prop_assert!((spec[0].re - sum).abs() < 1e-2 * sum.abs().max(1.0));
        prop_assert!(spec[0].im.abs() < 1e-3);

        let rplan = RealFft2d::new(8, 8).unwrap();
        let mut half = vec![Complex::ZERO; rplan.spectrum_len()];
        let mut scratch = Vec::new();
        rplan.forward(&field, &mut half, &mut scratch).unwrap();
        prop_assert!((half[0].re - sum).abs() < 1e-2 * sum.abs().max(1.0));
        prop_assert!(half[0].im.abs() < 1e-3);
    }
}
