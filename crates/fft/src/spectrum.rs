//! Frequency-domain helpers shared by the lithography and ILT pipelines.
//!
//! The convolution convention used across the workspace is *cyclic*
//! convolution on the full clip raster. Optical kernels have compact support
//! (tens of pixels) while clips keep a dark margin wider than that support,
//! so cyclic wrap-around never influences printed geometry — this mirrors how
//! the ICCAD-2013 kit applies its kernels.
//!
//! Kernel spectra are stored in the packed `h × (w/2+1)` half-spectrum form
//! of [`RealFft2d`]: a complex kernel `h = h_re + i·h_im` is split into its
//! two real components, each with a Hermitian spectrum, so every convolution
//! against a real mask runs entirely through the real-FFT engine. Components
//! that vanish (at nominal focus most SOCS kernels are near-pure real or
//! near-pure imaginary) are dropped, halving both storage and work.

use crate::{Complex, Direction, Fft2d, FftError, RealFft2d};

/// Multiplies two spectra element-wise into `a` (`a[i] *= b[i]`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_assign(a: &mut [Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len(), "spectrum length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x *= *y;
    }
}

/// Multiplies `a` element-wise by the conjugate of `b` (`a[i] *= conj(b[i])`),
/// the frequency-domain form of cyclic *correlation* used in the ILT
/// gradient (Eq. (14) of the paper, the `⊗ H*` terms).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_conj_assign(a: &mut [Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len(), "spectrum length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x *= y.conj();
    }
}

/// Element-wise product into a separate output: `out[i] = a[i] * b[i]`.
///
/// The allocation-free form used by the litho hot path, where `a` is a
/// shared mask spectrum that must survive for the next kernel.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_into(out: &mut [Complex], a: &[Complex], b: &[Complex]) {
    assert_eq!(out.len(), a.len(), "spectrum length mismatch");
    assert_eq!(a.len(), b.len(), "spectrum length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = *x * *y;
    }
}

/// Conjugated product accumulated into `out`: `out[i] += a[i] * conj(b[i])`.
///
/// From a zeroed accumulator this builds the Eq. (14) gradient spectrum
/// `W = Σ_k P_k ⊙ conj(R_k) + Q_k ⊙ conj(I_k)`, one pass per kernel
/// component.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_conj_add_into(out: &mut [Complex], a: &[Complex], b: &[Complex]) {
    assert_eq!(out.len(), a.len(), "spectrum length mismatch");
    assert_eq!(a.len(), b.len(), "spectrum length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = o.mul_add(*x, y.conj());
    }
}

/// Expands a packed `height × (width/2+1)` half-spectrum of a real field to
/// the full `height × width` spectrum via Hermitian symmetry
/// `X[ky, kx] = conj(X[(h-ky)%h, (w-kx)%w])`.
///
/// Reference path for tests and the complex-field convolution helper; the
/// hot paths never expand.
///
/// # Panics
///
/// Panics if `half.len() != height * (width/2 + 1)`.
pub fn expand_half(height: usize, width: usize, half: &[Complex]) -> Vec<Complex> {
    let hw = width / 2 + 1;
    assert_eq!(half.len(), height * hw, "half-spectrum length mismatch");
    let mut full = vec![Complex::ZERO; height * width];
    for ky in 0..height {
        for kx in 0..hw {
            full[ky * width + kx] = half[ky * hw + kx];
        }
        for kx in hw..width {
            let sy = (height - ky) % height;
            let sx = width - kx;
            full[ky * width + kx] = half[sy * hw + sx].conj();
        }
    }
    full
}

/// Embeds a small centered kernel into a `height × width` frame so that the
/// kernel origin (its center tap) lands at index `(0, 0)` with cyclic
/// wrap-around — the layout required for FFT convolution to act as a
/// *centered* spatial filter.
///
/// `kernel` is row-major `ksize × ksize` and `ksize` must be odd and no
/// larger than either frame dimension.
///
/// # Panics
///
/// Panics if `kernel.len() != ksize * ksize`, if `ksize` is even, or if the
/// kernel does not fit in the frame.
pub fn embed_centered_kernel(
    kernel: &[Complex],
    ksize: usize,
    height: usize,
    width: usize,
) -> Vec<Complex> {
    assert_eq!(kernel.len(), ksize * ksize, "kernel buffer size mismatch");
    assert!(ksize % 2 == 1, "kernel size must be odd");
    assert!(ksize <= height && ksize <= width, "kernel larger than frame");
    let half = ksize / 2;
    let mut frame = vec![Complex::ZERO; height * width];
    for ky in 0..ksize {
        for kx in 0..ksize {
            // Tap offset relative to the kernel center, wrapped cyclically.
            let dy = (ky + height - half) % height;
            let dx = (kx + width - half) % width;
            frame[dy * width + dx] = kernel[ky * ksize + kx];
        }
    }
    frame
}

/// A component's magnitude must clear this fraction of the kernel's overall
/// peak to be stored; below it the component is f64→f32 rounding residue of
/// an analytically-zero part (the eigenvector flip parity at nominal focus)
/// and is dropped outright.
const COMPONENT_DROP_RATIO: f32 = 1e-6;

/// Precomputed half-spectra of a centered (possibly complex) kernel, ready
/// for repeated real-FFT convolutions against same-sized real fields.
///
/// The kernel is split as `h = h_re + i·h_im`; each real component is stored
/// as its packed Hermitian half-spectrum (`None` when the component
/// vanishes). For a real mask `M`, the convolved field is
/// `M ⊗ h = (M ⊗ h_re) + i·(M ⊗ h_im)`, two c2r inverse transforms — the
/// same FLOP count as one full complex inverse but with half the spectral
/// traffic, and half of everything when a component is absent.
#[derive(Debug, Clone)]
pub struct KernelSpectrum {
    height: usize,
    width: usize,
    half_width: usize,
    re: Option<Vec<Complex>>,
    im: Option<Vec<Complex>>,
}

impl KernelSpectrum {
    /// Builds the half-spectra of a centered `ksize × ksize` kernel embedded
    /// in a `height × width` frame.
    ///
    /// # Errors
    ///
    /// Returns an error if the frame dimensions are not powers of two (or
    /// `width < 2`).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`embed_centered_kernel`].
    pub fn new(
        kernel: &[Complex],
        ksize: usize,
        height: usize,
        width: usize,
    ) -> Result<Self, FftError> {
        let plan = RealFft2d::new(height, width)?;
        let frame = embed_centered_kernel(kernel, ksize, height, width);
        let peak = frame.iter().map(|c| c.re.abs().max(c.im.abs())).fold(0.0f32, f32::max);
        let cutoff = peak * COMPONENT_DROP_RATIO;
        let mut scratch = Vec::new();
        let mut component =
            |extract: fn(&Complex) -> f32| -> Result<Option<Vec<Complex>>, FftError> {
                let field: Vec<f32> = frame.iter().map(extract).collect();
                if field.iter().all(|v| v.abs() <= cutoff) {
                    return Ok(None);
                }
                let mut half = vec![Complex::ZERO; plan.spectrum_len()];
                plan.forward(&field, &mut half, &mut scratch)?;
                Ok(Some(half))
            };
        let re = component(|c| c.re)?;
        let im = component(|c| c.im)?;
        Ok(KernelSpectrum { height, width, half_width: plan.half_width(), re, im })
    }

    /// Frame height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Frame width (of the real domain; the stored spectra have
    /// [`KernelSpectrum::half_width`] columns).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stored spectrum columns per row, `width/2 + 1`.
    #[inline]
    pub fn half_width(&self) -> usize {
        self.half_width
    }

    /// Half-spectrum of the kernel's real component, if nonzero.
    #[inline]
    pub fn re_spectrum(&self) -> Option<&[Complex]> {
        self.re.as_deref()
    }

    /// Half-spectrum of the kernel's imaginary component, if nonzero.
    #[inline]
    pub fn im_spectrum(&self) -> Option<&[Complex]> {
        self.im.as_deref()
    }

    /// Reconstructs the full `height × width` complex spectrum
    /// `H = R + i·I` (reference/test path; allocates).
    pub fn full_spectrum(&self) -> Vec<Complex> {
        let mut full = vec![Complex::ZERO; self.height * self.width];
        if let Some(re) = &self.re {
            for (f, r) in full.iter_mut().zip(expand_half(self.height, self.width, re)) {
                *f += r;
            }
        }
        if let Some(im) = &self.im {
            for (f, i) in full.iter_mut().zip(expand_half(self.height, self.width, im)) {
                *f += Complex::I * i;
            }
        }
        full
    }

    /// Sum of `|H|²` over the full spectrum — useful for energy diagnostics.
    ///
    /// Computed from the half-spectra: the Hermitian cross term between the
    /// component spectra cancels over the full grid, so `Σ|H|² = Σ|R|² +
    /// Σ|I|²`, with interior half-spectrum columns counted twice for their
    /// mirrored twins.
    pub fn energy(&self) -> f32 {
        let hw = self.half_width;
        let nyquist = self.width / 2;
        let mut total = 0.0f32;
        for half in [&self.re, &self.im].into_iter().flatten() {
            for row in half.chunks_exact(hw) {
                for (kx, c) in row.iter().enumerate() {
                    let weight = if kx == 0 || kx == nyquist { 1.0 } else { 2.0 };
                    total += weight * c.norm_sqr();
                }
            }
        }
        total
    }
}

/// Cyclically convolves a real field with a precomputed kernel spectrum,
/// returning the (complex) filtered field `M ⊗ h`.
///
/// This is the building block of the SOCS aerial-image model
/// `I = Σ_k w_k |M ⊗ h_k|²`. It is the reference implementation: the litho
/// model inlines the same math against arena-owned buffers.
///
/// # Errors
///
/// Returns [`FftError::SizeMismatch`] if `field.len()` or the kernel frame
/// does not match the plan.
pub fn convolve_real(
    plan: &RealFft2d,
    field: &[f32],
    kernel: &KernelSpectrum,
) -> Result<Vec<Complex>, FftError> {
    if kernel.height != plan.height() || kernel.width != plan.width() {
        return Err(FftError::SizeMismatch {
            expected: plan.real_len(),
            actual: kernel.height * kernel.width,
        });
    }
    let mut scratch = Vec::new();
    let mut mask_half = vec![Complex::ZERO; plan.spectrum_len()];
    plan.forward(field, &mut mask_half, &mut scratch)?;
    let mut out = vec![Complex::ZERO; plan.real_len()];
    let mut prod = vec![Complex::ZERO; plan.spectrum_len()];
    let mut real = vec![0.0f32; plan.real_len()];
    if let Some(re) = kernel.re_spectrum() {
        mul_into(&mut prod, &mask_half, re);
        plan.inverse(&mut prod, &mut real, &mut scratch)?;
        for (o, &p) in out.iter_mut().zip(&real) {
            o.re = p;
        }
    }
    if let Some(im) = kernel.im_spectrum() {
        mul_into(&mut prod, &mask_half, im);
        plan.inverse(&mut prod, &mut real, &mut scratch)?;
        for (o, &q) in out.iter_mut().zip(&real) {
            o.im = q;
        }
    }
    Ok(out)
}

/// Cyclically convolves a *complex* field: `out = IFFT(FFT(field) ⊙ K)`
/// where `K` is conjugated when `conjugate_kernel` is set (turning
/// convolution into correlation). Expands the kernel's half-spectra to the
/// full grid — a reference/test path, not used by the litho hot loop.
///
/// # Errors
///
/// Returns [`FftError::SizeMismatch`] on any dimension disagreement.
pub fn convolve_complex(
    plan: &Fft2d,
    field: &[Complex],
    kernel: &KernelSpectrum,
    conjugate_kernel: bool,
) -> Result<Vec<Complex>, FftError> {
    let n = kernel.height * kernel.width;
    if field.len() != n || plan.len() != n {
        return Err(FftError::SizeMismatch { expected: n, actual: field.len() });
    }
    let full = kernel.full_spectrum();
    let mut spec = field.to_vec();
    plan.transform(&mut spec, Direction::Forward)?;
    if conjugate_kernel {
        mul_conj_assign(&mut spec, &full);
    } else {
        mul_assign(&mut spec, &full);
    }
    plan.transform(&mut spec, Direction::Inverse)?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct O(N²·K²) cyclic convolution reference.
    fn naive_cyclic_convolve(
        field: &[f32],
        h: usize,
        w: usize,
        kernel: &[Complex],
        ksize: usize,
    ) -> Vec<Complex> {
        let half = ksize as isize / 2;
        let mut out = vec![Complex::ZERO; h * w];
        for y in 0..h as isize {
            for x in 0..w as isize {
                let mut acc = Complex::ZERO;
                for ky in 0..ksize as isize {
                    for kx in 0..ksize as isize {
                        let sy = (y - (ky - half)).rem_euclid(h as isize) as usize;
                        let sx = (x - (kx - half)).rem_euclid(w as isize) as usize;
                        let f = field[sy * w + sx];
                        acc += kernel[(ky * ksize as isize + kx) as usize].scale(f);
                    }
                }
                out[(y * w as isize + x) as usize] = acc;
            }
        }
        out
    }

    #[test]
    fn identity_kernel_is_noop() {
        let (h, w) = (8, 8);
        let kernel = {
            let mut k = vec![Complex::ZERO; 9];
            k[4] = Complex::ONE; // center tap of a 3x3 kernel
            k
        };
        let spec = KernelSpectrum::new(&kernel, 3, h, w).unwrap();
        assert!(spec.re_spectrum().is_some());
        assert!(spec.im_spectrum().is_none(), "real kernel must drop its imaginary half");
        let plan = RealFft2d::new(h, w).unwrap();
        let field: Vec<f32> = (0..64).map(|i| (i as f32 * 0.2).sin()).collect();
        let out = convolve_real(&plan, &field, &spec).unwrap();
        for (o, f) in out.iter().zip(&field) {
            assert!((o.re - f).abs() < 1e-4 && o.im.abs() < 1e-4);
        }
    }

    #[test]
    fn fft_convolution_matches_naive() {
        let (h, w) = (16, 8);
        let ksize = 5;
        let kernel: Vec<Complex> = (0..ksize * ksize)
            .map(|i| Complex::new((i as f32 * 0.31).sin(), (i as f32 * 0.17).cos() * 0.2))
            .collect();
        let field: Vec<f32> = (0..h * w).map(|i| ((i * 5 % 11) as f32) / 11.0).collect();
        let spec = KernelSpectrum::new(&kernel, ksize, h, w).unwrap();
        let plan = RealFft2d::new(h, w).unwrap();
        let fast = convolve_real(&plan, &field, &spec).unwrap();
        let slow = naive_cyclic_convolve(&field, h, w, &kernel, ksize);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a.re - b.re).abs() < 1e-3, "{a} vs {b}");
            assert!((a.im - b.im).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn full_spectrum_matches_complex_fft_of_embedded_kernel() {
        let (h, w) = (8usize, 16usize);
        let ksize = 3;
        let kernel: Vec<Complex> = (0..9)
            .map(|i| Complex::new((i as f32 * 0.7).cos(), (i as f32 * 0.4).sin() * 0.6))
            .collect();
        let spec = KernelSpectrum::new(&kernel, ksize, h, w).unwrap();
        let got = spec.full_spectrum();
        let plan = Fft2d::new(h, w).unwrap();
        let mut reference = embed_centered_kernel(&kernel, ksize, h, w);
        plan.transform(&mut reference, Direction::Forward).unwrap();
        for (g, r) in got.iter().zip(&reference) {
            assert!((g.re - r.re).abs() < 1e-3 && (g.im - r.im).abs() < 1e-3, "{g} vs {r}");
        }
    }

    #[test]
    fn correlation_flips_kernel() {
        // Correlation with kernel k == convolution with conj + spatial flip;
        // verify on an asymmetric real kernel via an impulse response.
        let (h, w) = (8, 8);
        let mut kernel = vec![Complex::ZERO; 9];
        kernel[0] = Complex::from_real(1.0); // top-left tap of a 3x3 kernel
        let spec = KernelSpectrum::new(&kernel, 3, h, w).unwrap();
        let plan = Fft2d::new(h, w).unwrap();
        let mut field = vec![Complex::ZERO; h * w];
        field[3 * w + 3] = Complex::ONE;

        let conv = convolve_complex(&plan, &field, &spec, false).unwrap();
        let corr = convolve_complex(&plan, &field, &spec, true).unwrap();
        // Convolution shifts the impulse by (-1,-1); correlation by (+1,+1).
        let peak_at = |v: &[Complex]| {
            let (idx, _) = v
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                .unwrap();
            (idx / w, idx % w)
        };
        assert_eq!(peak_at(&conv), (2, 2));
        assert_eq!(peak_at(&corr), (4, 4));
    }

    #[test]
    fn embed_rejects_even_kernel() {
        let kernel = vec![Complex::ZERO; 16];
        let result = std::panic::catch_unwind(|| embed_centered_kernel(&kernel, 4, 8, 8));
        assert!(result.is_err());
    }

    #[test]
    fn embed_places_center_at_origin() {
        let mut kernel = vec![Complex::ZERO; 9];
        kernel[4] = Complex::from_real(7.0);
        let frame = embed_centered_kernel(&kernel, 3, 8, 8);
        assert_eq!(frame[0], Complex::from_real(7.0));
        assert_eq!(frame.iter().filter(|c| c.abs() > 0.0).count(), 1);
    }

    #[test]
    fn expand_half_reconstructs_full_spectrum() {
        let (h, w) = (8usize, 8usize);
        let plan = RealFft2d::new(h, w).unwrap();
        let full_plan = Fft2d::new(h, w).unwrap();
        let field: Vec<f32> = (0..h * w).map(|i| ((i * 11 % 17) as f32) / 17.0 - 0.4).collect();
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        plan.forward(&field, &mut half, &mut scratch).unwrap();
        let expanded = expand_half(h, w, &half);
        let reference = full_plan.forward_real(&field).unwrap();
        for (a, b) in expanded.iter().zip(&reference) {
            assert!((a.re - b.re).abs() < 1e-3 && (a.im - b.im).abs() < 1e-3);
        }
    }

    #[test]
    fn mul_conj_assign_conjugates_rhs() {
        let mut a = vec![Complex::new(1.0, 1.0)];
        let b = vec![Complex::new(0.0, 2.0)];
        mul_conj_assign(&mut a, &b);
        // (1+i) * conj(2i) = (1+i)(-2i) = -2i - 2i² = 2 - 2i
        assert_eq!(a[0], Complex::new(2.0, -2.0));
    }

    #[test]
    fn out_of_place_products_match_in_place() {
        let a: Vec<Complex> =
            (0..16).map(|i| Complex::new(i as f32 * 0.3, -1.0 + i as f32)).collect();
        let b: Vec<Complex> =
            (0..16).map(|i| Complex::new(1.5 - i as f32, i as f32 * 0.2)).collect();
        let mut out = vec![Complex::ZERO; 16];
        mul_into(&mut out, &a, &b);
        let mut reference = a.clone();
        mul_assign(&mut reference, &b);
        assert_eq!(out, reference);

        // Accumulating into zero gives the conjugated product (up to the
        // fused multiply-add's rounding); accumulating it again doubles it.
        let mut reference = a.clone();
        mul_conj_assign(&mut reference, &b);
        let mut out = vec![Complex::ZERO; 16];
        for scale in [1.0, 2.0] {
            mul_conj_add_into(&mut out, &a, &b);
            for (o, r) in out.iter().zip(&reference) {
                assert!((o.re - scale * r.re).abs() < 1e-4 && (o.im - scale * r.im).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn kernel_spectrum_energy_positive() {
        let kernel = vec![Complex::from_real(0.5); 9];
        let spec = KernelSpectrum::new(&kernel, 3, 16, 16).unwrap();
        assert!(spec.energy() > 0.0);
        assert_eq!(spec.height(), 16);
        assert_eq!(spec.width(), 16);
        assert_eq!(spec.half_width(), 9);
        // Energy computed from the packed form must match the full spectrum.
        let full: f32 = spec.full_spectrum().iter().map(|c| c.norm_sqr()).sum();
        assert!((spec.energy() - full).abs() < 1e-2 * full.max(1.0));
    }
}
