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

use crate::{Complex, FftError, RealFft2d};

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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Filters a real field through `kernel`'s re/im half-spectra the way
    /// the litho model does: one r2c, a `mul_into` (convolution) or a
    /// zeroed `mul_conj_add_into` (correlation) per stored component, and
    /// one c2r each. Correlation uses `conj(H) = conj(R) − i·conj(I)`.
    fn filter_real(field: &[f32], kernel: &KernelSpectrum, correlate: bool) -> Vec<Complex> {
        let plan = RealFft2d::new(kernel.height(), kernel.width()).unwrap();
        let mut scratch = Vec::new();
        let mut field_half = vec![Complex::ZERO; plan.spectrum_len()];
        plan.forward(field, &mut field_half, &mut scratch).unwrap();
        let mut out = vec![Complex::ZERO; plan.real_len()];
        let mut prod = vec![Complex::ZERO; plan.spectrum_len()];
        let mut real = vec![0.0f32; plan.real_len()];
        for (component, is_im) in [(kernel.re_spectrum(), false), (kernel.im_spectrum(), true)] {
            let Some(spectrum) = component else { continue };
            if correlate {
                prod.fill(Complex::ZERO);
                mul_conj_add_into(&mut prod, &field_half, spectrum);
            } else {
                mul_into(&mut prod, &field_half, spectrum);
            }
            plan.inverse(&mut prod, &mut real, &mut scratch).unwrap();
            for (o, &v) in out.iter_mut().zip(&real) {
                match (is_im, correlate) {
                    (false, _) => o.re = v,
                    (true, false) => o.im = v,
                    (true, true) => o.im = -v,
                }
            }
        }
        out
    }

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
        let field: Vec<f32> = (0..64).map(|i| (i as f32 * 0.2).sin()).collect();
        let out = filter_real(&field, &spec, false);
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
        let fast = filter_real(&field, &spec, false);
        let slow = naive_cyclic_convolve(&field, h, w, &kernel, ksize);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a.re - b.re).abs() < 1e-3, "{a} vs {b}");
            assert!((a.im - b.im).abs() < 1e-3, "{a} vs {b}");
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
        let mut field = vec![0.0f32; h * w];
        field[3 * w + 3] = 1.0;

        let conv = filter_real(&field, &spec, false);
        let corr = filter_real(&field, &spec, true);
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

        // With a complex kernel (both half-spectra stored), correlation is
        // convolution with the conjugated, point-mirrored kernel.
        let (h, w, ksize) = (16, 8, 5);
        let kernel: Vec<Complex> = (0..ksize * ksize)
            .map(|i| Complex::new((i as f32 * 0.31).sin(), (i as f32 * 0.17).cos() * 0.2))
            .collect();
        let mirrored: Vec<Complex> = kernel.iter().rev().map(|c| c.conj()).collect();
        let field: Vec<f32> = (0..h * w).map(|i| ((i * 5 % 11) as f32) / 11.0).collect();
        let spec = KernelSpectrum::new(&kernel, ksize, h, w).unwrap();
        assert!(spec.im_spectrum().is_some());
        let corr = filter_real(&field, &spec, true);
        let slow = naive_cyclic_convolve(&field, h, w, &mirrored, ksize);
        for (a, b) in corr.iter().zip(&slow) {
            assert!((a.re - b.re).abs() < 1e-3 && (a.im - b.im).abs() < 1e-3, "{a} vs {b}");
        }
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
    fn mul_conj_add_into_conjugates_rhs() {
        let mut out = vec![Complex::ZERO];
        mul_conj_add_into(&mut out, &[Complex::new(1.0, 1.0)], &[Complex::new(0.0, 2.0)]);
        // (1+i) * conj(2i) = (1+i)(-2i) = -2i - 2i² = 2 - 2i
        assert_eq!(out[0], Complex::new(2.0, -2.0));
    }

    #[test]
    fn out_of_place_products_match_scalar_products() {
        let a: Vec<Complex> =
            (0..16).map(|i| Complex::new(i as f32 * 0.3, -1.0 + i as f32)).collect();
        let b: Vec<Complex> =
            (0..16).map(|i| Complex::new(1.5 - i as f32, i as f32 * 0.2)).collect();
        let mut out = vec![Complex::ZERO; 16];
        mul_into(&mut out, &a, &b);
        let reference: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x * *y).collect();
        assert_eq!(out, reference);

        // Accumulating into zero gives the conjugated product (up to the
        // fused multiply-add's rounding); accumulating it again doubles it.
        let reference: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x * y.conj()).collect();
        let mut out = vec![Complex::ZERO; 16];
        for scale in [1.0, 2.0] {
            mul_conj_add_into(&mut out, &a, &b);
            for (o, r) in out.iter().zip(&reference) {
                assert!((o.re - scale * r.re).abs() < 1e-4 && (o.im - scale * r.im).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn kernel_spectrum_reports_frame_dims() {
        let kernel = vec![Complex::from_real(0.5); 9];
        let spec = KernelSpectrum::new(&kernel, 3, 16, 16).unwrap();
        assert_eq!(spec.height(), 16);
        assert_eq!(spec.width(), 16);
        assert_eq!(spec.half_width(), 9);
        assert_eq!(spec.re_spectrum().map(<[Complex]>::len), Some(16 * 9));
    }
}
