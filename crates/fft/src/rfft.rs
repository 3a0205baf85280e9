//! Real-input 2-D FFT over a packed Hermitian half-spectrum.
//!
//! The spectrum of a real `h × w` image satisfies `X[ky, kx] =
//! conj(X[(h-ky)%h, (w-kx)%w])`, so columns `kx = w/2+1 .. w` are redundant.
//! [`RealFft2d`] stores only the `h × (w/2+1)` half-spectrum and computes the
//! row pass with a half-length complex FFT (two real samples packed per
//! complex slot), roughly halving both FLOPs and memory traffic relative to
//! running the full complex transform on real data. This is the engine under
//! every lithography convolution: mask spectra, SOCS kernel spectra and the
//! Eq. (14) gradient all live in packed half-spectrum form.
//!
//! Layout: row-major `h` rows of `w/2 + 1` entries; `out[ky * (w/2+1) + kx]`
//! holds `X[ky, kx]` for `kx = 0 ..= w/2`. The two boundary columns `kx = 0`
//! and `kx = w/2` (DC and Nyquist) are self-conjugate along `ky`:
//! `X[ky, b] = conj(X[(h-ky)%h, b])`.

use crate::fft1d::{ensure_len, floats, floats_mut, gather, max_tile, planes, scatter, tiles};
use crate::{Complex, Direction, Fft1d, FftError};

/// A planned real-input 2-D FFT producing/consuming the packed
/// `h × (w/2+1)` half-spectrum.
///
/// ```
/// use ganopc_fft::RealFft2d;
/// # fn main() -> Result<(), ganopc_fft::FftError> {
/// let plan = RealFft2d::new(4, 8)?;
/// let image: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
/// let mut half = vec![ganopc_fft::Complex::ZERO; plan.spectrum_len()];
/// let mut scratch = Vec::new();
/// plan.forward(&image, &mut half, &mut scratch)?;
/// let mut back = vec![0.0f32; 32];
/// plan.inverse(&mut half, &mut back, &mut scratch)?;
/// for (a, b) in back.iter().zip(&image) {
///     assert!((a - b).abs() < 1e-4);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RealFft2d {
    height: usize,
    width: usize,
    half_width: usize,
    /// Half-length (`w/2`) plan for the packed row pass.
    row_plan: Fft1d,
    /// Full-height plan for the column pass over the half-spectrum.
    col_plan: Fft1d,
    /// Untangling twiddles `e^{-2πik/w}` for `k = 0 ..= w/2`.
    tw: Vec<Complex>,
}

impl RealFft2d {
    /// Plans a real 2-D transform for a `height × width` grid.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidLength`] unless both dimensions are powers
    /// of two and `width >= 2` (the packed row pass needs at least one
    /// complex slot per row).
    pub fn new(height: usize, width: usize) -> Result<Self, FftError> {
        if width < 2 {
            return Err(FftError::InvalidLength(width));
        }
        if !crate::is_power_of_two(height) || !crate::is_power_of_two(width) {
            return Err(FftError::InvalidLength(if crate::is_power_of_two(height) {
                width
            } else {
                height
            }));
        }
        let half = width / 2;
        let row_plan = Fft1d::new(half)?;
        let col_plan = Fft1d::new(height)?;
        let tw = (0..=half)
            .map(|k| Complex::cis(-2.0 * std::f32::consts::PI * k as f32 / width as f32))
            .collect();
        Ok(RealFft2d { height, width, half_width: half + 1, row_plan, col_plan, tw })
    }

    /// Grid height (number of rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Grid width of the *real* domain (number of columns before packing).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored spectrum columns, `width/2 + 1`.
    #[inline]
    pub fn half_width(&self) -> usize {
        self.half_width
    }

    /// Real-domain buffer length `height * width`.
    #[inline]
    pub fn real_len(&self) -> usize {
        self.height * self.width
    }

    /// Packed half-spectrum buffer length `height * (width/2 + 1)`.
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.height * self.half_width
    }

    /// Scratch slots one tile needs: the row pass holds `w/2 + 1` plane rows
    /// per lane (the untangled bins), the column pass `height`. Never more
    /// than [`RealFft2d::spectrum_len`].
    fn scratch_len(&self) -> usize {
        (self.half_width * max_tile(self.height)).max(self.height * max_tile(self.half_width))
    }

    fn check(&self, real_len: usize, spec_len: usize) -> Result<(), FftError> {
        if real_len != self.real_len() {
            return Err(FftError::SizeMismatch { expected: self.real_len(), actual: real_len });
        }
        if spec_len != self.spectrum_len() {
            return Err(FftError::SizeMismatch { expected: self.spectrum_len(), actual: spec_len });
        }
        Ok(())
    }

    /// Forward transform: real `height × width` image → packed half-spectrum
    /// (unnormalized, matching [`Direction::Forward`] of the complex path).
    ///
    /// `scratch` is grown once to one tile (never beyond `spectrum_len()`)
    /// and then reused; steady state performs zero heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] on buffer-length mismatch.
    // lint: hot-path
    pub fn forward(
        &self,
        real: &[f32],
        out: &mut [Complex],
        scratch: &mut Vec<Complex>,
    ) -> Result<(), FftError> {
        self.check(real.len(), out.len())?;
        let (w, hw) = (self.width, self.half_width);
        let m = w / 2;
        ensure_len(scratch, self.scratch_len());

        // Row pass, a tile of rows at a time: pack two real samples per
        // complex slot straight into their digit-reversed plane rows, run the
        // half-length FFT across the tile, untangle into the m+1 stored bins
        // and write each lane back as one row of `out`.
        let slots = self.row_plan.slots();
        for (r0, b) in tiles(self.height) {
            let (re, im) = planes(scratch, hw, b);
            gather(&real[r0 * w..(r0 + b) * w], w, slots, re, im, b);
            self.row_plan.run(&mut re[..m * b], &mut im[..m * b], b, Direction::Forward);
            self.untangle(re, im, b);
            scatter(re, im, b, hw, floats_mut(&mut out[r0 * hw..(r0 + b) * hw]), 2 * hw);
        }

        // Column pass: every stored column gets a full-height complex FFT,
        // a tile of adjacent columns at a time.
        self.col_plan.columns(out, hw, Direction::Forward, scratch);
        Ok(())
    }

    /// Inverse transform: packed half-spectrum → real image, normalized by
    /// `1/(height·width)` so `inverse(forward(x)) == x` up to rounding.
    ///
    /// Destroys the contents of `half` (it is used as working storage). The
    /// input is assumed Hermitian-consistent, i.e. in the range of
    /// [`RealFft2d::forward`] — true for any product of half-spectra of real
    /// fields, which is all the litho stack produces.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] on buffer-length mismatch.
    // lint: hot-path
    pub fn inverse(
        &self,
        half: &mut [Complex],
        out: &mut [f32],
        scratch: &mut Vec<Complex>,
    ) -> Result<(), FftError> {
        self.check(out.len(), half.len())?;
        let (w, hw) = (self.width, self.half_width);
        let m = w / 2;
        ensure_len(scratch, self.scratch_len());

        // Column pass first (reverse of forward): inverse FFT down every
        // stored column, carrying the 1/h normalization.
        self.col_plan.columns(half, hw, Direction::Inverse, scratch);

        // Row pass, a tile of rows at a time: gather bins 0..m into their
        // digit-reversed plane rows (the Nyquist bin into row m), tangle them
        // into the half-length complex sequence in place, inverse FFT (1/m)
        // and unpack interleaved real samples. The two 1/2 factors hidden in
        // the tangle make 1/(h·m) the exact overall 1/(h·w) normalization.
        let slots = self.row_plan.slots();
        for (r0, b) in tiles(self.height) {
            let (re, im) = planes(scratch, hw, b);
            let rows = &half[r0 * hw..(r0 + b) * hw];
            gather(floats(rows), 2 * hw, slots, re, im, b);
            for (l, src) in rows.chunks_exact(hw).enumerate() {
                re[m * b + l] = src[m].re;
                im[m * b + l] = src[m].im;
            }
            self.tangle(re, im, b);
            self.row_plan.run(&mut re[..m * b], &mut im[..m * b], b, Direction::Inverse);
            scatter(re, im, b, m, &mut out[r0 * w..(r0 + b) * w], w);
        }
        Ok(())
    }

    /// Adjoint of [`RealFft2d::forward`]: maps an *arbitrary* packed
    /// half-spectrum `Y` (not necessarily Hermitian-consistent) to the real
    /// image `A(Y)[n] = Re Σ_k Y[k]·e^{+2πi⟨k,n⟩}`, the transpose of the
    /// forward operator under the real inner product `⟨U,V⟩ = Σ Re(U·conj(V))`.
    ///
    /// Gradients of losses expressed on the packed spectrum pull back through
    /// this map. Destroys the contents of `half`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] on buffer-length mismatch.
    // lint: hot-path
    pub fn adjoint(
        &self,
        half: &mut [Complex],
        out: &mut [f32],
        scratch: &mut Vec<Complex>,
    ) -> Result<(), FftError> {
        self.check(out.len(), half.len())?;
        let (h, hw) = (self.height, self.half_width);
        let m = self.width / 2;
        // Interior columns 0 < kx < m are counted twice by the implicit
        // mirror of the Hermitian inverse, so they enter at half weight;
        // the self-mirrored boundary columns are instead projected onto
        // their Hermitian (along ky) part.
        for row in half.chunks_exact_mut(hw) {
            for v in &mut row[1..m] {
                *v = v.scale(0.5);
            }
        }
        for b in [0, m] {
            for ky in 0..=(h / 2) {
                let ky2 = (h - ky) % h;
                if ky2 < ky {
                    continue;
                }
                let a = half[ky * hw + b];
                let c = half[ky2 * hw + b];
                half[ky * hw + b] = (a + c.conj()).scale(0.5);
                half[ky2 * hw + b] = (c + a.conj()).scale(0.5);
            }
        }
        // The symmetrized spectrum lies in the range of `forward`, where the
        // inverse is exact; undo its 1/N normalization.
        self.inverse(half, out, scratch)?;
        let n = (h * self.width) as f32;
        for v in out.iter_mut() {
            *v *= n;
        }
        Ok(())
    }

    /// Untangles a tile in place: on entry plane rows `0..m` hold the
    /// half-length FFTs `Z` of the packed samples (one per lane); on exit
    /// rows `0..=m` hold the real-input spectrum bins `X[0..=m]`.
    // lint: hot-path
    fn untangle(&self, re: &mut [f32], im: &mut [f32], lanes: usize) {
        let m = self.width / 2;
        let mut k = 1;
        while 2 * k < m {
            let (twk, twmk) = (self.tw[k], self.tw[m - k]);
            let (rk, rmk) = row_pair(re, lanes, k, m - k);
            let (ik, imk) = row_pair(im, lanes, k, m - k);
            untangle_pair(rk, ik, rmk, imk, twk, twmk);
            k += 1;
        }
        if m >= 2 {
            for v in &mut im[m / 2 * lanes..][..lanes] {
                *v = -*v;
            }
        }
        let (r0, rm) = row_pair(re, lanes, 0, m);
        let (i0, im_) = row_pair(im, lanes, 0, m);
        for l in 0..lanes {
            let z0 = Complex::new(r0[l], i0[l]);
            (rm[l], im_[l]) = (z0.re - z0.im, 0.0);
            (r0[l], i0[l]) = (z0.re + z0.im, 0.0);
        }
    }

    /// Tangles a tile in place: on entry plane row `slots[k]` holds bin
    /// `X[k]` for `k < m` and row `m` holds `X[m]`; on exit row `slots[k]`
    /// holds element `k` of the half-length sequence whose inverse FFT yields
    /// the packed real samples — already in the digit-reversed order the
    /// kernel expects.
    // lint: hot-path
    fn tangle(&self, re: &mut [f32], im: &mut [f32], lanes: usize) {
        let m = self.width / 2;
        let slots = self.row_plan.slots();
        // General (complex-boundary-safe) tangle so the adjoint path may feed
        // symmetrized but non-real DC/Nyquist entries through the same code.
        let (r0, rm) = row_pair(re, lanes, slots[0] as usize, m);
        let (i0, im_) = row_pair(im, lanes, slots[0] as usize, m);
        for l in 0..lanes {
            let x0 = Complex::new(r0[l], i0[l]);
            let xm = Complex::new(rm[l], im_[l]);
            let e0 = (x0 + xm.conj()).scale(0.5);
            let o0 = (x0 - xm.conj()).scale(0.5);
            (r0[l], i0[l]) = (e0.re - o0.im, e0.im + o0.re); // e0 + i·o0
        }
        let mut k = 1;
        while 2 * k < m {
            let twc = self.tw[k].conj();
            let (p, q) = (slots[k] as usize, slots[m - k] as usize);
            let (rk, rmk) = row_pair(re, lanes, p, q);
            let (ik, imk) = row_pair(im, lanes, p, q);
            tangle_pair(rk, ik, rmk, imk, twc);
            k += 1;
        }
        if m >= 2 {
            let twc = self.tw[m / 2].conj();
            let at = slots[m / 2] as usize * lanes;
            for (r, i) in re[at..at + lanes].iter_mut().zip(&mut im[at..at + lanes]) {
                let x = Complex::new(*r, *i);
                let e = (x + x.conj()).scale(0.5);
                let o = (x - x.conj()).scale(0.5) * twc;
                (*r, *i) = (e.re - o.im, e.im + o.re);
            }
        }
    }
}

/// Rows `p` and `q` (`p != q`) of a plane with `lanes` columns, borrowed
/// together.
fn row_pair(plane: &mut [f32], lanes: usize, p: usize, q: usize) -> (&mut [f32], &mut [f32]) {
    let (lo, hi) = if p < q { (p, q) } else { (q, p) };
    let (a, b) = plane.split_at_mut(hi * lanes);
    let (lo_row, hi_row) = (&mut a[lo * lanes..][..lanes], &mut b[..lanes]);
    if p < q {
        (lo_row, hi_row)
    } else {
        (hi_row, lo_row)
    }
}

/// One untangle step across a row of lanes: bins `k` (`rk`, `ik`) and
/// `m - k` (`rmk`, `imk`) from the half-length spectra at the same rows,
/// with the untangling twiddles of both bins.
// lint: hot-path
#[inline(never)]
fn untangle_pair(
    rk: &mut [f32],
    ik: &mut [f32],
    rmk: &mut [f32],
    imk: &mut [f32],
    twk: Complex,
    twmk: Complex,
) {
    for (((rk, ik), rmk), imk) in rk.iter_mut().zip(ik).zip(rmk).zip(imk) {
        let zk = Complex::new(*rk, *ik);
        let zmk = Complex::new(*rmk, *imk);
        let e = (zk + zmk.conj()).scale(0.5);
        let d = zk - zmk.conj();
        // o = -i/2 · d
        let o = Complex::new(0.5 * d.im, -0.5 * d.re);
        let xk = e + twk * o;
        let xmk = e.conj() + twmk * o.conj();
        (*rk, *ik, *rmk, *imk) = (xk.re, xk.im, xmk.re, xmk.im);
    }
}

/// One tangle step across a row of lanes: bins `X[k]` (`rk`, `ik`) and
/// `X[m - k]` (`rmk`, `imk`) become elements `k` and `m - k` of the
/// half-length sequence; `twc` is the conjugated twiddle of bin `k`.
// lint: hot-path
#[inline(never)]
fn tangle_pair(rk: &mut [f32], ik: &mut [f32], rmk: &mut [f32], imk: &mut [f32], twc: Complex) {
    for (((rk, ik), rmk), imk) in rk.iter_mut().zip(ik).zip(rmk).zip(imk) {
        let xk = Complex::new(*rk, *ik);
        let xmk = Complex::new(*rmk, *imk);
        let e = (xk + xmk.conj()).scale(0.5);
        let t = (xk - xmk.conj()).scale(0.5);
        let o = t * twc;
        let (ec, oc) = (e.conj(), o.conj());
        // e + i·o at k, conj(e) + i·conj(o) at m - k.
        (*rk, *ik) = (e.re - o.im, e.im + o.re);
        (*rmk, *imk) = (ec.re - oc.im, ec.im + oc.re);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fft2d;

    fn image(h: usize, w: usize) -> Vec<f32> {
        (0..h * w)
            .map(|i| {
                let y = (i / w) as f32;
                let x = (i % w) as f32;
                (0.37 * x - 0.19 * y).sin() + 0.25 * (0.05 * x * y).cos()
            })
            .collect()
    }

    #[test]
    fn rejects_bad_dims() {
        assert!(RealFft2d::new(8, 1).is_err());
        assert!(RealFft2d::new(3, 8).is_err());
        assert!(RealFft2d::new(8, 12).is_err());
        assert!(RealFft2d::new(1, 2).is_ok());
        assert!(RealFft2d::new(8, 8).is_ok());
    }

    #[test]
    fn forward_matches_full_complex_spectrum() {
        for (h, w) in [(1usize, 2usize), (1, 8), (4, 2), (2, 16), (16, 4), (8, 8), (16, 32)] {
            let plan = RealFft2d::new(h, w).unwrap();
            let full = Fft2d::new(h, w).unwrap();
            let img = image(h, w);
            let mut half = vec![Complex::ZERO; plan.spectrum_len()];
            let mut scratch = Vec::new();
            plan.forward(&img, &mut half, &mut scratch).unwrap();
            let reference = full.forward_real(&img).unwrap();
            let hw = plan.half_width();
            for ky in 0..h {
                for kx in 0..hw {
                    let got = half[ky * hw + kx];
                    let exp = reference[ky * w + kx];
                    let tol = 1e-4 * (h * w) as f32;
                    assert!((got.re - exp.re).abs() < tol, "{h}x{w} bin ({ky},{kx})");
                    assert!((got.im - exp.im).abs() < tol, "{h}x{w} bin ({ky},{kx})");
                }
            }
        }
    }

    #[test]
    fn boundary_columns_are_self_conjugate() {
        let (h, w) = (8usize, 16usize);
        let plan = RealFft2d::new(h, w).unwrap();
        let img = image(h, w);
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        plan.forward(&img, &mut half, &mut scratch).unwrap();
        let hw = plan.half_width();
        for b in [0, w / 2] {
            for ky in 0..h {
                let a = half[ky * hw + b];
                let c = half[((h - ky) % h) * hw + b].conj();
                assert!((a.re - c.re).abs() < 1e-3 && (a.im - c.im).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        for (h, w) in [(1usize, 2usize), (2, 2), (4, 16), (16, 4), (32, 32)] {
            let plan = RealFft2d::new(h, w).unwrap();
            let img = image(h, w);
            let mut half = vec![Complex::ZERO; plan.spectrum_len()];
            let mut out = vec![0.0f32; h * w];
            let mut scratch = Vec::new();
            plan.forward(&img, &mut half, &mut scratch).unwrap();
            plan.inverse(&mut half, &mut out, &mut scratch).unwrap();
            for (a, b) in out.iter().zip(&img) {
                assert!((a - b).abs() < 1e-4, "{h}x{w}");
            }
        }
    }

    #[test]
    fn adjoint_identity_holds() {
        // ⟨F x, Y⟩ = ⟨x, Aᵀ Y⟩ under the real inner product, for arbitrary
        // (non-Hermitian) packed Y.
        let (h, w) = (8usize, 16usize);
        let plan = RealFft2d::new(h, w).unwrap();
        let x = image(h, w);
        let mut fx = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        plan.forward(&x, &mut fx, &mut scratch).unwrap();

        let mut y: Vec<Complex> = (0..plan.spectrum_len())
            .map(|i| {
                Complex::new(((i * 13 % 31) as f32) / 31.0 - 0.5, ((i * 7 % 17) as f32) / 17.0)
            })
            .collect();
        let lhs: f64 = fx
            .iter()
            .zip(&y)
            .map(|(a, b)| (a.re as f64) * (b.re as f64) + (a.im as f64) * (b.im as f64))
            .sum();

        let mut ay = vec![0.0f32; h * w];
        plan.adjoint(&mut y, &mut ay, &mut scratch).unwrap();
        let rhs: f64 = x.iter().zip(&ay).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn scratch_reused_across_calls() {
        let plan = RealFft2d::new(16, 16).unwrap();
        let img = image(16, 16);
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut out = vec![0.0f32; 256];
        let mut scratch = Vec::new();
        plan.forward(&img, &mut half, &mut scratch).unwrap();
        let cap = scratch.capacity();
        for _ in 0..3 {
            plan.forward(&img, &mut half, &mut scratch).unwrap();
            plan.inverse(&mut half, &mut out, &mut scratch).unwrap();
        }
        assert_eq!(scratch.capacity(), cap);
    }
}
