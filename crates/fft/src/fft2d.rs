//! Row–column 2-D FFT on batched tiles.

use crate::fft1d::{ensure_len, max_tile, with_scratch};
use crate::{Complex, Direction, Fft1d, FftError};

/// A planned 2-D FFT over a `height × width` row-major buffer.
///
/// The transform is separable: a row pass, then a column pass, each run
/// through the batched [`Fft1d`] kernel a tile of about 32 rows (columns)
/// at a time. A column tile reads and writes contiguous runs of every row,
/// so the frame is never transposed, and the plan performs no allocation
/// when scratch is supplied via [`Fft2d::transform_with`].
///
/// ```
/// use ganopc_fft::{Complex, Direction, Fft2d};
/// # fn main() -> Result<(), ganopc_fft::FftError> {
/// let plan = Fft2d::new(4, 8)?;
/// let mut img = vec![Complex::from_real(1.0); 4 * 8];
/// plan.transform(&mut img, Direction::Forward)?;
/// // All energy at DC for a constant image.
/// assert!((img[0].re - 32.0).abs() < 1e-4);
/// assert!(img[1..].iter().all(|c| c.abs() < 1e-3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fft2d {
    height: usize,
    width: usize,
    row_plan: Fft1d,
    col_plan: Fft1d,
}

impl Fft2d {
    /// Plans a 2-D transform for a `height × width` grid.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidLength`] unless both dimensions are nonzero
    /// powers of two.
    pub fn new(height: usize, width: usize) -> Result<Self, FftError> {
        let row_plan = Fft1d::new(width)?;
        let col_plan = Fft1d::new(height)?;
        Ok(Fft2d { height, width, row_plan, col_plan })
    }

    /// Grid height (number of rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Grid width (number of columns).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of samples `height * width`.
    #[inline]
    pub fn len(&self) -> usize {
        self.height * self.width
    }

    /// Always `false`: both dimensions are validated nonzero at construction.
    /// Present for API completeness alongside [`Fft2d::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Transforms a row-major `height × width` buffer in place, borrowing a
    /// per-thread scratch buffer for the tiles.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] when `data.len() != height * width`.
    pub fn transform(&self, data: &mut [Complex], dir: Direction) -> Result<(), FftError> {
        with_scratch(|scratch| self.transform_with(data, dir, scratch))
    }

    /// Transforms a row-major buffer in place using caller-owned scratch.
    ///
    /// `scratch` is grown once to one tile (at most `height * width` slots)
    /// and then reused; steady state performs zero heap allocation. Its
    /// contents on return are the last tile and carry no meaning to callers.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] when `data.len() != height * width`.
    pub fn transform_with(
        &self,
        data: &mut [Complex],
        dir: Direction,
        scratch: &mut Vec<Complex>,
    ) -> Result<(), FftError> {
        if data.len() != self.len() {
            return Err(FftError::SizeMismatch { expected: self.len(), actual: data.len() });
        }
        let (h, w) = (self.height, self.width);
        ensure_len(scratch, (w * max_tile(h)).max(h * max_tile(w)));
        self.row_plan.rows(data, h, dir, scratch);
        self.col_plan.columns(data, w, dir, scratch);
        Ok(())
    }

    /// Convenience: forward-transforms a real-valued image into a fresh
    /// complex spectrum buffer.
    ///
    /// The litho hot path uses [`crate::RealFft2d`] and its packed
    /// half-spectrum instead; this full-spectrum variant remains for tests
    /// and reference computations.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] when `real.len() != height * width`.
    pub fn forward_real(&self, real: &[f32]) -> Result<Vec<Complex>, FftError> {
        if real.len() != self.len() {
            return Err(FftError::SizeMismatch { expected: self.len(), actual: real.len() });
        }
        let mut buf: Vec<Complex> = real.iter().map(|&r| Complex::from_real(r)).collect();
        self.transform(&mut buf, Direction::Forward)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(h: usize, w: usize) -> Vec<Complex> {
        (0..h * w)
            .map(|i| {
                let y = (i / w) as f32;
                let x = (i % w) as f32;
                Complex::new((0.3 * x + 0.7 * y).sin(), (0.11 * x * y).cos() * 0.5)
            })
            .collect()
    }

    #[test]
    fn rejects_bad_dims() {
        assert!(Fft2d::new(3, 8).is_err());
        assert!(Fft2d::new(8, 0).is_err());
        assert!(Fft2d::new(8, 8).is_ok());
    }

    #[test]
    fn roundtrip_rectangular() {
        for (h, w) in [(2usize, 16usize), (16, 2), (8, 8), (32, 64)] {
            let plan = Fft2d::new(h, w).unwrap();
            let input = pattern(h, w);
            let mut data = input.clone();
            plan.transform(&mut data, Direction::Forward).unwrap();
            plan.transform(&mut data, Direction::Inverse).unwrap();
            for (a, b) in data.iter().zip(&input) {
                assert!((a.re - b.re).abs() < 1e-3, "{h}x{w}");
                assert!((a.im - b.im).abs() < 1e-3, "{h}x{w}");
            }
        }
    }

    #[test]
    fn impulse_flat_spectrum_2d() {
        let plan = Fft2d::new(8, 16).unwrap();
        let mut data = vec![Complex::ZERO; 128];
        data[0] = Complex::ONE;
        plan.transform(&mut data, Direction::Forward).unwrap();
        for c in &data {
            assert!((c.re - 1.0).abs() < 1e-5 && c.im.abs() < 1e-5);
        }
    }

    #[test]
    fn separability_matches_manual_passes() {
        // 2-D DFT must equal 1-D over rows followed by 1-D over columns.
        let (h, w) = (8usize, 8usize);
        let plan2 = Fft2d::new(h, w).unwrap();
        let plan1 = Fft1d::new(8).unwrap();
        let input = pattern(h, w);

        let mut got = input.clone();
        plan2.transform(&mut got, Direction::Forward).unwrap();

        let mut manual = input;
        for row in manual.chunks_exact_mut(w) {
            plan1.transform(row, Direction::Forward).unwrap();
        }
        for x in 0..w {
            let mut col: Vec<Complex> = (0..h).map(|y| manual[y * w + x]).collect();
            plan1.transform(&mut col, Direction::Forward).unwrap();
            for y in 0..h {
                manual[y * w + x] = col[y];
            }
        }
        for (g, m) in got.iter().zip(&manual) {
            assert!((g.re - m.re).abs() < 1e-4);
            assert!((g.im - m.im).abs() < 1e-4);
        }
    }

    #[test]
    fn transform_with_matches_transform() {
        let (h, w) = (16usize, 8usize);
        let plan = Fft2d::new(h, w).unwrap();
        let input = pattern(h, w);
        let mut a = input.clone();
        let mut b = input;
        let mut scratch = Vec::new();
        plan.transform(&mut a, Direction::Forward).unwrap();
        plan.transform_with(&mut b, Direction::Forward, &mut scratch).unwrap();
        assert_eq!(a, b);
        // Scratch is grown once and reused verbatim on the next call.
        let cap = scratch.capacity();
        plan.transform_with(&mut b, Direction::Inverse, &mut scratch).unwrap();
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn forward_real_matches_complex_path() {
        let plan = Fft2d::new(4, 4).unwrap();
        let real: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let spec = plan.forward_real(&real).unwrap();
        let mut manual: Vec<Complex> = real.iter().map(|&r| Complex::from_real(r)).collect();
        plan.transform(&mut manual, Direction::Forward).unwrap();
        assert_eq!(spec.len(), manual.len());
        for (a, b) in spec.iter().zip(&manual) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn real_input_spectrum_is_hermitian() {
        let (h, w) = (8usize, 8usize);
        let plan = Fft2d::new(h, w).unwrap();
        let real: Vec<f32> = (0..h * w).map(|i| ((i * 7 % 13) as f32) / 13.0).collect();
        let spec = plan.forward_real(&real).unwrap();
        for y in 0..h {
            for x in 0..w {
                let a = spec[y * w + x];
                let b = spec[((h - y) % h) * w + (w - x) % w].conj();
                assert!((a.re - b.re).abs() < 1e-3);
                assert!((a.im - b.im).abs() < 1e-3);
            }
        }
    }
}
