//! Planned 1-D mixed radix-4/radix-2 FFT over batches of split-format lanes.
//!
//! One kernel, [`Fft1d::run`], transforms `lanes` independent sequences at
//! once. They are held as two `f32` planes (real and imaginary parts, not
//! interleaved) of `len` rows by `lanes` columns: row `i` holds element `i`
//! of every sequence. A butterfly combines whole plane rows with one scalar
//! twiddle per row, so its inner loop is a plain `f32` loop over the lanes
//! that the compiler vectorizes. The row and column passes of [`crate::Fft2d`]
//! and [`crate::RealFft2d`] and the single-sequence [`Fft1d::transform`] all
//! run through it. None of them transposes a whole frame (a row tile is
//! transposed only as it is copied in and out) or permutes a sequence in
//! place: the copy that fills a tile writes each element straight to its
//! digit-reversed row ([`Fft1d::slots`]).
//!
//! The loops over lanes live in small `#[inline(never)]` functions that take
//! each plane row as its own slice argument. That is how the compiler learns
//! the rows do not alias; with the rows split off one buffer inside a single
//! function it keeps most of these loops scalar.

use std::cell::RefCell;

use crate::{Complex, Direction, FftError};

/// Nominal lanes per tile. A plane row of 32 `f32` is 128 bytes — two cache
/// lines and a whole number of vectors at any SIMD width up to 512 bits —
/// and a 128-long tile (both planes) is 32 KB, which stays in L1. See
/// [`tiles`] for how a count that is not a multiple is split.
pub(crate) const LANES: usize = 32;

thread_local! {
    /// Growable per-thread scratch backing the entry points that take no
    /// scratch argument ([`Fft1d::transform`], [`crate::Fft2d::transform`]).
    static SCRATCH: RefCell<Vec<Complex>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's scratch buffer.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Vec<Complex>) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Grows `scratch` to at least `len` slots; never shrinks it, so a buffer
/// already sized (by an earlier call or by its owner) is used as it is.
pub(crate) fn ensure_len(scratch: &mut Vec<Complex>, len: usize) {
    if scratch.len() < len {
        scratch.resize(len, Complex::ZERO);
    }
}

/// Splits `count` sequences into tiles of about [`LANES`]: `(first, width)`
/// pairs covering `0..count` in order. The remainder is spread over the
/// tiles (129 = 32 + 32 + 32 + 33), so no tile is a narrow scalar tail.
pub(crate) fn tiles(count: usize) -> impl Iterator<Item = (usize, usize)> {
    let n = (count / LANES).max(1);
    (0..n).map(move |t| (t * count / n, (t + 1) * count / n - t * count / n))
}

/// Width of the widest tile [`tiles`] yields for `count` sequences.
pub(crate) fn max_tile(count: usize) -> usize {
    count.div_ceil((count / LANES).max(1))
}

/// Pairs per row visit of [`gather`] and [`scatter`]. With 32 lanes a run
/// touches 16 KB of the rows (64 pairs of each) and 16 KB of the planes (64
/// rows of each), so it stays in L1 however long the rows are.
const RUN: usize = 64;

/// Views complex values as their interleaved `f32` parts.
pub(crate) fn floats(v: &[Complex]) -> &[f32] {
    // SAFETY: `Complex` is `#[repr(C)] { re: f32, im: f32 }`, so `n` values
    // are exactly `2n` contiguous, 4-byte-aligned `f32`; the shared borrow
    // carries over to the returned slice.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<f32>(), 2 * v.len()) }
}

/// Mutable form of [`floats`].
pub(crate) fn floats_mut(v: &mut [Complex]) -> &mut [f32] {
    // SAFETY: as in `floats`; the mutable borrow of `v` moves into the
    // returned slice, so nothing aliases it.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<f32>(), 2 * v.len()) }
}

/// Views the first `rows * lanes` slots of `scratch` as a tile's real and
/// imaginary planes, `rows * lanes` `f32` each.
pub(crate) fn planes(
    scratch: &mut [Complex],
    rows: usize,
    lanes: usize,
) -> (&mut [f32], &mut [f32]) {
    let n = rows * lanes;
    floats_mut(&mut scratch[..n]).split_at_mut(n)
}

/// Fills a tile's planes from `lanes` rows of interleaved `(re, im)` pairs
/// `stride` floats apart: pair `j` of row `l` lands in plane row `slots[j]`,
/// lane `l`. The transposition walks runs of [`RUN`] pairs, all lanes per
/// run, so both sides stream through a few cache lines at a time whatever
/// the row stride.
// lint: hot-path
pub(crate) fn gather(
    src: &[f32],
    stride: usize,
    slots: &[u32],
    re: &mut [f32],
    im: &mut [f32],
    lanes: usize,
) {
    for (run, slots) in slots.chunks(RUN).enumerate() {
        let j0 = run * RUN;
        for l in 0..lanes {
            let row = &src[l * stride + 2 * j0..][..2 * slots.len()];
            for (pair, &s) in row.chunks_exact(2).zip(slots) {
                re[s as usize * lanes + l] = pair[0];
                im[s as usize * lanes + l] = pair[1];
            }
        }
    }
}

/// Writes plane rows `0..count` of a tile back as `lanes` rows of
/// interleaved `(re, im)` pairs `stride` floats apart: plane row `k`, lane
/// `l` becomes pair `k` of row `l`. The inverse of [`gather`] without the
/// permutation, walked the same way.
// lint: hot-path
pub(crate) fn scatter(
    re: &[f32],
    im: &[f32],
    lanes: usize,
    count: usize,
    dst: &mut [f32],
    stride: usize,
) {
    for k0 in (0..count).step_by(RUN) {
        let n = RUN.min(count - k0);
        for l in 0..lanes {
            let row = &mut dst[l * stride + 2 * k0..][..2 * n];
            for (c, pair) in row.chunks_exact_mut(2).enumerate() {
                pair[0] = re[(k0 + c) * lanes + l];
                pair[1] = im[(k0 + c) * lanes + l];
            }
        }
    }
}

/// Splits complex values into a real and an imaginary plane row.
#[inline(never)]
fn deinterleave(src: &[Complex], re: &mut [f32], im: &mut [f32]) {
    for ((v, r), i) in src.iter().zip(re).zip(im) {
        (*r, *i) = (v.re, v.im);
    }
}

/// Inverse of [`deinterleave`].
#[inline(never)]
fn interleave(re: &[f32], im: &[f32], dst: &mut [Complex]) {
    for ((d, &r), &i) in dst.iter_mut().zip(re).zip(im) {
        *d = Complex::new(r, i);
    }
}

/// A planned 1-D FFT for a fixed power-of-two length.
///
/// The plan factors the length as `[2?] · 4 · 4 · …` — a single leading
/// radix-2 stage when `log2(len)` is odd, radix-4 butterflies everywhere
/// else — and precomputes everything the transform needs:
///
/// * the mixed-radix digit-reversal permutation, as the plane row each input
///   element is gathered into ([`Fft1d::slots`]);
/// * *direction-specific* twiddle tables (forward and conjugated inverse),
///   so the butterfly inner loops carry no per-element direction branch.
///
/// Radix-4 performs the same arithmetic as two fused radix-2 stages but with
/// one pass over the data and 25 % fewer complex multiplies, which is what
/// makes it the main stage of the spectral engine.
///
/// ```
/// use ganopc_fft::{Complex, Direction, Fft1d};
/// # fn main() -> Result<(), ganopc_fft::FftError> {
/// let plan = Fft1d::new(16)?;
/// let mut x: Vec<Complex> = (0..16).map(|k| Complex::new(k as f32, 0.0)).collect();
/// let original = x.clone();
/// plan.transform(&mut x, Direction::Forward)?;
/// plan.transform(&mut x, Direction::Inverse)?;
/// for (a, b) in x.iter().zip(&original) {
///     assert!((a.re - b.re).abs() < 1e-4 && a.im.abs() < 1e-4);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fft1d {
    len: usize,
    /// `slots[j]` is the plane row input element `j` is gathered into: the
    /// inverse of the mixed-radix digit-reversal permutation.
    slots: Vec<u32>,
    /// Whether a twiddle-free radix-2 stage over adjacent pairs runs first
    /// (`log2(len)` odd).
    radix2_first: bool,
    /// Forward radix-4 twiddles, stage-by-stage: for each stage with
    /// quarter-span `m`, the triples `(W^t, W^2t, W^3t)` with
    /// `W = e^{-2πi/(4m)}`, `t = 0..m`.
    fwd: Vec<Complex>,
    /// The same tables conjugated, for the inverse transform.
    inv: Vec<Complex>,
}

/// Source-index permutation for the mixed-radix DIT input reordering:
/// `reordered[i] = data[perm[i]]`. The factor applied at the outermost
/// combine is 4 whenever `len >= 4`; the radix-2 stage (odd `log2`) is the
/// innermost, so it never appears here except for `len == 2`.
fn digit_reversal(len: usize) -> Vec<u32> {
    if len <= 1 {
        return vec![0; len.min(1)];
    }
    let r = if len == 2 { 2 } else { 4 };
    let m = len / r;
    let sub = digit_reversal(m);
    let mut out = Vec::with_capacity(len);
    for b in 0..r {
        for &s in &sub {
            out.push(s * r as u32 + b as u32);
        }
    }
    out
}

impl Fft1d {
    /// Plans a transform of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidLength`] unless `len` is a nonzero power of
    /// two.
    pub fn new(len: usize) -> Result<Self, FftError> {
        if !crate::is_power_of_two(len) {
            return Err(FftError::InvalidLength(len));
        }
        let log2_len = len.trailing_zeros();
        let radix2_first = log2_len % 2 == 1;
        let mut slots = vec![0u32; len];
        for (i, &j) in digit_reversal(len).iter().enumerate() {
            slots[j as usize] = i as u32;
        }
        // Radix-4 twiddles: quarter-span m starts at 1 (even log2) or 2 (odd
        // log2, after the radix-2 stage) and quadruples per stage.
        let mut fwd = Vec::new();
        let mut m = if radix2_first { 2usize } else { 1 };
        while 4 * m <= len {
            let step = -std::f32::consts::PI / (2.0 * m as f32); // -2π/(4m)
            for t in 0..m {
                let theta = step * t as f32;
                fwd.push(Complex::cis(theta));
                fwd.push(Complex::cis(2.0 * theta));
                fwd.push(Complex::cis(3.0 * theta));
            }
            m *= 4;
        }
        let inv = fwd.iter().map(|w| w.conj()).collect();
        Ok(Fft1d { len, slots, radix2_first, fwd, inv })
    }

    /// Length the plan was created for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: [`Fft1d::new`] rejects length zero, so a constructed
    /// plan is never empty. Present for API completeness alongside
    /// [`Fft1d::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The digit-reversed plane row of each input element: a gather that
    /// writes element `j` to row `slots()[j]` leaves the tile in the order
    /// [`Fft1d::run`] expects.
    #[inline]
    pub(crate) fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Transforms `data` in place (a batch of one lane).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] when `data.len() != self.len()`.
    // lint: hot-path
    pub fn transform(&self, data: &mut [Complex], dir: Direction) -> Result<(), FftError> {
        if data.len() != self.len {
            return Err(FftError::SizeMismatch { expected: self.len, actual: data.len() });
        }
        with_scratch(|scratch| {
            ensure_len(scratch, self.len);
            self.columns(data, 1, dir, scratch);
        });
        Ok(())
    }

    /// Transforms every column of the row-major `len × cols` matrix `data`
    /// in place, a tile of about [`LANES`] columns at a time. Each tile row
    /// is a contiguous run of `data`, deinterleaved into its digit-reversed
    /// plane row and interleaved back after the transform. `scratch` must
    /// hold `len * max_tile(cols)` slots.
    // lint: hot-path
    pub(crate) fn columns(
        &self,
        data: &mut [Complex],
        cols: usize,
        dir: Direction,
        scratch: &mut [Complex],
    ) {
        debug_assert_eq!(data.len(), self.len * cols);
        for (c0, b) in tiles(cols) {
            let (re, im) = planes(scratch, self.len, b);
            for (src, &s) in data.chunks_exact(cols).zip(&self.slots) {
                let at = s as usize * b;
                deinterleave(&src[c0..c0 + b], &mut re[at..at + b], &mut im[at..at + b]);
            }
            self.run(re, im, b, dir);
            for ((dst, r), i) in
                data.chunks_exact_mut(cols).zip(re.chunks_exact(b)).zip(im.chunks_exact(b))
            {
                interleave(r, i, &mut dst[c0..c0 + b]);
            }
        }
    }

    /// Transforms every row of the row-major `rows × len` matrix `data` in
    /// place, a tile of about [`LANES`] rows at a time: element `j` of tile
    /// row `l` is gathered into plane row `slots[j]`, lane `l`, and scattered
    /// back from lane `l` after the transform. `scratch` must hold
    /// `len * max_tile(rows)` slots.
    // lint: hot-path
    pub(crate) fn rows(
        &self,
        data: &mut [Complex],
        rows: usize,
        dir: Direction,
        scratch: &mut [Complex],
    ) {
        debug_assert_eq!(data.len(), self.len * rows);
        let n = self.len;
        for (r0, b) in tiles(rows) {
            let (re, im) = planes(scratch, n, b);
            let tile = floats_mut(&mut data[r0 * n..(r0 + b) * n]);
            gather(tile, 2 * n, &self.slots, re, im, b);
            self.run(re, im, b, dir);
            scatter(re, im, b, n, tile, 2 * n);
        }
    }

    /// The batched kernel: transforms `lanes` sequences held as split planes
    /// (`re[i * lanes + l]`, `im[i * lanes + l]` = element `i` of lane `l`)
    /// whose rows are already in digit-reversed order, leaving the spectra
    /// in natural order. Every element goes through exactly the `f32`
    /// operations, in the same order, that a one-sequence interleaved
    /// radix-4 transform applies to it; only the loop nest differs.
    // lint: hot-path
    pub(crate) fn run(&self, re: &mut [f32], im: &mut [f32], lanes: usize, dir: Direction) {
        let n = self.len;
        debug_assert!(re.len() == n * lanes && im.len() == n * lanes);
        if n <= 1 {
            return;
        }
        if self.radix2_first {
            for (pr, pi) in re.chunks_exact_mut(2 * lanes).zip(im.chunks_exact_mut(2 * lanes)) {
                let (ar, br) = pr.split_at_mut(lanes);
                let (ai, bi) = pi.split_at_mut(lanes);
                butterfly2(ar, ai, br, bi);
            }
        }
        let m0 = if self.radix2_first { 2 } else { 1 };
        match dir {
            Direction::Forward => self.radix4_stages::<false>(re, im, lanes, m0),
            Direction::Inverse => {
                self.radix4_stages::<true>(re, im, lanes, m0);
                let scale = 1.0 / n as f32;
                for v in re.iter_mut() {
                    *v *= scale;
                }
                for v in im.iter_mut() {
                    *v *= scale;
                }
            }
        }
    }

    /// All radix-4 stages for one direction. `INV` selects the conjugated
    /// twiddle table and the sign of the `±i` rotation, monomorphizing the
    /// butterfly into two branch-free inner loops.
    // lint: hot-path
    fn radix4_stages<const INV: bool>(
        &self,
        re: &mut [f32],
        im: &mut [f32],
        lanes: usize,
        mut m: usize,
    ) {
        let table: &[Complex] = if INV { &self.inv } else { &self.fwd };
        let n = self.len;
        let mut base = 0usize;
        while 4 * m <= n {
            let q = m * lanes;
            let stage_tw = &table[base..base + 3 * m];
            for (gr, gi) in re.chunks_exact_mut(4 * q).zip(im.chunks_exact_mut(4 * q)) {
                let (r01, r23) = gr.split_at_mut(2 * q);
                let (r0, r1) = r01.split_at_mut(q);
                let (r2, r3) = r23.split_at_mut(q);
                let (i01, i23) = gi.split_at_mut(2 * q);
                let (i0, i1) = i01.split_at_mut(q);
                let (i2, i3) = i23.split_at_mut(q);
                for (t, w) in stage_tw.chunks_exact(3).enumerate() {
                    let row = t * lanes;
                    butterfly4::<INV>(
                        &mut r0[row..row + lanes],
                        &mut r1[row..row + lanes],
                        &mut r2[row..row + lanes],
                        &mut r3[row..row + lanes],
                        &mut i0[row..row + lanes],
                        &mut i1[row..row + lanes],
                        &mut i2[row..row + lanes],
                        &mut i3[row..row + lanes],
                        [w[0], w[1], w[2]],
                    );
                }
            }
            base += 3 * m;
            m *= 4;
        }
    }
}

/// The twiddle-free radix-2 butterfly across a row of lanes: `a + b` into
/// the `a` row, `a - b` into the `b` row.
// lint: hot-path
#[inline(never)]
fn butterfly2(ar: &mut [f32], ai: &mut [f32], br: &mut [f32], bi: &mut [f32]) {
    for (((ar, ai), br), bi) in ar.iter_mut().zip(ai).zip(br).zip(bi) {
        let (a, b) = (Complex::new(*ar, *ai), Complex::new(*br, *bi));
        let (s, d) = (a + b, a - b);
        (*ar, *ai, *br, *bi) = (s.re, s.im, d.re, d.im);
    }
}

/// One radix-4 butterfly across a row of lanes: quarter rows `r0..r3`
/// (real parts) and `i0..i3` (imaginary parts), all `lanes` long, combined
/// with the row's twiddles `w`.
// lint: hot-path
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn butterfly4<const INV: bool>(
    r0: &mut [f32],
    r1: &mut [f32],
    r2: &mut [f32],
    r3: &mut [f32],
    i0: &mut [f32],
    i1: &mut [f32],
    i2: &mut [f32],
    i3: &mut [f32],
    w: [Complex; 3],
) {
    let lanes = r0.len();
    let (r1, r2, r3) = (&mut r1[..lanes], &mut r2[..lanes], &mut r3[..lanes]);
    let (i0, i1, i2, i3) = (&mut i0[..lanes], &mut i1[..lanes], &mut i2[..lanes], &mut i3[..lanes]);
    for l in 0..lanes {
        let u0 = Complex::new(r0[l], i0[l]);
        let u1 = Complex::new(r1[l], i1[l]) * w[0];
        let u2 = Complex::new(r2[l], i2[l]) * w[1];
        let u3 = Complex::new(r3[l], i3[l]) * w[2];
        let s02 = u0 + u2;
        let d02 = u0 - u2;
        let s13 = u1 + u3;
        let d13 = u1 - u3;
        // jd13 = ∓i·d13: forward uses W₄ = e^{-iπ/2} = -i, the inverse its
        // conjugate.
        let jd13 = if INV { Complex::new(-d13.im, d13.re) } else { Complex::new(d13.im, -d13.re) };
        let (y0, y1, y2, y3) = (s02 + s13, d02 + jd13, s02 - s13, d02 - jd13);
        (r0[l], i0[l]) = (y0.re, y0.im);
        (r1[l], i1[l]) = (y1.re, y1.im);
        (r2[l], i2[l]) = (y2.re, y2.im);
        (r3[l], i3[l]) = (y3.re, y3.im);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(N²) DFT in f64 used as the reference implementation.
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

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n).map(|k| Complex::new(k as f32 * 0.25 - 1.0, (k as f32 * 0.5).sin())).collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(Fft1d::new(0).err(), Some(FftError::InvalidLength(0)));
        assert_eq!(Fft1d::new(3).err(), Some(FftError::InvalidLength(3)));
        assert_eq!(Fft1d::new(48).err(), Some(FftError::InvalidLength(48)));
        assert!(Fft1d::new(1).is_ok());
        assert!(Fft1d::new(1024).is_ok());
    }

    #[test]
    fn rejects_wrong_buffer_size() {
        let plan = Fft1d::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 4];
        assert_eq!(
            plan.transform(&mut data, Direction::Forward),
            Err(FftError::SizeMismatch { expected: 8, actual: 4 })
        );
    }

    #[test]
    fn digit_reversal_interleaves_residues() {
        // len 8 factors as [2, 4]: the radix-2 pairs must hold the mod-4
        // residue classes in order.
        assert_eq!(digit_reversal(8), vec![0, 4, 1, 5, 2, 6, 3, 7]);
        assert_eq!(digit_reversal(4), vec![0, 1, 2, 3]);
        assert_eq!(digit_reversal(2), vec![0, 1]);
    }

    #[test]
    fn slots_invert_digit_reversal() {
        for n in [1usize, 2, 8, 16, 64, 128] {
            let plan = Fft1d::new(n).unwrap();
            for (i, &p) in digit_reversal(n).iter().enumerate() {
                assert_eq!(plan.slots()[p as usize] as usize, i, "n={n} position {i}");
            }
        }
    }

    #[test]
    fn tiles_cover_in_order_without_narrow_tails() {
        for count in [1usize, 2, 17, 31, 32, 33, 64, 65, 129, 257, 513] {
            let mut next = 0;
            for (first, width) in tiles(count) {
                assert_eq!(first, next, "count {count}");
                assert!(width >= LANES.min(count) && width <= max_tile(count), "count {count}");
                next += width;
            }
            assert_eq!(next, count);
        }
        assert_eq!(tiles(129).map(|t| t.1).collect::<Vec<_>>(), [32, 32, 32, 33]);
    }

    #[test]
    fn batched_lanes_match_single_transforms() {
        // Every lane of a batch must equal its own one-lane transform, bit
        // for bit, in both directions and for partial tile widths.
        for n in [1usize, 2, 8, 32, 128] {
            let plan = Fft1d::new(n).unwrap();
            for cols in [1usize, 3, 33, 70] {
                let matrix: Vec<Complex> = (0..n * cols)
                    .map(|i| Complex::new((i as f32 * 0.71).sin(), (i as f32 * 0.13).cos()))
                    .collect();
                for dir in [Direction::Forward, Direction::Inverse] {
                    let mut batched = matrix.clone();
                    let mut scratch = vec![Complex::ZERO; n * max_tile(cols)];
                    plan.columns(&mut batched, cols, dir, &mut scratch);
                    for c in 0..cols {
                        let mut col: Vec<Complex> = (0..n).map(|i| matrix[i * cols + c]).collect();
                        plan.transform(&mut col, dir).unwrap();
                        for i in 0..n {
                            let (a, b) = (batched[i * cols + c], col[i]);
                            assert_eq!(
                                (a.re.to_bits(), a.im.to_bits()),
                                (b.re.to_bits(), b.im.to_bits()),
                                "n={n} cols={cols} col {c} row {i} {dir:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matches_naive_dft_all_sizes() {
        for log in 0..=10 {
            let n = 1usize << log;
            let plan = Fft1d::new(n).unwrap();
            let input = ramp(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let expect = naive_dft(&input, dir);
                let mut got = input.clone();
                plan.transform(&mut got, dir).unwrap();
                let tol = 1e-5 * (n as f32) + 1e-4;
                for (g, e) in got.iter().zip(&expect) {
                    assert!((g.re - e.re).abs() < tol, "n={n} {dir:?}");
                    assert!((g.im - e.im).abs() < tol, "n={n} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in [1usize, 2, 8, 64, 512] {
            let plan = Fft1d::new(n).unwrap();
            let input = ramp(n);
            let mut data = input.clone();
            plan.transform(&mut data, Direction::Forward).unwrap();
            plan.transform(&mut data, Direction::Inverse).unwrap();
            for (a, b) in data.iter().zip(&input) {
                assert!((a.re - b.re).abs() < 1e-3);
                assert!((a.im - b.im).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let plan = Fft1d::new(32).unwrap();
        let mut data = vec![Complex::ZERO; 32];
        data[0] = Complex::ONE;
        plan.transform(&mut data, Direction::Forward).unwrap();
        for c in &data {
            assert!((c.re - 1.0).abs() < 1e-5 && c.im.abs() < 1e-5);
        }
    }

    #[test]
    fn constant_concentrates_at_dc() {
        let plan = Fft1d::new(16).unwrap();
        let mut data = vec![Complex::from_real(2.0); 16];
        plan.transform(&mut data, Direction::Forward).unwrap();
        assert!((data[0].re - 32.0).abs() < 1e-4);
        for c in &data[1..] {
            assert!(c.abs() < 1e-4);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let plan = Fft1d::new(n).unwrap();
        let input = ramp(n);
        let time_energy: f32 = input.iter().map(|c| c.norm_sqr()).sum();
        let mut freq = input.clone();
        plan.transform(&mut freq, Direction::Forward).unwrap();
        let freq_energy: f32 = freq.iter().map(|c| c.norm_sqr()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() < 1e-2 * time_energy.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = Fft1d::new(n).unwrap();
        let a = ramp(n);
        let b: Vec<Complex> = (0..n).map(|k| Complex::new((k as f32).cos(), 0.3)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex> =
            a.iter().zip(&b).map(|(&x, &y)| x.scale(2.0) + y.scale(-0.5)).collect();
        plan.transform(&mut fa, Direction::Forward).unwrap();
        plan.transform(&mut fb, Direction::Forward).unwrap();
        plan.transform(&mut fab, Direction::Forward).unwrap();
        for i in 0..n {
            let expect = fa[i].scale(2.0) + fb[i].scale(-0.5);
            assert!((fab[i].re - expect.re).abs() < 1e-2);
            assert!((fab[i].im - expect.im).abs() < 1e-2);
        }
    }
}
