//! The lithography forward model and its adjoint (ILT) gradient.

use crate::optics::OpticalConfig;
use crate::socs::SocsKernels;
use crate::{Field, LithoError};
use ganopc_fft::spectrum::{self, KernelSpectrum};
use ganopc_fft::{Arena, Complex, RealFft2d};
use ganopc_nn::pool;
use ganopc_obs as obs;

/// Real and imaginary component fields `(p_k, q_k)` of one kernel
/// convolution; `None` where the kernel component was dropped as
/// numerically zero.
type KernelFields = (Option<Vec<f32>>, Option<Vec<f32>>);

thread_local! {
    /// Per-thread slot list for per-kernel convolved fields. The slots are
    /// reused across every aerial/gradient evaluation on this thread (the
    /// field buffers themselves come from the model's arena), so the hot
    /// paths materialize no per-call job or result vectors. Thread-local
    /// because pre-training runs whole gradient evaluations concurrently on
    /// pool workers, each needing its own slot list.
    static FIELD_SLOTS: std::cell::RefCell<Vec<KernelFields>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Number of contiguous SOCS-kernel groups the gradient adjoint sums over
/// (see `LithoModel::adjoint_into`). A fixed constant — never derived from
/// the worker count — so the reassociated spectral sum is bit-identical at
/// any `GANOPC_THREADS`; small, so the adjoint holds only this many
/// half-spectra at once instead of one per kernel.
const ADJOINT_GROUPS: usize = 4;

/// Runs `f` with this thread's kernel-field slot list sized to `n` empty
/// slots.
fn with_field_slots<R>(n: usize, f: impl FnOnce(&mut Vec<KernelFields>) -> R) -> R {
    FIELD_SLOTS.with(|cell| {
        let mut slots = cell.borrow_mut();
        slots.clear();
        if slots.capacity() < n {
            // ALLOC: one-time growth of the persistent per-thread slot list
            // (one entry per SOCS kernel, ~24).
            slots.reserve(n);
        }
        slots.resize_with(n, || (None, None));
        f(&mut slots)
    })
}

/// A planned lithography simulator for one frame size.
///
/// Holds the SOCS kernel stack embedded as frame-sized packed half-spectra,
/// the real-FFT plan, a scratch-buffer [`Arena`] shared by the worker pool,
/// the calibrated resist threshold `I_th` and the sigmoid steepness `α` of
/// Eq. (12). After a warm-up call on each entry point, aerial-image and
/// gradient evaluations perform zero heap allocation for scratch (see
/// [`LithoModel::scratch_allocations`]).
///
/// ```
/// use ganopc_litho::{Field, LithoModel};
/// # fn main() -> Result<(), ganopc_litho::LithoError> {
/// let model = LithoModel::iccad2013_like(64)?;
/// let wafer = model.print_nominal(&Field::zeros(64, 64));
/// assert_eq!(wafer.sum(), 0.0); // dark mask prints nothing
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LithoModel {
    cfg: OpticalConfig,
    height: usize,
    width: usize,
    rfft: RealFft2d,
    /// `(w_k, half-spectra of h_k)` pairs.
    spectra: Vec<(f32, KernelSpectrum)>,
    /// Freelist of frame-sized scratch buffers shared by all pool workers.
    arena: Arena,
    threshold: f32,
    sigmoid_alpha: f32,
    dose_delta: f32,
}

impl LithoModel {
    /// Steepness `α` of the relaxed resist model (Eq. (12)). The paper does
    /// not publish its value; 50 on a unit-normalized intensity scale gives
    /// a resist transition ≈ 4 % of the open-field intensity wide.
    pub const DEFAULT_SIGMOID_ALPHA: f32 = 50.0;
    /// Dose excursion for the process-variability band (paper: ±2 %).
    pub const DEFAULT_DOSE_DELTA: f32 = 0.02;

    /// Builds a model on a square `size × size` frame emulating the
    /// ICCAD-2013 setup: the frame represents a 2048 nm clip, so the pixel
    /// pitch is `2048 / size` nm.
    ///
    /// # Errors
    ///
    /// Propagates [`LithoModel::new`] errors.
    pub fn iccad2013_like(size: usize) -> Result<Self, LithoError> {
        let pixel_nm = 2048.0 / size as f64;
        let cfg = OpticalConfig::default_32nm(pixel_nm);
        LithoModel::new(cfg, size, size)
    }

    /// Cached variant of [`LithoModel::iccad2013_like`] (see
    /// [`LithoModel::new_cached`]).
    ///
    /// # Errors
    ///
    /// Propagates [`LithoModel::new`] errors.
    pub fn iccad2013_like_cached(size: usize) -> Result<Self, LithoError> {
        let pixel_nm = 2048.0 / size as f64;
        let cfg = OpticalConfig::default_32nm(pixel_nm);
        LithoModel::new_cached(cfg, size, size)
    }

    /// Like [`LithoModel::new`] but loads the SOCS kernel stack through the
    /// on-disk cache ([`crate::cache`]), skipping the TCC eigendecomposition
    /// when this configuration has been derived before.
    ///
    /// # Errors
    ///
    /// Same as [`LithoModel::new`].
    pub fn new_cached(cfg: OpticalConfig, height: usize, width: usize) -> Result<Self, LithoError> {
        Self::build(cfg, height, width, true)
    }

    /// Builds a model for an arbitrary configuration and frame.
    ///
    /// Kernel supports larger than the frame are clamped (kept odd). The
    /// resist threshold is calibrated so that an isolated 80 nm line prints
    /// at its drawn width (see `calibrate_threshold`).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::InvalidFrame`] for non-power-of-two frames and
    /// [`LithoError::Calibration`] when threshold calibration cannot bracket
    /// the line edge (degenerate configurations).
    pub fn new(cfg: OpticalConfig, height: usize, width: usize) -> Result<Self, LithoError> {
        Self::build(cfg, height, width, false)
    }

    fn build(
        mut cfg: OpticalConfig,
        height: usize,
        width: usize,
        cached: bool,
    ) -> Result<Self, LithoError> {
        cfg.validate().map_err(LithoError::InvalidFrame)?;
        if !ganopc_fft::is_power_of_two(height) || !ganopc_fft::is_power_of_two(width) {
            return Err(LithoError::InvalidFrame(format!(
                "frame {height}x{width} must have power-of-two sides"
            )));
        }
        let max_k = height.min(width) - 1;
        if cfg.kernel_size > max_k {
            cfg.kernel_size = if max_k.is_multiple_of(2) { max_k - 1 } else { max_k };
        }
        if cfg.kernel_size < 3 {
            return Err(LithoError::InvalidFrame(format!(
                "frame {height}x{width} too small for any kernel support"
            )));
        }
        let stack = if cached {
            crate::cache::load_or_derive(&cfg, &crate::cache::default_cache_dir())
        } else {
            SocsKernels::from_config(&cfg)
        };
        let rfft = RealFft2d::new(height, width)?;
        let spectra = stack
            .kernels()
            .iter()
            .map(|k| {
                KernelSpectrum::new(&k.taps, stack.kernel_size(), height, width)
                    .map(|s| (k.weight, s))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut model = LithoModel {
            cfg,
            height,
            width,
            rfft,
            spectra,
            arena: Arena::new(),
            threshold: 0.3,
            sigmoid_alpha: Self::DEFAULT_SIGMOID_ALPHA,
            dose_delta: Self::DEFAULT_DOSE_DELTA,
        };
        model.threshold = model.calibrate_threshold()?;
        Ok(model)
    }

    /// Chooses `I_th` as the aerial intensity at the drawn edge of an
    /// isolated 80 nm (minimum-CD) vertical line, so minimum features print
    /// on size. Mirrors how constant-threshold resist models are calibrated
    /// against a reference structure.
    fn calibrate_threshold(&self) -> Result<f32, LithoError> {
        let cd_px = (80.0 / self.cfg.pixel_nm).max(1.0);
        let cx = self.width as f64 / 2.0;
        let (x0, x1) = (cx - cd_px / 2.0, cx + cd_px / 2.0);
        let mut mask = Field::zeros(self.height, self.width);
        for y in 0..self.height {
            for x in 0..self.width {
                // Area-weighted coverage of the line over this pixel column.
                let lo = (x as f64).max(x0);
                let hi = ((x + 1) as f64).min(x1);
                let cov = (hi - lo).max(0.0);
                if cov > 0.0 {
                    mask.set(y, x, cov as f32);
                }
            }
        }
        let aerial = self.aerial_image(&mask);
        // Intensity profile along the middle row; sample at the drawn edge.
        let row = self.height / 2;
        let edge = x1 - 0.5; // pixel-center coordinate of the right edge
        let xe0 = edge.floor() as usize;
        let xe1 = (xe0 + 1).min(self.width - 1);
        let t = (edge - xe0 as f64) as f32;
        let i_edge = aerial.get(row, xe0) * (1.0 - t) + aerial.get(row, xe1) * t;
        let peak = aerial.get(row, self.width / 2);
        if !(i_edge.is_finite() && i_edge > 0.0 && i_edge < peak) {
            return Err(LithoError::Calibration(format!(
                "edge intensity {i_edge} outside (0, peak={peak})"
            )));
        }
        Ok(i_edge)
    }

    /// Frame `(height, width)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    /// The optical configuration the model was built with.
    #[inline]
    pub fn config(&self) -> &OpticalConfig {
        &self.cfg
    }

    /// The calibrated resist threshold `I_th`.
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The resist-sigmoid steepness `α` (Eq. (12)).
    #[inline]
    pub fn sigmoid_alpha(&self) -> f32 {
        self.sigmoid_alpha
    }

    /// Overrides the resist-sigmoid steepness.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0`.
    pub fn set_sigmoid_alpha(&mut self, alpha: f32) {
        assert!(alpha > 0.0, "sigmoid steepness must be positive");
        self.sigmoid_alpha = alpha;
    }

    /// The PVB dose excursion (fraction, default 0.02).
    #[inline]
    pub fn dose_delta(&self) -> f32 {
        self.dose_delta
    }

    /// Simulation pixel pitch, nm.
    #[inline]
    pub fn pixel_nm(&self) -> f64 {
        self.cfg.pixel_nm
    }

    /// Number of SOCS kernels in use.
    #[inline]
    pub fn num_kernels(&self) -> usize {
        self.spectra.len()
    }

    fn check_shape(&self, field: &Field) -> Result<(), LithoError> {
        if field.shape() != (self.height, self.width) {
            return Err(LithoError::ShapeMismatch {
                expected: (self.height, self.width),
                actual: field.shape(),
            });
        }
        Ok(())
    }

    /// Packed half-spectrum of a real mask, reused across kernels. The
    /// returned buffer belongs to the arena; callers put it back when done.
    // lint: hot-path
    fn mask_half(&self, mask: &Field) -> Vec<Complex> {
        let slen = self.rfft.spectrum_len();
        let mut out = self.arena.take_complex(slen);
        let mut scratch = self.arena.take_complex(slen);
        // PANIC: buffers were sized from this plan two lines above.
        self.rfft.forward(mask.as_slice(), &mut out, &mut scratch).expect("planned size");
        self.arena.put_complex(scratch);
        out
    }

    /// One real component of a kernel convolution: `c2r(mask_half ⊙ comp)`.
    /// All working storage comes from (and returns to) the arena except the
    /// returned field, which the caller releases.
    // lint: hot-path
    fn component_field(&self, mask_half: &[Complex], comp: &[Complex]) -> Vec<f32> {
        let slen = self.rfft.spectrum_len();
        let mut prod = self.arena.take_complex(slen);
        let mut scratch = self.arena.take_complex(slen);
        spectrum::mul_into(&mut prod, mask_half, comp);
        let mut out = self.arena.take_real(self.height * self.width);
        // PANIC: buffers were sized from this plan a few lines above.
        self.rfft.inverse(&mut prod, &mut out, &mut scratch).expect("planned size");
        self.arena.put_complex(prod);
        self.arena.put_complex(scratch);
        out
    }

    /// Per-kernel convolved fields `A_k = M ⊗ h_k` from a precomputed mask
    /// half-spectrum, split into real and imaginary parts `(p_k, q_k)` —
    /// `None` where the kernel component vanishes. Kernel indices fan out
    /// over the shared worker pool (capped by `GANOPC_THREADS`) through the
    /// allocation-free [`pool::run_chunks`] path; slot `k` of `fields`
    /// receives kernel `k`'s components, so downstream reductions walk the
    /// slots in kernel order regardless of the worker count.
    // lint: hot-path
    fn convolved_fields_into(&self, mask_half: &[Complex], fields: &mut [KernelFields]) {
        debug_assert_eq!(fields.len(), self.spectra.len());
        let slots = pool::DisjointMut::new(fields);
        pool::run_chunks(self.spectra.len(), |kernels| {
            for ki in kernels {
                let ks = &self.spectra[ki].1;
                let p = ks.re_spectrum().map(|r| self.component_field(mask_half, r));
                let q = ks.im_spectrum().map(|i| self.component_field(mask_half, i));
                // SAFETY: run_chunks kernel ranges partition the slot list,
                // so slot ki is written by exactly this chunk.
                *unsafe { slots.index_mut(ki) } = (p, q);
            }
        });
    }

    /// Accumulates `Σ_k w_k (p_k² + q_k²)` into `intensity`, serially in
    /// kernel order so the result does not depend on the worker count.
    // lint: hot-path
    fn accumulate_intensity(&self, fields: &[KernelFields], intensity: &mut [f32]) {
        for ((w, _), (p, q)) in self.spectra.iter().zip(fields) {
            for comp in [p, q].into_iter().flatten() {
                for (acc, &v) in intensity.iter_mut().zip(comp.iter()) {
                    *acc += w * v * v;
                }
            }
        }
    }

    /// Returns convolved-field buffers to the arena, emptying the slots.
    fn release_fields(&self, fields: &mut [KernelFields]) {
        for (p, q) in fields {
            for comp in [p.take(), q.take()].into_iter().flatten() {
                self.arena.put_real(comp);
            }
        }
    }

    /// Number of scratch-arena freelist misses since the model was built.
    /// Constant across repeated hot-path calls once the arena is warm — the
    /// zero-allocation regression tests assert on this.
    pub fn scratch_allocations(&self) -> usize {
        self.arena.fresh_allocations()
    }

    /// Reserves the worst-case concurrent scratch footprint in the arena.
    ///
    /// How many pool chunks run *simultaneously* (and therefore how many
    /// transient FFT buffers are outstanding at once) depends on scheduling,
    /// so warm-up calls alone cannot guarantee the freelist ever reaches its
    /// high-water mark. Reserving the bound up front makes "warm arena
    /// never misses" deterministic. Steady-state calls find the freelist
    /// already full, so this is two short lock/scan sections per evaluation.
    // lint: hot-path
    fn prime_arena(&self) {
        let kernels = self.spectra.len();
        let threads = if pool::in_worker() { 1 } else { pool::max_threads() };
        let conv_lanes = threads.min(kernels.max(1));
        let adj_lanes = threads.min(ADJOINT_GROUPS);
        // Complex peak: the convolve stage holds the mask spectrum plus 2
        // per chunk (product/scratch); the adjoint holds the group spectra
        // plus 2 per chunk (tmp/scratch).
        let complex = (1 + 2 * conv_lanes).max(ADJOINT_GROUPS + 2 * adj_lanes);
        self.arena.reserve_complex(complex, self.rfft.spectrum_len());
        // Real peak: one field per surviving kernel component + g + one
        // per-chunk product buffer in the adjoint. Intensity is returned
        // before the adjoint, so the dose sweep's components + 2 (fields,
        // intensity, g) never exceeds it.
        let components: usize = self
            .spectra
            .iter()
            .map(|(_, ks)| {
                usize::from(ks.re_spectrum().is_some()) + usize::from(ks.im_spectrum().is_some())
            })
            .sum();
        self.arena.reserve_real(components + 1 + adj_lanes, self.height * self.width);
    }

    /// Aerial image `I = Σ_k w_k |M ⊗ h_k|²` at nominal dose (Eq. (2)).
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not match the model frame (use
    /// [`LithoModel::try_aerial_image`] for a fallible variant).
    pub fn aerial_image(&self, mask: &Field) -> Field {
        // PANIC: documented above — the fallible variant is try_aerial_image.
        self.try_aerial_image(mask).expect("mask shape mismatch")
    }

    /// Fallible variant of [`LithoModel::aerial_image`].
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when `mask` has the wrong shape.
    pub fn try_aerial_image(&self, mask: &Field) -> Result<Field, LithoError> {
        // The intensity buffer is the returned Field's storage — the only
        // allocation on this path.
        let mut intensity = vec![0.0f32; self.height * self.width];
        self.aerial_image_into(mask, &mut intensity)?;
        Ok(Field::from_vec(self.height, self.width, intensity))
    }

    /// Writes the aerial image into a caller-owned buffer (overwritten, not
    /// accumulated). With a warm arena this performs zero heap allocation —
    /// the entry point for PVB-metric callers that re-evaluate intensity per
    /// process corner and for [`LithoModel::process_window`].
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when `mask` has the wrong shape
    /// and [`LithoError::Fft`] when `intensity` has the wrong length.
    // lint: hot-path
    pub fn aerial_image_into(&self, mask: &Field, intensity: &mut [f32]) -> Result<(), LithoError> {
        let _sp = obs::span(obs::Span::LithoAerial);
        obs::counter_add(obs::Counter::LithoAerialCalls, 1);
        self.check_shape(mask)?;
        let n = self.height * self.width;
        if intensity.len() != n {
            return Err(LithoError::Fft(ganopc_fft::FftError::SizeMismatch {
                expected: n,
                actual: intensity.len(),
            }));
        }
        self.prime_arena();
        let mask_half = self.mask_half(mask);
        with_field_slots(self.spectra.len(), |fields| {
            self.convolved_fields_into(&mask_half, fields);
            self.arena.put_complex(mask_half);
            intensity.fill(0.0);
            self.accumulate_intensity(fields, intensity);
            self.release_fields(fields);
        });
        Ok(())
    }

    /// Binary wafer image at a given dose: `Z = [dose · I ≥ I_th]`
    /// (Eq. (3)).
    pub fn print(&self, mask: &Field, dose: f32) -> Field {
        let aerial = self.aerial_image(mask);
        aerial.map(|i| if dose * i >= self.threshold { 1.0 } else { 0.0 })
    }

    /// Binary wafer image at nominal dose.
    pub fn print_nominal(&self, mask: &Field) -> Field {
        self.print(mask, 1.0)
    }

    /// Prints at `1−δ`, `1`, `1+δ` dose — inputs to the PVB metric. One
    /// aerial simulation and a single fused sweep writing all three dose
    /// prints per element; the intensity lives in the arena, so the only
    /// allocations are the three returned fields' storage.
    pub fn process_window(&self, mask: &Field) -> [Field; 3] {
        let n = self.height * self.width;
        let mut aerial = self.arena.take_real(n);
        // PANIC: documented panic contract shared with aerial_image; the
        // buffer was sized to the frame two lines above.
        self.aerial_image_into(mask, &mut aerial).expect("mask shape mismatch");
        let th = self.threshold;
        let (lo, hi) = (1.0 - self.dose_delta, 1.0 + self.dose_delta);
        // ALLOC: the three print buffers are the returned fields' storage.
        let mut inner = vec![0.0f32; n];
        let mut nominal = vec![0.0f32; n];
        let mut outer = vec![0.0f32; n];
        for (((&i, pi), pn), po) in
            aerial.iter().zip(inner.iter_mut()).zip(nominal.iter_mut()).zip(outer.iter_mut())
        {
            *pi = if lo * i >= th { 1.0 } else { 0.0 };
            *pn = if i >= th { 1.0 } else { 0.0 };
            *po = if hi * i >= th { 1.0 } else { 0.0 };
        }
        self.arena.put_real(aerial);
        [
            Field::from_vec(self.height, self.width, inner),
            Field::from_vec(self.height, self.width, nominal),
            Field::from_vec(self.height, self.width, outer),
        ]
    }

    /// Relaxed wafer image `Z = σ(α(I − I_th))` of Eq. (12) from an aerial
    /// image.
    pub fn relax(&self, aerial: &Field) -> Field {
        let a = self.sigmoid_alpha;
        let th = self.threshold;
        aerial.map(|i| 1.0 / (1.0 + (-a * (i - th)).exp()))
    }

    /// Single-dose form of [`LithoModel::gradient_doses_into`]: writes
    /// `∂E/∂M_b` at `dose` into `grad` and returns `E`.
    ///
    /// # Errors
    ///
    /// Same as [`LithoModel::gradient_doses_into`].
    // lint: hot-path
    pub fn gradient_into(
        &self,
        mask: &Field,
        target: &Field,
        dose: f32,
        grad: &mut [f32],
    ) -> Result<f64, LithoError> {
        self.gradient_doses_into(mask, target, &[dose], grad)
    }

    /// Dose-fused gradient: writes `Σ_d ∂E_d/∂M_b` into `grad` (overwritten,
    /// not accumulated) and returns `Σ_d E_d`, where `E_d` is the
    /// lithography error with the aerial image scaled by dose `d`.
    ///
    /// The convolved fields do not depend on dose and the adjoint is linear
    /// in the chain factor, so this runs the mask transform, the field
    /// transforms and the adjoint once, and only the sigmoid sweep once per
    /// dose — process-window-aware ILT costs about one gradient, not three.
    /// With a warm arena it performs zero heap allocation; it is the entry
    /// point for the ILT iteration loop and the per-sample pre-training
    /// gradients. This is the single gradient pipeline: the aerial and
    /// relaxed wafer images live and die in the arena (callers that want
    /// them run [`LithoModel::aerial_image`] and [`LithoModel::relax`]).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when `mask`/`target` disagree
    /// with the frame and [`LithoError::Fft`] when `grad` has the wrong
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if `doses` is empty or holds a non-positive dose.
    // lint: hot-path
    pub fn gradient_doses_into(
        &self,
        mask: &Field,
        target: &Field,
        doses: &[f32],
        grad: &mut [f32],
    ) -> Result<f64, LithoError> {
        let n = self.height * self.width;
        if grad.len() != n {
            return Err(LithoError::Fft(ganopc_fft::FftError::SizeMismatch {
                expected: n,
                actual: grad.len(),
            }));
        }
        let _sp = obs::span(obs::Span::LithoGradient);
        obs::counter_add(obs::Counter::LithoGradientCalls, 1);
        self.check_shape(mask)?;
        self.check_shape(target)?;
        assert!(!doses.is_empty(), "at least one dose is required");
        assert!(doses.iter().all(|&d| d > 0.0), "dose must be positive");

        self.prime_arena();
        let mask_half = self.mask_half(mask);
        with_field_slots(self.spectra.len(), |fields| {
            self.convolved_fields_into(&mask_half, fields);
            self.arena.put_complex(mask_half);

            let mut intensity = self.arena.take_real(n);
            self.accumulate_intensity(fields, &mut intensity);
            // One sweep per dose over the shared intensity: relaxed wafer
            // `Z = σ(α(dose·I − I_th))`, the error, and the chain factor
            // g += 2α·dose (Z − Z_t) ⊙ Z ⊙ (1 − Z). Each dose's error is
            // summed on its own, so Σ_d E_d equals the sum of single-dose calls.
            let mut g = self.arena.take_real(n);
            let alpha = self.sigmoid_alpha;
            let th = self.threshold;
            let mut error = 0.0f64;
            for &dose in doses {
                let chain = 2.0 * alpha * dose;
                let mut dose_error = 0.0f64;
                for ((gi, &ii), &ti) in g.iter_mut().zip(intensity.iter()).zip(target.as_slice()) {
                    let zv = 1.0 / (1.0 + (-alpha * (dose * ii - th)).exp());
                    let d = zv - ti;
                    dose_error += (d as f64) * (d as f64);
                    *gi += chain * d * zv * (1.0 - zv);
                }
                error += dose_error;
            }
            self.arena.put_real(intensity);
            self.adjoint_into(fields, &g, grad);
            self.arena.put_real(g);
            Ok(error)
        })
    }

    /// Adjoint of the mask → intensity map: writes `Jᵀg` into `grad`
    /// (overwritten), consuming the convolved fields (returned to the arena).
    ///
    /// `Jᵀg = Σ_k 2 w_k Re[IFFT(FFT(g ⊙ A_k) ⊙ H_k*)]`. With `A_k = p + i·q`
    /// and `H_k = R + i·I` (half-spectra of the kernel's real components),
    /// the real part is the Hermitian inverse `c2r(P ⊙ R* + Q ⊙ I*)` with
    /// `P = r2c(2w_k·g ⊙ p)`, `Q = r2c(2w_k·g ⊙ q)`. The inverse transform is
    /// linear, so the kernel terms are summed in the half-spectrum and one
    /// c2r finishes the gradient. The sum runs over [`ADJOINT_GROUPS`] fixed
    /// contiguous kernel groups that fan out over the pool: each group
    /// accumulates its kernels in kernel order (real component before
    /// imaginary) into its own spectrum, and the group spectra are added in
    /// group order on the calling thread — the same association at any
    /// worker count, while holding only `ADJOINT_GROUPS` spectra.
    // lint: hot-path
    fn adjoint_into(&self, fields: &mut [KernelFields], g: &[f32], grad: &mut [f32]) {
        let n = self.height * self.width;
        let slen = self.rfft.spectrum_len();
        let kernels = self.spectra.len();
        let mut group_spectra: [Vec<Complex>; ADJOINT_GROUPS] =
            std::array::from_fn(|_| self.arena.take_complex(slen));
        let groups = pool::DisjointMut::new(&mut group_spectra[..]);
        let slots = pool::DisjointMut::new(fields);
        pool::run_chunks(ADJOINT_GROUPS, |chunk| {
            let mut u = self.arena.take_real(n);
            let mut tmp = self.arena.take_complex(slen);
            let mut scratch = self.arena.take_complex(slen);
            for gi in chunk {
                // SAFETY: run_chunks ranges partition the group list, so
                // group gi is owned by exactly this chunk.
                let acc = unsafe { groups.index_mut(gi) };
                for ki in gi * kernels / ADJOINT_GROUPS..(gi + 1) * kernels / ADJOINT_GROUPS {
                    // SAFETY: the groups' kernel ranges are disjoint, so slot
                    // ki belongs to group gi alone.
                    let slot = unsafe { slots.index_mut(ki) };
                    let (w, ks) = &self.spectra[ki];
                    let s = 2.0 * w;
                    for comp in
                        [(slot.0.take(), ks.re_spectrum()), (slot.1.take(), ks.im_spectrum())]
                    {
                        let (Some(field), Some(half)) = comp else { continue };
                        for ((ui, &fi), &gv) in u.iter_mut().zip(field.iter()).zip(g) {
                            *ui = s * gv * fi;
                        }
                        self.arena.put_real(field);
                        // PANIC: buffers were sized from this plan above.
                        self.rfft.forward(&u, &mut tmp, &mut scratch).expect("planned size");
                        spectrum::mul_conj_add_into(acc, &tmp, half);
                    }
                }
            }
            self.arena.put_real(u);
            self.arena.put_complex(tmp);
            self.arena.put_complex(scratch);
        });
        let [mut total, rest @ ..] = group_spectra;
        for part in rest {
            for (t, &p) in total.iter_mut().zip(part.iter()) {
                *t += p;
            }
            self.arena.put_complex(part);
        }
        let mut scratch = self.arena.take_complex(slen);
        // PANIC: buffers were sized from this plan; grad was length-checked
        // by the public entry points.
        self.rfft.inverse(&mut total, grad, &mut scratch).expect("planned size");
        self.arena.put_complex(total);
        self.arena.put_complex(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> LithoModel {
        let mut cfg = OpticalConfig::default_32nm(16.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 8;
        LithoModel::new(cfg, 64, 64).unwrap()
    }

    fn line_mask(h: usize, w: usize, x0: usize, x1: usize, y0: usize, y1: usize) -> Field {
        let mut m = Field::zeros(h, w);
        for y in y0..y1 {
            for x in x0..x1 {
                m.set(y, x, 1.0);
            }
        }
        m
    }

    #[test]
    fn rejects_non_power_of_two_frame() {
        let cfg = OpticalConfig::default_32nm(16.0);
        assert!(matches!(LithoModel::new(cfg, 96, 96), Err(LithoError::InvalidFrame(_))));
    }

    #[test]
    fn dark_mask_prints_nothing_open_mask_prints_everything() {
        let model = small_model();
        let dark = model.print_nominal(&Field::zeros(64, 64));
        assert_eq!(dark.sum(), 0.0);
        let open = model.print_nominal(&Field::filled(64, 64, 1.0));
        assert_eq!(open.sum(), (64 * 64) as f32);
    }

    #[test]
    fn minimum_line_prints_near_drawn_width() {
        // 80 nm at 16 nm/px = 5 px; the calibrated threshold should print it
        // within ±1 px of drawn CD at mid-height.
        let model = small_model();
        let mask = line_mask(64, 64, 30, 35, 8, 56);
        let wafer = model.print_nominal(&mask);
        let row: usize = 32;
        let printed: f32 = (0..64).map(|x| wafer.get(row, x)).sum();
        assert!((4.0..=7.0).contains(&printed), "printed CD {printed} px, expected ~5");
    }

    #[test]
    fn corners_round_line_ends_pull_back() {
        // Proximity effect: the printed wire should be shorter than drawn.
        let model = small_model();
        let mask = line_mask(64, 64, 30, 35, 16, 48);
        let wafer = model.print_nominal(&mask);
        let col = 32;
        let printed_len: f32 = (0..64).map(|y| wafer.get(y, col)).sum();
        assert!(printed_len > 0.0, "line vanished entirely");
        assert!(printed_len < 32.0, "no line-end pullback: {printed_len} px");
    }

    #[test]
    fn higher_dose_prints_larger() {
        let model = small_model();
        let mask = line_mask(64, 64, 28, 36, 8, 56);
        let [inner, nominal, outer] = model.process_window(&mask);
        assert!(inner.sum() <= nominal.sum());
        assert!(nominal.sum() <= outer.sum());
        assert!(outer.sum() > inner.sum(), "dose sensitivity collapsed");
    }

    #[test]
    fn relax_approaches_binary_for_steep_sigmoid() {
        let mut model = small_model();
        let mask = line_mask(64, 64, 28, 36, 8, 56);
        let aerial = model.aerial_image(&mask);
        model.set_sigmoid_alpha(500.0);
        let z = model.relax(&aerial);
        let binary = model.print_nominal(&mask);
        let mismatch: f32 =
            z.as_slice().iter().zip(binary.as_slice()).map(|(&a, &b)| (a - b).abs()).sum();
        // Soft and hard wafers agree except in the thin transition band.
        assert!(mismatch < 64.0, "relaxation too soft: {mismatch}");
    }

    #[test]
    fn aerial_shape_mismatch_is_error() {
        let model = small_model();
        let bad = Field::zeros(32, 32);
        assert!(matches!(model.try_aerial_image(&bad), Err(LithoError::ShapeMismatch { .. })));
    }

    /// The ±2 % process-window dose corners.
    const PW_DOSES: [f32; 3] = [0.98, 1.0, 1.02];

    /// Pinned tolerance, as `max|a − b| / max|b|`, of the dose-fused
    /// gradient against the sum of single-dose gradients (the same pipeline
    /// with `g` summed after instead of before the adjoint).
    const FUSED_VS_PER_DOSE_TOL: f32 = 1e-5;
    /// Pinned tolerance, as `max|a − b| / max|b|`, of the fused gradient
    /// against the pre-fusion implementation (one pipeline per dose, one
    /// c2r per kernel, kernel frames summed in kernel order).
    const FUSED_VS_REFERENCE_TOL: f32 = 1e-5;
    /// Pinned relative tolerance of the adjoint dot-product identity.
    const ADJOINT_DOT_TOL: f64 = 1e-5;

    /// A soft blob, away from binarization plateaus.
    fn soft_blob() -> Field {
        let mut m = Field::zeros(64, 64);
        for y in 24..40 {
            for x in 24..40 {
                m.set(y, x, 0.6);
            }
        }
        m
    }

    /// Deterministic pseudo-random values in `[-0.5, 0.5)`.
    fn pseudo_random(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    fn max_rel_diff(a: &[f32], b: &[f32]) -> f32 {
        let scale = b.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let diff = a.iter().zip(b).fold(0.0f32, |m, (x, y)| m.max((x - y).abs()));
        diff / scale
    }

    /// The pre-fusion gradient, kept as the oracle for the pinned
    /// tolerance: one full pipeline per dose, each kernel's adjoint spectrum
    /// inverted on its own, and the `2 w_k`-scaled kernel frames summed in
    /// kernel order.
    fn reference_gradient(
        model: &LithoModel,
        mask: &Field,
        target: &Field,
        doses: &[f32],
    ) -> (f64, Vec<f32>) {
        let n = 64 * 64;
        let slen = model.rfft.spectrum_len();
        let mut scratch = Vec::new();
        let mut mask_half = vec![Complex::ZERO; slen];
        model.rfft.forward(mask.as_slice(), &mut mask_half, &mut scratch).unwrap();
        let intensity = model.aerial_image(mask);
        let (alpha, th) = (model.sigmoid_alpha, model.threshold);
        let mut grad = vec![0.0f32; n];
        let mut error = 0.0f64;
        for &dose in doses {
            let mut g = vec![0.0f32; n];
            let mut dose_error = 0.0f64;
            for ((gi, &ii), &ti) in g.iter_mut().zip(intensity.as_slice()).zip(target.as_slice()) {
                let zv = 1.0 / (1.0 + (-alpha * (dose * ii - th)).exp());
                let d = zv - ti;
                dose_error += (d as f64) * (d as f64);
                *gi = 2.0 * alpha * dose * d * zv * (1.0 - zv);
            }
            error += dose_error;
            for (w, ks) in &model.spectra {
                let mut w_spec = vec![Complex::ZERO; slen];
                for half in [ks.re_spectrum(), ks.im_spectrum()].into_iter().flatten() {
                    let field = model.component_field(&mask_half, half);
                    let u: Vec<f32> = g.iter().zip(&field).map(|(&gv, &fv)| gv * fv).collect();
                    let mut tmp = vec![Complex::ZERO; slen];
                    model.rfft.forward(&u, &mut tmp, &mut scratch).unwrap();
                    spectrum::mul_conj_add_into(&mut w_spec, &tmp, half);
                }
                let mut gk = vec![0.0f32; n];
                model.rfft.inverse(&mut w_spec, &mut gk, &mut scratch).unwrap();
                for (go, &c) in grad.iter_mut().zip(&gk) {
                    *go += 2.0 * w * c;
                }
            }
        }
        (error, grad)
    }

    /// Directional finite-difference check of the (dose-summed) gradient:
    /// aggregate over the whole field so f32 forward-model rounding averages
    /// out, along a deterministic pseudo-random unit direction.
    fn check_directional_fd(doses: &[f32]) {
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let mut grad = vec![0.0f32; 64 * 64];
        model.gradient_doses_into(&mask, &target, doses, &mut grad).unwrap();

        let mut dir = pseudo_random(64 * 64, 0xdead_beef);
        let norm = dir.iter().map(|d| d * d).sum::<f32>().sqrt();
        for d in dir.iter_mut() {
            *d /= norm;
        }
        let eps = 1e-2f32;
        let mut scratch = vec![0.0f32; 64 * 64];
        let mut error_at = |sign: f32| {
            let shifted = Field::from_vec(
                64,
                64,
                mask.as_slice().iter().zip(&dir).map(|(&m, &d)| m + sign * eps * d).collect(),
            );
            model.gradient_doses_into(&shifted, &target, doses, &mut scratch).unwrap()
        };
        let fd = (error_at(1.0) - error_at(-1.0)) / (2.0 * eps as f64);
        let analytic: f64 = grad.iter().zip(&dir).map(|(&g, &d)| g as f64 * d as f64).sum();
        let denom = fd.abs().max(analytic.abs()).max(1e-6);
        assert!(
            (fd - analytic).abs() / denom < 0.02,
            "doses {doses:?}: directional derivative fd {fd} vs analytic {analytic}"
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        check_directional_fd(&[1.0]);
    }

    #[test]
    fn process_window_gradient_matches_finite_difference() {
        check_directional_fd(&PW_DOSES);
    }

    #[test]
    fn fused_doses_match_sum_of_single_dose_gradients() {
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let mut fused = vec![0.0f32; 64 * 64];
        let fused_error = model.gradient_doses_into(&mask, &target, &PW_DOSES, &mut fused).unwrap();
        let mut summed = vec![0.0f32; 64 * 64];
        let mut one = vec![0.0f32; 64 * 64];
        let mut summed_error = 0.0f64;
        for dose in PW_DOSES {
            summed_error += model.gradient_into(&mask, &target, dose, &mut one).unwrap();
            for (s, &o) in summed.iter_mut().zip(&one) {
                *s += o;
            }
        }
        // Each dose's error is reduced on its own, so the sums agree exactly.
        assert_eq!(fused_error.to_bits(), summed_error.to_bits());
        let rel = max_rel_diff(&fused, &summed);
        assert!(rel < FUSED_VS_PER_DOSE_TOL, "fused vs per-dose gradient: rel diff {rel}");
    }

    #[test]
    fn fused_gradient_matches_pre_fusion_reference() {
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let mut grad = vec![0.0f32; 64 * 64];
        for doses in [&[1.0][..], &PW_DOSES[..]] {
            let error = model.gradient_doses_into(&mask, &target, doses, &mut grad).unwrap();
            let (ref_error, ref_grad) = reference_gradient(&model, &mask, &target, doses);
            assert_eq!(error.to_bits(), ref_error.to_bits(), "doses {doses:?}: error moved");
            let rel = max_rel_diff(&grad, &ref_grad);
            assert!(rel < FUSED_VS_REFERENCE_TOL, "doses {doses:?}: rel diff {rel} to reference");
        }
    }

    #[test]
    fn adjoint_satisfies_dot_product_identity() {
        // ⟨Jv, w⟩ = ⟨v, Jᵀw⟩ for the mask → intensity map J at `mask`. The
        // intensity is quadratic in the mask, so the central difference
        // (I(M+εv) − I(M−εv)) / 2ε is Jv exactly, up to rounding — for any ε,
        // so a large one keeps the rounding small against the difference.
        let model = small_model();
        let mask = soft_blob();
        let n = 64 * 64;
        let v = pseudo_random(n, 0x5eed_0001);
        let w = pseudo_random(n, 0x5eed_0002);
        let eps = 1.0f32;
        let aerial_at = |sign: f32| {
            let shifted = Field::from_vec(
                64,
                64,
                mask.as_slice().iter().zip(&v).map(|(&m, &d)| m + sign * eps * d).collect(),
            );
            model.aerial_image(&shifted)
        };
        let (plus, minus) = (aerial_at(1.0), aerial_at(-1.0));
        let jv_w: f64 = plus
            .as_slice()
            .iter()
            .zip(minus.as_slice())
            .zip(&w)
            .map(|((&p, &m), &wi)| (p as f64 - m as f64) / (2.0 * eps as f64) * wi as f64)
            .sum();

        model.prime_arena();
        let mask_half = model.mask_half(&mask);
        let mut jt_w = vec![0.0f32; n];
        with_field_slots(model.num_kernels(), |fields| {
            model.convolved_fields_into(&mask_half, fields);
            model.adjoint_into(fields, &w, &mut jt_w);
        });
        model.arena.put_complex(mask_half);
        let v_jt_w: f64 = v.iter().zip(&jt_w).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rel = (jv_w - v_jt_w).abs() / jv_w.abs().max(v_jt_w.abs());
        assert!(rel < ADJOINT_DOT_TOL, "<Jv,w> {jv_w} vs <v,J^T w> {v_jt_w}: rel {rel}");
    }

    /// [`LithoModel::gradient_into`] at nominal dose into a fresh buffer:
    /// `(E, ∂E/∂M_b)`.
    fn nominal_gradient(model: &LithoModel, mask: &Field, target: &Field) -> (f64, Vec<f32>) {
        let mut grad = vec![0.0f32; model.height * model.width];
        let error = model.gradient_into(mask, target, 1.0, &mut grad).unwrap();
        (error, grad)
    }

    #[test]
    fn gradient_pointwise_matches_on_strong_pixels() {
        // Per-pixel check restricted to pixels where the gradient is large
        // enough to rise above f32 forward-model noise.
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let (_, grad) = nominal_gradient(&model, &mask, &target);
        let (py, px) = {
            let mut best = (0, 0);
            let mut mag = 0.0f32;
            for y in 0..64 {
                for x in 0..64 {
                    if grad[y * 64 + x].abs() > mag {
                        mag = grad[y * 64 + x].abs();
                        best = (y, x);
                    }
                }
            }
            best
        };
        let eps = 5e-3f32;
        let mut plus = mask.clone();
        plus.set(py, px, plus.get(py, px) + eps);
        let mut minus = mask.clone();
        minus.set(py, px, minus.get(py, px) - eps);
        let (ep, _) = nominal_gradient(&model, &plus, &target);
        let (em, _) = nominal_gradient(&model, &minus, &target);
        let fd = ((ep - em) / (2.0 * eps as f64)) as f32;
        let an = grad[py * 64 + px];
        assert!(
            (fd - an).abs() / an.abs().max(1e-6) < 0.05,
            "pixel ({py},{px}): fd {fd} vs analytic {an}"
        );
    }

    #[test]
    fn gradient_error_decreases_along_negative_gradient() {
        let model = small_model();
        let target = line_mask(64, 64, 28, 36, 16, 48);
        let mask = Field::filled(64, 64, 0.4);
        let (e0, grad) = nominal_gradient(&model, &mask, &target);
        let step = 1e-2f32;
        let moved = Field::from_vec(
            64,
            64,
            mask.as_slice()
                .iter()
                .zip(&grad)
                .map(|(&m, &g)| (m - step * g).clamp(0.0, 1.0))
                .collect(),
        );
        let (e1, _) = nominal_gradient(&model, &moved, &target);
        assert!(e1 < e0, "descent failed: {e0} -> {e1}");
    }

    #[test]
    fn gradient_error_is_the_relaxed_wafer_error() {
        // E = ‖Z − Z_t‖² with Z = relax(aerial_image(M)) — the same images
        // the pipeline keeps in its arena, rebuilt from the public forward
        // model.
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let (error, _) = nominal_gradient(&model, &mask, &target);
        let relaxed = model.relax(&model.aerial_image(&mask));
        let want: f64 = relaxed
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&z, &t)| ((z - t) as f64).powi(2))
            .sum();
        assert!((error - want).abs() <= 1e-9 * want.max(1.0), "error {error} vs {want}");
    }

    #[test]
    fn threshold_is_sane() {
        let model = small_model();
        let th = model.threshold();
        assert!(th > 0.01 && th < 1.0, "threshold {th}");
    }

    #[test]
    fn kernel_count_respects_config() {
        let model = small_model();
        assert!(model.num_kernels() <= 8);
        assert!(model.num_kernels() >= 4);
    }

    #[test]
    fn gradient_into_overwrites_its_buffer() {
        let model = small_model();
        let mask = soft_blob();
        let target = line_mask(64, 64, 28, 36, 24, 40);
        let (reference_error, reference) = nominal_gradient(&model, &mask, &target);
        // Pre-filled garbage must be fully overwritten, not accumulated.
        let mut grad = vec![7.0f32; 64 * 64];
        let error = model.gradient_into(&mask, &target, 1.0, &mut grad).unwrap();
        assert_eq!(error, reference_error);
        assert_eq!(grad, reference);
    }

    #[test]
    fn gradient_into_rejects_bad_buffer() {
        let model = small_model();
        let mask = Field::zeros(64, 64);
        let mut short = vec![0.0f32; 16];
        assert!(matches!(
            model.gradient_into(&mask, &mask, 1.0, &mut short),
            Err(LithoError::Fft(_))
        ));
    }

    #[test]
    fn hot_paths_do_not_allocate_when_warm() {
        let model = small_model();
        let mask = line_mask(64, 64, 28, 36, 16, 48);
        let target = line_mask(64, 64, 30, 34, 18, 46);
        let mut grad = vec![0.0f32; 64 * 64];
        // Warm-up (small_model's threshold calibration already primed the
        // aerial path; the gradient paths fill in the rest).
        let _ = model.aerial_image(&mask);
        model.gradient_into(&mask, &target, 1.0, &mut grad).unwrap();
        let warm = model.scratch_allocations();
        for _ in 0..5 {
            let _ = model.aerial_image(&mask);
            model.gradient_into(&mask, &target, 0.98, &mut grad).unwrap();
            model.gradient_doses_into(&mask, &target, &PW_DOSES, &mut grad).unwrap();
        }
        assert_eq!(
            model.scratch_allocations(),
            warm,
            "steady-state hot paths must not miss the scratch arena"
        );
    }
}
