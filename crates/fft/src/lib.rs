//! Planned real-FFT spectral engine for the GAN-OPC lithography stack.
//!
//! Every optical computation in the workspace — Hopkins/SOCS aerial images
//! (`ganopc-litho`), inverse-lithography gradients (`ganopc-ilt`) and the
//! lithography-guided pre-training of the GAN generator — reduces to cyclic
//! convolutions of a mask field with a set of optical kernels. This crate
//! provides the minimal, dependency-free machinery for those convolutions:
//!
//! * [`Complex`] — a `#[repr(C)]` single-precision complex number with the
//!   usual arithmetic;
//! * [`Fft1d`] — a planned, iterative mixed radix-4/radix-2 Cooley–Tukey
//!   transform for power-of-two lengths, with direction-specific twiddle
//!   tables; its one kernel transforms a batch of sequences held as split
//!   real/imaginary planes, one butterfly per plane row across all lanes;
//! * [`Fft2d`] — a row–column 2-D transform built on [`Fft1d`], running both
//!   passes through that kernel a tile of about 32 rows or columns at a
//!   time, with no transposes or in-place permutations;
//! * [`RealFft2d`] — the real-input 2-D transform over the packed Hermitian
//!   `h × (w/2+1)` half-spectrum that carries the litho hot path;
//! * [`Arena`] — a shared freelist of frame-sized scratch buffers so
//!   steady-state convolutions allocate nothing;
//! * [`spectrum`] helpers — frequency-domain products, half-spectrum kernel
//!   storage and centered kernel embedding used by the convolution pipelines
//!   upstream.
//!
//! # Example
//!
//! ```
//! use ganopc_fft::{Complex, Fft2d, Direction};
//!
//! # fn main() -> Result<(), ganopc_fft::FftError> {
//! let fft = Fft2d::new(8, 8)?;
//! let mut data = vec![Complex::ZERO; 64];
//! data[0] = Complex::new(1.0, 0.0); // unit impulse
//! fft.transform(&mut data, Direction::Forward)?;
//! // The spectrum of an impulse is flat.
//! assert!(data.iter().all(|c| (c.re - 1.0).abs() < 1e-6 && c.im.abs() < 1e-6));
//! # Ok(())
//! # }
//! ```
//!
//! Sizes are restricted to powers of two because every raster in the
//! reproduction (training clips, benchmark clips, kernel supports) is chosen
//! as a power of two, matching the 2048×2048 ICCAD-2013 frames.

mod arena;
mod complex;
mod fft1d;
mod fft2d;
mod rfft;
pub mod spectrum;

pub use arena::Arena;
pub use complex::Complex;
pub use fft1d::Fft1d;
pub use fft2d::Fft2d;
pub use rfft::RealFft2d;

use std::error::Error;
use std::fmt;

/// Transform direction.
///
/// [`Direction::Inverse`] applies the `1/N` normalization so that
/// `inverse(forward(x)) == x` up to rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Forward DFT, negative exponent, unnormalized.
    Forward,
    /// Inverse DFT, positive exponent, normalized by `1/N`.
    Inverse,
}

/// Error type for FFT planning and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {
    /// Requested length is zero or not a power of two.
    InvalidLength(usize),
    /// Buffer length does not match the planned transform size.
    SizeMismatch {
        /// Length the plan was created for.
        expected: usize,
        /// Length of the buffer actually supplied.
        actual: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::InvalidLength(n) => {
                write!(f, "fft length {n} is not a nonzero power of two")
            }
            FftError::SizeMismatch { expected, actual } => {
                write!(f, "buffer of length {actual} does not match plan size {expected}")
            }
        }
    }
}

impl Error for FftError {}

/// Returns `true` when `n` is a nonzero power of two.
///
/// ```
/// assert!(ganopc_fft::is_power_of_two(256));
/// assert!(!ganopc_fft::is_power_of_two(0));
/// assert!(!ganopc_fft::is_power_of_two(48));
/// ```
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n` (`n` must be nonzero and representable).
///
/// ```
/// assert_eq!(ganopc_fft::next_power_of_two(100), 128);
/// assert_eq!(ganopc_fft::next_power_of_two(128), 128);
/// ```
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}
