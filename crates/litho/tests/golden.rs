//! Golden bit-identity pins for the litho hot path.
//!
//! The 128-px, 24-kernel aerial image (Eq. (2)) and the fused three-dose
//! Eq. (14) gradient are hashed (FNV-1a-64 over `f32::to_bits`, plus the
//! `f64` error bits) and compared against hashes recorded from an earlier
//! implementation of the same arithmetic, at one and at four pool threads.
//! A change to the FFT engine's data layout or loop order must leave every
//! bit of these outputs in place. This is the single test in this binary
//! because it toggles the process-wide thread-count override.

use ganopc_litho::{Field, LithoModel};

const SIZE: usize = 128;
const AERIAL_HASH: u64 = 0x62c6_0976_8b42_f984;
const GRADIENT_HASH: u64 = 0x7bc4_45de_cf46_f293;

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(v: &[f32]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|x| u64::from(x.to_bits()))
}

/// A binary target of a few rectangles and a relaxed mask in `(0, 1)`
/// near it, so the gradient exercises both sigmoid tails and the edges.
fn inputs() -> (Field, Field) {
    let mut target = Field::zeros(SIZE, SIZE);
    for &(y0, y1, x0, x1) in &[(20, 44, 16, 100), (60, 108, 30, 50), (70, 90, 70, 118)] {
        for y in y0..y1 {
            for x in x0..x1 {
                target.set(y, x, 1.0);
            }
        }
    }
    let mask = Field::from_vec(
        SIZE,
        SIZE,
        target
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &t)| 0.15 + 0.7 * t + 0.1 * ((i as f32) * 0.37).sin())
            .collect(),
    );
    (mask, target)
}

#[test]
fn aerial_and_fused_gradient_match_golden_bits() {
    let model = LithoModel::iccad2013_like(SIZE).unwrap();
    assert_eq!(model.num_kernels(), 24);
    let (mask, target) = inputs();
    let delta = model.dose_delta();
    let doses = [1.0 - delta, 1.0, 1.0 + delta];
    for threads in [1, 4] {
        ganopc_nn::pool::set_max_threads(Some(threads));
        let mut aerial = vec![0.0f32; SIZE * SIZE];
        model.aerial_image_into(&mask, &mut aerial).unwrap();
        let mut grad = vec![0.0f32; SIZE * SIZE];
        let error = model.gradient_doses_into(&mask, &target, &doses, &mut grad).unwrap();
        let aerial_hash = fnv(bits(&aerial));
        let gradient_hash = fnv(bits(&grad).chain([error.to_bits()]));
        assert_eq!(
            (aerial_hash, gradient_hash),
            (AERIAL_HASH, GRADIENT_HASH),
            "litho output bits changed at {threads} threads: aerial 0x{aerial_hash:016x}, \
             gradient 0x{gradient_hash:016x}. If the TCC, Jacobi or SOCS derivation changed \
             on purpose, bump SOCS_DERIVATION_VERSION in crates/litho/src/cache.rs so no \
             cached kernel stack from the old code is read again"
        );
    }
    ganopc_nn::pool::set_max_threads(None);
}
