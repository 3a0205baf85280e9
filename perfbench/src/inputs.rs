//! Seed plumbing and input synthesis. The workload seed is the only source
//! of randomness: it derives the clips, the network initial weights and
//! the training library, and the program sees only the generated inputs.

use ganopc_geometry::synthesis::TABLE2_AREAS_NM2;
use ganopc_geometry::{ClipSynthesizer, DesignRules};
use ganopc_litho::Field;

/// Pattern groups the synthesizer aims for (as the Table 2 suite uses).
const CLIP_GROUPS: usize = 64;

/// Independent sub-seeds derived from one workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Clip geometry.
    pub clips: u64,
    /// Network initial weights.
    pub weights: u64,
    /// Training library (and its shuffle stream).
    pub library: u64,
}

impl Seeds {
    /// Derives the three streams from the workload seed.
    pub fn derive(seed: u64) -> Self {
        Seeds { clips: mix(seed, 1), weights: mix(seed, 2), library: mix(seed, 3) }
    }
}

/// Sub-stream `index` of a derived seed (e.g. one generator per clip).
pub fn substream(seed: u64, index: u64) -> u64 {
    mix(seed, index.wrapping_add(0x100))
}

/// SplitMix64 finalizer over `seed` and a stream tag.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Clip `index` of the seed's clip stream, rasterized and binarized at
/// `size × size`. Clips cycle through the ten Table 2 pattern areas, so any
/// ten consecutive clips cover every area once.
pub fn clip(seed: u64, index: usize, size: usize) -> Field {
    let area = TABLE2_AREAS_NM2[index % TABLE2_AREAS_NM2.len()];
    let synth =
        ClipSynthesizer::new(DesignRules::m1_32nm(), ganopc_core::FRAME_NM as i64, CLIP_GROUPS);
    let layout = synth.synthesize_with_area(seed.wrapping_add(index as u64), area);
    layout.rasterize_raster(size, size).binarize(0.5)
}

/// FNV-1a over the bit patterns of `values`: a cheap fingerprint for the
/// bit-identity checks.
pub fn fingerprint<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// True when every value is finite and exactly 0 or 1.
pub fn is_binary(field: &Field) -> bool {
    field.as_slice().iter().all(|&v| v == 0.0 || v == 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_distinct_and_deterministic() {
        let s = Seeds::derive(7);
        assert_eq!(s, Seeds::derive(7));
        assert_ne!(s, Seeds::derive(8));
        assert!(s.clips != s.weights && s.weights != s.library && s.clips != s.library);
    }

    #[test]
    fn clips_follow_the_seed() {
        let a = clip(11, 3, 64);
        assert_eq!(fingerprint(a.as_slice()), fingerprint(clip(11, 3, 64).as_slice()));
        assert_ne!(fingerprint(a.as_slice()), fingerprint(clip(12, 3, 64).as_slice()));
        assert!(is_binary(&a));
        assert!(a.sum() > 0.0);
    }
}
