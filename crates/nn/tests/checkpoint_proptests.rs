//! Corruption-robustness properties of the checkpoint decoder, for v2
//! containers and legacy v1 blobs alike: corrupt, truncated, or outright
//! hostile inputs must surface as a typed [`CheckpointError`] — never a
//! panic, and never an allocation larger than the input justifies.

mod common;

use common::v1_bytes;
use ganopc_nn::checkpoint::{self, Checkpoint, CheckpointError};
use ganopc_nn::Tensor;
use proptest::prelude::*;

/// A random tensor list (ranks 1..=3, small dims).
fn tensor_list() -> impl Strategy<Value = Vec<Tensor>> {
    prop::collection::vec(
        (1usize..4, 1usize..5, 1usize..5).prop_flat_map(|(rank, a, b)| {
            let shape: Vec<usize> = [a, b, 2][..rank].to_vec();
            let len = shape.iter().product::<usize>();
            prop::collection::vec(-10.0f32..10.0, len)
                .prop_map(move |data| Tensor::from_vec(&shape, data))
        }),
        0..4,
    )
}

/// A random v2 container mixing all four section kinds.
fn container() -> impl Strategy<Value = Checkpoint> {
    (
        tensor_list(),
        prop::collection::vec(0u64..u64::MAX, 0..3),
        prop::collection::vec(-1e9f64..1e9, 0..3),
        prop::collection::vec(0u8..=255, 0..32),
    )
        .prop_map(|(tensors, ints, floats, blob)| {
            let mut ck = Checkpoint::new();
            ck.put_tensors("net/params", &tensors);
            for (i, v) in ints.iter().enumerate() {
                ck.put_u64(&format!("int/{i}"), *v);
            }
            for (i, v) in floats.iter().enumerate() {
                ck.put_f64(&format!("float/{i}"), *v);
            }
            ck.put_bytes("meta/blob", blob);
            ck
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any truncation of a valid v1 blob is rejected with a typed error.
    #[test]
    fn v1_truncations_rejected(tensors in tensor_list(), frac in 0.0f64..1.0) {
        let bytes = v1_bytes(&tensors);
        let cut = (bytes.len() as f64 * frac) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err());
    }

    /// Any truncation of a valid v2 blob is rejected with a typed error.
    #[test]
    fn v2_truncations_rejected(ck in container(), frac in 0.0f64..1.0) {
        let bytes = ck.to_bytes();
        let cut = (bytes.len() as f64 * frac) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err());
    }

    /// Bit flips in a v1 blob never panic: the decoder either rejects the
    /// blob or yields a (possibly numerically different) tensor list —
    /// v1 carries no checksum, so silent value corruption is permitted,
    /// crashes and runaway allocation are not.
    #[test]
    fn v1_bit_flips_never_panic(
        tensors in tensor_list(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = v1_bytes(&tensors);
        let pos = (bytes.len() as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let _ = Checkpoint::from_bytes(&bytes);
    }

    /// Every single-bit flip in a v2 blob is caught by the CRC-32 trailer
    /// (or an earlier header check) — loading corrupt state is impossible.
    #[test]
    fn v2_bit_flips_always_detected(
        ck in container(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = ck.to_bytes();
        let pos = (bytes.len() as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(Checkpoint::from_bytes(&bytes).is_err(), "flip at {pos} undetected");
    }

    /// Arbitrary garbage behind a valid magic+version header never panics
    /// and never succeeds by accident in v2 (the CRC would have to match).
    #[test]
    fn hostile_headers_fail_closed(
        version in 1u32..3,
        body in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let mut bytes = Vec::with_capacity(12 + body.len());
        bytes.extend_from_slice(b"GANOPCKP");
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&body);
        if version == 2 {
            // A random body essentially cannot carry a valid CRC trailer.
            prop_assert!(Checkpoint::from_bytes(&bytes).is_err());
        } else {
            let _ = Checkpoint::from_bytes(&bytes);
        }
    }

    /// Hostile counts/dims are rejected before any allocation: a tiny blob
    /// claiming huge section or tensor counts must fail on the byte-budget
    /// check, not by attempting a multi-gigabyte `Vec`.
    #[test]
    fn hostile_counts_fail_before_allocating(count in 1u32 << 20..u32::MAX) {
        // v1: `count` tensors in an empty body.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"GANOPCKP");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&count.to_le_bytes());
        prop_assert!(matches!(
            Checkpoint::from_bytes(&v1),
            Err(CheckpointError::Truncated(_))
        ));

        // v2: `count` sections in an empty body (CRC made valid so the
        // decoder reaches the section-count check).
        let mut v2 = Vec::new();
        v2.extend_from_slice(b"GANOPCKP");
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&count.to_le_bytes());
        let crc = checkpoint::crc32(&v2);
        v2.extend_from_slice(&crc.to_le_bytes());
        prop_assert!(matches!(
            Checkpoint::from_bytes(&v2),
            Err(CheckpointError::Truncated(_))
        ));
    }

    /// Valid containers always roundtrip exactly.
    #[test]
    fn v2_roundtrip(ck in container()) {
        let restored = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        prop_assert_eq!(restored, ck);
    }
}
