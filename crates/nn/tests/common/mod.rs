//! Test-only encoder for legacy v1 checkpoints, which the library reads
//! but no longer writes.

use ganopc_nn::Tensor;

/// Magic, `version = 1`, then one bare tensor list (all little-endian).
pub fn v1_bytes(tensors: &[Tensor]) -> Vec<u8> {
    let mut out = b"GANOPCKP".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in tensors {
        out.extend_from_slice(&(t.shape().len() as u32).to_le_bytes());
        t.shape().iter().for_each(|&d| out.extend_from_slice(&(d as u64).to_le_bytes()));
        t.as_slice().iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
    }
    out
}
