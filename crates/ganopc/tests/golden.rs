//! Golden bit-identity pins for the GAN-OPC networks.
//!
//! One fixed-seed `Generator` forward and backward, then one pair
//! `Discriminator` forward and backward on the generated masks, run through
//! the allocating entry points (`Generator::forward` / `backward`,
//! `Discriminator::forward_pair` / `backward_pair`). Every output, input
//! gradient, parameter gradient and running statistic is hashed over
//! `f32::to_bits` and compared against hashes recorded from the per-layer
//! allocating implementations. The pins hold at one and at four worker
//! threads.
//!
//! This file is its own test binary because it toggles the process-wide
//! `pool::set_max_threads` override.

use ganopc_core::{Discriminator, Generator};
use ganopc_nn::layers::Sequential;
use ganopc_nn::{init, pool, Tensor};

/// 64-bit FNV-1a over shapes and `f32::to_bits`.
struct BitHash(u64);

impl BitHash {
    fn new() -> Self {
        BitHash(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn values(&mut self, v: &[f32]) {
        self.word(v.len() as u64);
        for &x in v {
            self.word(u64::from(x.to_bits()));
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        for &d in t.shape() {
            self.word(d as u64);
        }
        self.values(t.as_slice());
    }
}

fn hash_tensor(t: &Tensor) -> u64 {
    let mut h = BitHash::new();
    h.tensor(t);
    h.0
}

/// Hash of every parameter gradient followed by every state buffer.
fn hash_net_state(net: &mut Sequential) -> u64 {
    let mut h = BitHash::new();
    net.visit_params(&mut |p| h.tensor(&p.grad));
    net.visit_buffers(&mut |b| h.values(b));
    h.0
}

fn gan_hashes() -> Vec<(&'static str, u64)> {
    let mut g = Generator::new(16, 4, 21);
    let mut d = Discriminator::new(16, 4, 22);
    let targets = init::uniform(&[2, 1, 16, 16], 0.0, 1.0, 23);
    let masks = g.forward(&targets, true);
    let probs = d.forward_pair(&targets, &masks, true);
    let grad_probs = Tensor::from_vec(&[2, 1], vec![0.4, -0.7]);
    let (grad_targets, grad_masks) = d.backward_pair(&grad_probs);
    let grad_g_in = g.backward(&grad_masks);
    vec![
        ("g.masks", hash_tensor(&masks)),
        ("d.probs", hash_tensor(&probs)),
        ("d.grad_targets", hash_tensor(&grad_targets)),
        ("d.grad_masks", hash_tensor(&grad_masks)),
        ("d.state", hash_net_state(d.net_mut())),
        ("g.grad_in", hash_tensor(&grad_g_in)),
        ("g.state", hash_net_state(g.net_mut())),
    ]
}

/// Hashes recorded from the per-layer allocating implementations.
const GAN_GOLDEN: [u64; 7] = [
    0x2252_4409_c776_7907, // g.masks
    0x7151_0c52_7d66_30e9, // d.probs
    0x4925_8658_8adb_4d1a, // d.grad_targets
    0x6dc8_f239_9665_73aa, // d.grad_masks
    0x99e7_0fbd_c081_e1b5, // d.state
    0x281a_44f8_65ef_7beb, // g.grad_in
    0xf56e_09f3_2e75_0fd3, // g.state
];

#[test]
fn generator_and_pair_discriminator_match_golden_bits() {
    for threads in [1usize, 4] {
        pool::set_max_threads(Some(threads));
        let got = gan_hashes();
        pool::set_max_threads(None);
        for &(label, h) in &got {
            eprintln!("threads {threads} {label}: {h:#018x}");
        }
        let hashes: Vec<u64> = got.iter().map(|&(_, h)| h).collect();
        assert_eq!(hashes, GAN_GOLDEN, "golden bits diverged at {threads} threads");
    }
}
