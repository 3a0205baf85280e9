//! Golden bit-identity pins for the layer stack.
//!
//! A fixed-seed `Sequential` that holds every layer type runs two training
//! steps and one evaluation pass through the allocating
//! `Sequential::forward` / `Sequential::backward`. Its outputs, input
//! gradients, parameter gradients and batch-norm running statistics are
//! hashed over `f32::to_bits` and compared against hashes recorded from the
//! per-layer allocating implementations, so any change to the bits of a
//! layer kernel or of the tape that chains them shows up here. The pins
//! hold at one and at four worker threads.
//!
//! This file is its own test binary because it toggles the process-wide
//! `pool::set_max_threads` override.

use ganopc_nn::layers::{
    BatchNorm2d, Conv2d, ConvTranspose2d, Flatten, LeakyRelu, Linear, Relu, Sequential, Sigmoid,
};
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

fn hash_param_grads(net: &mut Sequential) -> u64 {
    let mut h = BitHash::new();
    net.visit_params(&mut |p| h.tensor(&p.grad));
    h.0
}

fn hash_buffers(net: &mut Sequential) -> u64 {
    let mut h = BitHash::new();
    net.visit_buffers(&mut |b| h.values(b));
    h.0
}

/// Every layer type, in an order that exercises both tape slots, the
/// in-place element-wise pair and the rank change at `Flatten`.
fn every_layer_net() -> Sequential {
    let mut net = Sequential::new();
    net.push(Conv2d::new(1, 4, 3, 1, 1, 101));
    net.push(BatchNorm2d::new(4));
    net.push(LeakyRelu::new(0.2));
    net.push(ConvTranspose2d::new(4, 3, 4, 2, 1, 102));
    net.push(Relu::new());
    net.push(Flatten::new());
    net.push(Linear::new(3 * 16 * 16, 5, 104));
    net.push(Sigmoid::new());
    net
}

/// Runs the fixed case and returns its named hashes.
fn every_layer_hashes() -> Vec<(String, u64)> {
    let mut net = every_layer_net();
    let mut out = Vec::new();
    for (step, seed) in [("step1", 11u64), ("step2", 12)] {
        let x = init::uniform(&[2, 1, 8, 8], -1.0, 1.0, seed);
        let y = net.forward(&x, true);
        let g = init::uniform(y.shape(), -1.0, 1.0, seed + 100);
        let gi = net.backward(&g);
        out.push((format!("{step}.output"), hash_tensor(&y)));
        out.push((format!("{step}.grad_in"), hash_tensor(&gi)));
        // Parameter gradients accumulate across the two steps.
        out.push((format!("{step}.param_grads"), hash_param_grads(&mut net)));
        out.push((format!("{step}.bn_running"), hash_buffers(&mut net)));
    }
    let x = init::uniform(&[3, 1, 8, 8], -1.0, 1.0, 13);
    out.push(("eval.output".to_string(), hash_tensor(&net.forward(&x, false))));
    out
}

/// Hashes recorded from the per-layer allocating implementations.
const EVERY_LAYER_GOLDEN: [u64; 9] = [
    0x8627_4ab5_c9c0_1f54, // step1.output
    0x5108_2e5f_8072_885f, // step1.grad_in
    0x5481_2d76_8162_b5d1, // step1.param_grads
    0x7ad4_566a_8ff8_0331, // step1.bn_running
    0xe0fa_5369_105e_c653, // step2.output
    0xd958_d64d_b22d_fbdd, // step2.grad_in
    0xbd46_46b3_f733_199d, // step2.param_grads
    0x2dbd_aa53_d5db_f6fa, // step2.bn_running
    0xe917_60a0_5a75_66b0, // eval.output
];

#[test]
fn every_layer_sequential_matches_golden_bits() {
    for threads in [1usize, 4] {
        pool::set_max_threads(Some(threads));
        let got = every_layer_hashes();
        pool::set_max_threads(None);
        for (label, h) in &got {
            eprintln!("threads {threads} {label}: {h:#018x}");
        }
        let hashes: Vec<u64> = got.iter().map(|(_, h)| *h).collect();
        assert_eq!(hashes, EVERY_LAYER_GOLDEN, "golden bits diverged at {threads} threads");
    }
}
