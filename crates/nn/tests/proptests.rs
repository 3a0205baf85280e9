//! Property-based tests for the neural-network substrate.

mod common;

use ganopc_nn::checkpoint::Checkpoint;
use ganopc_nn::layers::{
    BatchNorm2d, Conv2d, ConvTranspose2d, Flatten, Layer, LeakyRelu, Linear, Relu, Sequential,
    Sigmoid,
};
use ganopc_nn::{loss, Tensor};
use proptest::prelude::*;

/// Something layers can be appended to: a [`Sequential`] or a plain list
/// of boxed layers driven one at a time.
trait LayerSink {
    fn add<L: Layer + 'static>(&mut self, layer: L);
}

impl LayerSink for Sequential {
    fn add<L: Layer + 'static>(&mut self, layer: L) {
        self.push(layer);
    }
}

impl LayerSink for Vec<Box<dyn Layer>> {
    fn add<L: Layer + 'static>(&mut self, layer: L) {
        self.push(Box::new(layer));
    }
}

/// A fixed-seed stack holding every layer type.
fn every_layer_stack<S: LayerSink + Default>() -> S {
    let mut s = S::default();
    s.add(Conv2d::new(1, 4, 3, 1, 1, 21));
    s.add(BatchNorm2d::new(4));
    s.add(LeakyRelu::new(0.2));
    s.add(ConvTranspose2d::new(4, 3, 4, 2, 1, 22));
    s.add(Relu::new());
    s.add(Flatten::new());
    s.add(Linear::new(3 * 16 * 16, 3, 24));
    s.add(Sigmoid::new());
    s
}

fn tensor4(n: usize, c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, n * c * h * w)
        .prop_map(move |v| Tensor::from_vec(&[n, c, h, w], v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Convolution is translation-equivariant under cyclic-free interior
    /// shifts: shifting the input by one pixel shifts the output by one
    /// pixel (checked away from the padded border).
    #[test]
    fn conv_translation_equivariance(x in tensor4(1, 1, 8, 8)) {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 11);
        let y = conv.forward(&x, true);
        // Shift input right by 1.
        let mut shifted = Tensor::zeros(&[1, 1, 8, 8]);
        for r in 0..8 {
            for cc in 1..8 {
                shifted.set(&[0, 0, r, cc], x.at(&[0, 0, r, cc - 1]));
            }
        }
        let ys = conv.forward(&shifted, true);
        for r in 1..7 {
            for cc in 2..7 {
                let a = y.at(&[0, 0, r, cc - 1]);
                let b = ys.at(&[0, 0, r, cc]);
                prop_assert!((a - b).abs() < 1e-4, "at ({r},{cc}): {a} vs {b}");
            }
        }
    }

    /// Sigmoid output is always a probability; ReLU is idempotent.
    #[test]
    fn activation_ranges(x in tensor4(2, 1, 4, 4)) {
        let mut s = Sigmoid::new();
        let y = s.forward(&x, true);
        prop_assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let mut r = Relu::new();
        let once = r.forward(&x, true);
        let twice = r.forward(&once, true);
        prop_assert_eq!(once, twice);
    }

    /// LeakyReLU with slope 0 equals ReLU.
    #[test]
    fn leaky_zero_is_relu(x in tensor4(1, 2, 3, 3)) {
        let mut l = LeakyRelu::new(0.0);
        let mut r = Relu::new();
        prop_assert_eq!(l.forward(&x, true), r.forward(&x, true));
    }

    /// The summed squared error is nonnegative, zero at a match, and
    /// symmetric.
    #[test]
    fn sse_axioms(a in prop::collection::vec(-3.0f32..3.0, 16), b in prop::collection::vec(-3.0f32..3.0, 16)) {
        let ta = Tensor::from_vec(&[16], a);
        let tb = Tensor::from_vec(&[16], b);
        let sse = |x: &Tensor, y: &Tensor| {
            loss::sum_squared_error_acc_into(x, y, 1.0, &mut Tensor::zeros(&[16]))
        };
        let (ab, ba) = (sse(&ta, &tb), sse(&tb, &ta));
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert_eq!(sse(&ta, &ta), 0.0);
    }

    /// Checkpoints roundtrip arbitrary snapshots, and legacy v1 blobs
    /// load them under the same section.
    #[test]
    fn checkpoint_roundtrip(values in prop::collection::vec(-1e3f32..1e3, 1..64)) {
        let len = values.len();
        let snap = vec![Tensor::from_vec(&[len], values)];
        let mut ck = Checkpoint::new();
        ck.put_tensors("g/params", &snap);
        for bytes in [ck.to_bytes(), common::v1_bytes(&snap)] {
            let restored = Checkpoint::from_bytes(&bytes).unwrap().take_tensors("g/params").unwrap();
            prop_assert_eq!(&restored, &snap);
        }
    }

    /// A deconv that mirrors a conv is its adjoint for arbitrary inputs.
    #[test]
    fn conv_deconv_adjoint(x in tensor4(1, 1, 6, 6), y in tensor4(1, 1, 6, 6)) {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 3);
        let mut deconv = ConvTranspose2d::new(1, 1, 3, 1, 1, 4);
        // Share weights, zero biases.
        let w = {
            let mut out = Vec::new();
            conv.visit_params(&mut |p| out.push(p.value.clone()));
            out
        };
        let mut idx = 0;
        deconv.visit_params(&mut |p| {
            if idx == 0 {
                p.value = w[0].clone().reshape(&[1, 1, 3, 3]);
            } else {
                p.value = Tensor::zeros(&[1]);
            }
            idx += 1;
        });
        idx = 0;
        conv.visit_params(&mut |p| {
            if idx == 1 {
                p.value = Tensor::zeros(&[1]);
            }
            idx += 1;
        });
        let cx = conv.forward(&x, true);
        let dy = deconv.forward(&y, true);
        let lhs: f64 = cx.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.as_slice().iter().zip(dy.as_slice()).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// BatchNorm in training mode outputs zero-mean unit-variance channels
    /// (within numeric tolerance) for any non-degenerate input.
    #[test]
    fn batchnorm_normalizes(x in tensor4(4, 2, 4, 4)) {
        let mut bn = BatchNorm2d::new(2);
        let y = bn.forward(&x, true);
        let (n, c, h, w) = y.dims4();
        let plane = h * w;
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                vals.extend_from_slice(&y.as_slice()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            prop_assert!(mean.abs() < 1e-3, "channel {ci} mean {mean}");
        }
    }

    /// End-to-end forward/backward shape stability on random stacks.
    #[test]
    fn sequential_shapes_stable(x in tensor4(2, 1, 8, 8)) {
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 4, 3, 1, 1, 5));
        net.push(BatchNorm2d::new(4));
        net.push(LeakyRelu::new(0.2));
        net.push(Conv2d::new(4, 2, 4, 2, 1, 6));
        let y = net.forward(&x, true);
        prop_assert_eq!(y.shape(), &[2, 2, 4, 4]);
        let g = net.backward(&Tensor::filled(y.shape(), 1.0));
        prop_assert_eq!(g.shape(), x.shape());
    }

    /// The `Sequential` tape (two ping-pong slots, element-wise layers
    /// applied in place, flatten as a zero-copy reshape) is bit-identical
    /// to chaining each layer's out-of-place `Layer::forward` /
    /// `Layer::backward` by hand, on a stack with every layer type. The
    /// discard path (`backward_into(.., None)`) skips the input gradient
    /// but leaves the exact parameter gradients of the `Some` path.
    #[test]
    fn tape_matches_per_layer_chaining(x in tensor4(2, 1, 8, 8), g_scale in 0.5f32..1.5) {
        let mut chain: Vec<Box<dyn Layer>> = every_layer_stack();
        let mut y_chain = x.clone();
        for layer in &mut chain {
            y_chain = layer.forward(&y_chain, true);
        }
        let mut tape: Sequential = every_layer_stack();
        let mut y_tape = Tensor::zeros(&[1]);
        tape.forward_into(&x, &mut y_tape, true);
        prop_assert_eq!(y_chain.shape(), y_tape.shape());
        prop_assert_eq!(y_chain.as_slice(), y_tape.as_slice());

        let grad = Tensor::filled(y_chain.shape(), g_scale);
        let mut gi_chain = grad.clone();
        for layer in chain.iter_mut().rev() {
            gi_chain = layer.backward(&gi_chain);
        }
        let mut gi_tape = Tensor::zeros(&[1]);
        tape.backward_into(&grad, Some(&mut gi_tape));
        prop_assert_eq!(gi_chain.shape(), gi_tape.shape());
        prop_assert_eq!(gi_chain.as_slice(), gi_tape.as_slice());

        let mut pg_chain = Vec::new();
        for layer in &mut chain {
            layer.visit_params(&mut |p| pg_chain.push(p.grad.clone()));
        }
        let mut pg_tape = Vec::new();
        tape.visit_params(&mut |p| pg_tape.push(p.grad.clone()));
        prop_assert_eq!(&pg_tape, &pg_chain);

        let mut discard: Sequential = every_layer_stack();
        let mut y_d = Tensor::zeros(&[1]);
        discard.forward_into(&x, &mut y_d, true);
        discard.backward_into(&grad, None);
        let mut pg_discard = Vec::new();
        discard.visit_params(&mut |p| pg_discard.push(p.grad.clone()));
        prop_assert_eq!(&pg_discard, &pg_chain);
    }

    /// Linear layer is affine: f(a+b) - f(b) == f(a) - f(0).
    #[test]
    fn linear_is_affine(
        a in prop::collection::vec(-2.0f32..2.0, 6),
        b in prop::collection::vec(-2.0f32..2.0, 6),
    ) {
        let mut fc = Linear::new(6, 3, 8);
        let ta = Tensor::from_vec(&[1, 6], a.clone());
        let tb = Tensor::from_vec(&[1, 6], b.clone());
        let tab = Tensor::from_vec(&[1, 6], a.iter().zip(&b).map(|(x, y)| x + y).collect());
        let zero = Tensor::zeros(&[1, 6]);
        let f_ab = fc.forward(&tab, true);
        let f_b = fc.forward(&tb, true);
        let f_a = fc.forward(&ta, true);
        let f_0 = fc.forward(&zero, true);
        for i in 0..3 {
            let lhs = f_ab.as_slice()[i] - f_b.as_slice()[i];
            let rhs = f_a.as_slice()[i] - f_0.as_slice()[i];
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }
}
