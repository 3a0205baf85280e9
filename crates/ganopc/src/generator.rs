//! The encoder–decoder mask generator (paper Section 3.1, Fig. 4).

use ganopc_nn::checkpoint::Checkpoint;
use ganopc_nn::layers::{
    BatchNorm2d, Conv2d, ConvTranspose2d, LeakyRelu, Relu, Sequential, Sigmoid,
};
use ganopc_nn::{NnError, Tensor};
use ganopc_obs as obs;

/// The GAN-OPC generator.
///
/// An auto-encoder-style convolutional network (paper Fig. 4): the encoder
/// performs "hierarchical layout feature abstractions" with stride-2
/// convolutions down to a 4×4 bottleneck; the decoder mirrors it with
/// stride-2 transposed convolutions and ends in a sigmoid so output pixels
/// are mask transmissions in `[0, 1]`.
///
/// Input and output are `[N, 1, size, size]` tensors of pooled target
/// clips / generated masks.
///
/// ```
/// use ganopc_core::Generator;
/// use ganopc_nn::Tensor;
///
/// let mut g = Generator::new(32, 8, 42);
/// let masks = g.forward(&Tensor::zeros(&[2, 1, 32, 32]), false);
/// assert_eq!(masks.shape(), &[2, 1, 32, 32]);
/// assert!(masks.as_slice().iter().all(|&m| (0.0..=1.0).contains(&m)));
/// ```
pub struct Generator {
    net: Sequential,
    size: usize,
    base_channels: usize,
}

impl Generator {
    /// Maximum channel width of the bottleneck.
    const MAX_CHANNELS: usize = 128;

    /// Builds a generator for `size × size` inputs (power of two, ≥ 8) with
    /// `base_channels` features after the first convolution, seeded for
    /// reproducible initialization.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two ≥ 8 and `base_channels > 0`.
    pub fn new(size: usize, base_channels: usize, seed: u64) -> Self {
        assert!(
            size >= 8 && size.is_power_of_two(),
            "generator size {size} must be a power of two >= 8"
        );
        assert!(base_channels > 0, "base_channels must be positive");
        let stages = (size.trailing_zeros() - 2) as usize; // bottleneck at 4×4
        let mut net = Sequential::new();
        // Encoder.
        let mut ch = 1usize;
        let mut next = base_channels;
        for s in 0..stages {
            net.push(Conv2d::new(ch, next, 4, 2, 1, seed.wrapping_add(s as u64 * 31 + 1)));
            net.push(BatchNorm2d::new(next));
            net.push(LeakyRelu::new(0.2));
            ch = next;
            next = (next * 2).min(Self::MAX_CHANNELS);
        }
        // Decoder.
        for s in 0..stages {
            let out = if s + 1 == stages { 1 } else { (ch / 2).max(base_channels / 2).max(1) };
            net.push(ConvTranspose2d::new(
                ch,
                out,
                4,
                2,
                1,
                seed.wrapping_add(1000 + s as u64 * 17),
            ));
            if s + 1 == stages {
                net.push(Sigmoid::new());
            } else {
                net.push(BatchNorm2d::new(out));
                net.push(Relu::new());
            }
            ch = out;
        }
        Generator { net, size, base_channels }
    }

    /// Input/output spatial size.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Channel width after the first encoder stage.
    #[inline]
    pub fn base_channels(&self) -> usize {
        self.base_channels
    }

    /// Generates masks for a batch of targets `[N, 1, size, size]`.
    ///
    /// # Panics
    ///
    /// Panics when the spatial size disagrees with the generator.
    pub fn forward(&mut self, targets: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::zeros(&[1]);
        self.forward_into(targets, &mut out, train);
        out
    }

    /// Buffer-reusing form of [`Generator::forward`]: writes the generated
    /// masks into `out`, reusing its storage and the network's persistent
    /// activation tape.
    ///
    /// # Panics
    ///
    /// Panics when the spatial size disagrees with the generator.
    // lint: hot-path
    pub fn forward_into(&mut self, targets: &Tensor, out: &mut Tensor, train: bool) {
        let (_, c, h, w) = targets.dims4();
        assert_eq!((c, h, w), (1, self.size, self.size), "generator input shape mismatch");
        self.net.forward_into(targets, out, train);
    }

    /// Batched no-grad inference fast path: generates masks for a batch of
    /// targets in evaluation mode, writing into `out`. After a warmup call
    /// at a given batch shape this performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics when the spatial size disagrees with the generator.
    // lint: hot-path
    pub fn infer_into(&mut self, targets: &Tensor, out: &mut Tensor) {
        let _sp = obs::span(obs::Span::Infer);
        obs::counter_add(obs::Counter::InferBatches, 1);
        self.forward_into(targets, out, false);
    }

    /// Back-propagates a gradient with respect to the generated masks,
    /// accumulating parameter gradients (Algorithm 1 line 9 / Algorithm 2
    /// line 8). Returns the gradient with respect to the input targets.
    pub fn backward(&mut self, grad_masks: &Tensor) -> Tensor {
        self.net.backward(grad_masks)
    }

    /// Backward pass that discards the input gradient — the generator is
    /// the first network in the chain, so ∂L/∂Z_t is never consumed and the
    /// first layer can skip computing it entirely.
    pub fn backward_discard(&mut self, grad_masks: &Tensor) {
        self.net.backward_discard(grad_masks);
    }

    /// Access to the underlying network (optimizers, parameter I/O).
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.net.zero_grads();
    }

    /// Snapshot of all weights.
    pub fn export_params(&mut self) -> Vec<Tensor> {
        self.net.export_params()
    }

    /// Restores a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LoadMismatch`] on layout disagreement.
    pub fn import_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        self.net.import_params(params)
    }

    /// Saves all weights (including batch-norm running statistics) to a
    /// checkpoint file, as the `g/params` section trainer states also use.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save<P: AsRef<std::path::Path>>(&mut self, path: P) -> Result<(), crate::GanOpcError> {
        let mut ck = Checkpoint::new();
        ck.put_tensors("g/params", &self.export_params());
        ck.save(path)?;
        Ok(())
    }

    /// Loads the `g/params` weights of a checkpoint file: one written by
    /// [`Generator::save`], a trainer or pre-trainer state, or a legacy v1
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Propagates I/O/format failures and layout mismatches.
    pub fn load<P: AsRef<std::path::Path>>(&mut self, path: P) -> Result<(), crate::GanOpcError> {
        let snapshot = Checkpoint::load(path)?.take_tensors("g/params")?;
        self.import_params(&snapshot)?;
        Ok(())
    }

    /// Architecture summary (Fig. 3/4 reproduction helper).
    pub fn summary(&mut self) -> String {
        format!("Generator (input {0}x{0}):\n{1}", self.size, self.net.summary())
    }
}

impl std::fmt::Debug for Generator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generator")
            .field("size", &self.size)
            .field("base_channels", &self.base_channels)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_mask_shaped_and_bounded() {
        let mut g = Generator::new(16, 4, 1);
        let x = ganopc_nn::init::uniform(&[3, 1, 16, 16], 0.0, 1.0, 2);
        let y = g.forward(&x, true);
        assert_eq!(y.shape(), &[3, 1, 16, 16]);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut g = Generator::new(16, 4, 1);
        let x = ganopc_nn::init::uniform(&[1, 1, 16, 16], 0.0, 1.0, 3);
        let y = g.forward(&x, true);
        let gin = g.backward(&Tensor::filled(y.shape(), 1.0));
        assert_eq!(gin.shape(), x.shape());
        let mut total = 0usize;
        g.net_mut().visit_params(&mut |p| {
            if p.grad.max_abs() > 0.0 {
                total += 1;
            }
        });
        assert!(total > 0, "no parameter received gradient");
    }

    #[test]
    fn deeper_for_larger_inputs() {
        let mut small = Generator::new(16, 8, 0);
        let mut large = Generator::new(64, 8, 0);
        assert!(large.net_mut().len() > small.net_mut().len());
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = Generator::new(16, 4, 9);
        let mut b = Generator::new(16, 4, 9);
        let x = ganopc_nn::init::uniform(&[1, 1, 16, 16], 0.0, 1.0, 5);
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
    }

    #[test]
    fn summary_mentions_both_halves() {
        let mut g = Generator::new(16, 4, 0);
        let s = g.summary();
        assert!(s.contains("Conv2d"), "{s}");
        assert!(s.contains("ConvTranspose2d"), "{s}");
        assert!(s.contains("Sigmoid"), "{s}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Generator::new(48, 8, 0);
    }
}
