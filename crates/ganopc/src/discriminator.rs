//! The pair discriminator (paper Section 3.2, Fig. 4).

use ganopc_nn::layers::{BatchNorm2d, Conv2d, Flatten, LeakyRelu, Linear, Sequential, Sigmoid};
use ganopc_nn::{NnError, Tensor};

/// The GAN-OPC discriminator.
///
/// Section 3.2 shows a mask-only discriminator cannot force a one-one
/// target→mask mapping: the generator can satisfy it by producing *any*
/// reference mask. This discriminator therefore classifies stacked
/// `(Z_t, M)` **pairs** — a 2-channel image — as paper Eq. (7)–(8) require:
/// only pairs `(Z_{t,i}, M*_i)` count as real data.
///
/// Architecture: stride-2 convolutions with leaky ReLU down to 4×4, then a
/// dense sigmoid head emitting the probability the pair is real.
///
/// ```
/// use ganopc_core::Discriminator;
/// use ganopc_nn::Tensor;
///
/// let mut d = Discriminator::new(32, 8, 7);
/// let t = Tensor::zeros(&[2, 1, 32, 32]);
/// let m = Tensor::zeros(&[2, 1, 32, 32]);
/// let p = d.forward_pair(&t, &m, false);
/// assert_eq!(p.shape(), &[2, 1]);
/// assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
/// ```
pub struct Discriminator {
    net: Sequential,
    size: usize,
    base_channels: usize,
    /// Whether the network takes pairs (2 channels) or bare masks
    /// (1 channel — the conventional-GAN ablation of Section 3.2).
    pair_input: bool,
    /// Persistent 2-channel input buffer of the pair paths.
    scratch_pair: Tensor,
    /// Persistent 2-channel input gradient of the pair paths.
    scratch_grad_pair: Tensor,
}

impl Discriminator {
    const MAX_CHANNELS: usize = 128;

    /// Builds a pair discriminator for `size × size` clips.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two ≥ 8 and `base_channels > 0`.
    pub fn new(size: usize, base_channels: usize, seed: u64) -> Self {
        Self::with_input_channels(size, base_channels, seed, true)
    }

    /// Builds a *mask-only* discriminator (1 input channel) — the ablation
    /// baseline showing why pairs are necessary (Section 3.2, Eq. (6)).
    pub fn mask_only(size: usize, base_channels: usize, seed: u64) -> Self {
        Self::with_input_channels(size, base_channels, seed, false)
    }

    fn with_input_channels(size: usize, base_channels: usize, seed: u64, pair: bool) -> Self {
        assert!(
            size >= 8 && size.is_power_of_two(),
            "discriminator size {size} must be a power of two >= 8"
        );
        assert!(base_channels > 0, "base_channels must be positive");
        let stages = (size.trailing_zeros() - 2) as usize; // down to 4×4
        let mut net = Sequential::new();
        let mut ch = if pair { 2 } else { 1 };
        let mut next = base_channels;
        for s in 0..stages {
            net.push(Conv2d::new(ch, next, 4, 2, 1, seed.wrapping_add(s as u64 * 13 + 3)));
            if s > 0 {
                net.push(BatchNorm2d::new(next));
            }
            net.push(LeakyRelu::new(0.2));
            ch = next;
            next = (next * 2).min(Self::MAX_CHANNELS);
        }
        net.push(Flatten::new());
        net.push(Linear::new(ch * 16, 1, seed.wrapping_add(777)));
        net.push(Sigmoid::new());
        Discriminator {
            net,
            size,
            base_channels,
            pair_input: pair,
            scratch_pair: Tensor::zeros(&[1]),
            scratch_grad_pair: Tensor::zeros(&[1]),
        }
    }

    /// Input spatial size.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Channel width after the first stage.
    #[inline]
    pub fn base_channels(&self) -> usize {
        self.base_channels
    }

    /// Returns `true` for pair discriminators, `false` for the mask-only
    /// ablation.
    #[inline]
    pub fn takes_pairs(&self) -> bool {
        self.pair_input
    }

    /// Classifies `(target, mask)` pairs; both inputs `[N, 1, size, size]`.
    /// Returns probabilities `[N, 1]`.
    ///
    /// # Panics
    ///
    /// Panics for mask-only discriminators (use
    /// [`Discriminator::forward_mask`]) or on shape mismatch.
    pub fn forward_pair(&mut self, targets: &Tensor, masks: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::zeros(&[1]);
        self.forward_pair_into(targets, masks, &mut out, train);
        out
    }

    /// Buffer-reusing form of [`Discriminator::forward_pair`]: stacks the
    /// pair into a persistent scratch buffer and writes the probabilities
    /// `[N, 1]` into `out`.
    ///
    /// # Panics
    ///
    /// Panics for mask-only discriminators or on shape mismatch.
    pub fn forward_pair_into(
        &mut self,
        targets: &Tensor,
        masks: &Tensor,
        out: &mut Tensor,
        train: bool,
    ) {
        assert!(self.pair_input, "mask-only discriminator cannot take pairs");
        self.scratch_pair.concat_channels_into(&[targets, masks]);
        self.net.forward_into(&self.scratch_pair, out, train);
    }

    /// Classifies bare masks (mask-only ablation).
    ///
    /// # Panics
    ///
    /// Panics for pair discriminators.
    pub fn forward_mask(&mut self, masks: &Tensor, train: bool) -> Tensor {
        assert!(!self.pair_input, "pair discriminator requires pairs");
        self.net.forward(masks, train)
    }

    /// Back-propagates a gradient with respect to the probabilities and
    /// returns the gradients with respect to `(targets, masks)`.
    ///
    /// # Panics
    ///
    /// Panics for mask-only discriminators.
    pub fn backward_pair(&mut self, grad_prob: &Tensor) -> (Tensor, Tensor) {
        let mut grad_masks = Tensor::zeros(&[1]);
        self.backward_pair_into(grad_prob, &mut grad_masks);
        let mut grad_targets = Tensor::zeros(&[1]);
        self.scratch_grad_pair.extract_channels_into(0, 1, &mut grad_targets);
        (grad_targets, grad_masks)
    }

    /// Buffer-reusing backward through the pair discriminator that keeps
    /// only the mask-channel gradient (the generator update consumes
    /// ∂L/∂M; ∂L/∂Z_t is never used), written into `grad_mask`. The full
    /// pair gradient stays in a persistent scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics for mask-only discriminators.
    pub fn backward_pair_into(&mut self, grad_prob: &Tensor, grad_mask: &mut Tensor) {
        assert!(self.pair_input, "mask-only discriminator cannot split pair gradients");
        self.net.backward_into(grad_prob, Some(&mut self.scratch_grad_pair));
        self.scratch_grad_pair.extract_channels_into(1, 1, grad_mask);
    }

    /// Backward through the pair discriminator discarding the input
    /// gradient entirely — the discriminator-update path, where only the
    /// parameter gradients matter.
    ///
    /// # Panics
    ///
    /// Panics for mask-only discriminators.
    pub fn backward_pair_discard(&mut self, grad_prob: &Tensor) {
        assert!(self.pair_input, "mask-only discriminator cannot split pair gradients");
        self.net.backward_discard(grad_prob);
    }

    /// Back-propagates for the mask-only ablation, returning the mask
    /// gradient.
    pub fn backward_mask(&mut self, grad_prob: &Tensor) -> Tensor {
        assert!(!self.pair_input, "pair discriminator requires backward_pair");
        self.net.backward(grad_prob)
    }

    /// Access to the underlying network.
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

    /// Architecture summary.
    pub fn summary(&mut self) -> String {
        let kind = if self.pair_input { "pair" } else { "mask-only" };
        format!("Discriminator ({kind}, input {0}x{0}):\n{1}", self.size, self.net.summary())
    }
}

impl std::fmt::Debug for Discriminator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Discriminator")
            .field("size", &self.size)
            .field("pair_input", &self.pair_input)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganopc_nn::init;

    #[test]
    fn pair_probabilities_bounded() {
        let mut d = Discriminator::new(16, 4, 3);
        let t = init::uniform(&[2, 1, 16, 16], 0.0, 1.0, 1);
        let m = init::uniform(&[2, 1, 16, 16], 0.0, 1.0, 2);
        let p = d.forward_pair(&t, &m, true);
        assert_eq!(p.shape(), &[2, 1]);
        assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn backward_splits_target_and_mask_gradients() {
        let mut d = Discriminator::new(16, 4, 3);
        let t = init::uniform(&[1, 1, 16, 16], 0.0, 1.0, 1);
        let m = init::uniform(&[1, 1, 16, 16], 0.0, 1.0, 2);
        let p = d.forward_pair(&t, &m, true);
        let (gt, gm) = d.backward_pair(&Tensor::filled(p.shape(), 1.0));
        assert_eq!(gt.shape(), t.shape());
        assert_eq!(gm.shape(), m.shape());
        assert!(gm.max_abs() > 0.0, "mask gradient vanished");
    }

    #[test]
    fn discriminator_is_sensitive_to_the_mask_channel() {
        // Changing only the mask must change the output — the property the
        // pair construction exists for.
        let mut d = Discriminator::new(16, 4, 3);
        let t = init::uniform(&[1, 1, 16, 16], 0.0, 1.0, 1);
        let m1 = Tensor::zeros(&[1, 1, 16, 16]);
        let m2 = Tensor::filled(&[1, 1, 16, 16], 1.0);
        let p1 = d.forward_pair(&t, &m1, false);
        let p2 = d.forward_pair(&t, &m2, false);
        assert_ne!(p1.as_slice()[0], p2.as_slice()[0]);
    }

    #[test]
    fn mask_only_variant() {
        let mut d = Discriminator::mask_only(16, 4, 5);
        assert!(!d.takes_pairs());
        let m = init::uniform(&[2, 1, 16, 16], 0.0, 1.0, 2);
        let p = d.forward_mask(&m, true);
        assert_eq!(p.shape(), &[2, 1]);
        let gm = d.backward_mask(&Tensor::filled(p.shape(), 1.0));
        assert_eq!(gm.shape(), m.shape());
    }

    #[test]
    #[should_panic(expected = "cannot take pairs")]
    fn mask_only_rejects_pairs() {
        let mut d = Discriminator::mask_only(16, 4, 5);
        let t = Tensor::zeros(&[1, 1, 16, 16]);
        let _ = d.forward_pair(&t, &t, false);
    }

    #[test]
    fn discard_path_accumulates_the_same_param_grads() {
        // `backward_pair_discard` skips every input gradient but must leave
        // exactly the parameter gradients of the full pair backward.
        let t = init::uniform(&[2, 1, 16, 16], 0.0, 1.0, 1);
        let m = init::uniform(&[2, 1, 16, 16], 0.0, 1.0, 2);
        let gp = Tensor::from_vec(&[2, 1], vec![0.4, -0.7]);
        let mut full = Discriminator::new(16, 4, 3);
        let mut disc = Discriminator::new(16, 4, 3);
        let p_full = full.forward_pair(&t, &m, true);
        let p_disc = disc.forward_pair(&t, &m, true);
        assert_eq!(p_full, p_disc);
        let _ = full.backward_pair(&gp);
        disc.backward_pair_discard(&gp);
        let mut grads_full = Vec::new();
        full.net_mut().visit_params(&mut |p| grads_full.push(p.grad.clone()));
        let mut grads_disc = Vec::new();
        disc.net_mut().visit_params(&mut |p| grads_disc.push(p.grad.clone()));
        assert_eq!(grads_disc, grads_full);
    }

    #[test]
    fn summary_reports_kind() {
        let mut d = Discriminator::new(16, 4, 0);
        assert!(d.summary().contains("pair"));
        let mut m = Discriminator::mask_only(16, 4, 0);
        assert!(m.summary().contains("mask-only"));
    }
}
