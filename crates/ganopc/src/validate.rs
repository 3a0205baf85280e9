//! Hold-out validation of trained generators.
//!
//! The paper evaluates generalization on the ICCAD benchmark clips; this
//! module provides the machinery to do the same during development:
//! deterministic train/validation splits of an [`OpcDataset`] and a
//! generator evaluation report measuring both the mask regression error
//! (vs ILT references) and the true lithography error of the generated
//! masks.

use crate::{field_to_tensor_into, tensor_to_field, GanOpcError, Generator, OpcDataset};
use ganopc_litho::LithoModel;
use ganopc_obs as obs;
use serde::{Deserialize, Serialize};

/// Deterministically splits a dataset into train/validation parts.
///
/// The split permutes instances by seed and assigns the first
/// `1 − holdout` fraction to training.
///
/// # Errors
///
/// Returns [`GanOpcError::Config`] unless `0 < holdout < 1` leaves at least
/// one instance on each side.
pub fn split_dataset(
    dataset: &OpcDataset,
    holdout: f64,
    seed: u64,
) -> Result<(OpcDataset, OpcDataset), GanOpcError> {
    if !(0.0..1.0).contains(&holdout) || holdout == 0.0 {
        return Err(GanOpcError::Config(format!("holdout {holdout} outside (0, 1)")));
    }
    let n = dataset.len();
    let n_val = ((n as f64 * holdout).round() as usize).clamp(1, n.saturating_sub(1));
    if n_val == 0 || n_val >= n {
        return Err(GanOpcError::Config(format!(
            "cannot split {n} instances with holdout {holdout}"
        )));
    }
    let order = dataset.epoch_order(seed);
    let pick = |indices: &[usize]| -> (Vec<_>, Vec<_>) {
        indices.iter().map(|&i| (dataset.targets()[i].clone(), dataset.masks()[i].clone())).unzip()
    };
    let (train_t, train_m) = pick(&order[..n - n_val]);
    let (val_t, val_m) = pick(&order[n - n_val..]);
    Ok((
        OpcDataset::from_pairs(dataset.size(), train_t, train_m)?,
        OpcDataset::from_pairs(dataset.size(), val_t, val_m)?,
    ))
}

/// Evaluation report for a generator over a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Instances evaluated.
    pub count: usize,
    /// Mean per-pixel squared error between generated and reference masks
    /// (the Fig. 7 quantity).
    pub mask_l2: f64,
    /// Mean lithography error `E = ‖Z − Z_t‖²` of the generated masks
    /// (Eq. (11)) — the quantity that actually matters downstream.
    pub litho_error: f64,
}

/// Evaluates a generator on every instance of a dataset (inference mode).
///
/// # Errors
///
/// Returns [`GanOpcError::Config`] on resolution mismatches and propagates
/// lithography failures.
pub fn evaluate_generator(
    generator: &mut Generator,
    model: &LithoModel,
    dataset: &OpcDataset,
) -> Result<ValidationReport, GanOpcError> {
    let _sp = obs::span(obs::Span::TrainValidation);
    if generator.size() != dataset.size() {
        return Err(GanOpcError::Config(format!(
            "generator size {} != dataset size {}",
            generator.size(),
            dataset.size()
        )));
    }
    if model.shape() != (dataset.size(), dataset.size()) {
        return Err(GanOpcError::Config(format!(
            "litho frame {:?} != dataset size {}",
            model.shape(),
            dataset.size()
        )));
    }
    let mut mask_l2 = 0.0f64;
    let mut litho_error = 0.0f64;
    // Network I/O buffers hoisted out of the loop: `infer_into` reuses them,
    // so evaluation allocates per instance only for litho-side fields.
    let mut input = ganopc_nn::Tensor::zeros(&[1]);
    let mut generated = ganopc_nn::Tensor::zeros(&[1]);
    for (target, reference) in dataset.targets().iter().zip(dataset.masks()) {
        field_to_tensor_into(target, &mut input);
        generator.infer_into(&input, &mut generated);
        let mask = tensor_to_field(&generated, 0);
        mask_l2 += mask.squared_l2_distance(reference) / mask.len() as f64;
        let aerial = model.aerial_image(&mask);
        let z = model.relax(&aerial);
        litho_error += z.squared_l2_distance(target);
    }
    let n = dataset.len() as f64;
    Ok(ValidationReport {
        count: dataset.len(),
        mask_l2: mask_l2 / n,
        litho_error: litho_error / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganopc_ilt::IltConfig;
    use ganopc_litho::OpticalConfig;

    fn dataset() -> OpcDataset {
        OpcDataset::synthesize(32, 6, IltConfig::fast(), 77).unwrap()
    }

    fn model() -> LithoModel {
        let mut cfg = OpticalConfig::default_32nm(64.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 6;
        LithoModel::new(cfg, 32, 32).unwrap()
    }

    #[test]
    fn split_covers_every_instance_exactly_once() {
        let ds = dataset();
        let (train, val) = split_dataset(&ds, 0.34, 1).unwrap();
        assert_eq!(train.len() + val.len(), ds.len());
        assert_eq!(val.len(), 2);
        // No target appears in both halves.
        for t in val.targets() {
            assert!(!train.targets().contains(t), "leak across the split");
        }
        // Deterministic.
        let (train2, _) = split_dataset(&ds, 0.34, 1).unwrap();
        assert_eq!(train.targets(), train2.targets());
    }

    #[test]
    fn split_rejects_degenerate_fractions() {
        let ds = dataset();
        assert!(split_dataset(&ds, 0.0, 1).is_err());
        assert!(split_dataset(&ds, 1.0, 1).is_err());
        assert!(split_dataset(&ds, -0.5, 1).is_err());
    }

    #[test]
    fn evaluation_reports_finite_metrics() {
        let ds = dataset();
        let m = model();
        let mut g = Generator::new(32, 4, 3);
        let report = evaluate_generator(&mut g, &m, &ds).unwrap();
        assert_eq!(report.count, ds.len());
        assert!(report.mask_l2.is_finite() && report.mask_l2 >= 0.0);
        assert!(report.litho_error.is_finite() && report.litho_error >= 0.0);
    }

    #[test]
    fn pretraining_improves_validation_litho_error() {
        use crate::pretrain::{pretrain_generator, PretrainConfig};
        let ds = dataset();
        let (train, val) = split_dataset(&ds, 0.34, 9).unwrap();
        let m = model();
        let mut g = Generator::new(32, 4, 3);
        let before = evaluate_generator(&mut g, &m, &val).unwrap();
        let mut cfg = PretrainConfig::fast();
        cfg.iterations = 15;
        cfg.lr = 0.05;
        pretrain_generator(&mut g, &m, &train, &cfg).unwrap();
        let after = evaluate_generator(&mut g, &m, &val).unwrap();
        assert!(
            after.litho_error < before.litho_error,
            "pretraining did not generalize: {} -> {}",
            before.litho_error,
            after.litho_error
        );
    }

    #[test]
    fn evaluation_rejects_mismatched_sizes() {
        let ds = dataset();
        let m = model();
        let mut g = Generator::new(16, 4, 0);
        assert!(matches!(evaluate_generator(&mut g, &m, &ds), Err(GanOpcError::Config(_))));
    }
}
