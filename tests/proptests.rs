//! Property-based cross-crate invariants (proptest).

use gan_opc::fft::{spectrum, Complex, Direction, Fft2d, RealFft2d};
use gan_opc::geometry::layout::union_area;
use gan_opc::geometry::raster::Raster;
use gan_opc::geometry::{Layout, Rect};
use proptest::prelude::*;

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (0i64..1800, 0i64..1800, 20i64..240, 20i64..240)
        .prop_map(|(x, y, w, h)| Rect::from_origin_size(x, y, w, h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FFT forward→inverse is the identity (up to f32 rounding).
    #[test]
    fn fft_roundtrip_is_identity(values in prop::collection::vec(-10.0f32..10.0, 256)) {
        let plan = Fft2d::new(16, 16).unwrap();
        let mut buf: Vec<Complex> = values.iter().map(|&v| Complex::from_real(v)).collect();
        plan.transform(&mut buf, Direction::Forward).unwrap();
        plan.transform(&mut buf, Direction::Inverse).unwrap();
        for (c, &v) in buf.iter().zip(&values) {
            prop_assert!((c.re - v).abs() < 1e-2);
            prop_assert!(c.im.abs() < 1e-2);
        }
    }

    /// Parseval: FFT preserves energy (with the 1/N convention).
    #[test]
    fn fft_parseval(values in prop::collection::vec(-4.0f32..4.0, 64)) {
        let plan = Fft2d::new(8, 8).unwrap();
        let mut spec: Vec<Complex> = values.iter().map(|&v| Complex::from_real(v)).collect();
        plan.transform(&mut spec, Direction::Forward).unwrap();
        let time: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
        let freq: f64 = spec.iter().map(|c| c.norm_sqr() as f64).sum::<f64>() / 64.0;
        prop_assert!((time - freq).abs() <= 1e-3 * time.max(1.0));
    }

    /// Convolution with a delta kernel is the identity.
    #[test]
    fn delta_convolution_identity(values in prop::collection::vec(0.0f32..1.0, 64)) {
        let mut kernel = vec![Complex::ZERO; 9];
        kernel[4] = Complex::ONE;
        let ks = spectrum::KernelSpectrum::new(&kernel, 3, 8, 8).unwrap();
        let plan = RealFft2d::new(8, 8).unwrap();
        let mut scratch = Vec::new();
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        plan.forward(&values, &mut half, &mut scratch).unwrap();
        let mut prod = vec![Complex::ZERO; plan.spectrum_len()];
        spectrum::mul_into(&mut prod, &half, ks.re_spectrum().unwrap());
        let mut out = vec![0.0f32; plan.real_len()];
        plan.inverse(&mut prod, &mut out, &mut scratch).unwrap();
        for (&o, &v) in out.iter().zip(&values) {
            prop_assert!((o - v).abs() < 1e-3);
        }
    }

    /// Union area is monotone, bounded by the sum of areas, and at least
    /// the max individual area.
    #[test]
    fn union_area_bounds(rects in prop::collection::vec(rect_strategy(), 1..12)) {
        let union = union_area(&rects);
        let sum: i64 = rects.iter().map(Rect::area).sum();
        let max = rects.iter().map(Rect::area).max().unwrap();
        prop_assert!(union <= sum);
        prop_assert!(union >= max);
        // Adding a rect never shrinks the union.
        let mut grown = rects.clone();
        grown.push(Rect::from_origin_size(0, 0, 50, 50));
        prop_assert!(union_area(&grown) >= union);
    }

    /// Rasterization conserves pattern area within a pixel-boundary bound.
    #[test]
    fn rasterization_conserves_area(rects in prop::collection::vec(rect_strategy(), 1..8)) {
        let frame = Rect::new(0, 0, 2048, 2048);
        let clip = Layout::with_shapes(frame, rects);
        let raster = clip.rasterize_raster(128, 128);
        let px_area = 16.0 * 16.0;
        let raster_area = raster.sum() as f64 * px_area;
        let exact = clip.pattern_area() as f64;
        // Anti-aliased rasterization of axis-aligned rects is near-exact;
        // allow overlap-clamping slack.
        prop_assert!(raster_area <= exact * 1.02 + px_area);
        let sum_area: f64 = clip.shapes().iter().map(|r| r.area() as f64).sum();
        let overlap_slack = sum_area - exact;
        prop_assert!(raster_area + overlap_slack >= exact * 0.98 - px_area);
    }

    /// Average pooling preserves the mean exactly.
    #[test]
    fn avg_pool_preserves_mean(values in prop::collection::vec(0.0f32..1.0, 64)) {
        let r = Raster::from_vec(8, 8, values);
        let p = r.avg_pool(4);
        prop_assert!((p.mean() - r.mean()).abs() < 1e-5);
    }

    /// Bilinear upsampling stays within the input range and preserves the
    /// values of a constant raster.
    #[test]
    fn bilinear_upsample_range(values in prop::collection::vec(0.0f32..1.0, 16)) {
        let r = Raster::from_vec(4, 4, values.clone());
        let u = r.upsample_bilinear(4);
        let lo = values.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for &v in u.as_slice() {
            prop_assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
        }
    }

    /// Binarization is idempotent.
    #[test]
    fn binarize_idempotent(values in prop::collection::vec(0.0f32..1.0, 32)) {
        let r = Raster::from_vec(4, 8, values);
        let b = r.binarize(0.5);
        prop_assert_eq!(b.binarize(0.5), b.clone());
        prop_assert!(b.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }
}
