//! Golden bit-identity pins for every transform in the crate.
//!
//! Each case hashes the `f32::to_bits` of a transform's output (and its
//! shape) with FNV-1a-64 and compares against a hash recorded from an
//! earlier, independently structured implementation of the same arithmetic.
//! A restructured engine (new data layout, new loop order) must reproduce
//! every output bit for bit, not merely within a tolerance; the naive-DFT
//! property tests remain the independent accuracy oracle.

use ganopc_fft::{Complex, Direction, Fft1d, Fft2d, RealFft2d};

/// FNV-1a-64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn f32s(&mut self, v: &[f32]) {
        self.usize(v.len());
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn complex(&mut self, v: &[Complex]) {
        self.usize(v.len());
        for c in v {
            self.bytes(&c.re.to_bits().to_le_bytes());
            self.bytes(&c.im.to_bits().to_le_bytes());
        }
    }
}

/// Deterministic xorshift values in `[-1, 1)`, independent of any RNG crate.
fn noise(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// A binary rectangle pattern, like the masks the litho stack transforms
/// (exact zeros and ones exercise the signed-zero paths).
fn binary(h: usize, w: usize) -> Vec<f32> {
    (0..h * w)
        .map(|i| {
            let (y, x) = (i / w, i % w);
            let on = (x * 5 / w.max(1)) % 2 == 1 && (y * 3 / h.max(1)) != 1 || (x + y) % 7 == 0;
            if on {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

fn complex_noise(n: usize, seed: u64) -> Vec<Complex> {
    let v = noise(2 * n, seed);
    v.chunks_exact(2).map(|p| Complex::new(p[0], p[1])).collect()
}

/// Hashes of `forward`, `inverse` (of the forward spectrum and of an
/// arbitrary spectrum) and `adjoint` for one `RealFft2d` shape.
fn real_fft_hash(h: usize, w: usize) -> u64 {
    let plan = RealFft2d::new(h, w).unwrap();
    let mut fnv = Fnv::new();
    fnv.usize(h);
    fnv.usize(w);
    let mut scratch = Vec::new();
    let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
    let mut real = vec![0.0f32; plan.real_len()];
    for (i, image) in [noise(h * w, (h * 1000 + w) as u64), binary(h, w)].iter().enumerate() {
        plan.forward(image, &mut spec, &mut scratch).unwrap();
        fnv.complex(&spec);
        plan.inverse(&mut spec, &mut real, &mut scratch).unwrap();
        fnv.f32s(&real);
        let mut arbitrary = complex_noise(plan.spectrum_len(), (7 * h + w + i) as u64);
        let mut adj = arbitrary.clone();
        plan.inverse(&mut arbitrary, &mut real, &mut scratch).unwrap();
        fnv.f32s(&real);
        plan.adjoint(&mut adj, &mut real, &mut scratch).unwrap();
        fnv.f32s(&real);
    }
    fnv.0
}

fn fft2d_hash(h: usize, w: usize) -> u64 {
    let plan = Fft2d::new(h, w).unwrap();
    let mut fnv = Fnv::new();
    let mut scratch = Vec::new();
    let input = complex_noise(h * w, (h + 3 * w) as u64);
    for dir in [Direction::Forward, Direction::Inverse] {
        let mut data = input.clone();
        plan.transform_with(&mut data, dir, &mut scratch).unwrap();
        fnv.complex(&data);
        // The thread-local-scratch entry point must agree bit for bit.
        let mut again = input.clone();
        plan.transform(&mut again, dir).unwrap();
        assert_eq!(
            data.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>(),
            again.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>(),
            "Fft2d {h}x{w} {dir:?}: transform and transform_with disagree"
        );
    }
    fnv.0
}

fn fft1d_hash(len: usize) -> u64 {
    let plan = Fft1d::new(len).unwrap();
    let mut fnv = Fnv::new();
    let input = complex_noise(len, len as u64 + 11);
    for dir in [Direction::Forward, Direction::Inverse] {
        let mut data = input.clone();
        plan.transform(&mut data, dir).unwrap();
        fnv.complex(&data);
    }
    fnv.0
}

/// Compares computed hashes to the recorded table, reporting every mismatch
/// at once (with the full computed table, to re-pin after an intended
/// numerical change).
fn check(label: &str, got: &[(String, u64)], expected: &[(&str, u64)]) {
    let table: String =
        got.iter().map(|(name, h)| format!("        (\"{name}\", 0x{h:016x}),\n")).collect();
    assert_eq!(got.len(), expected.len(), "{label}: case count changed; computed:\n{table}");
    let bad: Vec<&str> = got
        .iter()
        .zip(expected)
        .filter(|((gn, gh), (en, eh))| gn != en || gh != eh)
        .map(|((gn, _), _)| gn.as_str())
        .collect();
    assert!(bad.is_empty(), "{label}: output bits changed for {bad:?}; computed:\n{table}");
}

#[test]
fn real_fft2d_matches_golden_bits() {
    let shapes = [
        (1, 2),
        (2, 2),
        (4, 8),
        (8, 4),
        (2, 64),
        (64, 2),
        (64, 128),
        (128, 64),
        (128, 128),
        (256, 256),
        (512, 512),
    ];
    let got: Vec<(String, u64)> =
        shapes.iter().map(|&(h, w)| (format!("{h}x{w}"), real_fft_hash(h, w))).collect();
    check(
        "RealFft2d",
        &got,
        &[
            ("1x2", 0x2f0b9d2b23527c76),
            ("2x2", 0x3eb98b5a395d14c7),
            ("4x8", 0xb30ba0ecdb1d53e2),
            ("8x4", 0xcf10b9604ce0a98e),
            ("2x64", 0x3b39fab546796957),
            ("64x2", 0x319aaddb56439675),
            ("64x128", 0xf74828ffbd5a18aa),
            ("128x64", 0xff7132cb89b38b41),
            ("128x128", 0x41e8abbbd54a2d8e),
            ("256x256", 0xfad3e94a00424d25),
            ("512x512", 0xe525af979a9a6a01),
        ],
    );
}

#[test]
fn fft2d_matches_golden_bits() {
    let got: Vec<(String, u64)> = [(8, 16), (128, 128)]
        .iter()
        .map(|&(h, w)| (format!("{h}x{w}"), fft2d_hash(h, w)))
        .collect();
    check("Fft2d", &got, &[("8x16", 0xfcf60da8dc48b477), ("128x128", 0x14996c4d8565dcf0)]);
}

#[test]
fn fft1d_matches_golden_bits() {
    let got: Vec<(String, u64)> =
        (0..=10).map(|log| 1usize << log).map(|n| (format!("{n}"), fft1d_hash(n))).collect();
    check(
        "Fft1d",
        &got,
        &[
            ("1", 0x0c7b3f459efb1e49),
            ("2", 0x87cc7e566f2586d1),
            ("4", 0xacc3db883b31e689),
            ("8", 0xb5b3c9fb60adc07b),
            ("16", 0xf46dbf41959a1bdb),
            ("32", 0xe836982f19e81cfc),
            ("64", 0x72abe915a365bc44),
            ("128", 0x02c7c90a4fd0734b),
            ("256", 0x39419e5aefe8aed4),
            ("512", 0x6c2eb14a4de5aa8b),
            ("1024", 0x9dd0bf543a5cf9a0),
        ],
    );
}
