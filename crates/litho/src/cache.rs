//! On-disk caching of derived SOCS kernel stacks.
//!
//! Deriving a kernel stack means assembling and eigendecomposing the TCC —
//! the dominant cost of [`crate::LithoModel`] construction (seconds at the
//! default pupil grid). The stack depends only on the [`OpticalConfig`], so
//! it is cached to disk keyed by a hash of the configuration; experiment
//! binaries that build many models of the same optics pay the eigensolve
//! once per process *and* once per machine.
//!
//! An entry is a CRC-checked [`Checkpoint`] with these sections:
//!
//! | section           | kind    | contents                              |
//! |-------------------|---------|---------------------------------------|
//! | `meta/kind`       | bytes   | `gan-opc/socs-kernels`                |
//! | `socs/config_key` | u64     | [`config_key`] of the generating optics |
//! | `socs/pixel_nm`   | f64     | simulation pixel pitch                |
//! | `socs/weights`    | tensors | one `[n]` tensor of kernel weights    |
//! | `socs/taps`       | tensors | one `[n, k, k, 2]` tensor of (re, im) taps |
//!
//! Any read error, checksum failure, missing section, key mismatch or
//! inconsistent shape is a miss: the stack is rederived and the entry
//! overwritten.

use crate::optics::OpticalConfig;
use crate::socs::{SocsKernel, SocsKernels};
use ganopc_fft::Complex;
use ganopc_nn::checkpoint::Checkpoint;
use ganopc_nn::Tensor;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Version of the TCC → Jacobi → SOCS derivation, folded into
/// [`config_key`]. Bump it whenever a change alters any bit of
/// [`SocsKernels::from_config`]'s output: the new key names a new cache
/// file, so entries derived by older code are never read again.
pub const SOCS_DERIVATION_VERSION: u64 = 1;

/// The `meta/kind` tag of a kernel-cache entry.
const KIND: &[u8] = b"gan-opc/socs-kernels";

/// A stable, quantized fingerprint of an optical configuration and of
/// the derivation that turns it into kernels
/// ([`SOCS_DERIVATION_VERSION`]).
///
/// Floats are quantized to 1e-9 so that configurations equal up to noise
/// share a cache entry, and the hash is FNV-1a over the quantized fields
/// (stable across platforms and runs, unlike `DefaultHasher`).
pub fn config_key(cfg: &OpticalConfig) -> u64 {
    versioned_key(cfg, SOCS_DERIVATION_VERSION)
}

fn versioned_key(cfg: &OpticalConfig, version: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    let q = |f: f64| (f * 1e9).round() as i64 as u64;
    mix(version);
    mix(q(cfg.wavelength_nm));
    mix(q(cfg.numerical_aperture));
    mix(q(cfg.sigma_inner));
    mix(q(cfg.sigma_outer));
    mix(q(cfg.pixel_nm));
    mix(cfg.kernel_size as u64);
    mix(cfg.num_kernels as u64);
    mix(cfg.pupil_grid as u64);
    mix(q(cfg.defocus_nm));
    h
}

/// Runtime cache-directory override installed by [`set_cache_dir`]
/// (`None` = unset, fall through to the environment/default directory).
static OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Directory from `GANOPC_CACHE_DIR` / `<system temp>`, resolved once:
/// `std::env::var_os` allocates an `OsString` and takes the process env
/// lock, and [`default_cache_dir`] sits on every model-construction
/// cache lookup (mirrors `pool::max_threads`).
static ENV_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Default cache directory: `$GANOPC_CACHE_DIR` or
/// `<system temp>/ganopc-kernel-cache`.
///
/// A [`set_cache_dir`] override wins; otherwise the environment variable
/// is read **once** per process and the resolved path is cached.
pub fn default_cache_dir() -> PathBuf {
    if let Ok(guard) = OVERRIDE.lock() {
        if let Some(dir) = guard.as_ref() {
            return dir.clone();
        }
    }
    ENV_DIR
        .get_or_init(|| {
            std::env::var_os("GANOPC_CACHE_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| std::env::temp_dir().join("ganopc-kernel-cache"))
        })
        .clone()
}

/// Overrides [`default_cache_dir`] for the whole process (`None` restores
/// the environment/default directory). This is how tests redirect the
/// cache at runtime, since the environment variable is only consulted
/// once (mirrors `pool::set_max_threads`).
pub fn set_cache_dir(dir: Option<PathBuf>) {
    if let Ok(mut guard) = OVERRIDE.lock() {
        *guard = dir;
    }
}

fn cache_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("socs-{key:016x}.bin"))
}

/// Packs the stack derived for `cfg` into a cache entry.
fn to_checkpoint(cfg: &OpticalConfig, stack: &SocsKernels) -> Checkpoint {
    let (n, k) = (stack.len(), stack.kernel_size());
    let weights = stack.kernels().iter().map(|s| s.weight).collect();
    let taps = stack.kernels().iter().flat_map(|s| &s.taps).flat_map(|c| [c.re, c.im]).collect();
    let mut ck = Checkpoint::new();
    ck.put_bytes("meta/kind", KIND.to_vec());
    ck.put_u64("socs/config_key", config_key(cfg));
    ck.put_f64("socs/pixel_nm", stack.pixel_nm());
    ck.put_tensors("socs/weights", &[Tensor::from_vec(&[n], weights)]);
    ck.put_tensors("socs/taps", &[Tensor::from_vec(&[n, k, k, 2], taps)]);
    ck
}

/// Unpacks a cache entry for `cfg`; `None` (a miss) when a section is
/// missing or mistyped, the key or kernel size disagrees with `cfg`, or
/// the shapes are inconsistent.
fn from_checkpoint(mut ck: Checkpoint, cfg: &OpticalConfig) -> Option<SocsKernels> {
    if ck.get_bytes("meta/kind").ok()? != KIND
        || ck.get_u64("socs/config_key").ok()? != config_key(cfg)
    {
        return None;
    }
    let pixel_nm = ck.get_f64("socs/pixel_nm").ok()?;
    let [weights] = <[Tensor; 1]>::try_from(ck.take_tensors("socs/weights").ok()?).ok()?;
    let [taps] = <[Tensor; 1]>::try_from(ck.take_tensors("socs/taps").ok()?).ok()?;
    let &[n] = weights.shape() else { return None };
    let &[tn, k, k2, 2] = taps.shape() else { return None };
    if !(1..=1024).contains(&n) || tn != n || k != k2 || k != cfg.kernel_size || k % 2 == 0 || k < 3
    {
        return None;
    }
    let taps = taps.into_vec();
    let kernels = weights
        .as_slice()
        .iter()
        .zip(taps.chunks_exact(2 * k * k))
        .map(|(&weight, t)| SocsKernel {
            weight,
            taps: t.chunks_exact(2).map(|c| Complex::new(c[0], c[1])).collect(),
        })
        .collect();
    Some(SocsKernels::from_parts(k, pixel_nm, kernels))
}

/// Loads the kernel stack for `cfg` from `dir`, deriving and storing it on
/// a miss. Unreadable, corrupt or mismatched cache entries are silently
/// rederived (and overwritten); cache I/O failures fall back to derivation.
pub fn load_or_derive(cfg: &OpticalConfig, dir: &Path) -> SocsKernels {
    let path = cache_path(dir, config_key(cfg));
    if let Some(stack) = Checkpoint::load(&path).ok().and_then(|ck| from_checkpoint(ck, cfg)) {
        return stack;
    }
    let stack = SocsKernels::from_config(cfg);
    if std::fs::create_dir_all(dir).is_ok() {
        // Atomic write: a crash mid-store must not leave a truncated blob
        // that every later process re-reads, rejects, and rewrites. Not
        // `Checkpoint::save`, which would count the entry as a checkpoint.
        let _ = ganopc_geometry::io::write_atomic(&path, &to_checkpoint(cfg, &stack).to_bytes());
    }
    stack
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> OpticalConfig {
        let mut c = OpticalConfig::default_32nm(32.0);
        c.pupil_grid = 11;
        c.num_kernels = 6;
        c
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ganopc-cache-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every bit of a stack, for exact comparisons.
    fn bits(s: &SocsKernels) -> Vec<u64> {
        let mut v = vec![s.kernel_size() as u64, s.pixel_nm().to_bits()];
        for k in s.kernels() {
            v.push(k.weight.to_bits().into());
            v.extend(k.taps.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).map(u64::from));
        }
        v
    }

    fn decode(bytes: &[u8], cfg: &OpticalConfig) -> Option<SocsKernels> {
        Checkpoint::from_bytes(bytes).ok().and_then(|ck| from_checkpoint(ck, cfg))
    }

    #[test]
    fn cache_dir_override_wins_then_restores() {
        let dir = temp_dir("override");
        set_cache_dir(Some(dir.clone()));
        assert_eq!(default_cache_dir(), dir);
        set_cache_dir(None);
        // Back on the cached env/default resolution, which is stable for
        // the life of the process.
        let first = default_cache_dir();
        assert_ne!(first, dir);
        assert_eq!(first, default_cache_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_distinguish_configs() {
        let a = fast_cfg();
        let mut b = fast_cfg();
        b.defocus_nm = 40.0;
        let mut c = fast_cfg();
        c.num_kernels = 8;
        assert_ne!(config_key(&a), config_key(&b));
        assert_ne!(config_key(&a), config_key(&c));
        assert_eq!(config_key(&a), config_key(&fast_cfg()));
        assert_ne!(config_key(&a), versioned_key(&a, SOCS_DERIVATION_VERSION + 1));
    }

    #[test]
    fn roundtrip_through_cache_file() {
        let dir = temp_dir("roundtrip");
        let cfg = fast_cfg();
        let derived = load_or_derive(&cfg, &dir);
        assert_eq!(bits(&derived), bits(&SocsKernels::from_config(&cfg)));
        // Second call must hit the file and reproduce the stack exactly.
        assert!(cache_path(&dir, config_key(&cfg)).exists());
        let cached = load_or_derive(&cfg, &dir);
        assert_eq!(bits(&derived), bits(&cached));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_rederived() {
        let dir = temp_dir("corrupt");
        let cfg = fast_cfg();
        let derived = SocsKernels::from_config(&cfg);
        let (n, k) = (derived.len(), derived.kernel_size());
        let good = to_checkpoint(&cfg, &derived);
        let entry = good.to_bytes();
        let mut flipped = entry.clone();
        flipped[entry.len() / 2] ^= 0x04;
        let mut stale = good.clone();
        stale.put_u64("socs/config_key", versioned_key(&cfg, SOCS_DERIVATION_VERSION + 1));
        let mut oversized = good.clone();
        oversized.put_tensors("socs/taps", &[Tensor::zeros(&[n, k + 2, k + 2, 2])]);
        let path = cache_path(&dir, config_key(&cfg));
        let planted = [
            ("garbage", b"garbage".to_vec()),
            ("bit flip", flipped),
            ("stale derivation version", stale.to_bytes()),
            ("oversized taps", oversized.to_bytes()),
        ];
        for (what, bytes) in planted {
            std::fs::write(&path, bytes).unwrap();
            let recovered = load_or_derive(&cfg, &dir);
            assert_eq!(bits(&recovered), bits(&derived), "{what}: stack differs");
            assert_eq!(std::fs::read(&path).unwrap(), entry, "{what}: entry not repaired");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_roundtrip_is_exact() {
        let cfg = fast_cfg();
        let stack = SocsKernels::from_config(&cfg);
        let decoded = decode(&to_checkpoint(&cfg, &stack).to_bytes(), &cfg).expect("decodable");
        assert_eq!(bits(&decoded), bits(&stack));
        // An entry is only valid for the configuration that wrote it.
        let mut other = fast_cfg();
        other.defocus_nm = 40.0;
        assert!(decode(&to_checkpoint(&cfg, &stack).to_bytes(), &other).is_none());
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        // A small kernel support keeps the entry short enough to flip a
        // bit at every byte position.
        let mut cfg = fast_cfg();
        cfg.kernel_size = 5;
        let bytes = to_checkpoint(&cfg, &SocsKernels::from_config(&cfg)).to_bytes();
        assert!(decode(&bytes, &cfg).is_some());
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(decode(&corrupt, &cfg).is_none(), "bit flip at byte {pos} accepted");
        }
    }

    #[test]
    fn truncated_blobs_rejected() {
        let cfg = fast_cfg();
        let bytes = to_checkpoint(&cfg, &SocsKernels::from_config(&cfg)).to_bytes();
        for cut in [4usize, 20, bytes.len() - 3] {
            assert!(decode(&bytes[..cut], &cfg).is_none(), "cut {cut} accepted");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode(&padded, &cfg).is_none());
    }
}
