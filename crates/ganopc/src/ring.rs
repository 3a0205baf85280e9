//! Bounded on-disk checkpoint ring: the supervisor's rollback store.
//!
//! A ring directory holds the last `K` training checkpoints as
//! `ring-<step:08>.ckpt`. Pushing beyond capacity deletes the oldest
//! entry, so disk usage is bounded no matter how long a run lives.
//!
//! Every file goes through the atomic writer, so a crash mid-push leaves
//! the previous ring intact; [`CheckpointRing::open`] additionally sweeps
//! stale atomic-write temporaries and re-indexes whatever survived, which
//! is what makes the ring a valid recovery source after a hard kill.
//! [`CheckpointRing::load_latest_good`] walks entries newest-first and
//! skips (and drops) any that fail to decode — a torn or
//! injected-corrupt file costs one generation of history, never the run.

use crate::GanOpcError;
use ganopc_nn::checkpoint::{Checkpoint, CheckpointError};
use std::path::{Path, PathBuf};

/// File-name prefix of rotated ring entries.
const RING_PREFIX: &str = "ring-";
/// File-name suffix of every checkpoint the ring manages.
const RING_SUFFIX: &str = ".ckpt";

/// A bounded ring of training checkpoints in one directory.
#[derive(Debug)]
pub struct CheckpointRing {
    dir: PathBuf,
    capacity: usize,
    /// `(step, path)` entries, ascending by step.
    entries: Vec<(usize, PathBuf)>,
}

impl CheckpointRing {
    /// Opens (creating if needed) a ring directory holding at most
    /// `capacity` rotated checkpoints, sweeping stale atomic-write
    /// temporaries and indexing any `ring-*.ckpt` survivors from a
    /// previous process.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or listed.
    pub fn open<P: AsRef<Path>>(dir: P, capacity: usize) -> Result<Self, GanOpcError> {
        let dir = dir.as_ref().to_path_buf();
        let file_err = |op: &'static str, source: std::io::Error| {
            GanOpcError::Checkpoint(CheckpointError::File { op, path: dir.clone(), source })
        };
        std::fs::create_dir_all(&dir).map_err(|e| file_err("create", e))?;
        ganopc_geometry::io::sweep_stale_tmp(&dir);
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| file_err("read", e))? {
            let entry = entry.map_err(|e| file_err("read", e))?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(step) = name
                .strip_prefix(RING_PREFIX)
                .and_then(|s| s.strip_suffix(RING_SUFFIX))
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            entries.push((step, path));
        }
        entries.sort_unstable_by_key(|&(step, _)| step);
        let mut ring = CheckpointRing { dir, capacity: capacity.max(1), entries };
        ring.prune();
        Ok(ring)
    }

    /// The ring directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Steps of the rotated entries currently held, ascending.
    pub fn steps(&self) -> Vec<usize> {
        self.entries.iter().map(|&(step, _)| step).collect()
    }

    /// Path a checkpoint for `step` is (or would be) stored at.
    pub fn entry_path(&self, step: usize) -> PathBuf {
        self.dir.join(format!("{RING_PREFIX}{step:08}{RING_SUFFIX}"))
    }

    /// Atomically writes `ck` as the ring entry for `step`, rotating out
    /// the oldest entry beyond capacity. Pushing an already-present step
    /// overwrites that entry in place.
    ///
    /// # Errors
    ///
    /// Propagates the write failure; the previous ring contents remain
    /// valid (atomic write) and the index is left unchanged.
    pub fn push(&mut self, step: usize, ck: &Checkpoint) -> Result<PathBuf, GanOpcError> {
        let path = self.entry_path(step);
        ck.save(&path)?;
        if let Some(slot) = self.entries.iter_mut().find(|(s, _)| *s == step) {
            slot.1 = path.clone();
        } else {
            self.entries.push((step, path.clone()));
            self.entries.sort_unstable_by_key(|&(s, _)| s);
        }
        self.prune();
        Ok(path)
    }

    /// Loads the newest ring entry that still decodes, dropping (and
    /// deleting) every newer entry that fails — a corrupt file costs one
    /// generation of history. Returns `None` when no entry is loadable.
    pub fn load_latest_good(&mut self) -> Option<(usize, Checkpoint)> {
        while let Some(&(step, ref path)) = self.entries.last() {
            match Checkpoint::load(path) {
                Ok(ck) => return Some((step, ck)),
                Err(_) => {
                    let _ = std::fs::remove_file(path);
                    self.entries.pop();
                }
            }
        }
        None
    }

    fn prune(&mut self) {
        while self.entries.len() > self.capacity {
            let (_, path) = self.entries.remove(0);
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ganopc-ring-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ck_with_step(step: u64) -> Checkpoint {
        let mut ck = Checkpoint::new();
        ck.put_u64("progress/step", step);
        ck
    }

    #[test]
    fn push_rotates_oldest_beyond_capacity() {
        let dir = ring_dir("rotate");
        let mut ring = CheckpointRing::open(&dir, 3).unwrap();
        for step in [10, 20, 30, 40] {
            ring.push(step, &ck_with_step(step as u64)).unwrap();
        }
        assert_eq!(ring.steps(), vec![20, 30, 40]);
        assert!(!ring.entry_path(10).exists(), "oldest entry not rotated out");
        let (step, ck) = ring.load_latest_good().unwrap();
        assert_eq!(step, 40);
        assert_eq!(ck.get_u64("progress/step").unwrap(), 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_reindexes_surviving_entries() {
        let dir = ring_dir("reopen");
        let mut ring = CheckpointRing::open(&dir, 4).unwrap();
        for step in [5, 6, 7] {
            ring.push(step, &ck_with_step(step as u64)).unwrap();
        }
        drop(ring);
        let ring = CheckpointRing::open(&dir, 4).unwrap();
        assert_eq!(ring.steps(), vec![5, 6, 7]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_entry_falls_back_one_generation() {
        let dir = ring_dir("corrupt");
        let mut ring = CheckpointRing::open(&dir, 3).unwrap();
        ring.push(1, &ck_with_step(1)).unwrap();
        ring.push(2, &ck_with_step(2)).unwrap();
        // Corrupt the newest entry on disk (through the atomic writer —
        // the lint keeps raw file writes out of this crate).
        ganopc_geometry::io::write_atomic(ring.entry_path(2), b"garbage").unwrap();
        let (step, ck) = ring.load_latest_good().unwrap();
        assert_eq!(step, 1);
        assert_eq!(ck.get_u64("progress/step").unwrap(), 1);
        assert!(!ring.entry_path(2).exists(), "corrupt entry not dropped");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
