//! # sya-ckpt — durable checkpoints for inference runs
//!
//! Long Gibbs runs over expensive-to-ground factor graphs must survive
//! a killed process (DESIGN.md §10). This crate owns everything about
//! checkpoint *durability*; what goes into a checkpoint is defined by
//! `sya_infer::ckpt` and handed over through the
//! [`CheckpointSink`](sya_infer::CheckpointSink) trait.
//!
//! ## File format
//!
//! A checkpoint file is a fixed 40-byte header followed by a JSON
//! payload (the serialized [`CheckpointState`]):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SYACKPT\0"
//! 8       4     format version (u32 LE)
//! 12      4     CRC-32/IEEE of the payload (u32 LE)
//! 16      8     factor-graph fingerprint (u64 LE)
//! 24      8     checkpoint epoch (u64 LE)
//! 32      8     payload length in bytes (u64 LE)
//! 40      …     JSON payload
//! ```
//!
//! The header is validated outside-in: magic, version, length, CRC,
//! fingerprint, then the payload decode. Each failure maps to a typed
//! [`CkptError`] so the recovery scan can report *why* a file was
//! skipped.
//!
//! ## Atomic writes
//!
//! `save` writes to a `.tmp` sibling, fsyncs it, then renames it over
//! the final name — a crash mid-save leaves either the previous file
//! or a `.tmp` orphan, never a half-written checkpoint under a valid
//! name. The directory is fsynced after the rename so the new name
//! itself is durable.
//!
//! ## Recovery
//!
//! [`CheckpointStore::recover`] scans the directory newest-epoch-first
//! and returns the first checkpoint that passes *all* checks (header,
//! CRC, fingerprint, caller validation); everything newer that failed
//! is reported with its reason. A directory with no valid checkpoint
//! yields a clean-restart decision, not an error.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use sya_infer::{CheckpointSink, CheckpointState};

/// File magic: identifies a Sya checkpoint regardless of extension.
pub const MAGIC: [u8; 8] = *b"SYACKPT\0";
/// Current format version. Bump on any incompatible payload change.
///
/// * 1 — chain states carried a live RNG stream position.
/// * 2 — every draw's stream is derived from `(seed, epoch, phase,
///   variable)`; chains carry no RNG state and a run is one
///   `CheckpointState::Run`. A version-1 file would replay a different
///   chain, so it is rejected with [`CkptError::VersionMismatch`].
pub const FORMAT_VERSION: u32 = 2;
/// Header size in bytes (see the module docs for the layout).
pub const HEADER_LEN: usize = 40;
/// File extension for checkpoint files.
pub const EXTENSION: &str = "syackpt";

/// CRC-32 (IEEE 802.3, reflected) — implemented here because the
/// offline build cannot take a crates.io dependency. Bitwise, which is
/// plenty for checkpoint payload sizes.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Errors from the checkpoint store.
#[derive(Debug)]
pub enum CkptError {
    Io(std::io::Error),
    /// The file is not a valid checkpoint: bad magic, short header,
    /// length mismatch, CRC failure, or undecodable payload.
    Corrupt { path: PathBuf, detail: String },
    /// Valid file written by an incompatible format version.
    VersionMismatch { path: PathBuf, found: u32, want: u32 },
    /// Valid file belonging to a different factor graph.
    FingerprintMismatch { path: PathBuf, found: u64, want: u64 },
    /// Serialization failure while saving.
    Encode(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::Corrupt { path, detail } => {
                write!(f, "checkpoint {} is corrupt: {detail}", path.display())
            }
            CkptError::VersionMismatch { path, found, want } => write!(
                f,
                "checkpoint {} has format version {found}, this build reads {want}",
                path.display()
            ),
            CkptError::FingerprintMismatch { path, found, want } => write!(
                f,
                "checkpoint {} belongs to factor graph {found:#018x}, expected {want:#018x}",
                path.display()
            ),
            CkptError::Encode(msg) => write!(f, "checkpoint encoding error: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// Outcome of a recovery scan.
#[derive(Debug)]
pub struct Recovery {
    /// The newest fully-valid checkpoint, if any.
    pub state: Option<(PathBuf, CheckpointState)>,
    /// Newer checkpoints that were skipped, with the reason each failed
    /// (scan order: newest first).
    pub skipped: Vec<(PathBuf, String)>,
}

/// A directory of checkpoints for one (factor graph, run) pair.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
    /// How many newest checkpoints to keep on disk; older ones are
    /// pruned after each save. At least 2, so one corrupted latest file
    /// still leaves a previous good one to fall back to.
    keep: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory bound to the
    /// given factor-graph fingerprint.
    pub fn create(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, fingerprint, keep: 3 })
    }

    /// Overrides how many newest checkpoints are retained (min 2).
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(2);
        self
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn file_name(epoch: u64) -> String {
        // Zero-padded so lexicographic order == epoch order.
        format!("ckpt-{epoch:010}.{EXTENSION}")
    }

    /// Checkpoint files in the directory, oldest first.
    pub fn list(&self) -> Result<Vec<PathBuf>, CkptError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("ckpt-") && name.ends_with(&format!(".{EXTENSION}")) {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Atomically persists a state: temp file + fsync + rename + dir
    /// fsync. Returns the final path.
    pub fn save_state(&self, state: &CheckpointState) -> Result<PathBuf, CkptError> {
        let payload = serde_json::to_vec(state).map_err(|e| CkptError::Encode(e.to_string()))?;
        let epoch = state.epoch();
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&crc32(&payload).to_le_bytes());
        header.extend_from_slice(&self.fingerprint.to_le_bytes());
        header.extend_from_slice(&epoch.to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        debug_assert_eq!(header.len(), HEADER_LEN);

        let final_path = self.dir.join(Self::file_name(epoch));
        let tmp_path = self.dir.join(format!("{}.tmp", Self::file_name(epoch)));
        {
            let mut tmp = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            tmp.write_all(&header)?;
            tmp.write_all(&payload)?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // Make the rename itself durable. Directory fsync is
        // best-effort: not every filesystem supports opening a
        // directory for sync, and the rename already happened.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.prune()?;
        Ok(final_path)
    }

    /// Removes all but the newest `keep` checkpoints plus any stale
    /// `.tmp` orphans from interrupted saves.
    fn prune(&self) -> Result<(), CkptError> {
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(&path);
            }
        }
        let files = self.list()?;
        if files.len() > self.keep {
            for old in &files[..files.len() - self.keep] {
                let _ = fs::remove_file(old);
            }
        }
        Ok(())
    }

    /// Loads and fully validates one checkpoint file.
    pub fn load_file(&self, path: &Path) -> Result<CheckpointState, CkptError> {
        let corrupt = |detail: String| CkptError::Corrupt { path: path.to_path_buf(), detail };
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file is {} bytes, the header alone is {HEADER_LEN}",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(corrupt("bad magic; not a Sya checkpoint".to_owned()));
        }
        let word32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let word64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = word32(8);
        if version != FORMAT_VERSION {
            return Err(CkptError::VersionMismatch {
                path: path.to_path_buf(),
                found: version,
                want: FORMAT_VERSION,
            });
        }
        let crc_want = word32(12);
        let fingerprint = word64(16);
        let epoch = word64(24);
        let payload_len = word64(32) as usize;
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != payload_len {
            return Err(corrupt(format!(
                "payload is {} bytes, header promises {payload_len} (truncated?)",
                payload.len()
            )));
        }
        let crc_got = crc32(payload);
        if crc_got != crc_want {
            return Err(corrupt(format!(
                "payload CRC {crc_got:#010x} does not match header {crc_want:#010x}"
            )));
        }
        if fingerprint != self.fingerprint {
            return Err(CkptError::FingerprintMismatch {
                path: path.to_path_buf(),
                found: fingerprint,
                want: self.fingerprint,
            });
        }
        let state: CheckpointState = serde_json::from_slice(payload)
            .map_err(|e| corrupt(format!("payload decode failed: {e}")))?;
        if state.epoch() != epoch {
            return Err(corrupt(format!(
                "payload epoch {} disagrees with header epoch {epoch}",
                state.epoch()
            )));
        }
        Ok(state)
    }

    /// The path a checkpoint for `epoch` lives at (whether or not one
    /// exists yet).
    pub fn path_for(&self, epoch: u64) -> PathBuf {
        self.dir.join(Self::file_name(epoch))
    }

    /// Loads the checkpoint saved at exactly `epoch`.
    pub fn load_epoch(&self, epoch: u64) -> Result<CheckpointState, CkptError> {
        self.load_file(&self.path_for(epoch))
    }

    /// Epochs of every checkpoint that passes full validation (header,
    /// CRC, fingerprint, payload decode) plus the caller's structural
    /// check, ascending. Unreadable or invalid files are skipped — this
    /// feeds the cluster rendezvous, where an unusable file is the same
    /// as no file. Only a directory-scan failure is an error.
    pub fn valid_epochs(
        &self,
        validate: impl Fn(&CheckpointState) -> Result<(), String>,
    ) -> Result<Vec<u64>, CkptError> {
        let mut out = Vec::new();
        for path in self.list()? {
            if let Ok(state) = self.load_file(&path) {
                if validate(&state).is_ok() {
                    out.push(state.epoch());
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Scans newest-first for the latest checkpoint that passes header,
    /// CRC, fingerprint, *and* the caller's structural validation
    /// (graph shape, sampler kind, instance count). Invalid files are
    /// skipped — with the reason recorded — rather than aborting: an
    /// older good checkpoint beats no checkpoint.
    pub fn recover(
        &self,
        validate: impl Fn(&CheckpointState) -> Result<(), String>,
    ) -> Result<Recovery, CkptError> {
        let mut files = self.list()?;
        files.reverse(); // newest epoch first
        let mut skipped = Vec::new();
        for path in files {
            match self.load_file(&path) {
                Ok(state) => match validate(&state) {
                    Ok(()) => {
                        return Ok(Recovery { state: Some((path, state)), skipped });
                    }
                    Err(reason) => skipped.push((path, reason)),
                },
                Err(CkptError::Io(e)) => return Err(CkptError::Io(e)),
                Err(e) => skipped.push((path, e.to_string())),
            }
        }
        Ok(Recovery { state: None, skipped })
    }
}

/// The samplers hand states over through this boundary; errors become
/// strings because the samplers degrade on failure rather than aborting.
impl CheckpointSink for CheckpointStore {
    fn save(&self, state: &CheckpointState) -> Result<(), String> {
        self.save_state(state).map(|_| ()).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sya_infer::ChainState;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sya_ckpt_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn chain(epoch: u64) -> ChainState {
        ChainState {
            epoch,
            assignment: vec![1, 0, 1],
            counts: vec![vec![1, 2], vec![3, 0], vec![0, 4]],
            recorded: true,
        }
    }

    fn state(epoch: u64) -> CheckpointState {
        CheckpointState::Run { sampler: "sequential".to_owned(), chains: vec![chain(epoch)] }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_and_recover_round_trip() {
        let dir = tmp_dir("round_trip");
        let store = CheckpointStore::create(&dir, 0xFEED).unwrap();
        let path = store.save_state(&state(25)).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().contains("0000000025"));
        let rec = store.recover(|_| Ok(())).unwrap();
        let (got_path, got) = rec.state.unwrap();
        assert_eq!(got_path, path);
        assert_eq!(got, state(25));
        assert!(rec.skipped.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_prefers_the_newest_valid() {
        let dir = tmp_dir("newest");
        let store = CheckpointStore::create(&dir, 1).unwrap();
        store.save_state(&state(10)).unwrap();
        store.save_state(&state(20)).unwrap();
        let rec = store.recover(|_| Ok(())).unwrap();
        assert_eq!(rec.state.unwrap().1.epoch(), 20);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_latest_falls_back_to_previous() {
        let dir = tmp_dir("truncate");
        let store = CheckpointStore::create(&dir, 1).unwrap();
        store.save_state(&state(10)).unwrap();
        let latest = store.save_state(&state(20)).unwrap();
        // Truncate the newest file mid-payload.
        let bytes = fs::read(&latest).unwrap();
        fs::write(&latest, &bytes[..bytes.len() - 10]).unwrap();
        let rec = store.recover(|_| Ok(())).unwrap();
        assert_eq!(rec.state.unwrap().1.epoch(), 10, "older good checkpoint wins");
        assert_eq!(rec.skipped.len(), 1);
        assert!(rec.skipped[0].1.contains("truncated"), "{}", rec.skipped[0].1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let dir = tmp_dir("bitflip");
        let store = CheckpointStore::create(&dir, 1).unwrap();
        store.save_state(&state(10)).unwrap();
        let latest = store.save_state(&state(20)).unwrap();
        let mut bytes = fs::read(&latest).unwrap();
        // Flip one bit in the middle of the payload.
        let at = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[at] ^= 0x10;
        fs::write(&latest, &bytes).unwrap();
        let rec = store.recover(|_| Ok(())).unwrap();
        assert_eq!(rec.state.unwrap().1.epoch(), 10);
        assert!(rec.skipped[0].1.contains("CRC"), "{}", rec.skipped[0].1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_and_fingerprint_mismatches_are_typed() {
        let dir = tmp_dir("mismatch");
        let store = CheckpointStore::create(&dir, 1).unwrap();
        let path = store.save_state(&state(10)).unwrap();
        // Rewrite the version field in place: a future format, and the
        // pre-derived-stream format 1 whose chains carried RNG state.
        for version in [99u8, 1] {
            let mut bytes = fs::read(&path).unwrap();
            bytes[8] = version;
            fs::write(&path, &bytes).unwrap();
            match store.load_file(&path) {
                Err(CkptError::VersionMismatch { found, want, .. }) => {
                    assert_eq!((found, want), (version as u32, FORMAT_VERSION));
                }
                other => panic!("expected VersionMismatch, got {other:?}"),
            }
        }
        // A store bound to another graph rejects the fingerprint.
        let path2 = store.save_state(&state(11)).unwrap();
        let other_store = CheckpointStore::create(&dir, 2).unwrap();
        match other_store.load_file(&path2) {
            Err(CkptError::FingerprintMismatch { found: 1, want: 2, .. }) => {}
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        // recover() skips both and reports why.
        let rec = other_store.recover(|_| Ok(())).unwrap();
        assert!(rec.state.is_none());
        assert_eq!(rec.skipped.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_and_empty_files_are_corrupt() {
        let dir = tmp_dir("garbage");
        let store = CheckpointStore::create(&dir, 1).unwrap();
        let g = dir.join(format!("ckpt-0000000005.{EXTENSION}"));
        fs::write(&g, b"definitely not a checkpoint").unwrap();
        assert!(matches!(store.load_file(&g), Err(CkptError::Corrupt { .. })));
        let e = dir.join(format!("ckpt-0000000006.{EXTENSION}"));
        fs::write(&e, b"").unwrap();
        assert!(matches!(store.load_file(&e), Err(CkptError::Corrupt { .. })));
        let rec = store.recover(|_| Ok(())).unwrap();
        assert!(rec.state.is_none());
        assert_eq!(rec.skipped.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn caller_validation_skips_mismatched_shapes() {
        let dir = tmp_dir("validate");
        let store = CheckpointStore::create(&dir, 1).unwrap();
        store.save_state(&state(10)).unwrap();
        store.save_state(&state(20)).unwrap();
        // The validator rejects epoch 20 (e.g. wrong instance count).
        let rec = store
            .recover(|s| {
                if s.epoch() == 20 {
                    Err("wrong shape".to_owned())
                } else {
                    Ok(())
                }
            })
            .unwrap();
        assert_eq!(rec.state.unwrap().1.epoch(), 10);
        assert_eq!(rec.skipped[0].1, "wrong shape");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_the_newest_and_clears_tmp_orphans() {
        let dir = tmp_dir("prune");
        let store = CheckpointStore::create(&dir, 1).unwrap().with_keep(2);
        fs::write(dir.join("ckpt-0000000001.syackpt.tmp"), b"orphan").unwrap();
        for e in [5, 10, 15, 20] {
            store.save_state(&state(e)).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 2);
        assert!(files[0].to_str().unwrap().contains("0000000015"));
        assert!(files[1].to_str().unwrap().contains("0000000020"));
        assert!(
            !dir.join("ckpt-0000000001.syackpt.tmp").exists(),
            "tmp orphan should be cleared"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn valid_epochs_and_load_epoch_serve_the_cluster_rendezvous() {
        let dir = tmp_dir("epochs");
        let store = CheckpointStore::create(&dir, 1).unwrap();
        for e in [10, 20, 30] {
            store.save_state(&state(e)).unwrap();
        }
        // Corrupt the newest file: it drops out of the valid set.
        let bytes = fs::read(store.path_for(30)).unwrap();
        fs::write(store.path_for(30), &bytes[..bytes.len() - 4]).unwrap();
        assert_eq!(store.valid_epochs(|_| Ok(())).unwrap(), vec![10, 20]);
        // The caller's structural validation filters too.
        let only_20 = store
            .valid_epochs(|s| if s.epoch() == 20 { Ok(()) } else { Err("no".into()) })
            .unwrap();
        assert_eq!(only_20, vec![20]);
        assert_eq!(store.load_epoch(20).unwrap(), state(20));
        assert!(store.load_epoch(99).is_err(), "absent epoch is an error");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_instance_states_round_trip() {
        let dir = tmp_dir("spatial");
        let store = CheckpointStore::create(&dir, 7).unwrap();
        let state = CheckpointState::Run {
            sampler: "spatial".to_owned(),
            chains: vec![chain(9), chain(9)],
        };
        assert_eq!(state.epoch(), 9);
        assert_eq!(state.kind(), "spatial");
        store.save_state(&state).unwrap();
        let rec = store.recover(|_| Ok(())).unwrap();
        assert_eq!(rec.state.unwrap().1, state);
        fs::remove_dir_all(&dir).ok();
    }
}
