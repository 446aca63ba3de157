//! Trainer checkpointing with a bit-exact hand-rolled binary codec.
//!
//! The workspace's `serde` is an offline marker stand-in (no backend), so
//! checkpoints use the same style of explicit little-endian binary format
//! as `fastgl_graph::io`: magic bytes, a version word, then
//! length-prefixed sections. Floating-point values are stored as raw IEEE
//! bit patterns (`to_le_bytes`), which is what makes a resumed run
//! **bit-identical** to an uninterrupted one — no decimal round-trip.
//!
//! A checkpoint carries one [`TrainerState`]: the numeric trainer's model
//! weights, Adam moments, loss trajectories, and global-batch cursor
//! (mid-epoch, batch-granular; RNG cursors are implicit because every
//! per-batch stream is re-derived from the global batch index). The
//! flags byte after the version marks the trainer section with bit 0; any
//! other bit is rejected.

use fastgl_tensor::{AdamSlotState, AdamState};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes of the checkpoint format.
const MAGIC: &[u8; 8] = b"FGLCKPT1";
/// Format version.
const VERSION: u32 = 1;
/// Bit of the flags byte that marks a trainer section.
const TRAINER_FLAG: u8 = 1;
/// Sanity cap on decoded vector lengths (elements): corrupt length
/// prefixes must not trigger absurd allocations.
const MAX_LEN: u64 = 1 << 33;

/// Errors from checkpoint save/load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file is not a FastGL checkpoint, or is truncated/corrupt.
    BadFormat(String),
    /// The checkpoint is well-formed but does not fit the run it is being
    /// resumed into (wrong model shape, epoch count, seed, …).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadFormat(msg) => {
                write!(f, "bad checkpoint format: {msg}")
            }
            CheckpointError::Mismatch(msg) => {
                write!(f, "checkpoint does not match this run: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The checkpointable state of the numeric trainer
/// (see [`crate::trainer::train_resumable`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// The run's master seed (resume validates it matches the config).
    pub seed: u64,
    /// Global index of the next batch to execute (`epoch * batches_per_epoch
    /// + executed_in_epoch`); RNG cursors are implicit in this index.
    pub next_batch: u64,
    /// Flat model parameters ([`fastgl_gnn::GnnModel::state`]).
    pub model: Vec<f32>,
    /// Adam timestep and moment buffers.
    pub optimizer: AdamState,
    /// Loss of every executed iteration so far, in execution order.
    pub iteration_losses: Vec<f32>,
    /// Mean loss of every completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Held-out accuracy after every completed epoch.
    pub val_accuracy: Vec<f64>,
    /// Running loss sum of the in-flight epoch.
    pub epoch_loss_sum: f32,
    /// Batches contributing to `epoch_loss_sum`.
    pub epoch_batches: u64,
}

/// A saved training position: everything needed to resume a killed run
/// and reproduce the uninterrupted run bit-for-bit.
///
/// # Examples
///
/// In-memory round-trip through the binary codec:
///
/// ```
/// use fastgl_core::resilience::{Checkpoint, TrainerState};
/// use fastgl_tensor::AdamState;
///
/// let ckpt = Checkpoint {
///     trainer: Some(TrainerState {
///         seed: 7,
///         next_batch: 2,
///         model: vec![0.5, -1.25],
///         optimizer: AdamState { lr: 0.01, t: 2, slots: Vec::new() },
///         iteration_losses: vec![1.0, 0.75],
///         epoch_losses: Vec::new(),
///         val_accuracy: Vec::new(),
///         epoch_loss_sum: 1.75,
///         epoch_batches: 2,
///     }),
/// };
/// let mut buf = Vec::new();
/// ckpt.write_to(&mut buf).unwrap();
/// let back = Checkpoint::read_from(&buf[..]).unwrap();
/// assert_eq!(back, ckpt);
/// ```
///
/// Truncated files are typed errors, not panics:
///
/// ```
/// use fastgl_core::resilience::{Checkpoint, CheckpointError};
///
/// let err = Checkpoint::read_from(&b"FGLCKPT1"[..4]).unwrap_err();
/// assert!(matches!(err, CheckpointError::BadFormat(_)));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// Numeric-trainer state (`None` only in an empty checkpoint).
    pub trainer: Option<TrainerState>,
}

impl Checkpoint {
    /// Writes the checkpoint to `path` without ever exposing a partial
    /// file there. The bytes go to a sibling temporary file that no other
    /// save can pick (`<path>.<pid>.<n>.tmp`, `n` counting this process's
    /// saves), which is flushed and fsynced and then renamed over `path`.
    /// A crash or an error at any point therefore leaves the previous
    /// checkpoint at `path` intact and loadable, and concurrent saves to
    /// one path each publish a whole file; on error the temporary file is
    /// removed.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        self.save_via(&temp_path(path), path)
    }

    /// [`save`](Self::save) through the temporary file `tmp`, which must
    /// not exist yet.
    fn save_via(&self, tmp: &Path, path: &Path) -> Result<(), CheckpointError> {
        let file = OpenOptions::new().write(true).create_new(true).open(tmp)?;
        let saved = self
            .write_synced(file)
            .and_then(|()| Ok(std::fs::rename(tmp, path)?));
        if saved.is_err() {
            let _ = std::fs::remove_file(tmp);
        }
        saved?;
        fastgl_telemetry::counter_add(fastgl_telemetry::names::CHECKPOINT_SAVES, 1);
        Ok(())
    }

    /// Writes the checkpoint to `file` and fsyncs it.
    fn write_synced(&self, file: File) -> Result<(), CheckpointError> {
        let mut w = BufWriter::new(file);
        self.write_to(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        Ok(())
    }

    /// Reads a checkpoint back from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure and
    /// [`CheckpointError::BadFormat`] on a truncated or corrupt file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let mut r = BufReader::new(File::open(path)?);
        let ckpt = Self::read_from(&mut r)?;
        fastgl_telemetry::counter_add(fastgl_telemetry::names::CHECKPOINT_LOADS, 1);
        Ok(ckpt)
    }

    /// Serialises into any writer (the codec behind [`save`](Self::save)).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on write failure.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CheckpointError> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        let flags = if self.trainer.is_some() {
            TRAINER_FLAG
        } else {
            0
        };
        w.write_all(&[flags])?;
        if let Some(t) = &self.trainer {
            write_trainer(w, t)?;
        }
        Ok(())
    }

    /// Deserialises from any reader (the codec behind [`load`](Self::load)).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::BadFormat`] on wrong magic, unsupported
    /// version, unknown section flags, truncation, or implausible section
    /// lengths.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 8];
        read_exact(&mut r, &mut magic, "magic bytes")?;
        if &magic != MAGIC {
            return Err(CheckpointError::BadFormat(format!(
                "not a FastGL checkpoint (magic {:?})",
                String::from_utf8_lossy(&magic)
            )));
        }
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(CheckpointError::BadFormat(format!(
                "unsupported checkpoint version {version} (this build reads {VERSION})"
            )));
        }
        let mut flags = [0u8; 1];
        read_exact(&mut r, &mut flags, "section flags")?;
        if flags[0] & !TRAINER_FLAG != 0 {
            return Err(CheckpointError::BadFormat(format!(
                "unknown section flags {:#04x} (this build reads only the trainer section)",
                flags[0]
            )));
        }
        let trainer = if flags[0] == TRAINER_FLAG {
            Some(read_trainer(&mut r)?)
        } else {
            None
        };
        Ok(Self { trainer })
    }
}

/// A fresh name for the temporary file [`Checkpoint::save`] writes before
/// renaming it over `path`: `<path>.<pid>.<n>.tmp`, in the same directory
/// (a rename across file systems would not be atomic). `n` counts this
/// process's saves, so no two saves, in this process or another, share a
/// temporary file.
fn temp_path(path: &Path) -> PathBuf {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let n = SAVES.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{n}.tmp", std::process::id()));
    PathBuf::from(tmp)
}

fn write_trainer<W: Write>(w: &mut W, t: &TrainerState) -> Result<(), CheckpointError> {
    w.write_all(&t.seed.to_le_bytes())?;
    w.write_all(&t.next_batch.to_le_bytes())?;
    w.write_all(&t.epoch_loss_sum.to_le_bytes())?;
    w.write_all(&t.epoch_batches.to_le_bytes())?;
    write_f32s(w, &t.model)?;
    w.write_all(&t.optimizer.lr.to_le_bytes())?;
    w.write_all(&t.optimizer.t.to_le_bytes())?;
    w.write_all(&(t.optimizer.slots.len() as u64).to_le_bytes())?;
    for slot in &t.optimizer.slots {
        w.write_all(&slot.slot.to_le_bytes())?;
        write_f32s(w, &slot.m)?;
        write_f32s(w, &slot.v)?;
    }
    write_f32s(w, &t.iteration_losses)?;
    write_f32s(w, &t.epoch_losses)?;
    write_f64s(w, &t.val_accuracy)?;
    Ok(())
}

fn read_trainer<R: Read>(r: &mut R) -> Result<TrainerState, CheckpointError> {
    let seed = read_u64(r)?;
    let next_batch = read_u64(r)?;
    let epoch_loss_sum = read_f32(r)?;
    let epoch_batches = read_u64(r)?;
    let model = read_f32s(r, "model parameters")?;
    let lr = read_f32(r)?;
    let t = read_u64(r)?;
    let num_slots = read_len(r, "optimizer slots")?;
    let mut slots = Vec::with_capacity(num_slots.min(1024) as usize);
    for _ in 0..num_slots {
        let slot = read_u64(r)?;
        let m = read_f32s(r, "Adam first moments")?;
        let v = read_f32s(r, "Adam second moments")?;
        slots.push(AdamSlotState { slot, m, v });
    }
    let iteration_losses = read_f32s(r, "iteration losses")?;
    let epoch_losses = read_f32s(r, "epoch losses")?;
    let val_accuracy = read_f64s(r, "validation accuracy")?;
    Ok(TrainerState {
        seed,
        next_batch,
        model,
        optimizer: AdamState { lr, t, slots },
        iteration_losses,
        epoch_losses,
        val_accuracy,
        epoch_loss_sum,
        epoch_batches,
    })
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), CheckpointError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CheckpointError::BadFormat(format!("truncated checkpoint file (while reading {what})"))
        } else {
            CheckpointError::Io(e)
        }
    })
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b, "a u32 field")?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b, "a u64 field")?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32<R: Read>(r: &mut R) -> Result<f32, CheckpointError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b, "an f32 field")?;
    Ok(f32::from_le_bytes(b))
}

fn read_f64<R: Read>(r: &mut R) -> Result<f64, CheckpointError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b, "an f64 field")?;
    Ok(f64::from_le_bytes(b))
}

fn read_len<R: Read>(r: &mut R, what: &str) -> Result<u64, CheckpointError> {
    let len = read_u64(r)?;
    if len > MAX_LEN {
        return Err(CheckpointError::BadFormat(format!(
            "implausible length {len} for {what}: the file is corrupt"
        )));
    }
    Ok(len)
}

fn write_f32s<W: Write>(w: &mut W, values: &[f32]) -> Result<(), CheckpointError> {
    w.write_all(&(values.len() as u64).to_le_bytes())?;
    for v in values {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_f32s<R: Read>(r: &mut R, what: &str) -> Result<Vec<f32>, CheckpointError> {
    let len = read_len(r, what)?;
    let mut out = Vec::with_capacity(len.min(1 << 24) as usize);
    for _ in 0..len {
        out.push(read_f32(r)?);
    }
    Ok(out)
}

fn write_f64s<W: Write>(w: &mut W, values: &[f64]) -> Result<(), CheckpointError> {
    w.write_all(&(values.len() as u64).to_le_bytes())?;
    for v in values {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_f64s<R: Read>(r: &mut R, what: &str) -> Result<Vec<f64>, CheckpointError> {
    let len = read_len(r, what)?;
    let mut out = Vec::with_capacity(len.min(1 << 24) as usize);
    for _ in 0..len {
        out.push(read_f64(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            trainer: Some(TrainerState {
                seed: 42,
                next_batch: 17,
                model: vec![1.5, -2.25, f32::MIN_POSITIVE, 0.1],
                optimizer: AdamState {
                    lr: 0.003,
                    t: 17,
                    slots: vec![AdamSlotState {
                        slot: 2,
                        m: vec![0.25, -0.5],
                        v: vec![0.125, 0.0625],
                    }],
                },
                iteration_losses: vec![2.0, 1.5, 1.25],
                epoch_losses: vec![1.583_333_3],
                val_accuracy: vec![0.75],
                epoch_loss_sum: 1.25,
                epoch_batches: 1,
            }),
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let ckpt = sample_checkpoint();
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&buf[..]).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("fastgl_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let ckpt = sample_checkpoint();
        ckpt.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        std::fs::remove_file(&path).ok();
    }

    /// The temporary files a save to `path` could have left behind.
    fn temp_files(path: &Path) -> Vec<PathBuf> {
        let prefix = format!("{}.", path.file_name().unwrap().to_string_lossy());
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name.starts_with(&prefix) && name.ends_with(".tmp")
            })
            .collect()
    }

    #[test]
    fn save_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("fastgl_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("no_temp.ckpt");
        sample_checkpoint().save(&path).unwrap();
        assert!(path.is_file());
        assert_eq!(temp_files(&path), Vec::<PathBuf>::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_keeps_the_previous_checkpoint() {
        let dir = std::env::temp_dir().join("fastgl_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("failed_save.ckpt");
        let good = sample_checkpoint();
        good.save(&path).unwrap();
        // A directory where the temporary file goes makes the next save
        // fail before it reaches the rename.
        let tmp = temp_path(&path);
        std::fs::create_dir_all(&tmp).unwrap();
        let err = Checkpoint::default().save_via(&tmp, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert_eq!(Checkpoint::load(&path).unwrap(), good);
        std::fs::remove_dir(&tmp).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_rename_removes_the_temp_file() {
        let dir = std::env::temp_dir().join("fastgl_ckpt_test");
        // A non-empty directory at the target refuses the rename, after
        // the temporary file was written.
        let path = dir.join("failed_rename.ckpt");
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        let err = sample_checkpoint().save(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert_eq!(temp_files(&path), Vec::<PathBuf>::new());
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn concurrent_saves_to_one_path_publish_whole_checkpoints() {
        const WRITERS: u64 = 4;
        const SAVES: u64 = 25;
        let dir = std::env::temp_dir().join("fastgl_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("concurrent-{}.ckpt", std::process::id()));
        // Checkpoint `i` differs from every other in its cursor.
        let numbered = |i: u64| {
            let mut ckpt = sample_checkpoint();
            ckpt.trainer.as_mut().unwrap().next_batch = i;
            ckpt
        };
        numbered(WRITERS * SAVES).save(&path).unwrap();
        let writing = AtomicU64::new(WRITERS);
        let start = std::sync::Barrier::new(WRITERS as usize + 1);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (path, writing, start) = (&path, &writing, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..SAVES {
                        let n = w * SAVES + i;
                        numbered(n)
                            .save(path)
                            .unwrap_or_else(|e| panic!("save {n}: {e}"));
                    }
                    writing.fetch_sub(1, Ordering::SeqCst);
                });
            }
            start.wait();
            loop {
                let done = writing.load(Ordering::SeqCst) == 0;
                let ckpt = Checkpoint::load(&path).unwrap_or_else(|e| panic!("load: {e}"));
                let n = ckpt.trainer.as_ref().unwrap().next_batch;
                assert!(n <= WRITERS * SAVES, "cursor {n} was never saved");
                assert_eq!(ckpt, numbered(n), "a torn checkpoint");
                if done {
                    break;
                }
            }
        });
        assert_eq!(temp_files(&path), Vec::<PathBuf>::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_bad_format() {
        let err = Checkpoint::read_from(&b"NOTFASTG\x01\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::BadFormat(_)));
        assert!(err.to_string().contains("not a FastGL checkpoint"));
    }

    #[test]
    fn truncation_at_every_prefix_is_graceful() {
        let ckpt = sample_checkpoint();
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        // Every strict prefix must fail with a typed error, never panic.
        for cut in 0..buf.len() {
            let err = Checkpoint::read_from(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::BadFormat(_)),
                "cut at {cut}: {err}"
            );
            assert!(err.to_string().contains("truncated"), "cut at {cut}");
        }
    }

    #[test]
    fn implausible_lengths_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(1); // trainer section present
        buf.extend_from_slice(&[0u8; 28]); // seed, next_batch, loss sum, batches
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd model length
        let err = Checkpoint::read_from(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("implausible length"), "{err}");
    }

    #[test]
    fn unknown_section_flags_rejected() {
        // 0x02 marked a simulation section in files written by older
        // builds. Each must fail before any section is read.
        for flags in [0x02u8, 0x03, 0x04, 0x80, 0x81] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.push(flags);
            let err = Checkpoint::read_from(&buf[..]).unwrap_err();
            assert!(matches!(err, CheckpointError::BadFormat(_)), "{flags:#x}");
            assert!(err.to_string().contains("unknown section flags"), "{err}");
        }
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.push(0);
        let err = Checkpoint::read_from(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Checkpoint::load("/nonexistent/fastgl.ckpt").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
