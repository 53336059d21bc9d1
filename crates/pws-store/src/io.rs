//! # Injectable store I/O — the disk as a dependency
//!
//! Everything [`crate::UserStore`] does to the filesystem goes through
//! the [`StoreIo`] trait: read, write, rename, per-file and
//! per-directory fsync, directory listing, and unlink. Production uses
//! [`FsIo`] (real `std::fs`); tests and the `crash_gauntlet` bench use
//! [`FaultIo`] — a deterministic, seeded fault injector that can make
//! the "disk" return transient `EIO`s, run out of space, refuse a
//! rename, tear a write at byte *k*, or die mid-operation and stay
//! dead (a simulated machine crash).
//!
//! Determinism is the same contract as `pws-chaos`: a [`FaultIo`] is
//! driven by an explicit [`IoFaultSpec`] and per-operation counters,
//! never by wall-clock time or thread scheduling, so a failing
//! crash-point is a seed + op index you can replay forever.
//!
//! Every failure is a typed [`IoError`] whose [`IoErrorKind`] tells
//! the caller whether retrying can help ([`IoError::is_transient`]) —
//! that classification is what the serving tier's writeback
//! retry/backoff policy keys off.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Classification of an I/O failure — the retry policy's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorKind {
    /// The target does not exist (`ENOENT`); reads map it to "no
    /// record", never to an error.
    NotFound,
    /// Transient device trouble (`EIO`, interrupted, timed out):
    /// retrying the same operation may succeed.
    Transient,
    /// The filesystem is full (`ENOSPC`): retryable once space frees.
    NoSpace,
    /// The simulated machine died ([`IoFaultSpec::crash_at`]); nothing
    /// on this [`FaultIo`] will ever succeed again. Never retryable.
    Crashed,
    /// Everything else (permissions, bad path, …). Not retryable.
    Other,
}

/// A typed I/O failure: what kind, plus the human-readable cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoError {
    /// Retryability classification.
    pub kind: IoErrorKind,
    /// Underlying cause (the `std::io::Error` display, or the injected
    /// fault's description).
    pub message: String,
}

impl IoError {
    /// Build an error of `kind` with a descriptive message.
    pub fn new(kind: IoErrorKind, message: impl Into<String>) -> Self {
        IoError { kind, message: message.into() }
    }

    /// Whether retrying the failed operation can plausibly succeed
    /// (transient device errors and full disks; never crashes,
    /// missing files, or permission trouble).
    pub fn is_transient(&self) -> bool {
        matches!(self.kind, IoErrorKind::Transient | IoErrorKind::NoSpace)
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?})", self.message, self.kind)
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        const EIO: i32 = 5;
        const ENOSPC: i32 = 28;
        let kind = match e.kind() {
            std::io::ErrorKind::NotFound => IoErrorKind::NotFound,
            std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock => IoErrorKind::Transient,
            _ => match e.raw_os_error() {
                Some(EIO) => IoErrorKind::Transient,
                Some(ENOSPC) => IoErrorKind::NoSpace,
                _ => IoErrorKind::Other,
            },
        };
        IoError { kind, message: e.to_string() }
    }
}

/// The filesystem operations [`crate::UserStore`] needs, as an
/// injectable dependency. [`FsIo`] is the real thing; [`FaultIo`]
/// wraps any impl with deterministic failures.
pub trait StoreIo: Send + Sync + fmt::Debug {
    /// Read a whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>, IoError>;
    /// Create (or truncate) `path` and write `bytes` to it.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), IoError>;
    /// Atomically rename `from` over `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> Result<(), IoError>;
    /// `fsync` the file at `path` (contents reach stable storage).
    fn sync_file(&self, path: &Path) -> Result<(), IoError>;
    /// `fsync` the directory itself (directory entries — i.e. a
    /// completed rename — reach stable storage).
    fn sync_dir(&self, dir: &Path) -> Result<(), IoError>;
    /// File names (not paths) of `dir`'s entries, unordered.
    fn list(&self, dir: &Path) -> Result<Vec<String>, IoError>;
    /// Unlink a file.
    fn remove(&self, path: &Path) -> Result<(), IoError>;
    /// `mkdir -p`.
    fn create_dir_all(&self, dir: &Path) -> Result<(), IoError>;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsIo;

impl StoreIo for FsIo {
    fn read(&self, path: &Path) -> Result<Vec<u8>, IoError> {
        Ok(fs::read(path)?)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), IoError> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), IoError> {
        Ok(fs::rename(from, to)?)
    }

    fn sync_file(&self, path: &Path) -> Result<(), IoError> {
        Ok(fs::File::open(path)?.sync_all()?)
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), IoError> {
        // Opening a directory read-only and fsyncing it is how durable
        // renames are published on POSIX filesystems.
        Ok(fs::File::open(dir)?.sync_all()?)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, IoError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                out.push(name.to_string());
            }
        }
        Ok(out)
    }

    fn remove(&self, path: &Path) -> Result<(), IoError> {
        Ok(fs::remove_file(path)?)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), IoError> {
        Ok(fs::create_dir_all(dir)?)
    }
}

/// Which faults a [`FaultIo`] injects, and when.
///
/// Faults trigger on **op indices**: every `read` / `write` / `rename`
/// / `sync_file` / `sync_dir` / `remove` the wrapped store issues gets
/// the next index from a shared counter (`list` and `create_dir_all`
/// are uncounted metadata traffic). A [`crate::UserStore::put`] is
/// therefore exactly four counted ops — `write`, `sync_file`,
/// `rename`, `sync_dir` — which is what lets `crash_gauntlet` kill a
/// put at *every* step by sweeping [`Self::crash_at`] over `0..4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoFaultSpec {
    /// Seed folded into every deterministic roll (rate-based faults,
    /// torn-write prefix lengths).
    pub seed: u64,
    /// The first N counted ops fail with a transient `EIO` — "the disk
    /// was sick for a while, then recovered". `0` disables.
    pub eio_first: u64,
    /// 1-in-N rate of transient `EIO`s, rolled deterministically per
    /// `(seed, op kind, file name, per-file op count)` — independent of
    /// thread interleaving, like `pws-chaos` rolls. `0` disables.
    pub eio_every: u64,
    /// This counted op index fails with `ENOSPC`.
    pub enospc_at: Option<u64>,
    /// This counted op index fails with a transient error iff it is a
    /// rename (the atomic publish step specifically refused).
    pub rename_fail_at: Option<u64>,
    /// This counted op index, iff a write, persists only a prefix of
    /// the payload ([`Self::torn_keep`] bytes, or a seeded length) and
    /// then fails — a torn write the caller is told about.
    pub torn_at: Option<u64>,
    /// Prefix length for [`Self::torn_at`] and for a crash that lands
    /// on a write; `None` picks a seeded length in `0..=len`.
    pub torn_keep: Option<usize>,
    /// The machine dies at this counted op index: the op fails
    /// ([`IoErrorKind::Crashed`]) — a dying *write* first persists a
    /// torn prefix, a dying rename does not happen — and **every**
    /// subsequent op on this `FaultIo` fails the same way. Reopening
    /// the directory with a fresh (healthy) io is "the reboot".
    pub crash_at: Option<u64>,
}

/// Totals of the faults a [`FaultIo`] actually injected, for exact
/// reconciliation against the serving tier's retry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultIoCounts {
    /// Transient failures injected into read ops.
    pub transient_reads: u64,
    /// Transient failures injected into mutating ops (write, rename,
    /// sync, remove), including torn writes and `ENOSPC`.
    pub transient_writes: u64,
    /// Torn writes among the above (a truncated payload reached disk).
    pub torn: u64,
    /// Ops refused because the simulated machine is dead (the crash op
    /// itself and everything after it).
    pub crashed: u64,
}

impl FaultIoCounts {
    /// Every injected fault a retry could see (everything but the
    /// post-crash refusals, which no retry policy is expected to
    /// survive).
    pub fn transient_total(&self) -> u64 {
        self.transient_reads + self.transient_writes
    }
}

const KIND_READ: u64 = 1;
const KIND_WRITE: u64 = 2;
const KIND_RENAME: u64 = 3;
const KIND_SYNC_FILE: u64 = 4;
const KIND_SYNC_DIR: u64 = 5;
const KIND_REMOVE: u64 = 6;

/// FNV-1a over words + bytes, SplitMix64-finalized — the same
/// roll shape `pws-chaos` uses, so storeio faults are replay-stable.
fn roll_hash(words: &[u64], bytes: &[u8]) -> u64 {
    let mut h = pws_obs::format::Fnv1a64::new();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.write(bytes);
    // FNV alone mixes low bits poorly for modulo-style rolls.
    pws_obs::format::splitmix64(h.finish())
}

/// Deterministic fault-injecting [`StoreIo`] wrapper. See
/// [`IoFaultSpec`] for the fault families and their triggers.
#[derive(Debug)]
pub struct FaultIo {
    inner: FsIo,
    spec: IoFaultSpec,
    /// Counted ops issued so far (the fault triggers' clock).
    ops: AtomicU64,
    /// Set once [`IoFaultSpec::crash_at`] fires; never cleared.
    dead: AtomicBool,
    transient_reads: AtomicU64,
    transient_writes: AtomicU64,
    torn: AtomicU64,
    crashed: AtomicU64,
    /// Per-`(file name, op kind)` op counts for the rate roll.
    per_path: Mutex<HashMap<(String, u64), u64>>,
    /// File names that received at least one injected fault — the
    /// blast-radius set for byte-identity assertions.
    faulted: Mutex<BTreeSet<String>>,
}

impl FaultIo {
    /// A fault injector over the real filesystem.
    pub fn new(spec: IoFaultSpec) -> Self {
        FaultIo {
            inner: FsIo,
            spec,
            ops: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            transient_reads: AtomicU64::new(0),
            transient_writes: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            crashed: AtomicU64::new(0),
            per_path: Mutex::new(HashMap::new()),
            faulted: Mutex::new(BTreeSet::new()),
        }
    }

    /// The spec this injector was built from.
    pub fn spec(&self) -> IoFaultSpec {
        self.spec
    }

    /// Counted ops issued so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Injection totals so far.
    pub fn counts(&self) -> FaultIoCounts {
        FaultIoCounts {
            transient_reads: self.transient_reads.load(Ordering::SeqCst),
            transient_writes: self.transient_writes.load(Ordering::SeqCst),
            torn: self.torn.load(Ordering::SeqCst),
            crashed: self.crashed.load(Ordering::SeqCst),
        }
    }

    /// File names that received at least one injected (pre-crash)
    /// fault: the complement is the set a blast-radius test may assert
    /// byte-identical to a fault-free run.
    pub fn faulted_files(&self) -> BTreeSet<String> {
        self.faulted.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    fn file_name(path: &Path) -> String {
        path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string()
    }

    fn mark_faulted(&self, path: &Path) {
        self.faulted.lock().unwrap_or_else(|p| p.into_inner()).insert(Self::file_name(path));
    }

    fn count_transient(&self, kind: u64) {
        if kind == KIND_READ {
            self.transient_reads.fetch_add(1, Ordering::SeqCst);
        } else {
            self.transient_writes.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The torn prefix a dying or torn write leaves behind.
    fn torn_prefix(&self, idx: u64, len: usize) -> usize {
        match self.spec.torn_keep {
            Some(k) => k.min(len),
            None => (roll_hash(&[self.spec.seed, idx], b"torn") % (len as u64 + 1)) as usize,
        }
    }

    /// The shared fault gate: returns `Err` if this counted op fails,
    /// `Ok(idx)` if it may proceed. `payload` is `Some(bytes)` for
    /// writes, enabling torn-prefix persistence.
    fn gate(&self, kind: u64, path: &Path, payload: Option<&[u8]>) -> Result<u64, IoError> {
        let idx = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.dead.load(Ordering::SeqCst) {
            self.crashed.fetch_add(1, Ordering::SeqCst);
            return Err(IoError::new(IoErrorKind::Crashed, "machine is down (simulated)"));
        }
        if self.spec.crash_at == Some(idx) {
            self.dead.store(true, Ordering::SeqCst);
            self.crashed.fetch_add(1, Ordering::SeqCst);
            self.mark_faulted(path);
            if let Some(bytes) = payload {
                // A machine dying mid-write leaves whatever prefix the
                // device had accepted — persist it for real, so the
                // post-reboot store sees the torn artifact.
                let keep = self.torn_prefix(idx, bytes.len());
                let _ = self.inner.write(path, &bytes[..keep]);
                self.torn.fetch_add(1, Ordering::SeqCst);
            }
            return Err(IoError::new(
                IoErrorKind::Crashed,
                format!("simulated crash at op {idx}"),
            ));
        }
        if idx < self.spec.eio_first {
            self.count_transient(kind);
            self.mark_faulted(path);
            return Err(IoError::new(IoErrorKind::Transient, format!("injected EIO at op {idx}")));
        }
        if self.spec.enospc_at == Some(idx) {
            self.transient_writes.fetch_add(1, Ordering::SeqCst);
            self.mark_faulted(path);
            return Err(IoError::new(IoErrorKind::NoSpace, format!("injected ENOSPC at op {idx}")));
        }
        if self.spec.rename_fail_at == Some(idx) && kind == KIND_RENAME {
            self.count_transient(kind);
            self.mark_faulted(path);
            return Err(IoError::new(
                IoErrorKind::Transient,
                format!("injected rename failure at op {idx}"),
            ));
        }
        if self.spec.torn_at == Some(idx) {
            if let Some(bytes) = payload {
                let keep = self.torn_prefix(idx, bytes.len());
                let _ = self.inner.write(path, &bytes[..keep]);
                self.torn.fetch_add(1, Ordering::SeqCst);
                self.count_transient(kind);
                self.mark_faulted(path);
                return Err(IoError::new(
                    IoErrorKind::Transient,
                    format!("injected torn write ({keep} bytes) at op {idx}"),
                ));
            }
        }
        if self.spec.eio_every > 0 {
            let name = Self::file_name(path);
            let nth = {
                let mut per = self.per_path.lock().unwrap_or_else(|p| p.into_inner());
                let slot = per.entry((name.clone(), kind)).or_insert(0);
                let n = *slot;
                *slot += 1;
                n
            };
            let h = roll_hash(&[self.spec.seed, kind, nth], name.as_bytes());
            if h.is_multiple_of(self.spec.eio_every) {
                self.count_transient(kind);
                self.mark_faulted(path);
                return Err(IoError::new(
                    IoErrorKind::Transient,
                    format!("injected EIO ({name} {kind}#{nth})"),
                ));
            }
        }
        Ok(idx)
    }
}

impl StoreIo for FaultIo {
    fn read(&self, path: &Path) -> Result<Vec<u8>, IoError> {
        self.gate(KIND_READ, path, None)?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), IoError> {
        self.gate(KIND_WRITE, path, Some(bytes))?;
        self.inner.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), IoError> {
        self.gate(KIND_RENAME, from, None)?;
        self.inner.rename(from, to)
    }

    fn sync_file(&self, path: &Path) -> Result<(), IoError> {
        self.gate(KIND_SYNC_FILE, path, None)?;
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), IoError> {
        self.gate(KIND_SYNC_DIR, dir, None)?;
        self.inner.sync_dir(dir)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, IoError> {
        // Uncounted metadata traffic: scrub and open-time cleanup must
        // be able to *see* the damage a fault plan left behind.
        self.inner.list(dir)
    }

    fn remove(&self, path: &Path) -> Result<(), IoError> {
        self.gate(KIND_REMOVE, path, None)?;
        self.inner.remove(path)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), IoError> {
        self.inner.create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pws-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fs_io_round_trips_and_lists() {
        let d = tmp("fs");
        let io = FsIo;
        io.write(&d.join("a.bin"), b"hello").unwrap();
        io.sync_file(&d.join("a.bin")).unwrap();
        io.rename(&d.join("a.bin"), &d.join("b.bin")).unwrap();
        io.sync_dir(&d).unwrap();
        assert_eq!(io.read(&d.join("b.bin")).unwrap(), b"hello");
        assert_eq!(io.list(&d).unwrap(), vec!["b.bin".to_string()]);
        io.remove(&d.join("b.bin")).unwrap();
        assert_eq!(io.read(&d.join("b.bin")).unwrap_err().kind, IoErrorKind::NotFound);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn eio_first_fails_then_recovers() {
        let d = tmp("eio-first");
        let io = FaultIo::new(IoFaultSpec { eio_first: 2, ..IoFaultSpec::default() });
        let p = d.join("x.bin");
        let e = io.write(&p, b"v1").unwrap_err();
        assert_eq!(e.kind, IoErrorKind::Transient);
        assert!(e.is_transient());
        assert_eq!(io.write(&p, b"v1").unwrap_err().kind, IoErrorKind::Transient);
        io.write(&p, b"v1").unwrap();
        assert_eq!(io.counts().transient_writes, 2);
        assert!(io.faulted_files().contains("x.bin"));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_is_terminal_and_write_crash_leaves_torn_prefix() {
        let d = tmp("crash");
        let io = FaultIo::new(IoFaultSpec {
            crash_at: Some(0),
            torn_keep: Some(3),
            ..IoFaultSpec::default()
        });
        let p = d.join("x.bin");
        let e = io.write(&p, b"abcdef").unwrap_err();
        assert_eq!(e.kind, IoErrorKind::Crashed);
        assert!(!e.is_transient());
        // The torn prefix reached "disk".
        assert_eq!(fs::read(&p).unwrap(), b"abc");
        // Everything afterwards is dead, including reads.
        assert_eq!(io.read(&p).unwrap_err().kind, IoErrorKind::Crashed);
        assert_eq!(io.sync_dir(&d).unwrap_err().kind, IoErrorKind::Crashed);
        assert_eq!(io.counts().torn, 1);
        assert!(io.counts().crashed >= 3);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn rate_roll_is_deterministic_and_seed_sensitive() {
        let d = tmp("rate");
        let run = |seed: u64| -> Vec<bool> {
            let io = FaultIo::new(IoFaultSpec {
                seed,
                eio_every: 3,
                ..IoFaultSpec::default()
            });
            (0..32).map(|_| io.write(&d.join("y.bin"), b"v").is_err()).collect()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed → same fault stream");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        assert_ne!(a, run(8), "different seed → different stream");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn enospc_and_rename_faults_fire_at_their_op() {
        let d = tmp("enospc");
        let io = FaultIo::new(IoFaultSpec {
            enospc_at: Some(1),
            rename_fail_at: Some(2),
            ..IoFaultSpec::default()
        });
        let p = d.join("z.bin");
        io.write(&p, b"v").unwrap(); // op 0
        let e = io.write(&p, b"v").unwrap_err(); // op 1
        assert_eq!(e.kind, IoErrorKind::NoSpace);
        assert!(e.is_transient());
        let e = io.rename(&p, &d.join("w.bin")).unwrap_err(); // op 2
        assert_eq!(e.kind, IoErrorKind::Transient);
        io.rename(&p, &d.join("w.bin")).unwrap(); // op 3: recovered
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn trait_object_is_usable_behind_arc() {
        let io: Arc<dyn StoreIo> = Arc::new(FaultIo::new(IoFaultSpec::default()));
        let d = tmp("dyn");
        io.write(&d.join("t.bin"), b"ok").unwrap();
        assert_eq!(io.read(&d.join("t.bin")).unwrap(), b"ok");
        let _ = fs::remove_dir_all(&d);
    }
}
