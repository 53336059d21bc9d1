//! Directory-backed user-record store: one codec file per user.
//!
//! Writes are atomic **and durable**: the record is written to a temp
//! file in the same directory, the temp file is `fsync`ed, renamed over
//! the destination, and the directory itself is `fsync`ed — so a
//! concurrent reader sees either the previous complete record or the
//! new complete record (never a torn write), and a machine crash at any
//! point leaves one of the two on disk (never an empty or truncated
//! visible record). Distinct users never contend; concurrent writers of
//! the *same* user last-write-win at the rename.
//!
//! All filesystem traffic goes through an injectable [`StoreIo`]
//! (see [`crate::io`]); [`UserStore::open_with_io`] accepts a fault
//! injector, and the `crash_gauntlet` bench kills a put at every I/O
//! step to prove the old-or-new invariant.
//!
//! Recovery is [`UserStore::scrub`]: orphaned `.tmp` files (a writer
//! died before its rename) are deleted, records that no longer decode
//! are moved into a `quarantine/` subdirectory (counted under
//! `store.quarantined`) so a later forensic look is possible while the
//! serving tier sees a clean miss, and everything is reported in a
//! typed [`ScrubReport`]. Opening a store sweeps `.tmp` orphans
//! automatically.

use crate::codec::{decode_user_record, decode_user_record_with, encode_user_with, StoreError, UserRecord};
use crate::io::{FsIo, IoErrorKind, StoreIo};
use pws_click::UserId;
use pws_core::UserState;
use pws_entropy::QueryStats;
use pws_obs::StageMetrics;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::OnceLock;

fn read_stage() -> &'static Arc<StageMetrics> {
    static STAGE: OnceLock<Arc<StageMetrics>> = OnceLock::new();
    STAGE.get_or_init(|| pws_obs::stage("store.read"))
}

fn write_stage() -> &'static Arc<StageMetrics> {
    static STAGE: OnceLock<Arc<StageMetrics>> = OnceLock::new();
    STAGE.get_or_init(|| pws_obs::stage("store.write"))
}

fn quarantined_stage() -> &'static Arc<StageMetrics> {
    static STAGE: OnceLock<Arc<StageMetrics>> = OnceLock::new();
    STAGE.get_or_init(|| pws_obs::stage("store.quarantined"))
}

/// Subdirectory corrupt records are moved into by [`UserStore::scrub`].
pub const QUARANTINE_DIR: &str = "quarantine";

/// What one [`UserStore::scrub`] pass found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Record files examined.
    pub scanned: usize,
    /// Records that read and decoded cleanly.
    pub ok: usize,
    /// Orphaned `.tmp` files deleted (a writer died pre-rename).
    pub tmp_removed: usize,
    /// Corrupt records moved to `quarantine/`: `(file name, why)`.
    pub quarantined: Vec<(String, StoreError)>,
    /// Files that could not be read or relocated this pass (transient
    /// I/O trouble); left in place for the next scrub.
    pub skipped: usize,
}

impl ScrubReport {
    /// Whether the pass left the directory fully clean.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.skipped == 0 && self.tmp_removed == 0
    }
}

/// A directory of user records.
#[derive(Debug, Clone)]
pub struct UserStore {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
}

impl UserStore {
    /// Open (creating if needed) a store rooted at `dir`, on the real
    /// filesystem. Orphaned `.tmp` files from a crashed writer are
    /// swept on open.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with_io(dir, Arc::new(FsIo))
    }

    /// [`Self::open`] with an injected I/O layer (fault drills, the
    /// crash gauntlet, chaos `storeio=` runs).
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        let store = UserStore { dir, io };
        store.sweep_tmp_orphans();
        Ok(store)
    }

    /// Best-effort removal of `.tmp` orphans; failures are left for
    /// [`Self::scrub`] (which reports them) — opening must not fail on
    /// a sick disk that can still serve reads.
    fn sweep_tmp_orphans(&self) {
        let Ok(names) = self.io.list(&self.dir) else { return };
        for name in names {
            if name.ends_with(".tmp") {
                let _ = self.io.remove(&self.dir.join(&name));
            }
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, user: UserId) -> PathBuf {
        self.dir.join(format!("user-{:08x}.pwsu", user.0))
    }

    /// Persist one record: temp write → `fsync` temp → rename →
    /// `fsync` directory. Exactly four [`StoreIo`] ops, in that order —
    /// a crash after the fourth is durable, a crash at or before any of
    /// them leaves the previous record untouched.
    pub fn put(&self, record: &UserRecord) -> Result<(), StoreError> {
        self.put_with(record.user, &record.state, |emit| {
            for (key, s) in &record.query_stats {
                emit(key, s);
            }
        })
    }

    /// [`Self::put`] from borrowed parts — the same record bytes, with
    /// section 7 encoded from `visit_stats` (see [`encode_user_with`]), so
    /// neither the state nor the statistics are copied to assemble a
    /// [`UserRecord`].
    pub fn put_with(
        &self,
        user: UserId,
        state: &UserState,
        visit_stats: impl FnOnce(&mut dyn FnMut(&str, &QueryStats)),
    ) -> Result<(), StoreError> {
        // Per-writer temp names: two threads racing on the same user
        // must not rename each other's temp file out from under them.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let _span = write_stage().span();
        let bytes = encode_user_with(user, state, visit_stats);
        let path = self.path_for(user);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(".user-{:08x}.{seq:x}.tmp", user.0));
        let result = self
            .io
            .write(&tmp, &bytes)
            .and_then(|()| self.io.sync_file(&tmp))
            .and_then(|()| self.io.rename(&tmp, &path))
            .and_then(|()| self.io.sync_dir(&self.dir));
        result.map_err(|e| {
            // Best-effort cleanup: if the rename already happened the
            // temp file is gone and this is a no-op; a crashed "disk"
            // refuses it and the orphan waits for open/scrub.
            let _ = self.io.remove(&tmp);
            StoreError::Io(e)
        })
    }

    /// Load one record. `Ok(None)` when the user has never been written;
    /// a present-but-unreadable record is an `Err` (corruption must
    /// surface as a typed error, not as a silently fresh user).
    pub fn get(&self, user: UserId) -> Result<Option<UserRecord>, StoreError> {
        self.get_with(user, |_| true)
    }

    /// [`Self::get`] that decodes the record's per-query statistics only
    /// if `need_stats` asks for one of their keys (see
    /// [`decode_user_record_with`]); otherwise they are verified and the
    /// record comes back with none. Accepts and rejects exactly what
    /// [`Self::get`] does.
    pub fn get_with(
        &self,
        user: UserId,
        need_stats: impl FnMut(&str) -> bool,
    ) -> Result<Option<UserRecord>, StoreError> {
        let _span = read_stage().span();
        let path = self.path_for(user);
        let bytes = match self.io.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind == IoErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        decode_user_record_with(&bytes, need_stats).map(Some)
    }

    /// Whether a record exists for `user` (no decode).
    pub fn contains(&self, user: UserId) -> bool {
        self.path_for(user).exists()
    }

    /// Delete a user's record. `Ok(true)` if one existed.
    pub fn remove(&self, user: UserId) -> Result<bool, StoreError> {
        match self.io.remove(&self.path_for(user)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind == IoErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// All user ids with a record, ascending.
    pub fn users(&self) -> Result<Vec<UserId>, StoreError> {
        let mut out = Vec::new();
        for name in self.io.list(&self.dir)? {
            if let Some(id) = parse_record_name(&name) {
                out.push(id);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Number of stored records.
    pub fn len(&self) -> Result<usize, StoreError> {
        Ok(self.users()?.len())
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.users()?.is_empty())
    }

    /// Startup / maintenance recovery pass over the whole directory:
    ///
    /// 1. delete orphaned `.tmp` files (a writer died before its
    ///    rename published anything — the visible record is intact);
    /// 2. read + decode every record; ones that fail to decode are
    ///    moved into [`QUARANTINE_DIR`] (counted under
    ///    `store.quarantined`) so [`Self::get`] reports a clean miss
    ///    while the bytes stay available for forensics;
    /// 3. report everything in a [`ScrubReport`].
    ///
    /// Transient read trouble is *not* quarantine-worthy — those files
    /// are counted as `skipped` and left for the next pass. Foreign
    /// files (anything that is neither a record nor a temp file) are
    /// never touched.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        for name in self.io.list(&self.dir)? {
            let path = self.dir.join(&name);
            if name.ends_with(".tmp") {
                match self.io.remove(&path) {
                    Ok(()) => report.tmp_removed += 1,
                    Err(e) if e.kind == IoErrorKind::NotFound => {}
                    Err(_) => report.skipped += 1,
                }
                continue;
            }
            if parse_record_name(&name).is_none() {
                continue; // not ours (quarantine/, foreign files)
            }
            report.scanned += 1;
            let bytes = match self.io.read(&path) {
                Ok(b) => b,
                Err(e) if e.kind == IoErrorKind::NotFound => continue,
                Err(_) => {
                    report.skipped += 1;
                    continue;
                }
            };
            match decode_user_record(&bytes) {
                Ok(_) => report.ok += 1,
                Err(why) => {
                    let qdir = self.dir.join(QUARANTINE_DIR);
                    let moved = self
                        .io
                        .create_dir_all(&qdir)
                        .and_then(|()| self.io.rename(&path, &qdir.join(&name)));
                    match moved {
                        Ok(()) => {
                            quarantined_stage().incr(1);
                            report.quarantined.push((name, why));
                        }
                        Err(_) => report.skipped += 1,
                    }
                }
            }
        }
        Ok(report)
    }
}

/// `user-{:08x}.pwsu` → [`UserId`], `None` for anything else.
fn parse_record_name(name: &str) -> Option<UserId> {
    let hex = name.strip_prefix("user-")?.strip_suffix(".pwsu")?;
    u32::from_str_radix(hex, 16).ok().map(UserId)
}
