//! # pws-store — tiered persistence for per-user state
//!
//! The paper's premise is durable per-user concept/location profiles;
//! this crate is where they become durable. It provides the three layers
//! under the serving tier's LRU residency machinery (`pws-serve`):
//!
//! 1. **A binary user-record codec** ([`codec`]): versioned, checksummed
//!    (`PWSUSR1\0`, section table + FNV-1a-64 per section — the
//!    `pws_obs::format` container, `docs/CONTAINER_FORMAT.md`),
//!    capturing the *complete* replay-relevant state: profiles, RankSVM
//!    weights, revisit history, preference pairs, and a section for the
//!    user's slice of the per-query adaptive-β statistics (filled by an
//!    export; the store tier leaves it empty). Encoding is canonical (sorted maps,
//!    `f64::to_bits` little-endian), so equal logical records have equal
//!    bytes and a faulted-in user replays **byte-identically**. The record
//!    is also the export format (`pws-serve`'s `export_user`/`import_user`),
//!    and [`UserRecord::render`] is its human-readable view.
//! 2. **A directory store** ([`store`]): one file per user plus one
//!    statistics file ([`stats`]) holding the pooled per-query
//!    statistics once, durable temp-file + fsync + rename + dir-fsync
//!    writes, typed
//!    [`StoreError`] on every corruption, and a
//!    [`UserStore::scrub`](store::UserStore::scrub) recovery pass
//!    (orphan cleanup + corrupt-record quarantine).
//! 3. **An injectable I/O layer** ([`io`]): every filesystem call goes
//!    through the [`StoreIo`] trait — [`FsIo`] in production,
//!    [`FaultIo`] (seeded, per-op-counter fault injection: transient
//!    `EIO`, `ENOSPC`, refused renames, torn writes, simulated machine
//!    crashes) under test and in the `crash_gauntlet` bench.
//!
//! See `docs/STORE_FORMAT.md` for the byte-level format specification
//! (including the "Crash consistency & recovery" section).

pub mod codec;
pub mod io;
pub mod stats;
pub mod store;

pub use codec::{
    decode_user_record, encode_user_record, encode_user_with, SectionId, StoreError, UserRecord,
    FORMAT_VERSION, STORE_FORMAT, STORE_MAGIC,
};
pub use stats::{decode_stats_file, encode_stats_file, STATS_FILE, STATS_FORMAT};
pub use io::{FaultIo, FaultIoCounts, FsIo, IoError, IoErrorKind, IoFaultSpec, StoreIo};
pub use store::{ScrubReport, UserStore, QUARANTINE_DIR};
