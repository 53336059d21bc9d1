//! Crash gauntlet: kill a [`UserStore`] put at **every** I/O step and
//! prove the old-or-new invariant, for a user record and for the pooled
//! statistics file alike.
//!
//! ```text
//! cargo run -p pws-bench --bin crash_gauntlet -- --smoke   # CI gate
//! cargo run -p pws-bench --bin crash_gauntlet             # full sweep
//! ```
//!
//! A durable put is exactly four counted [`pws_store::StoreIo`] ops — temp write,
//! temp `fsync`, rename, directory `fsync`. The gauntlet drives a
//! [`FaultIo`] over a real directory and checks, for both files and
//! every fault the injector can produce:
//!
//! 1. **Crash sweep** — the machine dies at each op index `0..4` (a
//!    dying write also tears its payload at every prefix length). The put
//!    fails typed — never a panic — and after the "reboot" (a fresh
//!    [`UserStore`] over the directory) the store yields the *old* file
//!    when the crash preceded the rename, the *new* one when only the
//!    directory `fsync` was lost, byte for byte, never a torn or missing
//!    one, and no orphaned temp file.
//! 2. **Refusal sweep** — `ENOSPC` at each op, a refused rename, and a
//!    sick-then-recovered disk (`eio_first`) all fail typed and
//!    transient; one retry lands the new file with no orphans.
//! 3. **Corruption** — every damaged copy the shared container gauntlet
//!    makes (each byte flipped, each prefix, each section-table mutation)
//!    fails typed on read. [`UserStore::scrub`] quarantines a bit-flipped
//!    and a zero-length record, the user reads as a clean miss, and a
//!    re-put restores service; an engine over a bit-flipped statistics
//!    file serves with empty statistics and counts `serve.state_io_error`.
//!
//! Any violation prints the case and exits non-zero. `--smoke` trims
//! the torn-prefix sweep to a handful of lengths; the invariants
//! checked are identical.

use pws_click::UserId;
use pws_core::{EngineConfig, UserState};
use pws_entropy::QueryStats;
use pws_geo::{LocId, LocationOntology};
use pws_index::{IndexBuilder, StoredDoc};
use pws_profile::{ContentProfile, LocationProfile, UserHistory};
use pws_ranksvm::{LinearRankModel, PreferencePair};
use pws_serve::{ServeConfig, ServingEngine, StoreTierConfig};
use pws_store::{
    encode_stats_file, encode_user_record, FaultIo, IoFaultSpec, StoreError, UserRecord, UserStore,
    STATS_FILE, STATS_FORMAT, STORE_FORMAT,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USER: UserId = UserId(0xC0FFEE);
const USER_FILE: &str = "user-00c0ffee.pwsu";

/// A fully-populated record (every codec section non-empty) whose
/// encoding differs per `version` — so "old vs new on disk" is a byte
/// comparison, not a guess.
fn record(version: u64) -> UserRecord {
    let v = version as f64;
    let mut state = UserState::new();
    state.model = LinearRankModel::from_weights(vec![0.25 + v, -1.5 * v, 3.0, v]);
    state.pairs = vec![PreferencePair {
        better: vec![1.0 + v, 2.0, -0.5, 0.125],
        worse: vec![0.0, 1.0, 0.5, -2.0 - v],
    }];
    state.content = ContentProfile::from_entries(
        vec![("seafood".into(), 0.7), ("harbor".into(), 0.3)],
        10 + version,
    );
    state.location =
        LocationProfile::from_entries(vec![(LocId(3), 0.6), (LocId(7), 0.4)], 5 + version);
    state.history = UserHistory::from_entries(
        vec![(format!("http://t.test/{version}"), 3), ("http://t.test/x".into(), 1)],
        vec![("t.test".into(), 4)],
        4,
    );
    state.observations = 10 + version;
    state.seen_queries = vec!["hotel".into(), "seafood".into()];
    let mut stats = BTreeMap::new();
    stats.insert(
        "seafood".into(),
        QueryStats::from_parts(
            vec![(format!("http://t.test/{version}"), 2.0)],
            vec![("seafood".into(), 1.5)],
            vec![(LocId(3), 0.5)],
            9 + version,
            4,
        ),
    );
    UserRecord::new(USER, state, stats)
}

/// The statistics file holding `stats`, as the store writes it.
fn stats_file(stats: &BTreeMap<String, QueryStats>) -> Vec<u8> {
    encode_stats_file(|emit| stats.iter().for_each(|(key, s)| emit(key, s)))
}

/// The two files a durable put writes: `USER`'s record, or the pooled
/// statistics file (holding `record(version)`'s statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum File {
    Record,
    Stats,
}

impl File {
    /// The file's bytes at `version`.
    fn bytes(self, version: u64) -> Vec<u8> {
        let r = record(version);
        if self == File::Record { encode_user_record(&r) } else { stats_file(&r.query_stats) }
    }

    fn put(self, store: &UserStore, version: u64) -> Result<(), StoreError> {
        let record = record(version);
        if self == File::Record {
            return store.put(&record);
        }
        store.put_stats(|emit| record.query_stats.iter().for_each(|(key, s)| emit(key, s)))
    }

    /// What the store reads back, re-encoded; `None` when it is missing.
    fn read(self, store: &UserStore) -> Result<Option<Vec<u8>>, StoreError> {
        if self == File::Record {
            return store.get(USER).map(|r| r.map(|r| encode_user_record(&r)));
        }
        store.get_stats().map(|s| s.map(|s| stats_file(&s)))
    }

    fn path(self, dir: &Path) -> PathBuf {
        dir.join(if self == File::Record { USER_FILE } else { STATS_FILE })
    }
}

fn fail(case: &str, why: &str) -> ! {
    eprintln!("FAIL [{case}]: {why}");
    std::process::exit(1);
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("pws-crash-gauntlet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn tmp_orphans(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().to_str().map(str::to_string))
                .filter(|n| n.ends_with(".tmp"))
                .collect()
        })
        .unwrap_or_default()
}

/// Put version 2 over version 1 through a `spec` that must fail the put
/// with a typed error, never a panic. A refusal (`retry`) is transient
/// and one retry lands the new file; a crash kills the machine. After the
/// reboot (a fresh store, healthy disk) the store must read version 2
/// when `want_new`, else version 1, byte for byte — never a torn or
/// missing file — with no temp orphan left.
fn fault_case(file: File, case: &str, spec: IoFaultSpec, retry: bool, want_new: bool) {
    let dir = fresh_dir("fault");
    file.put(&UserStore::open(&dir).expect("open for seeding"), 1).expect("seed old file");
    let io = Arc::new(FaultIo::new(spec));
    let store = UserStore::open_with_io(&dir, io.clone()).expect("open w/ injector");
    let err = match catch_unwind(AssertUnwindSafe(|| file.put(&store, 2))) {
        Ok(Ok(())) => fail(case, "put succeeded under a fault that must fail it"),
        Ok(Err(e)) => e,
        Err(_) => fail(case, "put PANICKED — typed errors only"),
    };
    if retry {
        if !err.is_transient() {
            fail(case, &format!("refusal must be typed transient, got {err:?}"));
        }
        if let Err(e) = file.put(&store, 2) {
            fail(case, &format!("retry after refusal failed: {e:?}"));
        }
    } else if !matches!(err, StoreError::Io(_)) || io.counts().crashed == 0 {
        fail(case, &format!("expected a crash's typed io error, got {err:?}"));
    }
    drop(store); // the dead "machine", or the healthy one after its retry

    let rebooted = UserStore::open(&dir).expect("reopen");
    let got = file.read(&rebooted);
    let got = got.unwrap_or_else(|e| fail(case, &format!("post-reboot read errored: {e:?}")));
    let old = file.bytes(1);
    match got {
        Some(got) if got == file.bytes(if want_new { 2 } else { 1 }) => {}
        Some(got) if got == old => fail(case, "reboot saw a stale file"),
        Some(_) => fail(case, "reboot saw a torn or foreign file"),
        None => fail(case, "file vanished across the fault"),
    }
    let orphans = tmp_orphans(&dir);
    let report = rebooted.scrub().expect("scrub after reboot");
    if !orphans.is_empty() || !report.is_clean() || report.ok != usize::from(file == File::Record) {
        fail(case, &format!("temp orphans {orphans:?}, or scrub not clean: {report:?}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every damaged copy of the file reads back through the store as a
/// typed, non-transient error (a panic fails the gate). Returns how many
/// were tried.
fn corrupt_reads_fail_typed(file: File) -> usize {
    let dir = fresh_dir("gauntlet");
    let store = UserStore::open(&dir).expect("open");
    let path = file.path(&dir);
    let format = if file == File::Record { STORE_FORMAT } else { STATS_FORMAT };
    let tried = format.gauntlet(&file.bytes(1), |bad| {
        std::fs::write(&path, bad).expect("write damaged file");
        matches!(file.read(&store), Err(e) if !e.is_transient())
    });
    let _ = std::fs::remove_dir_all(&dir);
    tried
}

fn flip_middle_byte(p: &Path) {
    let mut bytes = std::fs::read(p).expect("read for corruption");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(p, bytes).expect("write corruption");
}

/// Bit-flip / truncate-to-zero corruption: scrub quarantines, the user
/// becomes a clean miss, a re-put restores it.
fn corruption_case(tag: &str, corrupt: &dyn Fn(&Path)) {
    let case = format!("corruption {tag}");
    let dir = fresh_dir("corrupt");
    let store = UserStore::open(&dir).expect("open");
    File::Record.put(&store, 1).expect("seed");
    corrupt(&File::Record.path(&dir));
    let report = store.scrub().expect("scrub");
    if report.quarantined.len() != 1 {
        fail(&case, &format!("expected 1 quarantined record: {report:?}"));
    }
    if store.get(USER).expect("post-quarantine get").is_some() {
        fail(&case, "quarantined user must read as a clean miss");
    }
    let qname = &report.quarantined[0].0;
    if !dir.join(pws_store::QUARANTINE_DIR).join(qname).exists() {
        fail(&case, "quarantined bytes not preserved for forensics");
    }
    File::Record.put(&store, 2).expect("re-put after quarantine");
    if File::Record.read(&store).ok().flatten() != Some(File::Record.bytes(2)) {
        fail(&case, "re-put did not restore the user");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An engine over a good statistics file serves its statistics; over a
/// bit-flipped one it serves with none, counts one `serve.state_io_error`
/// and moves the bad file into quarantine byte for byte.
fn engine_over_corrupt_stats_file() {
    let dir = fresh_dir("stats-engine");
    File::Stats.put(&UserStore::open(&dir).expect("open"), 1).expect("write statistics");
    let mut b = IndexBuilder::new();
    b.add(StoredDoc::new(0, "http://t.test/0", "Harbor", "seafood restaurant by the harbor"));
    let (index, world) = (b.build(), LocationOntology::new());
    let store = Some(StoreTierConfig { writeback: false, ..StoreTierConfig::new(&dir) });
    let cfg = ServeConfig { store, ..ServeConfig::default() };
    let open = || ServingEngine::new(&index, &world, EngineConfig::default(), cfg.clone());
    let loaded = open().query_stats("seafood").is_some();
    flip_middle_byte(&File::Stats.path(&dir));
    let corrupt = std::fs::read(File::Stats.path(&dir)).expect("read the corrupt file");
    pws_obs::reset();
    let engine = open();
    let errors = pws_obs::snapshot().stage("serve.state_io_error").map_or(0, |s| s.count);
    let served = !engine.search(UserId(1), "seafood").hits.is_empty();
    if !loaded || errors != 1 || engine.query_stats("seafood").is_some() || !served {
        fail(
            "engine over a corrupt statistics file",
            &format!("good file loaded {loaded}, io errors {errors} (want 1), served {served}, \
                      statistics must start empty"),
        );
    }
    let quarantined = dir.join(pws_store::QUARANTINE_DIR).join(STATS_FILE);
    if std::fs::read(quarantined).ok() != Some(corrupt) {
        fail("engine over a corrupt statistics file", "corrupt bytes not moved into quarantine");
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let base = IoFaultSpec { seed: 9, ..IoFaultSpec::default() };
    let (mut crash_cases, mut refusal_cases, mut corrupt_reads) = (0usize, 0usize, 0usize);
    for file in [File::Record, File::Stats] {
        // 1. Crash sweep: every op index; a dying write (op 0)
        //    additionally swept over torn prefix lengths.
        let new_len = file.bytes(2).len();
        let torn_keeps: Vec<usize> = if smoke {
            vec![0, 1, new_len / 2, new_len.saturating_sub(1), new_len]
        } else {
            let stride = (new_len / 128).max(1);
            (0..=new_len).step_by(stride).chain([new_len]).collect()
        };
        for crash_at in 0..4u64 {
            let spec = IoFaultSpec { crash_at: Some(crash_at), ..base };
            // The rename (op 2) published the new file before op 3 died.
            fault_case(file, &format!("{file:?} crash_at={crash_at}"), spec, false, crash_at >= 3);
        }
        for &keep in &torn_keeps {
            let spec = IoFaultSpec { crash_at: Some(0), torn_keep: Some(keep), ..base };
            fault_case(file, &format!("{file:?} torn write of {keep} bytes"), spec, false, false);
        }
        crash_cases += 4 + torn_keeps.len();

        // 2. Refusals: ENOSPC at every op, a refused rename, a disk that
        //    is sick for the whole first attempt and then recovers.
        let refusals = (0..4u64)
            .map(|op| (format!("enospc_at={op}"), IoFaultSpec { enospc_at: Some(op), ..base }))
            .chain([
                ("rename_refused".into(), IoFaultSpec { rename_fail_at: Some(2), ..base }),
                ("torn_write".into(), IoFaultSpec { torn_at: Some(0), torn_keep: Some(3), ..base }),
            ]);
        for (tag, spec) in refusals {
            fault_case(file, &format!("{file:?} refusal {tag}"), spec, true, true);
            refusal_cases += 1;
        }

        // 3. Every damaged copy reads back as a typed error.
        corrupt_reads += corrupt_reads_fail_typed(file);
    }

    // 3. Corruption → typed error → quarantine → clean miss → recovery
    //    for a record; empty statistics for an engine over a bad file.
    corruption_case("bit_flip", &flip_middle_byte);
    corruption_case("zero_length", &|p: &Path| {
        std::fs::write(p, b"").expect("truncate to zero");
    });
    engine_over_corrupt_stats_file();

    println!(
        "crash gauntlet OK (user record and statistics file): {crash_cases} crash cases \
         (op kills and torn prefixes), {refusal_cases} typed refusals retried to the new file, \
         {corrupt_reads} damaged files read back as typed errors, 2 corrupt records \
         quarantined and recovered, a corrupt statistics file quarantined and served with \
         empty statistics — zero panics",
    );
}
